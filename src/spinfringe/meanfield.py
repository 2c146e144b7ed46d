"""Mean-field drift of the average Overhauser shift and its steady states.

The average shift omega obeys

    d omega / dt = -kappa * omega + alpha * d^2/d omega^2 [omega * C(omega, tau)]

balancing spin-diffusion decay against the trion-induced nuclear random
walk whose rate follows the count rate C.  This module evaluates the
right-hand side in closed form, relaxes it to quasi-equilibrium with an
adaptive explicit integrator (the continuation step used by sweeps), and
enumerates every steady state on a bracket with stability classification.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketEscapeError, NoConvergenceError
from .fringe import count_rate_curvature
from .params import MeanFieldParams, ModelParams, SteadyState

__all__ = ["d2_omega_C", "drift", "relax_to_steady", "steady_states"]


def d2_omega_C(omega, tau, p: ModelParams):
    """Closed-form d^2/d omega^2 [omega * C(omega, tau)] = 2 C' + omega C''.

    Units 1/(rad/ns).  Accepts scalars or arrays.  The tests check this
    expression against five-point central finite differences of
    omega * count_rate.
    """
    _, c1, c2 = count_rate_curvature(omega, tau, p)
    out = 2.0 * c1 + np.asarray(omega, dtype=float) * c2
    return out if np.ndim(out) else float(out)


def drift(omega, tau, p: ModelParams, mf: MeanFieldParams):
    """Right-hand side -kappa*omega + alpha*d2_omega_C(omega, tau) [rad/ns^2]."""
    out = -mf.kappa * np.asarray(omega, dtype=float) + mf.alpha * d2_omega_C(omega, tau, p)
    return out if np.ndim(out) else float(out)


def _residual_tol(p: ModelParams, mf: MeanFieldParams) -> float:
    """Absolute steady-state residual tolerance |drift| <= relax_tol*kappa*sigma."""
    rate = mf.kappa if mf.kappa > 0 else mf.alpha / p.sigma ** 2
    return mf.relax_tol * rate * p.sigma


def _is_stable(g, omega: float, fd_step: float) -> bool:
    """Sign of the local drift slope, robust to narrow fringe-edge features.

    A stable root has drift > 0 on its left and < 0 on its right.  The
    probe distance starts at fd_step and shrinks when both probes land on
    the same side of zero (feature narrower than the step); the final
    fallback is the central-difference slope sign at the smallest step.
    """
    h = fd_step
    for _ in range(5):
        g_left, g_right = g(omega - h), g(omega + h)
        if g_left > 0.0 and g_right < 0.0:
            return True
        if g_left < 0.0 and g_right > 0.0:
            return False
        h /= 16.0
    return g(omega + h) - g(omega - h) <= 0.0


def _bisect(g, lo: float, hi: float, g_lo: float, g_hi: float,
            tol_abs: float, max_iter: int = 200) -> tuple[float, float]:
    """Bisection on a sign change until |g| <= tol_abs or float resolution."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if abs(g_mid) <= tol_abs:
            return mid, g_mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    mid = 0.5 * (lo + hi)
    return mid, g(mid)


def _step_cap(tau: float, sigma: float) -> float:
    """Largest omega move per integration step: a sliver of a fringe."""
    cap = sigma / 10.0
    if tau > 0.0:
        cap = min(cap, math.pi / (10.0 * tau))
    return cap


def relax_to_steady(omega_init: float, tau: float, p: ModelParams,
                    mf: MeanFieldParams) -> SteadyState:
    """Integrate the drift from omega_init to its quasi-equilibrium.

    Uses Heun's method in dimensionless time t' = kappa*t with step-size
    control on the predictor/corrector discrepancy and a per-step omega
    cap well below the fringe scale, so the trajectory cannot hop across
    an intervening root; a step whose endpoint changes the drift sign has
    bracketed the attracting root and is finished by bisection.  The
    result therefore lies in the basin containing omega_init, which is
    what gives sweeps their hysteresis memory.

    Raises ValueError for a non-finite omega_init or tau,
    NoConvergenceError when t' exceeds relax_t_max and
    BracketEscapeError when |omega| exceeds omega_bracket.
    """
    if not (math.isfinite(omega_init) and math.isfinite(tau)):
        raise ValueError(f"non-finite omega_init {omega_init!r} or tau {tau!r}")
    if abs(omega_init) > mf.omega_bracket:
        raise BracketEscapeError(
            f"omega_init {omega_init!r} outside bracket {mf.omega_bracket!r}", tau=tau)

    def g(w: float) -> float:
        return drift(w, tau, p, mf)

    tol_abs = _residual_tol(p, mf)
    # Time scale for nondimensionalization; alpha-only systems still relax.
    rate = mf.kappa if mf.kappa > 0 else mf.alpha / p.sigma ** 2
    h_max = _step_cap(tau, p.sigma)
    err_tol = 0.02 * p.sigma

    w = float(omega_init)
    gw = g(w)
    t_nd = 0.0
    dt = 0.05
    while t_nd < mf.relax_t_max:
        if abs(gw) <= tol_abs:
            break
        dt_eff = min(dt, h_max * rate / abs(gw), mf.relax_t_max - t_nd + 1e-12)
        w_euler = w + dt_eff * gw / rate
        if abs(w_euler) > mf.omega_bracket:
            raise BracketEscapeError(
                f"relaxation left |omega| <= {mf.omega_bracket!r} at tau={tau!r}", tau=tau)
        g_euler = g(w_euler)
        if gw * g_euler < 0.0:
            w, gw = _bisect(g, w, w_euler, gw, g_euler, tol_abs)
            break
        w_heun = w + 0.5 * dt_eff * (gw + g_euler) / rate
        err = abs(w_heun - w_euler)
        if err > err_tol:
            dt = 0.5 * dt_eff
            continue
        w = w_heun
        gw = g(w)
        t_nd += dt_eff
        dt = min(dt_eff * (1.5 if err < 0.25 * err_tol else 1.0), 50.0)
    else:
        raise NoConvergenceError(
            f"no steady state within t' <= {mf.relax_t_max!r} at tau={tau!r}", tau=tau)

    stable = _is_stable(g, w, mf.fd_step)
    return SteadyState(omega_f=w, stable=stable, residual=abs(gw),
                       basin_seed=float(omega_init))


def _null_clusters(tau: float, p: ModelParams, w_max: float) -> list[np.ndarray]:
    """Extra scan points around fringe nulls, where drift roots are narrow.

    Near a null of 1 - cos((omega0 + omega) tau) and weak pumping, the
    trion term spikes over a window of angular width ~ sqrt(8 beta T), so
    a uniform fringe-scale scan can step over the sign changes.  Each
    null inside the bracket gets a cluster of points spanning a few such
    widths.  Nulls where the pumping factor underflows carry no spike
    (the count is identically zero there) and are skipped.
    """
    if tau <= 0.0 or p.beta0 <= 0.0:
        return []
    theta_lo = (p.omega0 - w_max) * tau
    theta_hi = (p.omega0 + w_max) * tau
    clusters = []
    fringe = 2.0 * math.pi / tau
    for k in range(int(math.ceil(theta_lo / (2 * math.pi))),
                   int(math.floor(theta_hi / (2 * math.pi))) + 1):
        omega_k = 2.0 * math.pi * k / tau - p.omega0
        bt = p.beta0 * math.exp(-0.5 * (omega_k / p.sigma) ** 2) * p.T
        if math.exp(-bt) == 1.0:
            continue
        half = min(4.0 * math.sqrt(8.0 * bt) / tau, 0.45 * fringe)
        clusters.append(omega_k + np.linspace(-half, half, 41))
    return clusters


def steady_states(tau: float, p: ModelParams, mf: MeanFieldParams) -> list[SteadyState]:
    """All roots of the drift on [-W, W], sorted by omega, with stability.

    Dense scan with step at most a twentieth of the fringe period 2 pi/tau
    (and of sigma/8, whichever is smaller), enriched near fringe nulls
    where the root features narrow with weak pumping, then bisection
    refinement of every sign change to the residual tolerance and
    sign-based stability classification.  The decay term dominates at
    |omega| = W >= 4 sigma, so the scan always brackets at least one root.
    Raises ValueError for a non-finite tau.
    """
    if not math.isfinite(tau):
        raise ValueError(f"non-finite tau {tau!r}")
    w_max = mf.omega_bracket
    step = p.sigma / 8.0
    if tau > 0.0:
        step = min(step, 2.0 * math.pi / (20.0 * tau))
    n = max(int(math.ceil(2.0 * w_max / step)) + 1, 9)
    parts = [np.linspace(-w_max, w_max, n)]
    if mf.alpha > 0.0:
        parts.extend(_null_clusters(tau, p, w_max))
    grid = np.unique(np.concatenate(parts))
    grid = grid[(grid >= -w_max) & (grid <= w_max)]
    gvals = np.asarray(drift(grid, tau, p, mf))

    def g(w: float) -> float:
        return drift(w, tau, p, mf)

    tol_abs = _residual_tol(p, mf)
    roots: list[SteadyState] = []
    exact = np.flatnonzero(gvals == 0.0)
    for i in exact:
        w = float(grid[i])
        roots.append(SteadyState(omega_f=w, stable=_is_stable(g, w, mf.fd_step),
                                 residual=0.0, basin_seed=w))
    change = np.flatnonzero(gvals[:-1] * gvals[1:] < 0.0)
    for i in change:
        w, gw = _bisect(g, float(grid[i]), float(grid[i + 1]),
                        float(gvals[i]), float(gvals[i + 1]), tol_abs)
        # Transversal crossing: falling through zero means attracting.
        roots.append(SteadyState(omega_f=w, stable=float(gvals[i]) > 0.0,
                                 residual=abs(gw), basin_seed=w))
    roots.sort(key=lambda r: r.omega_f)
    return roots
