"""Mean-field drift of the average Overhauser shift and its steady states.

The average shift omega obeys

    d omega / dt = -kappa * omega + alpha * d^2/d omega^2 [omega * C(omega, tau)]

balancing spin-diffusion decay against the trion-induced nuclear random
walk whose rate follows the count rate C.  This module evaluates the
right-hand side in closed form and finds its roots with one engine,
``_root_table``, which bisects the sign-change brackets of the scan grids
of all requested delays together.  ``steady_states`` is its public call,
on one delay or on a whole delay grid; ``nullcline`` makes one such call.
``relax_to_steady``, the continuation step of sweeps, is a lookup in that
table with no bisection of its own; sweeps build one table for all their
delays and apply the same lookup (``_relax``).  Where no crossing shows
stability, the sign of the closed-form drift slope (``_slope``) does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketEscapeError
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


def _slope(omega, tau, p: ModelParams, mf: MeanFieldParams):
    """Closed-form drift slope -kappa + alpha*(3 C'' + omega C''') [1/ns]."""
    _, _, c2, c3 = count_rate_curvature(omega, tau, p, third=True)
    return -mf.kappa + mf.alpha * (3.0 * c2 + omega * c3)


_BISECT_MAX_ITER = 200


def _bisect_brackets(tau: np.ndarray, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray,
                     p: ModelParams, mf: MeanFieldParams,
                     tol_abs: float) -> tuple[np.ndarray, np.ndarray]:
    """Bisect each sign-change bracket [lo, hi] of the drift at its delay
    ``tau`` until |drift| <= tol_abs or float resolution; returns the roots
    and their drifts.  One array drift call per step takes the midpoints
    of the brackets still open; the end whose drift has the midpoint's
    sign moves, so the two ends are treated alike.
    """
    lo, hi, g_lo = (np.array(a, dtype=float) for a in (lo, hi, g_lo))
    w, gw = np.empty_like(lo), np.empty_like(lo)
    active = np.arange(lo.size)
    resolved = []  # brackets that reached float resolution
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo[active] + hi[active])
        flat = (mid == lo[active]) | (mid == hi[active])
        resolved.append(active[flat])
        active, mid = active[~flat], mid[~flat]
        if not active.size:
            break
        g_mid = drift(mid, tau[active], p, mf)
        done = np.abs(g_mid) <= tol_abs
        w[active[done]], gw[active[done]] = mid[done], g_mid[done]
        active, mid, g_mid = active[~done], mid[~done], g_mid[~done]
        same = (g_lo[active] < 0.0) == (g_mid < 0.0)
        lo[active[same]], g_lo[active[same]] = mid[same], g_mid[same]
        hi[active[~same]] = mid[~same]
    rest = np.concatenate(resolved + [active])
    if rest.size:
        w[rest] = 0.5 * (lo[rest] + hi[rest])
        gw[rest] = drift(w[rest], tau[rest], p, mf)
    return w, gw


def _null_clusters(tau: float, p: ModelParams, w_max: float) -> np.ndarray:
    """Extra scan points around fringe nulls, where drift roots are narrow.

    Near a null of 1 - cos((omega0 + omega) tau) and weak pumping, the
    trion term spikes over a window of angular width ~ sqrt(8 beta T), so
    a uniform fringe-scale scan can step over the sign changes.  Each
    null inside the bracket gets a cluster of points spanning a few such
    widths: 41 points, built for all nulls in one ``linspace`` call.
    Nulls where the pumping factor underflows carry no spike (the count
    is identically zero there) and are skipped.
    """
    if tau <= 0.0 or p.beta0 <= 0.0:
        return np.empty(0)
    theta_lo = (p.omega0 - w_max) * tau
    theta_hi = (p.omega0 + w_max) * tau
    centres, halves = [], []
    fringe = 2.0 * math.pi / tau
    for k in range(int(math.ceil(theta_lo / (2 * math.pi))),
                   int(math.floor(theta_hi / (2 * math.pi))) + 1):
        omega_k = 2.0 * math.pi * k / tau - p.omega0
        bt = p.beta0 * math.exp(-0.5 * (omega_k / p.sigma) ** 2) * p.T
        if math.exp(-bt) == 1.0:
            continue
        centres.append(omega_k)
        halves.append(min(4.0 * math.sqrt(8.0 * bt) / tau, 0.45 * fringe))
    h = np.array(halves)
    return (np.array(centres)[:, None] + np.linspace(-h, h, 41, axis=1)).ravel()


def _scan_grid(tau: float, p: ModelParams, mf: MeanFieldParams) -> np.ndarray:
    """Sorted scan points on [-W, W]: a step of at most a twentieth of the
    fringe period 2 pi/tau and of sigma/8, enriched near fringe nulls."""
    w_max = mf.omega_bracket
    step = p.sigma / 8.0
    if tau > 0.0:
        step = min(step, 2.0 * math.pi / (20.0 * tau))
    n = max(int(math.ceil(2.0 * w_max / step)) + 1, 9)
    parts = [np.linspace(-w_max, w_max, n)]
    if mf.alpha > 0.0:
        parts.append(_null_clusters(tau, p, w_max))
    grid = np.unique(np.concatenate(parts))
    return grid[(grid >= -w_max) & (grid <= w_max)]


def _root_table(taus, p: ModelParams, mf: MeanFieldParams) -> list[tuple[np.ndarray, ...]]:
    """The roots of the drift the scan finds at each delay of ``taus`` (at
    least one): arrays (omega, stable, residual) per delay, sorted by omega.

    Each ``_scan_grid`` takes one array drift call.  A sign change between
    neighbouring points is a bracket, an exact zero a bracket of width
    zero, and the brackets of all delays go through one
    ``_bisect_brackets`` pass.  Raises ValueError for a non-finite tau.
    """
    taus = np.array(taus, dtype=float, ndmin=1)
    if not np.all(np.isfinite(taus)):
        raise ValueError(f"non-finite tau {float(taus[~np.isfinite(taus)][0])!r}")
    parts = []  # (delay, lo, hi, g_lo) of every bracket
    for k, tau in enumerate(taus.tolist()):
        grid = _scan_grid(tau, p, mf)
        gvals = np.asarray(drift(grid, tau, p, mf))
        zero = np.flatnonzero(gvals == 0.0)
        change = np.flatnonzero(gvals[:-1] * gvals[1:] < 0.0)
        lo, hi = np.r_[zero, change], np.r_[zero, change + 1]
        parts.append((np.full(lo.size, k), grid[lo], grid[hi], gvals[lo]))
    delay, lo, hi, g_lo = (np.concatenate(c) for c in zip(*parts))
    w, gw = _bisect_brackets(taus[delay], lo, hi, g_lo, p, mf, _residual_tol(p, mf))
    stable = g_lo > 0.0  # a transversal crossing that falls through zero attracts
    if (zero := g_lo == 0.0).any():  # exact scan zeros: the slope's sign decides
        stable[zero] = _slope(w[zero], taus[delay[zero]], p, mf) <= 0.0
    order = np.lexsort((w, delay))
    cuts = np.searchsorted(delay[order], np.arange(1, taus.size))
    return list(zip(*(np.split(c[order], cuts) for c in (w, stable, np.abs(gw)))))


def _relax(roots: tuple[np.ndarray, ...], tau: float, omega_init: float, p: ModelParams,
           mf: MeanFieldParams) -> SteadyState:
    """The lookup rule on one delay's ``_root_table`` entry: see ``relax_to_steady``."""
    if not math.isfinite(omega_init):
        raise ValueError(f"non-finite omega_init {omega_init!r}")
    if abs(omega_init) > mf.omega_bracket:
        raise BracketEscapeError(
            f"omega_init {omega_init!r} outside bracket {mf.omega_bracket!r}", tau=tau)
    w0 = float(omega_init)
    g0 = drift(w0, tau, p, mf)
    if abs(g0) <= _residual_tol(p, mf):
        return SteadyState(tau=float(tau), omega_f=w0, stable=_slope(w0, tau, p, mf) <= 0.0,
                           residual=abs(g0), basin_seed=w0)
    omega, stable, residual = roots
    side = omega > w0 if g0 > 0.0 else omega < w0
    ahead = np.flatnonzero(side | ((omega == w0) & stable))
    if not ahead.size:
        raise BracketEscapeError(f"no root between omega_init {w0!r} and the bracket edge",
                                 tau=tau)
    j = ahead[0] if g0 > 0.0 else ahead[-1]
    return SteadyState(tau=float(tau), omega_f=float(omega[j]), stable=bool(stable[j]),
                       residual=float(residual[j]), basin_seed=w0)


def steady_states(tau, p: ModelParams, mf: MeanFieldParams) -> list[SteadyState]:
    """All roots of the drift on [-W, W] the scan finds, with stability, at
    one delay or at each distinct delay of a 1-d array.

    One ``_root_table`` call bisects the brackets of all delays together,
    which changes no root against one call per delay.  The roots come as
    one flat list sorted by ``tau`` and then by ``omega_f``; each carries
    its delay in ``tau``, so callers group by that field, not by position.
    Each root's ``residual`` is <= relax_tol*kappa*sigma, or the root ends
    at float resolution where the drift moves by more than that per ulp
    (|drift| 4.25e-7 against 1.005e-7 at tau = 1.5, kappa = 0.01, alpha =
    100).  ``basin_seed`` is the root itself; ``stable`` is as in ``SteadyState``.
    Where the drift points inward at both edges, as decay usually ensures
    at W >= 4 sigma, the count per delay is odd; a trion-term spike on an
    edge (tau = 1.42857 ns at the defaults) turns that edge outward, and a
    root pair straddles it.  A root pair within one scan cell can be
    missed.  Raises ValueError for a non-finite tau or an array of more
    than one dimension.
    """
    if np.ndim(tau) > 1:
        raise ValueError("tau must be one delay or a 1-d array of delays")
    taus = np.unique(np.asarray(tau, dtype=float))
    if not taus.size:
        return []
    return [SteadyState(tau=t, omega_f=w, stable=s, residual=r, basin_seed=w)
            for t, (omega, stable, residual) in zip(taus.tolist(), _root_table(taus, p, mf))
            for w, s, r in zip(omega.tolist(), stable.tolist(), residual.tolist())]


def relax_to_steady(omega_init: float, tau: float, p: ModelParams,
                    mf: MeanFieldParams) -> SteadyState:
    """The root the drift carries omega_init to: a lookup in ``steady_states``.

    A seed within the residual tolerance is kept.  Otherwise the result
    is the nearest of those roots on the side ``sign(drift(omega_init))``
    points to, counting a stable root at the seed itself.  It lies in the
    basin of omega_init, so sweeps keep branch memory.  ``residual`` is as
    in ``steady_states``; ``basin_seed`` is omega_init and ``tau`` the delay.

    Raises ValueError for a non-finite omega_init or tau, and
    BracketEscapeError (tau attached) for |omega_init| > omega_bracket or
    no root between the seed and the bracket edge.
    """
    return _relax(_root_table(tau, p, mf)[0], tau, omega_init, p, mf)
