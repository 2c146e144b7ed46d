"""Mean-field drift of the average Overhauser shift and its steady states.

The average shift omega obeys

    d omega / dt = -kappa * omega + alpha * d^2/d omega^2 [omega * C(omega, tau)]

balancing spin-diffusion decay against the trion-induced nuclear random
walk whose rate follows the count rate C.  This module evaluates the
right-hand side in closed form and finds its roots on one scan grid: all
of them with stability classification (``steady_states``), or the one
the flow carries a seed to (``relax_to_steady``, the continuation step
used by sweeps).  ``steady_states`` bisects all sign-change cells of one
delay together, one array drift call per bisection step; a relaxation
has a single cell and bisects it with scalar calls, which cost less on
one point.  Both take the same midpoints, so they give the same roots
bit for bit.
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


_BISECT_MAX_ITER = 200  # shared by both bisections, so they stop on the same step


def _bisect(g, lo: float, hi: float, g_lo: float, tol_abs: float) -> tuple[float, float]:
    """Bisection on a sign change until |g| <= tol_abs or float resolution."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if abs(g_mid) <= tol_abs:
            return mid, g_mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, g(mid)


def _bisect_brackets(g, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray,
                     tol_abs: float) -> tuple[np.ndarray, np.ndarray]:
    """``_bisect`` on every bracket at once, with one call of the array drift
    ``g`` per step on the midpoints of the brackets still active.

    Each bracket takes the scalar steps in the same order, so its midpoints,
    and hence its root and drift, equal ``_bisect``'s bit for bit.
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
        g_mid = g(mid)
        done = np.abs(g_mid) <= tol_abs
        w[active[done]], gw[active[done]] = mid[done], g_mid[done]
        active, mid, g_mid = active[~done], mid[~done], g_mid[~done]
        same = (g_lo[active] < 0.0) == (g_mid < 0.0)
        lo[active[same]], g_lo[active[same]] = mid[same], g_mid[same]
        hi[active[~same]] = mid[~same]
    rest = np.concatenate(resolved + [active])
    if rest.size:
        w[rest] = 0.5 * (lo[rest] + hi[rest])
        gw[rest] = g(w[rest])
    return w, gw


_WALK_CHUNK = 32  # scan points per drift call on the walk to the next root


def relax_to_steady(omega_init: float, tau: float, p: ModelParams,
                    mf: MeanFieldParams) -> SteadyState:
    """The root the drift carries omega_init to: the first in its direction.

    A seed within the residual tolerance is kept.  Otherwise the walk
    follows the ``steady_states`` scan grid from the point behind the seed
    to the first drift sign change and bisects that cell as
    ``steady_states`` does, so the result is one of its roots bit for bit.
    It lies in the basin of omega_init: sweeps keep branch memory.

    Raises ValueError for a non-finite omega_init or tau, and
    BracketEscapeError (tau attached) for |omega_init| > omega_bracket or
    no root between the seed and the bracket edge.
    """
    if not (math.isfinite(omega_init) and math.isfinite(tau)):
        raise ValueError(f"non-finite omega_init {omega_init!r} or tau {tau!r}")
    if abs(omega_init) > mf.omega_bracket:
        raise BracketEscapeError(
            f"omega_init {omega_init!r} outside bracket {mf.omega_bracket!r}", tau=tau)

    def g(w: float) -> float:
        return drift(w, tau, p, mf)

    w0 = float(omega_init)
    g0 = g(w0)
    if abs(g0) <= _residual_tol(p, mf):
        return SteadyState(omega_f=w0, stable=_is_stable(g, w0, mf.fd_step),
                           residual=abs(g0), basin_seed=w0)
    grid = _scan_grid(tau, p, mf)
    i = int(np.searchsorted(grid, w0, side="right" if g0 > 0.0 else "left"))
    path = grid[i - 1:] if g0 > 0.0 else grid[i::-1]
    near = (w0, g0)  # the last point on the path with the seed's drift sign
    for start in range(0, path.size, _WALK_CHUNK):
        pts = path[start:start + _WALK_CHUNK]
        vals = np.asarray(drift(pts, tau, p, mf))
        if start == 0:  # the point behind the seed opens the first cell if it has g0's sign
            near = (pts[0], vals[0]) if vals[0] * g0 > 0.0 else near
            pts, vals = pts[1:], vals[1:]
        pts, vals = np.r_[near[0], pts], np.r_[near[1], vals]
        k = int(np.argmax(vals * g0 <= 0.0))
        if k == 0:
            near = (pts[-1], vals[-1])
            continue
        w, gw = float(pts[k]), float(vals[k])
        if gw == 0.0:
            return SteadyState(omega_f=w, stable=_is_stable(g, w, mf.fd_step),
                               residual=0.0, basin_seed=w0)
        # _bisect treats its two ends alike, so this is the steady_states cell.
        w, gw = _bisect(g, float(pts[k - 1]), w, float(vals[k - 1]), _residual_tol(p, mf))
        return SteadyState(omega_f=w, stable=True, residual=abs(gw), basin_seed=w0)
    raise BracketEscapeError(f"no root between omega_init {w0!r} and the bracket edge",
                             tau=tau)


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


def steady_states(tau: float, p: ModelParams, mf: MeanFieldParams) -> list[SteadyState]:
    """All roots of the drift on [-W, W] the scan finds, sorted, with stability.

    Every sign change of the drift on the ``_scan_grid`` points is bisected
    to the residual tolerance, or to float resolution where the drift moves
    by more than the tolerance per ulp.  All cells of the delay advance
    together, with one array drift call per step on the midpoints still
    open.  Stability is sign-based.  Where the drift points inward at both
    edges, as decay usually ensures at W >= 4 sigma, the count is odd; a
    trion-term spike on an edge (tau = 1.42857 ns at the defaults) turns
    that edge outward, and a root pair straddles it.  A root pair within
    one scan cell can be missed.  Raises ValueError for a non-finite tau.
    """
    if not math.isfinite(tau):
        raise ValueError(f"non-finite tau {tau!r}")
    grid = _scan_grid(tau, p, mf)
    gvals = np.asarray(drift(grid, tau, p, mf))

    def g(w):
        return drift(w, tau, p, mf)

    roots: list[SteadyState] = []
    exact = np.flatnonzero(gvals == 0.0)
    for i in exact:
        w = float(grid[i])
        roots.append(SteadyState(omega_f=w, stable=_is_stable(g, w, mf.fd_step),
                                 residual=0.0, basin_seed=w))
    change = np.flatnonzero(gvals[:-1] * gvals[1:] < 0.0)
    ws, gws = _bisect_brackets(g, grid[change], grid[change + 1], gvals[change],
                               _residual_tol(p, mf))
    for i, w, gw in zip(change, ws.tolist(), gws.tolist()):
        # Transversal crossing: falling through zero means attracting.
        roots.append(SteadyState(omega_f=w, stable=float(gvals[i]) > 0.0,
                                 residual=abs(gw), basin_seed=w))
    roots.sort(key=lambda r: r.omega_f)
    return roots
