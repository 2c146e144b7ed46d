"""Mean-field drift of the average Overhauser shift and its steady states.

The average shift omega obeys

    d omega / dt = -kappa * omega + alpha * d^2/d omega^2 [omega * C(omega, tau)]

balancing spin-diffusion decay against the trion-induced nuclear random
walk whose rate follows the count rate C.  This module evaluates the
right-hand side in closed form and finds its roots with one engine,
``_root_table``.  It takes the delays in blocks: one array pass lays out
the scan grids of a block's delays and one drift call evaluates them.
The sign-change brackets of all delays are then refined together by
safeguarded secant steps from the scan's own end drifts
(``_bisect_brackets``).  ``steady_states`` is its public call, on one
delay or on a whole delay grid; ``nullcline`` makes one such call.
``relax_to_steady``, the continuation of sweeps, walks one delay or a
path of delays by a lookup in one such table of all its distinct delays,
with no root search of its own.  Where no crossing shows stability, the
sign of the closed-form drift slope (``_slope``) does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketEscapeError
from .fringe import count_rate_curvature
from .params import MeanFieldParams, ModelParams, SteadyState, _require_finite_args

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


# Steps per bracket at most.  The halving safeguard halves a bracket at
# least once in every four steps.  On the criterion-3 draws and the ps2
# decades a bracket takes 2-9 steps to the residual tolerance, 4.4 on
# average, and 4-49 to float resolution.
_REFINE_MAX_ITER = 200


def _bisect_brackets(tau: np.ndarray, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray,
                     g_hi: np.ndarray, p: ModelParams, mf: MeanFieldParams,
                     tol_abs: float) -> tuple[np.ndarray, np.ndarray]:
    """Narrow each sign-change bracket [lo, hi] of the drift at its delay
    ``tau``, whose ends have the drifts g_lo and g_hi, until |drift| <=
    tol_abs or float resolution (the midpoint equals an end); returns the
    roots and their drifts.

    One array drift call per step takes a trial point in each bracket
    still open, and the end whose drift has the trial's sign moves there.
    The trial is the secant point of the end drifts, where the end kept
    twice in a row has its drift scaled by m = 1 - g_new/g_old (0.5 if
    m <= 0), the Anderson-Bjorck rule (BIT 13, 1973).  It is the midpoint
    instead where the secant point is not strictly inside the bracket or
    the bracket has not halved in the last three steps.  A bracket at
    float resolution, or still open after ``_REFINE_MAX_ITER`` steps,
    ends at the end with the smaller |drift| (lo on a tie), which takes
    no drift call.
    """
    ends, g_ends = np.array([lo, hi], dtype=float), np.array([g_lo, g_hi], dtype=float)
    scaled = g_ends.copy()  # the end drifts the secant point uses
    last = np.full(ends.shape[1], -1)  # the end that moved in the last step
    widths = np.full((3, ends.shape[1]), np.inf)  # row step % 3: the width three steps back
    w, gw = np.empty(ends.shape[1]), np.empty(ends.shape[1])
    active = np.arange(ends.shape[1])

    def settle(idx):  # float resolution or the step cap: the better end
        better = (np.abs(g_ends[1, idx]) < np.abs(g_ends[0, idx])).astype(np.intp)
        w[idx], gw[idx] = ends[better, idx], g_ends[better, idx]

    for step in range(_REFINE_MAX_ITER):
        a, b = ends[0, active], ends[1, active]
        mid = 0.5 * (a + b)
        flat = (mid == a) | (mid == b)
        settle(active[flat])
        active, a, b, mid = active[~flat], a[~flat], b[~flat], mid[~flat]
        if not active.size:
            break
        s_a, s_b = scaled[0, active], scaled[1, active]
        x = a + (b - a) * (s_a / (s_a - s_b))
        span = b - a
        halved = span <= 0.5 * widths[step % 3, active]
        widths[step % 3, active] = span
        x = np.where((a < x) & (x < b) & halved, x, mid)
        g = drift(x, tau[active], p, mf)
        done = np.abs(g) <= tol_abs
        w[active[done]], gw[active[done]] = x[done], g[done]
        active, x, g = active[~done], x[~done], g[~done]
        side = ((g_ends[0, active] < 0.0) != (g < 0.0)).astype(np.intp)  # 0: x replaces lo
        again = last[active] == side
        m = 1.0 - g[again] / g_ends[side[again], active[again]]
        scaled[1 - side[again], active[again]] *= np.where(m > 0.0, m, 0.5)
        ends[side, active], g_ends[side, active], scaled[side, active] = x, g, g
        last[active] = side
    settle(active)
    return w, gw


# Scan points per block of delays in ``_root_table``; each block takes one
# drift call, whose kernel holds about 153 bytes per point (10**4 points,
# traced).  The five 146-delay tables of a step-0.01 sweep at ps2 ratios
# 1e2-1e6 took medians of 244, 184, 186 and 189 ms in process at 2**11,
# 2**12, 2**13 and 2**14 (12 interleaved rounds), and one table traced
# 0.97, 1.18, 1.80 and 3.32 MB: past 2**12 a larger block buys no time.
_SCAN_BLOCK = 2 ** 12
_CLUSTER = 41  # scan points around each fringe null
# Points per drift call at most in the refinement and in a walk's seed
# drifts, whose counts grow with the roots.  On the default 726-delay
# grid at ps2 ratio 1e2 (28,446 roots) the root table traced 11.3 MB with
# one refinement call for all brackets, and 3.0 MB at 2**11.
_POINT_BLOCK = 2 ** 11


def _slices(n: int) -> list[slice]:
    """Consecutive slices of at most ``_POINT_BLOCK`` of n items; one if n = 0."""
    return [slice(i, i + _POINT_BLOCK) for i in range(0, max(n, 1), _POINT_BLOCK)]


def _scan_step(tau, sigma: float):
    """The uniform scan step at delays tau > 0: at most sigma/8 and a
    twentieth of the fringe period 2 pi/tau."""
    return np.minimum(sigma / 8.0, 2.0 * math.pi / (20.0 * tau))


def _scan_sizes(taus: np.ndarray, p: ModelParams,
                mf: MeanFieldParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per delay: the points of the uniform scan, the index k of the first
    fringe null 2 pi k/tau - omega0 in [-W, W] and the number of nulls there.

    The uniform step is ``_scan_step``, and sigma/8 at tau = 0.  Nulls
    count only where a trion term can spike: at tau > 0 with beta0 > 0
    and alpha > 0.
    """
    w_max = mf.omega_bracket
    on = taus > 0.0
    step = np.full(taus.shape, p.sigma / 8.0)
    step[on] = _scan_step(taus[on], p.sigma)
    n = np.maximum(np.ceil(2.0 * w_max / step).astype(np.intp) + 1, 9)
    first = np.zeros(taus.shape)
    count = np.zeros(taus.shape, dtype=np.intp)
    if p.beta0 > 0.0 and mf.alpha > 0.0:
        first[on] = np.ceil((p.omega0 - w_max) * taus[on] / (2 * math.pi))
        last = np.floor((p.omega0 + w_max) * taus[on] / (2 * math.pi))
        count[on] = np.maximum(last - first[on] + 1.0, 0.0)
    return n, first, count


def _scan_grids(taus: np.ndarray, p: ModelParams, mf: MeanFieldParams,
                sizes: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The scan grids of the delays ``taus``, concatenated in their order,
    and the number of points of each; ``sizes`` is their ``_scan_sizes``.

    Each grid is sorted on [-W, W], with no point twice: the uniform scan
    of ``_scan_sizes``, enriched near fringe nulls.  Near a null of
    1 - cos((omega0 + omega) tau) and weak pumping, the trion term spikes
    over a window of angular width ~ sqrt(8 beta T), so a uniform
    fringe-scale scan can step over the sign changes.  Each null gets a
    cluster of 41 points spanning a few such widths.  Nulls where the
    pumping factor underflows carry no spike (the count is identically
    zero there) and get none.  All grids are built in one array pass:
    one padded row per delay, with the ``np.linspace`` formula per delay
    and one ``linspace`` call for all clusters, sorted along the rows.
    """
    w_max = mf.omega_bracket
    n, first, count = sizes
    row = np.repeat(np.arange(taus.size), count)
    k = first[row] + (np.arange(row.size) - np.repeat(np.cumsum(count) - count, count))
    tau = taus[row]
    centre = 2.0 * math.pi * k / tau - p.omega0
    # Past 40 sigma exp(-(w/sigma)**2 / 2) underflows to 0, so those nulls
    # get no pumping and no cluster; their square is not taken, as it can
    # overflow.
    near = np.abs(centre) < 40.0 * p.sigma
    row, tau, centre = row[near], tau[near], centre[near]
    # Scalar math.exp: np.exp differs from it in the last bit on about 5% of arguments.
    bt = [p.beta0 * math.exp(-0.5 * (w / p.sigma) ** 2) * p.T for w in centre.tolist()]
    live = np.array([math.exp(-b) != 1.0 for b in bt], dtype=bool)
    row, tau, centre, bt = row[live], tau[live], centre[live], np.array(bt)[live]
    half = np.minimum(4.0 * np.sqrt(8.0 * bt) / tau, 0.45 * (2.0 * math.pi / tau))
    count = np.bincount(row, minlength=taus.size)
    cols = np.arange((n + _CLUSTER * count).max())
    grid = cols * ((w_max - -w_max) / (n - 1))[:, None]  # np.linspace(-W, W, n) per row
    grid += -w_max
    grid[np.arange(taus.size), n - 1] = w_max
    grid[cols >= n[:, None]] = np.inf  # the padding sorts to the row ends
    rank = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    at = (row * cols.size + n[row] + _CLUSTER * rank)[:, None] + np.arange(_CLUSTER)
    grid.reshape(-1)[at] = centre[:, None] + np.linspace(-half, half, _CLUSTER, axis=1)
    grid.sort(axis=1)
    keep = (grid >= -w_max) & (grid <= w_max)
    keep[:, 1:] &= grid[:, 1:] != grid[:, :-1]
    return grid[keep], np.count_nonzero(keep, axis=1)


def _root_table(taus, p: ModelParams, mf: MeanFieldParams) -> list[tuple[np.ndarray, ...]]:
    """The roots of the drift the scan finds at each delay of ``taus`` (at
    least one): arrays (omega, stable, residual) per delay, sorted by omega.

    One ``_scan_sizes`` call sizes the scans of all delays.  The delays go
    in blocks of about ``_SCAN_BLOCK`` scan points, and the ``_scan_grids``
    of each block, built from its slice of those sizes, take one array
    drift call.  A sign change between neighbouring points of one delay
    is a bracket, an exact zero a bracket of width zero.  The brackets of
    all delays are refined together from the drifts at their ends,
    ``_POINT_BLOCK`` brackets per ``_bisect_brackets`` pass.  Raises
    ValueError for a non-finite tau.
    """
    taus = np.array(taus, dtype=float, ndmin=1)
    if not np.all(np.isfinite(taus)):
        raise ValueError(f"non-finite tau {float(taus[~np.isfinite(taus)][0])!r}")
    sizes = _scan_sizes(taus, p, mf)
    n, _, count = sizes
    size = n + _CLUSTER * count  # the points of each grid, at most
    block = (np.cumsum(size) - size) // _SCAN_BLOCK
    edges = np.r_[0, np.flatnonzero(np.diff(block)) + 1, taus.size].tolist()
    parts = []  # (delay, lo, hi, g_lo, g_hi) of every bracket
    for start, stop in zip(edges[:-1], edges[1:]):
        grid, points = _scan_grids(taus[start:stop], p, mf,
                                   tuple(a[start:stop] for a in sizes))
        delay = np.repeat(np.arange(start, stop), points)
        gvals = drift(grid, taus[delay], p, mf)
        zero = np.flatnonzero(gvals == 0.0)
        sign = np.sign(gvals)  # a product of the drifts underflows below |g| ~ 1e-162
        change = np.flatnonzero((sign[:-1] * sign[1:] < 0.0) & (delay[:-1] == delay[1:]))
        lo, hi = np.r_[zero, change], np.r_[zero, change + 1]
        parts.append((delay[lo], grid[lo], grid[hi], gvals[lo], gvals[hi]))
    delay, lo, hi, g_lo, g_hi = (np.concatenate(c) for c in zip(*parts))
    del parts  # the per-block copies
    tol = _residual_tol(p, mf)
    w, gw = (np.concatenate(c) for c in zip(*(
        _bisect_brackets(taus[delay[s]], lo[s], hi[s], g_lo[s], g_hi[s], p, mf, tol)
        for s in _slices(delay.size))))
    stable = g_lo > 0.0  # a transversal crossing that falls through zero attracts
    if (zero := g_lo == 0.0).any():  # exact scan zeros: the slope's sign decides
        stable[zero] = _slope(w[zero], taus[delay[zero]], p, mf) <= 0.0
    order = np.lexsort((w, delay))
    cuts = np.searchsorted(delay[order], np.arange(1, taus.size))
    return list(zip(*(np.split(c[order], cuts) for c in (w, stable, np.abs(gw)))))


def steady_states(tau, p: ModelParams, mf: MeanFieldParams) -> list[SteadyState]:
    """All roots of the drift on [-W, W] the scan finds, with stability, at
    one delay or at each distinct delay of a 1-d array.

    One ``_root_table`` call refines the brackets of all delays together,
    which changes no root against one call per delay.  The roots come as
    one flat list sorted by ``tau`` and then by ``omega_f``; each carries
    its delay in ``tau``, so callers group by that field, not by position.
    ``residual`` and ``stable`` are as in ``SteadyState``; ``basin_seed``
    is the root itself.
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


def relax_to_steady(omega_init: float, tau, p: ModelParams, mf: MeanFieldParams,
                    reset_every: int = 0) -> SteadyState | list[SteadyState]:
    """The root the drift carries omega_init to at one delay, or the
    continuation of a sweep along a 1-d array of delays: a lookup in the
    roots ``steady_states`` finds.

    A seed within the residual tolerance is kept.  Otherwise the result
    is the nearest of those roots on the side ``sign(drift(seed))``
    points to, counting a stable root at the seed itself.  It lies in the
    basin of the seed, so sweeps keep branch memory.  ``residual`` is as
    in ``steady_states``; ``basin_seed`` is the seed and ``tau`` the delay.

    One delay gives one SteadyState.  A 1-d array gives one per delay,
    walked in the array's order: each delay is seeded with the previous
    delay's result, the first and every ``reset_every``-th one (0: never)
    with omega_init.  One ``_root_table`` call takes every distinct delay.
    Array drift calls before the walk, one per ``_POINT_BLOCK`` points,
    take every root of each delay at the delay after it, split per delay:
    the root the lookup picks at one delay reads its drift at the next by
    its index, with no drift call of its own.  Any other seed, omega_init
    or a seed the previous delay kept, takes a scalar call.

    Raises ValueError for a non-finite omega_init or tau or an array of
    more than one dimension, and BracketEscapeError (tau attached) for
    |omega_init| > omega_bracket or no root between a seed and the
    bracket edge.  A bad omega_init (the first delay attached to a
    BracketEscapeError) or array shape raises before any scan.
    """
    if np.ndim(tau) > 1:
        raise ValueError("tau must be one delay or a 1-d array of delays")
    path = np.array(tau, dtype=float, ndmin=1)
    if not path.size:
        return []
    _require_finite_args(omega_init=omega_init)
    if abs(omega_init) > mf.omega_bracket:
        raise BracketEscapeError(
            f"omega_init {omega_init!r} outside bracket {mf.omega_bracket!r}",
            tau=float(path[0]))
    distinct, which = np.unique(path, return_inverse=True)
    table = _root_table(distinct, p, mf)
    path, which = path.tolist(), which.tolist()
    sizes = [table[j][0].size for j in which[:-1]]
    seeds = np.concatenate([np.empty(0), *(table[j][0] for j in which[:-1])])
    at = np.repeat(path[1:], sizes)
    g_seeds = np.concatenate([drift(seeds[s], at[s], p, mf)
                              for s in _slices(seeds.size)]) if seeds.size else seeds
    # g_next[k][i]: root i of delay k at delay k + 1
    g_next = np.split(g_seeds, np.cumsum(sizes[:-1], dtype=np.intp))
    tol = _residual_tol(p, mf)
    states = []
    for k, (t, j) in enumerate(zip(path, which)):
        if k == 0 or (reset_every > 0 and k % reset_every == 0):
            w0, g0 = float(omega_init), None
        if g0 is None:
            g0 = drift(w0, t, p, mf)
        if abs(g0) <= tol:  # kept: the next delay drifts the seed with a scalar call
            states.append(SteadyState(tau=t, omega_f=w0, stable=_slope(w0, t, p, mf) <= 0.0,
                                      residual=abs(g0), basin_seed=w0))
            g0 = None
            continue
        omega, stable, residual = table[j]
        side = omega > w0 if g0 > 0.0 else omega < w0
        ahead = np.flatnonzero(side | ((omega == w0) & stable))
        if not ahead.size:
            raise BracketEscapeError(
                f"no root between omega_init {w0!r} and the bracket edge", tau=t)
        i = ahead[0] if g0 > 0.0 else ahead[-1]
        states.append(SteadyState(tau=t, omega_f=float(omega[i]), stable=bool(stable[i]),
                                  residual=float(residual[i]), basin_seed=w0))
        w0 = states[-1].omega_f
        g0 = float(g_next[k][i]) if k < len(sizes) else None
    return states if np.ndim(tau) else states[0]
