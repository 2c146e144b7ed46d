"""Direct grid solver for the joint nuclear-magnetization density.

For a lattice of one or two sites the full density equation is solved on
a uniform tensor grid with one magnetization axis per site:

    df/dt = sum_j { d/dm_j [v_j f]  +  [F_j + Gamma_j C(Omega, tau)] d^2 f / dm_j^2 }

with Omega = sum_j A_j m_j and velocity v = -L m, L =
``Lattice.rates()`` the bath and chain rates the ensemble also applies;
v_j is taken at the faces of axis j and the other axes' cell centres.
The drift uses a conservative central-flux finite-volume form with
no-flux boundaries, applied axis by axis.  At a fixed tau the operator
is constant, so it is built once per solve as a three-point stencil per
axis (``_stencil``) that folds in the drift, its no-flux edges and the
zero-gradient second difference, and applies its neighbour weights to
neighbour differences.  The stencil sees the grid as one flat row of
cells, in which axis j is a shift by its stride n_cells^(n-1-j); two
cells that a shift pairs across the end of a grid row share a face of
weight 0.  So every pass reads and writes contiguous slices, into work
arrays kept for the solve.  The trion/fluctuation term keeps its
coefficient outside the second derivative, exactly as the mean-field
reduction requires: integrating its first moment by parts gives
d<Omega>/dt = Gamma A^2 <d^2/dOmega^2 [Omega C]>, the bracket that the
flatness assumption later collapses to the mean.  In that form the
operator does not conserve total probability when C varies (the density
is renormalized after every step and the pre-renormalization drift is
reported per step as ``mass_err``); with Gamma = 0 the scheme is
conservative to roundoff.

``GridSpec`` holds the grid's geometry (its cell width ``dm`` and cell
``centers()``) and the initial profile.  ``fp_grid_solve`` returns the
density as a plain array on those cells together with its moment
reports, as the trajectory ensemble returns its state array.
``auto_grid`` sizes a grid around a mean-field window and solves only
the cells within six deviations of the linear-noise covariance.  The
cells keep the width of the nominal grid, so a solve takes no more
steps on fewer cells.

The time stepping is explicit Heun with a constant operator, so a step
is one linear map M; its stages reuse work arrays, and a step allocates
only the new density.  Each of the equal output intervals takes the same
number of equal steps, fixed before the loop, so every report lands
exactly on its output time.  A one-site grid with enough steps to pay
for it rounds that number up to a multiple of K = ``_BLOCK``, builds
the band of M^K once per solve by stepping comb probes
(``_block_stepper``) and takes each K steps as one banded product,
renormalized once; the density and ``mass_err`` differ from a
step-at-a-time loop on the same schedule only by rounding.  Other
grids take the steps one at a time.

Moments of the grid cells and of the Langevin trajectories come from one
function over weighted points, ``_weighted_moments``: normalized
averages together with the exact and mean-field trion drifts, whose
relative difference is the flatness diagnostic that gates
oracle/mean-field comparisons, and the site-structure remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CflViolationError, GridTooSmallError
from .fringe import alpha_from_lattice, count_rate, count_rate_curvature
from .params import Lattice, ModelParams, _require_finite

__all__ = ["GridSpec", "MomentReport", "auto_grid", "fp_grid_solve"]

# A long one-site solve takes its Heun steps _BLOCK at a time, as one banded product.
_BLOCK = 16
# An auto-sized grid keeps the cells within this many stationary deviations
# of its window: a Gaussian holds about 1e-9 of its mass beyond six
# deviations on each side, far below the solver's 1e-6 edge guard.
_TAIL_DEVIATIONS = 6.0


@dataclass(frozen=True)
class GridSpec:
    """Grid-solver configuration and the geometry of its cells.

    Each magnetization axis spans m_min..m_max in n_cells uniform cells
    of width ``dm``, centred at ``centers()``.  The initial profile is a
    Gaussian of ``init_width`` on each axis, centred at ``init_mean``:
    one value for every axis, or a tuple with one per axis.  The domain
    should span at least six standard deviations of the expected
    stationary density; the solver raises GridTooSmallError if more than
    1e-6 of the mass reaches the edge cells.  ``n_cells`` is the count
    solved.  For a grid that ``auto_grid`` sizes, the count asked for is
    the nominal one: the grid keeps only the nominal cells the density
    can reach, so it may hold fewer.
    """

    m_min: float
    m_max: float
    n_cells: int = 512
    init_mean: float | tuple[float, ...] = 0.0
    init_width: float = 0.5
    cfl: float = 0.4
    n_outputs: int = 60

    def __post_init__(self):
        _require_finite(self)
        if not self.m_min < self.m_max:
            raise ValueError("m_min < m_max required")
        if self.n_cells < 16:
            raise ValueError("n_cells >= 16 required")
        if not 0.0 < self.cfl <= 0.9:
            raise ValueError("0 < cfl <= 0.9 required")
        if not self.init_width > 0:
            raise ValueError("init_width > 0 required")
        if self.n_outputs < 1:
            raise ValueError("n_outputs >= 1 required")

    @property
    def dm(self) -> float:
        return (self.m_max - self.m_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.m_min + self.dm * (np.arange(self.n_cells) + 0.5)


def _stationary_covariance(lat: Lattice, p: ModelParams) -> np.ndarray:
    """Stationary covariance of the site magnetizations in the linear-noise balance.

    Returns the (n, n) matrix Sigma that solves

        L Sigma + Sigma L^T + 2 diag(F + 2 s_p Gamma) = 0,

    L = ``lat.rates()``: the magnetizations relax under L and diffuse with
    the grid solver's coefficients F_j + Gamma_j C at the largest count
    rate C = 2 s_p (van Kampen, Stochastic Processes in Physics and
    Chemistry, ch. X).  The balance is one linear solve on
    kron(I, L) + kron(L, I), n^2 unknowns.  Raises
    ``np.linalg.LinAlgError`` where that matrix is singular: without a
    bath the density has no stationary state.
    """
    n = lat.n
    lin = lat.rates()
    noise = np.diag(lat.f_array() + 2.0 * p.s_p * lat.gamma_array())
    sigma = np.linalg.solve(np.kron(np.eye(n), lin) + np.kron(lin, np.eye(n)),
                            -2.0 * noise.ravel()).reshape(n, n)
    return 0.5 * (sigma + sigma.T)


def auto_grid(lat: Lattice, omega_lo: float, omega_hi: float, tau_ref: float,
              p: ModelParams, n_cells: int) -> GridSpec:
    """Size the magnetization grid to hold the expected sweep excursions.

    The nominal domain covers omega_lo..omega_hi, in magnetization units
    of the largest hyperfine weight, padded by nine stationary widths of
    the fluctuation balance at the count rate of the window's centre, in
    ``n_cells`` cells; the cell width and ``init_width`` come from it.
    The grid returned keeps the run of those whole cells that covers the
    window padded by ``_TAIL_DEVIATIONS`` deviations sigma = sqrt(max_j
    Sigma_jj) of the linear-noise covariance (``_stationary_covariance``),
    clipped to the nominal domain, and at least 16 cells.  So
    ``n_cells`` is the nominal count: the solved grid has at most that
    many cells, centred where the nominal grid's are, to rounding.  A
    lattice with no stationary covariance (no bath) keeps every cell.
    """
    a_scale = max(abs(max(lat.a, key=abs)), 1e-300)
    c_ref = max(count_rate(0.5 * (omega_lo + omega_hi), tau_ref, p), 0.05)
    var_omega = (float(np.dot(lat.f_array(), lat.a_array() ** 2))
                 + alpha_from_lattice(lat) * c_ref) / max(lat.d_bath, 1e-300)
    width_m = math.sqrt(var_omega) / a_scale
    lo, hi = omega_lo / a_scale, omega_hi / a_scale
    nominal = GridSpec(m_min=lo - 9.0 * width_m, m_max=hi + 9.0 * width_m,
                       n_cells=n_cells, init_mean=0.0,
                       init_width=max(width_m / 2.0, 1e-3), cfl=0.8, n_outputs=8)
    try:
        var = float(np.max(np.diag(_stationary_covariance(lat, p))))
    except np.linalg.LinAlgError:
        var = math.inf
    if not 0.0 <= var < math.inf:
        return nominal
    reach, dm = _TAIL_DEVIATIONS * math.sqrt(var), nominal.dm
    first = max(math.floor((lo - reach - nominal.m_min) / dm), 0)
    last = min(math.ceil((hi + reach - nominal.m_min) / dm), n_cells)
    if last - first < 16:
        first = min(max((first + last - 16) // 2, 0), n_cells - 16)
        last = first + 16
    return replace(nominal, m_min=nominal.m_min + first * dm,
                   m_max=nominal.m_min + last * dm, n_cells=last - first)


@dataclass(frozen=True)
class MomentReport:
    """Normalized moments of Omega plus the drift-closure diagnostics.

    trion_drift_exact      alpha-weighted bracket  sum_j Gamma_j A_j *
                           <2 A_j C' + A_j^2 m_j C''>  [rad/ns^2]
    trion_drift_meanfield  alpha * d^2/domega^2[omega C] at <Omega>
    flatness_error         relative difference of the two drifts
    remainder              site-structure part of the exact drift,
                           sum_j Gamma_j A_j^3 <m_j C''> - alpha <Omega C''>;
                           identically zero for a single site
    se_mean / se_var       ensemble standard errors (None for grid runs)
    mass_err               cumulative |mass change| of the raw operator
                           since t = 0 (each step renormalizes; with
                           Gamma = 0 the scheme conserves to roundoff)
    """

    t: float
    mean_omega: float
    var_omega: float
    trion_drift_exact: float
    trion_drift_meanfield: float
    flatness_error: float
    remainder: float
    se_mean: float | None = None
    se_var: float | None = None
    mass_err: float = 0.0


def _weighted_moments(t: float, w: np.ndarray, m: np.ndarray, lat: Lattice,
                      tau: float, p: ModelParams, ddof: int = 0,
                      mass_err: float = 0.0,
                      curv: tuple[np.ndarray, np.ndarray] | None = None,
                      ) -> MomentReport:
    """Moments and drift diagnostics of weighted points in magnetization space.

    ``m`` holds one row of site magnetizations per point and ``w`` the
    nonnegative point weights in any normalization: grid cells pass their
    density values, trajectories pass 1 each.  ``ddof`` is taken off the
    total weight in the variance (1 gives the unbiased ensemble
    estimate).  ``curv`` gives C' and C'' at the points where they are
    known (fixed grid cells); otherwise one curvature evaluation covers
    the points and <Omega>.
    """
    w_sum = float(w.sum())

    def average(x: np.ndarray, ddof: int = 0) -> float:
        return float(np.sum(w * x)) / (w_sum - ddof)

    a = lat.a_array()
    alpha = alpha_from_lattice(lat)
    omega = m @ a
    mean = average(omega)
    var = average((omega - mean) ** 2, ddof)
    if curv is None:
        _, c1, c2 = count_rate_curvature(np.append(omega, mean), tau, p)
        c1, c2, c1_mean, c2_mean = c1[:-1], c2[:-1], c1[-1], c2[-1]
    else:
        c1, c2 = curv
        _, c1_mean, c2_mean = count_rate_curvature(mean, tau, p)
    site = m @ (lat.gamma_array() * a ** 3)
    exact = average(2.0 * alpha * c1 + site * c2)
    mean_field = alpha * float(2.0 * c1_mean + mean * c2_mean)
    remainder = average((site - alpha * omega) * c2)
    scale = max(abs(exact), abs(mean_field))
    return MomentReport(
        t=float(t), mean_omega=mean, var_omega=var, trion_drift_exact=exact,
        trion_drift_meanfield=mean_field,
        flatness_error=abs(exact - mean_field) / scale if scale >= 1e-300 else 0.0,
        remainder=remainder, mass_err=float(mass_err),
    )


def _stencil(vel: list[np.ndarray], g_diff: list[np.ndarray], dm: float):
    """The operator sum_j d/dm_j [v_j f] + g_j d^2 f / dm_j^2 as a three-point stencil.

    ``vel[j]`` holds v_j at the n_cells - 1 interior faces of axis j and
    ``g_diff[j]`` the diffusion coefficient at the cells.  The drift takes
    central face values with no-flux edges (conservative: its rates sum
    to zero) and the second difference has zero-gradient ghost cells.
    Along axis j cell i couples to its upper neighbour with weight
    ``up = v_{i+1/2}/(2 dm) + g_i/dm^2`` and to its lower one with
    ``lo = g_i/dm^2 - v_{i-1/2}/(2 dm)``.  Returns

        rhs(f, out=None) = s f + sum_j [up_j (f_{i+1} - f_i) + lo_j (f_{i-1} - f_i)]

    where s, the row sum of the stencil, is the discrete divergence of v
    summed over the axes.  Weighting the neighbour differences keeps the
    large g/dm^2 terms from cancelling against the diagonal in rounding.

    ``rhs`` sees the grid as one flat row of N cells in C order, so axis
    j is a shift by its stride s_j = n_cells^(n-1-j) and every pass reads
    and writes contiguous slices.  ``up_j`` and ``lo_j`` are flat weights
    of length N - s_j; a pair of cells s_j apart that are not neighbours
    along axis j (the last cell of one grid row and the first of the
    next) shares a face of weight 0.  The axes are applied in order, as
    on the grid, so every cell sums the same terms in the same order.
    ``f`` may carry leading axes: a stack of densities is applied at once.
    The result goes to ``out`` (f's shape) or a new array; the neighbour
    differences and products go to work arrays kept per stack shape.
    """
    shape = (vel[0].shape[0] + 1,) * len(vel)  # n_cells - 1 faces along each axis
    size = math.prod(shape)
    row_sum = np.zeros(shape)
    faces = []
    for j in range(len(vel)):
        rest = (slice(None),) * (len(vel) - 1 - j)
        below = (..., slice(None, -1), *rest)
        above = (..., slice(1, None), *rest)
        g = np.broadcast_to(g_diff[j], shape) / (dm * dm)
        h = 0.5 * vel[j] / dm
        row_sum[below] += 2.0 * h
        row_sum[above] -= 2.0 * h
        up, lo = np.zeros(shape), np.zeros(shape)
        up[below] = h + g[below]
        lo[above] = g[above] - h
        stride = math.prod(shape[j + 1:])
        faces.append((stride, up.ravel()[:size - stride], lo.ravel()[stride:]))
    row_sum = row_sum.ravel()
    work = {}

    def rhs(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        lead = f.shape[:f.ndim - len(shape)]
        if out is None:
            out = np.empty(f.shape)
        if lead not in work:
            work[lead] = np.empty((2, *lead, size))
        diff, prod = work[lead]
        flat, acc = f.reshape(*lead, size), out.reshape(*lead, size)
        np.multiply(row_sum, flat, out=acc)
        for stride, up, lo in faces:
            df = np.subtract(flat[..., stride:], flat[..., :-stride],
                             out=diff[..., stride:])
            w = prod[..., stride:]
            below, above = acc[..., :-stride], acc[..., stride:]
            np.add(below, np.multiply(up, df, out=w), out=below)
            np.subtract(above, np.multiply(lo, df, out=w), out=above)
        return out

    return rhs


def _heun(rhs):
    """One explicit Heun step of ``rhs`` as a function of (f, dt).

    The stages k1, f + dt k1 and k2 go to work arrays kept per state
    shape, so a step allocates only its result, a new array that shares
    memory with nothing the caller holds.
    """
    work = {}

    def step(f: np.ndarray, dt: float) -> np.ndarray:
        if f.shape not in work:
            work[f.shape] = np.empty((3, *f.shape))
        k1, stage, k2 = work[f.shape]
        rhs(f, out=k1)
        np.add(f, np.multiply(dt, k1, out=stage), out=stage)
        rhs(stage, out=k2)
        np.multiply(0.5 * dt, np.add(k1, k2, out=k1), out=k1)
        return f + k1

    return step


def _block_stepper(step, n_cells: int, dt: float, cell: float):
    """K = _BLOCK steps of ``step`` (one-site Heun, step ``dt``) as one banded product.

    The step is a linear map M, pentadiagonal, so M^K couples cell i only to
    cells i - 2K .. i + 2K, and columns 4K + 1 apart never share a row.
    Stepping the 4K + 1 comb probes (ones on every cell of one residue
    mod 4K + 1) K times with ``step`` therefore gives every column of each
    M^j in disjoint pieces (Curtis, Powell & Reid, J. Inst. Maths Applics
    13, 1974).  The band of M^K comes from the last probes, and the column
    sums 1^T M^j from adding each probe's entries up by column.  The
    probes are stepped K at a time, which keeps the temporaries small.

    Returns ``block(f) -> (f, err)``: M^K f renormalized once, which equals
    renormalizing after every step because the step is linear, and the
    per-step |mass change| summed over the block.  With mu_j = (1^T M^j f)
    cell, the step j changes the mass by mu_j / mu_{j-1}.
    """
    half = 2 * _BLOCK
    width = 2 * half + 1
    cells = np.arange(n_cells)
    band = np.empty((n_cells, width))
    # sums[j, col + 2K] = (1^T M^j)[col]; the entries of columns off the
    # grid, all zero, land in the pads.
    sums = np.zeros((_BLOCK + 1, n_cells + 2 * half))
    sums[0] = 1.0
    for first in range(0, width, _BLOCK):
        residue = np.arange(first, min(first + _BLOCK, width))[:, None]
        # probes[r, i] is M^j[i, i - 2K + w[r, i]].
        w = (residue - cells + half) % width
        probes = (cells % width == residue).astype(float)
        for j in range(1, _BLOCK + 1):
            probes = step(probes, dt)
            sums[j] += np.bincount((cells + w).ravel(), probes.ravel(), sums.shape[1])
        band[cells, w] = probes
    sums = sums[:, half:-half] * cell
    f_padded = np.zeros(n_cells + 2 * half)
    windows = sliding_window_view(f_padded, width)

    def block(f: np.ndarray) -> tuple[np.ndarray, float]:
        f_padded[half:-half] = f
        mu = sums @ f
        g = np.einsum("iw,iw->i", windows, band)
        return g / (g.sum() * cell), float(np.abs(mu[1:] / mu[:-1] - 1.0).sum())

    return block


def _check_step_floor(dt: float, t_end: float, tau: float, t: float = 0.0) -> None:
    """Raise CflViolationError if a step of ``dt`` is below 1e-12 of ``t_end``.

    Below that floor a time loop needs over 1e12 steps, or stalls where
    ``t + dt == t``.  A NaN step fails too.  The error carries ``tau``
    and the time ``t`` the step was taken from.
    """
    if not dt >= 1e-12 * t_end:
        t = float(t)
        raise CflViolationError(
            f"stable step {dt!r} below floor for t_end {t_end!r} at t={t!r}, tau={tau!r}",
            tau=tau, t=t)


def _require_delay_and_span(tau: float, t_end: float) -> None:
    """Raise ValueError naming a non-finite ``tau`` or ``t_end``, or a negative ``t_end``."""
    for name, value in (("tau", tau), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} {float(value)!r}")
    if t_end < 0.0:
        raise ValueError(f"negative t_end {float(t_end)!r}")


def fp_grid_solve(lat: Lattice, tau: float, t_end: float, spec: GridSpec,
                  p: ModelParams, init_values: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, list[MomentReport]]:
    """Evolve the density of a one- or two-site lattice to t_end; returns (density, reports).

    The density is an (n_cells,) * lat.n array of values on the cells of
    ``spec`` (``spec.centers()`` on each axis), normalized to integrate
    to 1 with cell volume ``spec.dm ** lat.n``; the report at t = 0
    describes the initial density.  The
    operator and the cells' count-rate curvature are evaluated once: the
    right-hand side is the precomputed stencil of ``_stencil``, and each
    report evaluates the curvature only at <Omega>.  Explicit Heun
    stepping: each of the ``spec.n_outputs`` output intervals takes N
    equal steps, N the fewest that keep the step within the diffusion
    stability bound cfl * dm^2 / (2 n max g) and the advection bound
    cfl * dm / (n max|v|) (none where both vanish), so each report's t
    is exactly its output time.  A one-site solve of at least K (4K + 1)
    steps in all, K = ``_BLOCK`` (the probe steps that building the band
    costs), rounds N up to a multiple of K and takes each K steps as one
    banded product of M^K; see ``_block_stepper``.  ``init_values``
    replaces the Gaussian initial profile, an outer product over the
    axes (continuation across tau); it may carry small negative tails.
    Raises ValueError for a non-finite ``tau`` or ``t_end``, a negative
    ``t_end`` or a non-finite entry of ``init_values``,
    CflViolationError if the stable step underflows the time span and
    GridTooSmallError if the initial density has no positive, finite
    mass on the grid (at t = 0) or if mass reaches the edge cells (at
    the report time); either error carries ``tau`` and ``t``.
    """
    _require_delay_and_span(tau, t_end)
    n = lat.n
    if n not in (1, 2):
        raise ValueError("fp_grid_solve requires a one- or two-site lattice")

    shape = (spec.n_cells,) * n
    m = spec.centers()
    dm = spec.dm
    cell = dm ** n
    if init_values is not None:
        if init_values.shape != shape:
            raise ValueError("init_values shape mismatch")
        f = np.array(init_values, dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValueError("non-finite entry in init_values")
    else:
        means = np.broadcast_to(spec.init_mean, (n,))
        f = reduce(np.multiply.outer, [np.exp(-0.5 * ((m - mu) / spec.init_width) ** 2)
                                       for mu in means])
    mass = f.sum() * cell
    if not 0.0 < mass < math.inf:
        raise GridTooSmallError(f"initial density has mass {float(mass)!r} on the grid",
                                tau=tau, t=0.0)
    f /= mass

    def along(x: np.ndarray, j: int) -> np.ndarray:
        """x laid along axis j of the grid, broadcastable over the others."""
        return x.reshape([-1 if k == j else 1 for k in range(n)])

    omega_cells = sum(lat.a[j] * along(m, j) for j in range(n))
    c_cells, c1_cells, c2_cells = count_rate_curvature(omega_cells, tau, p)
    c_pos = np.maximum(c_cells, 0.0)
    g_diff = [lat.f[j] + lat.gamma[j] * c_pos for j in range(n)]
    faces = spec.m_min + dm * np.arange(1, spec.n_cells)
    lin = lat.rates()
    # v_j = -sum_k L_jk x_k: x_j at the faces of axis j, x_k at the cell centres.
    vel = [-sum(lin[j, k] * along(faces if k == j else m, k) for k in range(n))
           for j in range(n)]

    g_max = max(float(np.max(g)) for g in g_diff)
    v_max = max(float(np.max(np.abs(v))) for v in vel)
    bounds = [math.inf]
    if g_max > 0.0:
        bounds.append(dm * dm / (2.0 * n * g_max))
    if v_max > 0.0:
        bounds.append(dm / (n * v_max))
    dt_stable = spec.cfl * min(bounds)
    _check_step_floor(dt_stable, t_end, tau)

    # Each output interval takes the fewest equal steps within the bound.
    interval = t_end / spec.n_outputs
    steps = math.ceil(interval / dt_stable) if t_end > 0.0 else 0
    step = _heun(_stencil(vel, g_diff, dm))
    # The band costs K steps of 4K + 1 probes: build it only when the
    # solve takes at least that many steps.
    if n == 1 and spec.n_outputs * steps >= _BLOCK * (4 * _BLOCK + 1):
        steps = -(-steps // _BLOCK) * _BLOCK
        advance = _block_stepper(step, spec.n_cells, interval / steps, cell)
        advances = steps // _BLOCK
    else:
        dt = interval / max(steps, 1)

        def advance(f: np.ndarray) -> tuple[np.ndarray, float]:
            f = step(f, dt)
            mass = f.sum() * cell
            f /= mass
            return f, abs(mass - 1.0)
        advances = steps

    points = np.stack(np.meshgrid(*[m] * n, indexing="ij"), axis=-1).reshape(-1, n)
    curv = (c1_cells.ravel(), c2_cells.ravel())
    reports = [_weighted_moments(0.0, f.ravel(), points, lat, tau, p, curv=curv)]
    mass_err = 0.0
    for t in np.linspace(0.0, t_end, spec.n_outputs + 1)[1:]:
        for _ in range(advances):
            f, err = advance(f)
            mass_err += err
        edge_mass = sum(f.take(0, j).sum() + f.take(-1, j).sum() for j in range(n)) * cell
        if edge_mass > 1e-6:
            raise GridTooSmallError(
                f"edge cells hold {float(edge_mass)!r} of the mass at t={float(t)!r}",
                tau=tau, t=float(t))
        reports.append(_weighted_moments(t, f.ravel(), points, lat, tau, p,
                                         mass_err=mass_err, curv=curv))
    return f, reports
