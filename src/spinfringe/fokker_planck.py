"""Direct grid solver for the joint nuclear-magnetization density.

For a lattice of one or two sites the full density equation is solved on
a uniform tensor grid with one magnetization axis per site:

    df/dt = sum_j { d/dm_j [v_j f]  +  [F_j + Gamma_j C(Omega, tau)] d^2 f / dm_j^2 }

with Omega = sum_j A_j m_j and velocity v_j = D_bath m_j (both sites of
a pair sit on the chain boundary) plus, for two sites, the inter-site
flattening drift D (m_j - m_k).  The drift uses a conservative
central-flux finite-volume form with no-flux boundaries, applied axis by
axis.  At a fixed tau the operator is constant, so it is built once per
solve as a three-point stencil per axis (``_stencil``) that folds in the
drift, its no-flux edges and the zero-gradient second difference, and
applies its neighbour weights to neighbour differences.  The
trion/fluctuation term keeps its coefficient outside the
second derivative, exactly as the mean-field reduction requires:
integrating its first moment by parts gives d<Omega>/dt = Gamma A^2
<d^2/dOmega^2 [Omega C]>, the bracket that the flatness assumption later
collapses to the mean.  In that form the operator does not conserve
total probability when C varies (the density is renormalized after every
step and the pre-renormalization drift is reported per step as
``mass_err``); with Gamma = 0 the scheme is conservative to roundoff.

Moments of the grid cells and of the Langevin trajectories come from one
function over weighted points, ``_weighted_moments``: normalized
averages together with the exact and mean-field trion drifts, whose
relative difference is the flatness diagnostic that gates
oracle/mean-field comparisons, and the site-structure remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CflViolationError, GridTooSmallError
from .fringe import alpha_from_lattice, count_rate, count_rate_curvature
from .params import Lattice, ModelParams

__all__ = ["PdfGrid", "GridSpec", "MomentReport", "auto_grid", "fp_grid_solve"]


@dataclass
class PdfGrid:
    """Discretized density on uniform cells of each magnetization axis.

    values is an (n_cells,) * sites array; the density integrates to 1
    over the domain throughout evolution.
    """

    m_min: float
    m_max: float
    n_cells: int
    values: np.ndarray
    t: float = 0.0

    def centers(self) -> np.ndarray:
        dm = (self.m_max - self.m_min) / self.n_cells
        return self.m_min + dm * (np.arange(self.n_cells) + 0.5)

    @property
    def dm(self) -> float:
        return (self.m_max - self.m_min) / self.n_cells


@dataclass(frozen=True)
class GridSpec:
    """Grid-solver configuration.

    The domain should span at least six standard deviations of the
    expected stationary density; the solver raises GridTooSmallError if
    more than 1e-6 of the mass reaches the edge cells.
    """

    m_min: float
    m_max: float
    n_cells: int = 512
    init_mean: float = 0.0
    init_width: float = 0.5
    cfl: float = 0.4
    n_outputs: int = 60

    def __post_init__(self):
        if not self.m_min < self.m_max:
            raise ValueError("m_min < m_max required")
        if self.n_cells < 16:
            raise ValueError("n_cells >= 16 required")
        if not 0.0 < self.cfl <= 0.9:
            raise ValueError("0 < cfl <= 0.9 required")
        if not self.init_width > 0:
            raise ValueError("init_width > 0 required")


def auto_grid(lat: Lattice, omega_lo: float, omega_hi: float, tau_ref: float,
              p: ModelParams, n_cells: int) -> GridSpec:
    """Size the magnetization grid to hold the expected sweep excursions.

    The domain covers omega_lo..omega_hi, in magnetization units of the
    largest hyperfine weight, padded by nine stationary widths of the
    fluctuation balance at the count rate of the window's centre.
    """
    a_scale = max(abs(max(lat.a, key=abs)), 1e-300)
    c_ref = max(count_rate(0.5 * (omega_lo + omega_hi), tau_ref, p), 0.05)
    var_omega = (float(np.dot(lat.f_array(), lat.a_array() ** 2))
                 + alpha_from_lattice(lat) * c_ref) / max(lat.d_bath, 1e-300)
    width_m = math.sqrt(var_omega) / a_scale
    lo = omega_lo / a_scale - 9.0 * width_m
    hi = omega_hi / a_scale + 9.0 * width_m
    return GridSpec(m_min=lo, m_max=hi, n_cells=n_cells,
                    init_mean=0.0, init_width=max(width_m / 2.0, 1e-3),
                    cfl=0.8, n_outputs=8)


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
        t=t, mean_omega=mean, var_omega=var, trion_drift_exact=exact,
        trion_drift_meanfield=mean_field,
        flatness_error=abs(exact - mean_field) / scale if scale >= 1e-300 else 0.0,
        remainder=remainder, mass_err=mass_err,
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

        rhs(f) = s f + sum_j [up_j (f_{i+1} - f_i) + lo_j (f_{i-1} - f_i)]

    where s, the row sum of the stencil, is the discrete divergence of v
    summed over the axes.  Weighting the neighbour differences keeps the
    large g/dm^2 terms from cancelling against the diagonal in rounding.
    """
    shape = np.broadcast_shapes(*(g.shape for g in g_diff))
    row_sum = np.zeros(shape)
    terms = []
    for j in range(len(vel)):
        below = (slice(None),) * j + (slice(None, -1),)
        above = (slice(None),) * j + (slice(1, None),)
        g = np.broadcast_to(g_diff[j], shape) / (dm * dm)
        h = 0.5 * vel[j] / dm
        row_sum[below] += 2.0 * h
        row_sum[above] -= 2.0 * h
        terms.append((below, above, h + g[below], g[above] - h))

    def rhs(f: np.ndarray) -> np.ndarray:
        out = row_sum * f
        for below, above, up, lo in terms:
            df = f[above] - f[below]
            out[below] += up * df
            out[above] -= lo * df
        return out

    return rhs


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
                  ) -> tuple[PdfGrid, list[MomentReport]]:
    """Evolve the density of a one- or two-site lattice to t_end, reporting moments en route.

    The density lives on an (n_cells,) * lat.n tensor grid.  The
    operator and the cells' count-rate curvature are evaluated once: the
    right-hand side is the precomputed stencil of ``_stencil``, and each
    report evaluates the curvature only at <Omega>.  Explicit Heun
    stepping; the step obeys the diffusion stability bound
    cfl * dm^2 / (2 n max g) and the advection bound cfl * dm / (n max|v|),
    shrinking automatically to land on output times.  ``init_values``
    replaces the Gaussian initial profile, an outer product over the
    axes (continuation across tau).  Raises ValueError for a non-finite
    ``tau`` or ``t_end`` or a negative ``t_end``, CflViolationError if the
    stable step underflows the time span and GridTooSmallError if mass
    reaches the edge cells.
    """
    _require_delay_and_span(tau, t_end)
    n = lat.n
    if n not in (1, 2):
        raise ValueError("fp_grid_solve requires a one- or two-site lattice")

    shape = (spec.n_cells,) * n
    grid = PdfGrid(spec.m_min, spec.m_max, spec.n_cells, values=np.zeros(shape))
    m = grid.centers()
    dm = grid.dm
    cell = dm ** n
    if init_values is not None:
        if init_values.shape != shape:
            raise ValueError("init_values shape mismatch")
        f = np.array(init_values, dtype=float)
    else:
        prof = np.exp(-0.5 * ((m - spec.init_mean) / spec.init_width) ** 2)
        f = reduce(np.multiply.outer, [prof] * n)
    f /= f.sum() * cell
    grid.values = f

    def along(x: np.ndarray, j: int) -> np.ndarray:
        """x laid along axis j of the grid, broadcastable over the others."""
        return x.reshape([-1 if k == j else 1 for k in range(n)])

    omega_cells = sum(lat.a[j] * along(m, j) for j in range(n))
    c_cells, c1_cells, c2_cells = count_rate_curvature(omega_cells, tau, p)
    c_pos = np.maximum(c_cells, 0.0)
    g_diff = [lat.f[j] + lat.gamma[j] * c_pos for j in range(n)]
    faces = grid.m_min + dm * np.arange(1, spec.n_cells)
    vel = [lat.d_bath * along(faces, j) for j in range(n)]
    if n == 2:
        vel = [v + lat.d[0] * (along(faces, j) - along(m, 1 - j))
               for j, v in enumerate(vel)]

    g_max = max(float(np.max(g)) for g in g_diff)
    v_max = max(float(np.max(np.abs(v))) for v in vel)
    bounds = [math.inf]
    if g_max > 0.0:
        bounds.append(dm * dm / (2.0 * n * g_max))
    if v_max > 0.0:
        bounds.append(dm / (n * v_max))
    dt_stable = spec.cfl * min(bounds)
    if not math.isfinite(dt_stable):
        dt_stable = t_end / max(spec.n_outputs, 1)
    _check_step_floor(dt_stable, t_end, tau)

    rhs = _stencil(vel, g_diff, dm)

    points = np.stack(np.meshgrid(*[m] * n, indexing="ij"), axis=-1).reshape(-1, n)
    curv = (c1_cells.ravel(), c2_cells.ravel())
    out_times = np.linspace(0.0, t_end, spec.n_outputs + 1)
    reports = [_weighted_moments(0.0, f.ravel(), points, lat, tau, p, curv=curv)]
    t = 0.0
    mass_err = 0.0
    for t_next in out_times[1:]:
        while t < t_next - 1e-12 * t_end:
            dt = min(dt_stable, t_next - t)
            k1 = rhs(f)
            k2 = rhs(f + dt * k1)
            f = f + 0.5 * dt * (k1 + k2)
            mass = f.sum() * cell
            mass_err += abs(mass - 1.0)
            f /= mass
            t += dt
        edge_mass = sum(f.take(0, j).sum() + f.take(-1, j).sum() for j in range(n)) * cell
        if edge_mass > 1e-6:
            raise GridTooSmallError(
                f"edge cells hold {edge_mass!r} of the mass at t={t!r}")
        grid.values = f
        grid.t = t
        reports.append(_weighted_moments(t, f.ravel(), points, lat, tau, p,
                                         mass_err=mass_err, curv=curv))
    return grid, reports
