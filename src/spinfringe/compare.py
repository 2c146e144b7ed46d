"""Oracle-versus-mean-field comparison tables.

For each tau in a schedule, relax the mean-field drift (seeded by
continuation, as in a sweep) and evolve the full density oracle (grid
solver for one or two sites, trajectory ensemble otherwise, both
carrying their state from the previous tau) to quasi-equilibrium.  Rows
pair the two stationary means with the flatness diagnostic and split
the exact trion drift into its mean-field part and the site-structure
remainder

    remainder = sum_j Gamma_j A_j^3 <m_j C''(Omega)>  -  alpha <Omega C''(Omega)>

which vanishes identically for a single site (A m = Omega pointwise)
and measures how unevenly the hyperfine envelope weights the curvature
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GridTooSmallError
from .fokker_planck import GridSpec, MomentReport, auto_grid, fp_grid_solve
from .langevin import evolve_trajectories
from .meanfield import relax_to_steady
from .params import Lattice, MeanFieldParams, ModelParams

__all__ = ["CompareRow", "compare_meanfield"]


@dataclass(frozen=True)
class CompareRow:
    """One tau of the oracle/mean-field table."""

    tau: float
    oracle_mean: float
    oracle_se: float
    meanfield_omega: float
    flatness_error: float
    trion_exact: float
    trion_meanfield: float
    remainder: float


def _resample(f: np.ndarray, old: GridSpec, new: GridSpec) -> np.ndarray:
    """A density on the cells of ``old`` carried onto the cells of ``new``.

    Linear along each axis between the old cell centres, zero beyond them.
    """
    x_old, x_new = old.centers(), new.centers()

    def line(values: np.ndarray) -> np.ndarray:
        return np.interp(x_new, x_old, values, left=0.0, right=0.0)

    for axis in range(f.ndim):
        f = np.apply_along_axis(line, axis, f)
    return f


def _solve_widening(lat: Lattice, tau: float, t_end: float, spec: GridSpec,
                    p: ModelParams, density: np.ndarray | None = None,
                    ) -> tuple[GridSpec, np.ndarray, list[MomentReport]]:
    """``fp_grid_solve`` on an auto-sized grid, widened where the density outgrows it.

    A solve that raises GridTooSmallError is retried, at most twice, on a
    grid widened by a quarter of its span on each side, with as many
    cells, from ``density`` (the carried density, or None for the initial
    profile) resampled onto the wider cells (``_resample``), so a branch
    carried across delays is kept.  Returns the grid solved on with the
    density and reports of ``fp_grid_solve``; a third GridTooSmallError
    propagates.
    """
    for widen in range(3):
        try:
            return (spec, *fp_grid_solve(lat, tau, t_end, spec, p, init_values=density))
        except GridTooSmallError:
            if widen == 2:
                raise
            pad = 0.25 * (spec.m_max - spec.m_min)
            wide = replace(spec, m_min=spec.m_min - pad, m_max=spec.m_max + pad)
            if density is not None:
                density = _resample(density, spec, wide)
            spec = wide


def compare_meanfield(lat: Lattice, tau_grid, p: ModelParams, mf: MeanFieldParams,
                      t_end: float | None = None, omega_init: float = 0.0,
                      n_traj: int = 4000, seed: int = 0,
                      n_cells: int = 640) -> list[CompareRow]:
    """Oracle stationary means against mean-field roots along tau_grid.

    The tau order is respected, and both the oracle state and the
    mean-field seed are carried forward, so ascending and descending
    grids trace the same hysteresis branches the sweeps do.  ``mf``
    should be built from the lattice (kappa = d_bath, alpha =
    alpha_from_lattice) for the comparison to be meaningful.

    One and two sites always use the grid solver on the grid
    ``auto_grid`` sizes around the mean-field excursions.  ``n_cells`` is
    its nominal cell count, capped at 160 per axis for two sites; the
    cells beyond the density's linear-noise reach are not solved, so the
    grid holds at most that many cells per axis.  Larger lattices, up to
    eight sites, use the trajectory ensemble.  Either oracle starts with
    its mean at m_init = omega_init A / |A|^2, so <Omega> = omega_init at
    t = 0.  A grid solve whose density reaches the edge cells is retried
    on a wider grid from the carried density (``_solve_widening``), so
    the branch is kept.  Raises ValueError, before any work, for more
    than eight sites or, on three or more, for ``n_traj`` < 100, and
    GridTooSmallError, before any solve, for one or two sites whose
    linear-noise balance gives no grid width (``auto_grid``), as with
    no bath (``d_bath`` = 0).
    """
    if lat.n > 8:
        raise ValueError("ensemble oracle limited to n <= 8 sites")
    if lat.n > 2 and n_traj < 100:
        raise ValueError("n_traj >= 100 required")
    taus = [float(t) for t in np.asarray(tau_grid, dtype=float)]
    if not taus:
        return []
    if t_end is None:
        t_end = 10.0 / max(lat.d_bath, 1e-300)

    # Pre-run the mean-field continuation, the walk of a sweep, to size the oracle grid.
    mf_omegas = [ss.omega_f for ss in relax_to_steady(omega_init, taus, p, mf)]
    lo = min(min(mf_omegas), omega_init)
    hi = max(max(mf_omegas), omega_init)

    a_vec = lat.a_array()
    m_init = omega_init * a_vec / float(np.dot(a_vec, a_vec))
    finals: list[MomentReport] = []
    if lat.n <= 2:
        spec = replace(auto_grid(lat, lo, hi, taus[len(taus) // 2], p,
                                 n_cells if lat.n == 1 else min(n_cells, 160)),
                       init_mean=tuple(m_init.tolist()))
        density: np.ndarray | None = None
        for tau in taus:
            spec, density, reps = _solve_widening(lat, tau, t_end, spec, p, density)
            finals.append(reps[-1])
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        state = np.tile(m_init, (n_traj, 1))
        for tau in taus:
            state, reps = evolve_trajectories(lat, tau, t_end, state, rng, p,
                                              n_outputs=8)
            finals.append(reps[-1])
    return [CompareRow(
        tau=tau, oracle_mean=r.mean_omega, oracle_se=r.se_mean or 0.0,
        meanfield_omega=w_mf, flatness_error=r.flatness_error,
        trion_exact=r.trion_drift_exact, trion_meanfield=r.trion_drift_meanfield,
        remainder=r.remainder) for tau, w_mf, r in zip(taus, mf_omegas, finals)]
