"""Grid solver oracles: decay, fluctuation balance, conservation, identities."""

import math

import numpy as np
import pytest

import spinfringe as sf
from spinfringe.errors import CflViolationError, GridTooSmallError
from spinfringe.fokker_planck import _stencil, _weighted_moments

P = sf.ModelParams()


def single_site(gamma=0.0, f_const=0.0, d_bath=0.05, a=1.0):
    return sf.Lattice(n=1, a=(a,), gamma=(gamma,), d=(), f=(f_const,),
                      d_bath=d_bath)


def test_pure_decay_mean_is_exact_exponential():
    d_bath = 0.05
    lat = single_site(d_bath=d_bath)
    m0 = 0.5
    spec = sf.GridSpec(m_min=-1.2, m_max=1.2, n_cells=800, init_mean=m0,
                       init_width=0.08, n_outputs=10, cfl=0.3)
    _, reports = sf.fp_grid_solve(lat, 0.3, 0.7 / d_bath, spec, P)
    for r in reports[1:]:
        expected = m0 * math.exp(-d_bath * r.t)
        assert r.mean_omega == pytest.approx(expected, rel=1e-6)


def test_ou_stationary_variance_matches_balance():
    # Gamma = 0, F > 0: stationary Var(m) = F / d_bath.
    d_bath, f_const = 0.05, 0.00125
    lat = single_site(f_const=f_const, d_bath=d_bath)
    std = math.sqrt(f_const / d_bath)
    spec = sf.GridSpec(m_min=-4.75 * std, m_max=4.75 * std, n_cells=848,
                       init_mean=0.0, init_width=std / 2, n_outputs=12, cfl=0.85)
    _, reports = sf.fp_grid_solve(lat, 0.3, 6.0 / d_bath, spec, P)
    assert reports[-1].var_omega == pytest.approx(f_const / d_bath, rel=1e-4)


def test_mass_conserved_without_trion_term():
    d_bath, f_const = 0.05, 0.00125
    lat = single_site(f_const=f_const, d_bath=d_bath)
    std = math.sqrt(f_const / d_bath)
    spec = sf.GridSpec(m_min=-4.75 * std, m_max=4.75 * std, n_cells=400,
                       init_mean=0.0, init_width=std / 2, n_outputs=8, cfl=0.85)
    grid, reports = sf.fp_grid_solve(lat, 0.3, 4.0 / d_bath, spec, P)
    assert reports[-1].mass_err <= 1e-8  # cumulative raw drift over the run
    dm = grid.dm
    assert grid.values.sum() * dm == pytest.approx(1.0, abs=1e-12)
    assert grid.values.min() >= -1e-12


def test_mean_unaffected_by_state_independent_noise():
    # F > 0 with Gamma = 0: identical mean decay as the noiseless run.
    d_bath = 0.05
    lat = single_site(f_const=4e-4, d_bath=d_bath)
    spec = sf.GridSpec(m_min=-1.0, m_max=1.4, n_cells=700, init_mean=0.4,
                       init_width=0.06, n_outputs=8, cfl=0.85)
    _, reports = sf.fp_grid_solve(lat, 0.3, 0.6 / d_bath, spec, P)
    for r in reports[1:]:
        assert r.mean_omega == pytest.approx(0.4 * math.exp(-d_bath * r.t),
                                             rel=2e-5)


def test_trion_stationary_mean_tracks_meanfield_root():
    # Narrow-density regime: the full-density stationary mean sits within
    # 5% of the drift root when the flatness diagnostic is below 0.05.
    kappa = 0.02
    lat = single_site(gamma=0.01, f_const=5e-5, d_bath=kappa)
    mf = sf.MeanFieldParams(kappa=kappa, alpha=sf.alpha_from_lattice(lat))
    tau = 0.17
    w_f = sf.relax_to_steady(0.0, tau, P, mf).omega_f
    spec = sf.GridSpec(m_min=w_f - 3.2, m_max=w_f + 3.2, n_cells=700,
                       init_mean=0.0, init_width=0.1, n_outputs=10, cfl=0.8)
    _, reports = sf.fp_grid_solve(lat, tau, 10.0 / kappa, spec, P)
    last = reports[-1]
    assert last.flatness_error < 0.05
    assert last.mean_omega == pytest.approx(w_f, rel=0.05)


def test_discrete_integration_by_parts_identity():
    # The raw trion moment rate A sum m g lap(f) equals
    # alpha <d^2/dOmega^2 [Omega C]> evaluated with the same stencil.
    a, gamma = 1.7, 0.4
    lat = single_site(gamma=gamma, a=a)
    n, m_min, m_max = 512, -6.0, 6.0
    dm = (m_max - m_min) / n
    m = m_min + dm * (np.arange(n) + 0.5)
    f = np.exp(-0.5 * ((m - 0.8) / 0.5) ** 2)
    f /= f.sum() * dm
    tau = 0.23
    cvals = np.asarray(sf.count_rate(a * m, tau, P))
    laplacian = _stencil([np.zeros(n - 1)], [np.ones(n)], dm)  # the solver's own

    lhs = a * float(np.sum(m * gamma * cvals * laplacian(f))) * dm
    alpha = sf.alpha_from_lattice(lat)
    d2_discrete = laplacian(m * cvals) / a
    rhs = alpha * float(np.sum(f * d2_discrete)) * dm
    assert lhs == pytest.approx(rhs, rel=1e-6)


def _flux_laplacian(f, dm, axis):
    """Reference: the second difference, with zero-gradient ghost cells."""
    f = f.swapaxes(0, axis)
    out = np.empty_like(f)
    out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
    out[0] = f[1] - f[0]
    out[-1] = f[-2] - f[-1]
    return (out / (dm * dm)).swapaxes(0, axis)


def _flux_drift_divergence(f, vel_faces, dm, axis):
    """Reference: the central-flux drift divergence, with no-flux edges."""
    f = f.swapaxes(0, axis)
    phi = vel_faces.swapaxes(0, axis) * 0.5 * (f[1:] + f[:-1])
    out = np.empty_like(f)
    out[0] = phi[0]
    out[-1] = -phi[-1]
    out[1:-1] = phi[1:] - phi[:-1]
    return (out / dm).swapaxes(0, axis)


@pytest.mark.parametrize("n, n_cells", [(1, 640), (2, 40), (2, 96)])
def test_stencil_matches_flux_form(n, n_cells):
    # The solver's coefficients, on a lattice where C varies across the
    # grid (Gamma > 0) and the chain flow couples the axes (d > 0).
    lat = sf.Lattice.chain(n=n, a_peak=1.0, gamma_peak=0.05, d=0.03, f=2e-4,
                           d_bath=0.02)
    m_min, m_max, tau = -3.0, 2.5, 1.3
    dm = (m_max - m_min) / n_cells
    m = m_min + dm * (np.arange(n_cells) + 0.5)
    faces = m_min + dm * np.arange(1, n_cells)

    def along(x, j):
        return x.reshape([-1 if k == j else 1 for k in range(n)])

    omega = sum(lat.a[j] * along(m, j) for j in range(n))
    c_pos = np.maximum(sf.count_rate_curvature(omega, tau, P)[0], 0.0)
    assert np.ptp(c_pos) > 0.5
    g_diff = [lat.f[j] + lat.gamma[j] * c_pos for j in range(n)]
    vel = [lat.d_bath * along(faces, j) for j in range(n)]
    if n == 2:
        vel = [v + lat.d[0] * (along(faces, j) - along(m, 1 - j))
               for j, v in enumerate(vel)]

    rhs = _stencil(vel, g_diff, dm)
    rng = np.random.default_rng(n_cells)
    for _ in range(3):
        f = rng.uniform(0.05, 1.0, (n_cells,) * n)
        flux = sum(_flux_drift_divergence(f, vel[j], dm, j)
                   + g_diff[j] * _flux_laplacian(f, dm, j) for j in range(n))
        assert np.max(np.abs(rhs(f) - flux)) <= 1e-13 * np.max(np.abs(flux))


def test_reports_use_the_cells_curvature_taken_once():
    # The solver evaluates C' and C'' on the cells once per solve; each
    # report equals one that evaluates them on the cells again.
    lat = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                     f=(5e-5, 5e-5), d_bath=0.02)
    spec = sf.GridSpec(m_min=-4.0, m_max=4.0, n_cells=40, init_mean=0.5,
                       init_width=0.4, n_outputs=3, cfl=0.8)
    grid, reports = sf.fp_grid_solve(lat, 0.23, 30.0, spec, P)
    m = grid.centers()
    points = np.stack(np.meshgrid(m, m, indexing="ij"), axis=-1).reshape(-1, 2)
    again = _weighted_moments(reports[-1].t, grid.values.ravel(), points, lat, 0.23,
                              P, mass_err=reports[-1].mass_err)
    for name in ("mean_omega", "var_omega", "trion_drift_exact",
                 "trion_drift_meanfield", "flatness_error", "remainder"):
        assert getattr(reports[-1], name) == pytest.approx(getattr(again, name),
                                                           rel=1e-13, abs=1e-300)


def test_grid_too_small_raises():
    lat = single_site(f_const=0.01, d_bath=0.01)
    spec = sf.GridSpec(m_min=-0.5, m_max=0.5, n_cells=64, init_mean=0.0,
                       init_width=0.2, n_outputs=4)
    with pytest.raises(GridTooSmallError):
        sf.fp_grid_solve(lat, 0.3, 400.0, spec, P)


def test_cfl_floor_raises():
    lat = single_site(f_const=0.01, d_bath=0.01)
    spec = sf.GridSpec(m_min=-40.0, m_max=40.0, n_cells=512, init_mean=0.0,
                       init_width=1.0, n_outputs=4)
    with pytest.raises(CflViolationError) as raised:
        sf.fp_grid_solve(lat, 0.3, 1e16, spec, P)
    assert raised.value.tau == 0.3


def test_two_site_solver_conserves_and_reports():
    lat = sf.Lattice(n=2, a=(1.2, 0.6), gamma=(0.0, 0.0), d=(0.02,),
                     f=(4e-4, 4e-4), d_bath=0.02)
    spec = sf.GridSpec(m_min=-1.2, m_max=1.2, n_cells=96, init_mean=0.3,
                       init_width=0.15, n_outputs=6, cfl=0.8)
    grid, reports = sf.fp_grid_solve(lat, 0.2, 120.0, spec, P)
    assert reports[-1].mass_err <= 1e-8
    assert grid.values.sum() * grid.dm ** 2 == pytest.approx(1.0, abs=1e-10)
    # Mean decays through bath plus flattening; bounded by the slower rate.
    assert abs(reports[-1].mean_omega) < abs(reports[0].mean_omega)


def test_two_site_mean_decay_via_bath():
    # With equal sites and no inter-site coupling the mean of Omega decays
    # at the bath rate on both sites.
    d_bath = 0.04
    lat = sf.Lattice(n=2, a=(1.0, 1.0), gamma=(0.0, 0.0), d=(0.0,),
                     f=(0.0, 0.0), d_bath=d_bath)
    spec = sf.GridSpec(m_min=-0.8, m_max=0.8, n_cells=220, init_mean=0.2,
                       init_width=0.05, n_outputs=5, cfl=0.4)
    _, reports = sf.fp_grid_solve(lat, 0.2, 0.5 / d_bath, spec, P)
    for r in reports[1:]:
        assert r.mean_omega == pytest.approx(0.4 * math.exp(-d_bath * r.t),
                                             rel=1e-4)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=1.0, m_max=-1.0, n_cells=64)
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=8)
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=64, cfl=2.0)
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=64, init_width=0.0)
