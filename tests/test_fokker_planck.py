"""Grid solver oracles: decay, fluctuation balance, conservation, identities."""

import itertools
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

import spinfringe as sf
from spinfringe import fokker_planck
from spinfringe.config import parse_config
from spinfringe.errors import CflViolationError, GridTooSmallError
from spinfringe.fokker_planck import _stencil, _weighted_moments
from spinfringe.langevin import evolve_trajectories

P = sf.ModelParams()


def single_site(gamma=0.0, f_const=0.0, d_bath=0.05, a=1.0):
    return sf.Lattice(n=1, a=(a,), gamma=(gamma,), d=(), f=(f_const,),
                      d_bath=d_bath)


def _one_site_operator(lat, tau, spec):
    """The solver's one-site cells, cell width, curvature, Heun rhs and stable step."""
    n_cells = spec.n_cells
    dm = (spec.m_max - spec.m_min) / n_cells
    m = spec.m_min + dm * (np.arange(n_cells) + 0.5)
    c, c1, c2 = sf.count_rate_curvature(lat.a[0] * m, tau, P)
    g = lat.f[0] + lat.gamma[0] * np.maximum(c, 0.0)
    vel = lat.d_bath * (spec.m_min + dm * np.arange(1, n_cells))
    dt_stable = spec.cfl * min(dm * dm / (2.0 * g.max()), dm / np.abs(vel).max())
    return m, dm, (c1, c2), _stencil([vel], [g], dm), dt_stable


def _per_step_solve(lat, tau, t_end, spec, steps, init_values=None):
    """Reference: the one-site Heun loop a step at a time, renormalized after each.

    Each output interval takes ``steps`` equal steps.  Returns the final
    density and the reports at the output times.
    """
    m, dm, curv, rhs, _ = _one_site_operator(lat, tau, spec)
    if init_values is None:
        f = np.exp(-0.5 * ((m - spec.init_mean) / spec.init_width) ** 2)
    else:
        f = np.array(init_values, dtype=float)
    f /= f.sum() * dm
    dt = t_end / spec.n_outputs / steps
    mass_err, reports = 0.0, []
    for t in np.linspace(0.0, t_end, spec.n_outputs + 1)[1:]:
        for _ in range(steps):
            k1 = rhs(f)
            k2 = rhs(f + dt * k1)
            f = f + 0.5 * dt * (k1 + k2)
            mass = f.sum() * dm
            mass_err += abs(mass - 1.0)
            f /= mass
        reports.append(_weighted_moments(t, f, m[:, None], lat, tau, P,
                                         mass_err=mass_err, curv=curv))
    return f, reports


def _count_steps(monkeypatch, n_sites: int = 1) -> dict:
    """Count the density steps that fp_grid_solve takes one at a time and in blocks."""
    counts = {"single": 0, "blocks": 0}
    real_heun, real_stepper = fokker_planck._heun, fokker_planck._block_stepper

    def heun(rhs):
        step = real_heun(rhs)

        def counted(f, dt):
            counts["single"] += f.ndim == n_sites  # not the band's probes
            return step(f, dt)
        return counted

    def block_stepper(*args):
        block = real_stepper(*args)

        def counted(f):
            counts["blocks"] += 1
            return block(f)
        return counted

    monkeypatch.setattr(fokker_planck, "_heun", heun)
    monkeypatch.setattr(fokker_planck, "_block_stepper", block_stepper)
    return counts


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


def test_mass_conserved_without_trion_term(monkeypatch):
    d_bath, f_const = 0.05, 0.00125
    lat = single_site(f_const=f_const, d_bath=d_bath)
    std = math.sqrt(f_const / d_bath)
    spec = sf.GridSpec(m_min=-4.75 * std, m_max=4.75 * std, n_cells=400,
                       init_mean=0.0, init_width=std / 2, n_outputs=8, cfl=0.85)
    counts = _count_steps(monkeypatch)
    density, reports = sf.fp_grid_solve(lat, 0.3, 4.0 / d_bath, spec, P)
    assert counts["blocks"] > 0
    assert reports[-1].mass_err <= 1e-8  # cumulative raw drift over the run
    assert density.sum() * spec.dm == pytest.approx(1.0, abs=1e-12)
    assert density.min() >= -1e-12


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


def _axis_slice_stencil(vel, g_diff, dm):
    """Reference: the stencil applied along each grid axis by slices of the grid."""
    shape = np.broadcast_shapes(*(g.shape for g in g_diff))
    row_sum = np.zeros(shape)
    terms = []
    for j in range(len(vel)):
        rest = (slice(None),) * (len(vel) - 1 - j)
        below = (..., slice(None, -1), *rest)
        above = (..., slice(1, None), *rest)
        g = np.broadcast_to(g_diff[j], shape) / (dm * dm)
        h = 0.5 * vel[j] / dm
        row_sum[below] += 2.0 * h
        row_sum[above] -= 2.0 * h
        terms.append((below, above, h + g[below], g[above] - h))

    def rhs(f):
        out = row_sum * f
        for below, above, up, lo in terms:
            df = f[above] - f[below]
            out[below] += up * df
            out[above] -= lo * df
        return out

    return rhs


def _solver_operator(monkeypatch, lat, n_cells, tau=1.3):
    """The (vel, g_diff, dm) that fp_grid_solve passes to _stencil for ``lat``."""
    taken = []
    real_stencil = fokker_planck._stencil
    monkeypatch.setattr(fokker_planck, "_stencil",
                        lambda *args: taken.append(args) or real_stencil(*args))
    spec = sf.GridSpec(m_min=-3.0, m_max=2.5, n_cells=n_cells, init_mean=-0.3,
                       init_width=0.5)
    sf.fp_grid_solve(lat, tau, 0.0, spec, P)
    monkeypatch.setattr(fokker_planck, "_stencil", real_stencil)
    (args,) = taken
    return args


@pytest.mark.parametrize("n, n_cells, stack", [
    (1, 640, ()), (1, 640, (16,)), (2, 40, ()), (2, 96, ()),
], ids=["one-site", "probe-stack", "two-site-40", "two-site-96"])
def test_flat_stencil_matches_axis_slices_bit_for_bit(monkeypatch, n, n_cells, stack):
    # The solver's own coefficients: C varies across the grid (Gamma > 0)
    # and the chain flow couples the axes (d > 0).
    lat = sf.Lattice.chain(n=n, a_peak=1.0, gamma_peak=0.05, d=0.03, f=2e-4,
                           d_bath=0.02)
    vel, g_diff, dm = _solver_operator(monkeypatch, lat, n_cells)
    assert np.ptp(g_diff[0]) > 0.01 and (n == 1 or np.ptp(vel[0], axis=1).max() > 0)
    rhs, want = _stencil(vel, g_diff, dm), _axis_slice_stencil(vel, g_diff, dm)
    step = fokker_planck._heun(rhs)
    dt = 0.4 * dm * dm / max(np.max(g) for g in g_diff)
    rng = np.random.default_rng(n_cells)
    for _ in range(3):
        f = rng.uniform(-0.2, 1.0, (*stack, *(n_cells,) * n))
        k1 = want(f)
        k2 = want(f + dt * k1)
        assert np.array_equal(rhs(f), k1)
        assert np.array_equal(step(f, dt), f + 0.5 * dt * (k1 + k2))


@pytest.mark.parametrize("n, stack", [(2, ()), (1, (16,))], ids=["grid", "probe-stack"])
def test_a_step_returns_a_state_no_later_step_writes(monkeypatch, n, stack):
    lat = sf.Lattice.chain(n=n, a_peak=1.0, gamma_peak=0.05, d=0.03, f=2e-4,
                           d_bath=0.02)
    vel, g_diff, dm = _solver_operator(monkeypatch, lat, 48)
    step = fokker_planck._heun(_stencil(vel, g_diff, dm))
    dt = 0.4 * dm * dm / max(np.max(g) for g in g_diff)
    f0 = np.random.default_rng(7).uniform(0.05, 1.0, (*stack, *(48,) * n))
    kept = f0.copy()
    f1 = step(f0, dt)
    f1_kept = f1.copy()
    f3 = step(step(f1, dt), dt)
    assert np.array_equal(f0, kept) and np.array_equal(f1, f1_kept)
    assert not np.shares_memory(f1, f3)


def test_a_solved_density_is_not_written_by_the_next_solve():
    # compare_meanfield's continuation hands each solve's density to the next.
    lat = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                     f=(5e-5, 5e-5), d_bath=0.02)
    spec = sf.GridSpec(m_min=-4.0, m_max=4.0, n_cells=40, init_mean=0.5,
                       init_width=0.4, n_outputs=3, cfl=0.8)
    first, _ = sf.fp_grid_solve(lat, 0.17, 20.0, spec, P)
    kept = first.copy()
    second, _ = sf.fp_grid_solve(lat, 0.23, 20.0, spec, P, init_values=first)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("t_end", [30.0, 120.0])
def test_grid_stepping_peaks_within_five_and_a_half_densities(monkeypatch, t_end):
    # The benchmark's two-site lattice at 96^2 cells.  From just before
    # the first step to the last, the steps with their renormalization
    # peak less than five and a half densities above the start, whatever
    # their number: at most five densities live at once within a Heun
    # step (k1, the state k2 is taken at, the stencil's sum, neighbour
    # difference and product), and nothing is kept from one step to the
    # next.
    lat = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                     f=(5e-5, 5e-5), d_bath=0.02)
    spec = sf.GridSpec(m_min=-4.0, m_max=4.0, n_cells=96, init_mean=0.5,
                       init_width=0.4, n_outputs=1, cfl=0.8)
    real_heun = fokker_planck._heun
    traced = {"steps": 0}

    def heun(rhs):
        step = real_heun(rhs)

        def traced_step(f, dt):
            if not traced["steps"]:
                tracemalloc.reset_peak()
                traced["start"] = tracemalloc.get_traced_memory()[0]
                traced["nbytes"] = f.nbytes
            f = step(f, dt)
            traced["steps"] += 1
            traced["peak"] = tracemalloc.get_traced_memory()[1]
            return f
        return traced_step

    monkeypatch.setattr(fokker_planck, "_heun", heun)
    tracemalloc.start()
    try:
        sf.fp_grid_solve(lat, 0.17, t_end, spec, P)
    finally:
        tracemalloc.stop()
    assert traced["steps"] > 50
    assert traced["peak"] - traced["start"] < 5.5 * traced["nbytes"]


def test_reports_use_the_cells_curvature_taken_once():
    # The solver evaluates C' and C'' on the cells once per solve; each
    # report equals one that evaluates them on the cells again.
    lat = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                     f=(5e-5, 5e-5), d_bath=0.02)
    spec = sf.GridSpec(m_min=-4.0, m_max=4.0, n_cells=40, init_mean=0.5,
                       init_width=0.4, n_outputs=3, cfl=0.8)
    density, reports = sf.fp_grid_solve(lat, 0.23, 30.0, spec, P)
    m = spec.centers()
    points = np.stack(np.meshgrid(m, m, indexing="ij"), axis=-1).reshape(-1, 2)
    again = _weighted_moments(reports[-1].t, density.ravel(), points, lat, 0.23,
                              P, mass_err=reports[-1].mass_err)
    for name in ("mean_omega", "var_omega", "trion_drift_exact",
                 "trion_drift_meanfield", "flatness_error", "remainder"):
        assert getattr(reports[-1], name) == pytest.approx(getattr(again, name),
                                                           rel=1e-13, abs=1e-300)


def test_grid_too_small_raises(monkeypatch):
    lat = single_site(f_const=0.01, d_bath=0.01)
    spec = sf.GridSpec(m_min=-0.5, m_max=0.5, n_cells=64, init_mean=0.0,
                       init_width=0.2, n_outputs=4)
    counts = _count_steps(monkeypatch)
    with pytest.raises(GridTooSmallError, match="of the mass at t=100.0") as raised:
        sf.fp_grid_solve(lat, 0.3, 400.0, spec, P)
    assert counts["blocks"] > 0
    # The first report time, 100 ns, is where the edge check fails.
    assert (raised.value.tau, raised.value.t) == (0.3, 100.0)


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
    density, reports = sf.fp_grid_solve(lat, 0.2, 120.0, spec, P)
    assert reports[-1].mass_err <= 1e-8
    assert density.sum() * spec.dm ** 2 == pytest.approx(1.0, abs=1e-10)
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


@pytest.mark.parametrize("n_cells, half_width", [(128, 3.0), (16, 6.0)],
                         ids=["128-cells", "fewer-cells-than-the-band"])
def test_block_steps_match_the_per_step_loop(monkeypatch, n_cells, half_width):
    # Gamma > 0, so C varies and each step changes the mass.  At the first
    # delay each output interval is 13 K + 1/2 stable steps long, so it
    # takes 13 K + 1 steps rounded up to 14 K: 14 blocks of K equal steps.
    # The second delay continues from the first one's density.
    lat = single_site(gamma=0.01, f_const=5e-5, d_bath=0.02)
    spec = sf.GridSpec(m_min=-half_width, m_max=half_width, n_cells=n_cells,
                       init_mean=0.2, init_width=0.3, cfl=0.8, n_outputs=5)
    k = fokker_planck._BLOCK
    interval = (13 * k + 0.5) * _one_site_operator(lat, 0.17, spec)[-1]
    t_end = spec.n_outputs * interval
    counts = _count_steps(monkeypatch)
    density = None
    for tau in (0.17, 0.23):
        counts.update(single=0, blocks=0)
        got_f, reports = sf.fp_grid_solve(lat, tau, t_end, spec, P, init_values=density)
        steps = k * math.ceil(interval / _one_site_operator(lat, tau, spec)[-1] / k)
        if tau == 0.17:
            assert steps == 14 * k
        want_f, want = _per_step_solve(lat, tau, t_end, spec, steps, density)
        assert counts == {"single": 0, "blocks": spec.n_outputs * steps // k}
        assert [r.t for r in reports[1:]] == [r.t for r in want]
        for got, ref in zip(reports[1:], want):
            assert got.mean_omega == pytest.approx(
                ref.mean_omega, rel=1e-12, abs=1e-12 * math.sqrt(ref.var_omega))
            for name in ("var_omega", "trion_drift_exact", "trion_drift_meanfield",
                         "flatness_error", "mass_err"):
                assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-12)
        assert np.max(np.abs(got_f - want_f)) <= 1e-12 * np.max(want_f)
        density = got_f


@pytest.mark.parametrize("n_sites, t_end, banded", [
    (1, 40.0, False),
    (1, 2400.0, True),
    (2, 40.0, False),
], ids=["one-site", "one-site-banded", "two-site"])
def test_each_output_interval_takes_the_fewest_whole_steps(monkeypatch, n_sites,
                                                           t_end, banded):
    # Gamma = 0 and no chain flow: g = F and |v| peaks at the outer faces,
    # so the stable step has a closed form.
    lat = sf.Lattice(n=n_sites, a=(1.0,) * n_sites, gamma=(0.0,) * n_sites,
                     d=(0.0,) * (n_sites - 1), f=(4e-4,) * n_sites, d_bath=0.02)
    spec = sf.GridSpec(m_min=-1.5, m_max=1.5, n_cells=48, init_mean=0.2,
                       init_width=0.3, cfl=0.8, n_outputs=3)
    dm, k = spec.dm, fokker_planck._BLOCK
    dt_stable = spec.cfl * min(dm * dm / (2 * n_sites * 4e-4),
                               dm / (n_sites * 0.02 * (1.5 - dm)))
    steps = math.ceil(t_end / spec.n_outputs / dt_stable)
    if banded:
        steps = k * math.ceil(steps / k)
    counts = _count_steps(monkeypatch, n_sites)
    _, reports = sf.fp_grid_solve(lat, 0.2, t_end, spec, P)
    assert counts["single"] + k * counts["blocks"] == spec.n_outputs * steps
    assert (counts["blocks"] > 0) == banded
    assert [r.t for r in reports] == np.linspace(0.0, t_end, spec.n_outputs + 1).tolist()
    for r in reports:
        assert {type(v) for v in astuple(r) if v is not None} == {float}


@pytest.mark.parametrize("lat, t_end", [
    (single_site(gamma=0.1, f_const=1e-3), 0.0),
    (single_site(d_bath=0.0), 50.0),  # an unbounded stable step
], ids=["zero-span", "no-drift-or-diffusion"])
def test_nothing_to_evolve_takes_no_step(monkeypatch, lat, t_end):
    counts = _count_steps(monkeypatch)
    spec = sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=40, init_mean=0.1,
                       init_width=0.1, n_outputs=2)
    density, reports = sf.fp_grid_solve(lat, 0.3, t_end, spec, P)
    assert counts == {"single": 0, "blocks": 0}
    assert [r.t for r in reports] == [0.0, 0.5 * t_end, t_end]
    assert reports[-1] == replace(reports[0], t=t_end)
    m = spec.centers()
    initial = np.exp(-0.5 * ((m - 0.1) / 0.1) ** 2)
    assert np.array_equal(density, initial / (initial.sum() * spec.dm))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=1.0, m_max=-1.0, n_cells=64)
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=8)
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=64, cfl=2.0)
    with pytest.raises(ValueError):
        sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=64, init_width=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("m_min", math.nan, "m_min must be finite"),
    ("m_min", -math.inf, "m_min must be finite"),
    ("m_max", math.inf, "m_max must be finite"),
    ("init_mean", math.nan, "init_mean must be finite"),
    ("init_width", math.inf, "init_width must be finite"),
    ("cfl", math.nan, "cfl must be finite"),
    ("n_outputs", 0, "n_outputs >= 1 required"),
    ("n_outputs", -3, "n_outputs >= 1 required"),
])
def test_grid_spec_rejects_a_bad_field_by_name(field, value, message):
    with pytest.raises(ValueError, match=message):
        sf.GridSpec(**{"m_min": -1.0, "m_max": 1.0, "n_cells": 64, field: value})


@pytest.mark.parametrize("value, arg", [
    *itertools.product([math.nan, math.inf, -math.inf], ["tau", "t_end"]),
    (-10.0, "t_end"),  # a negative span
])
def test_non_finite_delay_or_span_is_rejected_by_name(value, arg):
    spec = sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=64, init_mean=0.0,
                       init_width=0.1, n_outputs=2)
    args = {"tau": 0.3, "t_end": 10.0, arg: value}
    kind = "non-finite" if not math.isfinite(value) else "negative"
    with pytest.raises(ValueError, match=f"{kind} {arg} {value!r}"):
        sf.fp_grid_solve(single_site(gamma=0.1), args["tau"], args["t_end"], spec, P)


def test_non_finite_initial_density_is_rejected_by_name():
    spec = sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=40, init_width=0.1, n_outputs=2)
    init = np.full(40, 1.0)
    for bad in (math.nan, math.inf):
        init[7] = bad
        with pytest.raises(ValueError, match="non-finite entry in init_values"):
            sf.fp_grid_solve(single_site(gamma=0.1), 0.3, 10.0, spec, P, init_values=init)


@pytest.mark.parametrize("n_sites", [1, 2])
def test_initial_density_without_mass_on_the_grid_raises(n_sites):
    # A profile 1000 widths off the grid underflows to zero everywhere.
    lat = (single_site(gamma=0.1) if n_sites == 1 else
           sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                      f=(5e-5, 5e-5), d_bath=0.02))
    spec = sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=40, init_mean=100.0,
                       init_width=0.1, n_outputs=2)
    with pytest.raises(GridTooSmallError, match="initial density has mass 0.0") as raised:
        sf.fp_grid_solve(lat, 0.3, 5.0, spec, P)
    assert (raised.value.tau, raised.value.t) == (0.3, 0.0)
    with pytest.raises(GridTooSmallError, match="initial density has mass -"):
        sf.fp_grid_solve(lat, 0.3, 5.0, spec, P, init_values=-np.ones((40,) * n_sites))


def test_initial_density_may_carry_small_negative_tails():
    # A continued density oscillates in sign through its tails.
    spec = sf.GridSpec(m_min=-1.0, m_max=1.0, n_cells=40, init_width=0.2, n_outputs=2)
    m = spec.centers()
    init = np.exp(-0.5 * (m / 0.1) ** 2) + 1e-9 * (-1.0) ** np.arange(40)
    assert init.min() < 0.0
    _, reports = sf.fp_grid_solve(single_site(gamma=0.1, f_const=1e-3), 0.3, 5.0, spec,
                                  P, init_values=init)
    assert all(math.isfinite(r.mean_omega) for r in reports)


# The two-site lattice of the benchmark's oracle workload.
TWO = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,), f=(5e-5, 5e-5),
                 d_bath=0.02)


def test_one_site_covariance_is_the_balance_variance():
    lat = single_site(gamma=0.03, f_const=2e-4, d_bath=0.02)
    ((var,),) = fokker_planck._stationary_covariance(lat, P)
    assert var == (2e-4 + 2.0 * P.s_p * 0.03) / 0.02


@pytest.mark.parametrize("lat", [TWO, replace(TWO, d=(0.0,))], ids=["bonded", "d-zero"])
def test_two_site_covariance_solves_the_lyapunov_balance(lat):
    sigma = fokker_planck._stationary_covariance(lat, P)
    lin = lat.rates()
    noise = 2.0 * np.diag(lat.f_array() + 2.0 * P.s_p * lat.gamma_array())
    residual = lin @ sigma + sigma @ lin.T + noise
    assert np.abs(residual).max() <= 1e-15 * np.abs(noise).max()
    assert np.array_equal(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() > 0.0


def test_covariance_matches_an_ornstein_uhlenbeck_ensemble():
    # At Gamma = 0 the drift is linear and the noise constant: the ensemble
    # is an Ornstein-Uhlenbeck process whose stationary covariance is Sigma.
    # After 12 relaxation times the start at the origin is forgotten to 6e-6.
    lat = replace(TWO, gamma=(0.0, 0.0), d=(0.01,), f=(5e-5, 1e-4))
    sigma = fokker_planck._stationary_covariance(lat, P)
    rng = np.random.Generator(np.random.Philox(key=11))
    state, _ = evolve_trajectories(lat, 0.17, 300.0, np.zeros((4000, 2)), rng, P,
                                   n_outputs=1)
    sample = np.cov(state, rowvar=False)
    se = np.sqrt((np.outer(sigma.diagonal(), sigma.diagonal()) + sigma ** 2) / len(state))
    assert np.all(np.abs(sample - sigma) <= 5.0 * se)


def _nominal_grid(monkeypatch, *args) -> sf.GridSpec:
    """The grid auto_grid sizes for ``args`` before it drops the tail cells."""
    def no_covariance(*_):
        raise np.linalg.LinAlgError

    with monkeypatch.context() as patch:
        patch.setattr(fokker_planck, "_stationary_covariance", no_covariance)
        return fokker_planck.auto_grid(*args)


def _benchmark_window() -> tuple[float, float]:
    """The mean-field window of the benchmark's compare, delays 0.17 and 0.23."""
    mf = sf.MeanFieldParams(kappa=TWO.d_bath, alpha=sf.alpha_from_lattice(TWO))
    w, ws = 0.0, [0.0]
    for tau in (0.17, 0.23):
        w = sf.relax_to_steady(w, tau, P, mf).omega_f
        ws.append(w)
    return min(ws), max(ws)


@pytest.mark.parametrize("case", ["benchmark-96", "benchmark-40", "one-site-96",
                                  "cli-default", "tiny-sigma"])
def test_auto_grid_keeps_the_nominal_cells_within_six_deviations(monkeypatch, case):
    lo, hi = _benchmark_window()
    p = P
    lat, n_cells, tau = TWO, 96, 0.23
    if case == "benchmark-40":
        n_cells = 40
    elif case == "one-site-96":
        lat = single_site(gamma=0.01, f_const=5e-5, d_bath=0.02)
    elif case == "cli-default":
        cfg = parse_config("", [])
        w_f = sf.relax_to_steady(0.0, cfg.oracle.tau, cfg.model, cfg.meanfield).omega_f
        lat, n_cells, tau = cfg.lattice, cfg.oracle.n_cells, cfg.oracle.tau
        lo, hi = min(w_f, 0.0), max(w_f, 0.0)
    elif case == "tiny-sigma":
        # The count rate tops out at 2 s_p = 0.002, far below the 0.05 floor of
        # the nominal width's count rate: sigma is a fifth of that width.
        lat, lo, hi, n_cells = single_site(gamma=0.01, d_bath=0.02), 0.0, 0.0, 64
        p = sf.ModelParams(s_p=0.001)
    args = (lat, lo, hi, tau, p, n_cells)
    nominal = _nominal_grid(monkeypatch, *args)
    spec = fokker_planck.auto_grid(*args)
    assert nominal.n_cells == n_cells
    assert 16 <= spec.n_cells <= n_cells
    assert spec.dm == pytest.approx(nominal.dm, rel=1e-12)
    first = round((spec.m_min - nominal.m_min) / nominal.dm)
    assert 0 <= first <= n_cells - spec.n_cells
    np.testing.assert_allclose(spec.centers(), nominal.centers()[first:first + spec.n_cells],
                               rtol=0.0, atol=1e-12 * (nominal.m_max - nominal.m_min))
    a_scale = max(map(abs, lat.a))
    reach = 6.0 * math.sqrt(fokker_planck._stationary_covariance(lat, p).diagonal().max())
    assert spec.m_min <= lo / a_scale - reach and spec.m_max >= hi / a_scale + reach
    if case == "tiny-sigma":
        assert spec.n_cells == 16
    else:  # no whole cell beyond the reach is kept
        assert spec.m_min + spec.dm > lo / a_scale - reach
        assert spec.m_max - spec.dm < hi / a_scale + reach
    if case == "benchmark-96":
        assert spec.n_cells <= 66


def test_auto_grid_without_bath_keeps_every_cell():
    lat = single_site(gamma=0.01, f_const=5e-5, d_bath=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        fokker_planck._stationary_covariance(lat, P)
    assert fokker_planck.auto_grid(lat, -0.1, 0.0, 0.17, P, 64).n_cells == 64
