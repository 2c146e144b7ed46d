"""Oracle/mean-field comparison: remainder identities and flatness behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

import spinfringe as sf
from spinfringe import compare
from spinfringe.compare import compare_meanfield
from spinfringe.fokker_planck import _weighted_moments
from spinfringe.meanfield import d2_omega_C, steady_states

P = sf.ModelParams()


def test_single_site_remainder_identically_zero():
    # A m = Omega pointwise makes the site term equal the collective term.
    kappa = 0.02
    lat = sf.Lattice(n=1, a=(1.4,), gamma=(0.008,), d=(), f=(1e-4,),
                     d_bath=kappa)
    mf = sf.MeanFieldParams(kappa=kappa, alpha=sf.alpha_from_lattice(lat))
    rows = compare_meanfield(lat, [0.13, 0.23], P, mf, t_end=5.0 / kappa)
    for row in rows:
        assert abs(row.remainder) <= 1e-12 * max(abs(row.trion_exact), 1e-12)
        assert row.oracle_se == 0.0


def test_single_site_rows_track_meanfield_under_flatness_gate():
    kappa = 0.02
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(5e-5,),
                     d_bath=kappa)
    mf = sf.MeanFieldParams(kappa=kappa, alpha=sf.alpha_from_lattice(lat))
    rows = compare_meanfield(lat, [0.13, 0.17, 0.23], P, mf, t_end=10.0 / kappa)
    assert len(rows) == 3
    for row in rows:
        assert row.flatness_error < 0.05
        assert row.oracle_mean == pytest.approx(row.meanfield_omega, rel=0.05)


def test_two_site_remainder_matches_bruteforce_and_bound():
    # Asymmetric hyperfine weights give a nonzero site-structure remainder;
    # the reported value must equal independent brute-force integration
    # over the joint density and respect the Cauchy-Schwarz bound
    # |rem| <= sum_j |A_j (Gamma_j A_j^2 - alpha)| sqrt(<m_j^2> <C''^2>).
    lat = sf.Lattice(n=2, a=(1.3, 0.6), gamma=(0.014, 0.007), d=(0.01,),
                     f=(3e-4, 3e-4), d_bath=0.02)
    tau = 0.17
    spec = sf.GridSpec(m_min=-3.2, m_max=3.2, n_cells=128, init_mean=0.0,
                       init_width=0.2, cfl=0.8, n_outputs=6)
    density, reports = sf.fp_grid_solve(lat, tau, 220.0, spec, P)
    m = spec.centers()
    dm = spec.dm
    reported = reports[-1].remainder

    # Brute force: accumulate the integrand cell by cell.
    a1, a2 = lat.a
    g1, g2 = lat.gamma
    alpha = sf.alpha_from_lattice(lat)
    acc = 0.0
    sq_m = [0.0, 0.0]
    sq_c2 = 0.0
    for i, m1 in enumerate(m):
        for j, m2 in enumerate(m):
            w = density[i, j] * dm * dm
            omega = a1 * m1 + a2 * m2
            _, _, c2 = sf.count_rate_curvature(omega, tau, P)
            site = g1 * a1 ** 3 * m1 + g2 * a2 ** 3 * m2
            acc += w * (site - alpha * omega) * c2
            sq_m[0] += w * m1 * m1
            sq_m[1] += w * m2 * m2
            sq_c2 += w * c2 * c2
    assert reported == pytest.approx(acc, rel=1e-9, abs=1e-15)
    assert reported != 0.0
    bound = (abs(a1 * (g1 * a1 ** 2 - alpha)) * math.sqrt(sq_m[0] * sq_c2)
             + abs(a2 * (g2 * a2 ** 2 - alpha)) * math.sqrt(sq_m[1] * sq_c2))
    assert abs(reported) <= bound


def test_ensemble_remainder_consistent_with_grid_form():
    rng = np.random.default_rng(17)
    lat = sf.Lattice(n=3, a=(0.9, 1.2, 0.5), gamma=(0.01, 0.013, 0.006),
                     d=(0.01, 0.01), f=(1e-4, 1e-4, 1e-4), d_bath=0.02)
    m = rng.normal(0.2, 0.3, size=(4000, 3))
    rem = _weighted_moments(0.0, np.ones(m.shape[0]), m, lat, 0.19, P).remainder
    # Independent accumulation trajectory by trajectory.
    a = np.array(lat.a)
    gamma = np.array(lat.gamma)
    alpha = sf.alpha_from_lattice(lat)
    acc = 0.0
    for row in m:
        omega = float(np.dot(row, a))
        _, _, c2 = sf.count_rate_curvature(omega, 0.19, P)
        acc += (float(np.dot(row, gamma * a ** 3)) - alpha * omega) * c2
    acc /= m.shape[0]
    assert rem == pytest.approx(acc, rel=1e-10, abs=1e-16)


def test_flatness_grows_with_density_width():
    # Wider fluctuations stress the flat-count closure monotonically.
    kappa = 0.02
    tau = 0.17
    flats = []
    for f_const in (2e-4, 2e-3, 8e-3):
        lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.005,), d=(), f=(f_const,),
                         d_bath=kappa)
        std = math.sqrt((f_const + 0.005 * 0.3) / kappa)
        spec = sf.GridSpec(m_min=-10 * std, m_max=10 * std, n_cells=640,
                           init_mean=0.0, init_width=std / 2, cfl=0.85,
                           n_outputs=8)
        _, reports = sf.fp_grid_solve(lat, tau, 8.0 / kappa, spec, P)
        flats.append(reports[-1].flatness_error)
    assert flats[0] < flats[1] < flats[2]


def _gaussian_flatness_proxy(w_f, tau, rho):
    c_val = sf.count_rate(w_f, tau, P)
    width = math.sqrt(max(c_val, 1e-4) / rho + 5e-3)
    xs = w_f + width * np.linspace(-5, 5, 81)
    wts = np.exp(-0.5 * ((xs - w_f) / width) ** 2)
    wts /= wts.sum()
    avg = float(np.dot(wts, d2_omega_C(xs, tau, P)))
    loc = d2_omega_C(w_f, tau, P)
    scale = max(abs(avg), abs(loc), 1e-12)
    return abs(avg - loc) / scale


def test_grid_oracle_hysteresis_gate_is_empty_then_skip():
    """Flatness-gated hysteresis check for the grid oracle.

    The grid solver's literal diffusion operator supports a localized
    quasi-stationary density only near the origin (the density wall sits
    where kappa*omega = alpha*C', not at the drift root), while bistable
    drift roots with flatness below 0.05 only occur far out on the
    pumping tail.  This probe scans the ratio decades for a bistable
    pair of stable roots that are simultaneously flat (< 0.05) and
    central (|omega| <= 12, where the density stays localized); if one
    ever exists the loop comparison must be implemented there.  The
    trajectory-ensemble loop test in test_langevin covers the hysteresis
    physics in the meantime.
    """
    kappa = 0.02
    screened = []
    for rho in (0.1, 0.3, 1.0, 3.0):
        mf = sf.MeanFieldParams(kappa=kappa, alpha=kappa / rho)
        for tau in np.arange(0.57, 2.3, 0.0537):
            stable = [r for r in steady_states(float(tau), P, mf)
                      if r.stable and abs(r.omega_f) <= 12.0]
            flat = [r for r in stable
                    if _gaussian_flatness_proxy(r.omega_f, float(tau), rho) < 0.05]
            if len(flat) >= 2:
                screened.append((rho, float(tau), flat[0].omega_f,
                                 flat[-1].omega_f))
    # Screened candidates must also pass the gate as the oracle actually
    # measures it, with the density genuinely holding both branches.
    confirmed = []
    for rho, tau, w_a, w_b in screened[:4]:
        lat = sf.Lattice(n=1, a=(1.0,), gamma=(kappa / rho,), d=(),
                         f=(1e-4,), d_bath=kappa)
        mf = sf.MeanFieldParams(kappa=kappa, alpha=sf.alpha_from_lattice(lat))
        try:
            rows_a = compare_meanfield(lat, [tau], P, mf, omega_init=w_a,
                                       t_end=6.0 / kappa)
            rows_b = compare_meanfield(lat, [tau], P, mf, omega_init=w_b,
                                       t_end=6.0 / kappa)
        except sf.GridTooSmallError:
            # The density will not localize there at all; not a valid window.
            continue
        bistable = abs(rows_a[0].oracle_mean - rows_b[0].oracle_mean) > 1.0
        gated = max(rows_a[0].flatness_error, rows_b[0].flatness_error) < 0.05
        if bistable and gated:
            confirmed.append((rho, tau))
    assert not confirmed, (
        "bistable flat grid-oracle windows now exist; implement the gated "
        f"loop comparison there: {confirmed}")
    pytest.skip("no bistable window passes the flatness gate for the grid "
                "oracle; hysteresis covered by the ensemble loop test")


def test_widened_grid_goes_on_from_the_carried_density(monkeypatch):
    # On cells of +-2.4 the first delay holds its density, but in the
    # second one the spreading density reaches the edge cells.  The grid
    # widens by half, once, and the second delay goes on from the first
    # one's density resampled onto the wider cells: it ends where both
    # delays run on the wide grid from the start end, not where a restart
    # from the initial profile ends (-0.023).
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(5e-5,), d_bath=0.02)
    mf = sf.MeanFieldParams(kappa=0.02, alpha=sf.alpha_from_lattice(lat))
    narrow = sf.GridSpec(m_min=-2.4, m_max=2.4, n_cells=96, init_mean=0.0,
                         init_width=0.28, cfl=0.8, n_outputs=8)
    wide = replace(narrow, m_min=-3.6, m_max=3.6)
    monkeypatch.setattr(compare, "auto_grid", lambda *args: narrow)
    solves = []
    real_solve = compare.fp_grid_solve

    def solve(*args, init_values=None):
        solves.append((args[3], None))  # the spec, and the reports once it succeeds
        density, reports = real_solve(*args, init_values=init_values)
        solves[-1] = (args[3], reports)
        return density, reports

    monkeypatch.setattr(compare, "fp_grid_solve", solve)
    rows = compare_meanfield(lat, [0.13, 0.17], P, mf, t_end=20.0)
    (_, first), (failed, _), (spec, retry) = solves
    assert failed == replace(narrow, init_mean=(0.0,))  # started at m_init
    assert (spec.m_min, spec.m_max) == pytest.approx((wide.m_min, wide.m_max))
    assert retry[0].mean_omega == pytest.approx(first[-1].mean_omega, abs=1e-6)
    assert retry[0].var_omega == pytest.approx(first[-1].var_omega, rel=1e-2)

    density, _ = real_solve(lat, 0.13, 20.0, wide, P)
    _, want = real_solve(lat, 0.17, 20.0, wide, P, init_values=density)
    assert rows[1].oracle_mean == pytest.approx(want[-1].mean_omega, abs=1e-5)
    assert retry[-1].var_omega == pytest.approx(want[-1].var_omega, rel=1e-2)


def test_multisite_ensemble_compare_rows():
    lat = sf.Lattice.chain(n=3, a_peak=0.8, gamma_peak=0.012, d=0.01,
                           f=2e-4, d_bath=0.02)
    mf = sf.MeanFieldParams(kappa=0.02, alpha=sf.alpha_from_lattice(lat))
    rows = compare_meanfield(lat, [0.13, 0.17], P, mf, t_end=250.0,
                             n_traj=2000, seed=5)
    assert len(rows) == 2
    for row in rows:
        assert row.oracle_se > 0.0
        assert math.isfinite(row.remainder)
        # Loose agreement: the ensemble mean lands near the drift root.
        assert abs(row.oracle_mean - row.meanfield_omega) <= max(
            0.15 * abs(row.meanfield_omega), 5 * row.oracle_se)
    big = sf.Lattice.chain(n=9, a_peak=0.8, gamma_peak=0.01, d=0.01,
                           f=2e-4, d_bath=0.02)
    with pytest.raises(ValueError):
        compare_meanfield(big, [0.17], P, mf, n_traj=200, seed=5)


class _PreRunCalled(Exception):
    pass


@pytest.mark.parametrize("n_sites, n_traj, message", [
    (9, 200, "ensemble oracle limited to n <= 8 sites"),
    (3, 99, "n_traj >= 100 required"),
    (8, 1, "n_traj >= 100 required"),
    (2, 1, None),  # the grid oracle draws no trajectories
], ids=["nine-sites", "three-sites-99-traj", "eight-sites-1-traj", "two-site-grid"])
def test_bad_input_is_rejected_before_the_meanfield_pre_run(monkeypatch, n_sites, n_traj,
                                                            message):
    # The mean-field pre-run over every delay is the first work done; a
    # rejected call must never reach it.
    def fail(*args, **kwargs):
        raise _PreRunCalled

    monkeypatch.setattr(compare, "relax_to_steady", fail)
    lat = sf.Lattice.chain(n=n_sites, a_peak=0.8, gamma_peak=0.01, d=0.01, f=2e-4,
                           d_bath=0.02)
    mf = sf.MeanFieldParams(kappa=0.02, alpha=sf.alpha_from_lattice(lat))
    expected = ValueError if message else _PreRunCalled
    with pytest.raises(expected, match=message):
        compare_meanfield(lat, [0.17, 0.23], P, mf, n_traj=n_traj)


@pytest.mark.parametrize("lat, t_end", [
    (sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(5e-5,), d_bath=0.02), 1e-3),
    (sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,), f=(5e-5, 5e-5),
                d_bath=0.02), 1e-3),
    # The ensemble mean's standard error grows as sqrt(t_end): about 2.1e-4
    # at 1e-3 ns for 200 trajectories, 2.1e-5 at 1e-5 ns.
    (sf.Lattice.chain(n=3, a_peak=0.8, gamma_peak=0.012, d=0.01, f=2e-4, d_bath=0.02),
     1e-5),
], ids=["one-site-grid", "two-site-grid", "three-site-ensemble"])
def test_oracle_starts_at_the_requested_shift(lat, t_end):
    # Over 1e-3 ns the mean moves by about 6e-5 rad/ns from where it starts.
    # Centring both grid axes at m_init[0] would start <Omega> at
    # (A_0 + A_1) A_0 / |A|^2 times omega_init: 1.098 times it on two sites.
    mf = sf.MeanFieldParams(kappa=lat.d_bath, alpha=sf.alpha_from_lattice(lat))
    (row,) = compare_meanfield(lat, [0.17], P, mf, omega_init=3.0, t_end=t_end,
                               n_traj=200)
    assert row.oracle_mean == pytest.approx(3.0, abs=1e-4)


TWO_SITE = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                      f=(5e-5, 5e-5), d_bath=0.02)
ONE_SITE = sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(5e-5,), d_bath=0.02)


@pytest.mark.parametrize("lat, taus, kwargs", [
    (TWO_SITE, [0.17, 0.23], {"n_cells": 96}),
    (TWO_SITE, [0.17, 0.23], {"n_cells": 40}),
    (ONE_SITE, [0.17], {"t_end": 100.0, "n_cells": 96}),
], ids=["benchmark-96", "benchmark-40", "pinned-one-site"])
def test_trimmed_grid_takes_one_solve_per_delay(grid_solves, lat, taus, kwargs):
    # The grid trimmed to six deviations of the density still holds it:
    # no delay widens its grid.
    mf = sf.MeanFieldParams(kappa=lat.d_bath, alpha=sf.alpha_from_lattice(lat))
    compare_meanfield(lat, taus, P, mf, **kwargs)
    assert [(tau, error) for tau, _, error in grid_solves] == [(tau, None) for tau in taus]


@pytest.mark.parametrize("lat", [ONE_SITE, TWO_SITE], ids=["one-site", "two-site"])
def test_grid_oracle_without_bath_raises(grid_solves, lat):
    # Without a bath the density has no stationary state to size its grid:
    # the comparison fails before any solve instead of returning a row.
    mf = sf.MeanFieldParams(kappa=0.02, alpha=sf.alpha_from_lattice(lat))
    with pytest.raises(sf.GridTooSmallError, match="no stationary width") as raised:
        compare_meanfield(replace(lat, d_bath=0.0), [0.17, 0.23], P, mf)
    assert (raised.value.tau, raised.value.t) == (0.23, 0.0)  # the middle delay sizes the grid
    assert grid_solves == []
