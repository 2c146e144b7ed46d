"""Sweep protocol: hysteresis memory, sawtooth signature, map and nullcline."""

import math

import numpy as np
import pytest

import spinfringe as sf

P = sf.ModelParams()

# Reproduction point: bare ratio 1e4 under the ps-based unit convention
# maps to kappa/alpha = 1e-2 ns^2/rad^2; see config.RATIO_UNIT_FACTORS.
MF_REPRO = sf.MeanFieldParams(kappa=1e-3, alpha=1e-3 / 1e-2)


def run(schedule, mf=MF_REPRO):
    return sf.run_sweep(schedule, P, mf)


def split_passes(samples):
    fwd = [s for s in samples if s.direction == "fwd"]
    bwd = [s for s in samples if s.direction == "bwd"]
    return fwd, list(reversed(bwd))


def test_alpha_zero_sweep_is_bare_fringe():
    mf = sf.MeanFieldParams(kappa=1e-3, alpha=0.0)
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=0.4, tau_step=0.01,
                             direction="forward")
    samples = run(sched, mf)
    for s in samples:
        assert abs(s.omega_f) < 1e-9
        assert s.count == pytest.approx(sf.count_rate(0.0, s.tau, P), abs=1e-9)
        assert not s.jumped


def test_sample_fields_are_consistent():
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=0.3, tau_step=0.005,
                             direction="round-trip")
    for s in run(sched):
        assert s.count == sf.count_rate(s.omega_f, s.tau, P)
        assert s.beta_f == sf.pump_rate(s.omega_f, P)


def test_rerun_is_bit_reproducible():
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=0.5, tau_step=0.005)
    a = run(sched)
    b = run(sched)
    assert a == b


def test_pre_transition_no_hysteresis_and_unique_root():
    # Below the first fold (tau < 0.096 at this ratio) the root is unique;
    # the passes agree and a memoryless relaxation from zero gives the
    # same branch.  A tight residual tolerance pins the root position to
    # well below the 1e-6 count tolerance.
    mf = sf.MeanFieldParams(kappa=MF_REPRO.kappa, alpha=MF_REPRO.alpha,
                            relax_tol=1e-9)
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=0.095, tau_step=0.002)
    fwd, bwd = split_passes(run(sched, mf))
    for sf_, sb in zip(fwd, bwd):
        assert len(sf.steady_states(sf_.tau, P, mf)) == 1
        assert sb.omega_f == pytest.approx(sf_.omega_f, abs=1e-6)
        assert sb.count == pytest.approx(sf_.count, abs=1e-6)
        fresh = sf.relax_to_steady(0.0, sf_.tau, P, mf)
        assert fresh.omega_f == pytest.approx(sf_.omega_f, abs=1e-5)
        assert fresh.stable
        assert abs(sf.count_rate(fresh.omega_f, sf_.tau, P) - sf_.count) <= 1e-6
        assert not sf_.jumped and not sb.jumped


def test_post_transition_jumps_and_loop_area():
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=1.5, tau_step=0.004)
    fwd, bwd = split_passes(run(sched))
    taus = np.array([s.tau for s in fwd])
    cf = np.array([s.count for s in fwd])
    cb = np.array([s.count for s in bwd])
    late = taus > 0.5
    assert any(s.jumped for s in fwd if s.tau > 0.5)
    assert any(s.jumped for s in bwd)
    area = np.trapezoid(np.abs(cf - cb), taus)
    assert area > 0.05
    # No hysteresis at the start of the scan (unique-root window).
    early = taus <= 0.095
    assert np.max(np.abs(cf[early] - cb[early])) < 1e-5


def test_sawtooth_count_monotone_between_jumps():
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=1.5, tau_step=0.004,
                             direction="forward")
    fwd = run(sched)
    jumps = [i for i, s in enumerate(fwd) if s.jumped]
    assert jumps, "expected branch jumps at large tau"
    bounds = [0] + jumps + [len(fwd)]
    checked = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = fwd[a:b]
        if len(seg) < 6:
            continue
        for prev, cur in zip(seg[:-1], seg[1:]):
            if abs(cur.omega_f) > abs(prev.omega_f):
                assert cur.count <= prev.count + 1e-9
                checked += 1
    assert checked > 100


def test_beta_dips_before_jumps_and_recovers():
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=1.5, tau_step=0.004,
                             direction="forward")
    fwd = run(sched)
    beta = [s.beta_f for s in fwd]
    jumps = [i for i, s in enumerate(fwd) if s.jumped]
    assert jumps
    prev_jump = 0
    for i in jumps:
        segment_min = min(beta[prev_jump:i])
        assert beta[i - 1] <= 1.05 * segment_min
        assert beta[i] > 2.0 * beta[i - 1]
        prev_jump = i


def test_sweep_roots_lie_on_nullcline():
    # Full round trip so the backward pass carries large-tau memory into
    # the multistable region; every visited point must be exactly one of
    # the enumerated roots, or its seed kept within the residual
    # tolerance, and somewhere the two passes must sit on different branches.
    sched = sf.SweepSchedule(tau_start=0.05, tau_end=1.5, tau_step=0.004)
    samples = run(sched)
    tol = MF_REPRO.relax_tol * MF_REPRO.kappa * P.sigma
    roots = {float(t): {r.omega_f for r in sf.steady_states(float(t), P, MF_REPRO)}
             for t in sched.grid()[::8]}
    seeds = [sched.omega_init] + [s.omega_f for s in samples[:-1]]
    checked = 0
    for s, seed in zip(samples, seeds):
        if s.tau in roots:
            kept = s.omega_f == seed and abs(sf.drift(seed, s.tau, P, MF_REPRO)) <= tol
            assert s.omega_f in roots[s.tau] or kept, (s.tau, s.direction)
            checked += 1
    assert checked == 2 * len(roots)
    fwd, bwd = split_passes(samples)
    hysteretic = 0
    for sf_, sb in zip(fwd[::8], bwd[::8]):
        if abs(sf_.omega_f - sb.omega_f) > math.pi / sf_.tau:
            hysteretic += 1
    assert hysteretic > 0  # the two passes ride different branches somewhere


def test_reset_omega_every_reseeds_memory():
    sched = sf.SweepSchedule(tau_start=0.6, tau_end=0.8, tau_step=0.01,
                             direction="forward", reset_omega_every=5)
    with_reset = run(sched)
    plain = run(sf.SweepSchedule(tau_start=0.6, tau_end=0.8, tau_step=0.01,
                                 direction="forward"))
    assert any(abs(a.omega_f - b.omega_f) > 1e-6
               for a, b in zip(with_reset, plain))


def test_fringe_map_matches_pointwise_and_row_periodicity():
    omega = np.linspace(-20.0, 20.0, 41)
    tau = np.linspace(0.05, 1.5, 200)
    grid = sf.fringe_map(omega, tau, P)
    assert grid.shape == (41, 200)
    i, j = 13, 77
    assert grid[i, j] == sf.count_rate(omega[i], tau[j], P)
    # Row at omega = 0 repeats with the bare Larmor period.
    period = 2 * math.pi / P.omega0
    taus = np.array([0.07, 0.19, 0.44])
    row = sf.count_rate(0.0, taus, P)
    row_shift = sf.count_rate(0.0, taus + period, P)
    assert np.allclose(row, row_shift, atol=1e-10)


def test_fringe_map_column_envelope():
    # Max over tau of each column approaches 2 s_p (1-q)/(1+q) from below.
    omega = np.linspace(-30.0, 30.0, 61)
    tau = np.arange(0.05, 1.5, 0.0012)
    grid = sf.fringe_map(omega, tau, P)
    col_max = grid.max(axis=1)
    q = np.exp(-sf.pump_rate(omega, P) * P.T)
    envelope = 2 * P.s_p * (1 - q) / (1 + q)
    assert np.all(col_max <= envelope + 1e-12)
    assert np.all(col_max >= envelope * 0.99)


def test_nullcline_alpha_zero_single_branch():
    mf = sf.MeanFieldParams(kappa=1e-3, alpha=0.0)
    points = sf.nullcline(np.arange(0.1, 0.5, 0.05), P, mf)
    for pt in points:
        assert len(pt.roots) == 1
        assert pt.branch_ids == [0]
        # Bisection stops at |drift| <= relax_tol*kappa*sigma, so the
        # root of -kappa*omega is pinned to relax_tol*sigma.
        assert abs(pt.roots[0].omega_f) <= 1.5 * mf.relax_tol * P.sigma


def test_nullcline_fold_changes_roots_in_stable_unstable_pairs():
    # Across the multistable sliver near tau = 0.1 the root count goes
    # 1 -> 3 -> 1; the appearing and disappearing roots form an adjacent
    # pair of opposite stability (fold births and annihilations), and
    # the count stays odd throughout.
    taus = np.arange(0.090, 0.125, 0.0005)
    prev = None
    folds = 0
    motion_bound = 1.0  # max root motion per 0.5 ps step in this window
    for tau in taus:
        roots = sf.steady_states(float(tau), P, MF_REPRO)
        assert len(roots) % 2 == 1
        if prev is not None and len(roots) != len(prev):
            longer, shorter = (roots, prev) if len(roots) > len(prev) else (prev, roots)
            unmatched = [k for k, r in enumerate(longer)
                         if all(abs(r.omega_f - o.omega_f) > motion_bound
                                for o in shorter)]
            assert len(unmatched) == 2
            k0, k1 = unmatched
            assert k1 == k0 + 1
            assert longer[k0].stable != longer[k1].stable
            folds += 1
        prev = roots
    assert folds == 2


def test_fringe_map_rejects_bad_grids():
    with pytest.raises(ValueError):
        sf.fringe_map(np.array([[0.0, 1.0]]), np.array([0.1, 0.2]), P)
    with pytest.raises(ValueError):
        sf.fringe_map(np.array([1.0, 0.5]), np.array([0.1, 0.2]), P)
    with pytest.raises(ValueError):
        sf.fringe_map(np.array([0.0, 1.0]), np.array([0.2, 0.2]), P)


# omega_f of every row of two short round trips, recorded before sweeps
# became lookups in a pooled root table; the values must hold bit for bit.
# At 1e2 the forward pass meets the narrow root pair near tau = 0.73 (see
# test_relax_stops_at_first_root_in_its_path); at 1e6 the backward pass
# crosses tau = 1.09, where the scan misses a root pair.
SWEEP_PINS = [
    (1e2, sf.SweepSchedule(tau_start=0.70, tau_end=0.76, tau_step=0.01, omega_init=-38.86),
     [-38.84908762773733, -38.82204140768454, -38.760176875947884, -37.07435564086207,
      -36.35378894152058, -36.711511442861095, -37.0544346811963, -37.0544346811963,
      -36.711511442861095, -36.35378894152058, -35.981649304250226, -35.59515670073945,
      -35.194154295296556, -34.77832224823331]),
    (1e6, sf.SweepSchedule(tau_start=1.05, tau_end=1.12, tau_step=0.01),
     [0.0, -0.22826624784194954, -0.4551899183573119, -0.6806901304647658,
      -0.9039351214595003, -1.1165462659822754, -1.241153428901005, 0.6795953086951865,
      0.6795953086951865, 0.9059935831982111, 1.116546265982247, -0.9039351214595003,
      -0.6806901304647658, -0.4551899183573119, -0.22826624784194954,
      2.278189281833677e-06]),
]


@pytest.mark.parametrize("ratio, sched, want", SWEEP_PINS, ids=["1e2", "1e6"])
def test_sweep_rows_pinned(ratio, sched, want):
    mf = sf.MeanFieldParams(kappa=1e-3, alpha=1e-3 / (ratio * 1e-6))
    assert [s.omega_f for s in run(sched, mf)] == want
