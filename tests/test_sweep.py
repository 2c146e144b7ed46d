"""Sweep protocol: hysteresis memory, sawtooth signature, map and nullcline."""

import math

import numpy as np
import pytest

import spinfringe as sf
from spinfringe import meanfield
from spinfringe.meanfield import _root_table

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
        # Refinement stops at |drift| <= relax_tol*kappa*sigma, so the
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


def _ps2(ratio):
    """Mean-field params at a printed kappa/alpha ratio in ps2 units."""
    return sf.MeanFieldParams(kappa=1e-3, alpha=1e-3 / (ratio * 1e-6))


def _branch_ids_by_full_scan(tau_grid, mf):
    """Branch ids by the O(roots^2) scan nullcline used before its windowed
    search: every root takes the nearest untaken root of the previous delay
    within the motion bound, d == bound accepted, ties to the later index."""
    out = []
    next_branch = 0
    prev = []  # (omega_f, branch_id) at previous tau
    prev_tau = None
    for tau in np.asarray(tau_grid, dtype=float):
        tau = float(tau)
        jump = math.pi / tau if tau > 0.0 else math.inf
        if prev_tau is None or tau <= 0.0:
            thresh = jump
        else:
            motion = 2.0 * (P.omega0 + mf.omega_bracket) * abs(tau - prev_tau) / tau
            thresh = min(0.5 * jump, max(motion, sf.sweep._LINK_FLOOR))
        prev_tau = tau
        roots = sf.steady_states(tau, P, mf)
        ids = []
        taken = set()
        for r in roots:
            best = None
            best_d = thresh
            for k, (w_prev, bid) in enumerate(prev):
                if k in taken:
                    continue
                d = abs(r.omega_f - w_prev)
                if d <= best_d:
                    best, best_d = k, d
            if best is None:
                ids.append(next_branch)
                next_branch += 1
            else:
                taken.add(best)
                ids.append(prev[best][1])
        out.append(ids)
        prev = [(r.omega_f, bid) for r, bid in zip(roots, ids)]
    return out


@pytest.mark.parametrize("mf, taus, most", [
    (_ps2(1e2), np.arange(1.17, 1.22, 0.005), 59),
    (_ps2(1e6), np.arange(1.05, 1.15, 0.002), 3),
    (MF_REPRO, np.arange(0.090, 0.125, 0.0005), 3),
    (MF_REPRO, np.arange(0.80, 0.70, -0.004), None),
], ids=["1e2", "1e6", "fold-sliver", "descending"])
def test_nullcline_threading_matches_full_scan(mf, taus, most):
    # The windowed search keeps the threading rule of the full scan.
    points = sf.nullcline(taus, P, mf)
    assert [pt.branch_ids for pt in points] == _branch_ids_by_full_scan(taus, mf)
    if most is not None:
        assert max(len(pt.roots) for pt in points) == most


def test_nullcline_repeated_and_unsorted_delays_get_their_own_roots():
    # The pooled call finds each distinct delay once; each grid point,
    # repeated or out of order, still carries exactly its delay's roots.
    taus = [0.31, 0.30, 0.31, 0.302]
    points = sf.nullcline(taus, P, MF_REPRO)
    assert [pt.tau for pt in points] == taus
    for pt in points:
        assert pt.roots == sf.steady_states(pt.tau, P, MF_REPRO)
    assert [pt.branch_ids for pt in points] == _branch_ids_by_full_scan(taus, MF_REPRO)


def test_nullcline_threading_ties(monkeypatch):
    # With the motion bound at its floor of 0.1, the root at 0.1 is that
    # far from both previous roots: d == bound is accepted and the tie
    # goes to the later root.  0.1 - 0.0 and 0.2 - 0.1 are both the double
    # nearest 0.1, so the two distances tie exactly.
    mf = sf.MeanFieldParams(kappa=1e-3, alpha=0.1)
    at = {1.0: [0.0, 0.2], 1.000001: [0.1]}

    def fake_steady_states(taus, p, mf):
        return [sf.SteadyState(tau=t, omega_f=w, stable=True, residual=0.0, basin_seed=w)
                for t in taus.tolist() for w in at[t]]

    monkeypatch.setattr(sf.sweep, "steady_states", fake_steady_states)
    points = sf.nullcline(list(at), P, mf)
    assert [pt.branch_ids for pt in points] == [[0, 1], [1]]


def test_nullcline_empty_grid():
    assert sf.nullcline([], P, MF_REPRO) == []


@pytest.mark.parametrize("field", ["tau_start", "tau_end", "tau_step", "omega_init"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        sf.SweepSchedule(**{field: value})


def test_schedule_takes_an_int_past_the_float_range():
    # An int is finite; math.isfinite would raise OverflowError on it.
    assert sf.SweepSchedule(reset_omega_every=10 ** 400).reset_omega_every == 10 ** 400


def test_fringe_map_rejects_bad_grids():
    with pytest.raises(ValueError):
        sf.fringe_map(np.array([[0.0, 1.0]]), np.array([0.1, 0.2]), P)
    with pytest.raises(ValueError):
        sf.fringe_map(np.array([1.0, 0.5]), np.array([0.1, 0.2]), P)
    with pytest.raises(ValueError):
        sf.fringe_map(np.array([0.0, 1.0]), np.array([0.2, 0.2]), P)


def _relax_walk(sched, mf):
    """A sweep by one ``relax_to_steady`` call per sample, each with its own
    one-delay root table: the rows ``run_sweep`` must give."""
    grid = sched.grid().tolist()
    order = []
    if sched.direction in ("forward", "round-trip"):
        order += [(tau, "fwd") for tau in grid]
    if sched.direction in ("backward", "round-trip"):
        order += [(tau, "bwd") for tau in grid[::-1]]
    rows, omega = [], sched.omega_init
    for k, (tau, direction) in enumerate(order):
        if k == 0 or (sched.reset_omega_every and k % sched.reset_omega_every == 0):
            omega = sched.omega_init
        ss = sf.relax_to_steady(omega, tau, P, mf)
        jumped = k > 0 and abs(ss.omega_f - omega) > (math.pi / tau if tau > 0 else math.inf)
        rows.append(sf.TraceSample(tau=tau, omega_f=ss.omega_f,
                                   count=sf.count_rate(ss.omega_f, tau, P),
                                   beta_f=sf.pump_rate(ss.omega_f, P), stable=ss.stable,
                                   jumped=jumped, direction=direction))
        omega = ss.omega_f
    return rows


DECADE_TRIP = sf.SweepSchedule(tau_start=0.05, tau_end=1.5, tau_step=0.01)


@pytest.mark.parametrize("ratio, sched", [
    (1e2, DECADE_TRIP),
    (1e6, DECADE_TRIP),
    (1e4, sf.SweepSchedule(tau_start=0.05, tau_end=0.6, tau_step=0.01, omega_init=-3.0,
                           reset_omega_every=17)),
    (1e3, sf.SweepSchedule(tau_start=0.3, tau_end=0.9, tau_step=0.01, direction="backward")),
], ids=["1e2", "1e6", "1e4-resets", "1e3-backward"])
def test_sweep_equals_a_relax_to_steady_walk(ratio, sched):
    assert run(sched, _ps2(ratio)) == _relax_walk(sched, _ps2(ratio))


@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6])
def test_sweep_makes_no_drift_call_per_sample(monkeypatch, ratio):
    # A 146-delay round trip (292 samples): one array drift call per scan
    # block, one per refinement step, and one per ``_POINT_BLOCK`` seeds
    # of the walk; a scalar call only for omega_init and a seed the
    # previous delay kept (the repeated delay at the turn of the trip).
    calls = {"blocks": 0, "scan": 0, "refine": 0, "walk": 0, "scalar": 0}
    stage = ["scan"]
    drift, scan_grids = meanfield.drift, meanfield._scan_grids

    def counting(w, *args):
        calls["scalar" if np.ndim(w) == 0 else stage[0]] += 1
        return drift(w, *args)

    def scan(*args):
        calls["blocks"] += 1
        return scan_grids(*args)

    def staged(name, fn):
        def call(*args):
            outer, stage[0] = stage[0], name
            try:
                return fn(*args)
            finally:
                stage[0] = outer
        return call

    monkeypatch.setattr(meanfield, "drift", counting)
    monkeypatch.setattr(meanfield, "_scan_grids", scan)
    monkeypatch.setattr(meanfield, "_root_table", staged("scan", meanfield._root_table))
    monkeypatch.setattr(meanfield, "_bisect_brackets",
                        staged("refine", meanfield._bisect_brackets))
    # The walk is the rest of ``relax_to_steady``: the seeds' array calls.
    monkeypatch.setattr(sf.sweep, "relax_to_steady",
                        staged("walk", meanfield.relax_to_steady))
    table = _root_table(DECADE_TRIP.grid(), P, _ps2(ratio))
    seeds = 2 * sum(roots[0].size for roots in table)
    for key in calls:
        calls[key] = 0
    assert len(run(DECADE_TRIP, _ps2(ratio))) == 292
    assert calls["scan"] == calls["blocks"]
    assert calls["refine"] <= 40
    assert calls["walk"] == -(-seeds // meanfield._POINT_BLOCK)
    assert calls["scalar"] <= 4


# omega_f of every row of two short round trips, recorded when each root
# began to end by safeguarded Anderson-Bjorck steps on the bracket end
# with the smaller |drift|, and re-recorded when the fringe kernel took
# its angles from one tangent (no row moved by more than 1.5e-14); the
# values must hold bit for bit.  Every row lies within
# relax_tol*kappa*sigma/|g'| of its float-resolution root, as the
# bisected values it replaced did.  At 1e2 the forward pass
# meets the narrow root pair near tau = 0.73 (see
# test_relax_stops_at_first_root_in_its_path); at 1e6 the backward pass
# crosses tau = 1.09, where the scan misses a root pair.
SWEEP_PINS = [
    (1e2, sf.SweepSchedule(tau_start=0.70, tau_end=0.76, tau_step=0.01, omega_init=-38.86),
     [-38.84908807565421, -38.82204087685085, -38.760175820851245, -37.07435564086084,
      -36.35378894613851, -36.711511475290315, -37.05443466351432, -37.05443466351432,
      -36.711511475290315, -36.35378894613851, -35.98164934102091, -35.595156662720065,
      -35.19415429641117, -34.778322246905816]),
    (1e6, sf.SweepSchedule(tau_start=1.05, tau_end=1.12, tau_step=0.01),
     [0.0, -0.22826093978793413, -0.455189390409379, -0.6806901274345044, -0.9039408050236226,
      -1.1165478004113376, -1.2411645013099941, 0.6795926318628944, 0.6795926318628944,
      0.9059973284934655, 1.1165478004113385, -0.9039408050236226, -0.6806901274345044,
      -0.455189390409379, -0.22826093978793413, 2.243577814350375e-15]),
]


@pytest.mark.parametrize("ratio, sched, want", SWEEP_PINS, ids=["1e2", "1e6"])
def test_sweep_rows_pinned(ratio, sched, want):
    mf = sf.MeanFieldParams(kappa=1e-3, alpha=1e-3 / (ratio * 1e-6))
    assert [s.omega_f for s in run(sched, mf)] == want


# (tau, omega_f, stable, residual, branch) of every row of two short
# nullclines, recorded when the roots began to end by safeguarded
# Anderson-Bjorck steps, and re-recorded when the fringe kernel took its
# angles from one tangent; the values must hold bit for bit.  Against
# the values they replaced, no delay, root count, stable flag or branch
# moved.  At 1e2 two branches end at tau = 0.064 and two new ones
# open at 0.068; at 1e6 a fold opens branches 1 and 2 at tau = 1.10 and
# only branch 2 survives to 1.12.
NULLCLINE_PINS = [
    (1e2, 0.062 + 0.002 * np.arange(4), [
        (0.062, -38.878896837795146, True, 1.0723060703266007e-09, 0),
        (0.062, -18.64858181604611, False, 5.1387571281535926e-11, 1),
        (0.062, -2.8535548124623547, True, 3.31664687033828e-12, 2),
        (0.062, 19.230061789362033, False, 8.532178217418585e-09, 3),
        (0.062, 36.16155700552549, True, 6.700651283830794e-10, 4),
        (0.062, 37.760690486030136, False, 3.831644640461818e-09, 5),
        (0.062, 38.97053345733748, True, 6.216138714876251e-11, 6),
        (0.064, -38.87989914173366, True, 1.050904127608554e-09, 0),
        (0.064, -18.683670435518138, False, 3.858355301922245e-11, 1),
        (0.064, -3.3140001822426175, True, 1.8489003730803866e-12, 2),
        (0.064, 19.059227848223944, False, 1.007637119576632e-09, 3),
        (0.064, 36.082958791939916, True, 6.2319420457424e-11, 4),
        (0.066, -38.88080508964367, True, 1.0316101861640448e-09, 0),
        (0.066, -18.734862919639887, False, 1.790526060752029e-11, 1),
        (0.066, -3.765686869374001, True, 5.546778314435841e-16, 2),
        (0.066, 18.743791585590525, False, 1.5502611902529218e-09, 3),
        (0.066, 33.46146234358601, True, 3.490263633665336e-15, 4),
        (0.068, -38.88162560350219, True, 1.0141792891604773e-09, 0),
        (0.068, -18.801575130946624, False, 1.912449365537583e-12, 1),
        (0.068, -4.209333449755902, True, 2.6931770182037074e-11, 2),
        (0.068, 18.297227168200532, False, 1.3810794799451465e-09, 3),
        (0.068, 31.080632925359684, True, 2.634430867898274e-12, 4),
        (0.068, 35.583933076702436, False, 1.9339779777638455e-09, 7),
        (0.068, 38.653565626927026, True, 7.14836523307838e-12, 8)]),
    (1e6, 1.05 + 0.01 * np.arange(8), [
        (1.05, 2.243577814350375e-15, True, 4.038971854862546e-18, 0),
        (1.06, -0.22826093978793413, True, 5.955748210605865e-09, 0),
        (1.07, -0.455189390409379, True, 1.2328008294109141e-09, 0),
        (1.08, -0.6806901274345044, True, 6.175727719688086e-09, 0),
        (1.09, -0.9039408050236226, True, 1.476951070125687e-11, 0),
        (1.1, -1.1165478004113376, True, 2.8990965661099266e-11, 0),
        (1.1, -7.1045266474713996e-15, False, 7.973327321546498e-18, 1),
        (1.1, 1.1165478004113385, True, 2.8990969997907956e-11, 2),
        (1.11, -1.2411645013099941, True, 1.3346010386237894e-10, 0),
        (1.11, -0.8887936473742728, False, 2.243852480882623e-09, 1),
        (1.11, 0.9059973284934655, True, 9.033616953438295e-12, 2),
        (1.12, 0.6795926318628944, True, 4.081262039911868e-09, 2)]),
]


@pytest.mark.parametrize("ratio, taus, want", NULLCLINE_PINS, ids=["1e2", "1e6"])
def test_nullcline_rows_pinned(ratio, taus, want):
    rows = [(pt.tau, r.omega_f, r.stable, r.residual, branch)
            for pt in sf.nullcline(taus, P, _ps2(ratio))
            for r, branch in zip(pt.roots, pt.branch_ids)]
    assert rows == want
