"""Trajectory ensemble: degenerate limits, diffusion law, grid agreement."""

import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import spinfringe as sf
from spinfringe import langevin
from spinfringe.config import parse_config
from spinfringe.fokker_planck import _weighted_moments
from spinfringe.langevin import evolve_trajectories, langevin_ensemble

P = sf.ModelParams()


def test_all_rates_zero_trajectories_frozen():
    lat = sf.Lattice(n=3, a=(0.5, 1.0, 0.5), gamma=(0.0, 0.0, 0.0),
                     d=(0.0, 0.0), f=(0.0, 0.0, 0.0), d_bath=0.0)
    reports = langevin_ensemble(lat, 0.3, 50.0, n_traj=200, seed=3, p=P,
                                n_outputs=5, init_mean=0.25)
    omega0 = 0.25 * sum(lat.a)
    for r in reports:
        assert r.mean_omega == omega0
        assert r.var_omega == 0.0


def test_free_diffusion_variance_growth():
    # F only: Var(Omega) = 2 t sum_j A_j^2 F_j, mean pinned near zero.
    lat = sf.Lattice(n=2, a=(1.3, 0.7), gamma=(0.0, 0.0), d=(0.0,),
                     f=(2e-3, 2e-3), d_bath=0.0)
    t_end = 200.0
    reports = langevin_ensemble(lat, 0.3, t_end, n_traj=8000, seed=11, p=P,
                                n_outputs=10)
    rate = 2.0 * sum(a * a * f for a, f in zip(lat.a, lat.f))
    last = reports[-1]
    assert abs(last.mean_omega) <= 3.0 * last.se_mean
    assert last.var_omega == pytest.approx(rate * t_end, rel=0.05)


def test_fixed_seed_reproducible():
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(3e-4,), d_bath=0.02)
    a = langevin_ensemble(lat, 0.2, 100.0, n_traj=300, seed=42, p=P, n_outputs=4)
    b = langevin_ensemble(lat, 0.2, 100.0, n_traj=300, seed=42, p=P, n_outputs=4)
    c = langevin_ensemble(lat, 0.2, 100.0, n_traj=300, seed=43, p=P, n_outputs=4)
    assert a == b
    assert any(x.mean_omega != y.mean_omega for x, y in zip(a, c))


def test_rejects_small_ensembles():
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.0,), d=(), f=(0.0,), d_bath=0.0)
    with pytest.raises(ValueError):
        langevin_ensemble(lat, 0.2, 10.0, n_traj=50, seed=1, p=P)


def test_frozen_count_mean_decays_exponentially():
    # beta0 = 0 freezes C to zero, so the trion terms drop out and the
    # mean decays through the bath alone, noise notwithstanding.
    flat = sf.ModelParams(beta0=0.0)
    d_bath = 0.03
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.05,), d=(), f=(5e-4,),
                     d_bath=d_bath)
    reports = langevin_ensemble(lat, 0.4, 60.0, n_traj=6000, seed=7, p=flat,
                                n_outputs=6, init_mean=0.6)
    for r in reports[1:]:
        expected = 0.6 * math.exp(-d_bath * r.t)
        assert abs(r.mean_omega - expected) <= 3.0 * r.se_mean


def test_matches_grid_solver_moment_series():
    # Single site, matched runs: ensemble moments inside 3 standard errors
    # of the grid solution across the whole series.
    kappa = 0.02
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(4e-4,),
                     d_bath=kappa)
    tau, t_end = 0.17, 6.0 / kappa
    std = math.sqrt((4e-4 + 0.01 * 0.3) / kappa)
    spec = sf.GridSpec(m_min=-9 * std, m_max=9 * std, n_cells=700,
                       init_mean=0.0, init_width=std / 2, cfl=0.8, n_outputs=20)
    _, grid_reports = sf.fp_grid_solve(lat, tau, t_end, spec, P)
    traj_reports = langevin_ensemble(lat, tau, t_end, n_traj=4000, seed=1234,
                                     p=P, n_outputs=20, init_width=std / 2,
                                     dt=0.25)
    for g, l in zip(grid_reports[1:], traj_reports[1:]):
        assert abs(l.mean_omega - g.mean_omega) <= 3.0 * l.se_mean
        assert abs(l.var_omega - g.var_omega) <= 3.0 * l.se_var


def test_hysteresis_loop_matches_meanfield():
    # Forward/backward tau continuation of the ensemble reproduces the
    # mean-field hysteresis loop area on a bistable window.
    rho, kappa = 0.5, 0.02
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(kappa / rho,), d=(), f=(1e-4,),
                     d_bath=kappa)
    mf = sf.MeanFieldParams(kappa=kappa, alpha=sf.alpha_from_lattice(lat))
    taus = np.linspace(2.09, 2.18, 5)
    rng = np.random.Generator(np.random.Philox(key=99))

    from spinfringe.langevin import evolve_trajectories

    def sweep(tau_seq, w0):
        # Continuation through the shared trajectory state.
        m = np.full((2000, 1), w0)
        means = []
        for t in tau_seq:
            m, reports = evolve_trajectories(lat, float(t), 300.0, m, rng, P,
                                             n_outputs=4)
            means.append(reports[-1].mean_omega)
        return np.array(means)

    lang_a = sweep(taus, -27.6)
    lang_b = sweep(taus[::-1], 25.6)[::-1]
    w = -27.6
    mf_a = []
    for t in taus:
        w = sf.relax_to_steady(w, float(t), P, mf).omega_f
        mf_a.append(w)
    w = 25.6
    mf_b = []
    for t in taus[::-1]:
        w = sf.relax_to_steady(w, float(t), P, mf).omega_f
        mf_b.append(w)
    mf_b = mf_b[::-1]

    lang_area = np.trapezoid(np.abs(lang_a - lang_b), taus)
    mf_area = np.trapezoid(np.abs(np.array(mf_a) - np.array(mf_b)), taus)
    assert mf_area > 0.5  # genuinely bistable window
    assert lang_area == pytest.approx(mf_area, rel=0.10)
    # Before the forward jump the ensemble stays in its root's basin, which
    # a step beyond Euler's stability range (slope * dt > 2) leaves.
    assert np.all(np.abs(lang_a[:4] - np.array(mf_a[:4])) < 0.5)


NO_BATH = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                     f=(5e-5, 5e-5), d_bath=0.0)


class _BlockSums:
    """Generator stand-in: each block is (z_1 + ... + z_k) / sqrt(k) of the
    next k blocks of ``rng``, the Brownian increment of k equal part steps."""

    def __init__(self, rng, k):
        self.rng, self.k = rng, k

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        for _ in range(self.k - 1):
            out += self.rng.standard_normal(out.shape)
        out /= math.sqrt(self.k)
        return out


def coupled_refinement(lat, tau, t_end, n_traj, seed, p, n_outputs, k=2):
    """Shifts of each report's mean and variance of Omega, in standard
    errors, when every auto step is taken as k equal parts along the same
    Brownian path, from a point state at 0.  The auto step must keep one
    value, so that its parts are a fixed step; it is returned too.

    The full-size check of the default 4-site oracle run:
    ``PYTHONPATH=src:tests python -c "import test_langevin as t;
    print(t.default_4_site_halving(10000, 40))"``.
    """
    steps = []
    real_floor = langevin._check_step_floor

    def spy(step, *args):
        steps.append(step)
        return real_floor(step, *args)

    m0 = np.zeros((n_traj, lat.n))
    langevin._check_step_floor = spy
    try:
        _, coarse = evolve_trajectories(
            lat, tau, t_end, m0, _BlockSums(np.random.Generator(np.random.Philox(key=seed)), k),
            p, n_outputs=n_outputs)
    finally:
        langevin._check_step_floor = real_floor
    assert len(set(steps)) == 1
    _, fine = evolve_trajectories(lat, tau, t_end, m0,
                                  np.random.Generator(np.random.Philox(key=seed)), p,
                                  dt=steps[0] / k, n_outputs=n_outputs)
    mean_shift = [abs(c.mean_omega - f.mean_omega) / f.se_mean
                  for c, f in zip(coarse[1:], fine[1:])]
    var_shift = [abs(c.var_omega - f.var_omega) / f.se_var
                 for c, f in zip(coarse[1:], fine[1:])]
    return np.array(mean_shift), np.array(var_shift), steps[0]


def default_4_site_halving(n_traj, n_outputs, t_end=None):
    """``coupled_refinement`` into halves on the default 4-site oracle run, seed 421."""
    cfg = parse_config("", ["lattice.n=4"])
    lat = cfg.lattice
    t_end = 10.0 / lat.d_bath if t_end is None else t_end
    return coupled_refinement(lat, cfg.oracle.tau, t_end, n_traj, 421, cfg.model, n_outputs)


def test_halving_the_auto_step_moves_no_mean_by_a_standard_error():
    # The default 4-site run over its first 1250 ns, where the ensemble
    # moves most: its auto step is the chain bound 0.01 / (2 d) = 5 ns.
    mean_shift, _, step = default_4_site_halving(10000, 5, t_end=1250.0)
    assert step == 5.0
    assert np.all(mean_shift < 1.0)


def test_a_tenth_of_the_auto_step_moves_no_mean_by_a_standard_error():
    # The benchmark's 4-site ensemble (t_end = 100, 20 outputs) at 2000
    # trajectories: its auto step, the chain bound of 5 ns, against fixed
    # 0.5 ns steps along the same Brownian path.
    cfg = parse_config("", ["lattice.n=4"])
    mean_shift, _, step = coupled_refinement(cfg.lattice, cfg.oracle.tau, 100.0, 2000, 421,
                                             cfg.model, 20, k=10)
    assert step == 5.0
    assert np.all(mean_shift < 1.0)


def test_the_auto_step_ignores_the_report_schedule():
    # The output times of 1, 4 and 20 reports over 100 ns all fall on
    # whole 5 ns steps of the default 4-site lattice, so the run takes the
    # same steps and draws the same normals however often it reports.
    cfg = parse_config("", ["lattice.n=4"])
    runs = []
    for n_outputs in (1, 4, 20):
        rng = np.random.Generator(np.random.Philox(key=421))
        state, reports = evolve_trajectories(cfg.lattice, 0.17, 100.0, np.zeros((1000, 4)),
                                             rng, cfg.model, n_outputs=n_outputs)
        assert reports[-1].t == 100.0
        runs.append((state, _generator_state(rng), reports[-1]))
    state, gen, last = runs[0]
    for other_state, other_gen, other_last in runs[1:]:
        assert np.array_equal(other_state, state)
        assert other_gen == gen
        assert other_last == last


class _CountingGenerator:
    """Generator stand-in that counts the blocks of normals drawn."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, 0

    def standard_normal(self, out):
        self.blocks += 1
        return self.rng.standard_normal(out=out)


@pytest.mark.parametrize("dt", [0.07, None], ids=["fixed-step", "auto-step"])
def test_one_curvature_call_per_state(monkeypatch, dt):
    # Every state gets one curvature call, shared by its report and the
    # step taken from it: steps + 1 calls.  Each report equals the moments
    # computed afresh on the state a run that ends there returns.
    calls = []
    real = langevin.count_rate_curvature

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    init = np.random.default_rng(6).normal(0.1, 0.4, (300, 3))
    monkeypatch.setattr(langevin, "count_rate_curvature", counted)
    rng = _CountingGenerator(np.random.Generator(np.random.Philox(key=11)))
    _, reports = evolve_trajectories(CHAIN3, 2.1, 20.0, init, rng, P, dt=dt, n_outputs=4)
    assert len(calls) == rng.blocks + 1 > 4 * langevin._RETAKE
    monkeypatch.setattr(langevin, "count_rate_curvature", real)
    for j, r in enumerate(reports):
        state = init
        if j:
            state, _ = evolve_trajectories(CHAIN3, 2.1, 5.0 * j, init,
                                           np.random.Generator(np.random.Philox(key=11)),
                                           P, dt=dt, n_outputs=j)
        # As trajectory rows, for the bits of Omega (the state is returned sites-major).
        fresh = _weighted_moments(5.0 * j, np.ones(300), np.ascontiguousarray(state), CHAIN3,
                                  2.1, P, ddof=1)
        assert replace(fresh, se_mean=r.se_mean, se_var=r.se_var) == r


def test_step_below_floor_raises_at_once():
    # t_end = 1e301 (the oracle's default with d_bath = 0) would stall the
    # Euler loop where t + step == t; the grid solver's floor applies.
    # The error carries the delay and the report time.
    with pytest.raises(sf.CflViolationError) as raised:
        evolve_trajectories(NO_BATH, 0.17, 1e301, np.zeros((100, 2)),
                            np.random.Generator(np.random.Philox(key=1)), P)
    assert (raised.value.tau, raised.value.t) == (0.17, 0.0)


@pytest.mark.parametrize("t_end, init, dt", [
    (1e301, 0.0, 1.0),      # a fixed step below the floor
    (100.0, np.nan, None),  # a non-finite state, under the auto step
    (100.0, np.nan, 0.1),   # and under a fixed one
    (100.0, np.inf, 0.1),
])
def test_fixed_or_nan_step_fails_before_the_first_step(t_end, init, dt):
    # A step below the floor fails with the delay and the time it was
    # taken at; a non-finite state is rejected by name.  Neither draws.
    rng = np.random.Generator(np.random.Philox(key=1))
    before = _generator_state(rng)
    expected = sf.CflViolationError if math.isfinite(init) else ValueError
    with pytest.raises(expected) as raised:
        evolve_trajectories(NO_BATH, 0.17, t_end, np.full((100, 2), init), rng, P, dt=dt)
    assert _generator_state(rng) == before
    if expected is ValueError:
        assert str(raised.value) == "non-finite entry in m"
    else:
        assert (raised.value.tau, raised.value.t) == (0.17, 0.0)


def _row_major_evolve(lat, tau, t_end, m, rng, p, dt, n_outputs):
    """Reference: the Euler-Maruyama loop on a trajectory-major (n_traj, n) state.

    ``dt`` is one fixed step, or the list of auto steps, each taken for
    the next ``langevin._RETAKE`` steps.
    """
    n = lat.n
    a, gamma, f_const = lat.a_array(), lat.gamma_array(), lat.f_array()
    bath = np.zeros(n)
    bath[0] = bath[-1] = lat.d_bath
    d_arr = np.asarray(lat.d, dtype=float)
    two_a_gamma, a2_gamma = 2.0 * gamma * a, gamma * a * a
    steps = iter(dt) if isinstance(dt, list) else itertools.repeat(dt)
    t, k = 0.0, 0
    for t_next in np.linspace(0.0, t_end, n_outputs + 1)[1:]:
        while t < t_next - 1e-12 * t_end:
            if k % langevin._RETAKE == 0:
                step_max = next(steps)
            step = min(step_max, t_next - t)
            cval, c1, c2 = sf.count_rate_curvature(m @ a, tau, p)
            drift = -(bath * m)
            flow = d_arr * (m[:, :-1] - m[:, 1:])
            drift[:, :-1] -= flow
            drift[:, 1:] += flow
            drift += two_a_gamma * c1[:, None] + a2_gamma * m * c2[:, None]
            g_noise = f_const + gamma * np.maximum(cval, 0.0)[:, None]
            m = m + step * drift \
                + np.sqrt(2.0 * g_noise * step) * rng.standard_normal(m.shape)
            t += step
            k += 1
    return m


def test_sites_major_loop_matches_row_major_stream():
    # Same Philox draws to the same trajectory and site, and the same
    # arithmetic: after 40 steps the state equals the trajectory-major
    # loop's bit for bit.
    lat = sf.Lattice.chain(n=3, a_peak=1.0, gamma_peak=0.05, d=0.02, f=3e-4,
                           d_bath=0.01)
    init = np.random.default_rng(5).normal(0.2, 0.5, (500, 3))
    kept = init.copy()
    state, reports = evolve_trajectories(lat, 0.9, 2.0, init,
                                         np.random.Generator(np.random.Philox(key=8)),
                                         P, dt=0.05, n_outputs=4)
    old = _row_major_evolve(lat, 0.9, 2.0, kept.copy(),
                            np.random.Generator(np.random.Philox(key=8)), P, 0.05, 4)
    assert np.array_equal(init, kept)  # the input is left as it was
    assert state.shape == (500, 3)
    assert np.array_equal(state, old)
    assert reports[-1].mean_omega == _weighted_moments(2.0, np.ones(500), old, lat, 0.9,
                                                       P, ddof=1).mean_omega


CHAIN3 = sf.Lattice.chain(n=3, a_peak=1.0, gamma_peak=0.05, d=0.02, f=3e-4, d_bath=0.01)


def _generator_state(rng):
    """The bit generator's whole state, with its arrays as lists."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("dt", [0.07, None], ids=["fixed-step", "auto-step"])
def test_reports_carry_plain_floats(dt):
    # Every interval ends on a shortened step, whose time comes from the
    # output times; the reports still carry plain floats, as the grid's do.
    _, reports = evolve_trajectories(CHAIN3, 0.9, 1.0, np.full((300, 3), 0.1),
                                     np.random.Generator(np.random.Philox(key=11)), P,
                                     dt=dt, n_outputs=3)
    for r in reports:
        assert {type(v) for v in astuple(r)} == {float}


@pytest.mark.parametrize("taus, t_end, dt, n_outputs", [
    ((0.9, 1.3), 2.0, 0.05, 4),  # state and generator carried across delays
    ((0.9,), 1.0, 0.07, 3),      # every interval ends on a shortened step
    ((0.9,), 0.4, 0.5, 4),       # one step per output interval
    ((0.9,), 0.0, 0.05, 2),      # no step at all
    ((0.9,), 1.0, 0.05, 0),      # no output interval: rejected before a draw
    ((2.1,), 20.0, None, 4),     # the auto step changes every _RETAKE steps
    ((0.9,), 1.0, 0.05, 1),      # the fewest output intervals, one
])
def test_generator_left_as_the_serial_loop_leaves_it(monkeypatch, taus, t_end, dt,
                                                     n_outputs):
    # One block of normals per step, drawn in stream order and none past
    # the last step: the states and the generator state after each call
    # equal the serial loop's, so a caller can go on drawing from it.  The
    # serial loop replays the auto steps, as the floor check sees them.
    steps = []
    real_floor = langevin._check_step_floor

    def spy(step, *args):
        steps.append(step)
        return real_floor(step, *args)

    monkeypatch.setattr(langevin, "_check_step_floor", spy)
    init = np.random.default_rng(6).normal(0.1, 0.4, (300, 3))
    rng = np.random.Generator(np.random.Philox(key=11))
    ref_rng = np.random.Generator(np.random.Philox(key=11))
    state = ref = init
    if n_outputs < 1:
        with pytest.raises(ValueError, match=f"n_outputs >= 1 required, got {n_outputs}"):
            evolve_trajectories(CHAIN3, taus[0], t_end, state, rng, P, dt=dt,
                                n_outputs=n_outputs)
        assert _generator_state(rng) == _generator_state(ref_rng)
        return
    for tau in taus:
        steps.clear()
        state, reports = evolve_trajectories(CHAIN3, tau, t_end, state, rng, P,
                                             dt=dt, n_outputs=n_outputs)
        ref = _row_major_evolve(CHAIN3, tau, t_end, ref, ref_rng, P,
                                dt if dt is not None else list(steps), n_outputs)
        assert np.array_equal(state, ref)
        assert _generator_state(rng) == _generator_state(ref_rng)
    if dt is None:
        assert len(set(steps)) > 1
        # A rerun from the same seed is bit-identical.
        again, again_reports = evolve_trajectories(
            CHAIN3, taus[0], t_end, init, np.random.Generator(np.random.Philox(key=11)),
            P, n_outputs=n_outputs)
        assert np.array_equal(again, state) and again_reports == reports


@pytest.mark.parametrize("fail_at", [1, 3])
def test_error_in_a_step_leaves_one_block_per_completed_step(monkeypatch, fail_at):
    calls = []
    real = langevin.count_rate_curvature
    boom = FloatingPointError("step failed")

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise boom
        return real(*args, **kwargs)

    monkeypatch.setattr(langevin, "count_rate_curvature", flaky)
    rng = np.random.Generator(np.random.Philox(key=4))
    with pytest.raises(FloatingPointError) as raised:
        evolve_trajectories(CHAIN3, 0.9, 2.0, np.zeros((200, 3)), rng, P,
                            dt=0.05, n_outputs=4)
    assert raised.value is boom
    # Steps 1 .. fail_at - 1 drew their blocks; the failed step drew none.
    ref = np.random.Generator(np.random.Philox(key=4))
    for _ in range(fail_at - 1):
        ref.standard_normal((200, 3))
    assert _generator_state(rng) == _generator_state(ref)


def test_step_floor_error_names_the_time_it_failed_at(monkeypatch):
    # C' turns NaN once the first auto step is set, so the steps it is
    # taken for leave a NaN state; the next auto step, _RETAKE steps on,
    # has no slope to go by, and the error names the time it was due.
    real = langevin.count_rate_curvature

    def poisoned(omega, tau, p, third=False):
        c, c1, *rest = real(omega, tau, p, third=third)
        return (c, np.full_like(c1, np.nan), *rest)

    steps = []
    real_floor = langevin._check_step_floor

    def spy(dt, t_end, tau, t=0.0):
        steps.append(dt)
        if len(steps) == 1:
            monkeypatch.setattr(langevin, "count_rate_curvature", poisoned)
        return real_floor(dt, t_end, tau, t)

    monkeypatch.setattr(langevin, "_check_step_floor", spy)
    rng = np.random.Generator(np.random.Philox(key=2))
    with pytest.raises(sf.CflViolationError) as raised:
        evolve_trajectories(CHAIN3, 0.9, 20.0, np.zeros((100, 3)), rng, P, n_outputs=4)
    # 0.25 ns steps (the chain bound 0.01 / (2 d)): the first ten end at t = 2.5.
    assert steps[0] == 0.25
    assert (raised.value.tau, raised.value.t) == (0.9, langevin._RETAKE * 0.25)


@pytest.mark.parametrize("value, arg", [
    *itertools.product([math.nan, math.inf, -math.inf], ["tau", "t_end"]),
    (-10.0, "t_end"),  # a negative span
])
def test_non_finite_delay_or_span_is_rejected_by_name(value, arg):
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.1,), d=(), f=(1e-4,), d_bath=1e-3)
    args = {"tau": 0.3, "t_end": 10.0, arg: value}
    kind = "non-finite" if not math.isfinite(value) else "negative"
    with pytest.raises(ValueError, match=f"{kind} {arg} {value!r}"):
        langevin_ensemble(lat, args["tau"], args["t_end"], n_traj=100, seed=1, p=P)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_outputs": 0}, "n_outputs >= 1 required, got 0"),
    ({"n_outputs": -3}, "n_outputs >= 1 required, got -3"),
    ({"init_width": math.nan}, "non-finite init_width nan"),
    ({"init_width": math.inf}, "non-finite init_width inf"),
    ({"init_width": -1.0}, "negative init_width -1.0"),
    ({"init_mean": math.nan}, "non-finite init_mean nan"),
    ({"init_mean": -math.inf}, "non-finite init_mean -inf"),
], ids=["no-outputs", "negative-outputs", "nan-width", "inf-width", "negative-width",
        "nan-mean", "inf-mean"])
def test_bad_ensemble_input_is_rejected_by_name(kwargs, message):
    lat = sf.Lattice(n=1, a=(1.0,), gamma=(0.1,), d=(), f=(1e-4,), d_bath=1e-3)
    with pytest.raises(ValueError, match=message):
        langevin_ensemble(lat, 0.3, 10.0, n_traj=100, seed=1, p=P, **kwargs)


def test_evolve_with_negative_outputs_is_rejected_before_a_draw():
    rng = np.random.Generator(np.random.Philox(key=1))
    fresh = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(ValueError, match="n_outputs >= 1 required, got -3"):
        evolve_trajectories(CHAIN3, 0.9, 20.0, np.zeros((100, 3)), rng, P, n_outputs=-3)
    assert _generator_state(rng) == _generator_state(fresh)


@pytest.mark.parametrize("shape", [(100, 2), (0, 3), (100,), (5, 3, 1)],
                         ids=["too-few-sites", "no-trajectories", "one-axis", "three-axes"])
def test_evolve_with_a_misshapen_state_is_rejected_before_a_draw(shape):
    rng = np.random.Generator(np.random.Philox(key=1))
    fresh = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(ValueError, match=r"m must have shape \(n_traj >= 1, 3\)"):
        evolve_trajectories(CHAIN3, 0.9, 20.0, np.zeros(shape), rng, P)
    assert _generator_state(rng) == _generator_state(fresh)
