"""Pulse-period physics: count rate, pulse-map oracle, golden-rule rate."""

import math

import numpy as np
import pytest

import spinfringe as sf
from spinfringe.fringe import _fringe_terms

P = sf.ModelParams()


def test_pump_rate_peak_and_width():
    assert sf.pump_rate(0.0, P) == pytest.approx(3.0 / 26.0, rel=1e-15)
    assert sf.pump_rate(P.sigma, P) == pytest.approx(
        (3.0 / 26.0) * math.exp(-0.5), rel=1e-14)


def test_pump_rate_even_and_monotone():
    omegas = np.linspace(0.0, 5 * P.sigma, 400)
    beta = sf.pump_rate(omegas, P)
    assert np.array_equal(beta, sf.pump_rate(-omegas, P))
    assert np.all(np.diff(beta) <= 0)


def test_count_rate_zero_at_fringe_center():
    # cos((omega0 + omega) tau) = 1 kills the numerator; exact at tau = 0,
    # within rounding of the trig argument at a whole fringe period.
    assert sf.count_rate(3.3, 0.0, P) == 0.0
    tau = 2.0 * math.pi / P.omega0
    assert abs(sf.count_rate(0.0, tau, P)) < 1e-30


def test_count_rate_saturation_limit():
    # Strong pumping with cos = -1 gives the full swing 2 s_p.
    strong = sf.ModelParams(beta0=1e6)
    tau = math.pi / strong.omega0
    assert sf.count_rate(0.0, tau, strong) == pytest.approx(2 * strong.s_p, rel=1e-12)


def test_count_rate_half_period_value():
    # (omega0 + omega) tau = pi and beta T = 3: value derived by direct
    # evaluation, s_p (1 - e^-3) 2 / (1 + e^-3) = tanh(3/2).
    tau = math.pi / P.omega0
    expected = math.tanh(1.5)
    assert sf.count_rate(0.0, tau, P) == pytest.approx(expected, abs=1e-15)
    _, count = sf.pulse_map_fixed_point(0.0, tau, P)
    assert count == pytest.approx(expected, abs=1e-12)


def test_count_rate_zero_over_zero_point():
    # Underflowed pumping and a fringe center: 0/0 resolves to 0.
    tau = 2.0 * math.pi / P.omega0
    far = sf.ModelParams(beta0=0.0)
    assert sf.count_rate(0.0, tau, far) == 0.0
    state, count = sf.pulse_map_fixed_point(0.0, tau, far)
    assert count == 0.0
    assert state.s_f == 0.0


def test_count_rate_bounds_random():
    rng = np.random.default_rng(5)
    omega = rng.uniform(-8 * P.sigma, 8 * P.sigma, size=3000)
    tau = rng.uniform(0.0, 3.0, size=3000)
    c = sf.count_rate(omega, tau, P)
    assert np.all(c >= 0.0)
    assert np.all(c <= 2 * P.s_p + 1e-15)


def test_count_rate_periodic_in_tau():
    rng = np.random.default_rng(6)
    for _ in range(50):
        omega = rng.uniform(-2 * P.sigma, 2 * P.sigma)
        tau = rng.uniform(0.05, 1.0)
        period = 2.0 * math.pi / (P.omega0 + omega)
        a = sf.count_rate(omega, tau, P)
        b = sf.count_rate(omega, tau + 3 * period, P)
        assert b == pytest.approx(a, abs=1e-10)


def test_count_rate_larmor_shift_invariance_at_flat_pumping():
    # With a flat pumping profile only omega0 + omega enters, so shifting
    # omega0 by delta and omega by -delta is exact.  With the Gaussian
    # profile the invariance breaks because beta sees omega alone.
    flat = sf.ModelParams(sigma=1e30)
    shifted = sf.ModelParams(omega0=flat.omega0 + 3.7, sigma=1e30)
    rng = np.random.default_rng(7)
    for _ in range(25):
        omega = rng.uniform(-20, 20)
        tau = rng.uniform(0.0, 1.5)
        assert sf.count_rate(omega, tau, flat) == pytest.approx(
            sf.count_rate(omega - 3.7, tau, shifted), rel=1e-12, abs=1e-15)
    assert sf.count_rate(5.0, 0.33, P) != pytest.approx(
        sf.count_rate(5.0 - 3.7, 0.33, sf.ModelParams(omega0=P.omega0 + 3.7)),
        rel=1e-6)


def test_pulse_map_matches_count_rate_on_grid():
    omega = np.linspace(-4 * P.sigma, 4 * P.sigma, 100)[:, None]
    tau = np.linspace(0.0, 1.5, 100)[None, :]
    direct = sf.count_rate(omega, tau, P)
    iterated = sf.pulse_map_count(omega, tau, P)
    assert np.max(np.abs(direct - iterated)) <= 1e-12


def test_pulse_map_perfect_repumping():
    # beta T -> infinity repumps to s_p each period: count = s_p (1 - cos).
    strong = sf.ModelParams(beta0=1e9)
    for tau in (0.037, 0.21, 0.78):
        state, count = sf.pulse_map_fixed_point(0.0, tau, strong)
        theta = strong.omega0 * tau
        assert state.s_f == pytest.approx(strong.s_p, rel=1e-12)
        assert count == pytest.approx(strong.s_p * (1 - math.cos(theta)), abs=1e-9)


def test_pulse_map_state_invariants():
    rng = np.random.default_rng(8)
    for _ in range(200):
        omega = rng.uniform(-6 * P.sigma, 6 * P.sigma)
        tau = rng.uniform(0.0, 2.0)
        state, count = sf.pulse_map_fixed_point(omega, tau, P)
        assert abs(state.s_f) <= P.s_p + 1e-12
        assert abs(state.s_i) <= abs(state.s_f) + 1e-15
        assert count == pytest.approx(state.s_f - state.s_i, abs=1e-15)


def test_trion_flip_rate_matches_expected_scale():
    h = sf.HoleNuclearParams()  # B0 = 4 T, gamma/2pi = 0.1 GHz, documented defaults
    rate = sf.trion_flip_rate(h)
    target = 5e-8  # 1/(20 ms) in 1/ns
    assert target / 10 < rate < target * 10


def test_trion_flip_rate_scalings_exact():
    h = sf.HoleNuclearParams()
    base = sf.trion_flip_rate(h)
    assert sf.trion_flip_rate(sf.HoleNuclearParams(b0=2 * h.b0)) == pytest.approx(
        base / 4, rel=1e-14)
    assert sf.trion_flip_rate(
        sf.HoleNuclearParams(gamma_rad=2 * h.gamma_rad)) == pytest.approx(
        2 * base, rel=1e-14)
    assert sf.trion_flip_rate(
        sf.HoleNuclearParams(inv_r3_avg=3 * h.inv_r3_avg)) == pytest.approx(
        9 * base, rel=1e-14)


def test_alpha_single_and_sign_blind():
    lat = sf.Lattice(n=1, a=(2.5,), gamma=(0.3,), d=(), f=(0.0,), d_bath=0.0)
    assert sf.alpha_from_lattice(lat) == pytest.approx(0.3 * 2.5 ** 2, rel=1e-15)
    lat2 = sf.Lattice(n=2, a=(1.7, -1.7), gamma=(0.3, 0.3), d=(0.0,),
                      f=(0.0, 0.0), d_bath=0.0)
    assert sf.alpha_from_lattice(lat2) == pytest.approx(2 * 0.3 * 1.7 ** 2, rel=1e-15)


def test_alpha_matches_bruteforce_sum():
    rng = np.random.default_rng(9)
    n = 50
    a = rng.normal(size=n)
    gamma = rng.uniform(0.0, 1.0, size=n)
    lat = sf.Lattice(n=n, a=tuple(a), gamma=tuple(gamma),
                     d=tuple(0.0 for _ in range(n - 1)),
                     f=tuple(0.0 for _ in range(n)), d_bath=0.0)
    brute = math.fsum(g * x * x for g, x in zip(gamma, a))
    assert sf.alpha_from_lattice(lat) == pytest.approx(brute, rel=1e-14)


def test_nan_inputs_propagate_through_fringe_kernels():
    # Only the removable 0/0 point maps to 0; NaN must not be swallowed.
    assert math.isnan(sf.count_rate(math.nan, 0.3, P))
    assert math.isnan(sf.count_rate(0.2, math.nan, P))
    assert all(math.isnan(v) for v in sf.count_rate_curvature(math.nan, 0.3, P, third=True))
    out = sf.count_rate(np.array([math.nan, 0.0]), 2.0 * math.pi / P.omega0,
                        sf.ModelParams(beta0=0.0))
    assert math.isnan(out[0]) and out[1] == 0.0


def test_curvature_value_is_count_rate_bit_for_bit():
    # Both take C from the same shared terms, including the removable 0/0
    # point (tau = 0 with pumping underflowed at omega = 1e3) and NaN; and
    # asking for C''' leaves C, C' and C'' as they are.
    omega = np.concatenate([np.linspace(-8 * P.sigma, 8 * P.sigma, 401),
                            [0.0, 1e3, math.nan]])
    tau = np.array([0.0, 0.17, 2.0 * math.pi / P.omega0, 1.3, math.nan])[:, None]
    for p in (P, sf.ModelParams(beta0=0.0)):
        assert np.array_equal(sf.count_rate_curvature(omega, tau, p)[0],
                              sf.count_rate(omega, tau, p), equal_nan=True)
        with_third = sf.count_rate_curvature(omega, tau, p, third=True)
        assert len(with_third) == 4
        for a, b in zip(sf.count_rate_curvature(omega, tau, p), with_third):
            assert np.array_equal(a, b, equal_nan=True)
        for w, t in ((0.0, 0.0), (1e3, 0.0), (0.3, 0.17), (math.nan, 0.17)):
            assert np.array_equal(sf.count_rate_curvature(w, t, p)[0],
                                  sf.count_rate(w, t, p), equal_nan=True)


def test_unmasked_kernels_match_masked_form():
    # The masks run only when some denominator is zero.  An array holding
    # the removable 0/0 point takes the masked form at every point; the
    # same points without it, and each point as scalars, take the unmasked
    # form.  Values, NaNs and return types must agree exactly.
    omega = np.array([1e3, math.nan, 0.3, -1.7, 5.0, 0.0, 40.0, -0.02])
    tau = np.array([0.0, 0.17, 0.17, 1.3, 0.5, 2.0 * math.pi / P.omega0, 0.9, 0.0])
    d_den = _fringe_terms(omega, tau, P)[-1]
    assert d_den[0] == 0.0 and np.all(d_den[1:] != 0.0)
    masked = (*sf.count_rate_curvature(omega, tau, P, third=True),
              sf.count_rate(omega, tau, P))
    plain = (*sf.count_rate_curvature(omega[1:], tau[1:], P, third=True),
             sf.count_rate(omega[1:], tau[1:], P))
    for m, u in zip(masked, plain):
        assert type(m) is type(u) is np.ndarray and m.dtype == u.dtype == float
        assert m[0] == 0.0
        assert np.array_equal(m[1:], u, equal_nan=True)
    for i, (w, t) in enumerate(zip(omega.tolist(), tau.tolist())):
        scalar = (*sf.count_rate_curvature(w, t, P, third=True), sf.count_rate(w, t, P))
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(scalar, [m[i] for m in masked], equal_nan=True)


@pytest.mark.parametrize("beta0", [P.beta0, 3.0, 1e-4], ids=["default", "strong", "weak"])
def test_third_derivative_matches_finite_differences_of_second(beta0):
    # Criterion 2's 50 x 50 grid and tolerance, with C''' against a
    # five-point difference of C''.  Weak pumping narrows the fringe-null
    # features to ~0.1 rad/ns, so the step is small.
    p = sf.ModelParams(beta0=beta0)
    omega = np.linspace(-4 * p.sigma, 4 * p.sigma, 50)[:, None]
    tau = np.linspace(0.02, 1.5, 50)[None, :]
    h = 1e-4

    def c2(w):
        return sf.count_rate_curvature(w, tau, p)[2]

    fd = (c2(omega - 2 * h) - 8 * c2(omega - h) + 8 * c2(omega + h)
          - c2(omega + 2 * h)) / (12 * h)
    c3 = sf.count_rate_curvature(omega, tau, p, third=True)[3]
    rel = np.abs(c3 - fd) / np.maximum(np.maximum(np.abs(c3), np.abs(fd)), 1e-6)
    assert rel.max() <= 1e-4
