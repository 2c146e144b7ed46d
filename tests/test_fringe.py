"""Pulse-period physics: count rate, pulse-map oracle, golden-rule rate."""

import math
import tracemalloc

import numpy as np
import pytest

import spinfringe as sf
from spinfringe import fringe
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


def test_pulse_map_meets_its_own_tolerance():
    # The stop bound is the count's distance to the fixed point, so the
    # reference lies within _PULSE_TOL of C, up to C's own rounding.  A
    # stop on the last step alone (u |Delta s| <= tol / 2) ended up to
    # 5e-8 away on these draws and grids, where contraction is slow.
    bound = 2 * fringe._PULSE_TOL
    rng = np.random.default_rng(8)
    omega = rng.uniform(-6 * P.sigma, 6 * P.sigma, 100_000)
    tau = rng.uniform(0.0, 2.0, 100_000)
    assert np.max(np.abs(sf.pulse_map_count(omega, tau, P) - sf.count_rate(omega, tau, P))) <= bound
    omega = np.linspace(-6 * P.sigma, 6 * P.sigma, 300)[:, None]
    tau = np.linspace(0.0, 2.0, 300)[None, :]
    for slow in (sf.ModelParams(beta0=1e-9), sf.ModelParams(T=1e-6)):
        worst = np.max(np.abs(sf.pulse_map_count(omega, tau, slow) - sf.count_rate(omega, tau, slow)))
        assert worst <= bound
    assert math.isnan(sf.pulse_map_count(math.nan, 0.3, P))
    # |a| rounds to 1 here: the non-contractive point counts 0 by continuity.
    assert sf.pulse_map_count(0.0, 1e-10, sf.ModelParams(beta0=1e-18)) == 0.0


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


def _bits(x):
    """The bytes of x, every NaN as numpy's one NaN (a NaN's sign bit
    depends on the loop numpy takes)."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


_MF = sf.MeanFieldParams(kappa=1e-3, alpha=0.05)
# Every kernel on the one-tangent terms, each returning a tuple of outputs.
_KERNELS = {"count_rate": lambda w, t: (sf.count_rate(w, t, P),),
            "curvature": lambda w, t: sf.count_rate_curvature(w, t, P),
            "third": lambda w, t: sf.count_rate_curvature(w, t, P, third=True),
            "drift": lambda w, t: (sf.drift(w, t, P, _MF),)}


def test_kernels_give_the_same_bits_in_any_shape():
    # Each point alone as scalars, in a 1-d array, and in broadcast shapes
    # (omega column x tau row, scalar x array both ways), with the
    # removable 0/0 point (tau = 0, pumping underflowed at omega = 1e3) and
    # NaN among them.
    rng = np.random.default_rng(10)
    omega = np.r_[rng.uniform(-40.0, 40.0, 400), 0.0, 1e3, math.nan]
    tau = np.r_[rng.uniform(0.02, 1.5, 7), 0.0, 2.0 * math.pi / P.omega0, math.nan]
    assert _fringe_terms(1e3, 0.0, P)[-1] == 0.0
    for name, kernel in _KERNELS.items():
        single = [[kernel(w, t) for t in tau.tolist()] for w in omega.tolist()]
        assert all(type(v) is float for row in single for vals in row for v in vals), name
        grid = kernel(omega[:, None], tau[None, :])
        flat = kernel(np.repeat(omega, tau.size), np.tile(tau, omega.size))
        for k, (g, f) in enumerate(zip(grid, flat)):
            want = np.array([[vals[k] for vals in row] for row in single])
            assert _bits(g) == _bits(want) and _bits(f) == _bits(want.ravel()), name
            for i, w in enumerate(omega.tolist()):
                assert _bits(kernel(w, tau)[k]) == _bits(want[i]), name
            for j, t in enumerate(tau.tolist()):
                assert _bits(kernel(omega, t)[k]) == _bits(want[:, j]), name


class _CountingNumpy:
    """Stands in for ``numpy`` in ``fringe``, counting the trig calls."""

    def __init__(self):
        self.calls = {"tan": 0, "sin": 0, "cos": 0}

    def __getattr__(self, name):
        if name not in self.calls:
            return getattr(np, name)

        def call(*args, **kwargs):
            self.calls[name] += 1
            return getattr(np, name)(*args, **kwargs)
        return call


@pytest.mark.parametrize("kernel", list(_KERNELS))
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_one_kernel_call_takes_one_tangent_and_no_sine(monkeypatch, kernel, shape):
    w, t = (0.3, 0.17) if shape == "scalar" else (np.linspace(-40, 40, 1000), 0.17)
    counting = _CountingNumpy()
    monkeypatch.setattr(fringe, "np", counting)
    _KERNELS[kernel](w, t)
    assert counting.calls == {"tan": 1, "sin": 0, "cos": 0}


def _peak_bytes(fn):
    fn()  # first-call allocations
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_hold_no_more_memory_than_the_sine_kernel():
    # The two-sine kernel this one replaced traced 193 bytes a point in
    # ``drift`` at 10^4 points and a 20.7 MB peak in the 601 x 751
    # ``fringe_map``; the one-tangent kernel holds about 153 and 15.
    rng = np.random.default_rng(11)
    omega, tau = rng.uniform(-40.0, 40.0, 10_000), rng.uniform(0.05, 1.5, 10_000)
    assert _peak_bytes(lambda: sf.drift(omega, tau, P, _MF)) / omega.size <= 193
    grids = np.linspace(-40.0, 40.0, 601), np.linspace(0.0, 1.5, 751)
    assert _peak_bytes(lambda: sf.fringe_map(*grids, P)) <= 20.7e6


def _near(x, ulps):
    """x and its neighbours up to ``ulps`` floats away on each side."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_one_tangent_angles_match_sine_references():
    # u = 1 - cos(theta) and tau sin(theta) from tan(theta/4) against
    # math.sin, in units of the larger of the reference's ulp and theta's
    # own rounding |theta| 2^-52: at theta = 0, near fringe nulls 2 pi k of
    # both parities (theta/4 near a zero and near a pole of tan), near
    # odd multiples of pi, and over |theta| <= 1e4.  Near the nulls u is a
    # sum of nonnegative terms, so its error is also a few ulps of u.
    p = sf.ModelParams(omega0=0.0)  # theta = omega at tau = 1, exactly
    thetas, nulls = [0.0, 5e-324, 1e-300], []
    for k in [*range(-40, 41), -1591, 1591]:
        for centre, nullish in ((2.0 * math.pi * k, True), ((2 * k + 1) * math.pi, False)):
            near = _near(centre, 4) + [centre * (1 + 1e-9), centre * (1 - 1e-9),
                                       centre + 1e-6, centre - 1e-6]
            thetas += near
            nulls += near if nullish and k else []
    rng = np.random.default_rng(12)
    thetas += rng.uniform(-1e4, 1e4, 20_000).tolist() + rng.uniform(-7.0, 7.0, 20_000).tolist()
    _, (u, sin_tau, *_), *_ = _fringe_terms(np.array(thetas), 1.0, p, 2)
    worst_u = worst_sin = 0.0
    for theta, u_k, s_k in zip(thetas, u.tolist(), sin_tau.tolist()):
        half = math.sin(0.5 * theta)
        u_ref, s_ref = 2.0 * half * half, math.sin(theta)
        floor = abs(theta) * 2.0 ** -52
        worst_u = max(worst_u, abs(u_k - u_ref) / max(math.ulp(u_ref), floor))
        worst_sin = max(worst_sin, abs(s_k - s_ref) / max(math.ulp(s_ref), floor))
    assert u[0] == 0.0 and sin_tau[0] == 0.0
    assert worst_u <= 4.0 and worst_sin <= 4.0
    _, (u_null, *_), *_ = _fringe_terms(np.array(nulls), 1.0, p, 2)
    ref = np.array([2.0 * math.sin(0.5 * x) ** 2 for x in nulls])
    assert np.all(u_null > 0.0)
    assert np.max(np.abs(u_null - ref) / np.spacing(ref)) <= 8.0
