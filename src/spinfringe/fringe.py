"""Closed-form physics of one pump/rotate/precess/rotate pulse period.

The measured photon count per period for a spin re-initialized toward
saturation polarization ``s_p`` at detuning-dependent rate ``beta(omega)``
for a time ``T``, then interrogated by two instantaneous pi/2 rotations
separated by a delay ``tau``, is in steady state

    C(omega, tau) = s_p * (1 - q) * (1 - cos(theta)) / (1 - q * cos(theta))

with ``q = exp(-beta(omega) T)`` and ``theta = (omega0 + omega) * tau``.
``omega`` is the Overhauser shift of the Larmor frequency.  The same
quantity is obtained independently by iterating the per-period pulse map
to its fixed point (``pulse_map_fixed_point``, ``pulse_map_count``), which
is the validation route used by the tests: one period-doubling loop,
stopped per point once an error bound puts the count within
``_PULSE_TOL`` of the fixed point.

``count_rate`` and ``count_rate_curvature`` share one quotient body,
``_quotients`` of order 0, 2 or 3, on one kernel (``_fringe_terms``): a
single tan(theta/4) per point gives both 1 - cos(theta) and sin(theta)
by the half-angle identities, every omega-derivative of C comes from the
same quotient recurrence on C d = s_p n, and one mask takes out the
removable point.  Both accept scalars or numpy arrays with broadcasting,
and give each point the same bits in any shape.  Everything here is a pure
function of its arguments, safe to call from several threads at once.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import M3_PER_NM3, MU_0, MU_B, NS_PER_S
from .errors import NonConvergedError
from .params import HoleNuclearParams, Lattice, ModelParams, PulseMapState

__all__ = [
    "pump_rate",
    "count_rate",
    "count_rate_curvature",
    "pulse_map_fixed_point",
    "pulse_map_count",
    "trion_flip_rate",
    "alpha_from_lattice",
]


def _pumping(omega, p: ModelParams):
    """omega/sigma and the pumping rate beta(omega) [1/ns] of ``pump_rate``."""
    x = np.asarray(omega, dtype=float) / p.sigma
    return x, p.beta0 * np.exp(-0.5 * x * x)


def pump_rate(omega, p: ModelParams):
    """Optical pumping rate beta(omega) = beta0 * exp(-omega^2 / 2 sigma^2) [1/ns].

    Even in omega and monotone nonincreasing in |omega|; total function.
    """
    out = _pumping(omega, p)[1]
    return out if out.ndim else float(out)


def _pumping_terms(omega, p: ModelParams, order: int):
    """g = 1 - q (by expm1) and qs = [q, q', ...], q = exp(-beta T); see
    ``_fringe_terms``."""
    x, beta = _pumping(omega, p)
    m = -p.T * beta
    qs = [np.exp(m)]
    if order:
        w = x / -p.sigma
        y = m * qs[0]
        z, k = w * w, 1.0 / (p.sigma * p.sigma)
        qs += [w * y, y * (z * (m + 1.0) - k)]
        if order > 2:
            qs.append(qs[1] * ((z * m + 3.0 * (z - k)) * m + (z - 3.0 * k)))
    return -np.expm1(m), qs


def _angle_terms(omega, tau, p: ModelParams, order: int):
    """c = cos(theta) (None at order 0) and us = [u, u', ...], u = 1 - cos(theta),
    from one tangent; see ``_fringe_terms``."""
    tau = np.asarray(tau, dtype=float)
    t = np.tan((p.omega0 + np.asarray(omega, dtype=float)) * (0.25 * tau))
    tt = t * t
    r2 = 1.0 + tt
    r2 = r2 * r2  # not ** 2: numpy's scalar power can differ from x * x in the last bit
    us = [8.0 * tt / r2]
    if not order:
        return None, us
    c = 1.0 - us[0]
    tau2 = tau * tau
    us += [tau * (4.0 * t * (1.0 - tt) / r2), tau2 * c]
    if order > 2:
        us.append(-tau2 * us[1])
    return c, us


def _fringe_terms(omega, tau, p: ModelParams, order: int = 0):
    """Shared terms of the count rate and of its omega-derivatives.

    Returns (qs, us, g, c, n, d).  qs = [q, q', q'', ...] with q =
    exp(-beta T), us = [u, u', u'', ...] with u = 1 - cos(theta) and theta
    = (omega0 + omega) tau, up to the third derivative at ``order`` 3, the
    second at 2 and none at 0.  g = 1 - q (by expm1), c = cos(theta) (None
    at order 0), and

        n = g u,      d = g + q u

    are sums of nonnegative terms, with no cancellation near fringe nulls
    or for weak pumping.  One tangent t = tan(theta/4) gives both angles:

        u = 2 sin^2(theta/2) = 8 t^2 / (1 + t^2)^2,
        sin(theta) = 2 sin(theta/2) cos(theta/2) = 4 t (1 - t^2) / (1 + t^2)^2,

    and u' = tau sin(theta), u'' = tau^2 c, u''' = -tau^2 u'.  u is 0 only
    where t^2 underflows (|theta| < 6.3e-162), in effect at theta = 0; a
    fringe null theta = 2 pi k != 0 keeps its tiny u > 0 to a few ulps.
    So d == 0 exactly where theta = 0 and the pumping has underflowed to
    beta T = 0, not at every multiple of 2 pi.  With m = -beta T,
    w = -omega/sigma^2 and y = m q the pumping derivatives are

        q' = w y,     q'' = y (w^2 (m + 1) - 1/sigma^2),
        q''' = q' ((w^2 m + 3 (w^2 - 1/sigma^2)) m + w^2 - 3/sigma^2).
    """
    g, qs = _pumping_terms(omega, p, order)
    c, us = _angle_terms(omega, tau, p, order)
    return qs, us, g, c, g * us[0], g + qs[0] * us[0]


def _quotients(omega, tau, p: ModelParams, order: int) -> tuple:
    """(C,) at ``order`` 0, (C, C', C'') at 2 and (C, C', C'', C''') at 3.

    Differentiating C d = s_p n (terms of ``_fringe_terms``) k times gives
    one quotient recurrence for every derivative,

        C^(k) = (s_p n^(k) - sum_{j=1..k} binom(k, j) C^(k-j) d^(j)) / d,

    where Leibniz on n = g u and d = g + q u, with g' = -q', gives

        n^(k) = g u^(k) - q^(k) u - r_k,     d^(k) = q u^(k) - q^(k) c + r_k,
        r_k = sum_{j=1..k-1} binom(k, j) q^(j) u^(k-j)     (r_1 = 0).

    Order 0 computes no derivative term.  At the removable 0/0 point
    (theta = 0 with the pumping underflowed) all values are 0, as C is
    identically zero along the underflowed-pumping region; a NaN input
    gives NaN.  Scalar input gives floats.
    """
    (q, *qs), (u, *us), g, c, n, d = _fringe_terms(omega, tau, p, order)
    clean = d.all()  # no removable point (NaN is nonzero): masks would change nothing
    if not clean:
        ok = d != 0.0  # only the removable point; NaN propagates
        d = np.where(ok, d, 1.0)
    s_p = p.s_p
    c0 = s_p * (n / d)
    out = (c0,)
    if order:
        (q1, q2, *q3), (u1, u2, *u3) = qs, us
        d1 = q * u1 - q1 * c
        r2 = 2.0 * (q1 * u1)
        d2 = q * u2 - q2 * c + r2
        c1 = (s_p * (g * u1 - q1 * u) - c0 * d1) / d
        c2 = (s_p * (g * u2 - q2 * u - r2) - 2.0 * c1 * d1 - c0 * d2) / d
        out += (c1, c2)
        if order > 2:
            (q3,), (u3,) = q3, u3
            r3 = 3.0 * (q1 * u2 + q2 * u1)
            d3 = q * u3 - q3 * c + r3
            out += ((s_p * (g * u3 - q3 * u - r3) - 3.0 * (c2 * d1 + c1 * d2) - c0 * d3) / d,)
    if not clean:
        out = tuple(np.where(ok, x, 0.0) for x in out)
    return out if c0.ndim else tuple(map(float, out))


def count_rate(omega, tau, p: ModelParams):
    """Steady-state trion count rate C(omega, tau), dimensionless in [0, 2 s_p].

    The removable 0/0 point (theta = 0 with the pumping underflowed)
    evaluates to 0 by continuity; a NaN input gives NaN.
    """
    return _quotients(omega, tau, p, 0)[0]


def count_rate_curvature(omega, tau, p: ModelParams, third: bool = False):
    """Count rate and its omega-derivatives, closed form (``_quotients``).

    Returns (C, C', C''), and C''' too only with ``third=True``; C, C', C''
    have the same bits either way, and C has those of ``count_rate``.
    The tests check each derivative against five-point finite differences
    of the one below.
    """
    return _quotients(omega, tau, p, 3 if third else 2)


_PULSE_TOL = 1e-13  # the largest |count - its fixed point| a pulse-map point ends at


def _pulse_map(omega, tau, p: ModelParams):
    """Pulse-map fixed point over broadcastable inputs; returns (s_f, count).

    One period maps the post-pumping polarization s through

        pump:               s -> s_p + (s_prev - s_p) * exp(-beta T)
        rotate-precess-rotate:  s_i = s_f * cos((omega0 + omega) * tau)

    that is s -> a s + b with a = q cos(theta), b = s_p (1 - q), and the
    count per period is s_f - s_i = s_f * (1 - cos(theta)).  From s = 0,
    each round composes the map with itself, (a, b) -> (a^2, a b + b), and
    applies it, so s sums ever more powers of a; b / (1 - a) is never
    formed.  After the step s -> A s + B of a round, with A >= 0 the
    composed a, the count is within u |Delta s| A / (1 - A) of its fixed
    point, and a point stops once that bound is at most ``_PULSE_TOL``.
    Every point runs the rounds of its own inputs, so a scalar and an
    array call give it the same bits.  The non-contractive point, |a| = 1
    in floating point (pumping underflowed and |cos| = 1), gives s_f = 0
    and count 0 by continuity; a NaN input gives NaN.

    Raises NonConvergedError if a point is still open after 64 rounds
    (unreachable for finite inputs; kept as a guard).
    """
    omega = np.asarray(omega, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    bt = np.asarray(pump_rate(omega, p)) * p.T
    shape = np.broadcast_shapes(bt.shape, (np.broadcast(omega, tau_arr)).shape)
    q = np.broadcast_to(np.exp(-bt), shape).ravel()
    b = p.s_p * np.broadcast_to(-np.expm1(-bt), shape).ravel()
    theta = np.broadcast_to((p.omega0 + omega) * tau_arr, shape).ravel()
    sh = np.sin(0.5 * theta)
    u = 2.0 * sh * sh
    a = (1.0 - u) * q

    s = np.zeros_like(u)
    active = np.flatnonzero(np.abs(a) != 1.0)
    a, b = a[active], b[active]
    for _ in range(64):
        if not active.size:
            break
        b = a * b + b
        a = a * a
        s_next = a * s[active] + b
        open_ = u[active] * np.abs(s_next - s[active]) * a > _PULSE_TOL * (1.0 - a)
        s[active] = s_next
        active, a, b = active[open_], a[open_], b[open_]
    if active.size:
        raise NonConvergedError("pulse-map iteration did not converge")
    return s.reshape(shape), (u * s).reshape(shape)


def pulse_map_fixed_point(omega: float, tau: float, p: ModelParams) -> tuple[PulseMapState, float]:
    """Iterate the per-period pulse map to its fixed point; count = s_f - s_i,
    within ``_PULSE_TOL`` of the fixed point's count.

    This is the independent validation route for ``count_rate`` and
    shares no algebra with it beyond the map itself (see ``_pulse_map``).
    """
    s_f, count = (float(x) for x in _pulse_map(omega, tau, p))
    return PulseMapState(s_f=s_f, s_i=s_f - count), count


def pulse_map_count(omega, tau, p: ModelParams) -> np.ndarray:
    """Pulse-map fixed-point count over broadcastable inputs, within
    ``_PULSE_TOL`` of the fixed point (``_pulse_map``)."""
    return _pulse_map(omega, tau, p)[1]


def trion_flip_rate(h: HoleNuclearParams) -> float:
    """Golden-rule estimate of the trion-hole nuclear spin-flip rate [1/ns].

    Gamma = (9 mu0^2 / 128 pi) * (mu_B g_h / B0)^2 * gamma * <|r - r_h|^-3>^2

    evaluated in SI (gamma converted from rad/ns to rad/s, the wavefunction
    average from 1/nm^3 to 1/m^3) and returned in 1/ns.  Exact scalings:
    Gamma ~ B0^-2, ~ gamma, ~ <r^-3>^2.
    """
    gamma_si = h.gamma_rad * NS_PER_S
    inv_r3_si = h.inv_r3_avg / M3_PER_NM3
    moment = MU_B * h.g_h / h.b0
    # Squares by multiplication: a float ** 2 past the float range raises
    # OverflowError, where a product gives inf.
    rate_si = (9.0 * MU_0 ** 2 / (128.0 * math.pi)) \
        * (moment * moment) * gamma_si * (inv_r3_si * inv_r3_si)
    return rate_si / NS_PER_S


def alpha_from_lattice(lat: Lattice) -> float:
    """Trion-walk strength alpha = sum_j Gamma_j A_j^2 [rad^2/ns^3]."""
    a = lat.a_array()
    return float(np.sum(lat.gamma_array() * a * a))
