"""Closed-form physics of one pump/rotate/precess/rotate pulse period.

The measured photon count per period for a spin re-initialized toward
saturation polarization ``s_p`` at detuning-dependent rate ``beta(omega)``
for a time ``T``, then interrogated by two instantaneous pi/2 rotations
separated by a delay ``tau``, is in steady state

    C(omega, tau) = s_p * (1 - q) * (1 - cos(theta)) / (1 - q * cos(theta))

with ``q = exp(-beta(omega) T)`` and ``theta = (omega0 + omega) * tau``.
``omega`` is the Overhauser shift of the Larmor frequency.  The same
quantity is obtained independently by iterating the per-period pulse map
to its fixed point (``pulse_map_fixed_point``), which is the validation
route used by the tests.

Everything here is a pure function of its arguments and safe for
concurrent use.  ``count_rate`` and ``count_rate_curvature`` accept
scalars or numpy arrays with broadcasting.
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


def pump_rate(omega, p: ModelParams):
    """Optical pumping rate beta(omega) = beta0 * exp(-omega^2 / 2 sigma^2) [1/ns].

    Even in omega and monotone nonincreasing in |omega|; total function.
    """
    x = np.asarray(omega, dtype=float) / p.sigma
    out = p.beta0 * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


def _fringe_terms(omega, tau, p: ModelParams):
    """Shared subexpressions of the count rate and its omega-derivatives.

    Returns (bt, q, one_minus_q, theta, u, n_num, d_den) where
    bt = beta(omega) T, q = exp(-bt), theta = (omega0 + omega) tau and
    u = 1 - cos(theta) computed as 2 sin^2(theta/2) so that the numerator
    and denominator

        n_num = (1 - q) * u,      d_den = (1 - q) + q * u

    are sums of nonnegative terms (no cancellation near fringe centers
    or for weak pumping).  d_den == 0 only at the removable 0/0 point
    where beta*T underflows to zero and theta is a multiple of 2 pi.
    """
    omega = np.asarray(omega, dtype=float)
    tau = np.asarray(tau, dtype=float)
    bt = pump_rate(omega, p) * p.T
    q = np.exp(-bt)
    one_minus_q = -np.expm1(-bt)
    theta = (p.omega0 + omega) * tau
    sin_half = np.sin(0.5 * theta)
    u = 2.0 * sin_half * sin_half
    n_num = one_minus_q * u
    d_den = one_minus_q + q * u
    return bt, q, one_minus_q, theta, u, n_num, d_den


def count_rate(omega, tau, p: ModelParams):
    """Steady-state trion count rate C(omega, tau), dimensionless in [0, 2 s_p].

    The removable 0/0 point (vanishing pumping at a fringe center)
    evaluates to 0 by continuity; a NaN input gives NaN.
    """
    *_, n_num, d_den = _fringe_terms(omega, tau, p)
    ok = d_den != 0.0  # only the removable point; NaN propagates
    if ok.all():  # the masks would change no value
        out = p.s_p * n_num / d_den
    else:
        out = np.where(ok, p.s_p * n_num / np.where(ok, d_den, 1.0), 0.0)
    return out if out.ndim else float(out)


def count_rate_curvature(omega, tau, p: ModelParams):
    """Count rate and its first and second omega-derivatives, closed form.

    Returns (C, dC/domega, d2C/domega2).  Obtained by differentiating the
    count-rate quotient with the Gaussian pumping profile; validated in
    the test suite against five-point central finite differences.  At the
    removable 0/0 point all three values are 0 (the function is
    identically zero along the underflowed-pumping region); a NaN input
    gives NaN.
    """
    omega = np.asarray(omega, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    sig2 = p.sigma * p.sigma
    bt, q, one_minus_q, theta, u, n0, d0 = _fringe_terms(omega, tau_arr, p)

    bt1 = -(omega / sig2) * bt                    # d(beta T)/d omega
    bt2 = (omega * omega / sig2 - 1.0) / sig2 * bt
    q1 = -bt1 * q
    q2 = (bt1 * bt1 - bt2) * q

    c = 1.0 - u
    u1 = tau_arr * np.sin(theta)
    u2 = tau_arr * tau_arr * c

    n1 = -q1 * u + one_minus_q * u1
    n2 = -q2 * u - 2.0 * q1 * u1 + one_minus_q * u2

    d1 = q1 * (u - 1.0) + q * u1
    d2 = q2 * (u - 1.0) + 2.0 * q1 * u1 + q * u2

    ok = d0 != 0.0  # only the removable point; NaN propagates
    clean = ok.all()  # then the masks would change no value
    d0s = d0 if clean else np.where(ok, d0, 1.0)
    cval = p.s_p * n0 / d0s
    cd1 = p.s_p * (n1 * d0 - n0 * d1) / (d0s * d0s)
    cd2 = p.s_p * (n2 * d0 * d0 - 2.0 * n1 * d1 * d0 - n0 * d2 * d0 + 2.0 * n0 * d1 * d1) / (d0s * d0s * d0s)
    if not clean:
        cval, cd1, cd2 = (np.where(ok, x, 0.0) for x in (cval, cd1, cd2))
    if cval.ndim:
        return cval, cd1, cd2
    return float(cval), float(cd1), float(cd2)


_PULSE_TOL = 1e-13
_PLAIN_ITER_CAP = 20000


def _pulse_map(omega, tau, p: ModelParams, tol: float):
    """Pulse-map fixed point over broadcastable inputs; returns (s_f, count).

    One period maps the post-pumping polarization s through

        pump:               s -> s_p + (s_prev - s_p) * exp(-beta T)
        rotate-precess-rotate:  s_i = s_f * cos((omega0 + omega) * tau)

    and the count per period is s_f - s_i = s_f * (1 - cos(theta)).  The
    iteration runs on every point at once with per-point convergence
    control: points whose residual bound is below ``tol`` drop out of the
    active set.  If plain iteration converges too slowly (contraction
    factor near 1), the map is composed with itself (period doubling),
    which is still an iteration of the same physical per-period map.  The
    degenerate non-contractive point (pumping underflowed to zero and
    |cos| = 1) gives s_f = 0 and count 0 by continuity.

    Raises NonConvergedError if the residual bound cannot be brought
    below ``tol`` (unreachable for finite inputs; kept as a guard).
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
    c = 1.0 - u

    a = c * q
    one_minus_a = 1.0 - a
    degenerate = (q == 1.0) & (np.abs(c) >= 1.0)

    s = np.zeros_like(u)
    active = np.flatnonzero(~degenerate)
    for _ in range(_PLAIN_ITER_CAP):
        if active.size == 0:
            break
        aa = a[active]
        s_next = aa * s[active] + b[active]
        delta = s_next - s[active]
        s[active] = s_next
        keep = u[active] * np.abs(aa * delta) > tol * one_minus_a[active]
        active = active[keep]
    if active.size:
        # Finish stragglers by period doubling.
        ak, bk = a[active].copy(), b[active].copy()
        sv, uv = s[active].copy(), u[active]
        live = np.ones(active.size, dtype=bool)
        for _ in range(64):
            if not live.any():
                break
            bk[live] = ak[live] * bk[live] + bk[live]
            ak[live] = ak[live] * ak[live]
            s_next = ak[live] * sv[live] + bk[live]
            delta = s_next - sv[live]
            sv[live] = s_next
            sub = np.flatnonzero(live)
            live[sub[uv[live] * np.abs(delta) <= tol * 0.5]] = False
        if live.any():
            raise NonConvergedError("pulse-map iteration did not converge")
        s[active] = sv
    return s.reshape(shape), (u * s).reshape(shape)


def pulse_map_fixed_point(omega: float, tau: float, p: ModelParams,
                          tol: float = _PULSE_TOL) -> tuple[PulseMapState, float]:
    """Iterate the per-period pulse map to its fixed point; count = s_f - s_i.

    This is the independent validation route for ``count_rate`` and
    shares no algebra with it beyond the map itself (see ``_pulse_map``).
    """
    s_f, count = (float(x) for x in _pulse_map(omega, tau, p, tol))
    return PulseMapState(s_f=s_f, s_i=s_f - count), count


def pulse_map_count(omega, tau, p: ModelParams, tol: float = _PULSE_TOL) -> np.ndarray:
    """Pulse-map fixed-point count over broadcastable inputs (``_pulse_map``)."""
    return _pulse_map(omega, tau, p, tol)[1]


def trion_flip_rate(h: HoleNuclearParams) -> float:
    """Golden-rule estimate of the trion-hole nuclear spin-flip rate [1/ns].

    Gamma = (9 mu0^2 / 128 pi) * (mu_B g_h / B0)^2 * gamma * <|r - r_h|^-3>^2

    evaluated in SI (gamma converted from rad/ns to rad/s, the wavefunction
    average from 1/nm^3 to 1/m^3) and returned in 1/ns.  Exact scalings:
    Gamma ~ B0^-2, ~ gamma, ~ <r^-3>^2.
    """
    gamma_si = h.gamma_rad * NS_PER_S
    inv_r3_si = h.inv_r3_avg / M3_PER_NM3
    rate_si = (9.0 * MU_0 ** 2 / (128.0 * math.pi)) \
        * (MU_B * h.g_h / h.b0) ** 2 * gamma_si * inv_r3_si ** 2
    return rate_si / NS_PER_S


def alpha_from_lattice(lat: Lattice) -> float:
    """Trion-walk strength alpha = sum_j Gamma_j A_j^2 [rad^2/ns^3]."""
    a = lat.a_array()
    return float(np.sum(lat.gamma_array() * a * a))
