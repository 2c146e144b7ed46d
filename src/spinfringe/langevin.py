"""Stochastic trajectory ensemble for small nuclear lattices.

Euler-Maruyama updates of per-site magnetizations m_j with

    drift_j = sum_k L_jk m_k + Gamma_j A_j (2 C'(Omega) + A_j m_j C''(Omega))
    noise_j ~ Normal(0, 2 (F_j + Gamma_j C(Omega)) dt)

where L = ``Lattice.rates()`` holds the bath and chain rates (the spin
diffusion), applied to the whole ensemble as one matrix product a step.

The trion drift terms are the Ito compensation that makes the
ensemble's first-moment evolution agree with the grid solver's literal
trion operator to first order in the density width; the grid solver is
the ground truth where both apply (single site).  With C frozen to a
constant both terms vanish and the mean obeys pure exponential decay.

A given step is fixed.  The auto step is taken from where the
trajectories are, at t = 0 and afresh every ten steps, however often
the moments are reported.  It is the smallest of three bounds: 1.5 /
slope, with slope the largest row-sum norm over the ensemble of the
drift Jacobian, a bound on its spectral radius (Euler's stability needs
slope * dt < 2); 0.1 of the drift's Omega scale min(1/tau, sigma) over
the fastest rate of change of Omega, A . drift from the step's own
drift, so that no trajectory outruns the slope it was given (from a
point state, say, whose slope says nothing of the basin it falls into);
and 0.01 over the fastest bath or chain rate.  Gamma scales the noise
and stiffens nothing by itself: it enters the step only through the
drift.  The output times only end the step that would pass them.

Each ensemble state gets one curvature call, (C, C', C'') over its
trajectories, with C''' too when an auto step is taken there.  A report
at an output time reads C' and C'' from the call of the step that
starts there, so a run makes one call per step and one for its final
state.

Inside the time loop the state is held sites-major, as a C-contiguous
(n, n_traj) array, so that every elementwise update runs over one long
inner axis.  The normals are drawn as an (n_traj, n) block and read
transposed, so each Philox draw goes to the same trajectory and site as
for an (n_traj, n) state, and Omega is summed over a trajectory-major
copy: the step has the same bits either way.

Counter-based RNG (Philox) keyed by the seed, with all trajectories
advanced in one vectorized stream, makes the moment series
bit-reproducible for a fixed seed regardless of host parallelism.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .fokker_planck import MomentReport, _check_step_floor, _weighted_moments
from .fringe import count_rate_curvature
from .params import Lattice, ModelParams, _require_finite_args

__all__ = ["langevin_ensemble", "evolve_trajectories"]

# The auto step: at most _SLOPE_STEP / slope and a travel of at most
# _TRAVEL_STEP Omega scales, taken afresh every _RETAKE steps.
_SLOPE_STEP = 1.5
_TRAVEL_STEP = 0.1
_RETAKE = 10


def evolve_trajectories(lat: Lattice, tau: float, t_end: float, m: np.ndarray,
                        rng: np.random.Generator, p: ModelParams,
                        dt: float | None = None, n_outputs: int = 60,
                        ) -> tuple[np.ndarray, list[MomentReport]]:
    """Advance a trajectory array (n_traj, n) by t_end; returns (state, reports).

    Low-level core shared by ``langevin_ensemble`` and the oracle
    comparisons (which carry the state and ``rng`` across tau values for
    continuation).  ``m`` is left unchanged; the loop works on a
    sites-major copy.  The report at t = 0 describes the initial state.

    A given ``dt`` is a fixed step.  Without one, the step is

        min(1.5 / slope, 0.1 * scale / speed, 0.01 / max(D_bath, 2 max D))

    taken from the ensemble at t = 0 and again every ten steps, whatever
    ``n_outputs`` is.  ``slope`` is the largest row-sum norm of the drift
    Jacobian, which for one site is |g'| = |-D_bath + Gamma A^2 (3 C'' +
    A m C''')|, with C''' in closed form from the step's own curvature
    call.  ``speed`` is the largest |dOmega/dt| = |A . drift|, with the
    drift's linear part L m, L = ``lat.rates()``, and ``scale`` =
    min(1/tau, sigma) the Omega scale on which C varies.
    Either way a step that would pass an output time is shortened to end
    on it.  Each state the loop reaches gets one ``count_rate_curvature``
    call, shared by the report made there and the step taken from there:
    a run of ``steps`` steps makes ``steps + 1`` calls.  Raises ValueError
    for a non-finite ``tau`` or ``t_end`` or a negative ``t_end``, and
    CflViolationError, with ``tau`` and the time ``t`` the step was taken
    at, if a step is below the grid solver's floor of 1e-12 * t_end or is
    NaN.

    Each completed step draws one (n_traj, n) block of normals from
    ``rng``, in stream order, so on return or on raise ``rng`` has drawn
    exactly one block per completed step.  Raises ValueError, before any
    draw, for ``n_outputs`` < 1, for an ``m`` that is not of shape
    (n_traj >= 1, lat.n) or for a non-finite entry of ``m``, whether the
    step is given or not.
    """
    _require_finite_args(("t_end",), tau=tau, t_end=t_end)
    if n_outputs < 1:
        raise ValueError(f"n_outputs >= 1 required, got {n_outputs!r}")
    n = lat.n
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] != n:
        raise ValueError(f"m must have shape (n_traj >= 1, {n}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entry in m")
    a = lat.a_array()
    ga = lat.gamma_array() * a
    lin = lat.rates()
    if dt is not None:
        _check_step_floor(dt, t_end, tau)
    dt_cap = 0.01 / max(lat.d_bath, 2 * max(lat.d, default=0), 1e-300)
    scale = 1.0 / max(tau, 1.0 / p.sigma)  # Omega scale of a fringe and of the pump profile
    # Per-site constants as columns of the sites-major state.
    gamma, f_const, two_a_gamma, a2_gamma = (
        x[:, None] for x in (lat.gamma_array(), lat.f_array(), 2.0 * ga, ga * a))

    n_traj = m.shape[0]
    ones = np.ones(n_traj)

    def curvature(k: int):
        # Omega as one dot product per trajectory row, so that it has the
        # same bits as for a trajectory-major state.
        np.copyto(rows, m_t.T)
        return count_rate_curvature(rows @ a, tau, p, third=dt is None and k % _RETAKE == 0)

    def report(t: float, curv) -> MomentReport:
        r = _weighted_moments(t, ones, rows, lat, tau, p, ddof=1 if n_traj > 1 else 0,
                              curv=curv[1:3])
        return replace(r, se_mean=float(np.sqrt(r.var_omega / n_traj)),
                       se_var=float(r.var_omega * np.sqrt(2.0 / max(n_traj - 1, 1))))

    def auto_step(t: float, drift, c2, c3) -> float:
        # Row sums of the drift Jacobian J_jk = lin_jk + Gamma_j A_j A_k (2 C''
        # + A_j m_j C''') + delta_jk Gamma_j A_j^2 C'', one site at a time.
        row_sums = []
        for j in range(n):
            s_j = 2.0 * c2 + a[j] * m_t[j] * c3
            row = np.abs(lin[j, j] + ga[j] * a[j] * (s_j + c2))
            for k in range(n):
                if k != j:
                    row += np.abs(lin[j, k] + ga[j] * a[k] * s_j)
            row_sums.append(row.max(initial=0.0))
        speed = np.abs(a @ drift).max(initial=0.0)  # dOmega/dt = A . drift
        # np.min and np.maximum keep a NaN, which the floor check rejects.
        step = float(np.min([_SLOPE_STEP / np.maximum(np.max(row_sums), 1e-300),
                             _TRAVEL_STEP * scale / np.maximum(speed, 1e-300), dt_cap]))
        _check_step_floor(step, t_end, tau, t)
        return step

    m_t = np.array(m.T, dtype=float, order="C")
    rows = np.empty((n_traj, n))  # trajectory-major
    z = np.empty((n_traj, n))
    # ``rows`` and ``curv`` always describe the current state m_t.
    curv = curvature(0)
    reports = [report(0.0, curv)]
    t, step_max, k = 0.0, dt, 0
    for t_next in np.linspace(0.0, t_end, n_outputs + 1)[1:]:
        while t < t_next - 1e-12 * t_end:
            cval, c1, c2, *c3 = curv
            drift = lin @ m_t + (two_a_gamma * c1 + a2_gamma * m_t * c2)
            if c3:  # C''' comes with the curvature where the auto step is retaken
                step_max = auto_step(t, drift, c2, c3[0])
            step = min(step_max, t_next - t)
            rng.standard_normal(out=z)
            m_t = m_t + drift * step + np.sqrt(
                (f_const + gamma * np.maximum(cval, 0.0)) * (2.0 * step)) * z.T
            t += step
            k += 1
            curv = curvature(k)
        reports.append(report(t, curv))
    return m_t.T, reports


def langevin_ensemble(lat: Lattice, tau: float, t_end: float, n_traj: int,
                      seed: int, p: ModelParams, dt: float | None = None,
                      n_outputs: int = 60, init_mean: float = 0.0,
                      init_width: float = 0.0) -> list[MomentReport]:
    """Moment time series of an n_traj ensemble started at a common mean.

    Fixed seed gives bit-identical reports.  Standard errors for the
    mean and variance of Omega are attached to every report.  Each
    trajectory starts at ``init_mean`` plus ``init_width`` times a normal
    draw; ``init_width`` = 0 is a point start.  Raises ValueError naming a
    non-finite ``init_mean`` or ``init_width``, a negative ``init_width``,
    ``n_traj`` < 100 or ``n_outputs`` < 1.
    """
    if n_traj < 100:
        raise ValueError("n_traj >= 100 required")
    _require_finite_args(("init_width",), init_mean=init_mean, init_width=init_width)
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = np.full((n_traj, lat.n), float(init_mean))
    if init_width > 0.0:
        m += init_width * rng.standard_normal((n_traj, lat.n))
    _, reports = evolve_trajectories(lat, tau, t_end, m, rng, p,
                                     dt=dt, n_outputs=n_outputs)
    return reports
