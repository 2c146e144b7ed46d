"""Stochastic trajectory ensemble for small nuclear lattices.

Euler-Maruyama updates of per-site magnetizations m_j with

    drift_j = -sum_k D_jk (m_j - m_k) - D_bath m_j [boundary sites]
              + Gamma_j A_j (2 C'(Omega) + A_j m_j C''(Omega))
    noise_j ~ Normal(0, 2 (F_j + Gamma_j C(Omega)) dt)

The trion drift terms are the Ito compensation that makes the
ensemble's first-moment evolution agree with the grid solver's literal
trion operator to first order in the density width; the grid solver is
the ground truth where both apply (single site).  With C frozen to a
constant both terms vanish and the mean obeys pure exponential decay.

Inside the time loop the state is held sites-major, as a C-contiguous
(n, n_traj) array updated in place, so that every elementwise update
runs over one long inner axis.  The normals are drawn as an (n_traj, n)
block and read transposed, so each Philox draw goes to the same
trajectory and site as for an (n_traj, n) state, and Omega is summed
over a trajectory-major copy: the step has the same bits either way.

Counter-based RNG (Philox) keyed by the seed, with all trajectories
advanced in one vectorized stream, makes the moment series
bit-reproducible for a fixed seed regardless of host parallelism.  The
normals depend on the generator alone, not on the state, so one worker
thread draws the block of step k + 1 while the calling thread computes
step k's curvature and drift (numpy releases the GIL in both).  The
draws are the serial loop's: one block per step, in stream order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .fokker_planck import MomentReport, _check_step_floor, _weighted_moments
from .fringe import count_rate_curvature
from .params import Lattice, ModelParams

__all__ = ["langevin_ensemble", "evolve_trajectories"]


def evolve_trajectories(lat: Lattice, tau: float, t_end: float, m: np.ndarray,
                        rng: np.random.Generator, p: ModelParams,
                        dt: float | None = None, n_outputs: int = 60,
                        ) -> tuple[np.ndarray, list[MomentReport]]:
    """Advance a trajectory array (n_traj, n) by t_end; returns (state, reports).

    Low-level core shared by ``langevin_ensemble`` and the oracle
    comparisons (which carry the state and ``rng`` across tau values for
    continuation).  ``m`` is left unchanged; the loop works on a
    sites-major copy.  The report at t = 0 describes the initial state.
    Raises CflViolationError if the step is below the grid solver's
    floor of 1e-12 * t_end.

    The step sizes are scheduled before the loop, so the number of steps
    is known.  One worker thread, joined before the call returns or
    raises, draws each step's (n_traj, n) block of normals one step
    ahead; the loop waits for a block only just before applying it.
    Exactly one block is drawn per step and none past the last step, so
    a normal return leaves ``rng`` in the state the serial loop leaves
    it in.  An exception may leave one extra block drawn.
    """
    n = lat.n
    a = lat.a_array()
    gamma = lat.gamma_array()
    f_const = lat.f_array()

    bath = np.zeros(n)
    bath[0] = lat.d_bath
    bath[-1] = lat.d_bath
    d_arr = np.asarray(lat.d, dtype=float) if n > 1 else np.zeros(0)

    if dt is None:
        rate_scale = float(bath.max())
        if d_arr.size:
            rate_scale = max(rate_scale, 2.0 * float(d_arr.max()))
        rate_scale = max(rate_scale, float(gamma.max()), 1e-300)
        dt = min(0.01 / rate_scale, t_end / (10.0 * max(n_outputs, 1)))
    _check_step_floor(dt, t_end)

    two_a_gamma = 2.0 * gamma * a
    a2_gamma = gamma * a * a
    # Per-site constants as columns of the sites-major state.
    bath, d_arr, gamma, f_const, two_a_gamma, a2_gamma = (
        x[:, None] for x in (bath, d_arr, gamma, f_const, two_a_gamma, a2_gamma))

    n_traj = m.shape[0]
    ones = np.ones(n_traj)

    def report(t: float, m_t: np.ndarray) -> MomentReport:
        r = _weighted_moments(t, ones, np.ascontiguousarray(m_t.T), lat, tau, p,
                              ddof=1 if n_traj > 1 else 0)
        return replace(r, se_mean=float(np.sqrt(r.var_omega / n_traj)),
                       se_var=float(r.var_omega * np.sqrt(2.0 / max(n_traj - 1, 1))))

    # Step schedule of each output interval, in the loop's own arithmetic,
    # so that the number of draws is known before the first one.
    schedule = []
    t = 0.0
    for t_next in np.linspace(0.0, t_end, n_outputs + 1)[1:]:
        steps = []
        while t < t_next - 1e-12 * t_end:
            step = min(dt, t_next - t)
            steps.append(step)
            t += step
        schedule.append((steps, t))
    n_steps = sum(len(steps) for steps, _ in schedule)

    m_t = np.array(m.T, dtype=float, order="C")
    # Step buffers, updated in place: at 10^4 trajectories a fresh array
    # per operation costs more than its arithmetic.
    drift, term, noise = (np.empty_like(m_t) for _ in range(3))
    rows = np.empty((n_traj, n))  # trajectory-major
    z_bufs = (np.empty((n_traj, n)), np.empty((n_traj, n)))
    reports = [report(0.0, m_t)]
    # Imported here: the package import stays as light as it was.
    from concurrent.futures import ThreadPoolExecutor
    # One worker draws step k + 1's normals while this thread computes
    # step k's drift; Generator fills out= with the GIL released.
    with ThreadPoolExecutor(max_workers=1) as pool:
        draw = pool.submit(rng.standard_normal, out=z_bufs[0]) if n_steps else None
        k = 0
        for steps, t in schedule:
            for step in steps:
                # Omega as one dot product per trajectory row, so that it
                # has the same bits as for a trajectory-major state.
                np.copyto(rows, m_t.T)
                cval, c1, c2 = count_rate_curvature(rows @ a, tau, p)
                np.multiply(-bath, m_t, out=drift)
                if n > 1:
                    flow = term[:-1]
                    np.subtract(m_t[:-1], m_t[1:], out=flow)
                    np.multiply(d_arr, flow, out=flow)
                    drift[:-1] -= flow
                    drift[1:] += flow
                np.multiply(a2_gamma, m_t, out=term)
                np.multiply(term, c2, out=term)
                np.multiply(two_a_gamma, c1, out=noise)
                np.add(noise, term, out=noise)
                drift += noise
                # noise = sqrt(2 (F + Gamma max(C, 0)) step) * z
                np.multiply(gamma, np.maximum(cval, 0.0), out=noise)
                np.add(f_const, noise, out=noise)
                np.multiply(noise, 2.0 * step, out=noise)
                np.sqrt(noise, out=noise)
                z = draw.result()
                k += 1
                if k < n_steps:
                    draw = pool.submit(rng.standard_normal, out=z_bufs[k % 2])
                noise *= z.T
                drift *= step
                m_t += drift
                m_t += noise
            reports.append(report(t, m_t))
    return m_t.T, reports


def langevin_ensemble(lat: Lattice, tau: float, t_end: float, n_traj: int,
                      seed: int, p: ModelParams, dt: float | None = None,
                      n_outputs: int = 60, init_mean: float = 0.0,
                      init_width: float = 0.0) -> list[MomentReport]:
    """Moment time series of an n_traj ensemble started at a common mean.

    Fixed seed gives bit-identical reports.  Standard errors for the
    mean and variance of Omega are attached to every report.
    """
    if n_traj < 100:
        raise ValueError("n_traj >= 100 required")
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = np.full((n_traj, lat.n), float(init_mean))
    if init_width > 0.0:
        m += init_width * rng.standard_normal((n_traj, lat.n))
    _, reports = evolve_trajectories(lat, tau, t_end, m, rng, p,
                                     dt=dt, n_outputs=n_outputs)
    return reports
