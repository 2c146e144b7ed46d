"""Delay-scan protocols with nuclear memory, fringe maps, and nullclines.

``run_sweep`` reproduces the experimental protocol: at each two-pulse
delay tau the nuclear shift relaxes to quasi-equilibrium seeded with the
previous delay's result, so multistable regions retain branch memory and
the forward and backward passes disagree (hysteresis); each sample is a
lookup in one root table of all delays.  ``fringe_map`` and
``nullcline`` provide the static pictures the sweep traces live on;
``nullcline`` takes the roots of its whole grid from one
``steady_states`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fringe import count_rate, pump_rate
from .meanfield import relax_to_steady, steady_states
from .params import MeanFieldParams, ModelParams, SteadyState, SweepSchedule, TraceSample

__all__ = ["run_sweep", "fringe_map", "nullcline", "NullclinePoint"]

_LINK_FLOOR = 0.1  # rad/ns: the least motion bound of a nullcline link


def _jump_threshold(tau: float) -> float:
    """Half a fringe width pi/tau: adjacent basins are one fringe apart."""
    return math.pi / tau if tau > 0.0 else math.inf


def run_sweep(s: SweepSchedule, p: ModelParams, mf: MeanFieldParams) -> list[TraceSample]:
    """Scan tau with nuclear memory; round trips run forward then backward.

    Each point relaxes the mean-field drift seeded with the previous
    point's omega_f (the first point, and every ``reset_omega_every``-th,
    uses s.omega_init), by one
    ``relax_to_steady`` call on the delays of both passes in walk order,
    so both passes share one root table.
    A sample is flagged ``jumped`` when omega_f moved by more than half a
    fringe from its seed, which marks a branch switch.  The count and
    pumping rates of all samples take one array call each after the walk.
    Solver failures propagate with the offending tau attached.
    """
    grid = s.grid()
    passes = []  # (direction, grid indices in walk order)
    if s.direction in ("forward", "round-trip"):
        passes.append(("fwd", range(grid.size)))
    if s.direction in ("backward", "round-trip"):
        passes.append(("bwd", range(grid.size - 1, -1, -1)))
    at = [i for _, indices in passes for i in indices]
    directions = [d for d, indices in passes for _ in indices]
    states = relax_to_steady(s.omega_init, grid[at], p, mf, s.reset_omega_every)
    tau, omega_f = np.array([(ss.tau, ss.omega_f) for ss in states]).T
    count, beta_f = count_rate(omega_f, tau, p).tolist(), pump_rate(omega_f, p).tolist()
    return [TraceSample(tau=ss.tau, omega_f=ss.omega_f, count=c, beta_f=b, stable=ss.stable,
                        jumped=k > 0 and abs(ss.omega_f - ss.basin_seed) > _jump_threshold(ss.tau),
                        direction=d)
            for k, (ss, d, c, b) in enumerate(zip(states, directions, count, beta_f))]


def fringe_map(omega_grid, tau_grid, p: ModelParams) -> np.ndarray:
    """Count rate on the outer product of the two grids.

    Returns an array of shape (len(omega_grid), len(tau_grid)); tau is
    the fast axis, matching the long-form file layout omega-major.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if omega_grid.ndim != 1 or tau_grid.ndim != 1:
        raise ValueError("grids must be one-dimensional")
    if np.any(np.diff(omega_grid) <= 0) or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("grids must be strictly increasing")
    return np.asarray(count_rate(omega_grid[:, None], tau_grid[None, :], p))


@dataclass(frozen=True)
class NullclinePoint:
    """Roots of the drift at one tau, with plotting branch assignments."""

    tau: float
    roots: list[SteadyState]
    branch_ids: list[int]


def nullcline(tau_grid, p: ModelParams, mf: MeanFieldParams) -> list[NullclinePoint]:
    """Steady states along a tau grid, threaded into continuation branches.

    One ``steady_states`` call finds the roots of every distinct delay of
    the grid.  The grid is then walked in the caller's order, so repeated
    or unsorted delays each get the roots of their own delay.  Each root
    is linked to the nearest untaken root of the previous point within a
    motion bound, a tie going to the later root: a root anchored near a
    fringe feature moves by at most about (omega0 + W) |dtau| / tau per
    step, far less than the fringe spacing.  The candidates are the
    previous roots within that bound, found by bisection on their sorted
    omega (widened by one root on each side against rounding).  Unmatched
    new roots open new branch ids; unmatched old ones terminate (a fold
    annihilates a stable and an unstable branch together, a branch can
    also leave through the bracket edge).
    """
    taus = np.asarray(tau_grid, dtype=float)
    roots_at: dict[float, list[SteadyState]] = {}
    for r in steady_states(taus, p, mf):
        roots_at.setdefault(r.tau, []).append(r)
    points: list[NullclinePoint] = []
    next_branch = 0
    prev_w: list[float] = []  # sorted omega_f at the previous tau
    prev_ids: list[int] = []
    prev_tau: float | None = None
    for tau in taus.tolist():
        roots = list(roots_at.get(tau, ()))
        if prev_tau is None or tau <= 0.0:
            thresh = _jump_threshold(tau)
        else:
            motion = 2.0 * (p.omega0 + mf.omega_bracket) * abs(tau - prev_tau) / tau
            thresh = min(0.5 * _jump_threshold(tau),
                         max(motion, _LINK_FLOOR))
        prev_tau = tau
        w = np.array([r.omega_f for r in roots])
        first = np.searchsorted(prev_w, w - thresh) - 1
        stop = np.searchsorted(prev_w, w + thresh, side="right") + 1
        ids: list[int] = []
        taken: set[int] = set()
        for w_r, a, b in zip(w.tolist(), first.tolist(), stop.tolist()):
            best = None
            best_d = thresh
            for k in range(max(a, 0), min(b, len(prev_w))):
                if k in taken:
                    continue
                d = abs(w_r - prev_w[k])
                if d <= best_d:
                    best, best_d = k, d
            if best is None:
                ids.append(next_branch)
                next_branch += 1
            else:
                taken.add(best)
                ids.append(prev_ids[best])
        points.append(NullclinePoint(tau=tau, roots=roots, branch_ids=ids))
        prev_w, prev_ids = w.tolist(), ids
    return points
