"""Seeded workload inputs and output checks.

A workload is a list of steps.  A step is one call into a public entry
point of the program: ``cli.main`` with an argument list, or
``compare.compare_meanfield`` where no subcommand reaches the code.  The
seed shapes only the generated arguments; the program sees nothing else.

Every step has checks on what the call wrote or returned.  A check is
one named property of one call's output, so ``attempted`` counts calls
plus checks and ``failed`` counts failed calls plus failed checks.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

import spinfringe as sf
from spinfringe.config import parse_config

WORKLOADS = ("sweep-decades", "nullcline", "fringe-map-fine", "oracle")

# Decades of the printed kappa/alpha ratio (ps2 units), as in the Fig-3 study.
DECADES = (2, 3, 4, 5, 6)
# The two-site lattice of the oracle workload: the only path into the 2-D grid.
TWO_SITE = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                      f=(5e-5, 5e-5), d_bath=0.02)


@dataclass
class Step:
    """One call.  ``sub`` is a cli subcommand, or None for compare_meanfield."""

    name: str
    sub: str | None
    overrides: list[str] = field(default_factory=list)
    seed: int | None = None
    taus: tuple[float, ...] = ()
    n_cells: int = 0

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.sub, "--out", out_dir]
        for item in self.overrides:
            argv += ["--set", item]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def plan(workload: str, seed: int, smoke: bool = False) -> list[Step]:
    """The steps of one pass of ``workload``; the same seed gives the same steps."""
    rng = np.random.default_rng(seed)
    if workload == "sweep-decades":
        # Each ratio moves by at most 0.1 decade; the 1e4 study keeps its
        # forward jumps and fwd/bwd disagreement across that range.  The
        # default window at five times the default step keeps a pass near
        # 1.5 s, so a run holds enough passes for a steady median.
        window = ["sweep.tau_start=0.2", "sweep.tau_end=0.62"] if smoke else []
        steps = []
        for k in DECADES:
            ratio = 10.0 ** (k + rng.uniform(-0.1, 0.1))
            steps.append(Step(f"1e{k}", "sweep", [f"meanfield.ratio={ratio!r}",
                                                  "sweep.tau_step=0.01",
                                                  "output.precision=17", *window]))
        return steps
    if workload == "nullcline":
        # The default window at ten times the default step: the same spread
        # of roots per delay (1 to 59) in a pass near 1.7 s, so a run holds
        # enough passes for a steady median.  The offset stays within one
        # default step, so that every seed finds about the same roots.  The
        # smoke window sits where each delay has about 30 roots.
        step = 0.002 if smoke else 0.02
        start = (0.8 if smoke else 0.05) + 0.002 * rng.uniform(0.0, 1.0)
        end = ["sweep.tau_end=0.82"] if smoke else []
        return [Step("steady", "steady", [f"sweep.tau_start={start!r}",
                                          f"sweep.tau_step={step!r}",
                                          "output.precision=17", *end])]
    if workload == "fringe-map-fine":
        shift = rng.uniform(0.0, 0.05)
        n_omega, n_tau = (31, 41) if smoke else (601, 751)
        return [Step("map", "fringe-map", [
            f"map.n_omega={n_omega}", f"map.n_tau={n_tau}",
            f"sweep.tau_start={0.05 + shift!r}", f"sweep.tau_end={1.5 + shift!r}"])]
    if workload == "oracle":
        grid = ["oracle.n_cells=64"] if smoke else []
        ensemble = ["lattice.n=4"] + (
            ["oracle.n_traj=200", "oracle.t_end=10", "oracle.n_outputs=4"] if smoke
            else ["oracle.t_end=100", "oracle.n_outputs=20"])
        return [Step("grid", "oracle", grid),
                Step("compare", None, taus=(0.17, 0.23), n_cells=40 if smoke else 96),
                Step("ensemble", "oracle", ensemble, seed=seed)]
    raise ValueError(f"unknown workload {workload!r}")


def run_step(step: Step, out_dir: str):
    """Make the call; returns the cli exit code or the compare rows."""
    from spinfringe import cli, compare

    if step.sub is not None:
        return cli.main(step.argv(out_dir))
    mf = sf.MeanFieldParams(kappa=TWO_SITE.d_bath, alpha=sf.alpha_from_lattice(TWO_SITE))
    return compare.compare_meanfield(TWO_SITE, list(step.taus), sf.ModelParams(), mf,
                                     n_cells=step.n_cells)


def items(step: Step) -> int:
    """Work units of one step: delays relaxed, delays enumerated, map
    values written, or oracle solves."""
    cfg = parse_config("", step.overrides)
    if step.sub == "sweep":
        return 2 * len(cfg.sweep.grid())
    if step.sub == "steady":
        return len(cfg.sweep.grid())
    if step.sub == "fringe-map":
        return cfg.map.n_omega * cfg.map.n_tau
    return len(step.taus) if step.sub is None else 1


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    return text != "" and math.isfinite(float(text))


def _check_sweep(step: Step, out_dir: str) -> list[tuple[str, bool, str]]:
    cfg = parse_config("", step.overrides)
    mf, p = cfg.meanfield, cfg.model
    tol = mf.relax_tol * mf.kappa * p.sigma
    rows = _rows(os.path.join(out_dir, "sweep.csv"))
    want = 2 * len(cfg.sweep.grid())
    worst = max((abs(sf.drift(float(r["omega_f_rad_per_ns"]), float(r["tau_ns"]), p, mf))
                 for r in rows), default=math.inf)
    checks = [("rows", len(rows) == want, f"{len(rows)} rows, want {want}"),
              ("residual", worst <= tol, f"max |drift| {worst:.3g}, tol {tol:.3g}")]
    if step.name == "1e4":
        omega = {(r["pass"], r["tau_ns"]): float(r["omega_f_rad_per_ns"]) for r in rows}
        split = [t for (d, t), w in omega.items()
                 if d == "fwd" and abs(w - omega.get(("bwd", t), w)) > math.pi / float(t)]
        jumps = sum(r["jumped"] == "1" for r in rows)
        checks += [("jump", jumps > 0, f"{jumps} jumps"),
                   ("hysteresis", bool(split), f"{len(split)} delays where fwd and bwd differ")]
    return checks


def _check_steady(step: Step, out_dir: str) -> list[tuple[str, bool, str]]:
    """Criterion-3 invariants in the form that holds at every delay.

    Along omega the drift changes sign at each root, so the drift signs
    at the bracket edges -W and W fix the parity of the root count and
    the stability of the outer roots.  Where decay dominates at both
    edges this is criterion 3 itself: an odd count, outer roots stable.
    At a few delays a fringe-null spike of the trion term sits on an
    edge, the drift there has the other sign, and a root pair straddles
    it; the count is then even and an outer root unstable.
    """
    cfg = parse_config("", step.overrides)
    mf, p = cfg.meanfield, cfg.model
    tol = mf.relax_tol * mf.kappa * p.sigma
    w = mf.omega_bracket
    by_tau: dict[str, list[dict[str, str]]] = {}
    for r in _rows(os.path.join(out_dir, "steady.csv")):
        by_tau.setdefault(r["tau_ns"], []).append(r)
    want = len(cfg.sweep.grid())
    parity = alternating = outer = True
    edge_spikes = 0
    worst = 0.0
    for tau, roots in by_tau.items():
        rises_left = sf.drift(-w, float(tau), p, mf) > 0.0
        falls_right = sf.drift(w, float(tau), p, mf) < 0.0
        edge_spikes += not (rises_left and falls_right)
        stable = [r["stable"] == "1" for r in roots]
        parity &= (len(roots) % 2 == 1) == (rises_left == falls_right)
        alternating &= all(a != b for a, b in zip(stable, stable[1:]))
        outer &= stable[0] == rises_left and stable[-1] == falls_right
        worst = max([worst] + [abs(sf.drift(float(r["omega_f_rad_per_ns"]), float(tau), p, mf))
                               for r in roots])
    return [("delays", len(by_tau) == want, f"{len(by_tau)} delays, want {want}"),
            ("parity", parity, f"root count parity follows the edge drift signs "
                               f"({edge_spikes} delays have an edge spike)"),
            ("alternating", alternating, "stability alternates along omega"),
            ("outer", outer, "outer roots stable exactly where the edge drift points inward"),
            ("residual", worst <= tol, f"max |drift| {worst:.3g}, tol {tol:.3g}")]


def _check_map(step: Step, out_dir: str, seed: int) -> list[tuple[str, bool, str]]:
    cfg = parse_config("", step.overrides)
    prec = cfg.output.precision
    w = cfg.meanfield.omega_bracket
    omega = np.linspace(-w, w, cfg.map.n_omega)
    tau = np.linspace(cfg.sweep.tau_start, cfg.sweep.tau_end, cfg.map.n_tau)
    want = omega.size * tau.size
    picks = set(np.random.default_rng(seed).choice(want, size=min(200, want),
                                                   replace=False).tolist())
    rel = 10.0 ** (1 - prec)

    def close(text: str, value: float) -> bool:
        return abs(float(text) - value) <= rel * abs(value)

    n_rows = 0
    bad = []
    with open(os.path.join(out_dir, "fringe_map.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            if n_rows in picks:
                i, j = divmod(n_rows, tau.size)
                fields = line.rstrip("\n").split(",")
                want_c = sf.count_rate(float(omega[i]), float(tau[j]), cfg.model)
                if not (len(fields) == 3 and close(fields[0], omega[i])
                        and close(fields[1], tau[j]) and close(fields[2], want_c)):
                    bad.append(n_rows)
            n_rows += 1
    return [("rows", n_rows == want, f"{n_rows} rows, want {want}"),
            ("samples", not bad and len(picks) > 0,
             f"{len(picks) - len(bad)}/{len(picks)} sampled rows match count_rate "
             f"to {prec} digits")]


def _check_oracle(step: Step, out_dir: str) -> list[tuple[str, bool, str]]:
    cfg = parse_config("", step.overrides)
    rows = _rows(os.path.join(out_dir, "oracle.csv"))
    want = cfg.oracle.n_outputs + 1
    cols = ["mean_omega_rad_per_ns", "mass_err"]
    if cfg.lattice.n > 1:
        cols += ["se_mean", "se_var"]
    finite = all(_finite(r[c]) for r in rows for c in cols)
    return [("rows", len(rows) == want, f"{len(rows)} rows, want {want}"),
            ("finite", finite and bool(rows), f"{', '.join(cols)} finite in every row")]


def _check_compare(step: Step, rows) -> list[tuple[str, bool, str]]:
    worst = max((abs(r.oracle_mean - r.meanfield_omega) / abs(r.meanfield_omega)
                 for r in rows), default=math.inf)
    finite = all(math.isfinite(v) for r in rows
                 for v in (r.oracle_mean, r.meanfield_omega, r.flatness_error))
    return [("rows", len(rows) == len(step.taus), f"{len(rows)} rows"),
            ("finite", finite, "oracle and mean-field values finite"),
            ("mean_5pct", worst <= 0.05, f"worst relative gap {worst:.4f} (<= 0.05)")]


def check_step(step: Step, out_dir: str, result, seed: int) -> list[tuple[str, bool, str]]:
    """Named (check, ok, detail) triples for one finished call."""
    if step.sub is None:
        return _check_compare(step, result)
    if step.sub == "sweep":
        return _check_sweep(step, out_dir)
    if step.sub == "steady":
        return _check_steady(step, out_dir)
    if step.sub == "fringe-map":
        return _check_map(step, out_dir, seed)
    return _check_oracle(step, out_dir)
