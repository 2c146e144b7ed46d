"""Command-line drivers: reproducible runs writing CSV/NDJSON plus a sidecar.

    spinfringe <subcommand> --config <path> [--set key=value ...]
               [--out <dir>] [--seed N]

Subcommands: fringe-map, sweep, steady, oracle, rate.  Every run writes
its data file(s) and a ``<subcommand>_meta.txt`` sidecar holding the
full effective configuration (defaults marked), the seed, and library
versions, so runs sharing an output directory keep their provenance.
Identical configuration and seed give byte-identical data files.  Exit
codes: 0 ok, 2 configuration or I/O error, 3 numeric failure (a
machine-readable JSON error record goes to stderr and partial outputs
are removed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import RunConfig, config_to_text, parse_config
from .errors import ConfigParseError, ConfigValidationError, SpinFringeError
from .fokker_planck import GridSpec, auto_grid, fp_grid_solve
from .fringe import trion_flip_rate
from .langevin import langevin_ensemble
from .meanfield import relax_to_steady
from .sweep import fringe_map, nullcline, run_sweep

_SUBCOMMANDS = ("fringe-map", "sweep", "steady", "oracle", "rate")


def _fmt(x: float, precision: int) -> str:
    return format(float(x), f".{precision}g")


class _RunWriter:
    """Collects output files, writes them atomically, removes partials."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []

    def write_text(self, name: str, text: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        tmp = path + ".tmp"
        # Listed as the .tmp file until the rename lands, so that rollback
        # also removes a partial write.
        self.written.append(tmp)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
        self.written[-1] = path
        return path

    def rollback(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _csv(rows: list[list[str]], header: list[str]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _sidecar(cfg: RunConfig, subcommand: str, seed: int, outputs: list[str]) -> str:
    lines = [
        f"tool = spinfringe {__version__}",
        f"numpy = {np.__version__}",
        f"subcommand = {subcommand}",
        f"seed = {seed}",
        f"outputs = {','.join(sorted(os.path.basename(o) for o in outputs))}",
        "",
        "# effective configuration (defaults marked)",
        config_to_text(cfg, mark_defaults=True).rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def _run_fringe_map(cfg: RunConfig, writer: _RunWriter, seed: int) -> list[str]:
    prec = cfg.output.precision
    w = cfg.meanfield.omega_bracket
    omega = np.linspace(-w, w, cfg.map.n_omega)
    tau = np.linspace(cfg.sweep.tau_start, cfg.sweep.tau_end, cfg.map.n_tau)
    grid = fringe_map(omega, tau, cfg.model)
    rows = []
    for i, om in enumerate(omega):
        for j, tv in enumerate(tau):
            rows.append([_fmt(om, prec), _fmt(tv, prec), _fmt(grid[i, j], prec)])
    return [writer.write_text("fringe_map.csv", _csv(
        rows, ["omega_rad_per_ns", "tau_ns", "count"]))]


def _run_sweep(cfg: RunConfig, writer: _RunWriter, seed: int) -> list[str]:
    prec = cfg.output.precision
    samples = run_sweep(cfg.sweep, cfg.model, cfg.meanfield)
    rows = [[_fmt(s.tau, prec), _fmt(s.omega_f, prec), _fmt(s.count, prec),
             _fmt(s.beta_f, prec), str(int(s.stable)), str(int(s.jumped)),
             s.direction] for s in samples]
    return [writer.write_text("sweep.csv", _csv(
        rows, ["tau_ns", "omega_f_rad_per_ns", "count", "beta_per_ns",
               "stable", "jumped", "pass"]))]


def _run_steady(cfg: RunConfig, writer: _RunWriter, seed: int) -> list[str]:
    prec = cfg.output.precision
    taus = cfg.sweep.grid()
    points = nullcline(taus, cfg.model, cfg.meanfield)
    rows = []
    for pt in points:
        for root, branch in zip(pt.roots, pt.branch_ids):
            rows.append([_fmt(pt.tau, prec), _fmt(root.omega_f, prec),
                         str(int(root.stable)), _fmt(root.residual, prec),
                         str(branch)])
    return [writer.write_text("steady.csv", _csv(
        rows, ["tau_ns", "omega_f_rad_per_ns", "stable", "residual", "branch"]))]


def _oracle_grid_spec(cfg: RunConfig) -> GridSpec:
    o = cfg.oracle
    if o.m_min != o.m_max:
        width = o.init_width if o.init_width > 0 else (o.m_max - o.m_min) / 40.0
        return GridSpec(o.m_min, o.m_max, o.n_cells, o.init_mean, width,
                        o.cfl, o.n_outputs)
    # Auto-size around the mean-field quasi-equilibrium at this tau.
    w_f = relax_to_steady(0.0, o.tau, cfg.model, cfg.meanfield).omega_f
    spec = auto_grid(cfg.lattice, min(w_f, 0.0), max(w_f, 0.0), o.tau, cfg.model,
                     o.n_cells)
    width = o.init_width if o.init_width > 0 else spec.init_width
    return replace(spec, init_mean=o.init_mean, init_width=width, cfl=o.cfl,
                   n_outputs=o.n_outputs)


def _run_oracle(cfg: RunConfig, writer: _RunWriter, seed: int) -> list[str]:
    o = cfg.oracle
    lat = cfg.lattice
    t_end = o.t_end if o.t_end > 0 else 10.0 / max(lat.d_bath, 1e-300)
    method = o.method
    if method == "auto":
        method = "grid" if lat.n == 1 else "langevin"
    if method == "grid":
        if lat.n != 1:
            raise ConfigValidationError(
                "oracle.method = grid requires lattice.n = 1", key="oracle.method")
        _, reports = fp_grid_solve(lat, o.tau, t_end, _oracle_grid_spec(cfg),
                                   cfg.model)
    else:
        dt = o.dt if o.dt > 0 else None
        width = o.init_width if o.init_width > 0 else 0.0
        reports = langevin_ensemble(lat, o.tau, t_end, o.n_traj, seed,
                                    cfg.model, dt=dt, n_outputs=o.n_outputs,
                                    init_mean=o.init_mean, init_width=width)

    prec = cfg.output.precision
    fields = ["t_ns", "mean_omega_rad_per_ns", "var_omega", "trion_drift_exact",
              "trion_drift_meanfield", "flatness_error", "se_mean", "se_var",
              "mass_err"]
    if cfg.output.format == "ndjson":
        lines = []
        for r in reports:
            rec = {
                "t_ns": float(_fmt(r.t, prec)),
                "mean_omega_rad_per_ns": float(_fmt(r.mean_omega, prec)),
                "var_omega": float(_fmt(r.var_omega, prec)),
                "trion_drift_exact": float(_fmt(r.trion_drift_exact, prec)),
                "trion_drift_meanfield": float(_fmt(r.trion_drift_meanfield, prec)),
                "flatness_error": float(_fmt(r.flatness_error, prec)),
                "se_mean": None if r.se_mean is None else float(_fmt(r.se_mean, prec)),
                "se_var": None if r.se_var is None else float(_fmt(r.se_var, prec)),
                "mass_err": float(_fmt(r.mass_err, prec)),
            }
            lines.append(json.dumps(rec, sort_keys=False))
        return [writer.write_text("oracle.ndjson", "\n".join(lines) + "\n")]
    rows = []
    for r in reports:
        rows.append([
            _fmt(r.t, prec), _fmt(r.mean_omega, prec), _fmt(r.var_omega, prec),
            _fmt(r.trion_drift_exact, prec), _fmt(r.trion_drift_meanfield, prec),
            _fmt(r.flatness_error, prec),
            "" if r.se_mean is None else _fmt(r.se_mean, prec),
            "" if r.se_var is None else _fmt(r.se_var, prec),
            _fmt(r.mass_err, prec),
        ])
    return [writer.write_text("oracle.csv", _csv(rows, fields))]


def _run_rate(cfg: RunConfig, writer: _RunWriter, seed: int) -> list[str]:
    prec = cfg.output.precision
    h = cfg.hole
    rate = trion_flip_rate(h)
    rows = [[_fmt(h.b0, prec), _fmt(h.g_h, prec), _fmt(h.gamma_rad, prec),
             _fmt(h.inv_r3_avg, prec), _fmt(rate, prec)]]
    return [writer.write_text("rate.csv", _csv(
        rows, ["b0_tesla", "g_h", "gamma_rad_per_ns", "inv_r3_avg_per_nm3",
               "trion_flip_rate_per_ns"]))]


_RUNNERS = {
    "fringe-map": _run_fringe_map,
    "sweep": _run_sweep,
    "steady": _run_steady,
    "oracle": _run_oracle,
    "rate": _run_rate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfringe",
        description="Nuclear-feedback Ramsey-fringe simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="configuration file (defaults apply if omitted)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    writer = _RunWriter(args.out)
    try:
        text = ""
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = parse_config(text, overrides=list(args.set))
        seed = cfg.seed if args.seed is None else args.seed
        outputs = _RUNNERS[args.subcommand](cfg, writer, seed)
        writer.write_text(f"{args.subcommand}_meta.txt",
                          _sidecar(cfg, args.subcommand, seed, outputs))
    except BaseException as exc:
        writer.rollback()
        if not isinstance(exc, (OSError, SpinFringeError)):
            raise
        record = {"error": "IOError" if isinstance(exc, OSError) else type(exc).__name__,
                  "message": str(exc)}
        if getattr(exc, "tau", None) is not None:
            record["tau_ns"] = float(exc.tau)
        print(json.dumps(record), file=sys.stderr)
        return 2 if isinstance(exc, (OSError, ConfigParseError, ConfigValidationError)) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
