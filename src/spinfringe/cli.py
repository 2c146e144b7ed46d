"""Command-line drivers: reproducible runs writing CSV/NDJSON plus a sidecar.

    spinfringe <subcommand> --config <path> [--set key=value ...]
               [--out <dir>] [--seed N]

Subcommands: fringe-map, sweep, steady, oracle, rate.  Every run writes
its data file and a ``<subcommand>_meta.txt`` sidecar holding the full
effective configuration (defaults marked), the seed, and library
versions, so runs sharing an output directory keep their provenance.
``--seed N`` is the override ``seed = N``, applied after the ``--set``
items: the echo shows it, and ``--seed`` with ``--set seed=...`` is a
duplicate key.  A seed lies in [0, 2**128).  Data files are formatted
and written in chunks of ``_CHUNK`` rows, so a run holds one chunk's
text at a time.  Identical configuration and seed give byte-identical
data files.  Exit codes: 0 ok, 2 configuration or I/O error, 3 numeric
failure (a machine-readable JSON error record, with the delay ``tau_ns``
and time ``t_ns`` of the failure where known, goes to stderr and partial
outputs are removed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from . import __version__
from .compare import _solve_widening
from .config import RunConfig, config_to_text, parse_config
from .errors import ConfigParseError, ConfigValidationError, SpinFringeError
from .fokker_planck import GridSpec, auto_grid, fp_grid_solve
from .fringe import trion_flip_rate
from .langevin import langevin_ensemble
from .meanfield import relax_to_steady
from .sweep import fringe_map, nullcline, run_sweep


# Rows per chunk of a data file.  Chunks of 2**12 to 2**16 rows format a
# 451k-row map about equally fast, and about 20% faster than one chunk of
# the whole table; a write holds one chunk's text in memory.
_CHUNK = 1 << 14


def _table(name: str, header: list[str], columns: list,
           precision: int) -> Iterator[str]:
    """The text of data file ``name`` in chunks of ``_CHUNK`` rows: CSV, or
    NDJSON for a ``.ndjson`` name.

    The CSV header is a chunk of its own.  A cell is ``format(v, spec)``
    with spec ``.{precision}g`` for a float column, ``d`` for an int or
    flag column and ``s`` for a text column; a column of None gives empty
    cells.  A CSV row joins its cells with commas.  An NDJSON record holds
    the same cells: ``float(cell)`` for a float, ``int(cell)`` for an int or
    flag, the string for a text cell and null for an empty cell.  Its
    text is that of ``json.dumps`` on the record's dict, joined from the
    JSON text of each key and of each distinct value, each encoded once.
    """
    ndjson = name.endswith(".ndjson")
    columns = [np.asarray(col) for col in columns]
    if ndjson:
        # Each NDJSON cell carries its key: '{"k0": v0', then ', "k1": v1', ...
        keys = [("{" if i == 0 else ", ") + json.dumps(h) + ": " for i, h in enumerate(header)]
    else:
        keys = [None] * len(header)
        yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _CHUNK):
        cells = [_cells(col[start:start + _CHUNK], precision, key)
                 for col, key in zip(columns, keys)]
        if ndjson:
            yield "}\n".join(map("".join, zip(*cells))) + "}\n"
        else:
            yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _cells(col: np.ndarray, precision: int, key: str | None) -> list:
    """The cells of one column chunk, or with an NDJSON ``key`` their JSON texts.

    Each distinct value is formatted once, and for NDJSON encoded once
    and prefixed with ``key``.  A float is keyed by its bits, so that
    -0.0, 0.0 and every NaN keep their own text.
    """
    if col.dtype == object:
        return ["" if key is None else key + "null"] * len(col)
    kind = col.dtype.kind
    spec = {"f": f".{precision}g", "U": "s"}.get(kind, "d")
    bits = col.view(f"i{col.itemsize}") if kind == "f" else col
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [format(v, spec) for v in distinct.view(col.dtype).tolist()]
    if key is not None:
        # The JSON text of the record value: an int cell is its own.
        encode = {"f": _json_float, "U": lambda t: json.dumps(t or None)}.get(kind, str)
        texts = [key + encode(t) for t in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _json_float(cell: str) -> str:
    """``json.dumps(float(cell))``: the float's repr, or NaN / Infinity / -Infinity."""
    x = float(cell)
    return repr(x) if math.isfinite(x) else json.dumps(x)


class _RunWriter:
    """Collects output files, writes them atomically, removes partials."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []

    def write_text(self, name: str, chunks: Iterable[str]) -> str:
        """Write the text ``chunks`` to ``name`` through a ``.tmp`` file that
        is renamed into place once the last chunk is written."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        tmp = path + ".tmp"
        # Listed as the .tmp file until the rename lands, so that rollback
        # also removes a partial write.
        self.written.append(tmp)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
        self.written[-1] = path
        return path

    def rollback(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _sidecar(cfg: RunConfig, subcommand: str, output: str) -> str:
    lines = [
        f"tool = spinfringe {__version__}",
        f"numpy = {np.__version__}",
        f"subcommand = {subcommand}",
        f"seed = {cfg.seed}",
        f"outputs = {output}",
        "",
        "# effective configuration (defaults marked)",
        config_to_text(cfg, mark_defaults=True).rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def _run_fringe_map(cfg: RunConfig):
    w = cfg.meanfield.omega_bracket
    omega = np.linspace(-w, w, cfg.map.n_omega)
    tau = np.linspace(cfg.sweep.tau_start, cfg.sweep.tau_end, cfg.map.n_tau)
    grid = fringe_map(omega, tau, cfg.model)
    return ("fringe_map", ["omega_rad_per_ns", "tau_ns", "count"],
            [np.repeat(omega, tau.size), np.tile(tau, omega.size), grid.ravel()])


def _run_sweep(cfg: RunConfig):
    samples = run_sweep(cfg.sweep, cfg.model, cfg.meanfield)
    return ("sweep", ["tau_ns", "omega_f_rad_per_ns", "count", "beta_per_ns",
                      "stable", "jumped", "pass"],
            [[getattr(s, a) for s in samples] for a in
             ("tau", "omega_f", "count", "beta_f", "stable", "jumped", "direction")])


def _run_steady(cfg: RunConfig):
    points = nullcline(cfg.sweep.grid(), cfg.model, cfg.meanfield)
    rows = [(pt.tau, root.omega_f, root.stable, root.residual, branch)
            for pt in points for root, branch in zip(pt.roots, pt.branch_ids)]
    return ("steady", ["tau_ns", "omega_f_rad_per_ns", "stable", "residual",
                       "branch"], list(zip(*rows)))


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


def _run_oracle(cfg: RunConfig):
    o = cfg.oracle
    lat = cfg.lattice
    t_end = o.t_end if o.t_end > 0 else 10.0 / max(lat.d_bath, 1e-300)
    if o.method == "auto" and lat.n == 1:
        spec = _oracle_grid_spec(cfg)
        if o.m_min < o.m_max:  # a grid set by hand fails loudly
            _, reports = fp_grid_solve(lat, o.tau, t_end, spec, cfg.model)
        else:
            *_, reports = _solve_widening(lat, o.tau, t_end, spec, cfg.model)
    else:
        reports = langevin_ensemble(lat, o.tau, t_end, o.n_traj, cfg.seed, cfg.model,
                                    dt=o.dt if o.dt > 0 else None,
                                    n_outputs=o.n_outputs, init_mean=o.init_mean,
                                    init_width=o.init_width)
    # Grid reports carry no standard errors: those columns are empty.
    attrs = ("t", "mean_omega", "var_omega", "trion_drift_exact",
             "trion_drift_meanfield", "flatness_error", "se_mean", "se_var", "mass_err")
    return ("oracle", ["t_ns", "mean_omega_rad_per_ns", *attrs[2:]],
            [[getattr(r, a) for r in reports] for a in attrs])


def _run_rate(cfg: RunConfig):
    h = cfg.hole
    return ("rate", ["b0_tesla", "g_h", "gamma_rad_per_ns", "inv_r3_avg_per_nm3",
                     "trion_flip_rate_per_ns"],
            [[h.b0], [h.g_h], [h.gamma_rad], [h.inv_r3_avg], [trion_flip_rate(h)]])


# Each runner returns (file stem, header, columns) for ``_table``; ``main``
# adds the ``output.format`` extension.
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
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="configuration file (defaults apply if omitted)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="the 'seed' override: same as --set seed=N")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    writer = _RunWriter(args.out)
    try:
        text = ""
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        seed = [] if args.seed is None else [f"seed = {args.seed}"]
        cfg = parse_config(text, overrides=[*args.set, *seed])
        stem, header, columns = _RUNNERS[args.subcommand](cfg)
        name = f"{stem}.{cfg.output.format}"
        writer.write_text(name, _table(name, header, columns, cfg.output.precision))
        writer.write_text(f"{args.subcommand}_meta.txt",
                          [_sidecar(cfg, args.subcommand, name)])
    except BaseException as exc:
        writer.rollback()
        if not isinstance(exc, (OSError, SpinFringeError)):
            raise
        record = {"error": "IOError" if isinstance(exc, OSError) else type(exc).__name__,
                  "message": str(exc)}
        for attr, key in (("tau", "tau_ns"), ("t", "t_ns")):
            if getattr(exc, attr, None) is not None:
                record[key] = float(getattr(exc, attr))
        print(json.dumps(record), file=sys.stderr)
        return 2 if isinstance(exc, (OSError, ConfigParseError, ConfigValidationError)) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
