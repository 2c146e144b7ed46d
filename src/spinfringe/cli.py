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
and written in chunks of at most ``_CHUNK`` rows, so a run holds one
chunk's text at a time.  A chunk's text is one ``%`` operation on a row
template made once per file.  The fringe map's omega and tau axes are
formatted once per grid value and written into the templates of its
chunks, which hold whole grid rows (or pieces of a row longer than a
chunk), so each map row formats only its count.  Identical
configuration and seed give byte-identical data files.
Exit codes: 0 ok, 2 configuration or I/O error, 3 numeric failure (a
machine-readable JSON error record, with the delay ``tau_ns`` and time
``t_ns`` of the failure where known, goes to stderr and partial outputs
are removed).
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


# Most rows in a chunk of a data file.  Chunks of 2**10 to 2**16 rows format
# the 451k-row 601 x 751 map equally fast within a shared 2-core host's noise
# (medians 0.16-0.22 s over six rounds), and 5-25% faster than one chunk of
# the whole table, whose text and cells take 52 MB of traced memory against
# 2.0 MB at 2**14 rows; a write holds one chunk's text in memory.
_CHUNK = 1 << 14


def _table(name: str, header: list[str], columns: list,
           precision: int) -> Iterator[str]:
    """The text of data file ``name`` in chunks of at most ``_CHUNK`` rows:
    CSV, or NDJSON for a ``.ndjson`` name.

    The CSV header is a chunk of its own.  Each chunk is one ``%``
    operation, ``(row * n) % cells``, on a row template that holds one
    spec per column: ``%.{precision}g`` for a float column, ``%d`` for an
    int or flag column, ``%s`` for a text column, and nothing for a column
    of None, whose cells are empty.  A CSV row joins its cells with
    commas.  An NDJSON record holds the same cells as ``json.dumps`` of
    the record's dict would write them: ``float(cell)`` for a float,
    ``int(cell)`` for an int or flag, the string for a text cell and null
    for an empty cell.  Its template holds the JSON text of each key, with
    ``%`` escaped as ``%%``, and a float or text cell comes encoded, as
    ``%s``.

    A column is an array of values, one per row, except in a table whose
    last column is 2-D: ``[x, y, grid]`` is the table of rows ``(x[i],
    y[k], grid[i, k])``, ``k`` fastest.  Each axis value is formatted (and
    encoded) once per file, into ``pre[i]``, the text of row ``i`` up to
    its y cell, and ``parts[k]``, the rest of the row, whose one spec is
    the count's; only the counts are formatted per row (see
    ``_grid_chunks``).
    """
    ndjson = name.endswith(".ndjson")
    if ndjson:
        keys = [json.dumps(h).replace("%", "%%") + ": " for h in header]
        opening, sep, closing = "{", ", ", "}\n"
    else:
        keys, opening, sep, closing = [""] * len(header), "", ",", "\n"
        yield ",".join(header) + "\n"
    if np.ndim(columns[-1]) == 2:
        spec, fill = _column(np.ravel(columns[-1]), precision, ndjson)
        pre = [opening + keys[0] + text + sep
               for text in _cell_texts(columns[0], precision, ndjson)]
        parts = [keys[1] + text + sep + keys[2] + spec + closing
                 for text in _cell_texts(columns[1], precision, ndjson)]
        yield from _grid_chunks(pre, parts, fill, ndjson)
        return
    specs, fills = zip(*(_column(col, precision, ndjson) for col in columns))
    fills = [fill for fill in fills if fill is not None]
    row = opening + sep.join(k + s for k, s in zip(keys, specs)) + closing
    n_rows = len(columns[0])
    for start in range(0, n_rows, _CHUNK):
        stop = min(start + _CHUNK, n_rows)
        cells = np.empty((stop - start, len(fills)), dtype=object)
        for j, fill in enumerate(fills):
            cells[:, j] = fill(start, stop)
        yield (row * (stop - start)) % tuple(cells.ravel().tolist())


def _grid_chunks(pre: list[str], parts: list[str], fill, ndjson: bool) -> Iterator[str]:
    """The chunks of a grid table's rows: grid row ``i``'s template is
    ``pre[i] + pre[i].join(parts)``, and ``fill`` gives the counts of the
    flattened grid.  One ``%`` fills a block of whole grid rows, at most
    ``_CHUNK`` table rows; a grid row longer than ``_CHUNK`` is split by
    columns into blocks of at most ``_CHUNK`` cells.
    """
    n_y = len(parts)
    rows_per_block, cells_per_block = max(_CHUNK // n_y, 1), min(n_y, _CHUNK)
    for i in range(0, len(pre), rows_per_block):
        j = min(i + rows_per_block, len(pre))
        for c in range(0, n_y, cells_per_block):
            d = min(c + cells_per_block, n_y)
            tail = ["", *parts[c:d]]  # p.join(tail) is p + p.join(parts[c:d])
            cells = fill(i * n_y + c, (j - 1) * n_y + d)
            yield "".join([p.join(tail) for p in pre[i:j]]) % tuple(
                cells if ndjson else cells.tolist())


def _cell_texts(col, precision: int, ndjson: bool) -> list[str]:
    """The text of each cell of ``_table`` column ``col``, with ``%``
    escaped as ``%%`` for a row template."""
    spec, fill = _column(col, precision, ndjson)
    cells = np.asarray(fill(0, len(col)), dtype=object)
    return [(spec % v).replace("%", "%%") for v in cells]


def _column(col, precision: int, ndjson: bool):
    """``(spec, fill)`` of one ``_table`` column: its spec in the row
    template, and ``fill(start, stop)`` giving its cells for rows
    [start, stop), or None for a column of None.  The cells of an NDJSON
    float or text column are their encoded JSON texts, in a list.
    """
    col = np.asarray(col)
    kind = col.dtype.kind
    if kind == "O":
        return ("null" if ndjson else ""), None
    number = f"%.{precision}g"
    if ndjson and kind in "fU":
        # JSON text of the record value: a float's repr (or NaN, Infinity),
        # a string, or null for an empty string.
        encode = (lambda v: _json_float(number % v)) if kind == "f" else (
            lambda t: json.dumps(t or None))
        return "%s", lambda start, stop: list(map(encode, col[start:stop].tolist()))
    spec = number if kind == "f" else "%s" if kind == "U" else "%d"
    return spec, lambda start, stop: col[start:stop]


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
            [omega, tau, grid])


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
                       "branch"], [list(col) for col in zip(*rows)])


def _run_oracle(cfg: RunConfig):
    o = cfg.oracle
    lat = cfg.lattice
    t_end = o.t_end if o.t_end > 0 else 10.0 / max(lat.d_bath, 1e-300)
    if o.method == "langevin" or lat.n > 1:
        reports = langevin_ensemble(lat, o.tau, t_end, o.n_traj, cfg.seed, cfg.model,
                                    dt=o.dt if o.dt > 0 else None,
                                    n_outputs=o.n_outputs, init_mean=o.init_mean,
                                    init_width=o.init_width)
    elif o.m_min < o.m_max:  # a grid set by hand is solved once and fails loudly
        width = o.init_width if o.init_width > 0 else (o.m_max - o.m_min) / 40.0
        spec = GridSpec(o.m_min, o.m_max, o.n_cells, o.init_mean, width, o.cfl,
                        o.n_outputs)
        _, reports = fp_grid_solve(lat, o.tau, t_end, spec, cfg.model)
    else:  # auto-sized around the mean-field quasi-equilibrium at this tau
        w_f = relax_to_steady(0.0, o.tau, cfg.model, cfg.meanfield).omega_f
        spec = auto_grid(lat, min(w_f, 0.0), max(w_f, 0.0), o.tau, cfg.model, o.n_cells)
        spec = replace(spec, init_mean=o.init_mean, cfl=o.cfl, n_outputs=o.n_outputs,
                       init_width=o.init_width if o.init_width > 0 else spec.init_width)
        *_, reports = _solve_widening(lat, o.tau, t_end, spec, cfg.model)
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
