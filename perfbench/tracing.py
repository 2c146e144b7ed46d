"""Layer tracing from outside the program.

The traced pass replaces each binding of a public spinfringe function in
every module namespace that imports it (``meanfield.count_rate_curvature``,
``sweep.relax_to_steady``, ...) with a wrapper that records one span per
call.  Callers resolve these names at call time, so every call is
attributed to the module that made it; calls a module makes to its own
functions are not wrapped, except the few in ``OWN_BINDINGS``.  No file of
the program changes.

A span is (name, start, end, parent, pass id) plus a work count and the
id of the exception it raised (-1 for none).  Names read ``<caller>/<layer>.<function>``.
Spans live in flat arrays while the program runs and are written out once
when the run ends.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
import types
from array import array

import numpy as np

# Bindings to a module's own functions that the metrics need, with the
# caller to attribute them to ("bench" is the benchmark itself).
OWN_BINDINGS = {
    ("cli", "main"): "bench",
    ("compare", "compare_meanfield"): "bench",
    ("langevin", "evolve_trajectories"): "langevin",
}
CURVATURE_CALLERS = ("meanfield", "fokker_planck", "langevin", "compare")


def _points(args, kwargs) -> int:
    omega = args[0] if args else kwargs["omega"]
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    if type(omega) is float and type(tau) is float:
        return 1
    return np.broadcast(omega, tau).size


# Work counted from a call's arguments and result, per traced function.
_WORK = {
    "fringe.count_rate_curvature": lambda a, k, r: _points(a, k),
    "fringe.count_rate": lambda a, k, r: _points(a, k),
    "meanfield.steady_states": lambda a, k, r: len(r),
    "sweep.run_sweep": lambda a, k, r: sum(s.jumped for s in r),
    "sweep.nullcline": lambda a, k, r: len({b for pt in r for b in pt.branch_ids}),
    # Moment reports evaluate the curvature once per trajectory each.
    "langevin.evolve_trajectories": lambda a, k, r: r[0].shape[0] * len(r[1]),
}


class Tracer:
    """Span recorder that wraps the program's public-function bindings."""

    def __init__(self):
        self.names: list[str] = []
        self.errors: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.error = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._pass = 0
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def _error_id(self, name: str) -> int:
        if name not in self.errors:
            self.errors.append(name)
        return self.errors.index(name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str, work):
        nid = self._id(span)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.pass_id.append(self._pass)
            self.error.append(-1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.work.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = self._error_id(type(exc).__name__)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public cross-module binding, plus ``OWN_BINDINGS``."""
        pkg = importlib.import_module("spinfringe")
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"spinfringe.{info.name}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("spinfringe.")):
                    continue
                home = obj.__module__.rpartition(".")[2]
                caller = info.name if home != info.name else OWN_BINDINGS.get((info.name, attr))
                if caller is None:
                    continue
                func = f"{home}.{obj.__name__}"
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{caller}/{func}", _WORK.get(func)))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def begin_pass(self, pass_id: int):
        self._pass = pass_id

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.asarray(self.name), "parent": np.asarray(self.parent),
                "pass_id": np.asarray(self.pass_id), "error": np.asarray(self.error),
                "start": np.asarray(self.start), "end": np.asarray(self.end),
                "work": np.asarray(self.work)}

    def save(self, path: str):
        np.savez_compressed(path, names=np.asarray(self.names),
                            errors=np.asarray(self.errors, dtype=str), **self.arrays())


def layer_metrics(tr: Tracer, pass_id: int, rows: int, nbytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Self time is a span's duration minus the time its direct children
    cover.  ``rows`` and ``nbytes`` are what the pass's cli calls wrote.
    """
    a = tr.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = dur - child
    in_pass = a["pass_id"] == pass_id
    callers = np.array([n.partition("/")[0] for n in tr.names] + [""])
    funcs = np.array([n.partition("/")[2] for n in tr.names] + [""])
    name = a["name"]
    # Name id of each span's parent; the extra last name stands for "none".
    parent_name = np.where(has_parent, name[a["parent"]], len(tr.names))

    def sel(func: str, caller: str | None = None) -> np.ndarray:
        ids = (funcs == func) & ((callers == caller) if caller is not None else True)
        return in_pass & ids[name]

    def under(func: str) -> np.ndarray:
        return (funcs == func)[parent_name]

    def total(x, mask) -> float:
        return float(np.sum(x[mask]))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    curv = sel("fringe.count_rate_curvature")
    out = {}
    for c in CURVATURE_CALLERS:
        out[f"fringe.curvature_calls.{c}"] = float(np.sum(sel("fringe.count_rate_curvature", c)))
        out[f"fringe.curvature_points.{c}"] = total(a["work"], sel("fringe.count_rate_curvature", c))
    out["fringe.curvature_s"] = total(dur, curv)
    out["fringe.count_rate_s"] = total(dur, sel("fringe.count_rate"))
    out["fringe.count_rate_points"] = total(a["work"], sel("fringe.count_rate"))

    steady = sel("meanfield.steady_states")
    relax = sel("meanfield.relax_to_steady")
    roots = total(a["work"], steady)
    steady_ms = dur[steady] * 1e3
    out["meanfield.steady_states_s"] = total(dur, steady)
    out["meanfield.roots"] = roots
    out["meanfield.curvature_calls_per_root"] = ratio(
        float(np.sum(curv & under("meanfield.steady_states"))), roots)
    out["meanfield.tau_p50_ms"] = float(np.percentile(steady_ms, 50)) if steady_ms.size else 0.0
    out["meanfield.tau_p98_ms"] = float(np.percentile(steady_ms, 98)) if steady_ms.size else 0.0
    out["meanfield.relax_s"] = total(dur, relax)
    out["meanfield.curvature_calls_per_relax"] = ratio(
        float(np.sum(curv & under("meanfield.relax_to_steady"))), float(np.sum(relax)))

    run_sweep, null = sel("sweep.run_sweep"), sel("sweep.nullcline")
    out["sweep.run_sweep_s"] = total(dur, run_sweep)
    out["sweep.nullcline_s"] = total(dur, null)
    out["sweep.self_s"] = total(own, run_sweep | null | sel("sweep.fringe_map"))
    out["sweep.jumps"] = total(a["work"], run_sweep)
    out["sweep.branches"] = total(a["work"], null)

    fp1, fp2 = sel("fokker_planck.fp_grid_solve"), sel("fokker_planck.fp_grid_solve_2d")
    grid_err = tr.errors.index("GridTooSmallError") if "GridTooSmallError" in tr.errors else -2
    out["fokker_planck.solve_s_1d"] = total(dur, fp1)
    out["fokker_planck.solve_s_2d"] = total(dur, fp2)
    out["fokker_planck.solve_calls"] = float(np.sum(fp1 | fp2))
    out["fokker_planck.grid_retries"] = float(np.sum((fp1 | fp2) & (a["error"] == grid_err)))

    evolve = sel("langevin.evolve_trajectories")
    steps = total(a["work"], curv & under("langevin.evolve_trajectories")) \
        - total(a["work"], evolve)
    out["langevin.evolve_s"] = total(dur, evolve)
    out["langevin.traj_steps"] = steps
    out["langevin.ns_per_traj_step"] = ratio(out["langevin.evolve_s"] * 1e9, steps)

    cmp_ = sel("compare.compare_meanfield")
    out["compare.compare_s"] = total(dur, cmp_)
    out["compare.self_s"] = total(own, cmp_)

    out["config.parse_s"] = total(dur, sel("config.parse_config"))

    main = sel("cli.main")
    out["cli.main_s"] = total(dur, main)
    out["cli.self_s"] = total(own, main)
    out["cli.rows"] = float(rows)
    out["cli.bytes_written"] = float(nbytes)
    out["cli.ns_per_row"] = ratio(out["cli.self_s"] * 1e9, rows)
    out["trace.spans"] = float(np.sum(in_pass))
    return out
