"""One workload run in its own process; the parent ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --work-dir DIR --result FILE [--smoke]

After one untimed warm-up pass at smoke size, passes repeat until the
next one would end past ``--seconds``; there is always at least one.  A
pass times its calls only.  Each call is followed by a stretch of the
reference loop (``refspeed.py``), and its output checks run after the
pass.
With ``--trace 1`` half the time goes to untraced passes and half to
traced ones, and the fringe-kernel microbenchmarks run last.  The result
file holds every pass and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import refspeed
from kernels import measure as measure_kernels
from tracing import Tracer, layer_metrics
from workloads import check_step, items, plan, run_step


def _written(out_dir: str) -> tuple[int, int]:
    """Data rows and total bytes of the files a cli call wrote."""
    rows = size = 0
    for entry in os.scandir(out_dir):
        size += entry.stat().st_size
        if entry.name.endswith((".csv", ".ndjson")):
            with open(entry.path, "rb") as fh:
                lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
            rows += lines - entry.name.endswith(".csv")
    return rows, size


def run_pass(steps, work_dir: str, seed: int, check: bool = True) -> dict:
    """Make the calls of one pass, each followed by an untimed reference
    stretch; ``scale`` turns the pass's times into scaled times."""
    results = []
    wall = cpu = ref_s = 0.0
    ref_loops = 0
    gc.collect()
    for i, step in enumerate(steps):
        out = os.path.join(work_dir, f"{i}-{step.name}")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            results.append((step, out, run_step(step, out), None))
        except Exception:  # the run goes on; the failure is counted and shown
            results.append((step, out, None, traceback.format_exc()))
        call_s = time.perf_counter() - t0
        wall += call_s
        cpu += time.process_time() - c0
        chunk_s, loops = refspeed.after(call_s)
        ref_s += chunk_s
        ref_loops += loops
    record = {"wall_s": wall, "cpu_s": cpu, "scale": refspeed.scale(ref_s, ref_loops),
              "items": sum(items(s) for s in steps),
              "calls": len(steps), "calls_failed": 0, "checks": [], "rows": 0, "bytes": 0}
    for step, out, result, error in results:
        if error is not None or (step.sub is not None and result != 0):
            record["calls_failed"] += 1
            print(f"call {step.name} failed: {error or f'exit code {result}'}", file=sys.stderr)
            continue
        if step.sub is not None:
            rows, size = _written(out)
            record["rows"] += rows
            record["bytes"] += size
        if check:
            try:
                found = check_step(step, out, result, seed)
            except Exception:
                found = [("check_error", False, traceback.format_exc())]
            record["checks"] += [(f"{step.name}.{n}", ok, d) for n, ok, d in found]
    return record


def run_passes(steps, work_dir: str, seed: int, budget: float,
               tracer: Tracer | None = None) -> list[dict]:
    passes = []
    t_begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass(len(passes))
        passes.append(run_pass(steps, work_dir, seed))
        if time.perf_counter() - t_begin + passes[-1]["wall_s"] > budget:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    steps = plan(args.workload, args.seed, args.smoke)
    run_pass(plan(args.workload, args.seed, smoke=True), args.work_dir, args.seed, check=False)
    result: dict = {}
    if not args.trace:
        result["passes"] = run_passes(steps, args.work_dir, args.seed, args.seconds)
    else:
        result["passes"] = run_passes(steps, args.work_dir, args.seed, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(steps, args.work_dir, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        per_pass = [layer_metrics(tracer, i, p["rows"], p["bytes"]) for i, p in enumerate(traced)]
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        plain = statistics.median(p["wall_s"] * p["scale"] for p in result["passes"])
        layer["trace.overhead_pct"] = \
            (statistics.median(p["wall_s"] * p["scale"] for p in traced) / plain - 1.0) * 100.0
        tracer.save(os.path.join(os.path.dirname(args.result), f"trace-{args.workload}.npz"))
        kernel, result["kernel_sizes"] = measure_kernels(args.seed, args.smoke)
        layer.update(kernel)
        result["layer"] = layer
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
