"""Benchmark of the spinfringe simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree.  The program is imported from
``src/`` of that tree and nowhere else; without it the benchmark exits
with code 2 before measuring anything.  Each workload runs in a child
process (``worker.py``) with one thread and BLAS held to one thread.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced pass.  End-to-end times are scaled to the
reference speed (``refspeed.py``); the measured ones are printed too.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers for people, with the environment.  The full record, every pass included, is written to
``.perfbench/`` at the root of the tree.

``--smoke`` runs every workload at a tiny size in both modes and checks
that the metric names and units match ``BENCHMARK.json`` and that every
output check passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import refspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(ROOT, ".perfbench")
TIME_LIMIT = 175.0
SETUP_REPS = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"norm_wall_s": "s", "norm_cpu_s": "s", "norm_items_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = ("import sys, spinfringe\n"
              "from spinfringe.config import parse_config\n"
              "parse_config('', sys.argv[1:])\n")


def layer_unit(name: str) -> str:
    for marker, unit in (("us_per_call", "us"), ("ns_per", "ns"), ("_ms", "ms"),
                         ("_pct", "%"), ("bytes", "B")):
        if marker in name:
            return unit
    return "s" if name.endswith("_s") or "_s_" in name else "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    import numpy as np
    import platform

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # else git would search parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    fastest, median = contention_probe()
    return {
        "nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name", "unknown"),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "loadavg_start": list(load),
        "probe_ms_fastest": fastest, "probe_ms_median": median,
        # One core's worth of load can be the previous benchmark run itself.
        "noisy": load[0] > nproc - 0.5 or median > 1.25 * fastest,
    }


def contention_probe(samples: int = 300) -> tuple[float, float]:
    """Fastest and median time of a fixed 0.3 ms loop, in ms.

    The load average cannot see other machines' work on a shared core;
    a median well above the fastest sample can.  The first 0.1 s are
    not counted: a core waking from idle runs slow at first."""
    times = []
    t_end = time.perf_counter() + 0.1
    while time.perf_counter() < t_end:
        sum(range(10000))
    for _ in range(samples):
        t0 = time.perf_counter()
        sum(range(10000))
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times), statistics.median(times)


def run_child(cmd: list[str], deadline: float) -> float:
    """Run a child to completion; returns its wall time.

    The wait blocks, with a watchdog for the deadline.  subprocess's own
    timeout loop polls in steps of up to 50 ms and would round set-up
    times up to them."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def measure_setup(overrides: list[str], reps: int, deadline: float,
                  warm_up: bool) -> list[tuple[float, float]]:
    """Fresh interpreter, ``import spinfringe`` and ``parse_config``: the
    measured and the scaled time of each start.  The warm-up start also
    compiles the byte code and is not counted."""
    cmd = [sys.executable, "-c", SETUP_CODE, *overrides]
    if warm_up:
        run_child(cmd, deadline)
    samples = []
    for _ in range(reps):
        elapsed = run_child(cmd, deadline)
        samples.append((elapsed, elapsed * refspeed.scale(*refspeed.after(elapsed))))
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               deadline: float) -> dict:
    os.makedirs(STATE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=STATE)
    result = os.path.join(work, "result.json")
    try:
        run_child([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--work-dir", work, "--result", result] + (["--smoke"] if smoke else []),
                  deadline)
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
        trace_file = os.path.join(work, f"trace-{workload}.npz")
        if os.path.exists(trace_file):
            os.replace(trace_file, os.path.join(STATE, f"trace-{workload}.npz"))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the full record with the result line."""
    from workloads import plan

    deadline = time.monotonic() + TIME_LIMIT
    env = environment()
    overrides = plan(workload, seed, smoke)[0].overrides
    reps = 2 if smoke else SETUP_REPS
    # Half the set-up samples before the workload and half after it, so
    # that they spread over the run like the passes do.
    setup = [] if trace else measure_setup(overrides, reps // 2, deadline, warm_up=True)
    record = run_worker(workload, seed, seconds, trace, smoke, deadline)
    passes = record["passes"] + record.get("traced", [])
    attempted = sum(p["calls"] + len(p["checks"]) for p in passes)
    failed = sum(p["calls_failed"] + sum(not ok for _, ok, _ in p["checks"]) for p in passes)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in record["layer"].items()}
    else:
        setup += measure_setup(overrides, reps - reps // 2, deadline, warm_up=False)
        wall = [p["wall_s"] for p in passes]
        values = {
            "norm_wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
            "norm_cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in passes),
            "norm_items_per_s": statistics.median(p["items"] / (p["wall_s"] * p["scale"])
                                                  for p in passes),
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["wall_quartiles_s"] = quartiles(wall)
        record["scale_quartiles"] = quartiles([p["scale"] for p in passes])
        record["setup_samples_s"] = setup
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record.update(env=env, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  fail_frac=failed / attempted, result=line)
    return record


def report(rec: dict):
    """Human-readable lines; the JSON result line comes after them."""
    print(f"# env {json.dumps(rec['env'])}")
    if rec["env"]["noisy"]:
        print("# warning: the load average or the contention probe at start "
              "suggests a busy machine")
    passes = rec["passes"] + rec.get("traced", [])
    for p in passes:
        for name, ok, detail in p["checks"]:
            if not ok:
                print(f"# check FAILED {name}: {detail}")
    if "wall_quartiles_s" in rec:
        q1, q2, q3 = rec["wall_quartiles_s"]
        print(f"# measured wall_s median {q2:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
              f"{len(rec['passes'])} passes")
        q1, q2, q3 = rec["scale_quartiles"]
        print(f"# reference-speed scale median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}")
    if "kernel_sizes" in rec:
        print(f"# kernel sizes {json.dumps(rec['kernel_sizes'])}")
    print(f"# fail_frac {rec['fail_frac']:.6g} ({rec['result']['failed']} of "
          f"{rec['result']['attempted']} calls and checks)")
    for name, m in rec["result"]["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


def smoke() -> int:
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok_all = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rec = run(workload, 1, 1.0, trace, smoke=True)
            got = {k: m["unit"] for k, m in rec["result"]["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            failed = [f"{n}: {d}" for p in rec["passes"] + rec.get("traced", [])
                      for n, ok, d in p["checks"] if not ok]
            ok = rec["result"]["correct"] and got == want and not failed
            ok_all &= ok
            print(f"{'PASS' if ok else 'FAIL'} {workload} trace={trace} "
                  f"checks={rec['result']['attempted']} failed={rec['result']['failed']}"
                  + ("" if got == want else f" metrics differ: {sorted(set(got.items()) ^ set(want.items()))}")
                  + "".join(f"\n  {f}" for f in failed))
    return 0 if ok_all else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that run_child stops the child it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "spinfringe", "__init__.py")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    rec = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    report(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
