"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spinfringe as sf  # noqa: E402
from spinfringe import cli, fringe, meanfield  # noqa: E402
import refspeed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def test_tracer_attributes_calls_to_callers_and_restores_bindings():
    p = sf.ModelParams()
    mf = sf.MeanFieldParams(kappa=1e-3, alpha=1e-3 / 1e-2)
    tracer = Tracer()
    tracer.install()
    try:
        assert meanfield.count_rate_curvature is not fringe.count_rate_curvature
        points = cli.nullcline([0.3, 0.302], p, mf)
    finally:
        tracer.uninstall()
    assert meanfield.count_rate_curvature is fringe.count_rate_curvature
    m = layer_metrics(tracer, 0, rows=0, nbytes=0)
    assert m["meanfield.roots"] == sum(len(pt.roots) for pt in points)
    assert m["fringe.curvature_calls.meanfield"] > m["meanfield.roots"]
    assert m["fringe.curvature_calls.langevin"] == 0
    assert m["sweep.branches"] >= max(len(pt.roots) for pt in points)
    assert 0.0 <= m["sweep.self_s"] < m["sweep.nullcline_s"]
    assert m["meanfield.steady_states_s"] <= m["sweep.nullcline_s"]


def test_reference_stretch_and_scale():
    took, loops = refspeed.after(0.0)
    assert took >= refspeed.REF_MIN_S and loops >= 1
    # A host twice as slow as the reference: loops take 2 * REF_LOOP_S.
    assert refspeed.scale(20 * refspeed.REF_LOOP_S, 10) == 0.5


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nullcline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
