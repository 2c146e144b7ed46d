"""Command-line drivers: files, determinism, exit codes, error records."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import spinfringe as sf
from spinfringe.cli import main


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_rate_subcommand_writes_estimate(tmp_path):
    assert main(["rate", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "rate.csv")
    assert header[-1] == "trion_flip_rate_per_ns"
    rate = float(rows[0][-1])
    assert 5e-9 < rate < 5e-7
    meta = (tmp_path / "rate_meta.txt").read_text()
    assert "subcommand = rate" in meta
    assert "hole.b0 = 4.0  # default" in meta


def test_sweep_alpha_zero_matches_bare_fringe(tmp_path):
    code = main(["sweep", "--out", str(tmp_path),
                 "--set", "meanfield.ratio = 1e30",
                 "--set", "meanfield.ratio_units = ns2",
                 "--set", "sweep.tau_end = 0.2",
                 "--set", "sweep.direction = forward"])
    assert code == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    p = sf.ModelParams()
    for row in rows:
        tau, omega_f, count = float(row[0]), float(row[1]), float(row[2])
        assert abs(omega_f) < 1e-6
        assert count == pytest.approx(sf.count_rate(0.0, tau, p), abs=1e-6)
        assert row[6] == "fwd"


def test_steady_alpha_zero_single_stable_row_per_tau(tmp_path):
    code = main(["steady", "--out", str(tmp_path),
                 "--set", "meanfield.ratio = 1e30",
                 "--set", "meanfield.ratio_units = ns2",
                 "--set", "sweep.tau_start = 0.1",
                 "--set", "sweep.tau_end = 0.3",
                 "--set", "sweep.tau_step = 0.05"])
    assert code == 0
    _, rows = read_csv(tmp_path / "steady.csv")
    taus = {row[0] for row in rows}
    assert len(rows) == len(taus)
    for row in rows:
        assert abs(float(row[1])) < 1e-4
        assert row[2] == "1"
        assert row[4] == "0"  # one branch throughout


def test_fringe_map_layout_tau_fastest(tmp_path):
    code = main(["fringe-map", "--out", str(tmp_path),
                 "--set", "map.n_omega = 5", "--set", "map.n_tau = 7",
                 "--set", "sweep.tau_end = 0.4"])
    assert code == 0
    _, rows = read_csv(tmp_path / "fringe_map.csv")
    assert len(rows) == 5 * 7
    omegas = [float(r[0]) for r in rows]
    taus = [float(r[1]) for r in rows]
    assert omegas[0] == omegas[6] != omegas[7]  # tau cycles fastest
    assert taus[0] != taus[1]
    p = sf.ModelParams()
    assert float(rows[10][2]) == pytest.approx(
        sf.count_rate(omegas[10], taus[10], p), rel=1e-10)


def test_oracle_ndjson_records(tmp_path):
    code = main(["oracle", "--out", str(tmp_path),
                 "--set", "output.format = ndjson",
                 "--set", "meanfield.ratio = 2.0",
                 "--set", "meanfield.ratio_units = ns2",
                 "--set", "meanfield.kappa = 0.02",
                 "--set", "lattice.f = 5e-5",
                 "--set", "oracle.tau = 0.17",
                 "--set", "oracle.n_outputs = 6",
                 "--set", "oracle.n_cells = 400"])
    assert code == 0
    lines = (tmp_path / "oracle.ndjson").read_text().splitlines()
    assert len(lines) == 7
    recs = [json.loads(line) for line in lines]
    assert recs[0]["t_ns"] == 0.0
    assert all(r["se_mean"] is None for r in recs)  # grid method
    assert recs[-1]["flatness_error"] < 0.05


def test_oracle_langevin_matches_sweep_quasi_equilibrium(tmp_path):
    # Cross-file check: the oracle's stationary mean sits within the
    # oracle/mean-field tolerance of the sweep's final point.
    common = ["--set", "meanfield.ratio = 2.0",
              "--set", "meanfield.ratio_units = ns2",
              "--set", "meanfield.kappa = 0.02",
              "--set", "lattice.f = 5e-5"]
    out_sweep = tmp_path / "s"
    out_oracle = tmp_path / "o"
    assert main(["sweep", "--out", str(out_sweep),
                 "--set", "sweep.tau_start = 0.05",
                 "--set", "sweep.tau_end = 0.17",
                 "--set", "sweep.tau_step = 0.002",
                 "--set", "sweep.direction = forward", *common]) == 0
    assert main(["oracle", "--out", str(out_oracle),
                 "--set", "oracle.tau = 0.17",
                 "--set", "oracle.t_end = 500", *common]) == 0
    _, sweep_rows = read_csv(out_sweep / "sweep.csv")
    _, oracle_rows = read_csv(out_oracle / "oracle.csv")
    omega_sweep = float(sweep_rows[-1][1])
    mean_oracle = float(oracle_rows[-1][1])
    assert mean_oracle == pytest.approx(omega_sweep, rel=0.05)


def test_identical_config_and_seed_byte_identical(tmp_path):
    args = ["--set", "sweep.tau_end = 0.3", "--seed", "77"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--out", str(a), *args]) == 0
    assert main(["sweep", "--out", str(b), *args]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep_meta.txt").read_bytes() == (b / "sweep_meta.txt").read_bytes()


def test_config_error_exits_2_with_record(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path), "--set", "model.T = -4"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert not (tmp_path / "sweep.csv").exists()


def test_numeric_error_exits_3_and_removes_partial_outputs(tmp_path, capsys):
    # Seeding the sweep outside the bracket fails fast with the offending
    # tau attached; no partial data files may remain.
    code = main(["sweep", "--out", str(tmp_path),
                 "--set", "sweep.omega_init = 1e6"])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "BracketEscapeError"
    assert record["tau_ns"] == pytest.approx(0.05)
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "sweep_meta.txt").exists()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spinfringe.cli", "rate", "--out",
         "/tmp/spinfringe_entry_test"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_grid_method_with_multisite_lattice_exits_2(tmp_path, capsys):
    code = main(["oracle", "--out", str(tmp_path),
                 "--set", "lattice.n = 3",
                 "--set", "oracle.method = grid"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert not list(tmp_path.iterdir())


def test_sidecar_echoes_every_schema_key(tmp_path):
    from spinfringe.config import _SCHEMA

    assert main(["rate", "--out", str(tmp_path), "--set", "hole.g_h = 0.4"]) == 0
    meta = (tmp_path / "rate_meta.txt").read_text()
    for key in _SCHEMA:
        assert f"{key} = " in meta
    assert "hole.g_h = 0.4\n" in meta  # explicitly set: no default marker


def test_failed_write_leaves_no_tmp_file(tmp_path, monkeypatch, capsys):
    # A rename that fails after the .tmp file is written must not leave
    # the partial file behind once the run rolls back, and it exits 2
    # with the I/O error record.
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("spinfringe.cli.os.replace", refuse)
    assert main(["rate", "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "IOError", "message": "rename refused"}
    assert list(tmp_path.iterdir()) == []
