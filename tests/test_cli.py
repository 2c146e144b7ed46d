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


def test_module_entrypoint_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spinfringe.cli", "rate", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "rate.csv").exists()


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


@pytest.mark.parametrize("setting", [
    ["oracle.n_cells = 8"],
    ["oracle.cfl = 0.95"],
    ["oracle.m_min = 1", "oracle.m_max = -1"],
])
def test_oracle_grid_settings_rejected_at_parse(tmp_path, capsys, setting):
    argv = ["oracle", "--out", str(tmp_path)]
    for item in setting:
        argv += ["--set", item]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert f"(key '{setting[0].split(' = ')[0]}', line 1)" in record["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setting, key", [
    ("lattice.a_peak = 1e-200", "lattice.a_peak"),   # a_peak**2 underflows
    ("meanfield.ratio = 1e-320", "meanfield.ratio"),  # the ps2 factor underflows
])
def test_underflowing_derived_default_exits_2(tmp_path, capsys, setting, key):
    # Both used to divide by zero inside parse_config: exit 1 and a traceback.
    assert main(["rate", "--out", str(tmp_path), "--set", setting]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert f"(key '{key}', line 1)" in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_seed_flag_is_the_seed_override_and_is_echoed(tmp_path):
    assert main(["rate", "--out", str(tmp_path), "--seed", "77"]) == 0
    meta = (tmp_path / "rate_meta.txt").read_text().splitlines()
    assert meta.count("seed = 77") == 2  # header and echo, no default marker
    assert not any(line.startswith("seed = 12345") for line in meta)


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "seed must be in [0, 2**128)"),
    (["--set", f"seed = {2 ** 128}"], "seed must be in [0, 2**128)"),
    (["--seed", "5", "--set", "seed = 5"], "duplicate key 'seed'"),
])
def test_seed_range_and_duplicate_exit_2(tmp_path, capsys, argv, message):
    # -1 used to reach the Philox key as a ValueError traceback.
    code = main(["oracle", "--out", str(tmp_path), "--set", "lattice.n = 2",
                 "--set", "oracle.n_traj = 100", *argv])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert message in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_langevin_oracle_without_bath_exits_3(tmp_path, capsys):
    # d_bath = 0 makes the default t_end 1e301 ns: the step floor stops
    # the run at once instead of an endless Euler loop.
    code = main(["oracle", "--out", str(tmp_path), "--set", "lattice.n = 4",
                 "--set", "lattice.d_bath = 0"])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "CflViolationError"
    assert record["tau_ns"] == 0.17  # the oracle.tau default
    assert list(tmp_path.iterdir()) == []


# Small runs of each subcommand; "langevin" is the oracle on a 2-site
# lattice, whose standard-error columns hold numbers.
_SMALL = {
    "fringe-map": ["map.n_omega = 4", "map.n_tau = 5", "sweep.tau_end = 0.4"],
    "sweep": ["sweep.tau_end = 0.2", "sweep.tau_step = 0.01"],
    "steady": ["sweep.tau_start = 0.8", "sweep.tau_end = 0.82",
               "sweep.tau_step = 0.01"],
    "oracle": ["oracle.m_min = -40", "oracle.m_max = 40", "oracle.n_cells = 64",
               "oracle.t_end = 20", "oracle.n_outputs = 4"],
    "langevin": ["lattice.n = 2", "oracle.n_traj = 200", "oracle.t_end = 10",
                 "oracle.n_outputs = 4"],
    "rate": [],
}


def _expected_table(sub, cfg):
    """(file name, text) rebuilt from the library, one format call per value."""
    prec = cfg.output.precision

    def fmt(x):
        return format(float(x), f".{prec}g")

    if sub == "fringe-map":
        w = cfg.meanfield.omega_bracket
        omega = np.linspace(-w, w, cfg.map.n_omega)
        tau = np.linspace(cfg.sweep.tau_start, cfg.sweep.tau_end, cfg.map.n_tau)
        grid = sf.fringe_map(omega, tau, cfg.model)
        name, header = "fringe_map.csv", "omega_rad_per_ns,tau_ns,count"
        rows = [[fmt(om), fmt(tv), fmt(grid[i, j])]
                for i, om in enumerate(omega) for j, tv in enumerate(tau)]
    elif sub == "sweep":
        name = "sweep.csv"
        header = "tau_ns,omega_f_rad_per_ns,count,beta_per_ns,stable,jumped,pass"
        rows = [[fmt(s.tau), fmt(s.omega_f), fmt(s.count), fmt(s.beta_f),
                 str(int(s.stable)), str(int(s.jumped)), s.direction]
                for s in sf.run_sweep(cfg.sweep, cfg.model, cfg.meanfield)]
    elif sub == "steady":
        name = "steady.csv"
        header = "tau_ns,omega_f_rad_per_ns,stable,residual,branch"
        rows = [[fmt(pt.tau), fmt(r.omega_f), str(int(r.stable)), fmt(r.residual),
                 str(b)]
                for pt in sf.nullcline(cfg.sweep.grid(), cfg.model, cfg.meanfield)
                for r, b in zip(pt.roots, pt.branch_ids)]
    elif sub == "rate":
        h = cfg.hole
        name = "rate.csv"
        header = "b0_tesla,g_h,gamma_rad_per_ns,inv_r3_avg_per_nm3,trion_flip_rate_per_ns"
        rows = [[fmt(h.b0), fmt(h.g_h), fmt(h.gamma_rad), fmt(h.inv_r3_avg),
                 fmt(sf.trion_flip_rate(h))]]
    else:
        o = cfg.oracle
        if sub == "oracle":
            spec = sf.GridSpec(o.m_min, o.m_max, o.n_cells, o.init_mean,
                               (o.m_max - o.m_min) / 40.0, o.cfl, o.n_outputs)
            _, reports = sf.fp_grid_solve(cfg.lattice, o.tau, o.t_end, spec, cfg.model)
        else:
            reports = sf.langevin_ensemble(cfg.lattice, o.tau, o.t_end, o.n_traj,
                                           cfg.seed, cfg.model, n_outputs=o.n_outputs)
        name = "oracle.csv"
        header = ("t_ns,mean_omega_rad_per_ns,var_omega,trion_drift_exact,"
                  "trion_drift_meanfield,flatness_error,se_mean,se_var,mass_err")
        rows = [[fmt(r.t), fmt(r.mean_omega), fmt(r.var_omega),
                 fmt(r.trion_drift_exact), fmt(r.trion_drift_meanfield),
                 fmt(r.flatness_error),
                 "" if r.se_mean is None else fmt(r.se_mean),
                 "" if r.se_var is None else fmt(r.se_var), fmt(r.mass_err)]
                for r in reports]
    return name, "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


@pytest.mark.parametrize("precision", [3, 17])
@pytest.mark.parametrize("sub", list(_SMALL))
def test_written_table_matches_per_value_format(tmp_path, sub, precision):
    overrides = [*_SMALL[sub], f"output.precision = {precision}"]
    argv = ["oracle" if sub == "langevin" else sub, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    name, text = _expected_table(sub, sf.parse_config("", overrides))
    assert (tmp_path / name).read_text() == text


def _cell_value(cell):
    """A CSV cell as its NDJSON value: null, a number or a text string."""
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def test_oracle_csv_and_ndjson_hold_equal_values(tmp_path):
    # Every subcommand honours output.format; text cells (the sweep's pass)
    # stay strings and flag cells integers.
    for sub, items in _SMALL.items():
        out = tmp_path / sub
        argv = ["oracle" if sub == "langevin" else sub, "--out", str(out)]
        for item in items:
            argv += ["--set", item]
        assert main(argv) == 0
        assert main([*argv, "--set", "output.format = ndjson"]) == 0
        stem = {"fringe-map": "fringe_map", "langevin": "oracle"}.get(sub, sub)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{stem}.csv", f"{stem}.ndjson", f"{argv[0]}_meta.txt"]), sub
        header, rows = read_csv(out / f"{stem}.csv")
        recs = [json.loads(line)
                for line in (out / f"{stem}.ndjson").read_text().splitlines()]
        assert len(recs) == len(rows) > 0, sub
        for row, rec in zip(rows, recs):
            assert list(rec) == header
            assert [_cell_value(cell) for cell in row] == list(rec.values()), sub
        if sub == "oracle":
            assert len(rows) == 5
            assert rows[0][header.index("se_mean")] == ""
        if sub == "sweep":
            assert {rec["pass"] for rec in recs} == {"fwd", "bwd"}
            assert {type(rec["stable"]) for rec in recs} == {int}
