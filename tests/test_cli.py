"""Command-line drivers: files, determinism, exit codes, error records."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import spinfringe as sf
from spinfringe import cli
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
    # The child imports spinfringe from where this process found it.
    src = os.path.dirname(os.path.dirname(sf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spinfringe.cli", "rate", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert (tmp_path / "rate.csv").exists()


def test_grid_method_with_multisite_lattice_exits_2(tmp_path, capsys):
    # "grid" is no oracle.method on any lattice: "auto" runs the grid on one site.
    for n in (3, 1):
        code = main(["oracle", "--out", str(tmp_path),
                     "--set", f"lattice.n = {n}",
                     "--set", "oracle.method = grid"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigValidationError"
        assert "(key 'oracle.method', line 2)" in record["message"]
        assert not list(tmp_path.iterdir())


def test_oracle_start_without_mass_on_the_grid_exits_3(tmp_path, capsys):
    # The initial profile, 1000 widths off the grid, underflows to zero.
    code = main(["oracle", "--out", str(tmp_path),
                 "--set", "oracle.m_min = -1", "--set", "oracle.m_max = 1",
                 "--set", "oracle.init_mean = 100", "--set", "oracle.init_width = 0.1",
                 "--set", "oracle.t_end = 5"])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "GridTooSmallError"
    assert "initial density has mass 0.0" in record["message"]
    assert (record["tau_ns"], record["t_ns"]) == (0.17, 0.0)
    assert list(tmp_path.iterdir()) == []


def test_default_oracle_grid_takes_one_solve(tmp_path, grid_solves):
    assert main(["oracle", "--out", str(tmp_path)]) == 0
    ((_, spec, error),) = grid_solves
    assert error is None
    assert spec.n_cells < 640  # the default nominal count, trimmed


def test_auto_sized_oracle_grid_widens_where_the_density_outgrows_it(tmp_path, monkeypatch,
                                                                     grid_solves):
    # On cells of +-20 the default density (mean -1.2, deviation 4.8 at
    # t_end) reaches the edge cells; widened by half to +-30 it fits.  The
    # run goes on there from the initial profile, as a grid set by hand on
    # +-30 with the same cells and start does.
    narrow = sf.GridSpec(m_min=-20.0, m_max=20.0, n_cells=96, init_width=1.5,
                         cfl=0.8, n_outputs=8)
    monkeypatch.setattr(cli, "auto_grid", lambda *args: narrow)
    assert main(["oracle", "--out", str(tmp_path / "auto")]) == 0
    (_, first, error), (_, wide, retry_error) = grid_solves
    assert first.m_min == -20.0 and isinstance(error, sf.GridTooSmallError)
    assert (wide.m_min, wide.m_max, retry_error) == (-30.0, 30.0, None)
    assert main(["oracle", "--out", str(tmp_path / "hand"),
                 "--set", "oracle.m_min = -30", "--set", "oracle.m_max = 30",
                 "--set", "oracle.n_cells = 96", "--set", "oracle.init_width = 1.5"]) == 0
    assert ((tmp_path / "auto" / "oracle.csv").read_bytes()
            == (tmp_path / "hand" / "oracle.csv").read_bytes())


def test_sidecar_echoes_every_schema_key(tmp_path):
    from spinfringe.config import _SCHEMA

    assert main(["rate", "--out", str(tmp_path), "--set", "hole.g_h = 0.4"]) == 0
    meta = (tmp_path / "rate_meta.txt").read_text()
    for key in _SCHEMA:
        assert f"{key} = " in meta
    assert "hole.g_h = 0.4\n" in meta  # explicitly set: no default marker


def test_failed_write_leaves_no_tmp_file(tmp_path, monkeypatch, capsys):
    # A rename that fails after the .tmp file is written, or a write that
    # fails after the first chunks of a table, must not leave the partial
    # file behind once the run rolls back, and it exits 2 with the I/O
    # error record.
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("spinfringe.cli.os.replace", refuse)
    assert main(["rate", "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "IOError", "message": "rename refused"}
    assert list(tmp_path.iterdir()) == []

    partial = []

    class FullDisk:
        """The .tmp file, on a disk that fills up at the third chunk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            for i, chunk in enumerate(chunks):
                if i == 2:
                    self.fh.flush()
                    partial.append(os.path.getsize(self.fh.name))
                    raise OSError("disk full")
                self.fh.write(chunk)

    monkeypatch.setattr(cli, "_CHUNK", 4)
    monkeypatch.setattr("spinfringe.cli.open",
                        lambda *args, **kwargs: FullDisk(open(*args, **kwargs)),
                        raising=False)
    assert main(["fringe-map", "--out", str(tmp_path), "--set", "map.n_omega = 5",
                 "--set", "map.n_tau = 7"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "IOError", "message": "disk full"}
    assert partial[0] > 0  # the header and the first four rows were on disk
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
    ("lattice.a_peak = 1e300", "lattice.a_peak"),    # a_peak**2 overflows
    ("lattice.a_peak = 1e150", "lattice.a_peak"),    # a_peak**3 overflows
    ("meanfield.ratio = 1e-320", "meanfield.ratio"),  # the ps2 factor underflows
    ("model.sigma_ghz = 1e-300", "model.sigma_ghz"),  # sigma**2 underflows
    ("hole.b0 = 1e-300", "hole.b0"),                  # the golden-rule rate overflows
    ("hole.g_h = 1e300", "hole.g_h"),
])
def test_underflowing_derived_default_exits_2(tmp_path, capsys, setting, key):
    # The first two used to divide by zero inside parse_config: exit 1 and
    # a traceback.  A tiny sigma passed parsing and divided by zero in the
    # pumping terms; an overflowing hole rate raised OverflowError.
    assert main(["rate", "--out", str(tmp_path), "--set", setting]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert f"(key '{key}', line 1)" in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_oracle_with_a_peak_whose_cube_overflows_exits_2(tmp_path, capsys):
    # It used to exit 0 with nan in trion_drift_exact: a**3 overflowed in
    # the density moments.
    assert main(["oracle", "--out", str(tmp_path), "--set", "lattice.a_peak = 1e150"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert "a_peak**3 is not finite (key 'lattice.a_peak', line 1)" in record["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub", ["sweep", "steady"])
@pytest.mark.parametrize("setting, key, line", [
    (["sweep.tau_step = 1e-300"], "sweep.tau_step", 1),
    (["sweep.tau_end = 1e300", "sweep.tau_step = 1e-300"], "sweep.tau_step", 2),
    (["sweep.tau_end = 1e300"], "sweep.tau_end", 1),
])
def test_delay_count_beyond_an_array_exits_2(tmp_path, capsys, sub, setting, key, line):
    # These used to exit 1 in SweepSchedule.grid: "Maximum allowed size
    # exceeded", or OverflowError for an infinite count.
    argv = [sub, "--out", str(tmp_path)]
    for item in setting:
        argv += ["--set", item]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"
    assert "tau_step is too small for tau_end" in record["message"]
    assert f"(key '{key}', line {line})" in record["message"]
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
    assert record["t_ns"] == 0.0
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


@pytest.mark.parametrize("sub, chunk", [*((sub, 3) for sub in _SMALL),
                                        ("fringe-map", None)])
def test_tables_across_chunk_boundaries(tmp_path, monkeypatch, sub, chunk):
    # Three-row chunks split every small table mid-way; the 131 x 127 map
    # is longer than one chunk of the default size.
    if chunk is None:
        overrides = ["map.n_omega = 131", "map.n_tau = 127", "sweep.tau_end = 0.4"]
        assert 131 * 127 > cli._CHUNK
    else:
        overrides = _SMALL[sub]
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    argv = ["oracle" if sub == "langevin" else sub, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    assert main([*argv, "--set", "output.format = ndjson"]) == 0
    name, text = _expected_table(sub, sf.parse_config("", overrides))
    assert (tmp_path / name).read_text() == text
    header, rows = read_csv(tmp_path / name)
    recs = [json.loads(line) for line in
            (tmp_path / name.replace(".csv", ".ndjson")).read_text().splitlines()]
    assert len(recs) == len(rows)
    for row, rec in zip(rows, recs):
        assert list(rec) == header
        assert [_cell_value(cell) for cell in row] == list(rec.values())


def test_ndjson_text_cell_holding_a_comma_is_one_string():
    chunks = cli._table("t.ndjson", ["name", "x"],
                        [np.array(["a,b", "c"]), np.array([1.5, 2.0])], 17)
    recs = [json.loads(line) for line in "".join(chunks).splitlines()]
    assert recs == [{"name": "a,b", "x": 1.5}, {"name": "c", "x": 2.0}]


@pytest.mark.parametrize("precision", [3, 17])
def test_ndjson_records_are_json_dumps_of_each_record(monkeypatch, precision):
    # Eleven rows in four-row chunks; every kind of cell, each value encoded once.
    monkeypatch.setattr(cli, "_CHUNK", 4)
    floats = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, 1.5, 1 / 3, -2e-300,
              1e300, 0.1]
    names = ["a,b", "", 'q"uote', "\u00fc", "a,b", "", "x", "y", "x", "", "z"]
    counts = [n - 5 for n in range(11)]
    flags = [n % 3 == 0 for n in range(11)]
    header = ["x", "empty", "name", "count", "flag"]
    text = "".join(cli._table("t.ndjson", header,
                              [np.array(floats), [None] * 11, np.array(names),
                               np.array(counts), np.array(flags)], precision))
    want = "".join(json.dumps(dict(zip(header, rec))) + "\n" for rec in zip(
        [float(format(x, f".{precision}g")) for x in floats], [None] * 11,
        [name or None for name in names], counts, [int(flag) for flag in flags]))
    assert text == want


@pytest.mark.parametrize("precision", [3, 17])
def test_float_cells_keep_the_text_of_their_own_bits(precision):
    # Distinct values are formatted once: -0.0 must not share 0.0's text.
    col = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, 1.0, 0.0])
    text = "".join(cli._table("t.csv", ["x"], [col], precision))
    assert text.splitlines() == ["x", *(format(x, f".{precision}g") for x in col.tolist())]


@pytest.mark.parametrize("name", ["t.csv", "t.ndjson"])
def test_percent_in_cells_and_header_is_written_verbatim(name):
    # The row template is a % format: cells are its arguments, and NDJSON
    # keys sit inside it escaped as %%.
    header = ["share_%", "%s", "name", "word"]
    names = ["%", "%s", "100%", "%(x)d"]
    words = np.array(["%%", "%d%"])
    codes = np.array([0, 1, 1, 0])
    text = "".join(cli._table(name, header, [np.array([0.5, 1.0, 2.0, -0.0]),
                                             np.arange(4), np.array(names),
                                             words[codes]], 12))
    records = zip([0.5, 1.0, 2.0, -0.0], range(4), names, words[codes].tolist())
    if name.endswith(".ndjson"):
        want = "".join(json.dumps(dict(zip(header, rec))) + "\n" for rec in records)
    else:
        want = "share_%,%s,name,word\n" + "".join(
            f"{x:.12g},{i},{t},{w}\n" for x, i, t, w in records)
    assert text == want
    # The grid form writes its axis texts and keys into the row templates.
    header = ["%s_omega", "tau_%", "%(count)d"]
    x, y = np.array([-0.5, 2.0]), np.array([0.25, 1.0, 1e300])
    grid = np.array([[1.0, -0.0, 1 / 3], [np.inf, 7.0, 0.5]])
    text = "".join(cli._table(name, header, [x, y, grid], 12))
    records = [(a, b, grid[i, k]) for i, a in enumerate(x.tolist())
               for k, b in enumerate(y.tolist())]
    if name.endswith(".ndjson"):
        want = "".join(json.dumps(dict(zip(header, (float(f"{v:.12g}") for v in rec))))
                       + "\n" for rec in records)
    else:
        want = "%s_omega,tau_%,%(count)d\n" + "".join(
            f"{a:.12g},{b:.12g},{c:.12g}\n" for a, b, c in records)
    assert text == want


@pytest.mark.parametrize("name", ["t.csv", "t.ndjson"])
@pytest.mark.parametrize("chunk", [3, 4])
@pytest.mark.parametrize("precision", [3, 17])
def test_factor_column_writes_the_bytes_of_its_plain_column(monkeypatch, name, chunk,
                                                            precision):
    # The grid form [x, y, grid] writes each axis as a factor of the rows:
    # its bytes are those of the row-expanded plain columns.  (2, 9) has
    # rows longer than a chunk, (8, 1) one column.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    counts = [0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, 1e300, -1e300, 0.1]
    header = ["x", "y", "count"]
    for n, m in [(6, 2), (8, 1), (2, 9)]:
        grid = np.resize(np.array(counts), (n, m))
        x = np.resize(np.array([-0.0, 1 / 3, -2e-300, 1e300, 0.0]), n)
        y = np.resize(np.array([0.05, -0.0, 1 / 3, 1e300]), m)
        chunks = list(cli._table(name, header, [x, y, grid], precision))
        plain = "".join(cli._table(name, header, [np.repeat(x, m), np.tile(y, n),
                                                  grid.ravel()], precision))
        assert "".join(chunks) == plain
        assert len(plain.splitlines()) == n * m + (name == "t.csv")
        assert max(text.count("\n") for text in chunks) <= cli._CHUNK


def test_writing_a_table_holds_one_chunk_in_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK", 256)
    rng = np.random.default_rng(5)
    writer = cli._RunWriter(str(tmp_path))

    def peak(n, grid=False, n_tau=64):
        omega, tau = np.linspace(-3, 3, n // n_tau), np.linspace(0.05, 1.5, n_tau)
        if grid:  # the fringe map's form: both axes and the 2-D count grid
            columns = [omega, tau, rng.random((omega.size, n_tau))]
        else:
            columns = [np.repeat(omega, n_tau), np.tile(tau, n // n_tau), rng.random(n)]
        tracemalloc.start()
        try:
            writer.write_text("t.csv", cli._table("t.csv", ["omega", "tau", "count"],
                                                  columns, 17))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2048)  # first-call allocations
    assert peak(8192) < 1.5 * peak(2048)
    small_grid = peak(2048, grid=True)
    assert peak(8192, grid=True) < 1.5 * small_grid
    # Grid rows of 300 cells, longer than a chunk, are written in pieces.
    assert peak(2400, grid=True, n_tau=300) < 1.5 * small_grid


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the scan misses a root pair at tau = 0.31: BracketEscapeError, exit 3")
def test_sweep_at_the_1e5_decade_completes(tmp_path):
    assert main(["sweep", "--out", str(tmp_path), "--set", "meanfield.ratio=80039.71381038739",
                 "--set", "sweep.tau_step=0.01"]) == 0
