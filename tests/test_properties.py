"""Property tests: fringe bounds and symmetry, steady-state structure, config
text, data-file cells."""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinfringe as sf
from spinfringe import cli
from spinfringe.config import config_to_text, parse_config
from spinfringe.meanfield import (_bisect_brackets, _residual_tol, _root_table, _scan_grids,
                                  _scan_sizes)

P = sf.ModelParams()
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

models = st.builds(sf.ModelParams, omega0=st.floats(0.0, 200.0), T=st.floats(0.1, 100.0),
                   beta0=st.floats(0.0, 10.0), sigma=st.floats(0.1, 50.0),
                   s_p=st.floats(0.01, 0.5))
omegas = st.floats(-200.0, 200.0)


@st.composite
def meanfield_draws(draw):
    """Criterion 3's ranges: ratio 1e-4..1, kappa 1e-4..1e-2, tau 0.02..1.5 ns."""
    ratio = 10 ** draw(st.floats(-4.0, 0.0))
    kappa = 10 ** draw(st.floats(-4.0, -2.0))
    return draw(st.floats(0.02, 1.5)), sf.MeanFieldParams(kappa=kappa, alpha=kappa / ratio)


@SETTINGS
@given(models, omegas, st.floats(0.0, 3.0))
def test_count_rate_within_saturation_bounds(p, omega, tau):
    assert 0.0 <= sf.count_rate(omega, tau, p) <= 2.0 * p.s_p


@SETTINGS
@given(models, omegas)
def test_pump_rate_exactly_even(p, omega):
    assert sf.pump_rate(-omega, p) == sf.pump_rate(omega, p)


@SETTINGS
@given(meanfield_draws())
def test_steady_states_sorted_converged_alternating(draw):
    tau, mf = draw
    roots = sf.steady_states(tau, P, mf)
    omegas_f = [r.omega_f for r in roots]
    assert omegas_f == sorted(omegas_f)
    for r in roots:
        # Where the drift moves by more than the tolerance per ulp, the
        # refinement stops at float resolution: a sign change within one ulp.
        g_prev, g, g_next = (sf.drift(np.nextafter(r.omega_f, d), tau, P, mf)
                             for d in (-np.inf, r.omega_f, np.inf))
        tol = mf.relax_tol * mf.kappa * P.sigma
        assert r.residual <= tol or g_prev * g <= 0.0 or g * g_next <= 0.0
    assert all(a.stable != b.stable for a, b in zip(roots, roots[1:]))


@SETTINGS
@given(meanfield_draws())
def test_refinement_ends_in_its_cell_converged_or_at_the_better_end(draw):
    # One root per scan bracket, inside the bracket's cell.  Each has
    # |drift| <= tol, or it sits at float resolution, where it is the end
    # with the smaller |drift|: the drift changes sign within one ulp and
    # is no smaller in magnitude there.
    tau, mf = draw
    taus = np.array([tau])
    grid, _ = _scan_grids(taus, P, mf, _scan_sizes(taus, P, mf))
    gvals = np.asarray(sf.drift(grid, tau, P, mf))
    cells = np.flatnonzero(gvals[:-1] * gvals[1:] < 0.0)
    tol = _residual_tol(P, mf)
    w, gw = _bisect_brackets(np.full(cells.size, tau), grid[cells], grid[cells + 1],
                             gvals[cells], gvals[cells + 1], P, mf, tol)
    assert w.size == gw.size == cells.size
    assert np.all((grid[cells] <= w) & (w <= grid[cells + 1]))
    assert gw.tolist() == [sf.drift(x, tau, P, mf) for x in w.tolist()]
    for x, g in zip(w.tolist(), gw.tolist()):
        if abs(g) <= tol:
            continue
        neighbours = [sf.drift(np.nextafter(x, d), tau, P, mf) for d in (-np.inf, np.inf)]
        assert any(g * g_n <= 0.0 and abs(g) <= abs(g_n) for g_n in neighbours)


@SETTINGS
@given(meanfield_draws())
def test_root_count_parity_follows_edge_drift(draw):
    # Every sign change between -W and W is a root, so the count is odd
    # exactly when the drift has opposite signs at the two edges.
    tau, mf = draw
    g_lo, g_hi = (sf.drift(w, tau, P, mf) for w in (-mf.omega_bracket, mf.omega_bracket))
    assume(g_lo != 0.0 and g_hi != 0.0)
    n_roots = len(sf.steady_states(tau, P, mf))
    assert (n_roots % 2 == 1) == ((g_lo > 0.0) != (g_hi > 0.0))


@SETTINGS
@given(meanfield_draws(), st.integers(1, 900))
def test_root_table_is_invariant_under_scaling_kappa_and_alpha(draw, k):
    # Scaling kappa and alpha by 2**-k scales every drift value and the
    # residual tolerance exactly: the roots and stable flags keep their
    # bits, and each residual scales by exactly 2**-k.
    tau, mf = draw
    scaled = sf.MeanFieldParams(kappa=math.ldexp(mf.kappa, -k), alpha=math.ldexp(mf.alpha, -k))
    (omega, stable, residual), = _root_table([tau], P, mf)
    (omega_k, stable_k, residual_k), = _root_table([tau], P, scaled)
    assert omega_k.tobytes() == omega.tobytes()
    assert stable_k.tobytes() == stable.tobytes()
    assert residual_k.tobytes() == np.ldexp(residual, -k).tobytes()


config_values = st.fixed_dictionaries({}, optional={
    "model.omega0_ghz": st.floats(0.0, 50.0),
    "model.sigma_ghz": st.floats(0.5, 3.0),
    "model.T": st.floats(1.0, 100.0),
    "model.s_p": st.floats(0.01, 0.5),
    "meanfield.ratio": st.floats(1e-2, 1e8),
    "meanfield.ratio_units": st.sampled_from(["ns2", "ghz2", "ps2"]),
    "meanfield.kappa": st.floats(1e-6, 1.0),
    "sweep.direction": st.sampled_from(["forward", "backward", "round-trip"]),
    "sweep.omega_init": st.floats(-20.0, 20.0),
    "lattice.n": st.integers(1, 6),
    "lattice.envelope_width": st.floats(0.0, 4.0),
    "oracle.n_traj": st.integers(100, 10 ** 5),
    "output.format": st.sampled_from(["csv", "ndjson"]),
    "output.precision": st.integers(3, 17),
    "seed": st.integers(0, 2 ** 31),
})


@SETTINGS
@given(config_values)
def test_config_text_round_trips(values):
    text = "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in values.items())
    cfg = parse_config(text)
    echoed = config_to_text(cfg)
    cfg2 = parse_config(echoed)
    assert cfg2 == cfg
    assert config_to_text(cfg2) == echoed
    assert all(dict(cfg.effective)[k] == v for k, v in values.items())


float_cells = st.one_of(
    st.floats(),  # NaN, +-inf and subnormals included
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-308,
                     1e300, -1e300]))


@SETTINGS
@given(st.lists(float_cells, min_size=1, max_size=40), st.integers(3, 17))
def test_table_float_cells_are_their_own_format(values, precision):
    # The same values in two plain columns, the second a negative-stride view.
    col = np.array(values)
    columns = [col, col[::-1].copy()[::-1]]
    texts = [format(v, f".{precision}g") for v in values]
    csv = "".join(cli._table("t.csv", ["x", "y"], columns, precision))
    assert csv == "x,y\n" + "".join(f"{t},{t}\n" for t in texts)
    ndjson = "".join(cli._table("t.ndjson", ["x", "y"], columns, precision))
    assert ndjson.splitlines() == [json.dumps({"x": float(t), "y": float(t)})
                                   for t in texts]
    # The grid form: each value as the x axis, the y axis and a count.
    grid = np.broadcast_to(col, (col.size, col.size))
    csv = "".join(cli._table("t.csv", ["x", "y", "c"], [col, col, grid], precision))
    assert csv == "x,y,c\n" + "".join(f"{s},{t},{t}\n" for s in texts for t in texts)
    ndjson = "".join(cli._table("t.ndjson", ["x", "y", "c"], [col, col, grid], precision))
    assert ndjson.splitlines() == [json.dumps({"x": float(s), "y": float(t), "c": float(t)})
                                   for s in texts for t in texts]


def test_a_failing_property_reports_its_failure(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns with a DeprecationWarning.  Under the suite's own warning
    # filters that must not stop the run: the other test still runs.
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(pyproject),
         str(tmp_path / "test_two.py")],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
