"""Oracle final reports pinned to 1e-12 against recorded values.

ENS2 was recorded from the per-module moment and remainder functions
that the shared weighted-moments function replaced.  CMP3 was
re-recorded when the ensemble's auto step stopped depending on the
number of reports: its step went from 0.25 ns (a tenth of the output
interval) to the bath and chain bound of 0.5 ns.  Its ``oracle_mean``
moved by 0.37 standard errors, most of it a new Brownian path (the run
draws half as many normals); along one path, 0.5 ns steps against
0.25 ns steps move its mean by 0.01 standard errors.  The grid pins
(GRID1, GRID2, GRID1_BANDED and the grid compare rows CMP1 and CMP2)
were re-recorded from the step schedule that gives every output
interval the same whole number of equal steps.  They moved from the values of the earlier schedule, which took
full steps of the stability bound and a short step onto each output
time, by at most 8.2e-8 relative (GRID1_BANDED's ``mass_err``) and, in
CMP2, by at most 1.9e-6 relative; every shift is well inside that
earlier scheme's own error, measured by running it at half the ``cfl``.
GRID1_BANDED is a 1-site grid run long enough to take the banded K-step
blocks.  Cases: a 1-site grid run,
the 2-site lattice of the benchmark's oracle workload on the grid, a
2-site Langevin ensemble, and the compare rows of both grid lattices and
of a 3-site ensemble.

Every field is compared at 1e-12 relative, except two that pass through
zero: ``mean_omega`` is compared on the scale of sqrt(var_omega), and the
single-site remainder, a difference of two equal terms, on the scale of
the exact trion drift.
"""

import math

import pytest

import spinfringe as sf
from spinfringe import fokker_planck

P = sf.ModelParams()
ONE = sf.Lattice(n=1, a=(1.0,), gamma=(0.01,), d=(), f=(5e-5,), d_bath=0.02)
TWO = sf.Lattice(n=2, a=(1.0, 0.8), gamma=(0.01, 0.01), d=(1e-3,),
                 f=(5e-5, 5e-5), d_bath=0.02)
THREE = sf.Lattice.chain(n=3, a_peak=0.8, gamma_peak=0.012, d=0.01, f=2e-4,
                         d_bath=0.02)
REL = 1e-12

GRID1 = {
    "t": 100.0,
    "mean_omega": -0.03358235185495569,
    "var_omega": 0.3017174536704104,
    "trion_drift_exact": -0.001393441272008049,
    "trion_drift_meanfield": -0.0014095414290602347,
    "flatness_error": 0.011422265937170765,
    "se_mean": None,
    "se_var": None,
    "mass_err": 0.0061265746823997436,
    "remainder": 0.0,
}
GRID1_BANDED = {
    "t": 250.0,
    "mean_omega": -0.06777573462742877,
    "var_omega": 0.3075686181571568,
    "trion_drift_exact": -0.0013865451709595738,
    "trion_drift_meanfield": -0.0014029328848496466,
    "flatness_error": 0.011681039105323329,
    "se_mean": None,
    "se_var": None,
    "mass_err": 0.01573268499145497,
    "remainder": 0.0,
}
GRID2 = {
    "t": 100.0,
    "mean_omega": -0.05019120368551101,
    "var_omega": 0.48381055075372753,
    "trion_drift_exact": -0.0022767115991339016,
    "trion_drift_meanfield": -0.00230640923645791,
    "flatness_error": 0.012876135273207906,
    "se_mean": None,
    "se_var": None,
    "mass_err": 0.009845411021052297,
    "remainder": -1.2480493068793471e-05,
}
ENS2 = {
    "t": 20.0,
    "mean_omega": 0.32255747567406234,
    "var_omega": 0.2582805475754609,
    "trion_drift_exact": -0.0023811246129949643,
    "trion_drift_meanfield": -0.002412260091032899,
    "flatness_error": 0.012907181175725868,
    "se_mean": 0.03593609241246611,
    "se_var": 0.025892868045795624,
    "mass_err": 0.0,
}
CMP1 = {
    "oracle_mean": -0.06031357563683783,
    "oracle_se": 0.0,
    "meanfield_omega": -0.070128864328523,
    "flatness_error": 0.011437098555819779,
    "trion_exact": -0.0013883236853036807,
    "trion_meanfield": -0.001404385783924821,
    "remainder": 0.0,
}
CMP2 = {
    "oracle_mean": -0.09794753911194085,
    "oracle_se": 0.0,
    "meanfield_omega": -0.11428720833273172,
    "flatness_error": 0.010991859596047565,
    "trion_exact": -0.0022658928236295173,
    "trion_meanfield": -0.0022910760094492564,
    "remainder": -1.440481493458357e-05,
}
CMP3 = {
    "oracle_mean": -0.03282132661992589,
    "oracle_se": 0.033652631318664465,
    "meanfield_omega": -0.0778100475384505,
    "flatness_error": 0.0063266534845701486,
    "trion_exact": -0.0015558726734152299,
    "trion_meanfield": -0.0015657788134011,
    "remainder": -3.503281556147703e-06,
}


def _assert_pinned(got, want: dict, scale: dict):
    for key, value in want.items():
        actual = getattr(got, key)
        if value is None:
            assert actual is None, key
            continue
        assert actual == pytest.approx(value, rel=REL, abs=REL * scale.get(key, 0.0)), key


def _spec(n_cells: int) -> sf.GridSpec:
    return sf.GridSpec(m_min=-3.0, m_max=3.0, n_cells=n_cells, init_mean=0.2,
                       init_width=0.3, cfl=0.8, n_outputs=4)


@pytest.mark.parametrize("lat, n_cells, want, blocks", [
    (ONE, 96, GRID1, 0),            # too short to build the band
    (TWO, 40, GRID2, 0),
    (ONE, 96, GRID1_BANDED, 80),    # GRID1 at t_end = 250
], ids=["one-site", "two-site", "one-site-banded"])
def test_grid_final_report_pinned(monkeypatch, lat, n_cells, want, blocks):
    taken = []
    real_stepper = fokker_planck._block_stepper

    def block_stepper(*args):
        block = real_stepper(*args)
        return lambda f: taken.append(1) or block(f)

    monkeypatch.setattr(fokker_planck, "_block_stepper", block_stepper)
    density, reports = sf.fp_grid_solve(lat, 0.17, want["t"], _spec(n_cells), P)
    assert density.shape == (n_cells,) * lat.n
    assert len(taken) == blocks
    _assert_pinned(reports[-1], want, {
        "mean_omega": math.sqrt(want["var_omega"]),
        "remainder": abs(want["trion_drift_exact"]),
    })


def test_ensemble_final_report_pinned():
    reports = sf.langevin_ensemble(TWO, 0.17, 20.0, n_traj=200, seed=3, p=P,
                                   n_outputs=2, init_mean=0.3)
    _assert_pinned(reports[-1], ENS2, {"mean_omega": math.sqrt(ENS2["var_omega"])})


@pytest.mark.parametrize("lat, kwargs, want", [
    (ONE, {"t_end": 100.0, "n_cells": 96}, CMP1),
    (TWO, {"t_end": 100.0, "n_cells": 40}, CMP2),
    (THREE, {"t_end": 20.0, "n_traj": 200, "seed": 5}, CMP3),
], ids=["one-site-grid", "two-site-grid", "three-site-ensemble"])
def test_compare_row_pinned(lat, kwargs, want):
    mf = sf.MeanFieldParams(kappa=lat.d_bath, alpha=sf.alpha_from_lattice(lat))
    (row,) = sf.compare_meanfield(lat, [0.17], P, mf, **kwargs)
    _assert_pinned(row, want, {"remainder": abs(want["trion_exact"])})
    assert row.meanfield_omega in {r.omega_f for r in sf.steady_states(0.17, P, mf)}
