"""Fixtures shared by the test modules."""

import pytest

import spinfringe as sf
from spinfringe import compare


@pytest.fixture
def grid_solves(monkeypatch) -> list:
    """Every grid solve of an auto-sized oracle grid, as (tau, grid, error).

    The oracles of ``compare_meanfield`` and of the ``oracle`` subcommand
    solve an auto-sized grid through ``compare.fp_grid_solve``.  ``error``
    is the GridTooSmallError a solve raised, or None once it returns.
    """
    solves = []
    real_solve = compare.fp_grid_solve

    def solve(lat, tau, t_end, spec, *args, **kwargs):
        solves.append((tau, spec, None))
        try:
            return real_solve(lat, tau, t_end, spec, *args, **kwargs)
        except sf.GridTooSmallError as exc:
            solves[-1] = (tau, spec, exc)
            raise

    monkeypatch.setattr(compare, "fp_grid_solve", solve)
    return solves
