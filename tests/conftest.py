"""Shared fixtures: small cap and Scherk problems reused across modules."""

import pytest
from hypothesis import settings

from mcgraph import (Grid, PrescribedCurvature, ZeroData, disk, rect,
                     scherk_trace, solve_dirichlet)

# property tests draw the same examples on every run and write no example
# database, so a red is reproducible from the checkout alone
settings.register_profile("mcgraph", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("mcgraph")


@pytest.fixture(scope="session")
def unit_disk():
    return disk(radius=1.0)


@pytest.fixture(scope="session")
def cap_H():
    return PrescribedCurvature.constant(0.4)


@pytest.fixture(scope="session")
def cap_grid32(unit_disk):
    return Grid(unit_disk, 1.0 / 32.0)


@pytest.fixture(scope="session")
def cap_solve32(cap_grid32, cap_H):
    report = solve_dirichlet(cap_grid32, cap_H, ZeroData())
    assert report.verdict == "converged"
    return report


@pytest.fixture(scope="session")
def scherk_square():
    return rect(0.6, 0.6)


@pytest.fixture(scope="session")
def scherk_solve32(scherk_square):
    report = solve_dirichlet(Grid(scherk_square, 1.0 / 32.0),
                             PrescribedCurvature.constant(0.0), scherk_trace())
    assert report.verdict == "converged"
    return report
