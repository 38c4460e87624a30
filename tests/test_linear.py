"""Frozen-coefficient linear subproblem: recovery, structure, max principle."""

import numpy as np
import pytest

from mcgraph import (ExpressionData, Grid, PrescribedCurvature, ScalarField,
                     ZeroData, annulus, assemble, disk, solve_linear)


@pytest.fixture(scope="module")
def g32():
    return Grid(disk(radius=1.0), 1.0 / 32.0)


def _zero_state(grid):
    return ScalarField.zeros(grid)


@pytest.fixture(scope="module")
def annulus32():
    # the lattice nodes (+-0.5, 0), (0, +-0.5) lie on the inner circle, so
    # each is a ghost owned along three links
    return Grid(annulus(0.5, 1.0), 1.0 / 32.0)


@pytest.mark.parametrize("grid_name", ["g32", "annulus32"])
def test_manufactured_harmonic_recovery(grid_name, request):
    # frozen state v = 0, H = 0: the step equation is the Laplace problem,
    # and the closure stencils reproduce quadratics exactly
    grid = request.getfixturevalue(grid_name)
    data = ExpressionData("x**2 - y**2")
    system = assemble(_zero_state(grid), PrescribedCurvature.constant(0.0),
                      data, n=2, tau=1.0)
    u = solve_linear(system)
    exact = grid.interior_xy[:, 0] ** 2 - grid.interior_xy[:, 1] ** 2
    assert np.max(np.abs(u.values - exact)) < 1e-8


def test_poisson_radial_recovery(g32):
    # u = r^2 - 1 solves Laplace u = 4 with zero trace; with W = 1 at the
    # zero state the curvature load n H equals 4 when H = 2, n = 2
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(2.0),
                      ZeroData(), n=2, tau=1.0)
    u = solve_linear(system)
    r2 = np.sum(g32.interior_xy**2, axis=-1)
    assert np.max(np.abs(u.values - (r2 - 1.0))) < 1e-8


def test_manufactured_tilted_state(g32):
    # freeze a nonzero slope state so the matrix carries cross terms, then
    # manufacture the load from a known interior vector
    v = ScalarField.from_callable(g32, lambda x, y: 0.5 * x + 0.25 * y)
    sys0 = assemble(v, PrescribedCurvature.constant(0.0), ZeroData(),
                    n=2, tau=1.0)
    x = g32.interior_xy[:, 0]
    y = g32.interior_xy[:, 1]
    exact = 0.3 * x**2 + 0.1 * x * y - 0.3 * y**2 + 0.2 * x
    sys0.b = sys0.A @ exact
    u = solve_linear(sys0)
    assert np.max(np.abs(u.values - exact)) < 1e-8


def test_maximum_principle_boundary_data(g32):
    # H = 0, random smooth boundary data: discrete solution stays inside the
    # data range
    data = ExpressionData("0.3*sin(3*x) + 0.2*cos(2*y)")
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.0),
                      data, n=2, tau=1.0)
    u = solve_linear(system)
    lo = float(np.min(u.feet))
    hi = float(np.max(u.feet))
    assert np.min(u.values) >= lo - 1e-9
    assert np.max(u.values) <= hi + 1e-9


def test_maximum_principle_random_traces(g32):
    rng = np.random.default_rng(0)
    for _ in range(5):
        coef = rng.uniform(-0.5, 0.5, 4)
        data = ExpressionData(
            f"{coef[0]}*x + {coef[1]}*y + {coef[2]}*x*y + {coef[3]}")
        sys_k = assemble(_zero_state(g32), PrescribedCurvature.constant(0.0),
                         data, n=2, tau=1.0)
        u = solve_linear(sys_k)
        assert np.min(u.values) >= np.min(u.feet) - 1e-9
        assert np.max(u.values) <= np.max(u.feet) + 1e-9


def test_backward_error_recorded(g32):
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.4),
                      ZeroData(), n=2, tau=1.0)
    solve_linear(system)
    assert system.meta["relres"] <= 1e-10


def test_mmatrix_report_keys(g32):
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.0),
                      ZeroData(), n=2, tau=1.0)
    report = system.mmatrix_report()
    for key in ("is_m_matrix", "offdiag_violations", "worst_offdiag",
                "dominance_violations", "worst_dominance_deficit"):
        assert key in report


def test_sign_violations_confined_to_collar(g32):
    # the quadratic ghost closures inject positive off-diagonals near the
    # boundary; regular five-point rows deeper inside must stay clean
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.0),
                      ZeroData(), n=2, tau=1.0)
    M = (-system.A).tocoo()
    bad = (M.row != M.col) & (M.data > 1e-12)
    bad_rows = np.unique(M.row[bad])
    assert len(bad_rows) > 0
    assert np.max(g32.interior_d[bad_rows]) < 2.5 * g32.h


def test_system_scaling_with_tau(g32):
    h_c = PrescribedCurvature.constant(0.4)
    full = assemble(_zero_state(g32), h_c, ZeroData(), n=2, tau=1.0)
    half = assemble(_zero_state(g32), h_c, ZeroData(), n=2, tau=0.5)
    assert np.allclose(half.b, 0.5 * full.b, atol=1e-14)


def test_condition_estimate_reasonable(g32):
    from mcgraph.linear import condition_estimate
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.0),
                      ZeroData(), n=2, tau=1.0)
    cond = condition_estimate(system)
    # Laplacian conditioning scales like h^-2 ~ 1e3 at this spacing
    assert 1.0 < cond < 1e8
