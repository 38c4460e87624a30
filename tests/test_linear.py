"""Frozen-coefficient linear subproblem: recovery, structure, max principle."""

import numpy as np
import pytest
import scipy.sparse as sps

from mcgraph import (Evaluation, ExpressionData, Grid, PrescribedCurvature,
                     ScalarField, SolverError, ZeroData, annulus, apply_Q,
                     assemble, correction_system, disk, ellipse, gradient,
                     hessian, solve_linear)
from mcgraph.grid import STENCILS
from mcgraph.linear import HeldFactor, LinearSystem


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


def _block(M, grid, name):
    """Row block of a stacked operator that applies the named stencil."""
    k = STENCILS.index(name)
    return M[k * grid.n_interior:(k + 1) * grid.n_interior]


def test_fixed_pattern_assembly_matches_scaled_operators(g32):
    # the fixed-pattern combination equals diag(a11) Dxx + diag(a22) Dyy
    # + diag(2 a12) Dxy entry by entry; the feet enter b the same way
    v = ScalarField.from_callable(g32, lambda x, y: 0.5 * x + 0.25 * y + 0.3 * x * y)
    p = gradient(v)
    w2 = 1.0 + np.sum(p**2, axis=-1)
    a11, a22, a12 = w2 - p[:, 0] ** 2, w2 - p[:, 1] ** 2, -p[:, 0] * p[:, 1]
    old = [sps.diags(a11) @ _block(M, g32, "Dxx") + sps.diags(a22) @ _block(M, g32, "Dyy")
           + sps.diags(2.0 * a12) @ _block(M, g32, "Dxy") for M in g32.operators()]
    system = assemble(v, PrescribedCurvature.constant(0.4), ExpressionData("x*y"),
                      n=2, tau=0.75)
    assert abs(system.A - old[0]).max() == 0.0
    assert system.A.nnz >= old[0].nnz
    load = 0.75 * 2 * 0.4 * w2**1.5
    assert np.allclose(system.b, load - old[1] @ system.feet_values, rtol=1e-13, atol=0)


def _tilted(grid, sx, sy):
    return ScalarField.from_callable(grid, lambda x, y: sx * x + sy * y)


def test_held_factor_reused_on_nearby_system(g32):
    cap = PrescribedCurvature.constant(0.4)
    held = HeldFactor()
    solve_linear(assemble(_zero_state(g32), cap, ZeroData(), n=2, tau=1.0), held=held)
    assert held.factorizations == 1 and held.krylov_iterations == 0
    lu = held.lu
    system = assemble(_tilted(g32, 0.05, 0.02), cap, ZeroData(), n=2, tau=1.0)
    u = solve_linear(system, held=held)
    assert held.factorizations == 1 and held.lu is lu
    assert held.krylov_iterations > 0
    assert system.meta["relres"] <= 1e-11
    fresh = solve_linear(assemble(_tilted(g32, 0.05, 0.02), cap, ZeroData(), n=2, tau=1.0))
    assert np.max(np.abs(u.values - fresh.values)) < 1e-10


def test_stale_factor_on_steep_system_refactorizes(g32):
    # the zero state's factor is a poor preconditioner for a bowl of rim
    # slope 4, so one GMRES cycle stalls and the system is factorized afresh
    cap = PrescribedCurvature.constant(0.4)
    held = HeldFactor()
    solve_linear(assemble(_zero_state(g32), cap, ZeroData(), n=2, tau=1.0), held=held)
    lu = held.lu
    bowl = ScalarField.from_callable(g32, lambda x, y: 2.0 * (x**2 + y**2))
    system = assemble(bowl, cap, ZeroData(), n=2, tau=1.0)
    u = solve_linear(system, held=held)
    assert held.factorizations == 2 and held.lu is not lu
    assert held.krylov_iterations == 30
    assert system.meta["relres"] <= 1e-10
    fresh = solve_linear(assemble(bowl, cap, ZeroData(), n=2, tau=1.0))
    assert np.array_equal(u.values, fresh.values)


def test_nonfinite_system_raises_with_held_factor(g32):
    held = HeldFactor()
    zero = _zero_state(g32)
    solve_linear(assemble(zero, PrescribedCurvature.constant(0.4), ZeroData(),
                          n=2, tau=1.0), held=held)
    system = assemble(zero, PrescribedCurvature.constant(0.4), ZeroData(), n=2, tau=1.0)
    system.b[3] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_linear(system, held=held)
    assert held.factorizations == 1


def test_failed_factorization_falls_back_to_gmres(g32):
    # an exactly singular but consistent system: SuperLU refuses it and the
    # unpreconditioned GMRES solves it
    n = g32.n_interior
    diag = np.resize([1.0, 2.0, 4.0], n)
    diag[7] = 0.0
    b = np.ones(n)
    b[7] = 0.0
    held = HeldFactor()
    system = LinearSystem(A=sps.diags(diag).tocsr(), b=b, grid=g32,
                          feet_values=np.zeros(g32.n_feet))
    u = solve_linear(system, held=held)
    assert held.factorizations == 1 and held.lu is None
    assert held.krylov_iterations > 0
    assert system.meta["relres"] <= 1e-10
    assert np.allclose(u.values * diag, b, rtol=0, atol=1e-12)


# -- Newton corrections -------------------------------------------------------

_JACOBIAN_DOMAINS = {"disk": lambda: disk(radius=1.0), "ellipse": lambda: ellipse(1.2, 0.7),
                     "annulus": lambda: annulus(0.5, 1.0)}
_CURVED = PrescribedCurvature.expression("0.4 + 0.1*x")


def _wavy(grid):
    # tilted and not quadratic, so every Jacobian term is exercised
    return ScalarField.from_callable(
        grid, lambda x, y: 0.3 * x - 0.2 * y + 0.2 * np.sin(2.0 * x) * np.cos(1.5 * y))


@pytest.fixture(scope="module", params=sorted(_JACOBIAN_DOMAINS))
def wavy_state(request):
    return _wavy(Grid(_JACOBIAN_DOMAINS[request.param](), 1.0 / 32.0))


def test_jacobian_matches_central_difference_of_Q(wavy_state):
    u = wavy_state
    x, y = u.grid.interior_xy[:, 0], u.grid.interior_xy[:, 1]
    v = np.cos(3.0 * x + 1.0) * np.sin(2.0 * y + 0.5)
    J = correction_system(Evaluation(u, _CURVED, 2, 0.75)).A
    # Q is cubic in the differences of u, so the difference misses J v by
    # O(eps^2); short boundary links make that term largest, 1e-8 here
    eps = 1e-6

    def Q(shift):
        return apply_Q(ScalarField(u.grid, u.values + shift * v, u.feet), _CURVED, 2, 0.75)

    fd = (Q(eps) - Q(-eps)) / (2.0 * eps)
    Jv = J @ v
    assert np.max(np.abs(Jv - fd)) <= 1e-6 * np.max(np.abs(Jv))


def test_fixed_pattern_jacobian_matches_scaled_operators(wavy_state):
    # J = A(u) + diag(b_x) Gx + diag(b_y) Gy entry by entry, on the frozen
    # operator's pattern
    u = wavy_state
    p, Hs = gradient(u), hessian(u)
    W = np.sqrt(1.0 + np.sum(p**2, axis=-1))
    load = 0.75 * 2 * _CURVED(u.grid.interior_xy)
    bx = 2.0 * (p[:, 0] * Hs[:, 1, 1] - p[:, 1] * Hs[:, 0, 1]) - 3.0 * load * W * p[:, 0]
    by = 2.0 * (p[:, 1] * Hs[:, 0, 0] - p[:, 0] * Hs[:, 0, 1]) - 3.0 * load * W * p[:, 1]
    D = u.grid.operators()[0]
    A = assemble(u, _CURVED, ZeroData(), n=2, tau=0.75).A
    expect = A + sps.diags(bx) @ _block(D, u.grid, "Gx") + sps.diags(by) @ _block(D, u.grid, "Gy")
    system = correction_system(Evaluation(u, _CURVED, 2, 0.75))
    J = system.A
    assert abs(J - expect).max() <= 1e-13 * abs(expect).max()
    assert np.array_equal(J.indptr, A.indptr) and np.array_equal(J.indices, A.indices)
    assert np.array_equal(system.b, -apply_Q(u, _CURVED, 2, 0.75))
    assert np.all(system.feet_values == 0.0)
