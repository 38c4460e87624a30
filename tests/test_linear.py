"""Frozen-coefficient linear subproblem: recovery, structure, max principle."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from mcgraph import (Evaluation, ExpressionData, Grid, PrescribedCurvature,
                     ScalarField, SolverError, ZeroData, adversarial_boundary_data,
                     annulus, assemble, correction_system, disk, dumbbell,
                     ellipse, gradient, levelset, rounded_rect,
                     solve_dirichlet, solve_linear)
from mcgraph.grid import STENCILS, SparseLU
from mcgraph.linear import _RESTART, _REUSE_TOL, Factor, LinearSystem, _gmres, _norm_inf

from lattice_form import stacked_operators


@pytest.fixture(scope="module")
def g32():
    return Grid(disk(radius=1.0), 1.0 / 32.0)


def _unsolved_g32():
    # a grid of its own, its J(0) LU not yet made
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


def test_sign_violations_confined_to_collar(g32):
    # the quadratic ghost closures inject positive off-diagonals near the
    # boundary; regular five-point rows deeper inside must stay clean
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.0),
                      ZeroData(), n=2, tau=1.0)
    M = (-system.A).tocoo()
    bad = (M.row != M.col) & (M.data > 1e-12)
    bad_rows = np.unique(M.row[bad])
    assert len(bad_rows) > 0
    assert np.max(g32.domain.signed_distance(g32.interior_xy[bad_rows])) < 2.5 * g32.h


def test_system_scaling_with_tau(g32):
    h_c = PrescribedCurvature.constant(0.4)
    full = assemble(_zero_state(g32), h_c, ZeroData(), n=2, tau=1.0)
    half = assemble(_zero_state(g32), h_c, ZeroData(), n=2, tau=0.5)
    assert np.allclose(half.b, 0.5 * full.b, atol=1e-14)


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
           + sps.diags(2.0 * a12) @ _block(M, g32, "Dxy") for M in stacked_operators(g32)]
    system = assemble(v, PrescribedCurvature.constant(0.4), ExpressionData("x*y"),
                      n=2, tau=0.75)
    assert abs(system.A - old[0]).max() == 0.0
    assert system.A.nnz >= old[0].nnz
    load = 0.75 * 2 * 0.4 * w2**1.5
    assert np.allclose(system.b, load - old[1] @ system.feet_values, rtol=1e-13, atol=0)


def _tilted(grid, sx, sy):
    return ScalarField.from_callable(grid, lambda x, y: sx * x + sy * y)


def test_held_factor_reused_on_nearby_system():
    g32 = _unsolved_g32()
    cap = PrescribedCurvature.constant(0.4)
    factor = Factor()
    solve_linear(assemble(_zero_state(g32), cap, ZeroData(), n=2, tau=1.0), factor)
    # the float32 factor's x0 is good to its rounding: one iteration reaches the keep test
    assert factor.factorizations == 1 and factor.krylov_iterations == 1
    lu = factor.lu
    assert lu is not None
    system = assemble(_tilted(g32, 0.05, 0.02), cap, ZeroData(), n=2, tau=1.0)
    u = solve_linear(system, factor)
    assert factor.factorizations == 1 and factor.lu is lu
    assert factor.krylov_iterations == 3
    assert system.meta["relres"] <= 1e-11
    other = _unsolved_g32()
    fresh = solve_linear(assemble(_tilted(other, 0.05, 0.02), cap, ZeroData(), n=2, tau=1.0))
    assert np.max(np.abs(u.values - fresh.values)) < 1e-10


def _bowl(x, y):
    return 2.0 * (x**2 + y**2)


def test_stale_factor_on_steep_system_refactorizes():
    # the zero state's factor is a poor preconditioner for a bowl of rim
    # slope 4, so one GMRES cycle stalls and the system is factorized afresh;
    # each fresh float32 factor takes one iteration besides
    g32 = _unsolved_g32()
    cap = PrescribedCurvature.constant(0.4)
    factor = Factor()
    solve_linear(assemble(_zero_state(g32), cap, ZeroData(), n=2, tau=1.0), factor)
    lu = factor.lu
    assert lu is not None
    system = assemble(ScalarField.from_callable(g32, _bowl), cap, ZeroData(), n=2, tau=1.0)
    u = solve_linear(system, factor)
    assert factor.factorizations == 2 and factor.lu is not None and factor.lu is not lu
    assert factor.krylov_iterations == 1 + 30 + 1 and factor.float64_factorizations == 0
    assert system.meta["relres"] <= 1e-10
    other = _unsolved_g32()
    fresh = solve_linear(assemble(ScalarField.from_callable(other, _bowl), cap, ZeroData(),
                                  n=2, tau=1.0))
    assert np.array_equal(u.values, fresh.values)


def test_nonfinite_system_raises_with_held_factor():
    g32 = _unsolved_g32()
    factor = Factor()
    zero = _zero_state(g32)
    solve_linear(assemble(zero, PrescribedCurvature.constant(0.4), ZeroData(),
                          n=2, tau=1.0), factor)
    system = assemble(zero, PrescribedCurvature.constant(0.4), ZeroData(), n=2, tau=1.0)
    system.b[3] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_linear(system, factor)
    assert factor.factorizations == 1


def test_failed_factorization_is_a_solver_error():
    # an exactly singular system: the J(0) LU's GMRES cycle misses the keep
    # test, SuperLU refuses the system in float32 and in float64, and the
    # solve raises, leaving the holder without an LU
    g32 = _unsolved_g32()
    n = g32.n_interior
    diag = np.resize([1.0, 2.0, 4.0], n)
    diag[7] = 0.0
    b = np.ones(n)
    b[7] = 0.0
    factor = Factor()
    system = LinearSystem(A=sps.diags(diag).tocsr(), b=b, grid=g32,
                          feet_values=np.zeros(g32.n_feet))
    with pytest.raises(SolverError, match="factorization failed"):
        solve_linear(system, factor)
    assert (factor.factorizations, factor.float64_factorizations) == (3, 1) and factor.lu is None
    assert factor.krylov_iterations == _RESTART


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [1e-50, 1e39])
def test_entry_beyond_float32_falls_back_to_float64(entry):
    # the J(0) LU misses the keep test: its GMRES cycle stalls on 1e-50, and
    # on 1e39 its float32 start is not finite, which ends the cycle at once;
    # 1e-50 flushes to zero in float32, leaving a singular matrix, and 1e39
    # overflows to inf: the float32 factorization is refused, and the
    # system solves on a float64 factor, which the holder keeps.  Neither
    # cast warns
    g32 = _unsolved_g32()
    n = g32.n_interior
    diag = np.resize([1.0, 2.0, 4.0], n)
    diag[7] = entry
    b = np.ones(n)
    b[7] = entry
    factor = Factor()
    system = LinearSystem(A=sps.diags(diag).tocsr(), b=b, grid=g32,
                          feet_values=np.zeros(g32.n_feet))
    u = solve_linear(system, factor)
    assert (factor.factorizations, factor.float64_factorizations) == (3, 1)
    assert factor.krylov_iterations == (0 if entry > 1.0 else _RESTART)
    assert factor.lu.dtype == np.float64
    assert system.meta["relres"] <= 1e-10
    assert u.values[7] == 1.0 and np.array_equal(u.values, b / diag)


def test_answer_beyond_the_gate_leaves_no_lu(monkeypatch):
    # the J(0) LU misses the keep test on the bowl's system; with the gate
    # at 0 the rounding of the float32 factor's answer misses it, and so
    # does that of the float64 fallback: the solve raises, and no later
    # system of the holder is preconditioned by either LU
    monkeypatch.setattr("mcgraph.linear._RELRES_TOL", 0.0)
    g32 = _unsolved_g32()
    system = assemble(ScalarField.from_callable(g32, _bowl), PrescribedCurvature.constant(0.4),
                      ZeroData(), n=2, tau=1.0)
    factor = Factor()
    with pytest.raises(SolverError, match="backward error"):
        solve_linear(system, factor)
    assert (factor.factorizations, factor.float64_factorizations) == (3, 1) and factor.lu is None
    assert 0 < system.meta["relres"] <= 1e-10


def test_float32_answer_beyond_the_gate_falls_back_to_float64(monkeypatch):
    # the J(0) LU misses the keep test on the bowl's system (backward error
    # 1.8e-9); with the gate at 1e-14 the float32 factor's answer, which
    # GMRES stops at the keep test (1.3e-13 here), misses it, and the
    # float64 factor's direct answer (5.0e-17) meets it; the holder keeps it
    monkeypatch.setattr("mcgraph.linear._RELRES_TOL", 1e-14)
    g32 = _unsolved_g32()
    system = assemble(ScalarField.from_callable(g32, _bowl), PrescribedCurvature.constant(0.4),
                      ZeroData(), n=2, tau=1.0)
    factor = Factor()
    solve_linear(system, factor)
    assert (factor.factorizations, factor.float64_factorizations) == (3, 1)
    assert factor.lu.dtype == np.float64 and system.meta["relres"] <= 1e-14


class _CountedSolves:
    """An LU's solve that counts its calls."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def __call__(self, b):
        self.calls += 1
        return self.lu.solve(b)


@pytest.mark.parametrize("slope", [0.3, 2.0])
def test_gmres_stops_on_the_keep_test_with_one_solve_per_iteration(slope):
    # the J(0) LU preconditions the Jacobian at a tilted bowl: the gentle one
    # meets the keep test within the cycle, in the 2-norm that bounds the
    # infinity norm; the steep one runs the whole cycle, misses it, and the
    # solve factorizes afresh
    grid = _unsolved_g32()
    H = PrescribedCurvature.constant(0.4)
    lu = grid.laplacian_lu
    state = ScalarField.from_callable(grid, lambda x, y: slope * (x**2 + y**2) + 0.1 * x)
    system = correction_system(Evaluation(state, H, 2, 1.0))
    A, b = system.A, system.b
    norm_A = spla.norm(A, np.inf)
    solves, factor = _CountedSolves(lu), Factor()
    x = _gmres(A, b, norm_A, factor, solves)
    iterations = factor.krylov_iterations
    assert iterations > 0 and solves.calls == iterations + 1
    aim = _REUSE_TOL * (norm_A * np.max(np.abs(lu.solve(b))) + np.max(np.abs(b)))
    assert (np.linalg.norm(A @ x - b) <= aim) == (slope < 1.0)
    assert (iterations == _RESTART) == (slope > 1.0)
    factor = Factor(lu=lu)
    solve_linear(system, factor)
    assert factor.factorizations == (slope > 1.0) and (factor.lu is lu) == (slope < 1.0)
    assert system.meta["relres"] <= (1e-10 if slope > 1.0 else _REUSE_TOL)


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
        return Evaluation(ScalarField(u.grid, u.values + shift * v, u.feet), _CURVED, 2, 0.75).q

    fd = (Q(eps) - Q(-eps)) / (2.0 * eps)
    Jv = J @ v
    assert np.max(np.abs(Jv - fd)) <= 1e-6 * np.max(np.abs(Jv))


def test_infinity_norm_is_scipys(wavy_state):
    # the row sums of |A| that scipy's norm takes, to the bit, on a Jacobian
    # and on a matrix with empty rows
    J = correction_system(Evaluation(wavy_state, _CURVED, 2, 0.75)).A
    assert _norm_inf(J) == spla.norm(J, np.inf)
    gaps = sps.csr_matrix(np.array([[0.0, 0.0, 0.0], [-2.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                    [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    assert _norm_inf(gaps) == spla.norm(gaps, np.inf) == 3.0
    assert _norm_inf(sps.csr_matrix((3, 3))) == 0.0


def test_fixed_pattern_jacobian_matches_scaled_operators(wavy_state):
    # J = A(u) + diag(b_x) Gx + diag(b_y) Gy entry by entry, on the frozen
    # operator's pattern
    u = wavy_state
    ev = Evaluation(u, _CURVED, 2, 0.75)
    p = gradient(u)
    W = np.sqrt(1.0 + np.sum(p**2, axis=-1))
    load = 0.75 * 2 * _CURVED(u.grid.interior_xy)
    bx = 2.0 * (p[:, 0] * ev.uyy - p[:, 1] * ev.uxy) - 3.0 * load * W * p[:, 0]
    by = 2.0 * (p[:, 1] * ev.uxx - p[:, 0] * ev.uxy) - 3.0 * load * W * p[:, 1]
    D = stacked_operators(u.grid)[0]
    A = assemble(u, _CURVED, ZeroData(), n=2, tau=0.75).A
    expect = A + sps.diags(bx) @ _block(D, u.grid, "Gx") + sps.diags(by) @ _block(D, u.grid, "Gy")
    system = correction_system(ev)
    J = system.A
    assert abs(J - expect).max() <= 1e-13 * abs(expect).max()
    assert np.array_equal(J.indptr, A.indptr) and np.array_equal(J.indices, A.indices)
    assert np.array_equal(system.b, -Evaluation(u, _CURVED, 2, 0.75).q)
    assert np.all(system.feet_values == 0.0)


# -- the ordered LUs -----------------------------------------------------------

_ORDERED_DOMAINS = {
    "disk": lambda: disk(1.0),
    "ellipse": lambda: ellipse(1.2, 0.7),
    "rounded_rect": lambda: rounded_rect(1.0, 0.6, 0.25),
    "annulus": lambda: annulus(0.8, 1.6),
    "annulus_on_lattice": lambda: annulus(0.5, 1.0),
    "dumbbell": lambda: dumbbell(1.0, 1.3),
    "levelset": lambda: levelset("1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36",
                                 (-1.1, 1.1, -1.0, 1.0)),
}


def _max_backward_error(A, b, x):
    denom = abs(A).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(b))
    return np.max(np.abs(A @ x - b)) / denom


def _solved_on(grid, lu, A, b):
    """linear.solve's answer to A x = b on the grid, started from `lu`,
    which it keeps."""
    factor = Factor(lu=lu)
    x = solve_linear(LinearSystem(A=A, b=b, grid=grid, feet_values=np.zeros(grid.n_feet)),
                     factor).values
    assert factor.factorizations == 0 and factor.lu is lu
    return x


def _first_jacobian(grid):
    """J(0) with its zero-data right-hand side: the cap's first Newton system."""
    zero = ScalarField.zeros(grid, ZeroData())
    return correction_system(Evaluation(zero, PrescribedCurvature.constant(0.4), 2, 0.25))


def _assert_solves_first_jacobian(grid, lu, system):
    # the float32 factor alone is good to float32's rounding; GMRES on it
    # brings the answer to float64's
    rhs = np.random.default_rng(3).standard_normal(grid.n_interior)
    for b in (system.b, rhs):
        assert _max_backward_error(system.A, b, lu.solve(b)) <= 1e-6
        assert _max_backward_error(system.A, b, _solved_on(grid, lu, system.A, b)) <= 1e-12


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
@pytest.mark.parametrize("name", sorted(_ORDERED_DOMAINS))
def test_first_jacobian_solves_in_dissection_order(name, h):
    grid = Grid(_ORDERED_DOMAINS[name](), h)
    system = _first_jacobian(grid)
    _assert_solves_first_jacobian(grid, SparseLU(system.A, grid.dissection), system)


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
@pytest.mark.parametrize("name", sorted(_ORDERED_DOMAINS))
def test_laplacian_lu_in_minimum_degree_order(name, h):
    # the grid's J(0) LU, in SuperLU's minimum-degree order, stores at most
    # 0.7 times the entries of the dissection-ordered LU of the same matrix
    # (0.40-0.58 on these grids) and solves as well.  A zero-data cap solves
    # on it alone, so its grid is never ordered by dissection
    grid = Grid(_ORDERED_DOMAINS[name](), h)
    system = _first_jacobian(grid)
    lu = grid.laplacian_lu
    assert lu.order is None and "dissection" not in vars(grid)
    assert lu.superlu.nnz <= 0.7 * SparseLU(system.A, grid.dissection).superlu.nnz
    _assert_solves_first_jacobian(grid, lu, system)
    fresh = Grid(_ORDERED_DOMAINS[name](), h)
    report = solve_dirichlet(fresh, PrescribedCurvature.constant(0.4), ZeroData())
    assert report.converged and report.factorizations == 1
    assert "dissection" not in vars(fresh)


def test_dissected_lu_solves_systems_off_the_stencil():
    # the order is a permutation of the unknowns, so a system whose pattern
    # ignores the separators still solves; it only fills more.  A diagonal
    # of powers of two divides the float32 right-hand side exactly
    g32 = _unsolved_g32()
    n = g32.n_interior
    rng = np.random.default_rng(5)
    A = (sps.diags(4.0 + rng.random(n)) + sps.random(n, n, density=2.0 / n, random_state=rng)
         ).tocsr()
    b = rng.standard_normal(n)
    lu = SparseLU(A, g32.dissection)
    assert _max_backward_error(A, b, lu.solve(b)) <= 1e-6
    assert _max_backward_error(A, b, _solved_on(g32, lu, A, b)) <= 1e-12
    diag = np.resize([1.0, 2.0, 4.0], n)
    x = SparseLU(sps.diags(diag).tocsr(), g32.dissection).solve(b)
    assert x.dtype == np.float64
    assert np.array_equal(x, b.astype(np.float32).astype(np.float64) / diag)


def test_held_factor_records_largest_fill():
    g32 = _unsolved_g32()
    factor = Factor()
    system = assemble(_zero_state(g32), PrescribedCurvature.constant(0.4), ZeroData(),
                      n=2, tau=1.0)
    solve_linear(system, factor)
    assert factor.fill_nnz == factor.lu.superlu.nnz > 0
    small = LinearSystem(A=sps.identity(g32.n_interior, format="csr"), b=system.b,
                         grid=g32, feet_values=np.zeros(g32.n_feet))
    factor.lu = None
    solve_linear(small, factor)
    assert factor.factorizations == 2 and factor.lu.superlu.nnz < factor.fill_nnz


def test_dissection_order_keeps_reference_solves():
    # heights recorded with the minimum-degree LU ordering that the
    # dissection order replaced, counts with the leap to the full load and
    # GMRES stopping on the keep test: an LU only starts and preconditions
    # GMRES, so its order leaves the Newton path and the answer as they
    # were.  Every solve here runs on the grid's J(0) LU alone, the one LU
    # it counts.  The legs stop on Newton's contraction bound, a step before
    # their last update fell below 1e-9.  The float32 factor takes one or
    # two iterations on the system it factorized.  No GMRES cycle of these
    # solves stops near its tolerance (the last residual is at most 0.8 of
    # it, the one before at least 1.2 times it), so the Krylov counts do not
    # follow the rounding of the feet
    dom = disk(1.0)
    cap = solve_dirichlet(Grid(dom, 1.0 / 64.0), PrescribedCurvature.constant(0.4), ZeroData())
    data = adversarial_boundary_data(dom, (1.0, 0.0), 0.10, 0.05)
    legs = [solve_dirichlet(Grid(dom, 1.0 / 48.0), PrescribedCurvature.constant(H), data, n=2)
            for H in (0.55, 0.45)]
    expected = [(4, 1, 20, 0.2087100275413615), (4, 1, 43, 0.298989692410781),
                (4, 1, 39, 0.23697423597353587)]
    for report, (iterations, factorizations, krylov, sup_u) in zip([cap, *legs], expected):
        assert report.verdict == "converged"
        assert (report.iterations, report.factorizations, report.krylov_iterations) == (
            iterations, factorizations, krylov)
        assert report.float64_factorizations == 0
        assert report.sup_u == pytest.approx(sup_u, rel=0, abs=1e-12)
