"""Continuation solver: convergence, verdicts, slope bookkeeping."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import mcgraph.grid
import mcgraph.linear
import mcgraph.solver
from mcgraph import (BumpData, Evaluation, Grid, PrescribedCurvature, ZeroData,
                     adversarial_boundary_data, boundary_slope,
                     correction_system, disk, estimate_ledger, solve_dirichlet,
                     solve_linear, sup_slope)
from mcgraph.reference import get as get_reference


def test_cap_converges(cap_solve32):
    assert cap_solve32.verdict == "converged"
    assert cap_solve32.sup_u == pytest.approx(0.2087, abs=2e-3)
    assert all(s.iters <= 50 for s in cap_solve32.stages)


def test_cap_error_against_exact(cap_solve32):
    err = get_reference("cap").error(cap_solve32.field)
    assert err < 5e-3


def test_cap_stage_schedule(cap_solve32):
    # Newton contracts from u = 0 at the full load, so the leap is accepted:
    # one stage at tau = 1, in fewer steps than the 8 of the four-rung walk
    assert [(s.tau, s.verdict) for s in cap_solve32.stages] == [(1.0, "converged")]
    assert cap_solve32.iterations == cap_solve32.stages[0].iters < 8
    assert {row["tau"] for row in cap_solve32.trace} == {1.0}


@pytest.fixture(scope="module")
def cap_walk32(cap_grid32, cap_H):
    # three steps a stage: the leap, which takes four, is rejected at
    # _MAX_ITERS, and the solve walks the schedule from u = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcgraph.solver, "_MAX_ITERS", 3)
        return solve_dirichlet(cap_grid32, cap_H, ZeroData())


def test_rejected_leap_keeps_its_rows_but_no_stage(cap_walk32):
    assert cap_walk32.verdict == "converged"
    assert [s.tau for s in cap_walk32.stages] == [0.25, 0.5, 0.75, 1.0]
    assert [row["tau"] for row in cap_walk32.trace[:3]] == [1.0] * 3
    assert cap_walk32.iterations == len(cap_walk32.trace) == 3 + sum(
        s.iters for s in cap_walk32.stages)


def test_rejected_bump_leap_walks_the_schedule():
    # the second full-load correction is 1.21 times the first and the defect
    # rises 3.09 -> 5.14, so the leap is rejected after two steps; the walk
    # then takes the steps and reaches the height of a walk without the
    # leap, 16 steps, two fewer than in all.  The final stage stops on the
    # contraction bound: its last two updates, 6.7e-5 and 2.4e-8, bound the
    # answer's distance to the solution by 8e-12
    grid = Grid(disk(radius=1.0), 1.0 / 12.0)
    data = BumpData(grid.domain, (0.997, -0.079), 0.82, 0.49)
    report = solve_dirichlet(grid, PrescribedCurvature.constant(0.81), data)
    assert report.verdict == "converged"
    assert [(s.tau, s.iters) for s in report.stages] == [(0.25, 5), (0.5, 2), (0.75, 3),
                                                         (1.0, 6)]
    leap = report.trace[:2]
    assert [row["tau"] for row in leap] == [1.0, 1.0]
    assert leap[1]["update"] / leap[0]["update"] == pytest.approx(1.206, abs=1e-3)
    assert report.iterations == len(report.trace) == 18
    assert _contraction_bound(report.trace[-2:]) <= mcgraph.solver._TOL_UPDATE
    assert report.sup_u == pytest.approx(0.4899861622199877, rel=0, abs=1e-12)


def test_cap_residual_small(cap_solve32):
    assert cap_solve32.residual_core < 1e-6 * (1 + 2 * 0.4) + 1e-12


def test_scherk_converges(scherk_solve32):
    assert scherk_solve32.verdict == "converged"
    err = get_reference("scherk").error(scherk_solve32.field)
    assert err < 5e-3


def test_trace_rows_complete(cap_solve32):
    assert len(cap_solve32.trace) == cap_solve32.iterations
    for row in cap_solve32.trace:
        for key in ("tau", "iter", "residual_core", "residual_collar",
                    "update", "sup_gradient", "damping"):
            assert key in row


def test_fixed_point_property(cap_solve32, cap_H):
    # one more Newton correction at the converged state barely moves
    delta = solve_linear(correction_system(Evaluation(cap_solve32.field, cap_H, 2, 1.0)))
    assert np.max(np.abs(delta.values)) < 1e-10
    assert np.all(delta.feet == 0.0)


def test_newton_converges_in_few_iterations(cap_solve32):
    assert all(s.iters <= 5 for s in cap_solve32.stages)
    assert cap_solve32.residual_core <= 1e-11
    assert cap_solve32.factorizations == 1


def _contraction_bound(rows) -> float:
    # Theta / (1 - Theta) * |delta_k| from a stage's last two trace rows,
    # both full steps, Theta = |delta_k| / |delta_{k-1}|
    assert [row["damping"] for row in rows] == [1.0, 1.0]
    theta = rows[1]["update"] / rows[0]["update"]
    assert theta < 0.5
    return theta / (1.0 - theta) * rows[1]["update"]


def _next_correction(report, H) -> float:
    # the sup norm of one more Newton correction at the returned field
    ev = Evaluation(report.field, H, 2, 1.0)
    return float(np.max(np.abs(mcgraph.linear.solve(correction_system(ev)).values)))


def test_predicted_stages_take_fewer_iterations(cap_walk32, cap_H):
    # secant-predicted starts and intermediate stages that stop at the defect
    # tolerance; restarting each stage from the last answer and solving it
    # to the update tolerance takes 13 iterations here.  The final stage
    # stops on the contraction bound of its last two steps (last update
    # 2.6e-7), and one more Newton step would move the answer by less than
    # the update tolerance
    assert sum(s.iters for s in cap_walk32.stages) <= 9
    assert all(s.verdict == "converged" for s in cap_walk32.stages)
    final = cap_walk32.stages[-1]
    assert final.iters >= 2
    assert _contraction_bound(cap_walk32.trace[-2:]) <= mcgraph.solver._TOL_UPDATE
    assert _next_correction(cap_walk32, cap_H) <= mcgraph.solver._TOL_UPDATE
    assert final.residual_core <= 1e-11
    assert cap_walk32.factorizations == 1


def test_contraction_bound_saves_the_confirming_step():
    # the nine sweep caps on one h = 1/32 disk grid and the A8 legs on one
    # h = 1/24 and one h = 1/48 grid, with the Newton steps each took when
    # the final stage stopped only on an update below _TOL_UPDATE.  Where
    # the last update is above it the solve stopped on the contraction
    # bound, one step sooner; the H = 0.05-0.15 caps end on a small update
    # and the H = 0.40, 0.45 caps on a bound of 1.2e-9, so those take as
    # many steps as before.  Either way one more Newton correction at the
    # returned field is below _TOL_UPDATE
    tol = mcgraph.solver._TOL_UPDATE
    dom = disk(radius=1.0)
    sweep = Grid(dom, 1.0 / 32.0)
    solves = [(sweep, float(H), ZeroData(), steps) for H, steps in
              zip(np.linspace(0.05, 0.45, 9), (3, 3, 3, 4, 4, 4, 4, 4, 4))]
    data = adversarial_boundary_data(dom, (1.0, 0.0), 0.10, 0.05)
    grids = [Grid(dom, 1.0 / 24.0), Grid(dom, 1.0 / 48.0)]
    solves += [(grid, H, data, 5) for H in (0.55, 0.45) for grid in grids]
    on_bound = 0
    for grid, H, data, steps in solves:
        H = PrescribedCurvature.constant(H)
        report = solve_dirichlet(grid, H, data, n=2)
        assert report.verdict == "converged"
        assert _next_correction(report, H) <= tol
        if report.trace[-1]["update"] > tol:
            assert _contraction_bound(report.trace[-2:]) <= tol
            assert report.iterations == steps - 1
            on_bound += 1
        else:
            assert report.iterations == steps
    assert on_bound == 8


def test_stagnated_stage_says_why_it_stopped():
    # zero data at H = 0.97 has no discrete answer on the h = 1/32 disk: the
    # final stage stagnates, and its message names the last contraction and
    # the first and last defects of the stagnation window
    window = mcgraph.solver._STAGNATION_WINDOW
    report = solve_dirichlet(Grid(disk(radius=1.0), 1.0 / 32.0),
                             PrescribedCurvature.constant(0.97), ZeroData())
    assert report.verdict == "stagnated"
    assert report.stages[-1].tau == 1.0 and report.stages[-1].iters == 30
    last, before = report.trace[-1], report.trace[-2]
    theta = (last["update"] / last["damping"]) / (before["update"] / before["damping"])
    first = report.trace[-window]["residual_core"]
    assert report.message == (
        f"stage tau=1 ended stagnated after 30 iterations "
        f"(defect {last['residual_core']:.3e}); last contraction {theta:.3g}, "
        f"defect window {first:.3e} -> {last['residual_core']:.3e}")


def test_sweep_caps_keep_full_damping(cap_grid32):
    # defect growth at the rounding floor of a converged stage is no reason
    # to damp: every sweep cap's leap is accepted, on full steps throughout
    for H in np.linspace(0.05, 0.45, 9):
        report = solve_dirichlet(cap_grid32, PrescribedCurvature.constant(float(H)),
                                 ZeroData())
        assert report.verdict == "converged"
        assert [(s.tau, s.damping_final) for s in report.stages] == [(1.0, 1.0)], H
        assert {row["damping"] for row in report.trace} == {1.0}, H


@pytest.fixture(scope="module")
def disk12():
    return Grid(disk(radius=1.0), 1.0 / 12.0)


@given(H=st.floats(-1.5, 1.5), angle=st.floats(0.0, 2.0 * np.pi),
       width=st.floats(0.05, 1.0), eps=st.floats(-0.5, 0.5))
def test_solve_ends_in_a_verdict(disk12, H, angle, eps, width):
    # supercritical curvature (|H| > 1 on the unit disk) and steep bumps
    # included: every solve ends in one of the four verdicts
    data = BumpData(disk12.domain, (np.cos(angle), np.sin(angle)), width, eps)
    report = solve_dirichlet(disk12, PrescribedCurvature.constant(H), data)
    assert report.verdict in ("converged", "stagnated", "diverged_gradient",
                              "linear_failure")


@given(a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5),
       angle=st.floats(0.0, 2.0 * np.pi), width=st.floats(0.05, 1.0),
       eps=st.floats(-0.5, 0.5))
def test_solve_with_varying_curvature_ends_in_a_verdict(disk12, a, b, angle,
                                                        width, eps):
    # H = a + b x, given as an expression: curvature that changes sign across
    # the disk included
    data = BumpData(disk12.domain, (np.cos(angle), np.sin(angle)), width, eps)
    H = PrescribedCurvature.expression(f"{a!r} + {b!r} * x")
    report = solve_dirichlet(disk12, H, data)
    assert report.verdict in ("converged", "stagnated", "diverged_gradient",
                              "linear_failure")


def test_slope_measures(cap_solve32):
    bs = boundary_slope(cap_solve32.field)
    ss = sup_slope(cap_solve32.field)
    assert bs <= ss + 1e-15
    # exact cap rim slope is 1/sqrt(6.25 - 1) = 0.43644; the one-sided foot
    # chords undershoot the tangent by O(h) on a convex profile
    assert bs == pytest.approx(0.4364, abs=2e-2)
    assert ss == pytest.approx(0.4364, abs=5e-3)


def test_audits_attached(cap_solve32, cap_H):
    audits = estimate_ledger(cap_solve32.field.grid.domain, cap_H, ZeroData(),
                             report=cap_solve32).audits
    assert audits["height"]["passed"] is True
    assert audits["gradient"]["passed"] is True
    assert audits["height"]["measured"] <= audits["height"]["bound"]


def test_zero_curvature_zero_data_gives_zero():
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    report = solve_dirichlet(g, PrescribedCurvature.constant(0.0), ZeroData())
    assert report.verdict == "converged"
    assert report.sup_u < 1e-12
    assert report.iterations <= len(report.stages) * 3


def test_diverged_gradient_verdict(monkeypatch):
    # supercritical curvature with a hostile guard threshold trips the
    # divergence verdict rather than looping
    monkeypatch.setattr(mcgraph.solver, "_GRAD_MAX", 0.5)
    monkeypatch.setattr(mcgraph.solver, "_MAX_ITERS", 40)
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    data = BumpData(disk(radius=1.0), (1.0, 0.0), 0.1, 0.05)
    report = solve_dirichlet(g, PrescribedCurvature.constant(0.55), data)
    assert report.verdict == "diverged_gradient"
    assert "last contraction" in report.message and "defect window" in report.message


def test_stagnation_verdict(monkeypatch):
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    # an absurdly tight update tolerance cannot be met; the stagnation
    # window must end the stage with an honest verdict
    monkeypatch.setattr(mcgraph.solver, "_TOL_UPDATE", 1e-17)
    monkeypatch.setattr(mcgraph.solver, "_residual_tolerance", lambda H, n, domain: 1e-17)
    monkeypatch.setattr(mcgraph.solver, "_MAX_ITERS", 60)
    monkeypatch.setattr(mcgraph.solver, "_STAGNATION_WINDOW", 8)
    report = solve_dirichlet(g, PrescribedCurvature.constant(0.4), ZeroData())
    assert report.verdict == "stagnated"


def test_nonfinite_curvature_ends_in_linear_failure():
    # sqrt(x) is NaN on the left half of the disk, so the load is non-finite;
    # the solve must end in a verdict, not an exception from the linear layer
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    report = solve_dirichlet(g, PrescribedCurvature.expression("sqrt(x)"),
                             ZeroData())
    assert report.verdict == "linear_failure"
    assert "non-finite" in report.message


def test_refused_factorization_ends_in_linear_failure(monkeypatch):
    # a matrix SuperLU refuses ends the solve in a verdict that names the
    # factorization, not in an exception or a Krylov solve without an LU
    def refuse(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(mcgraph.grid.spla, "splu", refuse)
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    report = solve_dirichlet(g, PrescribedCurvature.constant(0.4), ZeroData())
    assert report.verdict == "linear_failure"
    assert "factorization failed" in report.message
    assert report.krylov_iterations == 0 and "laplacian_lu" not in vars(g)


def test_solution_independent_of_tau_path(cap_solve32, cap_walk32):
    # same endpoint by the leap and by the walk through the schedule
    assert cap_solve32.verdict == cap_walk32.verdict == "converged"
    assert np.max(np.abs(cap_solve32.field.values - cap_walk32.field.values)) < 1e-7


def test_negative_curvature_flips_sign(cap_grid32):
    r_pos = solve_dirichlet(cap_grid32, PrescribedCurvature.constant(0.4),
                            ZeroData())
    r_neg = solve_dirichlet(cap_grid32, PrescribedCurvature.constant(-0.4),
                            ZeroData())
    assert r_neg.verdict == "converged"
    assert np.max(np.abs(r_neg.field.values + r_pos.field.values)) < 1e-7


def test_continuation_monotone_in_tau(cap_grid32, cap_H, monkeypatch):
    # for H >= 0 and zero data, a larger load stage pushes the graph down,
    # so the stage solutions decrease pointwise along the schedule; each is
    # the answer of a solve whose schedule ends at that stage
    schedule = mcgraph.solver._TAU_SCHEDULE
    reports = []
    for k in range(1, len(schedule) + 1):
        monkeypatch.setattr(mcgraph.solver, "_TAU_SCHEDULE", schedule[:k])
        reports.append(solve_dirichlet(cap_grid32, cap_H, ZeroData()))
    assert all(r.converged for r in reports)
    fields = [r.field for r in reports]
    for coarse, fine in zip(fields, fields[1:]):
        assert np.max(fine.values - coarse.values) <= 1e-9


def _fresh_factor_per_iterate(monkeypatch):
    # every Newton system on a fresh holder of its own float32 LU: the
    # answer the reuse must keep
    def solve_fresh(system, factor):
        lu = mcgraph.grid.SparseLU(system.A, system.grid.dissection)
        return mcgraph.linear.solve(system, mcgraph.linear.Factor(lu=lu))
    monkeypatch.setattr(mcgraph.solver, "linear_solve", solve_fresh)


def _assert_same_solve(reused, fresh):
    assert reused.verdict == fresh.verdict
    assert reused.iterations == fresh.iterations
    assert [s.iters for s in reused.stages] == [s.iters for s in fresh.stages]
    assert [s.damping_final for s in reused.stages] == [s.damping_final for s in fresh.stages]
    assert np.max(np.abs(reused.field.values - fresh.field.values)) < 1e-10
    assert reused.sup_u == pytest.approx(fresh.sup_u, rel=0, abs=1e-10)


def test_factor_reuse_keeps_cap_solve(cap_solve32, cap_grid32, cap_H, monkeypatch):
    _fresh_factor_per_iterate(monkeypatch)
    fresh = solve_dirichlet(cap_grid32, cap_H, ZeroData())
    _assert_same_solve(cap_solve32, fresh)
    assert 1 <= cap_solve32.factorizations < cap_solve32.iterations
    assert cap_solve32.krylov_iterations > 0
    summary = cap_solve32.summary_dict()
    assert summary["factorizations"] == cap_solve32.factorizations
    assert summary["krylov_iterations"] == cap_solve32.krylov_iterations


def test_factor_reuse_keeps_bump_pair(monkeypatch):
    # the A8 legs on a coarse grid: steep bump data, the most iterates
    dom = disk(radius=1.0)
    grid = Grid(dom, 1.0 / 24.0)
    data = adversarial_boundary_data(dom, (1.0, 0.0), 0.10, 0.05)
    legs = [PrescribedCurvature.constant(h) for h in (0.55, 0.45)]
    reused = [solve_dirichlet(grid, H, data, n=2) for H in legs]
    _fresh_factor_per_iterate(monkeypatch)
    fresh = [solve_dirichlet(grid, H, data, n=2) for H in legs]
    for r, f in zip(reused, fresh):
        _assert_same_solve(r, f)
        assert r.factorizations < r.iterations


@pytest.fixture(scope="module")
def caps_on_one_grid():
    # two zero-data caps on one grid, and the second again on a grid of its own
    dom = disk(radius=1.0)
    grid = Grid(dom, 1.0 / 32.0)
    first = solve_dirichlet(grid, PrescribedCurvature.constant(0.4), ZeroData())
    second = solve_dirichlet(grid, PrescribedCurvature.constant(0.15), ZeroData())
    alone = solve_dirichlet(Grid(dom, 1.0 / 32.0), PrescribedCurvature.constant(0.15),
                            ZeroData())
    return grid, first, second, alone


def test_second_zero_data_solve_makes_no_factorization(caps_on_one_grid):
    # with zero data the first Jacobian is J(0) whatever H is: every solve
    # starts on the grid's LU of it, made once, and counts it as used
    _, first, second, alone = caps_on_one_grid
    assert (first.factorizations, second.factorizations, alone.factorizations) == (1, 1, 1)
    assert second.converged and second.krylov_iterations > 0


def test_reused_lu_fill_reported(caps_on_one_grid):
    grid, first, second, alone = caps_on_one_grid
    assert second.fill_nnz == grid.laplacian_lu.superlu.nnz == first.fill_nnz == alone.fill_nnz > 0
    assert second.summary_dict()["fill_nnz"] == second.fill_nnz


def test_reused_lu_gives_the_fresh_grids_field(caps_on_one_grid):
    _, _, second, alone = caps_on_one_grid
    assert second.field.values.tobytes() == alone.field.values.tobytes()
    assert (second.iterations, second.krylov_iterations) == (alone.iterations,
                                                             alone.krylov_iterations)


def _same_report(report, other):
    summary, expected = report.summary_dict(), other.summary_dict()
    del summary["wall_time_seconds"], expected["wall_time_seconds"]
    assert summary == expected
    assert report.field.values.tobytes() == other.field.values.tobytes()


def test_second_bump_leg_reuses_the_grids_lu():
    # the second A8 leg starts on the grid's J(0) LU, as the first did, and
    # not on an LU the first made: its report and field are those of a leg
    # on a grid of its own
    dom = disk(radius=1.0)
    data = adversarial_boundary_data(dom, (1.0, 0.0), 0.10, 0.05)
    H = PrescribedCurvature.constant(0.45)
    grid = Grid(dom, 1.0 / 24.0)
    solve_dirichlet(grid, PrescribedCurvature.constant(0.55), data, n=2)
    second = solve_dirichlet(grid, H, data, n=2)
    alone = solve_dirichlet(Grid(dom, 1.0 / 24.0), H, data, n=2)
    assert second.verdict == "converged"
    _same_report(second, alone)


def test_sweep_reports_do_not_depend_on_the_order():
    # the nine sweep caps on one grid, ascending and then descending on a
    # second grid: each H has one report whichever solves ran before it
    dom = disk(radius=1.0)
    curvatures = np.linspace(0.05, 0.45, 9)
    reports = {}
    for order in (curvatures, curvatures[::-1]):
        grid = Grid(dom, 1.0 / 32.0)
        for H in order:
            reports.setdefault(H, []).append(
                solve_dirichlet(grid, PrescribedCurvature.constant(H), ZeroData()))
    for up, down in reports.values():
        assert up.converged
        _same_report(up, down)


def test_solve_adds_only_lazy_caches_to_the_grid():
    # a solve leaves on the grid only what any later solve may read: the
    # operators, the pattern, the dissection order, J(0)'s LU and the
    # stencil gathers; every other attribute is the one the grid was built with
    grid = Grid(disk(radius=1.0), 1.0 / 16.0)
    data = adversarial_boundary_data(grid.domain, (1.0, 0.0), 0.10, 0.05)
    before = dict(vars(grid))
    solve_dirichlet(grid, PrescribedCurvature.constant(0.55), data, n=2)
    changed = {name for name, value in vars(grid).items()
               if name not in before or before[name] is not value}
    assert changed <= {"_ops", "_pattern", "dissection", "laplacian_lu", "_taps",
                       "_x_neighbours", "_edge"}
    assert "laplacian_lu" in changed


def test_zero_data_cap_after_other_systems_makes_no_factorization(monkeypatch):
    # a system of another kind solved on the grid leaves its LU with its
    # own holder: the next cap starts on the grid's J(0) LU and calls splu
    # no more
    grid = Grid(disk(radius=1.0), 1.0 / 16.0)
    cap = PrescribedCurvature.constant(0.4)
    first = solve_dirichlet(grid, cap, ZeroData())
    n = grid.n_interior
    solve_linear(mcgraph.linear.LinearSystem(A=sps.identity(n, format="csr"), b=np.ones(n),
                                             grid=grid, feet_values=np.zeros(grid.n_feet)))
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *args, **kwargs: calls.append(1) or splu(*args, **kwargs))
    second = solve_dirichlet(grid, cap, ZeroData())
    assert calls == [] and second.factorizations == 1
    _same_report(second, first)


def test_fill_of_the_held_lu_reported(cap_solve32, cap_grid32):
    # the cap solve uses one LU, the grid's of J(0): the report carries the
    # entries that LU stores
    assert cap_solve32.factorizations == 1
    assert cap_solve32.fill_nnz == cap_grid32.laplacian_lu.superlu.nnz > 0
    assert cap_solve32.summary_dict()["fill_nnz"] == cap_solve32.fill_nnz
