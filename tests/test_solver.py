"""Continuation solver: convergence, verdicts, slope bookkeeping."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import mcgraph.grid
import mcgraph.linear
import mcgraph.solver
from mcgraph import (BumpData, Evaluation, ExpressionData, Grid, PrescribedCurvature,
                     ZeroData, adversarial_boundary_data, annulus, boundary_slope,
                     disk, dumbbell, ellipse, estimate_ledger, levelset, rect,
                     rounded_rect, solve_dirichlet, solve_linear, sup_slope)
from mcgraph.reference import get as get_reference, manufactured


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
    # draw 90 of the continuation benchmark's sample (seed 20261019).  From
    # the lift the leap's corrections contract, but its third step raises
    # the defect 0.0149 -> 0.253, so the leap ends stagnated after three
    # steps; the walk from a quarter of the lift then takes [2, 3, 3, 3]
    # steps, 14 in all.  The final stage stops on the contraction bound:
    # its last two updates, 1.8e-4 and 4.0e-7, bound the answer's distance
    # to the solution by 8.7e-10.  A leap from u = 0 reaches the same
    # height, in four steps
    grid = Grid(disk(radius=1.0), 1.0 / 12.0)
    angle = 4.220611398153058
    data = BumpData(grid.domain, (np.cos(angle), np.sin(angle)), 0.08181064604271274,
                    0.17083554627395126)
    report = solve_dirichlet(grid, PrescribedCurvature.constant(0.32662548806931513), data)
    assert report.verdict == "converged"
    assert [(s.tau, s.iters) for s in report.stages] == [(0.25, 2), (0.5, 3), (0.75, 3),
                                                         (1.0, 3)]
    leap = report.trace[:3]
    assert [row["tau"] for row in leap] == [1.0] * 3
    assert leap[2]["update"] < leap[1]["update"] < leap[0]["update"]
    assert leap[2]["residual_core"] > 10 * leap[1]["residual_core"]
    assert report.iterations == len(report.trace) == 14
    assert report.factorizations == 2 and report.float64_factorizations == 0
    assert _contraction_bound(report.trace[-2:]) <= mcgraph.solver._TOL_UPDATE
    assert report.sup_u == pytest.approx(0.1674660208073471, rel=0, abs=1e-12)


# a manufactured solution: u's curvature H = M u / (2 W^3) is built from u's
# own derivative trees by `reference.manufactured`
_U = "0.4*sin(1.3*x + 0.4)*cos(0.9*y) + 0.15*x*y"

_SHAPES = {
    "disk": disk(radius=1.0),
    "ellipse": ellipse(1.2, 0.7),
    "rect": rect(0.6, 0.6),
    "rounded_rect": rounded_rect(1.0, 0.6, 0.25),
    "annulus": annulus(0.5, 1.0),
    "dumbbell": dumbbell(1.0, 1.3),
    "levelset": levelset("1 - (x/1.1)**2 - (y/0.7)**2 - 0.2*x*y", (-1.3, 1.3, -1.0, 1.0)),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_manufactured_solution_converges_at_second_order(shape):
    # smooth data of slope up to 0.55 and a curvature that varies, on every
    # kind of domain: each spacing converges and the error falls about 4x
    # per halving, to 1.2e-7 (rect) ... 1.1e-6 (dumbbell) at h = 1/128.  A
    # spurious discrete answer, with an error near 1e-2 and foot slopes near
    # 13, fails the ratio.  The annulus's first ratio is 5.96: its feet's
    # intercept fractions shift together from h = 1/32 to 1/64, so the
    # closure error's coefficient jumps, as on A3's square; it is held to
    # second order from below only
    ref = manufactured(_U, _SHAPES[shape])
    data = ExpressionData(_U)
    errors = []
    for h in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        report = solve_dirichlet(Grid(ref.domain, h), ref.curvature, data)
        assert report.verdict == "converged", h
        errors.append(ref.error(report.field))
    assert errors[-1] <= 2e-6, errors
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert 3.0 <= ratios[0] <= (np.inf if shape == "annulus" else 5.0), errors
    assert 3.0 <= ratios[1] <= 5.0, errors


def test_manufactured_curvature_gradient_matches_central_differences():
    # grad H is a third derivative of u, differentiated from H's tree; it
    # agrees with central differences of H at the step and tolerance of
    # test_jet_matches_central_differences
    H = manufactured(_U, disk(radius=1.0)).curvature
    pts = np.random.default_rng(3).uniform(-0.9, 0.9, (200, 2))
    h = 1e-5
    exact = H.gradient(pts)
    for k, step in enumerate(([h, 0.0], [0.0, h])):
        fd = (H(pts + step) - H(pts - step)) / (2 * h)
        assert np.all(np.abs(exact[:, k] - fd) <= 1e-6 * (1.0 + np.abs(exact[:, k])))


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
    ev = Evaluation(cap_solve32.field, cap_H, 2, 1.0)
    delta, _ = solve_linear(ev.jacobian(), -ev.q, mcgraph.linear.Factor(ev.u.grid))
    assert np.max(np.abs(delta)) < 1e-10
    # the correction lives on the interior values alone: delta = 0 at the feet
    assert delta.shape == (ev.u.grid.n_interior,)


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
    delta, _ = mcgraph.linear.solve(ev.jacobian(), -ev.q, mcgraph.linear.Factor(ev.u.grid))
    return float(np.max(np.abs(delta)))


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
    # leap and the final stage of the walk end at their first defect rise,
    # 12 steps in all, and the message names the rise, the last contraction
    # and the worst node, a collar node where |Q u| is largest
    grid = Grid(disk(radius=1.0), 1.0 / 32.0)
    report = solve_dirichlet(grid, PrescribedCurvature.constant(0.97), ZeroData())
    assert report.verdict == "stagnated"
    assert [(s.tau, s.iters) for s in report.stages] == [(0.25, 2), (0.5, 2), (0.75, 3),
                                                         (1.0, 3)]
    assert report.iterations == len(report.trace) == 12
    assert report.factorizations == 2
    last, before = report.trace[-1], report.trace[-2]
    assert (before["residual_core"], last["residual_core"]) == pytest.approx((0.5719, 16.61),
                                                                             rel=1e-3)
    worst = int(np.argmax(np.abs(Evaluation(report.field, PrescribedCurvature.constant(0.97),
                                            2, 1.0).q)))
    x, y = grid.interior_xy[worst]
    assert not grid.core_mask[worst]
    assert report.message == (
        f"stage tau=1 ended stagnated after 3 iterations "
        f"(defect {last['residual_core']:.3e}); defect rose "
        f"{before['residual_core']:.3e} -> {last['residual_core']:.3e}, "
        f"last contraction {last['update'] / before['update']:.3g}; "
        f"worst node ({x:.4g}, {y:.4g}) in the collar")


def test_growing_correction_with_a_falling_defect_keeps_its_stage():
    # a draw of a seed-7 sample on the h = 1/48 disk: the final stage's
    # second correction is larger than its first (0.215 -> 0.276) while its
    # defect falls (81 -> 58), and the stage then converges in 9 steps.  A
    # stop on a growing correction would end it stagnated
    grid = Grid(disk(radius=1.0), 1.0 / 48.0)
    angle = 3.263916033722031
    data = BumpData(grid.domain, (np.cos(angle), np.sin(angle)), 0.32608890055113937,
                    -0.4489431494214864)
    report = solve_dirichlet(grid, PrescribedCurvature.constant(-0.7189795527946068), data)
    assert report.verdict == "converged"
    assert [(s.tau, s.iters) for s in report.stages] == [(0.25, 3), (0.5, 3), (0.75, 4),
                                                         (1.0, 9)]
    assert report.sup_u == pytest.approx(0.44890503687114874, rel=0, abs=1e-12)
    final = report.trace[-9:]
    assert final[1]["update"] > final[0]["update"]
    assert final[1]["residual_core"] < final[0]["residual_core"]


def test_sweep_caps_keep_full_damping(cap_grid32):
    # defect growth at the rounding floor of a converged stage is no reason
    # to stop: every sweep cap's leap converges, on full steps throughout
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
    assert "last contraction" in report.message


def test_stagnation_verdict(monkeypatch):
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    # an absurdly tight update tolerance cannot be met; a defect rise at
    # the rounding floor, or the step limit, must end the stage with an
    # honest verdict
    monkeypatch.setattr(mcgraph.solver, "_TOL_UPDATE", 1e-17)
    monkeypatch.setattr(mcgraph.solver, "_residual_tolerance", lambda H, n, domain: 1e-17)
    monkeypatch.setattr(mcgraph.solver, "_MAX_ITERS", 60)
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
    # bump data asks for J(0)'s LU first for its lift, and starts from u = 0
    # when it is refused
    for data in (ZeroData(), BumpData(disk(radius=1.0), (1.0, 0.0), 0.3, 0.2)):
        g = Grid(disk(radius=1.0), 1.0 / 16.0)
        report = solve_dirichlet(g, PrescribedCurvature.constant(0.4), data)
        assert report.verdict == "linear_failure"
        assert "factorization failed" in report.message
        assert report.krylov_iterations == 0 and "laplacian_lu" not in vars(g)


def test_refused_j0_ends_the_solve_in_linear_failure(monkeypatch):
    # SuperLU refuses J(0) itself: the leap's first system fails on it, and
    # the walk's first system on its own float32 and float64 factorizations.
    # Zero data and data with a lift alike end in a verdict, not an
    # exception, after two Newton steps and three factorizations
    def refuse(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(mcgraph.grid.spla, "splu", refuse)
    for data in (ZeroData(), ExpressionData("0.2*x")):
        report = solve_dirichlet(Grid(disk(radius=1.0), 1.0 / 16.0),
                                 PrescribedCurvature.constant(0.4), data)
        assert report.verdict == "linear_failure"
        assert report.message.startswith("factorization failed")
        assert report.iterations == 2 and report.factorizations == 3


def test_data_beyond_float32_starts_from_zero(disk12):
    # the lift is solved in float32, so bumps of height 1e37 and 1e300 lift
    # to non-finite fields; such a solve starts from u = 0 instead, where
    # the slope guard trips or the Newton system is non-finite
    H = PrescribedCurvature.constant(0.3)
    for eps, verdict in ((1e37, "diverged_gradient"), (1e300, "linear_failure")):
        data = BumpData(disk12.domain, (1.0, 0.0), 0.3, eps)
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_dirichlet(disk12, H, data)
        assert report.verdict == verdict, eps


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
    def solve_fresh(A, b, factor):
        lu = mcgraph.grid.SparseLU(A)
        return mcgraph.linear.solve(A, b, mcgraph.linear.Factor(lu=lu))
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
    # operators, the pattern, J(0)'s LU and the stencil gathers; every
    # other attribute is the one the grid was built with
    grid = Grid(disk(radius=1.0), 1.0 / 16.0)
    data = adversarial_boundary_data(grid.domain, (1.0, 0.0), 0.10, 0.05)
    before = dict(vars(grid))
    solve_dirichlet(grid, PrescribedCurvature.constant(0.55), data, n=2)
    changed = {name for name, value in vars(grid).items()
               if name not in before or before[name] is not value}
    assert changed <= {"_ops", "_pattern", "laplacian_lu", "_taps", "_x_neighbours",
                       "_edge"}
    assert "laplacian_lu" in changed


def test_zero_data_cap_after_other_systems_makes_no_factorization(monkeypatch):
    # a system of another kind solved on the grid leaves its LU with its
    # own holder: the next cap starts on the grid's J(0) LU and calls splu
    # no more
    grid = Grid(disk(radius=1.0), 1.0 / 16.0)
    cap = PrescribedCurvature.constant(0.4)
    first = solve_dirichlet(grid, cap, ZeroData())
    n = grid.n_interior
    solve_linear(sps.identity(n, format="csr"), np.ones(n), mcgraph.linear.Factor(grid))
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
