"""End-to-end acceptance gates, one numbered criterion per test.

Each test computes everything its criterion asks for, prints a single
A<k> PASS/FAIL line (bypassing capture so the line shows under plain
pytest), and only then asserts.  Heavy solves are shared through module
fixtures; each fixture times itself so runtime budgets cover the real
cost of the work a criterion mandates.

Two gates are expected red and are asserted as stated rather than
weakened.  A3's refinement-ratio bracket: on the off-lattice square all
feet on an edge share one intercept fraction, so the edge closure error
moves coherently as h halves and the 1/64 -> 1/128 sup-error pair
overshoots [3, 5] (ratio ~6.5, i.e. faster than second order on that
pair) while the error itself sits four orders below its gate.  A8's
witness verdict: the certified non-existence radius for the
supercritical leg is ~10^-5559, thousands of orders of magnitude below
any floating-point grid spacing, so at resolvable resolutions the
discrete problem remains a regular perturbation of the subcritical one
and no refinement witness can fire.  A8's certificate and control leg
are asserted green.
"""

import math
import time

import numpy as np
import pytest

from mcgraph import (Grid, ScalarField, PrescribedCurvature, ZeroData,
                     ExpressionData, apply_M, assemble, barrier_pair_checks,
                     boundary_gradient_package, check_serrin,
                     coefficient_matrix, comparison_check, disk, estimate_ledger,
                     adversarial_boundary_data, get_reference, height_barrier,
                     nonexistence_bound, nonexistence_witness, rect,
                     scherk_trace, solve_dirichlet, solve_linear)
from mcgraph.barriers import LogProfile, SqrtProfile

CAP_H = PrescribedCurvature.constant(0.4)
MINIMAL = PrescribedCurvature.constant(0.0)


def _emit(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n{tag} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def disk_grids():
    return Grid(disk(radius=1.0), 1.0 / 64.0), Grid(disk(radius=1.0), 1.0 / 128.0)


@pytest.fixture(scope="module")
def cap_runs(disk_grids):
    """Constant-curvature solves on the unit disk at the two gate spacings."""
    g64, g128 = disk_grids
    t0 = time.perf_counter()
    r64 = solve_dirichlet(g64, CAP_H, ZeroData(), n=2)
    r128 = solve_dirichlet(g128, CAP_H, ZeroData(), n=2)
    return {"g64": g64, "g128": g128, "r64": r64, "r128": r128,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def scherk_runs():
    """Minimal-surface solves on the square with the analytic trace."""
    dom = rect(0.6, 0.6)
    t0 = time.perf_counter()
    out = {}
    for tag, h in (("r64", 1.0 / 64.0), ("r128", 1.0 / 128.0)):
        grid = Grid(dom, h)
        out[tag] = solve_dirichlet(grid, MINIMAL, scherk_trace(), n=2)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def a8_runs(disk_grids):
    """Supercritical certificate plus refinement solves for both curvature legs."""
    dom = disk(radius=1.0)
    y0, eps, width = (1.0, 0.0), 0.05, 0.10
    g64, g128 = disk_grids
    t0 = time.perf_counter()
    cert = nonexistence_bound(dom, PrescribedCurvature.constant(0.55), y0,
                              eps, n=2)
    data = adversarial_boundary_data(dom, y0, width, eps)
    out = {"cert": cert, "eps": eps}
    for tag, hval in (("55", 0.55), ("45", 0.45)):
        H = PrescribedCurvature.constant(hval)
        reports = [solve_dirichlet(g, H, data, n=2) for g in (g64, g128)]
        out["reports" + tag] = reports
        out["wit" + tag] = nonexistence_witness(reports, y0, data, eps,
                                                radius_a=width)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_A1_operator_consistency(capsys):
    # sampled analytic minimal graph: the interior residual of the
    # quasilinear operator must shrink at the scheme's order
    dom = rect(0.6, 0.6)
    exact = get_reference("scherk")
    t0 = time.perf_counter()
    sups = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        grid = Grid(dom, h)
        u = exact.field(grid)
        r = apply_M(u)
        sups.append(float(np.max(np.abs(r[grid.core_mask]))))
    elapsed = time.perf_counter() - t0
    ratio = sups[0] / sups[1]
    ok = 3.0 <= ratio <= 5.0 and elapsed < 5.0
    _emit(capsys, "A1", ok,
          f"operator residual {sups[0]:.3e} -> {sups[1]:.3e}, "
          f"ratio {ratio:.2f} in [3, 5] ({elapsed:.1f}s < 5s)")
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 5.0


def test_A2_constant_curvature_solve(cap_runs, capsys):
    exact = get_reference("cap")
    r64, r128 = cap_runs["r64"], cap_runs["r128"]
    err64 = exact.error(r64.field)
    err128 = exact.error(r128.field)
    ratio = err64 / err128
    max_stage = max(s.iters for s in r64.stages)
    elapsed = cap_runs["elapsed"]
    ok = (r64.converged and r128.converged and err64 <= 5e-3
          and 3.0 <= ratio <= 5.0 and max_stage <= 50 and elapsed < 30.0)
    _emit(capsys, "A2", ok,
          f"{r64.verdict}, sup error {err64:.3e} <= 5e-3, "
          f"ratio {ratio:.2f} in [3, 5], max {max_stage} steps/stage <= 50 "
          f"({elapsed:.1f}s < 30s)")
    assert r64.converged and r128.converged
    assert err64 <= 5e-3
    assert 3.0 <= ratio <= 5.0
    assert max_stage <= 50
    assert elapsed < 30.0


def test_A3_minimal_solve(scherk_runs, capsys):
    exact = get_reference("scherk")
    r64, r128 = scherk_runs["r64"], scherk_runs["r128"]
    err64 = exact.error(r64.field)
    err128 = exact.error(r128.field)
    ratio = err64 / err128
    ok = r64.converged and r128.converged and err64 <= 5e-3 and 3.0 <= ratio <= 5.0
    _emit(capsys, "A3", ok,
          f"{r64.verdict}, sup error {err64:.3e} <= 5e-3, "
          f"ratio {ratio:.2f} vs [3, 5]"
          + ("" if ok else " (superconvergent pair, see assertion message)"))
    assert r64.converged and r128.converged
    assert err64 <= 5e-3
    # expected red: on this square no lattice aligns with the boundary, and
    # every foot on an edge shares one intercept fraction, so the whole
    # edge's closure-error coefficient jumps coherently as h halves (the
    # fraction runs 0.4 -> 0.8 over this pair).  The sup error therefore
    # drops faster than the bracket allows on exactly this pair (observed
    # orders 2.1 and 2.7 across {1/32, 1/64, 1/128}); convergence is second
    # order, just not uniformly 4.0x per halving.  Asserted as stated
    # rather than widened or measured on a friendlier pair.
    assert 3.0 <= ratio <= 5.0, (
        f"error {err64:.3e} -> {err128:.3e}: one-pair ratio {ratio:.2f} "
        f"overshoots [3, 5]; the decay is faster than the bracket, not "
        f"slower, and the absolute error sits 4 orders below the gate")


def test_A4_ellipticity(capsys):
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    dirs = rng.uniform(-1.0, 1.0, size=(1000, 2))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1), 1e-30)[:, None]
    ps = dirs * rng.uniform(0.0, 10.0, size=1000)[:, None]
    worst = 0.0
    for p in ps:
        A, _ = coefficient_matrix(p)
        computed = np.linalg.eigvalsh(A)
        exact = np.sort([1.0, 1.0 + float(p @ p)])
        worst = max(worst, float(np.max(np.abs(computed - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _emit(capsys, "A4", ok,
          f"1000 eigenpairs, worst deviation {worst:.2e} <= 1e-12 "
          f"({elapsed:.2f}s < 1s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_A5_estimate_compliance(cap_runs, scherk_runs, capsys):
    reports = [cap_runs["r64"], cap_runs["r128"],
               scherk_runs["r64"], scherk_runs["r128"]]
    problems = [(CAP_H, ZeroData())] * 2 + [(MINIMAL, scherk_trace())] * 2
    audits = [estimate_ledger(rep.field.grid.domain, H, data, report=rep).audits
              for rep, (H, data) in zip(reports, problems)]
    audit_ok = all(a["height"]["passed"] and a["gradient"]["passed"]
                   for a, rep in zip(audits, reports) if rep.converged)
    sup = cap_runs["r64"].sup_u
    bound = audits[0]["height"]["bound"]
    cap_ok = (abs(sup - 0.209) <= 1e-3 and abs(bound - 4.94) <= 1e-2
              and sup <= bound)
    ok = audit_ok and cap_ok and all(r.converged for r in reports)
    _emit(capsys, "A5", ok,
          f"height + gradient audits pass on all 4 solves; "
          f"cap sup|u| {sup:.4f} ~ 0.209 <= bound {bound:.3f} ~ 4.94")
    assert all(r.converged for r in reports)
    assert audit_ok
    assert cap_ok


def test_A6_boundary_solvability_margins(capsys):
    dom = disk(radius=1.0)
    margins = {}
    for hval in (0.5, 0.45, 0.55):
        margins[hval] = check_serrin(dom, PrescribedCurvature.constant(hval), 2)
    ok = (abs(margins[0.5].margin) <= 1e-9
          and margins[0.45].satisfied
          and abs(margins[0.45].margin - 0.1) <= 1e-9
          and not margins[0.55].satisfied
          and abs(margins[0.55].margin + 0.1) <= 1e-9)
    _emit(capsys, "A6", ok,
          f"margins at threshold/below/above: {margins[0.5].margin:.2e}, "
          f"+{margins[0.45].margin:.3f}, {margins[0.55].margin:.3f} "
          f"(each to 1e-9)")
    assert abs(margins[0.5].margin) <= 1e-9
    assert margins[0.45].satisfied and abs(margins[0.45].margin - 0.1) <= 1e-9
    assert not margins[0.55].satisfied
    assert abs(margins[0.55].margin + 0.1) <= 1e-9


def test_A7_barrier_properties(cap_runs, capsys):
    dom = disk(radius=1.0)
    g64, r64 = cap_runs["g64"], cap_runs["r64"]
    t0 = time.perf_counter()
    # (i) the height barrier is a supersolution on its whole strip
    _, sign_audit = height_barrier(dom, CAP_H, g64, data=None, n=2)
    # (ii) the gradient barrier pair brackets the converged solution
    pkg = boundary_gradient_package(dom, CAP_H, ZeroData(), n=2,
                                    u_sup=r64.sup_u)
    checks = barrier_pair_checks(pkg, r64.field, CAP_H, ZeroData(), n=2)
    qwp = checks["qwp_negative"].measured
    qwm = checks["qwm_positive"].measured
    sandwich = checks["sandwich"].measured
    # (iii) the profile identities, relative form, 10^4 points each
    nu, k, a = pkg.params.nu, pkg.params.k, pkg.params.a
    t = np.linspace(a * 1e-6, a, 10_000)
    lp = LogProfile(nu, k)
    term = nu * lp.d1(t) ** 2
    rel_log = float(np.max(np.abs(term + lp.d2(t)) / np.abs(term)))
    sp = SqrtProfile(0.0125, 0.3)
    ts = np.linspace(0.3e-6, 0.3 * (1.0 - 1e-9), 10_000)
    term_s = 0.0125 * sp.d1(ts) ** 3
    rel_sqrt = float(np.max(np.abs(term_s + sp.d2(ts)) / np.abs(term_s)))
    elapsed = time.perf_counter() - t0
    ok = (sign_audit.passed and qwp < 0 and qwm < 0 and sandwich <= 1e-6
          and rel_log <= 1e-12 and rel_sqrt <= 1e-12 and elapsed < 10.0)
    _emit(capsys, "A7", ok,
          f"Q(height barrier) max {sign_audit.measured:.3e} <= 0; "
          f"pair signs {qwp:.3e} / {-qwm:.3e}, sandwich gap "
          f"{sandwich:.2e} <= 1e-6; identities rel {rel_log:.1e}, "
          f"{rel_sqrt:.1e} <= 1e-12 ({elapsed:.1f}s < 10s)")
    assert sign_audit.passed
    assert qwp < 0.0
    assert qwm < 0.0           # stored as max of -(Q w-), negative means Q w- > 0
    assert sandwich <= 1e-6
    assert rel_log <= 1e-12
    assert rel_sqrt <= 1e-12
    assert elapsed < 10.0


def test_A8_nonexistence_witness(a8_runs, capsys):
    cert, eps = a8_runs["cert"], a8_runs["eps"]
    wit55, wit45 = a8_runs["wit55"], a8_runs["wit45"]
    elapsed = a8_runs["elapsed"]
    cert_ok = math.isfinite(cert.log10_a) and cert.g_value < eps
    control_ok = (wit45.verdict == "NO-WITNESS"
                  and all(r.converged for r in a8_runs["reports45"])
                  and wit45.attainment_gap <= 5e-3)
    witness_ok = wit55.verdict == "WITNESS"
    ok = cert_ok and control_ok and witness_ok and elapsed < 60.0
    _emit(capsys, "A8", ok,
          f"certificate a = 10^{cert.log10_a:.0f} > 0 with "
          f"g(a) {cert.g_value:.3f} < eps {eps:g}; control NO-WITNESS with "
          f"attainment gap {wit45.attainment_gap:.2e} <= 5e-3; "
          f"supercritical verdict {wit55.verdict} (expected WITNESS) "
          f"({elapsed:.0f}s < 60s)")
    assert cert_ok
    assert control_ok
    assert elapsed < 60.0
    # expected red: the certified radius is ~10^-5559, so every resolvable
    # grid sees a regular perturbation of the subcritical problem; the
    # solves converge, the local slope ratio stays near 1, and no witness
    # can fire.  Asserted anyway instead of being weakened.
    assert wit55.verdict == "WITNESS", (
        f"supercritical leg stayed regular at resolvable spacings: "
        f"verdicts {[r.verdict for r in a8_runs['reports55']]}, "
        f"slope ratios {[f'{r:.3f}' for r in wit55.gradient_ratios]}, "
        f"attainment gap {wit55.attainment_gap:.2e}")


def test_A9_comparison_suite(cap_runs, capsys):
    u = cap_runs["r64"].field
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    passes = 0
    for _ in range(100):
        c = float(rng.uniform(0.0, 1.0))
        if comparison_check(u, u.shifted(c), CAP_H, n=2).verdict == "pass":
            passes += 1
    # hypothesis violations must abstain, never certify a false ordering
    flipped = comparison_check(u.shifted(0.3), u, CAP_H, n=2)
    zero = ScalarField.from_callable(u.grid, lambda x, y: np.zeros_like(x))
    q_violating = comparison_check(zero, u, CAP_H, n=2)
    elapsed = time.perf_counter() - t0
    ok = (passes == 100 and flipped.verdict == "not-applicable"
          and q_violating.verdict == "not-applicable" and elapsed < 10.0)
    _emit(capsys, "A9", ok,
          f"{passes}/100 translation pairs pass; violating pairs -> "
          f"not-applicable, never a false pass ({elapsed:.1f}s < 10s)")
    assert passes == 100
    assert flipped.verdict == "not-applicable" and not bool(flipped)
    assert q_violating.verdict == "not-applicable" and not bool(q_violating)
    assert elapsed < 10.0


def test_A10_linear_subproblem(capsys):
    t0 = time.perf_counter()
    grid = Grid(disk(radius=1.0), 1.0 / 32.0)
    zero_state = ScalarField.zeros(grid)
    # manufactured harmonic trace
    sys_h = assemble(zero_state, MINIMAL, ExpressionData("x**2 - y**2"),
                     n=2, tau=1.0)
    u_h = solve_linear(sys_h)
    err_h = float(np.max(np.abs(
        u_h.values - (grid.interior_xy[:, 0] ** 2 - grid.interior_xy[:, 1] ** 2))))
    # radial load: u = r^2 - 1 solves Laplace u = 4 with zero trace
    sys_p = assemble(zero_state, PrescribedCurvature.constant(2.0), ZeroData(),
                     n=2, tau=1.0)
    u_p = solve_linear(sys_p)
    err_p = float(np.max(np.abs(
        u_p.values - (np.sum(grid.interior_xy ** 2, axis=-1) - 1.0))))
    # discrete maximum principle for the curvature-free problem
    data = ExpressionData("0.3*sin(3*x) + 0.2*cos(2*y)")
    sys_m = assemble(zero_state, MINIMAL, data, n=2, tau=1.0)
    u_m = solve_linear(sys_m)
    lo, hi = float(np.min(u_m.feet)), float(np.max(u_m.feet))
    violation = max(float(np.max(u_m.values)) - hi,
                    lo - float(np.min(u_m.values)), 0.0)
    elapsed = time.perf_counter() - t0
    ok = (err_h < 1e-8 and err_p < 1e-8 and violation <= 1e-9
          and elapsed < 5.0)
    _emit(capsys, "A10", ok,
          f"manufactured {err_h:.2e} < 1e-8, radial {err_p:.2e} < 1e-8, "
          f"max principle violation {violation:.2e} <= 1e-9 "
          f"({elapsed:.1f}s < 5s)")
    assert err_h < 1e-8
    assert err_p < 1e-8
    assert violation <= 1e-9
    assert elapsed < 5.0
