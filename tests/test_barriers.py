"""A priori estimates, barrier transformations, and the non-existence bound."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

import mcgraph.barriers
import mcgraph.solver

from mcgraph import (BumpData, Grid, NotApplicable, PrescribedCurvature,
                     ScalarField, ZeroData, adversarial_boundary_data,
                     barrier_pair_checks, boundary_gradient_package,
                     comparison_check, compile_expr, disk, ellipse,
                     estimate_ledger, global_gradient_bound, height_barrier,
                     height_bound, nonexistence_bound, nonexistence_witness,
                     rect, scherk_trace, solve_dirichlet)
from mcgraph.barriers import (BarrierParams, BoundaryDistance, EstimateAudit,
                              HeightProfile, LogProfile, NegatedProfile,
                              SqrtProfile, transform_radial)

# -- profiles ---------------------------------------------------------------


def test_height_profile_values():
    p = HeightProfile(0.8, 2.0)
    t = np.linspace(0.0, 2.0, 7)
    expect = (math.exp(1.6) / 0.8) * (1.0 - np.exp(-0.8 * t))
    assert np.allclose(p(t), expect, rtol=1e-14)
    assert p.slack == pytest.approx(math.expm1(1.6) / 0.8, rel=1e-15)


def test_height_profile_zero_mu_limit():
    p0 = HeightProfile(0.0, 2.0)
    t = np.linspace(0.0, 2.0, 7)
    assert np.allclose(p0(t), t)
    assert p0.slack == 2.0
    # continuity in mu: tiny mu approaches the linear profile
    p1 = HeightProfile(1e-10, 2.0)
    assert np.allclose(p1(t), t, atol=1e-8)


def test_height_profile_derivative_consistency():
    p = HeightProfile(0.8, 2.0)
    t = np.linspace(0.1, 1.9, 100)
    dt = 1e-6
    fd1 = (p(t + dt) - p(t - dt)) / (2 * dt)
    assert np.max(np.abs(fd1 - p.d1(t))) < 1e-7
    fd2 = (p.d1(t + dt) - p.d1(t - dt)) / (2 * dt)
    assert np.max(np.abs(fd2 - p.d2(t))) < 1e-6


def test_log_profile_identity_relative():
    # nu psi'^2 + psi'' = 0; at solver-scale constants the two terms reach
    # 1e13, so the cancellation has to be measured relatively
    nu, k = 61.6, 2.3610440506e7
    psi = LogProfile(nu, k)
    t = np.linspace(0.0, 0.0162, 10_000)
    lhs = nu * psi.d1(t) ** 2 + psi.d2(t)
    scale = np.abs(nu * psi.d1(t) ** 2)
    assert np.max(np.abs(lhs) / scale) < 1e-12


def test_sqrt_profile_identity():
    nu = 0.0125
    phi = SqrtProfile(nu, 0.3)
    t = np.linspace(1e-6, 0.3, 10_000)
    lhs = nu * phi.d1(t) ** 3 + phi.d2(t)
    scale = np.abs(phi.d2(t))
    assert np.max(np.abs(lhs) / scale) < 1e-12
    assert phi(np.array([0.3]))[0] == pytest.approx(0.0, abs=1e-15)


def test_negated_profile():
    base = LogProfile(61.6, 1e4)
    neg = NegatedProfile(base)
    t = np.linspace(0.0, 0.01, 50)
    assert np.allclose(neg(t), -base(t))
    assert np.allclose(neg.d1(t), -base.d1(t))
    assert np.allclose(neg.d2(t), -base.d2(t))


# -- distance models ----------------------------------------------------------


def _fd_check(dist, pts, h=1e-6):
    pts = np.asarray(pts, dtype=float)
    gx = (dist.rho(pts + [h, 0]) - dist.rho(pts - [h, 0])) / (2 * h)
    gy = (dist.rho(pts + [0, h]) - dist.rho(pts - [0, h])) / (2 * h)
    g = dist.grad(pts)
    assert np.max(np.abs(g[:, 0] - gx)) < 1e-7
    assert np.max(np.abs(g[:, 1] - gy)) < 1e-7
    lap_fd = (dist.rho(pts + [h, 0]) + dist.rho(pts - [h, 0])
              + dist.rho(pts + [0, h]) + dist.rho(pts - [0, h])
              - 4 * dist.rho(pts)) / h**2
    assert np.max(np.abs(dist.laplacian(pts) - lap_fd)) < 1e-3
    hess = dist.hess(pts)
    tr = hess[:, 0, 0] + hess[:, 1, 1]
    assert np.max(np.abs(tr - dist.laplacian(pts))) < 1e-12


def test_boundary_distance_disk_derivatives():
    d = BoundaryDistance(disk(radius=1.0))
    pts = np.array([[0.5, 0.0], [0.0, -0.7], [0.3, 0.3]])
    assert np.allclose(d.rho(pts),
                       1.0 - np.linalg.norm(pts, axis=-1), atol=1e-9)
    _fd_check(d, pts)


def test_boundary_distance_ellipse_derivatives():
    dom = ellipse(1.0, 0.6)
    d = BoundaryDistance(dom)
    # points one tenth inward along the normals, well inside the smoothness
    # strip (the evolute of this ellipse starts at depth 0.36)
    b = dom.boundary
    pts = b.points[::512] + 0.1 * b.normals[::512]
    assert d.valid(pts).all()
    g = d.grad(pts)
    # |grad d| = 1 wherever the nearest point is unique
    assert np.allclose(np.linalg.norm(g, axis=-1), 1.0, atol=1e-6)
    assert np.allclose(d.rho(pts), 0.1, atol=1e-3)


# -- transformation formula ---------------------------------------------------


def test_transform_matches_discrete_operator_scalar_shift(cap_grid32):
    # route one: closed-form M(psi(d) + c); route two: the grid operator
    # applied to the sampled barrier
    prof = HeightProfile(0.8, 2.0)
    tf = transform_radial(prof, 0.25, cap_grid32)
    dist = BoundaryDistance(disk(radius=1.0))

    def w_fn(x, y):
        pts = np.stack([x, y], axis=-1)
        return prof(dist.rho(pts)) + 0.25

    u = ScalarField.from_callable(cap_grid32, w_fn)
    from mcgraph import apply_M
    m_disc = apply_M(u)

    def rel_err(tfv, mv, sel):
        return np.max(np.abs(tfv[sel] - mv[sel]) / (1.0 + np.abs(tfv[sel])))

    # keep the band away from the disk center: laplacian(rho) = -1/r there,
    # so the discrete truncation blows up even though both routes agree
    depth = cap_grid32.domain.signed_distance(cap_grid32.interior_xy)
    sel = tf.valid & cap_grid32.core_mask & (depth < 0.5)
    assert np.sum(sel) > 100
    err32 = rel_err(tf.m_values, m_disc, sel)
    assert err32 < 5e-3
    # refinement shrinks the disagreement like the scheme order
    g64 = Grid(disk(radius=1.0), 1.0 / 64.0)
    tf64 = transform_radial(prof, 0.25, g64)
    u64 = ScalarField.from_callable(g64, w_fn)
    m64 = apply_M(u64)
    sel64 = tf64.valid & g64.core_mask & (g64.domain.signed_distance(g64.interior_xy) < 0.5)
    err64 = rel_err(tf64.m_values, m64, sel64)
    assert err64 < err32 / 2.5


def test_transform_matches_discrete_operator_general_phi(cap_grid32):
    prof = HeightProfile(0.5, 2.0)
    phi = compile_expr("0.1*x**2 - 0.05*x*y + 0.2*y")
    dom = disk(radius=1.0)
    tf = transform_radial(prof, phi, cap_grid32)
    dist = BoundaryDistance(dom)

    def w_fn(x, y):
        pts = np.stack([x, y], axis=-1)
        return prof(dist.rho(pts)) + phi(x, y)

    from mcgraph import apply_M
    u = ScalarField.from_callable(cap_grid32, w_fn)
    m_disc = apply_M(u)
    depth = cap_grid32.domain.signed_distance(cap_grid32.interior_xy)
    sel = tf.valid & cap_grid32.core_mask & (depth < 0.5)
    rel = np.abs(tf.m_values[sel] - m_disc[sel]) / (1.0 + np.abs(tf.m_values[sel]))
    assert np.max(rel) < 5e-3


def test_transform_radial_distance_model(cap_grid32):
    # nodes outside the model's validity region are excluded and left NaN:
    # the boundary distance of the disk is smooth everywhere but the centre
    prof = SqrtProfile(0.0125, 0.3)
    dist = BoundaryDistance(disk(radius=1.0))
    tf = transform_radial(prof, 0.0, cap_grid32, distance=dist)
    centre = np.all(cap_grid32.interior_xy == 0.0, axis=-1)
    assert np.array_equal(~tf.valid, centre) and tf.excluded == 1
    assert np.all(np.isnan(tf.m_values[~tf.valid]))
    assert np.all(np.isfinite(tf.m_values[tf.valid]))


# -- height and gradient estimates -------------------------------------------


def test_height_bound_frozen_cap_value(unit_disk, cap_H):
    audit = height_bound(unit_disk, cap_H, None, n=2)
    assert audit.bound == pytest.approx(4.941295495271172, rel=1e-12)
    assert audit.params["mu"] == pytest.approx(0.8000008, rel=1e-12)
    assert audit.params["delta"] == pytest.approx(2.0, rel=1e-9)


def test_height_bound_minimal_limit(scherk_square):
    audit = height_bound(scherk_square, PrescribedCurvature.constant(0.0),
                         None, n=2)
    # mu = 0 degenerates to the diameter
    assert audit.params["mu"] == 0.0
    assert audit.bound == pytest.approx(scherk_square.diameter, rel=1e-9)


def test_height_bound_passes_on_cap(unit_disk, cap_H, cap_solve32):
    audit = height_bound(unit_disk, cap_H, None, n=2,
                         measured=cap_solve32.sup_u)
    assert audit.passed
    assert audit.margin > 4.0


def test_height_audit_str(unit_disk, cap_H):
    audit = height_bound(unit_disk, cap_H, None, n=2, measured=0.2)
    s = str(audit)
    assert "height" in s and "pass" in s


def test_height_barrier_supersolution(unit_disk, cap_H, cap_grid32):
    tf, audit = height_barrier(unit_disk, cap_H, cap_grid32, None, n=2)
    assert audit.passed
    assert audit.measured < 0.0
    assert tf.valid.sum() > 0


def test_global_gradient_bound_formula(unit_disk, cap_H):
    audit = global_gradient_bound(unit_disk, cap_H, n=2,
                                  sup_u=0.2087, boundary_gradient=0.4324,
                                  measured=0.4362)
    expect = (math.sqrt(3.0) + 0.4324) * math.exp(2 * 0.2087 * (1 + 8 * 2 * 0.4))
    assert audit.bound == pytest.approx(expect, rel=1e-12)
    assert audit.passed


def test_boundary_gradient_package_frozen_constants(unit_disk, cap_H,
                                                    cap_solve32):
    pkg = boundary_gradient_package(unit_disk, cap_H, ZeroData(), n=2,
                                    u_sup=0.20871002753852444)
    p = pkg.params
    assert p.C == pytest.approx(44.0, rel=1e-6)
    assert p.nu == pytest.approx(61.6, rel=1e-6)
    assert p.k == pytest.approx(2.3610440506e7, rel=1e-4)
    assert p.a == pytest.approx(0.0162337239, rel=1e-6)
    # strip ordering invariant of the construction
    assert p.a < 1.0 / p.nu < p.tau_strip
    assert pkg.bound == pytest.approx(p.k / p.nu, rel=1e-9)


def test_boundary_gradient_package_apriori_mode(unit_disk, cap_H):
    # no measured sup: the height bound feeds M and the ordering still holds
    pkg = boundary_gradient_package(unit_disk, cap_H, ZeroData(), n=2)
    p = pkg.params
    assert p.M == pytest.approx(4.941295495271172, rel=1e-9)
    assert p.a < 1.0 / p.nu < p.tau_strip


def test_boundary_gradient_refuses_supercritical(unit_disk):
    with pytest.raises(NotApplicable, match="Serrin"):
        boundary_gradient_package(unit_disk,
                                  PrescribedCurvature.constant(0.55),
                                  ZeroData(), n=2)


def test_boundary_gradient_refuses_overflowing_exponent():
    # the square's corners make the sampled strip width tau tiny (5.9e-4),
    # which drives nu M far past the float range of e^(nu M)
    with pytest.raises(NotApplicable, match="nu M"):
        boundary_gradient_package(rect(0.6, 0.6), PrescribedCurvature.constant(0.0),
                                  scherk_trace(), n=2)


def test_barrier_pair_on_converged_cap(unit_disk, cap_H, cap_solve32):
    pkg = boundary_gradient_package(unit_disk, cap_H, ZeroData(), n=2,
                                    u_sup=cap_solve32.sup_u)
    checks = barrier_pair_checks(pkg, cap_solve32.field, cap_H, ZeroData(),
                                 n=2)
    assert checks["qwp_negative"].passed
    assert checks["qwm_positive"].passed
    assert checks["sandwich"].passed


# -- the estimate ledger ------------------------------------------------------


def test_ledger_without_a_solve_feeds_the_height_bound(unit_disk, cap_H):
    led = estimate_ledger(unit_disk, cap_H, ZeroData(), n=2)
    assert led.gradient.params["sup_u"] == led.height.bound
    assert led.params.M == led.height.bound          # zero data: |phi|_0 = 0
    assert (led.params.mu, led.params.A) == (led.height.params["mu"],
                                             led.gradient.params["A"])
    assert led.params.nu == led.package.params.nu and led.refusal == ""
    assert led.audits["height"]["passed"] is None
    assert set(led.audits) == {"height", "gradient"}


def test_ledger_measures_a_solve_and_adds_requested_entries(unit_disk, cap_H,
                                                            cap_solve32):
    led = estimate_ledger(unit_disk, cap_H, ZeroData(), n=2, report=cap_solve32,
                          names=("serrin", "barrier_pair"))
    assert led.audits["height"]["measured"] == cap_solve32.sup_u
    assert led.audits["gradient"]["measured"] == cap_solve32.sup_gradient
    assert led.params.M == cap_solve32.sup_u
    assert led.audits["serrin"]["margin"] == pytest.approx(0.2)
    for name in ("height", "gradient", "serrin", "qwp_negative",
                 "qwm_positive", "sandwich"):
        assert led.audits[name]["passed"] is True, name


def test_ledger_checks_serrin_once(unit_disk, cap_H, cap_solve32, monkeypatch):
    # the height bound, the gradient package and the "serrin" entry share
    # one pass over the boundary samples
    calls = []
    check = mcgraph.barriers.check_serrin

    def counted(*args, **kw):
        calls.append(args)
        return check(*args, **kw)
    monkeypatch.setattr(mcgraph.barriers, "check_serrin", counted)
    led = estimate_ledger(unit_disk, cap_H, ZeroData(), n=2, report=cap_solve32,
                          names=("serrin", "barrier_pair"))
    assert len(calls) == 1
    assert led.audits["serrin"]["passed"] is True
    assert led.package is not None and led.audits["sandwich"]["passed"] is True


def test_ledger_keeps_a_raising_estimate_as_an_entry(scherk_square,
                                                     scherk_solve32):
    # the square's sampled corners make nu M overflow in the package
    led = estimate_ledger(scherk_square, PrescribedCurvature.constant(0.0),
                          scherk_trace(), n=2, report=scherk_solve32,
                          names=("barrier_pair",))
    assert led.package is None and led.refusal
    assert led.audits["barrier_pair"] == {"error": led.refusal}
    assert led.audits["height"]["passed"] is True
    assert led.params.A == 1.0 and led.params.nu is None


# -- comparison principle -----------------------------------------------------


@functools.cache
def _grid16(shape):
    return Grid(disk(radius=1.0) if shape == "disk" else ellipse(1.2, 0.7), 1.0 / 16.0)


@given(field=st.sampled_from(["disk", "ellipse"]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       H=st.floats(-0.5, 0.5),
       c=st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6)))
@example(field="cap", coeffs=None, H=0.4, c=0.5)
def test_comparison_translation_pairs(cap_solve32, field, coeffs, H, c):
    # u and u + c share Q, so the pair is ordered exactly when c >= 0; a
    # negative c breaks the boundary hypothesis, and the check abstains
    if field == "cap":
        u = cap_solve32.field
    else:
        a = coeffs
        u = ScalarField.from_callable(
            _grid16(field), lambda x, y: a[0] + a[1] * x + a[2] * y
            + a[3] * x * x + a[4] * x * y + a[5] * y * y)
    res = comparison_check(u, u.shifted(c), PrescribedCurvature.constant(H))
    assert res.verdict == ("pass" if c >= 0 else "not-applicable")
    assert bool(res) == (c >= 0)


def test_comparison_boundary_violation_not_applicable(cap_solve32, cap_H):
    u = cap_solve32.field
    res = comparison_check(u.shifted(0.5), u, cap_H)
    assert res.verdict == "not-applicable"
    assert not bool(res)


def test_comparison_q_hypothesis_violation(cap_solve32, cap_grid32, cap_H):
    # v with much larger Q than u breaks the ordering hypothesis
    u = cap_solve32.field
    bump = ScalarField.from_callable(
        cap_grid32, lambda x, y: 0.5 * np.exp(-8 * (x**2 + y**2)))
    v = ScalarField(cap_grid32, u.values + bump.values, u.feet.copy())
    res = comparison_check(u, v, cap_H)
    assert res.verdict == "not-applicable"


def test_comparison_different_grids_raise(cap_solve32):
    g = Grid(disk(radius=1.0), 1.0 / 16.0)
    other = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        comparison_check(cap_solve32.field, other,
                         PrescribedCurvature.constant(0.4))


# -- non-existence ------------------------------------------------------------


@pytest.fixture(scope="module")
def certificate(unit_disk):
    return nonexistence_bound(unit_disk, PrescribedCurvature.constant(0.55),
                              (1.0, 0.0), 0.05, n=2)


def test_certificate_frozen_values(certificate):
    c = certificate
    assert c.nu_ne == pytest.approx(0.0125, rel=1e-12)
    assert c.kappa_S == pytest.approx(1.00625, rel=1e-12)
    assert c.circle_radius == pytest.approx(1.0 / 1.00625, rel=1e-9)
    assert c.R1 == pytest.approx(1.0, rel=1e-6)
    assert c.R2 == pytest.approx(0.00776398, rel=1e-4)
    assert c.log10_a == pytest.approx(-5559.1, abs=2.0)


def test_certificate_quality(certificate):
    c = certificate
    # certified: the barrier sum stays below eps
    assert c.g_value < c.eps
    assert c.g_value == pytest.approx(c.eps / 2.0, rel=1e-3)
    # the float radius underflows; the extended-precision value is positive
    assert c.a == 0.0
    assert c.a_mp > 0
    assert any("underflow" in w for w in c.warnings)


def test_certificate_leaves_the_mpmath_precision_alone(unit_disk):
    import mpmath
    before = mpmath.mp.dps
    c = nonexistence_bound(unit_disk, PrescribedCurvature.constant(0.55), (1.0, 0.0), 0.05,
                           n=2)
    assert mpmath.mp.dps == before
    # the A8 certificate as it was when the root-find set 60 digits for good
    assert c.log10_a == -5559.1026582981185
    assert c.g_value == 0.025
    # and the radius keeps the digits it was found in
    with mpmath.workdps(60):
        assert mpmath.nstr(c.a_mp, 40) == "7.894810351481292283630377135129978638834e-5560"


def test_certificate_psi_matches_quadrature(unit_disk):
    # at a radius the grid can resolve, g(a) = psi(a) + sqrt(2 a / nu) with
    # psi(a) = sqrt(2) int_a^delta log(r/a)^(-1/2) dr; r = a e^(s^2) turns
    # the integral into int_0^sqrt(log(delta/a)) 2 a e^(s^2) ds
    c = nonexistence_bound(unit_disk, PrescribedCurvature.constant(0.9), (1.0, 0.0), 4.0,
                           n=2)
    assert c.a == pytest.approx(0.0140, abs=1e-4)
    top = math.sqrt(math.log(c.delta / c.a))
    integral, _ = quad(lambda s: 2.0 * c.a * math.exp(s * s), 0.0, top, epsabs=0.0,
                       epsrel=1e-13)
    expect = math.sqrt(2.0) * integral + math.sqrt(2.0 * c.a / c.nu_ne)
    assert c.g_value == pytest.approx(expect, rel=0, abs=1e-12)


@pytest.mark.parametrize("H, eps, log10_a", [
    pytest.param(0.55, 0.05, -5559.1026582981185, id="A8"),
    pytest.param(0.9, 4.0, -1.8541975011377136, id="resolvable"),
    pytest.param(0.9, 0.5, -55.72553684304214, id="eps0.5"),
    pytest.param(0.75, 1.0, -14.041487800642258, id="eps1"),
])
def test_certificate_root_find_stops_when_the_bracket_stops_shrinking(unit_disk, monkeypatch,
                                                                      H, eps, log10_a):
    import mpmath
    calls = []
    erfi = mpmath.erfi
    monkeypatch.setattr(mpmath, "erfi", lambda z: calls.append(z) or erfi(z))
    c = nonexistence_bound(unit_disk, PrescribedCurvature.constant(H), (1.0, 0.0), eps,
                           n=2)
    # a 60-digit bisection on the same bracket took 206-214 evaluations
    assert len(calls) <= 50
    # and certified the same radius, to the float
    assert c.log10_a == log10_a
    # the certified side: g(a) < eps/2 in 60 digits, g(a) = psi(a) + sqrt(2 a / nu)
    with mpmath.workdps(60):
        a = c.a_mp
        g = (mpmath.sqrt(2) * a * mpmath.sqrt(mpmath.pi)
             * erfi(mpmath.sqrt(mpmath.log(mpmath.mpf(c.delta) / a)))
             + mpmath.sqrt(2 * a / mpmath.mpf(c.nu_ne)))
        assert g < mpmath.mpf(eps) / 2
        assert g > mpmath.mpf(eps) / 2 * (1 - mpmath.mpf("1e-40"))


def test_certificate_params_embedding(certificate):
    p = certificate.params
    assert isinstance(p, BarrierParams)
    assert p.nu_ne == certificate.nu_ne
    assert p.log10_a_ne == certificate.log10_a


def test_certificate_monotone_in_eps(unit_disk):
    h = PrescribedCurvature.constant(0.55)
    c1 = nonexistence_bound(unit_disk, h, (1.0, 0.0), 0.05, n=2)
    c2 = nonexistence_bound(unit_disk, h, (1.0, 0.0), 0.2, n=2)
    # larger tolerated excess certifies a wider exclusion radius
    assert c2.log10_a > c1.log10_a


def test_certificate_refuses_subcritical(unit_disk):
    with pytest.raises(NotApplicable):
        nonexistence_bound(unit_disk, PrescribedCurvature.constant(0.45),
                           (1.0, 0.0), 0.05, n=2)


def test_certificate_rejects_bad_inputs(unit_disk):
    h = PrescribedCurvature.constant(0.55)
    with pytest.raises(ValueError):
        nonexistence_bound(unit_disk, h, (0.5, 0.0), 0.05, n=2)
    with pytest.raises(ValueError):
        nonexistence_bound(unit_disk, h, (1.0, 0.0), 0.0, n=2)
    with pytest.raises(ValueError, match="eps"):     # was an AssertionError
        nonexistence_bound(unit_disk, h, (1.0, 0.0), math.nan, n=2)


def test_adversarial_data_is_bump(unit_disk):
    data = adversarial_boundary_data(unit_disk, (1.0, 0.0), 0.1, 0.05)
    assert isinstance(data, BumpData)
    assert data.trace(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.05, rel=1e-9)


def test_witness_requires_refinement_sequence(cap_solve32):
    data = ZeroData()
    with pytest.raises(ValueError):
        nonexistence_witness([cap_solve32], (1.0, 0.0), data, 0.05,
                             radius_a=0.1)
    with pytest.raises(ValueError):
        nonexistence_witness([cap_solve32, cap_solve32], (1.0, 0.0), data,
                             0.05, radius_a=0.1)


def test_witness_no_witness_on_benign_pair(unit_disk):
    data = adversarial_boundary_data(unit_disk, (1.0, 0.0), 0.1, 0.05)
    h = PrescribedCurvature.constant(0.45)
    reports = [solve_dirichlet(Grid(unit_disk, s), h, data)
               for s in (1.0 / 16.0, 1.0 / 32.0)]
    w = nonexistence_witness(reports, (1.0, 0.0), data, 0.05, radius_a=0.1)
    assert w.verdict == "NO-WITNESS"
    assert len(w.gradient_ratios) == 1


def test_witness_fires_on_breakdown(unit_disk, monkeypatch):
    # a diverged fine-grid verdict is a witness clause on its own
    data = adversarial_boundary_data(unit_disk, (1.0, 0.0), 0.1, 0.05)
    h = PrescribedCurvature.constant(0.55)
    r1 = solve_dirichlet(Grid(unit_disk, 1.0 / 16.0), h, data)
    monkeypatch.setattr(mcgraph.solver, "_GRAD_MAX", 0.4)
    monkeypatch.setattr(mcgraph.solver, "_MAX_ITERS", 40)
    r2 = solve_dirichlet(Grid(unit_disk, 1.0 / 32.0), h, data)
    assert r2.verdict == "diverged_gradient"
    w = nonexistence_witness([r1, r2], (1.0, 0.0), data, 0.05, radius_a=0.1)
    assert w.verdict == "WITNESS"
    assert any("diverged" in r for r in w.reasons)
