"""Domain geometry, curvature, and solvability audits."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mcgraph.geometry
from mcgraph import (BumpData, ExpressionData, Grid, MalformedDomainError,
                     PrescribedCurvature, ZeroData, annulus,
                     check_gradient_condition, check_serrin, disk, dumbbell,
                     ellipse, levelset, make_domain, rect, rounded_rect,
                     scherk_trace)


def test_disk_basic_metrics():
    d = disk(radius=1.0)
    assert d.diameter == pytest.approx(2.0, rel=1e-6)
    assert d.boundary.total_length == pytest.approx(2.0 * math.pi, rel=1e-5)
    assert d.contains(np.array([0.0, 0.5]), np.array([0.0, 0.5])).tolist() == [True, True]
    assert not d.contains(np.array([1.5]), np.array([0.0]))[0]


def test_signed_distance_sign_convention():
    d = disk(radius=1.0)
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    sd = d.signed_distance(pts)
    # positive inside, negative outside, magnitude is distance to the circle
    assert sd[0] == pytest.approx(1.0, abs=1e-6)
    assert sd[1] == pytest.approx(0.5, abs=1e-6)
    assert sd[2] == pytest.approx(-1.0, abs=1e-6)


def test_disk_curvature_constant():
    d = disk(radius=2.0)
    s = np.linspace(0.0, d.boundary.total_length, 64, endpoint=False)
    k = np.atleast_1d(d.boundary_curvature(s))
    assert np.allclose(k, 0.5, atol=1e-4)


def test_ellipse_curvature_extremes():
    a, b = 2.0, 1.0
    d = ellipse(a, b)
    s = np.linspace(0.0, d.boundary.total_length, 4096, endpoint=False)
    k = np.atleast_1d(d.boundary_curvature(s))
    # ends of the major axis have curvature a/b^2, minor axis b/a^2
    assert k.max() == pytest.approx(a / b**2, rel=1e-3)
    assert k.min() == pytest.approx(b / a**2, rel=1e-3)


def test_rect_curvature_vanishes_on_edges():
    d = rect(1.0, 1.0)
    pts = d.boundary.points
    on_edge = (np.abs(np.abs(pts[:, 0]) - 1.0) < 1e-9) ^ \
              (np.abs(np.abs(pts[:, 1]) - 1.0) < 1e-9)
    k = np.atleast_1d(d.boundary_curvature(d.boundary.arclength))
    interior_edge = on_edge & (np.abs(pts[:, 0]) < 0.9) & (np.abs(pts[:, 1]) < 0.9)
    # flat far from corners; corner neighborhoods carry the concentrated turn
    assert np.all(np.abs(k[interior_edge]) < 1e-3)


def test_malformed_domains_raise():
    with pytest.raises(MalformedDomainError):
        disk(radius=-1.0)
    with pytest.raises(MalformedDomainError):
        ellipse(0.0, 1.0)
    with pytest.raises(MalformedDomainError):
        annulus(1.0, 0.5)
    with pytest.raises(MalformedDomainError):
        dumbbell(waist=1.0, spread=2.0)
    with pytest.raises(MalformedDomainError):
        rect(-0.5, 0.5)


def test_make_domain_dispatch():
    d = make_domain("disk", radius=0.5)
    assert d.shape.tag == "disk"
    assert d.diameter == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(MalformedDomainError):
        make_domain("pentagon")


def test_serrin_threshold_values():
    d = disk(radius=1.0)
    crit = check_serrin(d, PrescribedCurvature.constant(0.5), n=2)
    assert abs(crit.margin) <= 1e-9
    assert crit.satisfied

    sub = check_serrin(d, PrescribedCurvature.constant(0.45), n=2)
    assert sub.satisfied
    assert sub.margin == pytest.approx(0.1, abs=1e-9)

    sup = check_serrin(d, PrescribedCurvature.constant(0.55), n=2)
    assert not sup.satisfied
    assert sup.margin == pytest.approx(-0.1, abs=1e-9)


def test_serrin_uses_absolute_curvature():
    d = disk(radius=1.0)
    neg = check_serrin(d, PrescribedCurvature.constant(-0.55), n=2)
    assert not neg.satisfied
    assert neg.margin == pytest.approx(-0.1, abs=1e-9)


def test_serrin_dumbbell_waist_violates_even_minimal():
    d = dumbbell(waist=1.0, spread=1.3)
    audit = check_serrin(d, PrescribedCurvature.constant(0.0), n=2)
    assert not audit.satisfied
    assert audit.margin < -1e-3
    # the worst point sits on the concave waist near x = 0
    assert abs(audit.worst_point[0]) < 0.25


def test_dumbbell_near_round_spread_fits_its_bbox():
    # the lobes rise to a^2/(2c), above the waist height sqrt(a^2 - c^2)
    c, a = 1.0, 1.05
    d = dumbbell(waist=c, spread=a)
    assert np.abs(d.boundary.points[:, 1]).max() == pytest.approx(a * a / (2 * c), abs=1e-6)


def test_levelset_circle_traced_ccw_with_unit_curvature():
    d = levelset("1 - x**2 - y**2", (-1.2, 1.2, -1.2, 1.2))
    b = d.boundary
    assert np.allclose(np.hypot(b.points[:, 0], b.points[:, 1]), 1.0, atol=1e-9)
    assert np.allclose(b.kappa, 1.0, atol=1e-6)
    assert np.allclose(np.sum(b.normals * b.points, axis=1), -1.0, atol=1e-9)
    x, y = b.points[:, 0], b.points[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(math.pi, rel=1e-5)     # positive: counterclockwise
    assert b.total_length == pytest.approx(2 * math.pi, rel=1e-5)


def test_levelset_arclength_is_the_nearest_samples_built_once(monkeypatch):
    # the 8192 samples and their tree are made on the first lookup only, and
    # a lookup returns the arclength of the nearest sample
    d = levelset("1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36",
                 (-1.1, 1.1, -1.0, 1.0))
    shape_cls = type(d.shape)
    sample, sizes = shape_cls.sample, []

    def counted(self, m):
        sizes.append(m)
        return sample(self, m)

    monkeypatch.setattr(shape_cls, "sample", counted)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 2))
    first, second = d.arclength_of(pts), d.arclength_of(pts[::-1])
    assert sizes == [8192]
    ref_pts, _, _, ref_s, _ = sample(d.shape, 8192)
    nearest = np.argmin(np.linalg.norm(pts[:, None] - ref_pts[None], axis=-1), axis=1)
    assert np.array_equal(first, ref_s[nearest])
    assert np.array_equal(second, first[::-1])


@pytest.mark.parametrize("rows", [100, 768])
@pytest.mark.parametrize("expr, bbox", [
    ("1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36", (-1.1, 1.1, -1.0, 1.0)),
    ("1 - x**2 - y**2 + 0.1*sin(3*x)*exp(y)", (-1.5, 1.5, -1.5, 1.5))],
    ids=["rotated_ellipse", "transcendental"])
def test_levelset_contour_does_not_depend_on_the_row_blocks(expr, bbox, rows, monkeypatch):
    # the level function is evaluated a block of rows at a time; a partial
    # last block or one block of the whole lattice traces the same contour
    traced = levelset(expr, bbox).shape._polyline
    monkeypatch.setattr(mcgraph.geometry, "_CONTOUR_ROWS", rows)
    assert np.array_equal(levelset(expr, bbox).shape._polyline, traced)


def test_levelset_contour_leaving_bbox_raises():
    with pytest.raises(MalformedDomainError, match="not closed"):
        levelset("1 - x**2 - y**2", (-0.5, 1.2, -1.2, 1.2))
    with pytest.raises(MalformedDomainError, match="no zero contour"):
        levelset("1 + x**2 + y**2", (-1.2, 1.2, -1.2, 1.2))


_ROTATED_ELLIPSE = ("1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36",
                    (-1.1, 1.1, -1.0, 1.0))
# each level set with the critical points of its level function and half
# its shortest chord normal at both ends: the neck sqrt(a^2 - c^2) of a
# dumbbell, the minor semi-axis of the ellipse
_LEVEL_SETS = {
    "dumbbell": (dumbbell, [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)], math.sqrt(0.21)),
    "dumbbell_1_3": (lambda: dumbbell(1.0, 1.3), [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)],
                     math.sqrt(0.69)),
    "rotated_ellipse": (lambda: levelset(*_ROTATED_ELLIPSE), [(0.0, 0.0)], 0.6),
}


@pytest.mark.parametrize("name", list(_LEVEL_SETS))
def test_levelset_newton_feet_match_the_tree_feet(name, monkeypatch):
    # the Newton foot started at the point is the foot from the nearest
    # polyline vertex, to 1e-15 in the signed distance, at lattice band
    # points, random points of the bbox and the critical points of F; at
    # h <= 1/32 every band point keeps its own Newton foot, and the
    # critical points, where Newton does not move, take the tree's
    make, critical, half_chord = _LEVEL_SETS[name]
    dom = make()
    shape_cls = type(dom.shape)
    assert 0 < dom.shape._reach <= min(1.0 / np.max(np.abs(dom.boundary.kappa)), half_chord)
    # at a critical point Newton does not move, and does not converge
    foot, converged = dom.shape._newton_foot(np.array(critical), np.array(critical))
    assert np.array_equal(foot, critical) and not converged.any()
    tree_foot, from_tree = shape_cls._tree_foot, []

    def counted(self, pts):
        from_tree.append(len(pts))
        return tree_foot(self, pts)

    def tree_distance(pts):
        dist = np.linalg.norm(pts - tree_foot(dom.shape, pts), axis=-1)
        return np.where(dom.contains(pts[:, 0], pts[:, 1]), dist, -dist)

    measure, band = dom.signed_distance, {}

    def recorded(pts):
        band.setdefault(N, []).append(np.array(pts))
        return measure(pts)

    monkeypatch.setattr(shape_cls, "_tree_foot", counted)
    monkeypatch.setattr(dom, "signed_distance", recorded)
    for N in (16, 32, 64, 128):
        from_tree.clear()
        Grid(dom, 1.0 / N)
        if N >= 32:
            assert from_tree == []
    monkeypatch.undo()
    x0, x1, y0, y1 = dom.bbox
    rng = np.random.default_rng(11)
    random = np.stack([rng.uniform(x0, x1, 2000), rng.uniform(y0, y1, 2000)], axis=-1)
    for pts in [np.concatenate(b) for b in band.values()] + [random, np.array(critical)]:
        assert np.max(np.abs(dom.signed_distance(pts) - tree_distance(pts))) <= 1e-15
    monkeypatch.setattr(shape_cls, "_tree_foot", counted)
    from_tree.clear()
    assert np.all(np.abs(dom.signed_distance(np.array(critical))) > 0.1)
    assert from_tree == [len(critical)]
    for h in (1 / 4, 1 / 7, 1 / 32):
        assert Grid(dom, h).n_feet > 0


@pytest.mark.parametrize("expr, bbox", [
    ("1 - 4*((x**2 - 1)**2 + y**2)", (-2.0, 2.0, -1.0, 1.0)),
    ("(1 - x**2 - y**2)*(1.3 - x)", (-1.2, 1.2, -1.2, 1.2))],
    ids=["second_loop_in_bbox", "zero_line_beyond_bbox"])
def test_levelset_feet_never_land_on_another_zero_contour(expr, bbox):
    # the boundary is the traced loop alone: a Newton foot on F's other
    # loop, or on its zero line beyond the bbox, is not kept
    dom = levelset(expr, bbox)
    pts = np.random.default_rng(5).uniform(bbox[::2], bbox[1::2], (2000, 2))
    foot = dom.shape._tree_foot(pts)
    dist = np.linalg.norm(pts - foot, axis=-1)
    tree = np.where(dom.contains(pts[:, 0], pts[:, 1]), dist, -dist)
    assert np.max(np.abs(dom.signed_distance(pts) - tree)) <= 1e-15


def test_serrin_higher_n_tightens():
    d = disk(radius=1.0)
    h = PrescribedCurvature.constant(0.45)
    assert check_serrin(d, h, n=2).satisfied
    # (n-1) kappa - n |H| = 2 - 3*0.45 > 0 still holds at n=3
    assert check_serrin(d, h, n=3).margin == pytest.approx(2 - 3 * 0.45, abs=1e-9)


def test_gradient_condition_constant_always_holds():
    d = disk(radius=1.0)
    ok, margin = check_gradient_condition(d, PrescribedCurvature.constant(0.4), n=2)
    assert ok
    assert margin >= 0


def test_gradient_condition_steep_profile_fails():
    d = disk(radius=1.0)
    # |grad H| = 5 while n/(n-1) H^2 stays tiny near the zero line x = 0
    h = PrescribedCurvature.expression("5*x")
    ok, margin = check_gradient_condition(d, h, n=2)
    assert not ok
    assert margin < 0


@pytest.mark.parametrize("make", [
    lambda: dumbbell(1.0, 1.3),
    lambda: levelset("1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36",
                     (-1.1, 1.1, -1.0, 1.0))], ids=["dumbbell", "rotated_ellipse"])
def test_levelset_curvature_is_the_samples_kappa(make):
    # a level set has no closed-form curvature along arclength: the lookup
    # reads the implicit curvature stored with the samples, the same values
    # the Serrin audit reads
    d = make()
    b = d.boundary
    assert np.array_equal(d.boundary_curvature(b.arclength), b.kappa)
    # periodic to the bit: whole turns either way land on the same samples
    for k in (-1, 1, 2):
        assert np.array_equal(d.boundary_curvature(b.arclength + k * b.total_length), b.kappa)
    mid = 0.5 * (b.arclength[:-1] + b.arclength[1:])
    assert np.array_equal(d.boundary_curvature(mid), b.kappa[1:])


@pytest.mark.parametrize("radii", [(0.4, 1.3), (0.8, 1.6), (0.9, 1.0)])
def test_annulus_curvature_is_periodic_to_the_bit(radii):
    # s + k L is rounded when formed and by the mod; where the circles meet
    # it must still land on its own circle (the first inner sample read
    # +1/r_out at k = 1, and sample 0 read -1/r_in at k = 3)
    d = annulus(*radii)
    b = d.boundary
    for k in (-3, -2, -1, 0, 1, 2, 3, 10):
        assert np.array_equal(d.boundary_curvature(b.arclength + k * b.total_length), b.kappa)


def test_smoothness_radius():
    assert disk(1.0).smoothness_radius() == pytest.approx(1.0, rel=1e-2)
    ring = annulus(0.8, 1.6)
    assert ring.smoothness_radius() == pytest.approx(0.4, rel=5e-2)


@pytest.mark.parametrize("domain", [disk(1.3, center=(0.2, -0.1)),
                                    ellipse(0.6, 1.1), annulus(0.5, 1.0)],
                         ids=["disk", "ellipse", "annulus"])
def test_closed_form_scalars_match_sampled_scans(domain):
    from mcgraph.geometry import _max_pairwise_distance, _sampled_smoothness_radius
    scanned_diameter = _max_pairwise_distance(domain.boundary.points)
    scanned_radius = _sampled_smoothness_radius(domain.boundary)
    assert domain.diameter == pytest.approx(scanned_diameter, rel=1e-6)
    assert domain.smoothness_radius() == pytest.approx(scanned_radius, rel=1e-8)


@pytest.mark.parametrize("make", [
    lambda: rect(1.0, 0.6),
    lambda: rounded_rect(1.0, 0.6, 0.25),
    lambda: dumbbell(1.0, 1.3),
    lambda: disk(1.0),
    lambda: levelset("1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36",
                     (-1.1, 1.1, -1.0, 1.0))],
    ids=["rect", "rounded_rect", "dumbbell", "disk", "levelset"])
def test_boundary_scans_match_the_stacked_difference_formula(make):
    # the scans on separate x and y arrays give, to the bit, the formula on
    # (chunk, n, 2) differences summed over their last axis
    from mcgraph.geometry import _max_pairwise_distance, _medial_clearance
    b = make().boundary
    pts, normals = b.points[::8], b.normals[::8]
    assert len(pts) == 512
    diff = pts[None, :, :] - pts[:, None, :]
    d2 = np.sum(diff * diff, axis=-1)
    denom = 2.0 * np.sum(diff * normals[:, None, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 1e-12, d2 / denom, np.inf)
    t[d2 < 1e-20] = np.inf
    diameter = float(np.sqrt(np.max(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))))
    for chunk in (512, 100):
        assert _max_pairwise_distance(pts, chunk) == diameter
        assert _medial_clearance(pts, normals, chunk) == float(t.min())


def test_rounded_rect_curvature_bounded():
    d = rounded_rect(1.0, 1.0, 0.25)
    s = np.linspace(0.0, d.boundary.total_length, 2048, endpoint=False)
    k = np.atleast_1d(d.boundary_curvature(s))
    assert k.max() == pytest.approx(4.0, rel=1e-2)
    assert k.min() > -1e-3


def test_prescribed_curvature_expression():
    h = PrescribedCurvature.expression("0.1*(x**2 + y**2)")
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(h(pts), [0.1, 0.4])
    g = h.gradient(pts)
    assert np.allclose(g, [[0.2, 0.0], [0.0, 0.4]])


def test_prescribed_curvature_norms_on_domain():
    d = disk(radius=1.0)
    h = PrescribedCurvature.constant(0.4)
    assert h.h0(d) == pytest.approx(0.4)
    hx = PrescribedCurvature.expression("0.1*x")
    assert hx.h0(d) == pytest.approx(0.1, rel=1e-2)


def test_bump_data_shape():
    d = disk(radius=1.0)
    bump = BumpData(d, (1.0, 0.0), 0.2, 0.05)
    # peak value eps at the center point, zero outside the support arc
    top = bump.trace(np.array([[1.0, 0.0]]))
    assert top[0] == pytest.approx(0.05, rel=1e-6)
    far = bump.trace(np.array([[-1.0, 0.0]]))
    assert far[0] == 0.0
    mid = bump.trace(np.array([[math.cos(0.1), math.sin(0.1)]]))
    assert 0.0 < mid[0] < 0.05


def test_bump_data_support_width():
    d = disk(radius=1.0)
    a = 0.2
    bump = BumpData(d, (1.0, 0.0), a, 0.05)
    # support is the arc within distance a of y0 along the boundary
    inside = np.array([[math.cos(0.9 * a), math.sin(0.9 * a)]])
    outside = np.array([[math.cos(1.1 * a), math.sin(1.1 * a)]])
    assert bump.trace(inside)[0] > 0.0
    assert bump.trace(outside)[0] == 0.0


@pytest.mark.parametrize("width", [0.0, -0.1, math.inf, math.nan])
def test_bump_data_refuses_a_width_that_is_not_positive_and_finite(width):
    with pytest.raises(ValueError, match="positive and finite"):
        BumpData(disk(radius=1.0), (1.0, 0.0), width, 0.05)


def test_zero_and_scherk_data():
    d = rect(0.6, 0.6)
    z = ZeroData()
    pts = d.boundary.points[:8]
    assert np.allclose(z.trace(pts), 0.0)
    sch = scherk_trace()
    vals = sch.trace(pts)
    expect = np.log(np.cos(pts[:, 0]) / np.cos(pts[:, 1]))
    assert np.allclose(vals, expect, atol=1e-12)


def test_expression_data_norms():
    d = disk(radius=1.0)
    lin = ExpressionData("0.5*x")
    p0, p1, p2 = lin.norms(d)
    assert p0 == pytest.approx(0.5, rel=1e-2)
    assert p1 == pytest.approx(1.0, rel=1e-2)   # includes |phi| + |grad phi|
    assert p2 == pytest.approx(1.0, rel=1e-2)   # second derivatives vanish


# -- ellipse distance: exact values and properties -----------------------------


@pytest.mark.parametrize("a, b", [(1.2, 0.7), (0.6, 1.1)])
def test_ellipse_centre_distance_is_minor_semi_axis(a, b):
    assert ellipse(a, b).signed_distance(np.array([0.0, 0.0])) == pytest.approx(min(a, b), abs=1e-15)


def test_ellipse_distance_near_centre_on_major_axis():
    # within (a^2 - b^2)/a of the centre the nearest point is off the axis:
    # d(x, 0) = b sqrt(1 - x^2 / (a^2 - b^2))
    assert ellipse(1.2, 0.7).signed_distance(np.array([0.1, 0.0])) == \
        pytest.approx(0.7 * math.sqrt(1.0 - 0.01 / 0.95), abs=1e-15)
    assert 0.7 * math.sqrt(1.0 - 0.01 / 0.95) == pytest.approx(0.6963060, abs=1e-7)


def test_ellipse_centre_arclength_on_minor_vertex():
    d = ellipse(1.2, 0.7)
    s = float(np.atleast_1d(d.arclength_of(np.array([0.0, 0.0])))[0])
    L = d.boundary.total_length
    # arclength runs ccw from (a, 0): the minor vertices sit at L/4 and 3L/4
    assert min(abs(s - 0.25 * L), abs(s - 0.75 * L)) < 1e-9


def test_contains_is_the_implicit_test():
    e = ellipse(1.2, 0.7, center=(0.1, -0.2))
    pts = np.array([[0.1, -0.2], [1.29, -0.2], [1.31, -0.2], [0.1, 0.49], [0.1, 0.51]])
    assert e.contains(pts[:, 0], pts[:, 1]).tolist() == [True, True, False, True, False]
    d = dumbbell(1.0, 1.3)
    assert d.contains(np.array([0.0, 3.0]), np.array([0.0, 0.0])).tolist() == [True, False]


_semi_axis = st.floats(0.2, 2.0)
_unit = st.floats(-1.6, 1.6)


def _coarse_ellipse(a, b):
    """ellipse(a, b) with 64 boundary samples."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcgraph.geometry, "_N_SAMPLES", 64)
        return ellipse(a, b)


@given(_semi_axis, _semi_axis, st.lists(st.tuples(_unit, _unit), min_size=1, max_size=16))
def test_ellipse_distance_sign_matches_implicit_test(a, b, uv):
    e = _coarse_ellipse(a, b)
    pts = np.array(uv) * (a, b)
    F = (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 - 1.0
    sd = e.signed_distance(pts)
    assert np.all(np.where(F < 0, sd >= 0, sd <= 0))
    assert np.all((sd != 0) | (np.abs(F) < 1e-12))


@given(_semi_axis, _semi_axis, st.lists(st.tuples(_unit, _unit), min_size=1, max_size=16))
def test_ellipse_foot_on_curve_along_normal(a, b, uv):
    e = _coarse_ellipse(a, b)
    pts = np.array(uv) * (a, b)
    foot, dist = e.shape._nearest(pts)
    assert np.allclose(np.abs(e.signed_distance(pts)), dist, rtol=0, atol=0)
    assert np.all(np.abs((foot[:, 0] / a) ** 2 + (foot[:, 1] / b) ** 2 - 1.0) < 1e-12)
    # pts - foot is parallel to the curve's normal grad F = (x / a^2, y / b^2)
    nx, ny = foot[:, 0] / a**2, foot[:, 1] / b**2
    rx, ry = pts[:, 0] - foot[:, 0], pts[:, 1] - foot[:, 1]
    assert np.all(np.abs(rx * ny - ry * nx) <= 1e-9 * np.hypot(nx, ny) * max(a, b))


@given(_semi_axis, _semi_axis, st.lists(st.tuples(_unit, _unit), min_size=1, max_size=16))
def test_ellipse_distance_against_dense_parameter_sample(a, b, uv):
    e = _coarse_ellipse(a, b)
    pts = np.array(uv) * (a, b)
    t = np.linspace(0.0, 2.0 * math.pi, 20001)
    curve = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
    sampled = np.min(np.linalg.norm(pts[:, None, :] - curve[None, :, :], axis=-1), axis=1)
    dist = np.abs(e.signed_distance(pts))
    # never beyond a point of the curve; never short of the sample by more
    # than one sample spacing
    spacing = np.max(np.linalg.norm(np.diff(curve, axis=0), axis=1))
    assert np.all(dist <= sampled + 1e-12)
    assert np.all(sampled <= dist + spacing)


def test_curvature_norms_follow_the_domain_not_its_address():
    # a fresh domain may take the address of a freed one; its norms must not
    H = PrescribedCurvature.expression("x")
    for r in (1.0, 3.0, 1.5, 2.5, 0.5, 4.0):
        d = disk(r)
        assert H.h0(d) == pytest.approx(r, rel=1e-12)
        del d


def test_expression_curvature_norms_come_from_the_boundary_sample():
    # x**2 peaks at the exact boundary sample (1, 0) of the unit disk, so
    # sup |H| = 1 and sup |grad H| = 2 to the bit; the second h1 reads the
    # per-domain cache
    d = disk(1.0)
    H = PrescribedCurvature.expression("x**2")
    sample, calls = d.closure_samples, []
    d.closure_samples = lambda m: calls.append(m) or sample(m)
    assert H.h0(d) == 1.0
    assert H.h1(d) == 2.0
    assert H.h1(d) == 2.0
    assert calls == [256]


def test_annulus_foot_arclength_is_exact():
    g = Grid(annulus(0.8, 1.6), 1.0 / 64.0)
    outer = g.foot_s < 2.0 * math.pi * 1.6
    radius = np.where(outer, 1.6, 0.8)
    ang = np.where(outer, g.foot_s, g.foot_s - 2.0 * math.pi * 1.6) / radius
    back = radius[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    assert outer.any() and (~outer).any()
    assert np.max(np.abs(back - g.foot_xy)) <= 1e-12


def _rounded_rect_point(hx, hy, r, s):
    # the ccw walk from the bottom of the right edge: right edge, NE arc,
    # top edge, NW arc, left edge, SW arc, bottom edge, SE arc
    ex, ey = hx - r, hy - r
    out = np.empty((len(s), 2))
    for k, (x, y) in enumerate(((hx, -ey), (ex, ey), (ex, hy), (-ex, ey),
                                (-hx, ey), (-ex, -ey), (-ex, -hy), (ex, -ey))):
        length = 2 * (ey, ex)[k // 2 % 2] if k % 2 == 0 else 0.5 * math.pi * r
        sel = (s >= 0) & (s <= length)
        t = s[sel]
        if k % 2 == 0:
            step = ((0, 1), (-1, 0), (0, -1), (1, 0))[k // 2]
            out[sel] = np.stack([x + step[0] * t, y + step[1] * t], axis=-1)
        else:
            ang = 0.5 * math.pi * (k // 2) + t / r
            out[sel] = np.stack([x + r * np.cos(ang), y + r * np.sin(ang)], axis=-1)
        s = np.where(sel, -1.0, s - length)
    return out


@pytest.mark.parametrize("hx, hy, r", [(1.0, 0.6, 0.25), (0.6, 0.6, 0.0)],
                         ids=["rounded_rect", "rect"])
def test_rounded_rect_foot_arclength_is_exact(hx, hy, r):
    dom = rounded_rect(hx, hy, r) if r else rect(hx, hy)
    g = Grid(dom, 1.0 / 64.0)
    back = _rounded_rect_point(hx, hy, r, g.foot_s)
    assert np.all((g.foot_s >= 0) & (g.foot_s < dom.boundary.total_length))
    assert np.max(np.abs(back - g.foot_xy)) <= 1e-12


def test_rect_is_rounded_rect_with_square_corners():
    d = rect(1.0, 0.37, center=(0.2, -0.1))
    assert d.tag == "rect"
    assert not np.atleast_1d(d.boundary_curvature(d.boundary.arclength)).any()
    with pytest.raises(MalformedDomainError):
        rounded_rect(1.0, 0.37, 0.0)


@pytest.mark.parametrize("make", [
    lambda: disk(0.93, center=(0.011, -0.02)), lambda: ellipse(1.2, 0.7, center=(0.1, -0.2)),
    lambda: rect(0.55, 0.37, center=(0.013, 0.0)), lambda: rounded_rect(1.0, 0.6, 0.25),
    lambda: annulus(0.8, 1.6), lambda: dumbbell(1.0, 1.3),
    lambda: levelset("1 - x**2/1.21 - y**2/0.36", (-1.2, 1.2, -0.7, 0.7))],
    ids=["disk", "ellipse", "rect", "rounded_rect", "annulus", "dumbbell", "levelset"])
def test_every_shape_answers_its_own_sign_test(make, monkeypatch):
    # the sign test never reads the distance, and agrees with its sign
    # wherever the distance is not a rounding error
    dom = make()
    x0, x1, y0, y1 = dom.bbox
    X, Y = np.meshgrid(np.linspace(x0 - 0.1, x1 + 0.1, 181),
                       np.linspace(y0 - 0.1, y1 + 0.1, 173), indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    d = dom.signed_distance(pts)
    with monkeypatch.context() as mp:
        mp.setattr(type(dom.shape), "signed_distance", None)
        inside = dom.contains(pts[:, 0], pts[:, 1])
    far = np.abs(d) > 1e-12
    assert far.sum() > 0.99 * len(d) and 0 < inside.sum() < len(d)
    assert np.array_equal(inside[far], d[far] > 0)


# -- marching squares: the chains on hand-built fields --------------------------

_MAGNITUDES = (1.0, 2.0, 3.0, 0.5)      # |F| at corners 0..3 of a one-cell field
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _cell_field(case, joined=None):
    """A 2 x 2 field whose one cell has this case (bit k: corner k inside);
    on a saddle, `joined` picks the sign of the corners' sum."""
    F = np.empty((2, 2))
    for k, (i, j) in enumerate(_CORNERS):
        inside = case >> k & 1
        if joined is None:
            F[i, j] = _MAGNITUDES[k] if inside else -_MAGNITUDES[k]
        else:
            F[i, j] = (3.0 if inside else -1.0) if joined else (1.0 if inside else -3.0)
    return F


def _contour_fields():
    fields = {}
    for case in range(1, 15):
        if case in (5, 10):
            fields[f"case{case}_split"] = _cell_field(case, joined=False)
            fields[f"case{case}_joined"] = _cell_field(case, joined=True)
        else:
            fields[f"case{case}"] = _cell_field(case)
    i, j = np.meshgrid(np.arange(6.0), np.arange(5.0), indexing="ij")
    fields["open_to_border"] = (i - 2.5) + 0.4 * (j - 2.0)
    i, j = np.meshgrid(np.arange(10.0), np.arange(5.0), indexing="ij")
    diamond = 1.5 - np.abs(i - 2) - np.abs(j - 2)
    fields["two_loops"] = np.maximum(diamond, 1.25 - np.abs(i - 7) - 0.75 * np.abs(j - 2))
    # the second bump reaches the lattice's bottom and top rows: two open chains
    fields["open_and_closed"] = np.maximum(diamond, 1.25 - np.abs(i - 7) - 0.5 * np.abs(j - 2))
    # F = 0 at lattice nodes with two inside axis neighbours: two cut edges
    # meet at the node, and the chain keeps one point there
    i, j = np.meshgrid(np.arange(7.0), np.arange(7.0), indexing="ij")
    fields["through_nodes"] = 2.0 - np.abs(i - 3) - np.abs(j - 3)
    i, j = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
    fields["open_through_node"] = (i - 2.0) + 0.5 * (j - 2.0)
    return fields


# the chains, (points, closed), that the edge-keyed implementation traced:
# open chains first, by their first edge, then closed loops from the first
# cell that holds them, row-major
_EXPECTED_CHAINS = {
    "case1": [([(0.3333333333333333, 0.0), (0.0, 0.6666666666666666)], False)],
    "case2": [([(1.0, 0.4), (0.3333333333333333, 0.0)], False)],
    "case3": [([(1.0, 0.4), (0.0, 0.6666666666666666)], False)],
    "case4": [([(0.14285714285714285, 1.0), (1.0, 0.4)], False)],
    "case5_split": [([(0.25, 0.0), (0.0, 0.25)], False), ([(0.75, 1.0), (1.0, 0.75)], False)],
    "case5_joined": [([(0.75, 0.0), (1.0, 0.25)], False), ([(0.25, 1.0), (0.0, 0.75)], False)],
    "case6": [([(0.14285714285714285, 1.0), (0.3333333333333333, 0.0)], False)],
    "case7": [([(0.14285714285714285, 1.0), (0.0, 0.6666666666666666)], False)],
    "case8": [([(0.0, 0.6666666666666666), (0.14285714285714285, 1.0)], False)],
    "case9": [([(0.3333333333333333, 0.0), (0.14285714285714285, 1.0)], False)],
    "case10_split": [([(0.0, 0.75), (0.25, 1.0)], False), ([(1.0, 0.25), (0.75, 0.0)], False)],
    "case10_joined": [([(0.0, 0.25), (0.25, 0.0)], False), ([(1.0, 0.75), (0.75, 1.0)], False)],
    "case11": [([(1.0, 0.4), (0.14285714285714285, 1.0)], False)],
    "case12": [([(0.0, 0.6666666666666666), (1.0, 0.4)], False)],
    "case13": [([(0.3333333333333333, 0.0), (1.0, 0.4)], False)],
    "case14": [([(0.0, 0.6666666666666666), (0.3333333333333333, 0.0)], False)],
    "open_to_border": [
        ([(1.7, 4.0), (2.0, 3.25), (2.1, 3.0), (2.5, 2.0), (2.9, 1.0), (3.0, 0.7500000000000001),
          (3.3, 0.0)], False),
    ],
    "two_loops": [
        ([(0.5, 2.0), (1.0, 1.5), (1.5, 1.0), (2.0, 0.5), (2.5, 1.0), (3.0, 1.5), (3.5, 2.0),
          (3.0, 2.5), (2.5, 3.0), (2.0, 3.5), (1.5, 3.0), (1.0, 2.5)], True),
        ([(5.75, 2.0), (6.0, 1.6666666666666665), (6.5, 1.0), (7.0, 0.3333333333333333),
          (7.5, 1.0), (8.0, 1.6666666666666665), (8.25, 2.0), (8.0, 2.3333333333333335),
          (7.5, 3.0), (7.0, 3.6666666666666665), (6.5, 3.0), (6.0, 2.3333333333333335)], True),
    ],
    "open_and_closed": [
        ([(6.75, 4.0), (6.25, 3.0), (6.0, 2.5), (5.75, 2.0), (6.0, 1.5), (6.25, 1.0),
          (6.75, 0.0)], False),
        ([(7.25, 0.0), (7.75, 1.0), (8.0, 1.5), (8.25, 2.0), (8.0, 2.5), (7.75, 3.0),
          (7.25, 4.0)], False),
        ([(0.5, 2.0), (1.0, 1.5), (1.5, 1.0), (2.0, 0.5), (2.5, 1.0), (3.0, 1.5), (3.5, 2.0),
          (3.0, 2.5), (2.5, 3.0), (2.0, 3.5), (1.5, 3.0), (1.0, 2.5)], True),
    ],
    "through_nodes": [
        ([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 2.0), (5.0, 3.0), (4.0, 4.0), (3.0, 5.0),
          (2.0, 4.0)], True),
    ],
    "open_through_node": [
        ([(1.0, 4.0), (1.5, 3.0), (2.0, 2.0), (2.5, 1.0), (3.0, 0.0)], False),
    ],
}


@pytest.mark.parametrize("name", list(_EXPECTED_CHAINS))
def test_marching_squares_chains_are_pinned(name):
    chains = mcgraph.geometry._marching_squares(_contour_fields()[name])
    expected = _EXPECTED_CHAINS[name]
    assert [closed for _, closed in chains] == [closed for _, closed in expected]
    for (pts, _), (want, _) in zip(chains, expected):
        assert pts.dtype == np.float64 and pts.shape == (len(want), 2)
        assert np.array_equal(pts, np.array(want))


def _edge_keyed_marching_squares(F):
    """The chains as the edge-keyed implementation traced them: a dict from
    each segment's start edge (axis, i, j) to its end edge, cell by cell."""
    inside = F > 0.0
    corners = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:])
    case = sum(inside[c].astype(np.int8) << k for k, c in enumerate(corners))
    ci, cj = np.nonzero((case != 0) & (case != 15))
    joined = sum(F[c][ci, cj] for c in corners) > 0.0
    nxt = {}
    for i, j, k, jn in zip(ci.tolist(), cj.tolist(), case[ci, cj].tolist(), joined.tolist()):
        edges = ((0, i, j), (1, i + 1, j), (0, i, j + 1), (1, i, j))
        for a, b in mcgraph.geometry._cell_segments(k, jn):
            nxt[edges[a]] = edges[b]
    chains = []
    for start in sorted(set(nxt) - set(nxt.values())) + list(nxt):
        if start not in nxt:
            continue
        chain = [start]
        while chain[-1] in nxt:
            chain.append(nxt.pop(chain[-1]))
        closed = chain[-1] == chain[0]
        e = np.array(chain[:-1] if closed else chain)
        axis, i, j = e[:, 0], e[:, 1], e[:, 2]
        f0, f1 = F[i, j], F[i + 1 - axis, j + axis]
        t = f0 / (f0 - f1)
        pts = np.stack([i + (1 - axis) * t, j + axis * t], axis=-1)
        keep = np.any(pts != np.roll(pts, 1, axis=0), axis=1)
        keep[0] |= not closed
        chains.append((pts[keep], closed))
    return chains


def test_marching_squares_matches_the_edge_keyed_reference():
    # random lattices with saddles, zeros at nodes, ties in the saddle sums
    # and many chains, open and closed
    rng = np.random.default_rng(20)
    for trial in range(400):
        shape = tuple(rng.integers(2, 16, 2))
        kind = trial % 3
        if kind == 0:
            F = rng.integers(-2, 3, shape).astype(float)
        elif kind == 1:
            F = rng.standard_normal(shape)
        else:
            i, j = np.meshgrid(*map(np.arange, shape), indexing="ij")
            F = np.sin(rng.uniform(0.3, 2.0) * i + rng.uniform(0.0, 3.0)) * np.cos(0.7 * j) - 0.2
        got, want = mcgraph.geometry._marching_squares(F), _edge_keyed_marching_squares(F)
        assert [c for _, c in got] == [c for _, c in want]
        for (pts, _), (ref, _) in zip(got, want):
            assert pts.shape == ref.shape and np.array_equal(pts, ref)
