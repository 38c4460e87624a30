"""Embedded boundary grid: classification, feet, ghost closures."""

import decimal
import re
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, strategies as st

import mcgraph.geometry
import mcgraph.grid
from mcgraph import (Evaluation, Grid, GridError, InvalidFieldError, PrescribedCurvature,
                     ScalarField, annulus, disk, dumbbell, ellipse, levelset, rect,
                     rounded_rect)
from mcgraph.grid import _AXES, _QUADRANTS, STENCILS

from lattice_form import lattice_taps, stacked_operators


@pytest.fixture(scope="module")
def g16():
    return Grid(disk(radius=1.0), 1.0 / 16.0)


def test_classification_partition(g16):
    interior, ghost = g16.node_id >= 0, g16.ghost_id >= 0
    assert g16.node_id.shape == g16.ghost_id.shape == (g16.nx, g16.ny)
    assert not np.any(interior & ghost)
    assert np.array_equal(interior, g16.interior_mask)
    assert int(interior.sum()) == g16.n_interior
    assert int(ghost.sum()) == g16.n_ghost
    assert g16.n_interior > 0 and g16.n_ghost > 0


def test_interior_nodes_strictly_inside(g16):
    assert np.all(g16.domain.signed_distance(g16.interior_xy) > 0)


def test_ghost_nodes_touch_interior(g16):
    # every ghost is the across-boundary neighbor of some interior node
    interior = g16.node_id >= 0
    for i, j in g16.ghost_ij:
        neigh = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + dx, j + dy
            if 0 <= ni < g16.nx and 0 <= nj < g16.ny:
                neigh.append(interior[ni, nj])
        assert any(neigh)


def test_ghosts_within_collar(g16):
    ghost_xy = np.stack([g16.xs[g16.ghost_ij[:, 0]], g16.ys[g16.ghost_ij[:, 1]]], axis=-1)
    gd = -g16.domain.signed_distance(ghost_xy)
    assert np.all(gd <= 2.0 * g16.h + 1e-12)


def test_feet_on_boundary(g16):
    assert g16.n_feet > 0
    sd = g16.domain.signed_distance(g16.foot_xy)
    assert np.max(np.abs(sd)) <= 1e-8
    assert np.all(g16.foot_theta > 0)
    assert np.all(g16.foot_theta <= 1.0)


def test_foot_owner_links(g16):
    # each foot lies between its owner node and the boundary along one
    # axis; the owners are intp, the index type a gather takes without a cast
    assert g16.foot_owner.dtype == np.intp
    axes = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    owner_xy = g16.interior_xy[g16.foot_owner]
    step = axes[g16.foot_axis] * g16.h * g16.foot_theta[:, None]
    assert np.allclose(owner_xy + step, g16.foot_xy, atol=1e-9)


def test_core_mask_excludes_collar(g16):
    d = g16.domain.signed_distance(g16.interior_xy)
    assert np.all(d[g16.core_mask] >= 2.0 * g16.h - 1e-12)
    assert np.any(g16.core_mask)
    assert np.any(~g16.core_mask)


def test_ghost_closure_exact_for_quadratics(g16):
    assert g16.flags["ghost_linear_fallback"] == 0

    def q(x, y):
        return 1.0 + 0.3 * x - 0.2 * y + 0.5 * x**2 + 0.25 * x * y - 0.4 * y**2

    u = ScalarField.from_callable(g16, q)
    ghosts = u.ghost_values()
    gx = g16.xs[g16.ghost_ij[:, 0]]
    gy = g16.ys[g16.ghost_ij[:, 1]]
    assert np.max(np.abs(ghosts - q(gx, gy))) < 1e-9


# on annulus(0.5, 1.0) the lattice nodes (+-0.5, 0), (0, +-0.5) lie on the
# inner circle, so each is a ghost owned along three links
@pytest.mark.parametrize("domain, h", [(ellipse(1.0, 0.7), 1.0 / 24.0),
                                       (annulus(0.5, 1.0), 1.0 / 32.0)],
                         ids=["ellipse", "annulus"])
def test_ghost_closure_exact_other_spacing(domain, h):
    g = Grid(domain, h)
    assert g.flags["ghost_linear_fallback"] == 0

    def q(x, y):
        return -0.7 + x - 0.1 * y + 0.2 * x**2 - 0.15 * x * y + 0.6 * y**2

    u = ScalarField.from_callable(g, q)
    gx = g.xs[g.ghost_ij[:, 0]]
    gy = g.ys[g.ghost_ij[:, 1]]
    assert np.max(np.abs(u.ghost_values() - q(gx, gy))) < 1e-9


# the grids are chosen with no linear-fallback ghost, so every stencil is
# exact for quadratics at every interior node
@pytest.mark.parametrize("domain, h", [(disk(1.0), 1.0 / 32.0),
                                       (ellipse(1.2, 0.7), 1.0 / 24.0),
                                       (annulus(0.5, 1.0), 1.0 / 32.0)],
                         ids=["disk", "ellipse", "annulus"])
def test_stacked_operator_row_blocks(domain, h):
    g = Grid(domain, h)
    assert g.flags["ghost_linear_fallback"] == 0
    c0, cx, cy, cxx, cxy, cyy = -0.7, 1.0, -0.1, 0.2, -0.15, 0.6

    def q(x, y):
        return c0 + cx * x + cy * y + cxx * x**2 + cxy * x * y + cyy * y**2

    u = ScalarField.from_callable(g, q)
    D, D_feet = stacked_operators(g)
    assert D.shape == (5 * g.n_interior, g.n_interior)
    assert D_feet.shape == (5 * g.n_interior, g.n_feet)
    blocks = (D @ u.values + D_feet @ u.feet).reshape(5, g.n_interior)
    x, y = g.interior_xy[:, 0], g.interior_xy[:, 1]
    exact = (2.0 * cxx, 2.0 * cyy, cxy, cx + 2.0 * cxx * x + cxy * y, cy + cxy * x + 2.0 * cyy * y)
    assert STENCILS == ("Dxx", "Dyy", "Dxy", "Gx", "Gy")
    for k in range(5):
        assert np.max(np.abs(blocks[k] - exact[k])) < 1e-8, STENCILS[k]


def test_cross_flags_set_at_construction():
    # the quadrant choice of the cross derivative is made with the grid, so
    # its flags need no operator build
    grid = Grid(disk(1.0), 1.0 / 32.0)
    assert grid._ops is None
    assert grid.flags["cross_one_sided"] == 72
    assert grid.flags["cross_missing"] == 0
    flags = dict(grid.flags)
    grid.operators()
    assert grid.flags == flags


def test_too_coarse_raises():
    # no lattice node falls inside this small off-lattice disk at h = 1
    with pytest.raises(GridError):
        Grid(disk(radius=0.2, center=(0.25, 0.25)), 1.0)


def test_interior_reaching_lattice_edge_raises():
    # the positive side of this level set is the unbounded exterior of the
    # circle, so interior nodes fill the lattice margin
    with pytest.raises(GridError):
        Grid(levelset("x**2 + y**2 - 1", (-1.2, 1.2, -1.2, 1.2)), 1.0 / 8.0)


@pytest.mark.parametrize("h", [0.0, -1.0 / 16.0, float("nan"), float("inf")])
def test_nonpositive_spacing_raises(h):
    # nan raised ValueError and inf IndexError
    with pytest.raises(GridError, match="positive and finite"):
        Grid(disk(radius=1.0), h)


@pytest.mark.parametrize("h", [3.0, 1e10, 1e150, 1e300])
def test_spacing_beyond_domain_extent_raises(h):
    # past the domain's extent a lattice has at most one node inside, and
    # far past it the lattice coordinates lose the boundary or overflow
    with pytest.raises(GridError, match=re.escape(f"h = {h:g} exceeds the domain's extent 2")):
        Grid(disk(radius=1.0), h)


def test_spacing_within_domain_extent_builds():
    assert Grid(disk(radius=1.0), 1.5).n_interior >= 1


def test_field_shape_validation(g16):
    with pytest.raises(InvalidFieldError):
        ScalarField(g16, np.zeros(3), np.zeros(g16.n_feet))
    with pytest.raises(InvalidFieldError):
        ScalarField(g16, np.zeros(g16.n_interior), np.zeros(1))


def test_field_rejects_nonfinite(g16):
    vals = np.zeros(g16.n_interior)
    vals[0] = np.nan
    with pytest.raises(InvalidFieldError):
        ScalarField(g16, vals, np.zeros(g16.n_feet)).validate()


def test_field_shift_and_sub(g16):
    u = ScalarField.from_callable(g16, lambda x, y: x + y)
    v = u.shifted(0.75)
    assert np.allclose(v.values - u.values, 0.75)
    assert np.allclose(v.feet - u.feet, 0.75)


def test_refinement_grows_quadratically():
    n16 = Grid(disk(radius=1.0), 1.0 / 16.0).n_interior
    n32 = Grid(disk(radius=1.0), 1.0 / 32.0).n_interior
    assert 3.0 < n32 / n16 < 5.0


def test_ellipse_depths_on_major_axis_are_exact():
    # within (a^2 - b^2)/a of the centre the nearest boundary point leaves the
    # major axis: d(x, 0) = b sqrt(1 - x^2 / (a^2 - b^2))
    a, b = 1.2, 0.7
    g = Grid(ellipse(a, b), 1.0 / 32.0)
    j = int(np.flatnonzero(g.ys == 0.0)[0])
    deep = np.abs(g.xs) < (a * a - b * b) / a
    exact = b * np.sqrt(1.0 - g.xs[deep] ** 2 / (a * a - b * b))
    assert deep.sum() == 51
    d = g.domain.signed_distance(np.stack([g.xs[deep], np.full(deep.sum(), g.ys[j])], axis=-1))
    assert np.max(np.abs(d - exact)) < 1e-15


_LEVELSET = "1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36"
# a neighbour inside by 5e-13, under the classification's tolerance of 1e-12
_JUST_OVER = 0.5 + 5e-13
_FOOT_DOMAINS = {
    "disk": lambda: disk(0.93, center=(0.011, -0.02)),
    "ellipse": lambda: ellipse(1.2, 0.7),
    "rect": lambda: rect(0.55, 0.37, center=(0.013, 0.0)),
    "rounded_rect": lambda: rounded_rect(1.0, 0.6, 0.25),
    "annulus": lambda: annulus(0.8, 1.6),
    "dumbbell": lambda: dumbbell(1.0, 1.3),
    "levelset": lambda: levelset(_LEVELSET, (-1.1, 1.1, -1.0, 1.0)),
    # the rows y = +-1/2 pass 1e-5 inside the tangent lines: links along
    # them leave at theta 0.05-0.08 on the lattice of spacing 1/16
    "near_tangent_disk": lambda: disk(0.5 + 1e-5),
    "near_tangent_ellipse": lambda: ellipse(0.75, 0.5 + 1e-5),
    "inside_neighbour_disk": lambda: disk(_JUST_OVER),
    "inside_neighbour_levelset": lambda: levelset(f"{_JUST_OVER**2!r} - x**2 - y**2",
                                                  (-0.6, 0.6, -0.6, 0.6)),
}


def _bisected_theta(g):
    """theta of every foot by 52 halvings of the domain's sign test on its
    link."""
    p0 = g.interior_xy[g.foot_owner]
    direction = g.h * _AXES[g.foot_axis]
    lo, hi = np.zeros(g.n_feet), np.ones(g.n_feet)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        inside = g.domain.contains(*(p0 + mid[:, None] * direction).T)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("h", [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0])
@pytest.mark.parametrize("name", sorted(_FOOT_DOMAINS))
def test_feet_match_a_bisection_of_the_sign_test(name, h):
    g = Grid(_FOOT_DOMAINS[name](), h)
    theta = _bisected_theta(g)
    assert np.max(np.abs(g.foot_theta - theta)) <= 1e-12
    assert np.all((g.foot_theta >= 2.0 ** -53) & (g.foot_theta <= 1.0 - 2.0 ** -53))
    # every foot sits at the theta the closures read, to the bit
    own = g.interior_xy[g.foot_owner]
    assert np.array_equal(g.foot_xy, own + g.foot_theta[:, None] * (g.h * _AXES[g.foot_axis]))
    if name == "annulus":
        # links into the hole leave across the inner circle
        assert (np.hypot(*g.foot_xy.T) < 1.2).sum() > 8
    if name.startswith("near_tangent"):
        # the links from (0, 1/2) along the row that passes 1e-5 inside the
        # top keep their precision: the bisection itself is off by up to
        # 7e-13 there, the feet by less than 1e-15
        own = g.interior_xy[g.foot_owner]
        row = (own[:, 0] == 0.0) & (own[:, 1] == 0.5) & (g.foot_axis < 2)
        shape = g.domain.shape
        a, b = (shape.a, shape.b) if name.endswith("ellipse") else (shape.radius,) * 2
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact = float(Decimal(a) * (1 - (Decimal(0.5) / Decimal(b)) ** 2).sqrt()
                          / Decimal(h))
        assert row.sum() == 2
        assert 0.05 < exact < 0.5
        assert np.max(np.abs(g.foot_theta[row] - exact)) <= 1e-15
    if name.startswith("inside_neighbour"):
        # (1/2, 0) is inside by 5e-13 and not interior: the foot of the link
        # from its left neighbour sits at the end of the link, as the
        # bisection puts it
        far = g.foot_xy[:, 0] == 0.5
        assert g.ghost_id[np.flatnonzero(g.xs == 0.5)[0], np.flatnonzero(g.ys == 0.0)[0]] >= 0
        assert far.sum() >= 1 and np.all(g.foot_theta[far] == 1.0 - 2.0 ** -53)


def _fallback_ghosts(g):
    """Ghosts with a link that falls back to linear extrapolation: no second
    interior node inward, or theta < 0.1 and no third."""
    step = _AXES[g.foot_axis]
    own = g.interior_ij[g.foot_owner]

    def inward(k):
        return g.node_id[own[:, 0] - k * step[:, 0], own[:, 1] - k * step[:, 1]] >= 0

    linear = ~inward(1) | ((g.foot_theta < 0.1) & ~inward(2))
    assert linear.sum() == g.flags["ghost_linear_fallback"]
    return g.ghost_id[own[linear, 0] + step[linear, 0], own[linear, 1] + step[linear, 1]]


_SHAPES = {"disk": lambda p, q: disk(0.4 + p, center=(0.1 * q, -0.05)),
           "ellipse": lambda p, q: ellipse(0.4 + p, 0.4 + q),
           "rect": lambda p, q: rect(0.4 + p, 0.4 + q),
           "annulus": lambda p, q: annulus(p, p + 0.3 + q)}


@given(shape=st.sampled_from(sorted(_SHAPES)),
       p=st.floats(0.3, 1.0), q=st.floats(0.3, 1.0), n=st.integers(12, 40),
       c=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_ghost_closures_reproduce_quadratics(shape, p, q, n, c):
    g = Grid(_SHAPES[shape](p, q), 1.0 / n)

    def quad(x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    u = ScalarField.from_callable(g, quad)
    err = np.abs(u.ghost_values() - quad(g.xs[g.ghost_ij[:, 0]], g.ys[g.ghost_ij[:, 1]]))
    err[_fallback_ghosts(g)] = 0.0
    assert np.max(err) < 1e-9


# -- narrow band: classification against the signed distance at every node --

_BAND_DOMAINS = {
    "disk": lambda: disk(1.0),
    "ellipse": lambda: ellipse(1.2, 0.7),
    "rounded_rect": lambda: rounded_rect(1.0, 0.6, 0.25),
    "annulus": lambda: annulus(0.8, 1.6),
    "annulus_on_lattice": lambda: annulus(0.5, 1.0),
    "dumbbell": lambda: dumbbell(1.0, 1.3),
    "levelset": lambda: levelset(_LEVELSET, (-1.1, 1.1, -1.0, 1.0)),
    "thin_ellipse": lambda: ellipse(1.0, 0.09),
    "square": lambda: rect(0.6, 0.6),
}


def _reference(grid):
    """Core mask (interior order) and ghost depths (ghost order) from the
    signed distance at every lattice node, and the interior and ghost
    masks."""
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    d = grid.domain.signed_distance(np.stack([X.ravel(), Y.ravel()], axis=-1)).reshape(X.shape)
    tol = 1e-12 * max(1.0, max(abs(v) for v in grid.domain.bbox))
    interior = d > tol
    pad = np.pad(interior, 1)
    ghost = (pad[2:, 1:-1] | pad[:-2, 1:-1] | pad[1:-1, 2:] | pad[1:-1, :-2]) & ~interior
    return d[interior] >= 2.0 * grid.h - 1e-12, -d[ghost], interior, ghost


def _reference_numbering(mask):
    """The (i, j) pairs of the mask's nodes in row-major order, and the
    lattice of their numbers, -1 elsewhere."""
    ij = np.argwhere(mask)
    ids = np.full(mask.shape, -1, dtype=np.int64)
    for k, (i, j) in enumerate(ij):
        ids[i, j] = k
    return ij, ids


def _build_recording(domain, h, monkeypatch):
    """The grid, and the signed distance at each lattice node that its
    construction evaluated (NaN elsewhere)."""
    calls = []
    exact = domain.signed_distance

    def recording(pts):
        calls.append((np.array(pts, dtype=float), exact(pts)))
        return calls[-1][1]

    monkeypatch.setattr(domain, "signed_distance", recording)
    grid = Grid(domain, h)
    monkeypatch.undo()
    seen = np.full((grid.nx, grid.ny), np.nan)
    for pts, d in calls:
        i = np.rint((pts[:, 0] - grid.xs[0]) / h).astype(int)
        j = np.rint((pts[:, 1] - grid.ys[0]) / h).astype(int)
        node = (grid.xs[i] == pts[:, 0]) & (grid.ys[j] == pts[:, 1])
        seen[i[node], j[node]] = d[node]
    return grid, seen, sum(len(pts) for pts, _ in calls)


def _assert_matches_reference(grid, seen):
    core, depth, interior, ghost = _reference(grid)
    assert np.array_equal(grid.core_mask, core)
    # the nodes and their numbers, row-major, with the dtypes the rest reads
    for (ij, ids), mask in (((grid.interior_ij, grid.node_id), interior),
                            ((grid.ghost_ij, grid.ghost_id), ghost)):
        ref_ij, ref_ids = _reference_numbering(mask)
        assert ij.dtype == np.int32 and ij.shape == ref_ij.shape and np.array_equal(ij, ref_ij)
        assert ids.dtype == np.int32 and np.array_equal(ids, ref_ids)
    assert np.array_equal(grid.interior_xy, np.stack([grid.xs[grid.interior_ij[:, 0]],
                                                      grid.ys[grid.interior_ij[:, 1]]], axis=-1))
    # every ghost's depth was evaluated during construction, and it is the reference's
    built = -seen[grid.ghost_ij[:, 0], grid.ghost_ij[:, 1]]
    assert not np.any(np.isnan(built))
    assert np.max(np.abs(built - depth)) <= 1e-12
    assert np.max(depth) <= 2.0 * grid.h + 1e-12


@pytest.mark.parametrize("name", ["disk", "ellipse", "rounded_rect", "annulus", "dumbbell",
                                  "levelset"])
def test_grid_keeps_no_derived_array(name):
    # the coordinates, the interior mask and the ghost numbers follow from
    # what a grid keeps, so it stores none of them and derives each on read
    grid = Grid(_BAND_DOMAINS[name](), 1.0 / 32.0)
    grid.operators()
    lattice = (grid.nx, grid.ny)
    for key, value in vars(grid).items():
        if isinstance(value, np.ndarray):
            assert value.dtype.kind != "f" or value.shape != (grid.n_interior, 2), key
            assert value.shape != lattice or key == "node_id", key
    ii, jj = grid.interior_ij.T
    ghost_id = np.full(lattice, -1, dtype=np.int32)
    ghost_id[grid.ghost_ij[:, 0], grid.ghost_ij[:, 1]] = np.arange(grid.n_ghost)
    for attr, expected in (("interior_xy", np.stack([grid.xs[ii], grid.ys[jj]], axis=-1)),
                           ("ghost_id", ghost_id), ("interior_mask", grid.node_id >= 0)):
        derived = getattr(grid, attr)
        assert derived.dtype == expected.dtype and np.array_equal(derived, expected), attr
        # a new array on every read: flipping the low bit of each of its
        # bytes leaves the grid's as it was
        derived.view(np.uint8)[...] ^= 1
        assert np.array_equal(getattr(grid, attr), expected), attr


@pytest.mark.parametrize("h", [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0])
@pytest.mark.parametrize("name", sorted(_BAND_DOMAINS))
def test_band_classification_matches_full_lattice(name, h, monkeypatch):
    grid, seen, _ = _build_recording(_BAND_DOMAINS[name](), h, monkeypatch)
    _assert_matches_reference(grid, seen)


@pytest.mark.parametrize("h", [1.0 / 16.0, 1.0 / 64.0])
def test_band_sees_hole_between_nodes(h, monkeypatch):
    # no node falls inside the hole, so the sign test never changes near it:
    # only the boundary samples put its four neighbours into the band
    grid, seen, _ = _build_recording(annulus(0.2 * h, 1.0, center=(h / 2, h / 2)), h,
                                     monkeypatch)
    _assert_matches_reference(grid, seen)
    near = np.hypot(*(grid.interior_xy - h / 2).T) < h
    assert near.sum() == 4 and not np.any(grid.core_mask[near])


@pytest.mark.parametrize("h", [1.0 / 16.0, 1.0 / 64.0, 1.0 / 128.0])
def test_band_widens_with_coarse_samples(h, monkeypatch):
    monkeypatch.setattr(mcgraph.geometry, "_N_SAMPLES", 64)
    grid, seen, _ = _build_recording(disk(1.0), h, monkeypatch)
    _assert_matches_reference(grid, seen)


def test_band_bounds_distance_evaluations(monkeypatch):
    # the level-set distance is the costly one: construction evaluates it
    # on the band and at the feet only
    grid, seen, evaluated = _build_recording(dumbbell(1.0, 1.3), 1.0 / 128.0, monkeypatch)
    assert evaluated <= 0.1 * grid.nx * grid.ny
    _assert_matches_reference(grid, seen)
    # and of the nodes outside the sign test, at the ghosts only
    outside = ~grid.domain.contains(grid.xs[:, None], grid.ys[None, :])
    assert np.all(np.isnan(seen[outside & (grid.ghost_id < 0)]))


@pytest.mark.parametrize("make", [
    lambda: disk(0.93, center=(0.31, -0.2)),
    lambda: ellipse(1.2, 0.7, center=(-0.4, 0.15)),
    lambda: rect(0.55, 0.37, center=(0.013, 0.25)),
    lambda: rounded_rect(1.0, 0.6, 0.25, center=(0.2, -0.35)),
    lambda: annulus(0.5, 1.0, center=(-0.125, 0.3)),
    lambda: dumbbell(1.0, 1.3),
    lambda: levelset("1 - (x - 0.3)**2/1.21 - (y + 0.2)**2/0.36", (-0.9, 1.5, -0.9, 0.5))],
    ids=["disk", "ellipse", "rect", "rounded_rect", "annulus", "dumbbell", "levelset"])
def test_broadcast_sign_test_is_the_point_list_sign_test(make):
    # on a grid's own axes and on axes through the boundary's extremes, the
    # sign test on the axes xs[:, None], ys[None, :] is the sign test on the
    # list of the lattice's points, a meshgrid's flattened X, Y
    dom = make()
    x0, x1, y0, y1 = dom.bbox
    grid = Grid(dom, 1.0 / 32.0)
    for xs, ys in ((grid.xs, grid.ys),
                   (np.linspace(x0 - 0.1, x1 + 0.1, 97), np.linspace(y0, y1, 64))):
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        listed = dom.contains(X.ravel(), Y.ravel())
        inside = dom.contains(xs[:, None], ys[None, :])
        assert listed.dtype == bool and listed.shape == (len(xs) * len(ys),)
        assert inside.dtype == bool and inside.shape == (len(xs), len(ys))
        assert np.array_equal(inside.ravel(), listed)
        assert 0 < listed.sum() < len(listed)


def test_sign_test_of_one_point_is_a_0d_bool():
    dom = disk(1.0)
    for x, y, expected in ((0.0, 0.0, True), (1.5, 0.0, False)):
        inside = dom.contains(x, y)
        assert np.ndim(inside) == 0 and inside.dtype == bool
        assert bool(inside) is expected


# -- operator build: bit for bit against a tap-by-tap assembly --

def _reference_cross_choice(grid):
    """Per interior node, in _QUADRANTS order: centred when all four
    diagonals are usable, else the first quadrant whose diagonal is interior,
    else the first usable one, else none."""
    centred, one_sided, quadrant, missing = [], [], [], 0
    for n, (i, j) in enumerate(grid.interior_ij):
        usable = [grid.node_id[i + a, j + b] >= 0 or grid.ghost_id[i + a, j + b] >= 0
                  for a, b in _QUADRANTS]
        inner = [bool(grid.interior_mask[i + a, j + b]) for a, b in _QUADRANTS]
        centred.append(all(usable))
        if all(usable):
            continue
        if not any(usable):
            missing += 1
            continue
        one_sided.append(n)
        quadrant.append(_QUADRANTS[inner.index(True) if any(inner) else usable.index(True)])
    return (np.array(centred), np.array(one_sided, dtype=np.intp),
            np.array(quadrant, dtype=_QUADRANTS.dtype).reshape(-1, 2), len(one_sided), missing)


def _reference_operators(grid):
    """D and D_feet assembled tap by tap on the reference cross choice: each
    stencil's taps as scipy COO, split into interior and ghost columns, then
    S_int + S_gh @ closure_int and S_gh @ closure_feet with sorted rows."""
    h, Ni = grid.h, grid.n_interior
    ii, jj = grid.interior_ij[:, 0], grid.interior_ij[:, 1]
    rows = np.arange(Ni)
    centred, r1, quadrant, _, _ = _reference_cross_choice(grid)
    centred = np.flatnonzero(centred)
    a, b = quadrant[:, 0], quadrant[:, 1]
    s, w4 = a * b / h**2, 0.25 / h**2
    taps = {
        "Dxx": [(rows, (1, 0), 1.0 / h**2), (rows, (-1, 0), 1.0 / h**2),
                (rows, (0, 0), -2.0 / h**2)],
        "Dyy": [(rows, (0, 1), 1.0 / h**2), (rows, (0, -1), 1.0 / h**2),
                (rows, (0, 0), -2.0 / h**2)],
        "Dxy": [(centred, (1, 1), w4), (centred, (-1, -1), w4),
                (centred, (1, -1), -w4), (centred, (-1, 1), -w4),
                (r1, (a, b), s), (r1, (a, 0), -s), (r1, (0, b), -s), (r1, (0, 0), s)],
        "Gx": [(rows, (1, 0), 0.5 / h), (rows, (-1, 0), -0.5 / h)],
        "Gy": [(rows, (0, 1), 0.5 / h), (rows, (0, -1), -0.5 / h)],
    }
    column = np.where(grid.ghost_id >= 0, Ni + grid.ghost_id, grid.node_id)
    interior, ghost = [], []
    for name in STENCILS:
        r, c, v = (np.concatenate(part) for part in zip(*(
            (at, column[ii[at] + di, jj[at] + dj], np.broadcast_to(w, at.shape))
            for at, (di, dj), w in taps[name])))
        assert np.all(c >= 0)
        own = c < Ni
        interior.append(sps.coo_matrix((v[own], (r[own], c[own])), shape=(Ni, Ni)))
        ghost.append(sps.coo_matrix((v[~own], (r[~own], c[~own] - Ni)),
                                    shape=(Ni, grid.n_ghost)))
    S_int, S_gh = sps.vstack(interior, format="csr"), sps.vstack(ghost, format="csr")
    D, D_feet = S_int + S_gh @ grid.closure_int, S_gh @ grid.closure_feet
    for X in (D, D_feet):
        X.sort_indices()
    # positions whose taps and eliminated ghost taps cancel to exactly 0
    cancelled = (abs(S_int) + abs(S_gh) @ abs(grid.closure_int)).nnz - D.nnz
    return D, D_feet, cancelled


_OPERATOR_GRIDS = {
    "disk": (lambda: disk(1.0), 1.0 / 32.0),
    "annulus_on_lattice": (lambda: annulus(0.5, 1.0), 1.0 / 32.0),
    "thin_ellipse": (lambda: ellipse(1.0, 0.09), 1.0 / 32.0),
    "square": (lambda: rect(0.6, 0.6), 1.0 / 16.0),
    "levelset": (lambda: levelset(_LEVELSET, (-1.1, 1.1, -1.0, 1.0)), 1.0 / 32.0),
}


@pytest.fixture(scope="module")
def operator_grids():
    return {name: Grid(make(), h) for name, (make, h) in _OPERATOR_GRIDS.items()}


@pytest.mark.parametrize("name", sorted(_OPERATOR_GRIDS))
def test_cross_choice_matches_reference(operator_grids, name):
    g = operator_grids[name]
    _, one_sided, quadrant, n_one, n_missing = _reference_cross_choice(g)
    for got, want in ((g._cross_one_sided, one_sided), (g._cross_quadrant, quadrant)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert (g.flags["cross_one_sided"], g.flags["cross_missing"]) == (n_one, n_missing)


@pytest.mark.parametrize("name", sorted(_OPERATOR_GRIDS))
def test_operators_match_tap_by_tap_assembly(operator_grids, name):
    # the lattice form (constant taps plus the stored boundary rows)
    # materializes the tap-by-tap stacked operator to the bit
    g = operator_grids[name]
    D, D_feet = stacked_operators(g)
    want_D, want_feet, _ = _reference_operators(g)
    for got, want in ((D, want_D), (D_feet, want_feet)):
        assert got.has_canonical_format
        assert got.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            x, y = getattr(got, attr), getattr(want, attr)
            assert x.dtype == y.dtype, attr
            assert np.array_equal(x, y), attr


def test_operator_grids_cover_every_closure_and_cross_case(operator_grids):
    # the grids above reach the linear fallback, the skip-owner closure,
    # one-sided cross rows, entries that cancel to exactly 0 and an edge
    # node whose four diagonals are interior
    def skip_owner(g):
        return int((g.foot_theta < 0.1).sum()) - g.flags["ghost_theta_clamped"]

    grids = operator_grids.values()
    assert sum(g.flags["ghost_linear_fallback"] for g in grids) > 0
    assert sum(skip_owner(g) for g in grids) > 0
    assert sum(g.flags["cross_one_sided"] for g in grids) > 0
    assert _reference_operators(operator_grids["thin_ellipse"])[2] == 4
    # and an edge node with four interior diagonals beside a non-interior
    # x-neighbour, where the gathers would read the wrong diagonals
    g = operator_grids["annulus_on_lattice"]
    ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
    diagonals = np.all([g.interior_mask[ii + a, jj + b] for a, b in _QUADRANTS], axis=0)
    assert np.sum(diagonals & ~(g.interior_mask[ii - 1, jj] & g.interior_mask[ii + 1, jj])) == 2


@pytest.mark.parametrize("name", sorted(_OPERATOR_GRIDS))
def test_evaluation_matches_reference_taps(operator_grids, name):
    # the gathers plus the boundary rows give every stencil of the tap-by-tap
    # operator to the bit, signed zeros included: a sum from 0 is +0 where
    # all its terms are -0
    g = operator_grids[name]
    D, D_feet, _ = _reference_operators(g)
    rng = np.random.default_rng(len(name))
    signed_zero = np.where(rng.random(g.n_interior) < 0.5, -0.0, 0.0)
    fields = [(rng.standard_normal(g.n_interior), rng.standard_normal(g.n_feet)),
              (signed_zero, np.where(rng.random(g.n_feet) < 0.5, -0.0, 0.0)),
              (np.where(rng.random(g.n_interior) < 0.8, signed_zero, 1.0), -np.zeros(g.n_feet))]
    for values, feet in fields:
        want = D @ values
        want += D_feet @ feet
        want = want.reshape(len(STENCILS), -1)
        ev = Evaluation(ScalarField(g, values, feet), PrescribedCurvature.constant(0.0))
        for got, k in ((ev.uxx, 0), (ev.uyy, 1), (ev.uxy, 2), (ev.p[:, 0], 3), (ev.p[:, 1], 4)):
            assert np.ascontiguousarray(got).tobytes() == want[k].tobytes(), STENCILS[k]


@pytest.mark.parametrize("chunk", [mcgraph.grid._STENCIL_CHUNK, 4096])
@pytest.mark.parametrize("make, h", [(lambda: disk(1.0), 1.0 / 64.0),
                                     (lambda: annulus(0.5, 1.0), 1.0 / 64.0),
                                     (lambda: disk(1.0), 1.0 / 32.0)],
                         ids=["disk_64", "annulus_on_lattice_64", "disk_32"])
def test_stencils_in_blocks_match_the_stacked_operator(make, h, chunk, monkeypatch):
    # the stencils are evaluated a block of nodes at a time: in blocks of
    # 4,096, several with a partial last one (disk 1/64: 12,849 nodes) and
    # an annulus, and a grid of one block give the stacked operator's
    # mat-vec to the bit
    monkeypatch.setattr(mcgraph.grid, "_STENCIL_CHUNK", chunk)
    g = Grid(make(), h)
    if chunk == 4096:
        assert (g.n_interior > chunk) == (h < 1.0 / 32.0)
    D, D_feet = stacked_operators(g)
    rng = np.random.default_rng(11)
    values, feet = rng.standard_normal(g.n_interior), rng.standard_normal(g.n_feet)
    want = (D @ values + D_feet @ feet).reshape(len(STENCILS), -1)
    assert g.stencils(values, feet).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(_OPERATOR_GRIDS))
def test_operators_store_the_five_rows_of_each_edge_node(operator_grids, name):
    # the edge nodes are the interior nodes with a non-interior node among
    # their eight neighbours; a one-sided cross row has a non-interior
    # diagonal, so its node is always one of them
    g = operator_grids[name]
    ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
    outside = np.any([~g.interior_mask[ii + di, jj + dj]
                      for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=0)
    edge, D, D_feet = g.operators()
    assert np.array_equal(edge, np.flatnonzero(outside))
    assert np.all(np.isin(g._cross_one_sided, edge))
    rows = len(STENCILS) * len(edge)
    assert D.shape == (rows, g.n_interior) and D_feet.shape == (rows, g.n_feet)
    assert len(edge) < g.n_interior


def test_operators_and_pattern_keep_no_array_per_tap():
    # after the boundary rows and the union pattern are built, no array the
    # grid holds has an entry per stencil tap of every interior node (14 N)
    grid = Grid(disk(1.0), 1.0 / 64.0)
    grid.operators()
    grid.pattern()
    held = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
    for part in (*grid.operators(), *vars(grid.pattern()).values()):
        if isinstance(part, np.ndarray):
            held.append(part)
        elif sps.issparse(part):
            held += [part.data, part.indices, part.indptr]
    assert max(a.size for a in held) < 14 * grid.n_interior


def _scattered_combination(D, n, coefficients):
    """sum_k diag(c_k) STENCILS[k] from the stacked operator D entry by
    entry: each entry's weight times its row's coefficient, added in entry
    order (block after block) into its position in the union pattern of all
    five blocks.  Returns (data, indices, indptr)."""
    length = np.diff(D.indptr)
    keys = np.repeat(np.arange(D.shape[0]) % n * n, length) + D.indices
    union, position = np.unique(keys, return_inverse=True)
    values = np.repeat(np.concatenate(coefficients), length) * D.data
    data = np.bincount(position, weights=values, minlength=len(union))
    return data, union % n, np.searchsorted(union // n, np.arange(n + 1))


@pytest.mark.parametrize("chunk", [mcgraph.grid._CHUNK, 700])
@pytest.mark.parametrize("name", sorted(_OPERATOR_GRIDS))
def test_combine_matches_scatter_of_stacked_entries(operator_grids, name, chunk, monkeypatch):
    # the 9-point rows written from the coefficients and the boundary nodes'
    # sparse product give the entry-by-entry scatter to the bit, signed
    # zeros included, for random coefficients and for J(0)'s (1, 1, -0, 0,
    # 0), also when the rows are written in several passes
    monkeypatch.setattr(mcgraph.grid, "_CHUNK", chunk)
    g = operator_grids[name]
    D, _, _ = _reference_operators(g)
    rng = np.random.default_rng(7)
    signed_zero = np.where(rng.random(g.n_interior) < 0.5, -0.0, 0.0)
    for coefficients in ([rng.standard_normal(g.n_interior) for _ in range(5)],
                         [*np.ones((2, g.n_interior)), -np.zeros(g.n_interior),
                          *np.zeros((2, g.n_interior))],
                         [signed_zero, -signed_zero, signed_zero, -np.zeros(g.n_interior),
                          np.where(rng.random(g.n_interior) < 0.9, signed_zero, 1.0)]):
        got = g.pattern().combine(*coefficients)
        data, indices, indptr = _scattered_combination(D, g.n_interior, coefficients)
        assert got.data.tobytes() == data.tobytes()
        assert np.array_equal(got.indices, indices) and np.array_equal(got.indptr, indptr)
