"""Embedded boundary grid: classification, feet, ghost closures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcgraph import (Grid, GridError, InvalidFieldError, ScalarField, annulus,
                     disk, dumbbell, ellipse, levelset, rect)
from mcgraph.grid import _AXES, NODE_EXTERIOR, NODE_GHOST, NODE_INTERIOR, STENCILS


@pytest.fixture(scope="module")
def g16():
    return Grid(disk(radius=1.0), 1.0 / 16.0)


def test_classification_partition(g16):
    counts = {c: int(np.sum(g16.cls == c))
              for c in (NODE_EXTERIOR, NODE_INTERIOR, NODE_GHOST)}
    assert sum(counts.values()) == g16.nx * g16.ny
    assert counts[NODE_INTERIOR] == g16.n_interior
    assert counts[NODE_GHOST] == g16.n_ghost
    assert counts[NODE_INTERIOR] > 0 and counts[NODE_GHOST] > 0


def test_interior_nodes_strictly_inside(g16):
    assert np.all(g16.interior_d > 0)


def test_ghost_nodes_touch_interior(g16):
    # every ghost is the across-boundary neighbor of some interior node
    interior = g16.cls == NODE_INTERIOR
    for i, j in g16.ghost_ij:
        neigh = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + dx, j + dy
            if 0 <= ni < g16.nx and 0 <= nj < g16.ny:
                neigh.append(interior[ni, nj])
        assert any(neigh)


def test_ghosts_within_collar(g16):
    gd = -g16.d[g16.ghost_ij[:, 0], g16.ghost_ij[:, 1]]
    assert np.all(gd <= 2.0 * g16.h + 1e-12)


def test_feet_on_boundary(g16):
    assert g16.n_feet > 0
    sd = g16.domain.signed_distance(g16.foot_xy)
    assert np.max(np.abs(sd)) <= 1e-8
    assert np.all(g16.foot_theta > 0)
    assert np.all(g16.foot_theta <= 1.0)


def test_foot_owner_links(g16):
    # each foot lies between its owner node and the boundary along one axis
    axes = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    owner_xy = g16.interior_xy[g16.foot_owner]
    step = axes[g16.foot_axis] * g16.h * g16.foot_theta[:, None]
    assert np.allclose(owner_xy + step, g16.foot_xy, atol=1e-9)


def test_core_mask_excludes_collar(g16):
    assert np.all(g16.interior_d[g16.core_mask] >= 2.0 * g16.h - 1e-12)
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
    D, D_feet = g.operators()
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


def test_nonpositive_spacing_raises():
    with pytest.raises(GridError):
        Grid(disk(radius=1.0), 0.0)


def test_field_shape_validation(g16):
    with pytest.raises(InvalidFieldError):
        ScalarField(g16, np.zeros(3))
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
    w = v - u
    assert np.allclose(w.values, 0.75)


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
    assert np.max(np.abs(g.d[deep, j] - exact)) < 1e-15


_LEVELSET = "1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36"


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
@pytest.mark.parametrize("make", [lambda: ellipse(1.2, 0.7), lambda: dumbbell(1.0, 1.3),
                                  lambda: levelset(_LEVELSET, (-1.1, 1.1, -1.0, 1.0))],
                         ids=["ellipse", "dumbbell", "levelset"])
def test_feet_bisected_on_sign_test_match_signed_distance(make, h, monkeypatch):
    domain = make()
    by_sign = Grid(domain, h)
    monkeypatch.setattr(domain, "contains", lambda pts: domain.signed_distance(pts) > 0.0)
    by_distance = Grid(domain, h)
    assert np.array_equal(by_sign.foot_owner, by_distance.foot_owner)
    assert np.array_equal(by_sign.foot_axis, by_distance.foot_axis)
    assert np.max(np.abs(by_sign.foot_theta - by_distance.foot_theta)) <= 1e-12
    assert np.max(np.abs(by_sign.foot_s - by_distance.foot_s)) <= 1e-14
    assert by_sign.flags == by_distance.flags


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
