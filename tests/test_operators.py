"""Discrete curvature operator: ellipticity, form agreement, consistency."""

import numpy as np
import pytest

from mcgraph import (Evaluation, Grid, PrescribedCurvature, ScalarField,
                     apply_M, coefficient_matrix, disk, gradient, rect)

_FLAT = PrescribedCurvature.constant(0.0)


def test_coefficient_matrix_eigenvalues_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.uniform(-10, 10, 2)
        p *= min(1.0, 10.0 / np.linalg.norm(p))
        A, (lo, hi) = coefficient_matrix(p)
        brute = np.linalg.eigvalsh(A)
        assert abs(lo - 1.0) < 1e-12
        assert abs(hi - (1.0 + p @ p)) < 1e-12
        assert np.allclose(sorted([lo, hi]), brute, atol=1e-12)


def test_coefficient_matrix_structure():
    p = np.array([2.0, -1.0])
    A, _ = coefficient_matrix(p)
    w2 = 1.0 + p @ p
    expect = w2 * np.eye(2) - np.outer(p, p)
    assert np.allclose(A, expect, atol=1e-14)
    # eigenvector along p gets the small eigenvalue
    assert np.allclose(A @ p, p, atol=1e-12)


@pytest.fixture(scope="module")
def disk20():
    return Grid(disk(radius=1.0), 1.0 / 20.0)


def test_linear_fields_are_minimal(disk20):
    u = ScalarField.from_callable(disk20, lambda x, y: 0.4 * x - 0.3 * y + 0.2)
    m = apply_M(u)
    assert np.max(np.abs(m)) < 1e-9


def test_gradient_exact_for_quadratics(disk20):
    u = ScalarField.from_callable(disk20, lambda x, y: x**2 - 0.5 * x * y)
    g = gradient(u)
    x = disk20.interior_xy[:, 0]
    y = disk20.interior_xy[:, 1]
    assert np.max(np.abs(g[:, 0] - (2 * x - 0.5 * y))) < 1e-8
    assert np.max(np.abs(g[:, 1] - (-0.5 * x))) < 1e-8


def test_hessian_exact_for_quadratics(disk20):
    u = ScalarField.from_callable(disk20,
                                  lambda x, y: 0.5 * x**2 + 0.25 * x * y - y**2)
    ev = Evaluation(u, _FLAT)
    core = disk20.core_mask
    assert np.max(np.abs(ev.uxx[core] - 1.0)) < 1e-7
    assert np.max(np.abs(ev.uyy[core] + 2.0)) < 1e-7
    assert np.max(np.abs(ev.uxy[core] - 0.25)) < 1e-7


def test_divergence_and_tensor_forms_agree(disk20):
    # the coefficient form against the expanded form W^2 tr(Hess) - <Hess p, p>
    u = ScalarField.from_callable(disk20, lambda x, y: 0.3 * np.sin(x) * np.cos(y))
    ev = Evaluation(u, _FLAT)
    ux, uy = ev.p[:, 0], ev.p[:, 1]
    m2 = ((1.0 + ux**2 + uy**2) * (ev.uxx + ev.uyy)
          - (ev.uxx * ux * ux + 2.0 * ev.uxy * ux * uy + ev.uyy * uy * uy))
    assert np.max(np.abs(apply_M(u) - m2)) < 1e-8


def test_apply_q_tau_scaling(disk20):
    u = ScalarField.from_callable(disk20, lambda x, y: 0.1 * (x**2 + y**2))
    H = PrescribedCurvature.constant(0.4)
    q0 = Evaluation(u, H, n=2, tau=0.0).q
    m = apply_M(u)
    assert np.allclose(q0, m, atol=1e-13)
    q1 = Evaluation(u, H, n=2, tau=1.0).q
    p = gradient(u)
    w3 = (1.0 + np.sum(p**2, axis=-1)) ** 1.5
    assert np.allclose(q1, m - 2 * 0.4 * w3, atol=1e-12)


def _scherk_residual(h):
    g = Grid(rect(0.6, 0.6), h)
    u = ScalarField.from_callable(
        g, lambda x, y: np.log(np.cos(x) / np.cos(y)))
    core, _ = Evaluation(u, _FLAT).residual_norms()
    return core


def test_scherk_residual_second_order():
    # the coarsest pair is pre-asymptotic for the sup norm on the square
    r32 = _scherk_residual(1.0 / 32.0)
    r64 = _scherk_residual(1.0 / 64.0)
    assert r32 < 0.05
    assert 3.0 < r32 / r64 < 5.0


def _cap_residual(h):
    g = Grid(disk(radius=1.0), h)
    u = ScalarField.from_callable(
        g, lambda x, y: np.sqrt(5.25) - np.sqrt(6.25 - x**2 - y**2))
    core, _ = Evaluation(u, PrescribedCurvature.constant(0.4)).residual_norms()
    return core


def test_cap_residual_second_order():
    r16 = _cap_residual(1.0 / 16.0)
    r32 = _cap_residual(1.0 / 32.0)
    assert r16 < 0.05
    assert 3.0 < r16 / r32 < 5.0


def test_collar_residual_decays_first_order():
    # irregular closure stencils lose one order next to the boundary; the
    # collar residual still has to shrink under refinement
    def collar(h):
        g = Grid(disk(radius=1.0), h)
        u = ScalarField.from_callable(
            g, lambda x, y: np.sqrt(5.25) - np.sqrt(6.25 - x**2 - y**2))
        return Evaluation(u, PrescribedCurvature.constant(0.4)).residual_norms()[1]

    c32 = collar(1.0 / 32.0)
    c64 = collar(1.0 / 64.0)
    assert c32 < 0.5
    assert c32 / c64 > 1.5


def _assert_evaluation_is_its_formulas(ev, H, n, tau):
    # every array Evaluation builds in place is its formula to the bit
    u = ev.u
    grid = u.grid
    s = grid.stencils(u.values, u.feet)
    p = s[3:].T
    w2 = 1.0 + np.sum(p**2, axis=-1)
    a11 = w2 - p[:, 0] ** 2
    a22 = w2 - p[:, 1] ** 2
    a12 = -p[:, 0] * p[:, 1]
    m = a11 * s[0] + 2.0 * a12 * s[2] + a22 * s[1]
    load = tau * n * np.asarray(H(grid.interior_xy), dtype=float)
    W = np.sqrt(w2)
    q = m - load * W**3
    for name, expected in (("uxx", s[0]), ("uyy", s[1]), ("uxy", s[2]), ("p", p), ("W", W),
                           ("a11", a11), ("a22", a22), ("a12", a12), ("m", m),
                           ("load", load), ("q", q)):
        got = getattr(ev, name)
        assert got.shape == expected.shape, name
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), name


def test_evaluation_is_its_formulas_on_a_random_field(disk20):
    rng = np.random.default_rng(5)
    values = rng.normal(scale=0.3, size=disk20.n_interior)
    values[::5] = -0.0
    values[1::5] = 0.0
    feet = rng.normal(scale=0.3, size=disk20.n_feet)
    feet[::3] = -0.0
    u = ScalarField(disk20, values, feet)
    H = PrescribedCurvature.expression("0.3 + 0.2*x*y")
    _assert_evaluation_is_its_formulas(Evaluation(u, H, n=2, tau=0.75), H, 2, 0.75)


def test_evaluation_is_its_formulas_on_the_cap(cap_solve32, cap_H):
    ev = Evaluation(cap_solve32.field, cap_H)
    _assert_evaluation_is_its_formulas(ev, cap_H, 2, 1.0)
