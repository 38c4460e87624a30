"""Discrete minimal-surface-type operators on embedded-boundary grids.

For a field u with slope p = (u_x, u_y) and W = sqrt(1 + |p|^2), the
quasilinear operator is

    M u = (W^2 - u_x^2) u_xx - 2 u_x u_y u_xy + (W^2 - u_y^2) u_yy,

equal to W^3 div(p / W).

The defect against a prescribed curvature field H at load factor tau is

    Q u = M u - tau * n * H * W^3,

so Q u = 0 is the equation in nondivergence form and Q applied to an exact
solution measures pure truncation error.

Its derivative at u along a field v, foot values included, is one
combination of the five stencils,

    Q'(u) v = a11 Dxx v + a22 Dyy v + 2 a12 Dxy v + b_x Gx v + b_y Gy v,
    b_x = 2 (u_x u_yy - u_y u_xy) - 3 tau n H W u_x,
    b_y = 2 (u_y u_xx - u_x u_xy) - 3 tau n H W u_y,

the coefficients of M and the slope derivatives of those coefficients and
of the load W^3.  Its matrix on the interior values is the Newton Jacobian
J(u).  At u = 0 it is J(0) = Dxx + Dyy whatever H, the matrix of the
grid's first LU (`linear.laplacian_lu`), and the derivative along a field
that is 0 inside and phi at the feet moves phi to the right-hand side of
the harmonic lift (`solver._lift`).

`Evaluation` is the one evaluator: it reads the five stencils of u at once
(`Grid.stencils`: neighbour gathers for the constant lattice taps, the
edge nodes' stored rows for the rest) and holds the slopes p, W, the
second differences, the coefficients of M, M u and Q u, with the (core,
collar) sup norms of Q u, and gives J(u) (`jacobian`) and Q'(u) v
(`derivative`).  The solver, the reference self-test and the comparison
principle all read from it.  Around it sit
`apply_M` (M u alone), `gradient` (the slopes alone), `foot_slopes` with
`boundary_slope` (the one-sided slopes on the boundary links) and
`coefficient_matrix` (A(p) with its eigenvalues).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from .geometry import PrescribedCurvature
from .grid import ScalarField

DIMENSION = 2   # graphs over planar domains; n enters bounds explicitly
_FLAT = PrescribedCurvature.constant(0.0)


def _stencils(u: ScalarField) -> np.ndarray:
    """(5, n_interior) array whose row k applies STENCILS[k] to u, ghosts
    eliminated through the closures (`Grid.stencils`)."""
    u.validate()
    return u.grid.stencils(u.values, u.feet)


def gradient(u: ScalarField) -> np.ndarray:
    """(n_interior, 2) centered slopes."""
    return _stencils(u)[3:].T


def foot_slopes(u: ScalarField) -> np.ndarray:
    """One-sided slopes |u_owner - phi_foot| / (theta h), one per boundary link."""
    grid = u.grid
    return np.abs(u.values[grid.foot_owner] - u.feet) / (grid.foot_theta * grid.h)


def boundary_slope(u: ScalarField) -> float:
    """Largest one-sided slope along the boundary links only.

    This approximates sup over the boundary of the normal derivative, the
    quantity the boundary-gradient estimate bounds; the interior slopes are
    deliberately excluded.
    """
    return float(np.max(foot_slopes(u)))


def coefficient_matrix(p) -> tuple[np.ndarray, tuple[float, float]]:
    """A(p) = W^2 I - p p^T for one slope p = (p1, p2), with its exact
    eigenvalue pair (1, 1 + |p|^2).

    The small eigenvalue 1 belongs to the direction of p, the large one
    1 + |p|^2 to the orthogonal direction, so the ellipticity ratio is W^2.
    """
    p = np.asarray(p, dtype=float)
    w2 = 1.0 + np.sum(p**2)
    return w2 * np.eye(2) - p[:, None] * p[None, :], (1.0, float(w2))


class Evaluation:
    """One field u at load tau, evaluated once; the solver's defect norms,
    slope guard and Newton Jacobian all read from it.  `Evaluation.zero`
    evaluates u = 0, whose Jacobian is J(0).

    Arrays are per interior node: p holds the slopes (n_interior, 2) and
    W = sqrt(1 + |p|^2); uxx, uyy, uxy the second differences; a11, a22, a12
    the coefficients of M; load the curvature load tau n H; m = M u and
    q = Q u = m - load W^3.  For a constant H the load is the one float
    tau n H, seen as a read-only (n_interior,) array of stride 0; for an
    expression it is tau n times H's samples at the interior nodes, taken
    once per grid (`PrescribedCurvature.at_interior`).
    """

    def __init__(self, u: ScalarField, H, n: int = DIMENSION, tau: float = 1.0):
        self.u = u
        s = _stencils(u)
        self.uxx, self.uyy, self.uxy = s[:3]
        self.p = s[3:].T
        ux, uy = s[3:]
        # in place, each array the same to the bit as its formula: a11 and
        # a22 overwrite the squares u_x^2, u_y^2, and W overwrites w2
        self.a11, self.a22 = np.square(ux), np.square(uy)
        w2 = self.a11 + self.a22
        w2 += 1.0
        np.subtract(w2, self.a11, out=self.a11)
        np.subtract(w2, self.a22, out=self.a22)
        self.W = np.sqrt(w2, out=w2)
        self.a12 = np.negative(ux)
        self.a12 *= uy
        self.m = self.a11 * self.uxx + 2.0 * self.a12 * self.uxy + self.a22 * self.uyy
        if H.value is None:
            self.load = tau * n * H.at_interior(u.grid)
        else:
            self.load = np.broadcast_to(tau * n * H.value, (u.grid.n_interior,))
        # q = m - load W**3 in the buffer of W**3 (W * W * W rounds differently)
        self.q = self.W**3
        self.q *= self.load
        np.subtract(self.m, self.q, out=self.q)

    @classmethod
    def zero(cls, grid) -> "Evaluation":
        """u = 0 with zero trace and no load, whose Jacobian is J(0)."""
        return cls(ScalarField.zeros(grid), _FLAT)

    def _coefficients(self) -> tuple:
        """The coefficients of Q'(u) in STENCILS order: a11, a22, 2 a12,
        b_x, b_y."""
        px, py = self.p[:, 0], self.p[:, 1]
        load_slope = 3.0 * self.load * self.W
        bx = 2.0 * (px * self.uyy - py * self.uxy) - load_slope * px
        by = 2.0 * (py * self.uxx - px * self.uxy) - load_slope * py
        return self.a11, self.a22, 2.0 * self.a12, bx, by

    def jacobian(self) -> sps.csr_matrix:
        """J(u), the matrix of Q'(u) on the interior values, on the grid's
        union pattern (`Grid.pattern`)."""
        return self.u.grid.pattern().combine(*self._coefficients())

    def derivative(self, v: ScalarField) -> np.ndarray:
        """Q'(u) v at the interior nodes, v's foot values included."""
        stencils = self.u.grid.stencils(v.values, v.feet)
        return sum(c * s for c, s in zip(self._coefficients(), stencils))

    def residual_norms(self) -> tuple[float, float]:
        """(core, collar) sup norms of q; core excludes the 2h boundary collar."""
        core = self.u.grid.core_mask
        r_core = float(np.max(np.abs(self.q[core]))) if core.any() else 0.0
        r_collar = float(np.max(np.abs(self.q[~core]))) if (~core).any() else 0.0
        return r_core, r_collar


def apply_M(u: ScalarField) -> np.ndarray:
    """Coefficient-form evaluation of M u at interior nodes."""
    return Evaluation(u, _FLAT).m
