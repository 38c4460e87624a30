"""Discrete minimal-surface-type operators on embedded-boundary grids.

For a field u with slope p = (u_x, u_y) and W = sqrt(1 + |p|^2), the
quasilinear operator is

    M u = (W^2 - u_x^2) u_xx - 2 u_x u_y u_xy + (W^2 - u_y^2) u_yy,

equal to W^3 div(p / W).  Two algebraically equivalent evaluations are
provided: the coefficient form above and the expanded form
W^2 (u_xx + u_yy) - <Hess(u) p, p>.  They agree to rounding and the pair is
kept as a cross-check on the tensor algebra.

The defect against a prescribed curvature field H at load factor tau is

    Q u = M u - tau * n * H * W^3,

so Q u = 0 is the equation in nondivergence form and Q applied to an exact
solution measures pure truncation error.
"""

from __future__ import annotations

import numpy as np

from .geometry import PrescribedCurvature
from .grid import STENCILS, ScalarField

DIMENSION = 2   # graphs over planar domains; n enters bounds explicitly
_FLAT = PrescribedCurvature.constant(0.0)


def _stencils(u: ScalarField) -> np.ndarray:
    """(5, n_interior) array whose row k applies STENCILS[k] to u, ghosts
    eliminated through the closures: one mat-vec pair."""
    u.validate()
    D, D_feet = u.grid.operators()
    feet = u.feet if u.feet is not None else np.zeros(u.grid.n_feet)
    out = D @ u.values
    out += D_feet @ feet
    return out.reshape(len(STENCILS), -1)


def gradient(u: ScalarField) -> np.ndarray:
    """(n_interior, 2) centered slopes."""
    return _stencils(u)[3:].T


def foot_slopes(u: ScalarField) -> np.ndarray:
    """One-sided slopes |u_owner - phi_foot| / (theta h), one per boundary link."""
    grid = u.grid
    if grid.n_feet == 0 or u.feet is None:
        return np.zeros(0)
    return np.abs(u.values[grid.foot_owner] - u.feet) / (grid.foot_theta * grid.h)


def boundary_slope(u: ScalarField) -> float:
    """Largest one-sided slope along the boundary links only.

    This approximates sup over the boundary of the normal derivative, the
    quantity the boundary-gradient estimate bounds; the interior slopes are
    deliberately excluded.
    """
    s = foot_slopes(u)
    return float(np.max(s)) if len(s) else 0.0


def hessian(u: ScalarField) -> np.ndarray:
    """(n_interior, 2, 2) second differences; cross term one-sided at flagged nodes."""
    uxx, uyy, uxy = _stencils(u)[:3]
    H = np.empty((u.grid.n_interior, 2, 2))
    H[:, 0, 0] = uxx
    H[:, 1, 1] = uyy
    H[:, 0, 1] = H[:, 1, 0] = uxy
    return H


def slope_factor(p: np.ndarray) -> np.ndarray:
    """W = sqrt(1 + |p|^2) for slopes p of shape (..., 2)."""
    return np.sqrt(1.0 + np.sum(np.asarray(p) ** 2, axis=-1))


def coefficient_matrix(p) -> tuple[np.ndarray, tuple[float, float]]:
    """A(p) = W^2 I - p p^T with its exact eigenvalue pair (1, 1 + |p|^2).

    The small eigenvalue 1 belongs to the direction of p, the large one
    1 + |p|^2 to the orthogonal direction, so the ellipticity ratio is W^2.
    """
    p = np.asarray(p, dtype=float)
    squeeze = p.ndim == 1
    p = np.atleast_2d(p)
    w2 = 1.0 + np.sum(p**2, axis=-1)
    A = w2[:, None, None] * np.eye(2) - p[:, :, None] * p[:, None, :]
    lam = (1.0, float(w2[0]) if squeeze else w2)
    if squeeze:
        return A[0], lam
    return A, (np.ones_like(w2), w2)


class Evaluation:
    """One field u at load tau, evaluated once; the solver's defect norms,
    slope guard and Newton Jacobian all read from it.

    Arrays are per interior node: p holds the slopes (n_interior, 2) and
    W = sqrt(1 + |p|^2); uxx, uyy, uxy the second differences; a11, a22, a12
    the coefficients of M; load the curvature load tau n H; m = M u and
    q = Q u = m - load W^3.
    """

    def __init__(self, u: ScalarField, H, n: int = DIMENSION, tau: float = 1.0):
        self.u = u
        s = _stencils(u)
        self.uxx, self.uyy, self.uxy = s[:3]
        self.p = p = s[3:].T
        w2 = 1.0 + np.sum(p**2, axis=-1)
        self.W = np.sqrt(w2)
        self.a11 = w2 - p[:, 0] ** 2
        self.a22 = w2 - p[:, 1] ** 2
        self.a12 = -p[:, 0] * p[:, 1]
        self.m = self.a11 * self.uxx + 2.0 * self.a12 * self.uxy + self.a22 * self.uyy
        self.load = tau * n * np.asarray(H(u.grid.interior_xy), dtype=float)
        self.q = self.m - self.load * self.W**3

    def residual_norms(self) -> tuple[float, float]:
        """(core, collar) sup norms of q; core excludes the 2h boundary collar."""
        core = self.u.grid.core_mask
        r_core = float(np.max(np.abs(self.q[core]))) if core.any() else 0.0
        r_collar = float(np.max(np.abs(self.q[~core]))) if (~core).any() else 0.0
        return r_core, r_collar


def apply_M(u: ScalarField) -> np.ndarray:
    """Coefficient-form evaluation of M u at interior nodes."""
    return Evaluation(u, _FLAT).m


def apply_M_tensor(u: ScalarField) -> np.ndarray:
    """Expanded-form evaluation W^2 tr(Hess) - <Hess p, p>; cross-check of apply_M."""
    p = gradient(u)
    Hs = hessian(u)
    w2 = 1.0 + np.sum(p**2, axis=-1)
    lap = Hs[:, 0, 0] + Hs[:, 1, 1]
    Hp = np.einsum("nij,nj->ni", Hs, p)
    return w2 * lap - np.einsum("ni,ni->n", Hp, p)


def apply_Q(u: ScalarField, H, n: int = DIMENSION, tau: float = 1.0) -> np.ndarray:
    """Defect Q u = M u - tau n H W^3 at interior nodes, for a PrescribedCurvature H."""
    return Evaluation(u, H, n, tau).q


def residual_norms(u: ScalarField, H, n: int = DIMENSION, tau: float = 1.0):
    """(core, collar) sup norms of Q u; core excludes the 2h boundary collar."""
    return Evaluation(u, H, n, tau).residual_norms()


def operator_agreement(u: ScalarField) -> float:
    """Sup difference between the two M evaluations (rounding-level for valid fields)."""
    return float(np.max(np.abs(apply_M(u) - apply_M_tensor(u))))
