"""Frozen-coefficient linear subproblems.

Linearizing about a slope field v freezes the coefficients of the quasilinear
operator: with p = grad(v) and W_v^2 = 1 + |p|^2 the step solves

    (W_v^2 - v_x^2) u_xx - 2 v_x v_y u_xy + (W_v^2 - v_y^2) u_yy
        = tau * n * H * W_v^3   in the interior,
    u = tau * phi               on the boundary feet,

for the new iterate u.  Assembly reuses the grid's cached stencil operators,
so the matrix action coincides exactly with the nodal evaluation of the same
frozen operator; boundary values enter the right-hand side through the foot
blocks.  Solves go through a sparse LU factorization with a backward-error
check, plus an iterative fallback when the factorization itself fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .grid import Grid, ScalarField
from .operators import gradient, DIMENSION, _curvature_values

_RELRES_TOL = 1e-10
_COND_LIMIT = 1e14
# minimum degree on the pattern of A^T + A, which SuperLU forms itself; on
# the nearly symmetric stencil pattern this roughly halves the LU fill of
# the default COLAMD
_ORDERING = "MMD_AT_PLUS_A"


class SolverError(RuntimeError):
    """Linear subproblem failed: singular factorization or unacceptable error."""


@dataclass
class LinearSystem:
    """Assembled frozen-coefficient system A u = b with its boundary data."""

    A: sps.csr_matrix
    b: np.ndarray
    grid: Grid
    feet_values: np.ndarray          # Dirichlet trace at feet (already scaled)
    meta: dict = field(default_factory=dict)

    def mmatrix_report(self) -> dict:
        """Sign-structure diagnostics: off-diagonal positivity and row dominance.

        The frozen operator has a maximum principle; its discretization is an
        M-matrix when off-diagonal entries are nonpositive (after negating the
        elliptic operator) and rows are weakly diagonally dominant.  Cross
        terms break this in general, so violations are reported rather than
        repaired; no artificial diffusion is added.
        """
        A = self.A.tocoo()
        off = A.row != A.col
        # convention: assembled operator has negative diagonal (like -Laplace
        # after sign flip); check the Z-pattern of -A
        diag = self.A.diagonal()
        sgn = -1.0 if np.median(diag) < 0 else 1.0
        M = sgn * self.A.tocoo()
        off_vals = M.data[M.row != M.col]
        bad_off = off_vals > 1e-14
        worst_off = float(off_vals[bad_off].max()) if bad_off.any() else 0.0
        rowsum = np.asarray(abs(sgn * self.A).sum(axis=1)).ravel()
        mdiag = sgn * diag
        slack = 2.0 * mdiag - rowsum       # >= -tol for weak dominance
        bad_dom = slack < -1e-12 * np.maximum(1.0, np.abs(mdiag))
        return {
            "is_m_matrix": bool(not bad_off.any() and not bad_dom.any()),
            "offdiag_violations": int(bad_off.sum()),
            "worst_offdiag": worst_off,
            "dominance_violations": int(bad_dom.sum()),
            "worst_dominance_deficit": float(-slack.min()) if bad_dom.any() else 0.0,
        }


def assemble(v: ScalarField, H, data, n: int = DIMENSION,
             tau: float = 1.0) -> LinearSystem:
    """Assemble the step equations about slope field v with trace tau * phi.

    `data` is a BoundaryData; its trace at the grid feet is scaled by tau
    here, matching the scaled curvature load on the right-hand side.
    """
    grid = v.grid
    ops = grid.operators()
    p = gradient(v)
    w2 = 1.0 + np.sum(p**2, axis=-1)
    a11 = w2 - p[:, 0] ** 2
    a22 = w2 - p[:, 1] ** 2
    a12 = -p[:, 0] * p[:, 1]

    def dscale(c, pair):
        Di, Df = pair
        D = sps.diags(c)
        return D @ Di, D @ Df

    Ai_xx, Af_xx = dscale(a11, ops["Dxx"])
    Ai_yy, Af_yy = dscale(a22, ops["Dyy"])
    Ai_xy, Af_xy = dscale(2.0 * a12, ops["Dxy"])
    A = (Ai_xx + Ai_yy + Ai_xy).tocsr()
    Af = (Af_xx + Af_yy + Af_xy).tocsr()

    feet_vals = (tau * np.asarray(data.trace(grid.foot_xy, grid.foot_s), dtype=float)
                 if grid.n_feet else np.zeros(0))
    hv = _curvature_values(H, grid.interior_xy)
    b = tau * n * hv * w2**1.5 - Af @ feet_vals
    A.sort_indices()
    meta = {"tau": float(tau), "n": int(n),
            "max_w2": float(np.max(w2)), "nnz": int(A.nnz)}
    return LinearSystem(A=A, b=b, grid=grid, feet_values=feet_vals, meta=meta)


def solve(system: LinearSystem, check_conditioning: bool = False) -> ScalarField:
    """Direct sparse solve with backward-error acceptance.

    Raises SolverError when the system has non-finite entries, when the
    factorization fails and the iterative fallback cannot reach the
    backward-error tolerance, or when a requested condition estimate exceeds
    1e14.
    """
    A, b = system.A, system.b
    if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(b))):
        raise SolverError("assembled system has non-finite entries")
    x = None
    try:
        lu = spla.splu(A.tocsc(), permc_spec=_ORDERING)
        x = lu.solve(b)
    except RuntimeError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        x, info = spla.lgmres(A, b, rtol=1e-12, atol=0.0, maxiter=2000)
        if info != 0:
            raise SolverError(f"factorization failed and lgmres stalled (info={info})")
    norm_A = spla.norm(A, np.inf) if sps.issparse(A) else np.linalg.norm(A, np.inf)
    denom = norm_A * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    relres = float(np.linalg.norm(A @ x - b, np.inf) / denom) if denom > 0 else 0.0
    if not relres <= _RELRES_TOL:      # a NaN backward error fails too
        raise SolverError(f"backward error {relres:.2e} exceeds {_RELRES_TOL:g}")
    if check_conditioning:
        cond = condition_estimate(system)
        if cond > _COND_LIMIT:
            raise SolverError(f"condition estimate {cond:.2e} exceeds {_COND_LIMIT:g}")
    system.meta["relres"] = relres
    return ScalarField(system.grid, x, system.feet_values.copy())


def condition_estimate(system: LinearSystem) -> float:
    """One-norm condition estimate kappa_1(A) via the Hager bound."""
    A = system.A.tocsc()
    lu = spla.splu(A, permc_spec=_ORDERING)
    n = A.shape[0]
    inv_op = spla.LinearOperator((n, n), matvec=lu.solve,
                                 rmatvec=lambda y: lu.solve(y, trans="T"))
    est = spla.onenormest(inv_op) * spla.onenormest(A)
    system.meta["cond_estimate"] = float(est)
    return float(est)
