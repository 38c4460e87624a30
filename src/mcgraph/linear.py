"""Linear subproblems of the continuation solve: frozen systems and Newton
corrections on a held LU.

Linearizing about a slope field v freezes the coefficients of the quasilinear
operator: with p = grad(v) and W_v^2 = 1 + |p|^2 the frozen system is

    (W_v^2 - v_x^2) u_xx - 2 v_x v_y u_xy + (W_v^2 - v_y^2) u_yy
        = tau * n * H * W_v^3   in the interior,
    u = tau * phi               on the boundary feet,

for u (`assemble`).  The solver's damped Newton steps in correction form
solve J(u) delta = -Q(u) with delta = 0 at the feet (`correction_system`);
the Jacobian adds to the frozen operator at u the slope derivative of its
coefficients and of the load W^3:

    J = A(u) + diag(b_x) Gx + diag(b_y) Gy,
    b_x = 2 (p_x u_yy - p_y u_xy) - 3 tau n H W p_x,
    b_y = 2 (p_y u_xx - p_x u_xy) - 3 tau n H W p_y.

Each is one combination of the grid's stacked stencils over their fixed union
pattern (`Grid.pattern`), so the matrix action coincides exactly with the
nodal evaluation; boundary values of a frozen system enter the right-hand
side through the stacked foot block.

Solves factor rarely (the chord idea, Kelley 1995).  A `HeldFactor` keeps the
most recent sparse LU (`DissectedLU`).  Every LU is SuperLU's factorization
of P A P^T in the given column order, where P is the grid's nested-dissection
order of the interior nodes (`Grid.dissection`, George 1973): median lattice
lines split the nodes recursively down to parts of 64, and each line comes
after the two parts it separates.  On the stencil pattern the fill grows like
N log N, and the factorization and its triangular solves are faster than
with minimum degree on A^T + A (`scripts/bench_lu_ordering.py` measures
both).  The factor's `solve` applies P on both sides.  A later system first
runs one restart cycle of GMRES preconditioned by that LU, from the start
x0 = LU^-1 b, and keeps the answer when its backward error is within a tenth
of the gate.  Otherwise the stale factor is dropped and the system is
factorized afresh.  When the factorization itself fails, the same GMRES runs
without a preconditioner.  Every returned solution passes the backward-error gate
|Ax - b| / (|A| |x| + |b|) <= 1e-10 in the infinity norm; in correction form
that bounds the error relative to the small step and defect, not to u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .grid import STENCILS, Grid, ScalarField
from .operators import DIMENSION, Evaluation

_RELRES_TOL = 1e-10
# GMRES aims at a residual 1e-14 of the backward-error denominator at its
# start, near what a direct solve leaves.  Its answer is kept at backward
# error 1e-11, a tenth of the gate.
_KRYLOV_RTOL = 1e-14
_REUSE_TOL = 1e-11
_RESTART = 30
_FALLBACK_CYCLES = 100       # restart cycles without a preconditioner


class SolverError(RuntimeError):
    """Linear subproblem failed: singular factorization or unacceptable error."""


class HeldFactor:
    """The most recent sparse LU of a sequence of frozen systems, reused as a
    GMRES preconditioner, and the counts of the work done for the sequence.

    The caller owns it and drops it when the sequence ends; `solve` with no
    held factor uses a fresh one.  `fill_nnz` is the largest fill among the
    factorizations that succeeded, 0 when none did: the entries of L and U
    in SuperLU's supernodal storage, explicit zeros included.  (Reading
    SuperLU's L and U as matrices to count nnz(L) + nnz(U) would copy both
    factors and keep the copies as long as the factor.)
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.krylov_iterations = 0
        self.fill_nnz = 0


class DissectedLU:
    """Sparse LU of P A P^T for the nested-dissection order P of the
    interior nodes, factorized by SuperLU in that order; `solve` applies P
    to both sides.  Raises RuntimeError when SuperLU finds A singular."""

    def __init__(self, A: sps.spmatrix, order: np.ndarray):
        self.order = order
        # through the module attribute, so that a wrapper of splu sees the call
        self.superlu = spla.splu(A.tocsr()[order][:, order].tocsc(), permc_spec="NATURAL")

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self.superlu.solve(b[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x


@dataclass
class LinearSystem:
    """Assembled system A x = b, frozen or a Newton correction, with its boundary data."""

    A: sps.csr_matrix
    b: np.ndarray
    grid: Grid
    feet_values: np.ndarray          # Dirichlet trace at feet (already scaled)
    meta: dict = field(default_factory=dict)


def assemble(v: ScalarField, H, data, n: int = DIMENSION,
             tau: float = 1.0) -> LinearSystem:
    """Assemble the step equations about slope field v with trace tau * phi.

    `data` is a BoundaryData; its trace at the grid feet is scaled by tau
    here, matching the scaled curvature load on the right-hand side.
    """
    grid = v.grid
    ev = Evaluation(v, H, n, tau)
    coefficients = (ev.a11, ev.a22, 2.0 * ev.a12)
    A = grid.pattern().combine(*coefficients)
    feet_vals = (tau * np.asarray(data.trace(grid.foot_xy, grid.foot_s), dtype=float)
                 if grid.n_feet else np.zeros(0))
    # the feet enter through the same coefficients as the interior stencils
    on_feet = (grid.operators()[1] @ feet_vals).reshape(len(STENCILS), -1)
    b = ev.load * ev.W**3 - sum(c * f for c, f in zip(coefficients, on_feet))
    meta = {"tau": float(tau), "n": int(n), "nnz": int(A.nnz)}
    return LinearSystem(A=A, b=b, grid=grid, feet_values=feet_vals, meta=meta)


def correction_system(ev: Evaluation) -> LinearSystem:
    """Newton correction J(u) delta = -Q(u), delta = 0 at the feet, for the
    evaluation ev of the iterate u."""
    grid = ev.u.grid
    px, py = ev.p[:, 0], ev.p[:, 1]
    load_slope = 3.0 * ev.load * ev.W
    bx = 2.0 * (px * ev.uyy - py * ev.uxy) - load_slope * px
    by = 2.0 * (py * ev.uxx - px * ev.uxy) - load_slope * py
    J = grid.pattern().combine(ev.a11, ev.a22, 2.0 * ev.a12, bx, by)
    return LinearSystem(A=J, b=-ev.q, grid=grid, feet_values=np.zeros(grid.n_feet))


def solve(system: LinearSystem, held: Optional[HeldFactor] = None) -> ScalarField:
    """Sparse solve with backward-error acceptance, reusing `held`'s LU.

    Raises SolverError when the system has non-finite entries or when no path
    reaches the backward-error tolerance.  `system.meta["relres"]` holds the
    backward error of the answer, also when the gate rejects it.
    """
    A, b = system.A, system.b
    if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(b))):
        raise SolverError("assembled system has non-finite entries")
    held = HeldFactor() if held is None else held
    norm_A = spla.norm(A, np.inf)
    x = None
    if held.lu is not None:
        x = _gmres(A, b, norm_A, held, held.lu.solve, cycles=1)
        if not _backward_error(A, b, x, norm_A) <= _REUSE_TOL:
            x = None
    if x is None:
        held.lu = None          # drop the stale factor first: two never share memory
        held.factorizations += 1
        try:
            held.lu = DissectedLU(A, system.grid.dissection)
            held.fill_nnz = max(held.fill_nnz, held.lu.superlu.nnz)
            x = held.lu.solve(b)
        except RuntimeError:    # SuperLU refuses an exactly singular matrix
            pass
        if x is None or not np.all(np.isfinite(x)):
            held.lu = None
            x = _gmres(A, b, norm_A, held, None, cycles=_FALLBACK_CYCLES)
    relres = _backward_error(A, b, x, norm_A)
    system.meta["relres"] = relres
    if not relres <= _RELRES_TOL:      # a NaN backward error fails too
        raise SolverError(f"backward error {relres:.2e} exceeds {_RELRES_TOL:g}")
    return ScalarField(system.grid, x, system.feet_values.copy())


def _backward_error(A, b, x, norm_A) -> float:
    """|Ax - b| / (|A| |x| + |b|) in the infinity norm."""
    denom = norm_A * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    return float(np.linalg.norm(A @ x - b, np.inf) / denom) if denom > 0 else 0.0


def _gmres(A, b, norm_A, held: HeldFactor, precondition, cycles: int) -> np.ndarray:
    """Restarted GMRES(30) preconditioned by `precondition` (None: unpreconditioned),
    from x0 = precondition(b) or zero, for at most `cycles` restart cycles.

    It stops when the residual is _KRYLOV_RTOL of the backward-error
    denominator at x0; its inner iterations are added to `held`.
    """
    x0 = precondition(b) if precondition is not None else np.zeros_like(b)
    atol = _KRYLOV_RTOL * (norm_A * np.linalg.norm(x0, np.inf) + np.linalg.norm(b, np.inf))
    M = (spla.LinearOperator(A.shape, matvec=precondition, dtype=float)
         if precondition is not None else None)

    def count(_):
        held.krylov_iterations += 1

    x, _ = spla.gmres(A, b, x0=x0, rtol=0.0, atol=atol, restart=_RESTART,
                      maxiter=cycles, M=M, callback=count, callback_type="pr_norm")
    return x
