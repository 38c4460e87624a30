"""Linear subproblems of the continuation solve: frozen systems and Newton
corrections on the solve's LU.

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

Each is one combination of the grid's stencils over their fixed union
pattern (`Grid.pattern`): the 9-point rows of the nodes whose neighbours are
all interior are written from the coefficients directly, the other rows by
one small sparse product, so the matrix action coincides exactly with the
nodal evaluation.  Boundary values of a frozen system enter the right-hand
side through the foot block of the grid's edge-node rows.

The systems of one solve share one holder (`Factor`) of one sparse LU
(`grid.SparseLU`) and follow one rule (the chord idea, Kelley 1995).  A
holder starts on the grid's LU of J(0) = Dxx + Dyy (`Grid.laplacian_lu`),
the first Newton system of every zero-data solve whatever H, made once per
grid.  One cycle of GMRES(30) right-preconditioned by the held LU runs from
x0 = LU^-1 b, and its answer is kept when its backward error is within a
tenth of the gate.  Otherwise the holder drops its LU, the system is
factorized afresh, and the same GMRES runs on the new LU, the holder's from
then on.  Right preconditioning (Saad & Schultz 1986; Saad 2003, section
9.3) makes GMRES minimize the true residual |b - A x|_2, so it has one aim,
the keep test itself: it stops once that residual is within 1e-11, a tenth
of the gate, of |A| |x0| + |b|; the 2-norm bounds the infinity norm that the
backward error reads.

The LU only preconditions: GMRES, the keep test and the gate run in float64
and fix the answer's accuracy, so the factor is made in float32, its values
in half the memory (GMRES-based iterative refinement with a low-precision
LU, Carson & Higham 2017, 2018).  On the matrix it factorized, x0 is then
good to float32's rounding, and GMRES takes an iteration or two to reach the
keep test.  A fresh float32 factorization falls back once to a float64 one,
which the holder then keeps, when the cast has an entry beyond float32's
range or one that flushes to zero and leaves the matrix singular, when
SuperLU refuses the cast matrix, or when the answer misses the gate; only
the float64 factorization's failure, or J(0)'s, raises.  GMRES's inner
products and norms are summed by numpy itself, not by BLAS, whose threaded
kernels split a sum by thread count: the answers do not depend on the
number of BLAS threads.

Every LU is SuperLU's factorization, in float32 or float64, of a matrix
with its exact zeros dropped: the union pattern stores the entries a matrix
lacks as zeros (J(0) at u = 0 has no cross or slope terms), and SuperLU
would fill them.  Each kind of matrix has its own order.  J(0) is left with
the five-point pattern, and SuperLU orders it by multiple minimum degree on
A^T + A (Liu 1985), without relaxed supernodes: its LU stores about half
the entries of a dissection-ordered one, and every Krylov iteration of
every solve reads it twice.  A Jacobian the solve factorizes itself has
nine-point rows, and its LU is that of P A P^T in the given column order,
where P is the grid's nested-dissection order of the interior nodes
(`Grid.dissection`, George 1973): median lattice lines split the nodes
recursively down to parts of 64, and each line comes after the two parts
it separates.  On the stencil pattern the fill grows like N log N; minimum
degree there stores more from h = 1/128 on, factorizes 1.5-1.8 times as
slowly at 1/128 and 1/256, and costs the sampled solves more
factorizations (CHANGES.md).  The factor's `solve` applies P on both
sides.

Every returned solution passes the backward-error gate
|Ax - b| / (|A| |x| + |b|) <= 1e-10 in the infinity norm; in correction form
that bounds the error relative to the small step and defect, not to u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sps
from scipy.linalg.lapack import dlartg

from .grid import STENCILS, Grid, ScalarField, SparseLU
from .operators import DIMENSION, Evaluation

_RELRES_TOL = 1e-10
# a reused LU's answer is kept at backward error 1e-11, a tenth of the gate;
# GMRES aims at the same bound
_REUSE_TOL = 1e-11
_RESTART = 30


class SolverError(RuntimeError):
    """Linear subproblem failed: non-finite entries, a factorization SuperLU
    refused, or an answer beyond the backward-error gate."""


@dataclass
class Factor:
    """The LU the systems of one solve, all on one grid, are solved with, and
    the work done for them.  It starts on the grid's J(0) LU, read at the
    first system unless given an `lu`; `lu` is None once a failure dropped
    it.  `factorizations` counts the LUs it used, J(0)'s once and each one
    it made, refused ones included; `float64_factorizations` the float64
    fallbacks among them.  `fill_nnz` is the largest fill of the LUs it
    solved with: the entries of L and U in SuperLU's supernodal storage,
    explicit zeros included (reading L and U as matrices would copy them)."""

    lu: Optional[SparseLU] = None
    factorizations: int = 0
    float64_factorizations: int = 0
    krylov_iterations: int = 0
    fill_nnz: int = 0


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
    feet_vals = tau * np.asarray(data.trace(grid.foot_xy), dtype=float)
    # the feet enter through the same coefficients as the interior stencils,
    # on the edge nodes' rows alone
    edge, _, D_feet = grid.operators()
    on_feet = np.zeros((len(STENCILS), grid.n_interior))
    on_feet[:, edge] = (D_feet @ feet_vals).reshape(len(STENCILS), -1)
    b = ev.load * ev.W**3 - sum(c * f for c, f in zip(coefficients, on_feet))
    return LinearSystem(A=A, b=b, grid=grid, feet_values=feet_vals)


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


def solve(system: LinearSystem, factor: Optional[Factor] = None) -> ScalarField:
    """Sparse solve with backward-error acceptance on the holder's LU (a
    fresh holder unless one is given) under the module's one reuse rule,
    the work added to the holder.  Raises SolverError when the system has
    non-finite entries, when SuperLU refuses J(0), or when the float64
    fallback is refused or misses the gate; the last two leave the holder
    without an LU.  `system.meta["relres"]` holds the answer's backward
    error, also when the gate rejects it."""
    A, b, grid = system.A, system.b, system.grid
    if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(b))):
        raise SolverError("assembled system has non-finite entries")
    factor = Factor() if factor is None else factor
    if factor.lu is None and factor.factorizations == 0:     # the holder's first system
        factor.factorizations = 1
        try:
            factor.lu = grid.laplacian_lu
        except RuntimeError as exc:     # SuperLU refuses J(0)
            raise SolverError(f"factorization failed: {exc}") from None
    norm_A = _norm_inf(A)
    if factor.lu is not None:
        x = _gmres(A, b, norm_A, factor, factor.lu.solve)
        relres = _backward_error(A, b, x, norm_A)
        if not relres <= _REUSE_TOL:
            factor.lu = None            # a stale LU of the solve's own goes before the next
    if factor.lu is None:
        try:
            x, relres = _factorized_solve(A, b, norm_A, grid, factor, np.float32)
        except SolverError:             # the cast or SuperLU refuses the float32 matrix
            relres = np.nan
        if not relres <= _RELRES_TOL:   # once more in float64, without the float32 factor
            factor.lu = None
            factor.float64_factorizations += 1
            x, relres = _factorized_solve(A, b, norm_A, grid, factor, np.float64)
    factor.fill_nnz = max(factor.fill_nnz, factor.lu.superlu.nnz)
    system.meta["relres"] = relres
    if not relres <= _RELRES_TOL:      # a NaN backward error fails too
        factor.lu = None
        raise SolverError(f"backward error {relres:.2e} exceeds {_RELRES_TOL:g}")
    return ScalarField(grid, x, system.feet_values.copy())


def _factorized_solve(A, b, norm_A, grid: Grid, factor: Factor, dtype):
    """Make the holder's LU of A in `dtype` and run GMRES on it: the answer
    and its backward error.  Raises SolverError when the factorization fails."""
    factor.factorizations += 1
    try:
        factor.lu = SparseLU(A, grid.dissection, dtype)
    except RuntimeError as exc:     # a cast beyond the dtype's range, or a singular matrix
        raise SolverError(f"factorization failed: {exc}") from None
    x = _gmres(A, b, norm_A, factor, factor.lu.solve)
    return x, _backward_error(A, b, x, norm_A)


def _norm_inf(A: sps.csr_matrix) -> float:
    """|A| in the infinity norm: scipy's row sums of |A| (`np.add.reduceat`
    over the non-empty rows), without building |A| as a matrix."""
    starts = A.indptr[np.flatnonzero(np.diff(A.indptr))]
    return float(np.max(np.add.reduceat(np.abs(A.data), starts), initial=0.0))


def _backward_error(A, b, x, norm_A) -> float:
    """|Ax - b| / (|A| |x| + |b|) in the infinity norm."""
    denom = norm_A * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    return float(np.linalg.norm(A @ x - b, np.inf) / denom) if denom != 0 else 0.0


def _gmres(A, b, norm_A, factor: Factor, precondition) -> np.ndarray:
    """One cycle of GMRES(30) right-preconditioned by `precondition`, from
    x0 = precondition(b).

    GMRES on A M (Saad & Schultz 1986; Saad 2003, section 9.3) minimizes
    the true residual |b - A x_k|_2 over x0 + M K_k, and the Givens
    residual is that residual's norm.  It stops once that is within
    _REUSE_TOL of |A| |x0| + |b| in the infinity norm, which the 2-norm
    bounds, or after 30 iterations; they are added to `factor`'s.  Each
    iteration stores z_j = M v_j and applies A to it, and the answer is
    x0 + Z y: k iterations cost k + 1 preconditioner solves.  Modified
    Gram-Schmidt and LAPACK `lartg` Givens rotations build the
    least-squares problem.  Its inner products and norms are summed by
    `np.einsum`, which never calls BLAS, so they round alike whatever the
    number of BLAS threads.  When `precondition` solves with the matrix's
    own float64 LU the residual at x0 is rounding and x0 is returned as it
    is.
    """
    x = precondition(b)
    atol = _REUSE_TOL * (norm_A * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf))
    r = b - A @ x
    beta = np.sqrt(np.einsum("i,i->", r, r))
    if not beta > atol:                  # also a non-finite x0, which the keep test rejects
        return x
    eps = np.finfo(float).eps
    restart = min(_RESTART, len(b))
    v = np.empty((restart + 1, len(b)))
    z = np.empty((restart, len(b)))
    h = np.zeros((restart, restart + 1))     # the Hessenberg matrix, transposed
    givens = np.zeros((restart, 2))
    v[0] = r / beta
    S = np.zeros(restart + 1)
    S[0] = beta
    for col in range(restart):
        z[col] = precondition(v[col])
        w = A @ z[col]
        h0 = np.sqrt(np.einsum("i,i->", w, w))
        for k in range(col + 1):
            tmp = np.einsum("i,i->", v[k], w)
            h[col, k] = tmp
            w -= tmp * v[k]
        h1 = np.sqrt(np.einsum("i,i->", w, w))
        h[col, col + 1] = h1
        v[col + 1] = w
        breakdown = h1 <= eps * h0       # the Krylov space holds the exact answer
        if breakdown:
            h[col, col + 1] = 0
        else:
            v[col + 1] *= 1 / h1
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, mag = dlartg(h[col, col], h[col, col + 1])
        givens[col] = c, s
        h[col, col], h[col, col + 1] = mag, 0
        tmp = -s * S[col]
        S[col], S[col + 1] = c * S[col], tmp
        factor.krylov_iterations += 1
        if np.abs(tmp) <= atol or breakdown:
            break
    # back substitution in the triangular h, a zero pivot dropped
    if h[col, col] == 0:
        S[col] = 0
    y = S[:col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x += np.einsum("k,ki->i", y, z[:col + 1])
    return x
