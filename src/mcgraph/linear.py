"""The linear systems of one solve, on one LU: the held factor and GMRES
on a given matrix.

The solver's Newton steps solve J(u) delta = -Q(u) (`operators.Evaluation`)
with `solve`, which takes the matrix and the right-hand side and returns
the answer with its backward error.

The systems of one solve share one holder (`Factor`) of one sparse LU
(`grid.SparseLU`) and follow one rule (the chord idea, Kelley 1995).  A
holder starts on its grid's LU of J(0) = Dxx + Dyy (`Grid.laplacian_lu`),
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
would fill them.  Every LU has one order, SuperLU's minimum degree
(`grid.SparseLU`).  J(0) is left with the five-point pattern, on which that
order stores about half the entries of SuperLU's default one, and every
Krylov iteration of every solve reads it twice.  Since the solver starts
from the harmonic lift of the data, only near-critical and failing solves
factorize a Jacobian of their own.

Every returned solution passes the backward-error gate
|Ax - b| / (|A| |x| + |b|) <= 1e-10 in the infinity norm; in correction form
that bounds the error relative to the small step and defect, not to u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sps
from scipy.linalg.lapack import dlartg

from .grid import Grid, SparseLU

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
    the work done for them.  It starts on its grid's J(0) LU, read at the
    first system unless given an `lu`; `lu` is None once a failure dropped
    it.  `factorizations` counts the LUs it used, J(0)'s once and each one
    it made, refused ones included; `float64_factorizations` the float64
    fallbacks among them.  `fill_nnz` is the largest fill of the LUs it
    solved with: the entries of L and U in SuperLU's supernodal storage,
    explicit zeros included (reading L and U as matrices would copy them)."""

    grid: Optional[Grid] = None
    lu: Optional[SparseLU] = None
    factorizations: int = 0
    float64_factorizations: int = 0
    krylov_iterations: int = 0
    fill_nnz: int = 0


def solve(A: sps.csr_matrix, b: np.ndarray, factor: Factor) -> tuple[np.ndarray, float]:
    """The answer to A x = b on the holder's LU under the module's one reuse
    rule, and its backward error, the work added to the holder.  Raises
    SolverError when the system has non-finite entries, when SuperLU
    refuses J(0), or when the float64 fallback is refused or misses the
    gate; the last two leave the holder without an LU."""
    if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(b))):
        raise SolverError("system has non-finite entries")
    if factor.lu is None and factor.factorizations == 0:     # the holder's first system
        factor.factorizations = 1
        try:
            factor.lu = factor.grid.laplacian_lu
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
            x, relres = _factorized_solve(A, b, norm_A, factor, np.float32)
        except SolverError:             # the cast or SuperLU refuses the float32 matrix
            relres = np.nan
        if not relres <= _RELRES_TOL:   # once more in float64, without the float32 factor
            factor.lu = None
            factor.float64_factorizations += 1
            x, relres = _factorized_solve(A, b, norm_A, factor, np.float64)
    factor.fill_nnz = max(factor.fill_nnz, factor.lu.superlu.nnz)
    if not relres <= _RELRES_TOL:      # a NaN backward error fails too
        factor.lu = None
        raise SolverError(f"backward error {relres:.2e} exceeds {_RELRES_TOL:g}")
    return x, relres


def _factorized_solve(A, b, norm_A, factor: Factor, dtype):
    """Make the holder's LU of A in `dtype` and run GMRES on it: the answer
    and its backward error.  Raises SolverError when the factorization fails."""
    factor.factorizations += 1
    try:
        factor.lu = SparseLU(A, dtype)
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
