"""Embedded-boundary Cartesian grids and nodal scalar fields.

Nodes sit at integer multiples of the spacing h and are classified interior
(signed distance > 0), ghost (exterior but axis-adjacent to an interior node),
or exterior.  Each interior-to-exterior axis link stores a boundary intercept:
the fraction theta in (0, 1] of the link at which the boundary is crossed and
the foot point itself.  The feet are bisected on the domain's sign test
(`DomainSpec.contains`, an implicit inequality where the shape has one) and
then checked once against the signed distance, |d| <= 1e-8.

Each link closes its ghost in terms of interior unknowns and the Dirichlet
value at its foot by one-dimensional extrapolation along the link:

  * theta >= 0.1 and a second interior node available: quadratic through
    (inner neighbor, owner, foot) -- exact for quadratics, which keeps the
    second-difference stencils exact for quadratic solutions,
  * theta < 0.1: quadratic through the two inner nodes and the foot, skipping
    the owner (bounded weights as theta -> 0),
  * single interior node available: linear through (owner, foot), with theta
    clamped below at 0.1 and the clamp flagged.

A ghost owned by several links takes the mean of their extrapolations.  The
closures are built per boundary link into two sparse elimination matrices,
ghosts x interior and ghosts x feet, so ghost values are two mat-vecs.  Each
finite-difference stencil of STENCILS (Dxx, Dyy, Dxy, Gx, Gy) is laid out over
interior and ghost columns, its ghost columns are eliminated through those
matrices, and the results are stacked in that order into one sparse pair
(interior block, foot block): all five stencils applied to a field are one
mat-vec pair, and the ghost elimination is identical in nodal evaluation and
linear-system assembly.  For assembly, the union pattern of the five interior
blocks is built once per grid, so a frozen-coefficient matrix or a Newton
Jacobian is one scatter of the stacked weights times their coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps

from .geometry import DomainSpec

NODE_EXTERIOR, NODE_INTERIOR, NODE_GHOST = 0, 1, 2
# row blocks of the stacked operator; second differences lead, so a frozen
# operator combines the leading three and a Jacobian sums in this order
STENCILS = ("Dxx", "Dyy", "Dxy", "Gx", "Gy")

_THETA_SWITCH = 0.1      # below this, extrapolation skips the owner node
_FOOT_TOL = 1e-8         # |signed distance| at accepted foot points


class GridError(RuntimeError):
    pass


class InvalidFieldError(ValueError):
    pass


# link directions, indexed by foot_axis, and the diagonal quadrants in the
# order the one-sided cross derivative tries them
_AXES = np.array(((1, 0), (-1, 0), (0, 1), (0, -1)))
_QUADRANTS = np.array(((1, 1), (1, -1), (-1, 1), (-1, -1)))


class Grid:
    """Uniform grid over the domain bounding box plus a two-cell margin."""

    def __init__(self, domain: DomainSpec, h: float):
        if h <= 0:
            raise GridError("spacing h must be positive")
        self.domain = domain
        self.h = float(h)
        self._build_nodes()
        self._classify()
        self._find_intercepts()
        self._close_ghosts()
        self._choose_cross_stencils()
        self._ops: Optional[tuple] = None
        self._pattern: Optional[StencilPattern] = None

    # -- construction --------------------------------------------------------

    def _build_nodes(self):
        h = self.h
        x0, x1, y0, y1 = self.domain.bbox
        i0 = math.floor(x0 / h) - 2
        i1 = math.ceil(x1 / h) + 2
        j0 = math.floor(y0 / h) - 2
        j1 = math.ceil(y1 / h) + 2
        self.xs = h * np.arange(i0, i1 + 1)
        self.ys = h * np.arange(j0, j1 + 1)
        self.nx, self.ny = len(self.xs), len(self.ys)
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.X, self.Y = X, Y
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        self.d = self.domain.signed_distance(pts).reshape(self.nx, self.ny)

    def _classify(self):
        tol = 1e-12 * max(1.0, max(abs(v) for v in self.domain.bbox))
        interior = self.d > tol
        pad = np.pad(interior, 1)
        ghost = (pad[2:, 1:-1] | pad[:-2, 1:-1] | pad[1:-1, 2:] | pad[1:-1, :-2]) & ~interior
        cls = np.full((self.nx, self.ny), NODE_EXTERIOR, dtype=np.int8)
        cls[interior] = NODE_INTERIOR
        cls[ghost] = NODE_GHOST
        self.cls = cls
        self.interior_mask = interior
        ii, jj = np.nonzero(interior)
        self.interior_ij = np.stack([ii, jj], axis=-1)
        self.n_interior = len(ii)
        if self.n_interior == 0:
            raise GridError("no interior nodes at this spacing")
        # closures and stencils reach two cells out from an interior node
        if min(ii.min(), jj.min()) < 2 or ii.max() > self.nx - 3 or jj.max() > self.ny - 3:
            raise GridError("interior node within two cells of the lattice edge")
        self.node_id = -np.ones((self.nx, self.ny), dtype=np.int64)
        self.node_id[ii, jj] = np.arange(self.n_interior)
        self.interior_xy = np.stack([self.xs[ii], self.ys[jj]], axis=-1)
        self.interior_d = self.d[ii, jj]
        # core region for residual reporting: at least 2h inside
        self.core_mask = self.interior_d >= 2.0 * self.h - 1e-12
        gii, gjj = np.nonzero(ghost)
        self.ghost_ij = np.stack([gii, gjj], axis=-1)
        self.n_ghost = len(gii)
        self.ghost_id = -np.ones((self.nx, self.ny), dtype=np.int64)
        self.ghost_id[gii, gjj] = np.arange(self.n_ghost)
        if np.max(-self.d[gii, gjj]) > 2.0 * self.h + 1e-12:
            raise GridError("ghost node farther than 2h from the boundary")

    def _find_intercepts(self):
        """One foot per interior->exterior axis link, all bisected together on
        the domain's sign test; the feet are then checked once on |d|."""
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        leaves = ~self.interior_mask[ii + _AXES[:, :1], jj + _AXES[:, 1:]]
        axis, owner = np.nonzero(leaves)          # axis-major, owners ascending
        p0 = self.interior_xy[owner]
        direction = self.h * _AXES[axis]
        lo = np.zeros(len(owner))
        hi = np.ones(len(owner))
        # p0 inside, p0 + dir not: bisect the sign change
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            pos = self.domain.contains(p0 + mid[:, None] * direction)
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        theta = 0.5 * (lo + hi)
        foot = p0 + theta[:, None] * direction
        dfoot = np.abs(self.domain.signed_distance(foot))
        if np.max(dfoot) > _FOOT_TOL:
            raise GridError(f"foot localization failed: |d| = {np.max(dfoot):.2e}")
        self.foot_owner = owner
        self.foot_axis = axis.astype(np.int8)
        self.foot_theta = np.maximum(theta, 1e-12)
        self.foot_xy = foot
        self.n_feet = len(theta)
        self.foot_s = self.domain.arclength_of(foot)

    def _close_ghosts(self):
        """Ghost values as closure_int @ u + closure_feet @ phi, built per link."""
        t = self.foot_theta
        p = self.foot_owner
        step = _AXES[self.foot_axis]
        own = self.interior_ij[p]
        ghost = self.ghost_id[own[:, 0] + step[:, 0], own[:, 1] + step[:, 1]]
        q = self.node_id[own[:, 0] - step[:, 0], own[:, 1] - step[:, 1]]    # next inward
        r = self.node_id[own[:, 0] - 2 * step[:, 0], own[:, 1] - 2 * step[:, 1]]
        quad = (q >= 0) & (t >= _THETA_SWITCH)
        skip = ~quad & (q >= 0) & (r >= 0)
        linear = ~quad & ~skip
        tc = np.maximum(t, _THETA_SWITCH)
        self.flags = {"ghost_linear_fallback": int(linear.sum()),
                      "ghost_theta_clamped": int((linear & (t < _THETA_SWITCH)).sum())}
        # per link: up to two interior weights and one foot weight, scaled by
        # 1 / (links owning the same ghost)
        share = 1.0 / np.bincount(ghost, minlength=self.n_ghost)[ghost]
        first = np.select([quad, skip], [q, r], p)
        first_w = np.select([quad, skip], [(1.0 - t) / (1.0 + t),
                                           2.0 * (1.0 - t) / (2.0 + t)], 1.0 - 1.0 / tc)
        second = np.where(quad, p, q)
        second_w = np.where(quad, -2.0 * (1.0 - t) / t, -3.0 * (1.0 - t) / (1.0 + t))
        foot_w = np.select([quad, skip], [2.0 / (t * (1.0 + t)),
                                          6.0 / ((2.0 + t) * (1.0 + t))], 1.0 / tc)
        two = ~linear
        self.closure_int = sps.csr_matrix(
            (np.concatenate([first_w * share, (second_w * share)[two]]),
             (np.concatenate([ghost, ghost[two]]), np.concatenate([first, second[two]]))),
            shape=(self.n_ghost, self.n_interior))
        self.closure_feet = sps.csr_matrix((foot_w * share, (ghost, np.arange(self.n_feet))),
                                           shape=(self.n_ghost, self.n_feet))

    def _choose_cross_stencils(self):
        """Cross derivative per interior node: centred where all four diagonals
        are usable, otherwise one-sided first order in one quadrant, preferring
        a quadrant whose diagonal is interior."""
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        qi, qj = ii + _QUADRANTS[:, :1], jj + _QUADRANTS[:, 1:]
        usable = (self.cls != NODE_EXTERIOR)[qi, qj]
        inner = self.interior_mask[qi, qj]
        one_sided = ~usable.all(axis=0) & usable.any(axis=0)
        k = np.where(inner.any(axis=0), inner.argmax(axis=0), usable.argmax(axis=0))
        self._cross_centred = usable.all(axis=0)    # a mask: smaller than indices on a kept grid
        self._cross_one_sided = np.flatnonzero(one_sided)
        self._cross_quadrant = _QUADRANTS[k[one_sided]]
        self.flags["cross_one_sided"] = int(one_sided.sum())
        self.flags["cross_missing"] = int((~usable.any(axis=0)).sum())

    # -- ghost helpers -------------------------------------------------------

    def ghost_values(self, u_int: np.ndarray, feet_vals: np.ndarray) -> np.ndarray:
        """Evaluate all ghost closures for interior values + Dirichlet foot values."""
        return self.closure_int @ u_int + self.closure_feet @ feet_vals

    # -- stencil operators ----------------------------------------------------

    def operators(self) -> tuple:
        """Stacked sparse pair (interior block, foot block) of the STENCILS:
        row block k, rows k N to (k + 1) N for N interior nodes, applies
        STENCILS[k]."""
        if self._ops is None:
            self._ops = self._build_operators()
        return self._ops

    def _build_operators(self):
        h, Ni = self.h, self.n_interior
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        rows = np.arange(Ni)
        # column of every usable node: interior unknowns first, then ghosts
        column = np.where(self.cls == NODE_GHOST, Ni + self.ghost_id, self.node_id)

        def at(r, di, dj):
            return column[ii[r] + di, jj[r] + dj]

        def eliminate(terms):
            """(interior block, foot block) of a stencil over interior+ghost columns,
            given as (rows, columns, weights) triplets; duplicates are summed."""
            r, c, v = (np.concatenate(part) for part in zip(*terms))
            S = sps.csr_matrix((v, (r, c)), shape=(Ni, Ni + self.n_ghost))
            S_gh = S[:, Ni:]
            return S[:, :Ni] + S_gh @ self.closure_int, S_gh @ self.closure_feet

        def axial(*stencil):
            return lambda: [(rows, at(rows, di, dj), np.full(Ni, w)) for (di, dj), w in stencil]

        def cross():
            centred, r1 = np.flatnonzero(self._cross_centred), self._cross_one_sided
            a, b = self._cross_quadrant[:, 0], self._cross_quadrant[:, 1]
            s = a * b / h**2
            w4 = np.full(len(centred), 0.25 / h**2)
            return [(centred, at(centred, 1, 1), w4), (centred, at(centred, -1, -1), w4),
                    (centred, at(centred, 1, -1), -w4), (centred, at(centred, -1, 1), -w4),
                    (r1, at(r1, a, b), s), (r1, at(r1, a, 0), -s), (r1, at(r1, 0, b), -s),
                    (r1, r1, s)]

        terms = {
            "Dxx": axial(((1, 0), 1.0 / h**2), ((-1, 0), 1.0 / h**2), ((0, 0), -2.0 / h**2)),
            "Dyy": axial(((0, 1), 1.0 / h**2), ((0, -1), 1.0 / h**2), ((0, 0), -2.0 / h**2)),
            "Dxy": cross,
            "Gx": axial(((1, 0), 0.5 / h), ((-1, 0), -0.5 / h)),
            "Gy": axial(((0, 1), 0.5 / h), ((0, -1), -0.5 / h)),
        }
        # one stencil at a time, its terms made when it is eliminated:
        # eliminating all five at once peaks at over twice the memory
        blocks = [eliminate(terms[name]()) for name in STENCILS]
        stacked = tuple(sps.vstack(part, format="csr") for part in zip(*blocks))
        for M in stacked:
            M.sort_indices()    # sorted rows keep each mat-vec's summation order fixed
        return stacked

    def pattern(self) -> "StencilPattern":
        """Union pattern of the STENCILS' interior blocks, built on first use
        so grids that are never solved on do not carry it."""
        if self._pattern is None:
            self._pattern = StencilPattern(self.operators()[0], self.n_interior)
        return self._pattern

    def __repr__(self):
        return (f"Grid(h={self.h:g}, interior={self.n_interior}, "
                f"ghosts={self.n_ghost}, feet={self.n_feet})")


class StencilPattern:
    """Union sparsity pattern of the STENCILS' interior blocks, stored as CSR
    with sorted indices, and every stacked entry located in it.

    A combination c_0 STENCILS[0] + ... + c_(k-1) STENCILS[k-1] with per-row
    coefficients is then one multiply and one scatter over the entries of the
    leading k row blocks.  Positions a stencil lacks get nothing from it, so
    the combination equals the sum of the scaled operators entry by entry, and
    its pattern is the same for every set of coefficients.
    """

    def __init__(self, D: sps.csr_matrix, n: int):
        self.row_length = np.diff(D.indptr)
        row_start = np.arange(D.shape[0], dtype=np.int64) % n * n
        keys = np.repeat(row_start, self.row_length) + D.indices
        union = np.unique(keys)       # row-major: CSR order
        self.shape = (n, n)
        self.indices = (union % n).astype(np.int32)
        self.indptr = np.searchsorted(union // n, np.arange(n + 1)).astype(np.int32)
        # every combination shares the index arrays; freezing them makes an
        # in-place change to one combination's pattern raise
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False
        # each stacked entry's position in the union, kept in the intp that
        # bincount takes so that no combine casts a copy; entries are
        # block-major, so a position's sum runs in STENCILS order
        self.position = np.searchsorted(union, keys)
        self.weight = D.data

    def combine(self, *coefficients) -> sps.csr_matrix:
        """sum_k diag(c_k) STENCILS[k] for per-row coefficient arrays c_k
        given in STENCILS order; the stencils past the last one given
        contribute nothing."""
        rows = len(coefficients) * self.shape[0]
        values = np.repeat(np.concatenate(coefficients), self.row_length[:rows])
        values *= self.weight[:len(values)]
        data = np.bincount(self.position[:len(values)], weights=values,
                           minlength=len(self.indices))
        return sps.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Nodal field: interior values plus the Dirichlet trace at boundary feet."""

    grid: Grid
    values: np.ndarray                 # (n_interior,)
    feet: Optional[np.ndarray] = None  # (n_feet,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_interior,):
            raise InvalidFieldError("field/interior size mismatch")
        if self.feet is not None:
            self.feet = np.asarray(self.feet, dtype=float)
            if self.feet.shape != (self.grid.n_feet,):
                raise InvalidFieldError("field/feet size mismatch")

    def validate(self):
        if not np.all(np.isfinite(self.values)):
            raise InvalidFieldError("non-finite interior values")
        if self.feet is not None and not np.all(np.isfinite(self.feet)):
            raise InvalidFieldError("non-finite boundary trace")
        return self

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable, boundary: Optional[Callable] = None):
        """Sample f(x, y) at interior nodes; boundary trace from `boundary` or f."""
        vals = f(grid.interior_xy[:, 0], grid.interior_xy[:, 1])
        bf = boundary if boundary is not None else f
        feet = (bf(grid.foot_xy[:, 0], grid.foot_xy[:, 1])
                if grid.n_feet else np.zeros(0))
        return cls(grid, np.asarray(vals, dtype=float),
                   np.asarray(feet, dtype=float)).validate()

    @classmethod
    def from_data(cls, grid: Grid, values: np.ndarray, data) -> "ScalarField":
        """Interior values plus a BoundaryData trace evaluated at the feet."""
        feet = (np.asarray(data.trace(grid.foot_xy, grid.foot_s), dtype=float)
                if grid.n_feet else np.zeros(0))
        return cls(grid, values, feet)

    @classmethod
    def zeros(cls, grid: Grid, data=None):
        vals = np.zeros(grid.n_interior)
        if data is None:
            return cls(grid, vals, np.zeros(grid.n_feet))
        return cls.from_data(grid, vals, data)

    def copy(self):
        return ScalarField(self.grid, self.values.copy(),
                           None if self.feet is None else self.feet.copy())

    def shifted(self, c: float) -> "ScalarField":
        """Vertical translation u + c (trace shifts too)."""
        return ScalarField(self.grid, self.values + c,
                           None if self.feet is None else self.feet + c)

    def sup(self) -> float:
        m = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if self.feet is not None and self.feet.size:
            m = max(m, float(np.max(np.abs(self.feet))))
        return m

    def ghost_values(self) -> np.ndarray:
        if self.feet is None:
            raise InvalidFieldError("boundary trace required for ghost reconstruction")
        return self.grid.ghost_values(self.values, self.feet)

    def __sub__(self, other: "ScalarField"):
        return ScalarField(self.grid, self.values - other.values, None)
