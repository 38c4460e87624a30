"""Embedded-boundary Cartesian grids and nodal scalar fields.

Nodes sit at integer multiples of the spacing h and are classified interior
(signed distance > 0), ghost (exterior but axis-adjacent to an interior node),
or exterior.  The classification reads the signed distance only near the
boundary (the narrow band of Adalsteinsson & Sethian, J. Comput. Phys. 118,
1995): the sign test runs on the lattice's axes, xs[:, None] and
ys[None, :], broadcast, the exact distance only in a band of a few cells
that provably holds every node within 2h of the boundary, and a node off
the band takes the sign test and is core.  In the band the distance is
measured only where it is read: at the nodes inside, whose class and core
membership it decides, and then at the ghosts outside, whose depths are
checked.  Interior and ghost nodes are numbered row-major from the flat
indices of their masks, and the numbers, -1 off the set, are the classes:
`node_id >= 0` marks the interior nodes and `ghost_id >= 0` the ghosts.
A grid stores each of these facts once: the interior numbers `node_id`
and the index pairs `interior_ij`, `ghost_ij`, all int32, so it retains
about a third less than with int64.  The rest is derived on every read as
a new array: `interior_mask` is `node_id >= 0`, `ghost_id` numbers the
ghosts again from `ghost_ij`, and `interior_xy` gathers xs and ys at
`interior_ij`, so a reader reads each once per call.  Construction shares
the interior mask and the ghost numbers as locals.  Flat lattice indices,
the x-neighbours that the stencil gathers read and the feet's owners
`foot_owner`, which `operators.foot_slopes` gathers at, are intp.  Each
interior-to-exterior axis link stores a boundary intercept: the fraction
theta in (0, 1] of the link at which the boundary is crossed and the foot
point itself.  The domain's `axis_crossing`
gives theta: in closed form, a square root on the link's line, on the disk,
ellipse, rectangles and annulus, and on a level set {F > 0} a secant on F
along the link, bracketed by F's sign and started from the linear
interpolation of the link's end values.  Every foot is then checked once
against the signed distance, |d| <= 1e-8.  `Grid.foot_s`, the feet's
boundary arclengths, is computed on first read: a solve never reads it,
since bump data finds the arclength of the points it is given.

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
ghosts x interior and ghosts x feet, so ghost values are two mat-vecs.

An interior node whose eight neighbours are all interior is a lattice node:
the finite-difference stencils of STENCILS (Dxx, Dyy, Dxy, Gx, Gy) are the
same constant taps at every one of them (the embedded-boundary view of
Johansen & Colella, J. Comput. Phys. 147, 1998).  The other interior nodes
are the edge nodes, and a grid stores only their rows: `Grid.operators`
builds the five rows of every edge node once, ghosts eliminated through the
closure matrices, as a sparse pair (interior block, foot block) whose row
k E + e is STENCILS[k] at edge node e.  A one-sided or missing cross
stencil has a non-interior diagonal, so it only ever sits at an edge node.
`Grid.stencils` applies all five stencils to a field: the lattice taps by
neighbour gathers (interior nodes are numbered row-major, so the
y-neighbours are the field shifted by one and the other six are gathers at
the x-neighbours' ids), a block of nodes at a time into a buffer of eight
values a node, then the edge nodes' rows from the sparse pair.
Every row sums its taps in column order from 0, as a sparse mat-vec of the
whole stacked operator would, so the answer is the same to the bit, and the
ghost elimination is identical in nodal evaluation and in the Newton
Jacobian.  For the Jacobian, `Grid.pattern` builds the union pattern of the
five stencils once per grid: a combination of the stencils writes the
9-point rows of the lattice nodes from the coefficients directly, and the
edge nodes' rows by one small sparse product.
For factorization, `SparseLU` holds SuperLU's LU in its minimum-degree
order, and `Grid.laplacian_lu`, the LU of J(0) = Dxx + Dyy
(`operators.Evaluation.zero`) that every solve starts on and lifts its data
with, is made on first read, so grids never solved on lack it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .geometry import DomainSpec

# row blocks of the stacked operator; a Jacobian sums its terms in this order
STENCILS = ("Dxx", "Dyy", "Dxy", "Gx", "Gy")

_THETA_SWITCH = 0.1      # below this, extrapolation skips the owner node
_FOOT_TOL = 1e-8         # |signed distance| at accepted foot points
_THETA_MIN = 2.0 ** -53  # feet keep at least this fraction of a link from either end
_CHUNK = 4096            # nodes per pass of a Jacobian combine
_STENCIL_CHUNK = 16384   # nodes per pass of a stencil evaluation


class GridError(RuntimeError):
    pass


class InvalidFieldError(ValueError):
    pass


# link directions, indexed by foot_axis, and the diagonal quadrants in the
# order the one-sided cross derivative tries them
_AXES = np.array(((1, 0), (-1, 0), (0, 1), (0, -1)))
_QUADRANTS = np.array(((1, 1), (1, -1), (-1, 1), (-1, -1)))


def _number(flat: np.ndarray, nx: int, ny: int):
    """The (i, j) index pairs, (k, 2), of the nodes at these ascending flat
    indices i ny + j, and the (nx, ny) lattice of their numbers 0 ... k - 1,
    -1 at every other node, both int32."""
    ij = np.empty((len(flat), 2), dtype=np.int32)
    np.divmod(flat, ny, out=(ij[:, 0], ij[:, 1]))
    return ij, _numbers(flat, nx, ny)


def _numbers(flat: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """The (nx, ny) int32 lattice numbering the nodes at these ascending
    flat indices 0 ... k - 1, -1 at every other node."""
    ids = np.full((nx, ny), -1, dtype=np.int32)
    ids.ravel()[flat] = np.arange(len(flat), dtype=np.int32)
    return ids


class Grid:
    """Uniform grid over the domain bounding box plus a two-cell margin.

    Stored: the lattice axes `xs`, `ys`; the interior numbers `node_id`
    ((nx, ny), -1 off the interior) and the index pairs `interior_ij`,
    `ghost_ij`; `core_mask`; the feet (`foot_owner`, `foot_axis`,
    `foot_theta`, `foot_xy`); the closure matrices and `flags`.  Derived
    on read, a new array each time: `interior_xy`, `interior_mask` and
    `ghost_id`.
    """

    def __init__(self, domain: DomainSpec, h: float):
        if not 0 < h < math.inf:
            raise GridError("spacing h must be positive and finite")
        x0, x1, y0, y1 = domain.bbox
        extent = max(x1 - x0, y1 - y0)
        if h > extent:
            raise GridError(f"spacing h = {h:g} exceeds the domain's extent {extent:g}")
        self.domain = domain
        self.h = float(h)
        self._build_nodes()
        interior, ghost_id = self._classify()
        self._find_intercepts(interior)
        self._close_ghosts(ghost_id)
        self._choose_cross_stencils(interior, ghost_id)
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

    def _band(self, inside: np.ndarray) -> np.ndarray:
        """Mask of the nodes that may lie within 2h of the boundary.

        The seeds are both nodes of every axis link across which the sign test
        changes, and the node nearest each boundary sample; the band is every
        node within r cells (Chebyshev) of a seed.  Consecutive samples are at
        most delta apart in arclength, so every boundary point lies within
        delta / 2 of a sample, which lies within h / 2 (per axis) of its node.
        A node more than r cells from every seed is therefore at least
        (r + 1/2) h - delta / 2 from the boundary, and r = ceil(3/2 + delta / h)
        puts it at least 2h + delta / 2 away: the spare delta / 2 covers level
        sets, whose arclengths are chords, and rounding.  The sign-change seeds
        add any component of the sign test's boundary that the samples miss,
        such as a level set's contour other than the traced one."""
        h, b = self.h, self.domain.boundary
        gap = float(np.max(np.diff(b.arclength, append=b.arclength[0] + b.total_length)))
        r = math.ceil(1.5 + gap / h)
        seed = np.zeros_like(inside)
        cut = inside[1:] != inside[:-1]
        seed[1:] |= cut
        seed[:-1] |= cut
        cut = inside[:, 1:] != inside[:, :-1]
        seed[:, 1:] |= cut
        seed[:, :-1] |= cut
        i, j = np.rint((b.points - (self.xs[0], self.ys[0])) / h).astype(np.intp).T
        seed[i, j] = True
        grown = seed.copy()
        for k in range(1, r + 1):
            grown[k:] |= seed[:-k]
            grown[:-k] |= seed[k:]
        band = grown.copy()
        for k in range(1, r + 1):
            band[:, k:] |= grown[:, :-k]
            band[:, :-k] |= grown[:, k:]
        return band

    def _classify(self):
        nx, ny, xs, ys = self.nx, self.ny, self.xs, self.ys
        inside = self.domain.contains(xs[:, None], ys[None, :])
        band = self._band(inside)
        # the exact distance where it is read: off the band |d| >= 2h, so the
        # sign test classifies, interior nodes are core and no exterior node
        # is a ghost (a ghost is within h of the boundary; one off the band
        # would read -inf and fail the depth check below).  In the band it
        # is measured first at the nodes inside, which the classification
        # reads, then at the ghosts outside, whose depths it checks; the
        # other exterior nodes read -inf
        d = np.where(inside, np.inf, -np.inf).ravel()
        self._measure(d, np.flatnonzero(band & inside))
        tol = 1e-12 * max(1.0, max(abs(v) for v in self.domain.bbox))
        interior = (d > tol).reshape(nx, ny)
        pad = np.pad(interior, 1)
        ghost = (pad[2:, 1:-1] | pad[:-2, 1:-1] | pad[1:-1, 2:] | pad[1:-1, :-2]) & ~interior
        # nodes are numbered row-major in (i, j), from their flat indices
        flat = np.flatnonzero(interior)
        self.n_interior = len(flat)
        if self.n_interior == 0:
            raise GridError("no interior nodes at this spacing")
        # closures and stencils reach two cells out from an interior node
        if (interior[:2].any() or interior[-2:].any() or interior[:, :2].any()
                or interior[:, -2:].any()):
            raise GridError("interior node within two cells of the lattice edge")
        self.interior_ij, self.node_id = _number(flat, nx, ny)
        # core region for residual reporting: at least 2h inside
        self.core_mask = d.take(flat) >= 2.0 * self.h - 1e-12
        flat = np.flatnonzero(ghost)
        self.n_ghost = len(flat)
        self.ghost_ij, ghost_id = _number(flat, nx, ny)
        self._measure(d, flat[band.ravel().take(flat) & ~inside.ravel().take(flat)])
        if np.max(-d.take(flat)) > 2.0 * self.h + 1e-12:
            raise GridError("ghost node farther than 2h from the boundary")
        return interior, ghost_id

    def _xy(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(k, 2) coordinates of the lattice nodes (i, j)."""
        xy = np.empty((len(i), 2))
        xy[:, 0] = self.xs.take(i)      # take: about twice as fast as xs[i]
        xy[:, 1] = self.ys.take(j)
        return xy

    def _measure(self, d: np.ndarray, at: np.ndarray):
        """Write the signed distance at the lattice nodes of these flat
        indices into d."""
        if len(at):
            d[at] = self.domain.signed_distance(self._xy(*np.divmod(at, self.ny)))

    def _find_intercepts(self, inside: np.ndarray):
        """One foot per interior->exterior axis link, where the domain's
        `axis_crossing` puts it; the feet are then checked once on |d|.
        theta is kept in [2^-53, 1 - 2^-53], so a neighbour inside by less
        than the classification's tolerance has its foot at the end of the
        link."""
        # the links leaving along each axis by lattice shifts of the mask (no
        # interior node is on the lattice's edge, so none wraps round), the
        # owners of each ascending, as node_id numbers them row-major
        found = [self.node_id[inside & ~np.roll(inside, -step, axis=(0, 1))] for step in _AXES]
        # intp: operators.foot_slopes gathers at the owners on every call
        owner = np.concatenate(found).astype(np.intp)
        axis = np.repeat(np.arange(len(_AXES)), [len(f) for f in found])
        p0, unit = self._xy(*self.interior_ij[owner].T), _AXES[axis]
        theta = np.clip(self.domain.axis_crossing(p0, unit, self.h), _THETA_MIN, 1.0 - _THETA_MIN)
        foot = p0 + theta[:, None] * (self.h * unit)
        dfoot = np.abs(self.domain.signed_distance(foot))
        if np.max(dfoot) > _FOOT_TOL:
            raise GridError(f"foot localization failed: |d| = {np.max(dfoot):.2e}")
        self.foot_owner = owner
        self.foot_axis = axis.astype(np.int8)
        self.foot_theta = theta
        self.foot_xy = foot
        self.n_feet = len(theta)

    @cached_property
    def foot_s(self) -> np.ndarray:
        """Boundary arclength of every foot, computed on first read."""
        return self.domain.arclength_of(self.foot_xy)

    def _close_ghosts(self, ghost_id: np.ndarray):
        """Ghost values as closure_int @ u + closure_feet @ phi, built per link."""
        t = self.foot_theta
        p = self.foot_owner
        step = _AXES[self.foot_axis]
        own = self.interior_ij[p]
        ghost = ghost_id[own[:, 0] + step[:, 0], own[:, 1] + step[:, 1]]
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

    def _choose_cross_stencils(self, interior: np.ndarray, ghost_id: np.ndarray):
        """Cross derivative per interior node: centred where all four diagonals
        are usable, otherwise one-sided first order in one quadrant, preferring
        a quadrant whose diagonal is interior.  Lattice neighbours are 1-D
        takes on the flat index i ny + j; only the rows that are not centred
        look at their quadrants."""
        flat = self._flat
        step = _QUADRANTS @ (self.ny, 1)            # flat offsets of the diagonals
        usable = (interior | (ghost_id >= 0)).ravel()
        centred = usable.take(flat + step[0])
        for s in step[1:]:
            centred &= usable.take(flat + s)
        rest = np.flatnonzero(~centred)
        near = flat[rest] + step[:, None]           # (quadrant, row)
        usable_q, inner_q = usable.take(near), interior.ravel().take(near)
        one_sided = usable_q.any(axis=0)
        k = np.where(inner_q.any(axis=0), inner_q.argmax(axis=0), usable_q.argmax(axis=0))
        self._cross_one_sided = rest[one_sided]
        self._cross_quadrant = _QUADRANTS[k[one_sided]]
        self.flags["cross_one_sided"] = int(one_sided.sum())
        self.flags["cross_missing"] = int((~one_sided).sum())

    # -- derived on read ------------------------------------------------------

    @property
    def interior_xy(self) -> np.ndarray:
        """(n_interior, 2) coordinates of the interior nodes, from xs, ys
        and interior_ij, a new array on every read."""
        return self._xy(*self.interior_ij.T)

    @property
    def interior_mask(self) -> np.ndarray:
        """(nx, ny) mask of the interior nodes, node_id >= 0, a new array on
        every read."""
        return self.node_id >= 0

    @property
    def ghost_id(self) -> np.ndarray:
        """(nx, ny) int32 lattice of the ghost numbers, -1 off the ghosts,
        from ghost_ij, a new array on every read."""
        return _numbers(self._flat_of(self.ghost_ij), self.nx, self.ny)

    # -- ghost helpers -------------------------------------------------------

    def ghost_values(self, u_int: np.ndarray, feet_vals: np.ndarray) -> np.ndarray:
        """Evaluate all ghost closures for interior values + Dirichlet foot values."""
        return self.closure_int @ u_int + self.closure_feet @ feet_vals

    # -- stencil operators ----------------------------------------------------

    def _flat_of(self, ij: np.ndarray) -> np.ndarray:
        """Flat lattice index i ny + j of the nodes (i, j), as intp."""
        return ij[:, 0].astype(np.intp) * self.ny + ij[:, 1]

    @property
    def _flat(self) -> np.ndarray:
        """Flat lattice index i ny + j of every interior node."""
        return self._flat_of(self.interior_ij)

    @cached_property
    def _taps(self) -> dict:
        return _lattice_taps(self.h)

    @cached_property
    def _x_neighbours(self) -> np.ndarray:
        """(2, n_interior): the ids of the nodes (i - 1, j) and (i + 1, j)
        of every interior node (i, j), 0 where that node is not interior,
        as intp, the index type the gathers take without a cast."""
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        near = np.stack([self.node_id[ii - 1, jj], self.node_id[ii + 1, jj]])
        return np.maximum(near, 0).astype(np.intp)

    @cached_property
    def _edge(self) -> np.ndarray:
        """The edge nodes, ascending: the interior nodes with a non-interior
        node among their eight neighbours."""
        inside, flat = self.node_id.ravel() >= 0, self._flat
        lattice = np.ones(self.n_interior, dtype=bool)
        for di, dj in _NINE:
            lattice &= inside.take(flat + (di * self.ny + dj))
        return np.flatnonzero(~lattice)

    def operators(self) -> "BoundaryRows":
        """The five stencil rows of every edge node, ghosts eliminated,
        built on first use."""
        if self._ops is None:
            self._ops = self._build_operators()
        return self._ops

    def _build_operators(self) -> "BoundaryRows":
        stacked, S_gh = self._edge_taps()
        # both terms in canonical form, so their sum is scipy's sorted merge,
        # which adds the two entries of a position and drops exact zeros;
        # sorted rows keep each mat-vec's summation order fixed
        M, D_feet = S_gh @ self.closure_int, S_gh @ self.closure_feet
        M.sort_indices()
        D_feet.sort_indices()
        return BoundaryRows(self._edge, stacked + M, D_feet)

    def _edge_taps(self):
        """The taps of the edge nodes' rows, row k E + e for STENCILS[k] at
        edge node e: the taps on interior nodes (rows x interior,
        canonical) and on ghosts (rows x ghosts)."""
        h, Ni, ny = self.h, self.n_interior, self.ny
        # column of every node: interior unknowns first, then ghosts; an
        # exterior node reads -1
        ghost_id = self.ghost_id
        column = np.where(ghost_id >= 0, Ni + ghost_id, self.node_id).ravel()
        taps, edge = self._taps, self._edge
        at = self._flat[edge, None]
        index, weight = [], []
        for name in STENCILS:
            offsets, w = taps[name]
            # node_id runs row-major over (i, j), so taps in lexicographic
            # (di, dj) order reach a row's interior columns in ascending order
            c = column.take(at + [di * ny + dj for di, dj in offsets])
            v = np.tile(w, (len(edge), 1))
            if name == "Dxy":
                # Dxy taps the corners (0, 0), (0, 1), (1, 0), (1, 1) of a
                # cell with weights +, -, -, +: a centred row's cell is its
                # four diagonals, a one-sided row's is its quadrant, and a
                # row with neither reads four exterior diagonals; both of
                # the latter have a non-interior diagonal, so are edge nodes
                one_sided, (a, b) = self._cross_one_sided, self._cross_quadrant.T
                r1 = np.searchsorted(edge, one_sided)
                corner = at[r1, 0] + np.minimum(a, 0) * ny + np.minimum(b, 0)
                c[r1] = column.take(corner[:, None] + (0, 1, ny, ny + 1))
                v[r1] = _CROSS * (1.0 / h**2)
            index.append(c.ravel())
            weight.append(v.ravel())
        width = np.repeat([len(taps[name][0]) for name in STENCILS], len(edge))
        indptr = np.zeros(len(width) + 1, dtype=np.int64)
        np.cumsum(width, out=indptr[1:])
        indices, data = np.concatenate(index), np.concatenate(weight)
        ghost = np.flatnonzero(indices >= Ni)
        S_gh = sps.csr_matrix((data[ghost], (np.searchsorted(indptr, ghost, side="right") - 1,
                                             indices[ghost] - Ni)),
                              shape=(len(width), self.n_ghost))
        # the ghost and exterior taps become explicit zeros, which
        # eliminate_zeros compresses out in place (a weight that underflows
        # to 0 goes too, as the merge would drop it anyway)
        drop = (indices < 0) | (indices >= Ni)
        data[drop] = 0.0
        indices[drop] = 0
        stacked = sps.csr_matrix((data, indices, indptr), shape=(len(width), Ni))
        stacked.eliminate_zeros()
        return stacked, S_gh

    def stencils(self, values: np.ndarray, feet: np.ndarray) -> np.ndarray:
        """(5, n_interior) array whose row k applies STENCILS[k] to the field
        with these interior and foot values, ghosts eliminated.

        Every node's rows are first the lattice taps, then the edge nodes'
        rows are overwritten from `operators()`.  Both sum a row's taps in
        column order as a sparse mat-vec does, from 0, so a row reads the
        same to the bit whichever way it is computed.  Interior nodes are
        numbered row-major, so at a lattice node n the y-neighbours are
        nodes n - 1 and n + 1, and the diagonals beside an x-neighbour m are
        nodes m - 1 and m + 1: the values padded by one entry at each end
        give the y-neighbours as slices and the other six as gathers at the
        x-neighbours' ids."""
        taps, N = self._taps, self.n_interior
        (s1, s2, _), (f0, f1), cross = taps["Dxx"][1], taps["Gx"][1], taps["Dxy"][1]
        padded = np.empty(N + 2)
        padded[0] = padded[-1] = 0.0
        padded[1:-1] = values
        out = np.empty((len(STENCILS), N))
        # _STENCIL_CHUNK nodes at a time, so that the neighbours' block
        # (1 MB) stays in cache and no array of eight values a node is made
        work, x_near = np.empty((8, min(_STENCIL_CHUNK, N))), self._x_neighbours
        for a in range(0, N, _STENCIL_CHUNK):
            b = min(a + _STENCIL_CHUNK, N)
            near, rows = work[:, :b - a], out[:, a:b]
            below, above = x_near[:, a:b]
            # the neighbours, x before y: (-1, 0), (0, -1), (1, 0), (0, 1),
            # then the diagonals in lexicographic order ("clip" takes unbuffered)
            padded[1:].take(below, out=near[0], mode="clip")
            near[1] = padded[a:b]
            padded[1:].take(above, out=near[2], mode="clip")
            near[3] = padded[a + 2:b + 2]
            for k, (m, start) in enumerate(((below, 0), (below, 2), (above, 0), (above, 2))):
                padded[start:].take(m, out=near[4 + k], mode="clip")
            second, first = rows[0:2], rows[3:5]    # (Dxx, Dyy) and (Gx, Gy)
            np.multiply(near[0:2], s1, out=second)
            second += values[a:b] * s2
            second += near[2:4] * s1
            np.multiply(near[0:2], f0, out=first)
            first += near[2:4] * f1
            diagonal = near[4:]
            diagonal *= cross[:, None]
            np.add(diagonal[0], diagonal[1], out=rows[2])
            rows[2] += diagonal[2]
            rows[2] += diagonal[3]
            rows += 0.0                 # a sum from 0 is never -0
        edge, D, D_feet = self.operators()
        on_edge = D @ values
        on_edge += D_feet @ feet
        out[:, edge] = on_edge.reshape(len(STENCILS), -1)
        return out

    def pattern(self) -> "StencilPattern":
        """Union pattern of the STENCILS' rows, built on first use so grids
        that are never solved on do not carry it."""
        if self._pattern is None:
            self._pattern = StencilPattern(self)
        return self._pattern

    @cached_property
    def laplacian_lu(self) -> "SparseLU":
        """The float32 LU of J(0) = Dxx + Dyy, the Jacobian at u = 0 with zero
        data whatever H, that every solve lifts its data with
        (`solver._lift`) and starts on (`linear.Factor`), made on first
        read; SuperLU's refusal raises."""
        from .operators import Evaluation   # here, as operators imports grid
        J0 = Evaluation.zero(self).jacobian().astype(np.float32)
        return SparseLU(J0)         # no float64 J(0) alive in SuperLU

    def __repr__(self):
        return (f"Grid(h={self.h:g}, interior={self.n_interior}, "
                f"ghosts={self.n_ghost}, feet={self.n_feet})")


# the nine lattice offsets of a node and itself, in lexicographic order
_NINE = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
_CROSS = np.array((1.0, -1.0, -1.0, 1.0))


def _lattice_taps(h: float) -> dict:
    """Each stencil's lattice taps: the offsets (di, dj) in lexicographic
    order and their weights."""
    second, first = (1.0 / h**2, -2.0 / h**2, 1.0 / h**2), (-0.5 / h, 0.5 / h)
    return {"Dxx": (((-1, 0), (0, 0), (1, 0)), second),
            "Dyy": (((0, -1), (0, 0), (0, 1)), second),
            "Dxy": (((-1, -1), (-1, 1), (1, -1), (1, 1)), _CROSS * (0.25 / h**2)),
            "Gx": (((-1, 0), (1, 0)), first),
            "Gy": (((0, -1), (0, 1)), first)}


class BoundaryRows(NamedTuple):
    """The five stencil rows of every edge node, ghosts eliminated: row
    k E + e of `interior` (rows x interior nodes) and of `feet` (rows x
    feet) is STENCILS[k] at interior node `edge[e]`, where `edge` holds the
    E edge nodes in ascending order."""

    edge: np.ndarray
    interior: sps.csr_matrix
    feet: sps.csr_matrix


class StencilPattern:
    """Union sparsity pattern of the STENCILS' rows, CSR with sorted
    indices, and the combination of the stencils with per-row coefficients
    on it.

    A node whose eight neighbours are interior (a lattice node) has the
    9-point row, and a combination writes its entries from the coefficients
    directly.  The rows of the other nodes (the edge nodes) are one sparse
    product K c of the coefficients at those nodes, stacked as the rows of
    `Grid.operators()` are, where K holds each entry of those rows in the
    row position it falls on.
    Both sum a position's terms in STENCILS order from 0, so a combination
    equals the sum of the scaled stencils entry by entry, and its pattern
    is the same for every set of coefficients: positions a stencil lacks
    get nothing from it.
    """

    def __init__(self, grid: Grid):
        N, ny, flat, node_id = grid.n_interior, grid.ny, grid._flat, grid.node_id.ravel()
        edge, D, _ = grid.operators()
        self.edge = edge
        self.on_lattice = on_lattice = np.ones(N, dtype=bool)
        on_lattice[edge] = False
        # row k E + e of D is column k E + e of K: each entry of D goes to
        # the position its column takes in its edge node's row
        row = np.repeat(np.arange(D.shape[0]), np.diff(D.indptr))
        union, position = np.unique(edge[row % len(edge)] * N + D.indices, return_inverse=True)
        self.K = sps.csr_matrix((D.data, (position, row)), shape=(len(union), D.shape[0]))
        length = np.full(N, len(_NINE))
        length[edge] = np.bincount(union // N, minlength=N)[edge]
        self.shape = (N, N)
        self.indptr = np.zeros(N + 1, dtype=np.int32)
        np.cumsum(length, out=self.indptr[1:])
        # the entries of the lattice nodes' rows as a mask, the others' positions
        self.lattice_entries = np.repeat(on_lattice, length)
        self.edge_entries = np.flatnonzero(~self.lattice_entries)
        self.indices = np.empty(self.indptr[-1], dtype=np.int32)
        self.indices[self.lattice_entries] = node_id.take(
            flat[on_lattice, None] + [di * ny + dj for di, dj in _NINE]).ravel()
        self.indices[self.edge_entries] = union % N
        # every combination shares the index arrays; freezing them makes an
        # in-place change to one combination's pattern raise
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False
        # the terms of each of the nine offsets: (stencil, weight) in STENCILS order
        self.terms = [[(k, float(w)) for k, name in enumerate(STENCILS)
                       for o, w in zip(*grid._taps[name]) if o == offset] for offset in _NINE]

    def combine(self, *coefficients) -> sps.csr_matrix:
        """sum_k diag(c_k) STENCILS[k] for the five per-row coefficient
        arrays c_k in STENCILS order."""
        # the 9-point rows, offset by offset: the terms of the stencils that
        # tap the offset, in STENCILS order, written for _CHUNK nodes at a
        # time so that the work block stays in cache
        N = self.shape[0]
        data = np.empty(len(self.indices))
        work = np.empty((len(_NINE), min(_CHUNK, N)))
        for a in range(0, N, _CHUNK):
            b = min(a + _CHUNK, N)
            block, part = work[:, :b - a], [c[a:b] for c in coefficients]
            for j, ((k0, w0), *rest) in enumerate(self.terms):
                np.multiply(part[k0], w0, out=block[j])
                for k, w in rest:
                    block[j] += part[k] * w
            block += 0.0                # a sum from 0 is never -0
            lo, hi = self.indptr[a], self.indptr[b]
            data[lo:hi][self.lattice_entries[lo:hi]] = block.T[self.on_lattice[a:b]].ravel()
        at_edge = np.concatenate([c[self.edge] for c in coefficients])
        data[self.edge_entries] = self.K @ at_edge
        return sps.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class SparseLU:
    """SuperLU's LU of A cast to `dtype` (float32 by default), its exact
    zeros dropped, in SuperLU's multiple minimum degree order on A^T + A
    (Liu, ACM TOMS 11, 1985) with supernodes relaxed no further than one
    column, which on these matrices factorizes faster than the default or
    wider relaxation.  `solve` casts the right-hand side to `dtype` and the
    answer back to float64.  Raises RuntimeError when the cast has a
    non-finite entry or SuperLU finds the cast matrix singular."""

    def __init__(self, A: sps.spmatrix, dtype=np.float32):
        self.dtype = dtype
        with np.errstate(over="ignore"):    # an entry cast to inf is refused below
            A = A.astype(dtype, copy=False).tocsc(copy=True)
        # the union pattern's exact zeros, and the entries the cast flushed to
        # zero, would only fill
        A.eliminate_zeros()
        if not np.all(np.isfinite(A.data)):
            raise RuntimeError(f"an entry lies beyond {np.dtype(dtype).name} range")
        # through the module attribute, so that a wrapper of splu sees the call
        self.superlu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):    # an inf entry's answer fails the keep test
            b = b.astype(self.dtype)
        return self.superlu.solve(b).astype(np.float64)


# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Nodal field: interior values plus the Dirichlet trace at boundary feet."""

    grid: Grid
    values: np.ndarray   # (n_interior,)
    feet: np.ndarray     # (n_feet,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_interior,):
            raise InvalidFieldError("field/interior size mismatch")
        self.feet = np.asarray(self.feet, dtype=float)
        if self.feet.shape != (self.grid.n_feet,):
            raise InvalidFieldError("field/feet size mismatch")

    def validate(self):
        if not np.all(np.isfinite(self.values)):
            raise InvalidFieldError("non-finite interior values")
        if not np.all(np.isfinite(self.feet)):
            raise InvalidFieldError("non-finite boundary trace")
        return self

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable):
        """Sample f(x, y) at the interior nodes and, for the trace, at the feet."""
        xy = grid.interior_xy
        vals = f(xy[:, 0], xy[:, 1])
        feet = f(grid.foot_xy[:, 0], grid.foot_xy[:, 1])
        return cls(grid, np.asarray(vals, dtype=float),
                   np.asarray(feet, dtype=float)).validate()

    @classmethod
    def zeros(cls, grid: Grid, data=None):
        """Zero interior values; the trace is zero, or the BoundaryData
        trace evaluated at the feet."""
        feet = np.zeros(grid.n_feet) if data is None else data.trace(grid.foot_xy)
        return cls(grid, np.zeros(grid.n_interior), feet)

    def shifted(self, c: float) -> "ScalarField":
        """Vertical translation u + c (trace shifts too)."""
        return ScalarField(self.grid, self.values + c, self.feet + c)

    def sup(self) -> float:
        return max(float(np.max(np.abs(self.values))), float(np.max(np.abs(self.feet))))

    def ghost_values(self) -> np.ndarray:
        return self.grid.ghost_values(self.values, self.feet)
