"""The whole stacked stencil operator materialized from a grid's lattice form,
for tests that compare it with a tap-by-tap assembly or read its row blocks.

A grid stores the five rows of each of its edge nodes (`Grid.operators`);
every other row of the stacked STENCILS is the stencil's constant lattice
taps.  The constant taps are written out here on their own, not read from
`mcgraph.grid`.
"""

import numpy as np
import scipy.sparse as sps

from mcgraph.grid import STENCILS


def lattice_taps(h):
    """Each stencil's taps at a node whose taps are all interior: the
    offsets (di, dj) in lexicographic order, with their weights."""
    second, cross, first = 1.0 / h**2, 0.25 / h**2, 0.5 / h
    return {"Dxx": [((-1, 0), second), ((0, 0), -2.0 / h**2), ((1, 0), second)],
            "Dyy": [((0, -1), second), ((0, 0), -2.0 / h**2), ((0, 1), second)],
            "Dxy": [((-1, -1), cross), ((-1, 1), -cross), ((1, -1), -cross), ((1, 1), cross)],
            "Gx": [((-1, 0), -first), ((1, 0), first)],
            "Gy": [((0, -1), -first), ((0, 1), first)]}


def stacked_operators(grid):
    """(D, D_feet): row k N + n applies STENCILS[k] at interior node n, as
    canonical CSR with int32 indices.  The edge nodes' rows are copied
    from `grid.operators()`, and every other row is the lattice taps, which
    must all be interior nodes."""
    N = grid.n_interior
    edge, boundary, boundary_feet = grid.operators()
    # row k E + e of the stored rows is row k N + edge[e] of the stack
    rows = (np.arange(len(STENCILS))[:, None] * N + edge).ravel()
    lattice = np.setdiff1d(np.arange(len(STENCILS) * N), rows)
    k, n = np.divmod(lattice, N)
    ii, jj = grid.interior_ij[n, 0], grid.interior_ij[n, 1]
    r, c, v = [], [], []
    for s, (name, taps) in enumerate(lattice_taps(grid.h).items()):
        assert name == STENCILS[s]
        at = k == s
        for (di, dj), w in taps:
            col = grid.node_id[ii[at] + di, jj[at] + dj]
            assert np.all(col >= 0)
            r.append(lattice[at])
            c.append(col)
            v.append(np.full(len(col), w))
    B = boundary.tocoo()
    r.append(rows[B.row])
    c.append(B.col)
    v.append(B.data)
    B_feet = boundary_feet.tocoo()
    shape = (len(STENCILS) * N, N)
    return (_csr(np.concatenate(r), np.concatenate(c), np.concatenate(v), shape),
            _csr(rows[B_feet.row], B_feet.col, B_feet.data, (shape[0], grid.n_feet)))


def _csr(row, col, data, shape):
    """CSR with rows in order and each row's entries by column; the entries
    are copied, never summed."""
    order = np.lexsort((col, row))
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=shape[0]), out=indptr[1:])
    M = sps.csr_matrix((data[order], col[order].astype(np.int32), indptr), shape=shape)
    assert M.has_canonical_format
    return M
