"""LU ordering benchmark: the grid's nested-dissection order against SuperLU's
minimum degree on A^T + A, on the spherical cap (unit disk, H = 0.4, zero data).

    python3 scripts/bench_lu_ordering.py [--spacings 32,64,128,256] [--repeats 3]
                                         [--out BENCH_lu_ordering.json]

Run from the root of a checkout; the program is imported from ``src/``.  Each
(ordering, spacing) pair runs in a fresh process, one at a time, so that its
peak RSS is its own.  The process solves a small cap first, then the cap at
the spacing with that ordering:

* ``solve_dirichlet_s``: the whole cap solve, factorization included (each
  repeat solves on a grid of its own, which holds no LU yet), best of the
  repeats (one run at h = 1/256);
* ``peak_rss_mb``: the process's peak resident set up to here;

and then measures on the cap's first Jacobian (the one LU of every cap
solve):

* ``factor_s``: building the factor (for the dissection order: permuting the
  matrix and factorizing it), best of the repeats;
* ``triangular_solve_s``: one solve with the factor, best of 20;
* ``fill_nnz``: the entries SuperLU stores for L and U, as in ``report.json``;
* ``nnz_L_plus_U``: nnz(L) + nnz(U), read last because scipy keeps the
  copies of L and U it makes for this.

The minimum-degree ordering exists only here, as a stand-in for
`linear.DissectedLU` during its runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import _parent
from _parent import ROOT

ORDERINGS = ("nested_dissection", "minimum_degree")


def _measure(ordering: str, n: int, repeats: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy.sparse.linalg as spla

    import mcgraph.linear
    from mcgraph import (Evaluation, Grid, PrescribedCurvature, ScalarField, ZeroData,
                         correction_system, disk, solve_dirichlet)

    class MinimumDegreeLU:
        """SuperLU with its MMD_AT_PLUS_A column order, in the interface of
        `linear.DissectedLU`; the grid's order is ignored.  Like it, it
        factorizes the matrix without its explicit zeros."""

        def __init__(self, A, order):
            A = A.tocsc(copy=True)
            A.eliminate_zeros()
            self.superlu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")

        def solve(self, b):
            return self.superlu.solve(b)

    if ordering == "minimum_degree":
        mcgraph.linear.DissectedLU = MinimumDegreeLU
    factor = mcgraph.linear.DissectedLU
    dom, H = disk(1.0), PrescribedCurvature.constant(0.4)
    solve_dirichlet(Grid(dom, 1.0 / 16.0), H, ZeroData())      # first-solve start-up
    cap_s = []
    for _ in range(repeats if n < 256 else 1):
        grid = Grid(dom, 1.0 / n)       # a grid of its own: every solve factorizes
        t0 = time.perf_counter()
        report = solve_dirichlet(grid, H, ZeroData())
        cap_s.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    zero = ScalarField.zeros(grid, ZeroData())
    J = correction_system(Evaluation(zero, H, 2, 0.25)).A
    order = grid.dissection
    factor_s = []
    for _ in range(repeats):
        lu = None
        t0 = time.perf_counter()
        lu = factor(J, order)
        factor_s.append(time.perf_counter() - t0)
    b = np.random.default_rng(0).standard_normal(grid.n_interior)
    solve_s = []
    for _ in range(20):
        t0 = time.perf_counter()
        lu.solve(b)
        solve_s.append(time.perf_counter() - t0)
    fresh = Grid(dom, 1.0 / n)
    t0 = time.perf_counter()
    fresh.dissection
    dissection_s = time.perf_counter() - t0
    return {
        "interior_nodes": grid.n_interior,
        "factor_s": min(factor_s),
        "triangular_solve_s": min(solve_s),
        "fill_nnz": int(lu.superlu.nnz),
        "nnz_L_plus_U": int(lu.superlu.L.nnz + lu.superlu.U.nnz),
        "solve_dirichlet_s": min(cap_s),
        "peak_rss_mb": peak_rss_mb,
        "dissection_s": dissection_s if ordering == "nested_dissection" else None,
        "cap": {"verdict": report.verdict, "iterations": report.iterations,
                "factorizations": report.factorizations,
                "krylov_iterations": report.krylov_iterations, "sup_u": report.sup_u,
                "fill_nnz": report.fill_nnz},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spacings", default="32,64,128,256",
                    help="inverse spacings 1/h, comma-separated")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_lu_ordering.json"))
    ap.add_argument("--one", nargs=2, metavar=("ORDERING", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(_measure(args.one[0], int(args.one[1]), args.repeats)))
        return 0
    results = {}
    for n in (int(s) for s in args.spacings.split(",")):
        for ordering in ORDERINGS:
            results.setdefault(f"1/{n}", {})[ordering] = _parent.fresh(
                __file__, ordering, n, "--repeats", args.repeats)
            row = results[f"1/{n}"][ordering]
            print(f"h = 1/{n:<4} {ordering:18} factor {row['factor_s']:.4f} s, "
                  f"solve {row['triangular_solve_s'] * 1e3:.2f} ms, "
                  f"nnz(L+U) {row['nnz_L_plus_U']}, cap {row['solve_dirichlet_s']:.3f} s, "
                  f"{row['peak_rss_mb']:.0f} MB", flush=True)
    _parent.write(args.out, {
        "benchmark": "first cap Jacobian factorized in each ordering, and the cap solve",
        "machine": _parent.machine(),
        "repeats": args.repeats,
        "results": results,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
