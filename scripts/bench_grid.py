"""Grid benchmark: the seconds of the domain's construction, of each step of
`Grid` construction and of its stencil operator build, and the bytes a grid
keeps, against a parent commit, each case run in a fresh process, with a
bit-identity check of what the domain and the grid compute.

    python3 scripts/bench_grid.py [--parent REV] [--repeats 3] [--calls 5]
                                  [--spacings 32,64,128,256] [--out BENCH_grid.json]

The cases are the six domains of the benchmark's ``domain_grids`` workload
at every spacing h = 1/N given, plus the unit disk at h = 1/512.  For every
case the parent and this checkout take turns as `_parent` describes.  A
process builds the domain, then ``Grid(domain, h)`` and its
``operators()``, each ``--calls`` times, with these steps timed:

* ``domain``: the factory call that builds the domain, its shape and
  `DomainSpec` with the boundary samples (a level set traces its contour
  here), timed over ``--calls`` builds;
* ``classify``: ``Grid._classify`` (sign test, narrow band, distances);
* ``intercepts``: ``Grid._find_intercepts`` (the feet: the shape's
  closed-form axis crossing, or a secant on the level function, and the
  |d| check);
* ``closures``: ``Grid._close_ghosts``;
* ``cross``: ``Grid._choose_cross_stencils``;
* ``operators``: the first ``Grid.operators()`` of a grid, which builds it;
* ``laplacian_lu``: J(0) and its float32 SuperLU factor, through the
  entry point of the checkout (``linear.laplacian_lu(grid)``, or
  ``Grid.laplacian_lu`` in a parent that has it), made on ``--calls`` more
  grids once their operators are built, after the steps above are timed.

The least of a step's seconds over the calls is its time in that process,
and the table gives the median over the repeats.  The process's first
SuperLU factorization, that of its first ``laplacian_lu``, also gives
``lu_nnz``, its ``superlu.nnz``, and ``lu_transient_mb``, the memory it
touched and gave back: VmHWM less VmRSS (``/proc/self/status``) right
after ``splu``.  That is the rise of VmHWM less the rise of VmRSS across
the call plus ``lu_headroom_mb``, VmHWM less VmRSS right before it (J(0)'s
assembly may have touched more than it keeps); it is exact whenever the
factorization raised VmHWM, as it does when it keeps more than that
headroom, and an upper bound otherwise.  The process then builds
one more grid under ``tracemalloc``: ``retained_bytes`` is what the grid
holds after ``operators()``, as the ``domain_grids`` workload keeps it, and
``retained_bytes_solving`` what it holds once ``pattern()`` is built too, as
a solve keeps it; ``retained_by_attribute`` gives the ``nbytes`` of each
array or sparse matrix in ``vars(grid)`` after ``operators()`` (the fields
of a named tuple, such as ``_ops.interior``, one by one, and a sparse
matrix as its data, indices and indptr; an array held under two names,
``_edge`` and ``_ops.edge``, is listed under each).  Each process also
hashes (SHA-256 over dtype, shape and bytes, integer arrays widened to
int64 so that a change of index width leaves their digests alone) what
both sides of ``--parent`` compute alike: the domain's boundary samples
(points, normals, kappa, arclength) and a level set's traced
polyline, the five stencils of a fixed smooth field (``Evaluation``'s
second differences and slopes),
``data``, ``indices`` and ``indptr`` of the first Newton Jacobian of the
H = 0.4 cap (at u = 0) and of the Jacobian at the fixed field, the feet
(owner, axis, theta, point, arclength), the classification
(``interior_ij``, ``ghost_ij``), the numbering (``node_id``, ``ghost_id``,
``interior_xy``, ``core_mask``), ``_cross_one_sided``, ``_cross_quadrant``
and the flags; ``identical`` compares the parent's digests with this
checkout's and ``differing_digests`` names those that differ.  A change
that moves the feet by rounding shows in ``max_foot_difference``: the
largest difference between the checkouts of the feet's theta, point
(either coordinate) and arclength (along the boundary), or null where
their links differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import _parent
from _parent import ROOT

STEPS = {"classify": "_classify", "intercepts": "_find_intercepts",
         "closures": "_close_ghosts", "cross": "_choose_cross_stencils",
         "operators": "operators"}
# the domain build, then the grid's steps and its J(0) LU
TIMED = ("domain", *STEPS, "laplacian_lu")
LEVELSET_EXPR = "1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36"
DOMAINS = {
    "disk": ("disk", {"radius": 1.0}),
    "ellipse": ("ellipse", {"a": 1.2, "b": 0.7}),
    "rounded_rect": ("rounded_rect", {"hx": 1.0, "hy": 0.6, "corner_radius": 0.25}),
    "annulus": ("annulus", {"r_in": 0.8, "r_out": 1.6}),
    "dumbbell": ("dumbbell", {"waist": 1.0, "spread": 1.3}),
    "levelset": ("levelset", {"expr": LEVELSET_EXPR, "bbox": (-1.1, 1.1, -1.0, 1.0)}),
}


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        if a.dtype.kind in "iu":        # integers by value, whatever their width
            a = a.astype(np.int64)
        sha.update(f"{a.dtype.str}{a.shape}".encode())
        sha.update(a.tobytes())
    return sha.hexdigest()


def _foot_difference(paths) -> dict | None:
    """The largest |parent - this| of the feet's theta, point and
    arclength, from the feet each checkout saved; None unless both have the
    same links."""
    with np.load(paths[0]) as a, np.load(paths[1]) as b:
        if not all(np.array_equal(a[k], b[k]) for k in ("owner", "axis")):
            return None
        ds = np.abs(a["s"] - b["s"])
        ds = np.minimum(ds, float(a["length"]) - ds)
        return {"theta": float(np.max(np.abs(a["theta"] - b["theta"]), initial=0.0)),
                "point": float(np.max(np.abs(a["xy"] - b["xy"]), initial=0.0)),
                "arclength": float(np.max(ds, initial=0.0))}


def _nbytes(value) -> int | None:
    """The bytes of an array or a sparse matrix, None for anything else."""
    if sps.issparse(value):
        return value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return value.nbytes if isinstance(value, np.ndarray) else None


def _retained_by_attribute(grid) -> dict:
    """The nbytes of each array or sparse matrix the grid holds, by name."""
    out = {}
    for key, value in vars(grid).items():
        parts = value._asdict() if hasattr(value, "_asdict") else {"": value}
        for field, part in parts.items():
            n = _nbytes(part)
            if n is not None:
                out[f"{key}.{field}" if field else key] = n
    return out


def _memory_mb() -> dict:
    """VmHWM and VmRSS of this process, in MB."""
    with open("/proc/self/status") as status:
        fields = dict(line.split(":", 1) for line in status)
    return {k: int(fields[k].split()[0]) / 1024 for k in ("VmHWM", "VmRSS")}


def _measure(root: str, domain: str, N: int, calls: int, feet_path: str) -> dict:
    sys.path.insert(0, str(Path(root) / "src"))
    import mcgraph
    from mcgraph import Evaluation, Grid, PrescribedCurvature, ScalarField

    seconds = {}

    def timed(step, method):
        def wrapper(self, *args, **kwargs):
            first = step != "operators" or self._ops is None
            t0 = time.perf_counter()
            out = method(self, *args, **kwargs)
            if first:
                seconds[step] = min(seconds.get(step, float("inf")),
                                    time.perf_counter() - t0)
            return out
        return wrapper

    originals = {name: getattr(Grid, name) for name in STEPS.values()}
    for step, name in STEPS.items():
        setattr(Grid, name, timed(step, originals[name]))
    factory, params = DOMAINS[domain]
    make = getattr(mcgraph, factory)
    for _ in range(calls):
        t0 = time.perf_counter()
        dom = make(**params)
        seconds["domain"] = min(seconds.get("domain", float("inf")), time.perf_counter() - t0)
    for _ in range(calls):
        grid = Grid(dom, 1.0 / N)
        grid.operators()
    for name, method in originals.items():
        setattr(Grid, name, method)

    # the LUs come after the steps: the large blocks a factorization frees
    # raise glibc's mmap threshold, which changes how fast later steps run.
    # Both checkouts call splu through scipy's module attribute
    splu, lu = spla.splu, {}
    laplacian_lu = getattr(mcgraph.linear, "laplacian_lu", lambda grid: grid.laplacian_lu)

    def first_splu(A, **kwargs):
        if lu:
            return splu(A, **kwargs)
        before = _memory_mb()
        superlu = splu(A, **kwargs)
        after = _memory_mb()
        lu.update(lu_nnz=superlu.nnz, lu_transient_mb=after["VmHWM"] - after["VmRSS"],
                  lu_headroom_mb=before["VmHWM"] - before["VmRSS"])
        return superlu

    spla.splu = first_splu
    for _ in range(calls):
        grid = None             # one grid and its LU alive at a time
        grid = Grid(dom, 1.0 / N)
        grid.operators()
        gc.collect()
        t0 = time.perf_counter()
        laplacian_lu(grid)
        seconds["laplacian_lu"] = min(seconds.get("laplacian_lu", float("inf")),
                                      time.perf_counter() - t0)
    spla.splu = splu

    H = PrescribedCurvature.constant(0.4)
    field = ScalarField.from_callable(
        grid, lambda x, y: np.sin(3.0 * x + 1.0) * np.cos(2.0 * y - 0.5) + 0.3 * x * y)
    ev = Evaluation(field, H, 2, 0.75)
    digests = {name: _digest(np.ascontiguousarray(a)) for name, a in (
        ("uxx", ev.uxx), ("uyy", ev.uyy), ("uxy", ev.uxy), ("ux", ev.p[:, 0]),
        ("uy", ev.p[:, 1]))}
    first = Evaluation(ScalarField.zeros(grid), H, 2, 1.0).jacobian()
    for label, J in (("J0", first), ("J", ev.jacobian())):
        for attr in ("data", "indices", "indptr"):
            digests[f"{label}.{attr}"] = _digest(getattr(J, attr))
    digests["feet"] = _digest(grid.foot_owner, grid.foot_axis, grid.foot_theta,
                              grid.foot_xy, grid.foot_s)
    digests["classification"] = _digest(grid.interior_ij, grid.ghost_ij)
    digests["numbering"] = _digest(grid.node_id, grid.ghost_id, grid.interior_xy, grid.core_mask)
    b = dom.boundary
    digests["boundary"] = _digest(b.points, b.normals, b.kappa, b.arclength)
    if hasattr(dom.shape, "_polyline"):
        digests["polyline"] = _digest(dom.shape._polyline)
    np.savez(feet_path, owner=grid.foot_owner, axis=grid.foot_axis, theta=grid.foot_theta,
             xy=grid.foot_xy, s=grid.foot_s, length=dom.boundary.total_length)
    for attr in ("_cross_one_sided", "_cross_quadrant"):
        digests[attr] = _digest(getattr(grid, attr))
    digests["flags"] = hashlib.sha256(json.dumps(grid.flags).encode()).hexdigest()

    del grid, field, ev, first, J
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    grid = Grid(dom, 1.0 / N)
    grid.operators()
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - base
    by_attribute = _retained_by_attribute(grid)
    grid.pattern()
    gc.collect()
    solving = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    return {"seconds": seconds, **lu, "n_interior": grid.n_interior, "retained_bytes": retained,
            "retained_bytes_solving": solving, "retained_by_attribute": by_attribute,
            "digests": digests}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--calls", type=int, default=5)
    ap.add_argument("--spacings", default="32,64,128,256",
                    help="the N of each spacing h = 1/N for the six domains")
    ap.add_argument("--out", default=str(ROOT / "BENCH_grid.json"))
    ap.add_argument("--one", nargs=5, metavar=("ROOT", "DOMAIN", "N", "CALLS", "FEET"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        root, domain, N, calls, feet_path = args.one
        print(json.dumps(_measure(root, domain, int(N), int(calls), feet_path)))
        return 0
    cases = [(domain, int(N)) for N in args.spacings.split(",") for domain in DOMAINS]
    cases.append(("disk", 512))
    results = {}
    with _parent.checkouts(args.parent) as (rev, checkouts), \
            tempfile.TemporaryDirectory() as tmp:
        for domain, N in cases:
            feet = {name: Path(tmp) / f"{domain}-{N}-{name}.npz" for name in checkouts}
            runs = _parent.alternate(checkouts, args.repeats, lambda name, r: _parent.fresh(
                __file__, checkouts[name], domain, N, args.calls, feet[name]))
            entry = {"n_interior": runs["this"][0]["n_interior"]}
            for name, rows in runs.items():
                entry[name] = {
                    "seconds_median": {s: statistics.median(row["seconds"][s] for row in rows)
                                       for s in TIMED},
                    "seconds_runs": {s: [row["seconds"][s] for row in rows] for s in TIMED},
                    "retained_bytes": statistics.median(row["retained_bytes"] for row in rows),
                    "retained_bytes_solving": statistics.median(
                        row["retained_bytes_solving"] for row in rows),
                    "retained_by_attribute": rows[0]["retained_by_attribute"],
                    "lu_nnz": rows[0]["lu_nnz"],
                    "lu_transient_mb": statistics.median(row["lu_transient_mb"] for row in rows),
                    "lu_transient_mb_runs": [row["lu_transient_mb"] for row in rows],
                    "lu_headroom_mb": max(row["lu_headroom_mb"] for row in rows)}
            parent_digests = runs["parent"][0]["digests"]
            entry["identical"] = all(row["digests"] == parent_digests
                                     for rows in runs.values() for row in rows)
            entry["differing_digests"] = sorted(
                {k for rows in runs.values() for row in rows
                 for k, v in row["digests"].items() if parent_digests.get(k) != v})
            entry["max_foot_difference"] = _foot_difference([feet["parent"], feet["this"]])
            results[f"{domain} 1/{N}"] = entry
            p, t = entry["parent"], entry["this"]
            print(f"{domain:13s} 1/{N:<4} domain {1e3 * p['seconds_median']['domain']:.1f}"
                  f" -> {1e3 * t['seconds_median']['domain']:.1f} ms, classify "
                  f"{1e3 * p['seconds_median']['classify']:.1f} -> "
                  f"{1e3 * t['seconds_median']['classify']:.1f} ms, operators "
                  f"{1e3 * p['seconds_median']['operators']:.1f}"
                  f" -> {1e3 * t['seconds_median']['operators']:.1f} ms, J(0) LU "
                  f"{1e3 * p['seconds_median']['laplacian_lu']:.1f} -> "
                  f"{1e3 * t['seconds_median']['laplacian_lu']:.1f} ms, transient "
                  f"{p['lu_transient_mb']:.1f} -> {t['lu_transient_mb']:.1f} MB, retained "
                  f"{p['retained_bytes'] / 2**20:.1f} -> {t['retained_bytes'] / 2**20:.1f} MB, "
                  f"with pattern {p['retained_bytes_solving'] / 2**20:.1f} -> "
                  f"{t['retained_bytes_solving'] / 2**20:.1f} MB, identical {entry['identical']}, "
                  f"feet moved by {entry['max_foot_difference']}", flush=True)
    totals = {name: {**{s: sum(e[name]["seconds_median"][s] for e in results.values())
                        for s in TIMED},
                     **{b: sum(e[name][b] for e in results.values())
                        for b in ("retained_bytes", "retained_bytes_solving")},
                     "retained_by_attribute": dict(sum(
                         (Counter(e[name]["retained_by_attribute"]) for e in results.values()),
                         Counter()).most_common())}
              for name in ("parent", "this")}
    _parent.write(args.out, {
        "benchmark": "Domain construction, grid construction steps, the stencil operator "
                     "build, the J(0) LU (seconds, nnz and transient memory) and the "
                     "bytes a grid retains on the domain_grids domains and "
                     "the disk at 1/512 against a parent commit: least seconds of --calls "
                     "builds per process, median over the repeats, one fresh process per "
                     "case, checkout and repeat",
        "machine": _parent.machine(),
        "parent": rev,
        "repeats": args.repeats,
        "calls": args.calls,
        "totals": totals,
        "all_identical": all(e["identical"] for e in results.values()),
        "results": results,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
