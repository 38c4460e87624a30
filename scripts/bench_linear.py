"""Linear-layer benchmark: the work of the sparse LU and its GMRES on the
solves that share a grid and on single cap solves at fine spacings, against
a parent commit, each case in a fresh process.

    python3 scripts/bench_linear.py [--parent REV] [--repeats 3]
                                    [--cases sweep,bump_legs,...] [--out BENCH_linear.json]

The parent is ``git archive REV`` of this repository unpacked in a temporary
directory (default ``HEAD``: the working tree's change against its last
commit; pass ``HEAD~1`` once the change is committed).  For every case the
parent and this checkout take turns, one fresh process at a time and each
going first in every other repeat, so that a drift of the host's speed falls
on both alike.  The cases are

* ``sweep``: the nine caps H = 0.05, 0.10, ..., 0.45 with zero data on one
  h = 1/32 disk grid, in that order (the perfbench ``curvature_sweep``);
* ``bump_legs``: the two A8 legs, H = 0.55 and then H = 0.45, with the A8
  bump data (y0 = (1, 0), width 0.1, height 0.05) on one h = 1/24 and one
  h = 1/48 grid, each leg solving on both grids in turn (the perfbench
  ``nonexistence_pair``);
* ``cap_64``, ``cap_128``, ``cap_256``: the H = 0.4 cap on the unit disk at
  h = 1/64, 1/128, 1/256, on a grid of its own.

Per checkout and case it records the ``splu`` calls, the ``SuperLU.solve``
calls, the solves' factorizations and Krylov iterations, the best and the
median of the seconds spent in ``solve_dirichlet``, the process's peak RSS,
and a sha256 of each solve's field.  The counts and the hashes must agree
across the repeats of a checkout.  ``same_fields`` says whether the hashes
agree across the checkouts; for ``bump_legs``, whose second leg may start
from another LU, ``max_field_difference`` records instead the largest
difference of a solve's field from the parent's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# name: (spacings, curvatures, bump data); every curvature solves on every
# spacing's grid in turn, with zero data or the A8 bump
CASES = {
    "sweep": ((1 / 32,), tuple(0.05 * k for k in range(1, 10)), False),
    "bump_legs": ((1 / 24, 1 / 48), (0.55, 0.45), True),
    "cap_64": ((1 / 64,), (0.4,), False),
    "cap_128": ((1 / 128,), (0.4,), False),
    "cap_256": ((1 / 256,), (0.4,), False),
}


def _measure(root: str, case: str) -> dict:
    sys.path.insert(0, str(Path(root) / "src"))
    import scipy.sparse.linalg as spla
    import mcgraph

    counts = {"splu_calls": 0, "superlu_solve_calls": 0}
    splu = spla.splu

    class Counted:
        """A SuperLU factor whose solves are counted."""

        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            counts["superlu_solve_calls"] += 1
            return self._lu.solve(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    def counted_splu(*args, **kwargs):
        counts["splu_calls"] += 1
        return Counted(splu(*args, **kwargs))

    spla.splu = counted_splu
    spacings, curvatures, bump = CASES[case]
    domain = mcgraph.disk(1.0)
    grids = [mcgraph.Grid(domain, h) for h in spacings]
    data = (mcgraph.adversarial_boundary_data(domain, (1.0, 0.0), 0.10, 0.05) if bump
            else mcgraph.ZeroData())
    seconds, hashes, verdicts, fields = 0.0, [], [], []
    factorizations = krylov = iterations = 0
    for H in curvatures:
        for grid in grids:
            t0 = time.perf_counter()
            report = mcgraph.solve_dirichlet(grid, mcgraph.PrescribedCurvature.constant(H),
                                             data, n=2)
            seconds += time.perf_counter() - t0
            hashes.append(hashlib.sha256(report.field.values.tobytes()).hexdigest())
            verdicts.append(report.verdict)
            factorizations += report.factorizations
            krylov += report.krylov_iterations
            iterations += report.iterations
            if bump:
                fields.append(report.field.values.tolist())
    return {**counts, "factorizations": factorizations, "krylov_iterations": krylov,
            "newton_iterations": iterations, "verdicts": verdicts, "solve_s": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "field_sha256": hashes, "fields": fields}


_EXACT = ("splu_calls", "superlu_solve_calls", "factorizations", "krylov_iterations",
          "newton_iterations", "verdicts", "field_sha256")


def _run(root: Path, case: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--one", str(root), case],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cases", default=",".join(CASES))
    ap.add_argument("--out", default=str(ROOT / "BENCH_linear.json"))
    ap.add_argument("--one", nargs=2, metavar=("ROOT", "CASE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(_measure(*args.one)))
        return 0
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
                         capture_output=True, text=True).stdout.strip()
    cases = args.cases.split(",")
    results = {case: {} for case in cases}
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        checkouts = {"parent": parent_root, "this": ROOT}
        for case in cases:
            runs = {name: [] for name in checkouts}
            for r in range(args.repeats):
                order = list(checkouts) if r % 2 == 0 else list(reversed(checkouts))
                for name in order:
                    runs[name].append(_run(checkouts[name], case))
            for name, rows in runs.items():
                first = rows[0]
                if any(row[k] != first[k] for row in rows for k in _EXACT):
                    raise SystemExit(f"{case}, {name}: the repeats disagree")
                times = [row["solve_s"] for row in rows]
                results[case][name] = {
                    **{k: first[k] for k in _EXACT},
                    "solve_s_best": min(times), "solve_s_median": statistics.median(times),
                    "solve_s_runs": times,
                    "peak_rss_mb": statistics.median(row["peak_rss_mb"] for row in rows),
                }
                r = results[case][name]
                print(f"{case:9} {name:6} splu {r['splu_calls']:2}, SuperLU.solve "
                      f"{r['superlu_solve_calls']:4}, Krylov {r['krylov_iterations']:4}, "
                      f"solve {r['solve_s_best']:.3f} s (median {r['solve_s_median']:.3f}), "
                      f"{r['peak_rss_mb']:.1f} MB", flush=True)
            if CASES[case][2]:
                first = [np.array(f) for f in runs["parent"][0]["fields"]]
                results[case]["max_field_difference"] = max(
                    float(np.max(np.abs(np.array(f) - f0), initial=0.0))
                    for rows in runs.values() for f, f0 in zip(rows[0]["fields"], first))
            else:
                hashes = {name: results[case][name]["field_sha256"] for name in checkouts}
                results[case]["same_fields"] = len({json.dumps(v) for v in hashes.values()}) == 1
    import scipy
    doc = {
        "benchmark": "solves on the unit disk against a parent commit: nine zero-data "
                     "caps on one grid, the two A8 bump legs on shared grids, single caps "
                     "at fine h; one fresh process per case, checkout and repeat",
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__},
        "parent": rev,
        "repeats": args.repeats,
        "cases": {case: {"h": list(CASES[case][0]), "curvatures": list(CASES[case][1]),
                         "data": "A8 bump" if CASES[case][2] else "zero"}
                  for case in cases},
        "results": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
