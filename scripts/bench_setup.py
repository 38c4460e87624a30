"""Set-up benchmark: `import mcgraph`, then the first `mcgraph.reference.catalog()`
(whose self-test builds eight small grids), each timed in a fresh process.

    python3 scripts/bench_setup.py [--parent REV] [--repeats 7]
                                   [--out BENCH_setup.json]

The parent and this checkout take turns as `_parent` describes.  Per
checkout the best of the repeats is reported for:

* ``import_s``: ``import mcgraph``;
* ``catalog_s``: the first ``catalog()`` call;
* ``process_s``: the whole process, from its start to its exit;
* ``peak_rss_mb``: the process's ``ru_maxrss`` after the catalog;

and ``heavy_modules`` lists which of sympy and mpmath the process had
imported by then.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import _parent
from _parent import ROOT


def _measure(root: str) -> dict:
    sys.path.insert(0, str(Path(root) / "src"))
    t0 = time.perf_counter()
    import mcgraph
    t1 = time.perf_counter()
    mcgraph.reference.catalog()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "catalog_s": t2 - t1,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "heavy_modules": sorted(m for m in ("sympy", "mpmath") if m in sys.modules)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "BENCH_setup.json"))
    ap.add_argument("--one", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(_measure(args.one)))
        return 0
    with _parent.checkouts(args.parent) as (rev, checkouts):
        def run(name, r):
            t0 = time.perf_counter()
            row = _parent.fresh(__file__, checkouts[name])
            return {**row, "process_s": time.perf_counter() - t0}

        runs = _parent.alternate(checkouts, args.repeats, run)
    results = {}
    for name, rows in runs.items():
        best = {k: min(r[k] for r in rows)
                for k in ("import_s", "catalog_s", "process_s", "peak_rss_mb")}
        best["heavy_modules"] = rows[-1]["heavy_modules"]
        best["runs"] = rows
        results[name] = best
        print(f"{name:10} import {best['import_s']:.3f} s, catalog {best['catalog_s']:.3f} s, "
              f"process {best['process_s']:.3f} s, {best['peak_rss_mb']:.1f} MB, "
              f"imports {best['heavy_modules'] or 'neither sympy nor mpmath'}", flush=True)
    _parent.write(args.out, {
        "benchmark": "import mcgraph, then the first reference.catalog(), in fresh processes",
        "machine": _parent.machine(),
        "parent": rev,
        "repeats": args.repeats,
        "results": results,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
