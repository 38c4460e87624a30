"""Artifact benchmark: the seconds of each of the four writers of
``mcgraph run`` on the cap, and the bytes they write, against a parent
commit, each run in a fresh process.

    python3 scripts/bench_artifacts.py [--parent REV] [--repeats 3] [--calls 5]
                                       [--spacings 16,32,64,128,256]
                                       [--out BENCH_artifacts.json]

For every spacing h = 1/N the parent and this checkout take turns as
`_parent` describes.  A process runs
``mcgraph run --config configs/cap.ini --grid-h h`` through
``mcgraph.cli.main`` with ``write_report``, ``write_traces_csv``,
``write_fields_csv`` and ``write_heatmap_svg`` wrapped: each call of a
writer is made ``--calls`` times over on the same arguments, and the least
of those seconds is its time in that process.  The table gives the median
over the repeats.

Every artifact of the first repeat is compared byte for byte between the
checkouts; report.json is compared as parsed JSON less
``wall_time_seconds``, the one field that is allowed to differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import _parent
from _parent import ROOT

WRITERS = ("write_report", "write_traces_csv", "write_fields_csv", "write_heatmap_svg")
ARTIFACTS = ("report.json", "traces.csv", "fields.csv", "heatmap.svg")


def _measure(root: str, h: float, calls: int, outdir: str) -> dict:
    sys.path.insert(0, str(Path(root) / "src"))
    import mcgraph.cli as cli

    seconds = {}

    def timed(name, writer):
        def wrapper(*args, **kwargs):
            best = float("inf")
            for _ in range(calls):
                t0 = time.perf_counter()
                writer(*args, **kwargs)
                best = min(best, time.perf_counter() - t0)
            seconds[name] = best
        return wrapper

    for name in WRITERS:
        setattr(cli, name, timed(name, getattr(cli, name)))
    code = cli.main(["run", "--config", str(Path(root) / "configs" / "cap.ini"),
                     "--grid-h", repr(h), "--out", outdir, "--quiet"])
    if code != cli.EXIT_OK:
        raise SystemExit(f"mcgraph run exited {code} at h = {h!r}")
    return {"seconds": seconds,
            "bytes": {name: os.path.getsize(Path(outdir) / name) for name in ARTIFACTS}}


def _identical(a: Path, b: Path) -> dict:
    """Per artifact: equal bytes, or for report.json equal JSON less the wall time."""
    same = {}
    for name in ARTIFACTS:
        if name == "report.json":
            pa, pb = (json.loads((d / name).read_text()) for d in (a, b))
            pa.pop("wall_time_seconds")
            pb.pop("wall_time_seconds")
            same[name] = pa == pb
        else:
            same[name] = (a / name).read_bytes() == (b / name).read_bytes()
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--calls", type=int, default=5)
    ap.add_argument("--spacings", default="16,32,64,128,256",
                    help="the N of each spacing h = 1/N")
    ap.add_argument("--out", default=str(ROOT / "BENCH_artifacts.json"))
    ap.add_argument("--one", nargs=4, metavar=("ROOT", "H", "CALLS", "OUTDIR"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        root, h, calls, outdir = args.one
        print(json.dumps(_measure(root, float(h), int(calls), outdir)))
        return 0
    results = {}
    with _parent.checkouts(args.parent) as (rev, checkouts), \
            tempfile.TemporaryDirectory() as tmp:
        for N in (int(s) for s in args.spacings.split(",")):
            runs = _parent.alternate(checkouts, args.repeats, lambda name, r: _parent.fresh(
                __file__, checkouts[name], repr(1.0 / N), args.calls,
                Path(tmp) / f"{N}-{name}-{r}"))
            entry = {}
            for name, rows in runs.items():
                entry[name] = {
                    "seconds_median": {w: statistics.median(row["seconds"][w] for row in rows)
                                       for w in WRITERS},
                    "seconds_runs": {w: [row["seconds"][w] for row in rows] for w in WRITERS},
                    "bytes": rows[0]["bytes"]}
            entry["identical"] = _identical(Path(tmp) / f"{N}-parent-0", Path(tmp) / f"{N}-this-0")
            results[f"1/{N}"] = entry
            p, t = entry["parent"]["seconds_median"], entry["this"]["seconds_median"]
            print(f"h = 1/{N:<4}" + ", ".join(
                f"{w[6:]} {1e3 * p[w]:.1f} -> {1e3 * t[w]:.1f} ms" for w in WRITERS)
                + f", identical {all(entry['identical'].values())}", flush=True)
    _parent.write(args.out, {
        "benchmark": "the four artifact writers of `mcgraph run` on the H = 0.4 cap "
                     "(configs/cap.ini with --grid-h) against a parent commit: least "
                     "seconds of --calls calls per process, median over the repeats, "
                     "one fresh process per spacing, checkout and repeat",
        "machine": _parent.machine(),
        "parent": rev,
        "repeats": args.repeats,
        "calls": args.calls,
        "results": results,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
