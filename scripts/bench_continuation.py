"""Continuation benchmark: the Newton work, the time and the answers of the
solves against a parent commit, each case in a fresh process.

    python3 scripts/bench_continuation.py [--parent REV] [--repeats 3]
                                          [--cases sweep,bump_legs,...]
                                          [--draws 160] [--out BENCH_continuation.json]

The parent is ``git archive REV`` of this repository unpacked in a temporary
directory (default ``HEAD``: the working tree's change against its last
commit; pass ``HEAD~1`` once the change is committed).  The parent and this
checkout take turns, one fresh process at a time and each going first in
every other repeat, so that a drift of the host's speed falls on both alike.
The cases are

* ``sweep``: the nine caps H = 0.05, 0.10, ..., 0.45 with zero data on one
  h = 1/32 disk grid, in that order (the perfbench ``curvature_sweep``);
* ``bump_legs``: the two A8 legs, H = 0.55 and then H = 0.45, with the A8
  bump data (y0 = (1, 0), width 0.1, height 0.05) on one h = 1/24 and one
  h = 1/48 grid, each leg solving on both grids in turn;
* ``cap_64``, ``cap_128``, ``cap_256``: the H = 0.4 cap on the unit disk at
  h = 1/64, 1/128, 1/256, on a grid of its own;
* ``sample``: ``--draws`` solves of constant H in [-1.5, 1.5] with
  ``BumpData`` of width 0.05-1 and height in [-0.5, 0.5] centred at a
  uniform angle on the unit circle, drawn from a fixed seed; the draws
  alternate between one h = 1/12 and one h = 1/24 grid.  It runs once per
  checkout and is tabulated as (parent verdict, this verdict) pairs.

Per checkout and case it records the Newton steps, the Krylov iterations,
the factorizations, the stages (tau, steps) of each solve, the verdicts and
the seconds spent in ``solve_dirichlet``; the counts must agree across the
repeats.  ``max_field_difference`` is the largest difference of a solve's
field between the checkouts, over the solves that both end converged, and
``converged_fields_beyond_1e-12`` counts those solves whose fields differ
by more than 1e-12.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
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
SAMPLE_SEED = 20261019
_EXACT = ("newton_iterations", "krylov_iterations", "factorizations", "stages",
          "verdicts")


def _solves(mcgraph, case: str, draws: int):
    """(grid, H, data) of each solve of the case, in order."""
    disk = mcgraph.disk(1.0)
    if case == "sample":
        grids = [mcgraph.Grid(disk, h) for h in (1 / 12, 1 / 24)]
        rng = np.random.default_rng(SAMPLE_SEED)
        for k in range(draws):
            H, angle, width, eps = (rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * np.pi),
                                    rng.uniform(0.05, 1.0), rng.uniform(-0.5, 0.5))
            data = mcgraph.BumpData(disk, (np.cos(angle), np.sin(angle)), width, eps)
            yield grids[k % 2], float(H), data
        return
    spacings, curvatures, bump = CASES[case]
    grids = [mcgraph.Grid(disk, h) for h in spacings]
    data = (mcgraph.adversarial_boundary_data(disk, (1.0, 0.0), 0.10, 0.05) if bump
            else mcgraph.ZeroData())
    for H in curvatures:
        for grid in grids:
            yield grid, H, data


def _measure(root: str, case: str, draws: int, fields_path: str) -> dict:
    sys.path.insert(0, str(Path(root) / "src"))
    import mcgraph

    seconds, fields = 0.0, []
    row = {"newton_iterations": [], "krylov_iterations": 0, "factorizations": 0,
           "stages": [], "verdicts": []}
    for grid, H, data in _solves(mcgraph, case, draws):
        t0 = time.perf_counter()
        report = mcgraph.solve_dirichlet(grid, mcgraph.PrescribedCurvature.constant(H),
                                         data, n=2)
        seconds += time.perf_counter() - t0
        row["newton_iterations"].append(report.iterations)
        row["krylov_iterations"] += report.krylov_iterations
        row["factorizations"] += report.factorizations
        row["stages"].append([[s.tau, s.iters] for s in report.stages])
        row["verdicts"].append(report.verdict)
        fields.append(report.field.values)
    np.savez(fields_path, *fields)
    return {**row, "solve_s": seconds}


def _run(root: Path, case: str, draws: int, fields_path: Path) -> dict:
    out = subprocess.run([sys.executable, __file__, "--one", str(root), case, str(draws),
                          str(fields_path)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _field_differences(paths, converged) -> list:
    """The largest |u_parent - u_this| of each solve that both ended converged."""
    with np.load(paths[0]) as a, np.load(paths[1]) as b:
        return [float(np.max(np.abs(a[f"arr_{k}"] - b[f"arr_{k}"]), initial=0.0))
                for k, ok in enumerate(converged) if ok]


def _sample_table(parent: dict, this: dict) -> dict:
    pairs = Counter(f"{p} -> {t}" for p, t in zip(parent["verdicts"], this["verdicts"]))

    def steps(row, converged):
        return sum(n for n, v in zip(row["newton_iterations"], row["verdicts"])
                   if (v == "converged") == converged)

    return {
        "verdict_pairs": dict(sorted(pairs.items())),
        "verdicts": {name: dict(Counter(row["verdicts"]))
                     for name, row in (("parent", parent), ("this", this))},
        "newton_steps_converged": {"parent": steps(parent, True), "this": steps(this, True)},
        "newton_steps_failing": {"parent": steps(parent, False), "this": steps(this, False)},
        "converged_to_failure": sum(p == "converged" != t for p, t in
                                    zip(parent["verdicts"], this["verdicts"])),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cases", default=",".join([*CASES, "sample"]))
    ap.add_argument("--draws", type=int, default=160)
    ap.add_argument("--out", default=str(ROOT / "BENCH_continuation.json"))
    ap.add_argument("--one", nargs=4, metavar=("ROOT", "CASE", "DRAWS", "FIELDS"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        root, case, draws, fields_path = args.one
        print(json.dumps(_measure(root, case, int(draws), fields_path)))
        return 0
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
                         capture_output=True, text=True).stdout.strip()
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        checkouts = {"parent": parent_root, "this": ROOT}
        for case in args.cases.split(","):
            repeats = 1 if case == "sample" else args.repeats
            runs = {name: [] for name in checkouts}
            fields = {name: Path(tmp) / f"{case}-{name}.npz" for name in checkouts}
            for r in range(repeats):
                order = list(checkouts) if r % 2 == 0 else list(reversed(checkouts))
                for name in order:
                    runs[name].append(_run(checkouts[name], case, args.draws, fields[name]))
            entry = {}
            for name, rows in runs.items():
                first = rows[0]
                if any(row[k] != first[k] for row in rows for k in _EXACT):
                    raise SystemExit(f"{case}, {name}: the repeats disagree")
                times = [row["solve_s"] for row in rows]
                entry[name] = {
                    "newton_iterations": sum(first["newton_iterations"]),
                    "krylov_iterations": first["krylov_iterations"],
                    "factorizations": first["factorizations"],
                    "solve_s_median": statistics.median(times), "solve_s_runs": times}
                if case != "sample":
                    entry[name].update(verdicts=first["verdicts"], stages=first["stages"])
            both = [p == t == "converged" for p, t in zip(runs["parent"][0]["verdicts"],
                                                          runs["this"][0]["verdicts"])]
            entry["same_verdicts"] = runs["parent"][0]["verdicts"] == runs["this"][0]["verdicts"]
            differences = _field_differences([fields["parent"], fields["this"]], both)
            entry["max_field_difference"] = max(differences, default=0.0)
            entry["converged_fields_beyond_1e-12"] = sum(d > 1e-12 for d in differences)
            if case == "sample":
                entry.update(_sample_table(runs["parent"][0], runs["this"][0]))
            results[case] = entry
            p, t = entry["parent"], entry["this"]
            print(f"{case:9} Newton {p['newton_iterations']:5} -> {t['newton_iterations']:5}, "
                  f"Krylov {p['krylov_iterations']:5} -> {t['krylov_iterations']:5}, "
                  f"LU {p['factorizations']} -> {t['factorizations']}, "
                  f"solve {p['solve_s_median']:.3f} -> {t['solve_s_median']:.3f} s, "
                  f"same verdicts {entry['same_verdicts']}, "
                  f"|du| {entry['max_field_difference']:.1e}", flush=True)
    import scipy
    doc = {
        "benchmark": "continuation solves on the unit disk against a parent commit: nine "
                     "zero-data caps on one grid, the two A8 bump legs on shared grids, "
                     "single caps at fine h, and a sample of bump-data draws; one fresh "
                     "process per case and checkout",
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__},
        "parent": rev,
        "repeats": args.repeats,
        "cases": {**{case: {"h": list(h), "curvatures": list(c),
                            "data": "A8 bump" if bump else "zero"}
                     for case, (h, c, bump) in CASES.items()},
                  "sample": {"h": [1 / 12, 1 / 24], "draws": args.draws, "seed": SAMPLE_SEED,
                             "H": [-1.5, 1.5], "width": [0.05, 1.0], "eps": [-0.5, 0.5]}},
        "results": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
