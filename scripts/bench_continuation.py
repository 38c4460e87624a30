"""Continuation benchmark: the Newton and linear-layer work, the time and the
answers of the solves against a parent commit, each case in a fresh process.

    python3 scripts/bench_continuation.py [--parent REV] [--repeats 3]
                                          [--cases sweep,bump_legs,...]
                                          [--draws 160] [--out BENCH_continuation.json]

The parent and this checkout take turns as `_parent` describes.  The cases
are

* ``sweep``: the nine caps H = 0.05, 0.10, ..., 0.45 with zero data on one
  h = 1/32 disk grid, in that order (the perfbench ``curvature_sweep``);
* ``bump_legs``: the two A8 legs, H = 0.55 and then H = 0.45, with the A8
  bump data (y0 = (1, 0), width 0.1, height 0.05) on one h = 1/24 and one
  h = 1/48 grid, each leg solving on both grids in turn;
* ``cap_64``, ``cap_128``, ``cap_256``: the H = 0.4 cap on the unit disk at
  h = 1/64, 1/128, 1/256, on a grid of its own;
* ``scherk``: Scherk's minimal graph, H = 0 with its trace on the square
  ``rect(0.6, 0.6)`` (the A3 problem), at h = 1/64 and then 1/128;
* ``near_critical``: zero data on one h = 1/128 disk grid at H = 0.93 and
  then 0.95, near the discrete fold, where a solve factorizes Jacobians of
  its own;
* ``sample``: ``--draws`` solves of constant H in [-1.5, 1.5] with
  ``BumpData`` of width 0.05-1 and height in [-0.5, 0.5] centred at a
  uniform angle on the unit circle, drawn from a fixed seed; the draws
  alternate between one h = 1/12 and one h = 1/24 grid.  It is tabulated
  as (parent verdict, this verdict) pairs.

Per checkout and case it records the Newton steps, the Krylov iterations,
the factorizations and the float64 ones among them, the ``splu`` and
``SuperLU.solve`` calls (counted by a wrapper of
``scipy.sparse.linalg.splu``), the stages (tau, steps) of each solve, the
longest stage of the case in Newton steps (``max_stage_iterations``, read
from the trace rows, so a leap that did not converge counts too), the
verdicts, a sha256 of each solve's field, the seconds spent in
``solve_dirichlet`` and the process's peak RSS; the counts and the hashes
must agree across the repeats.  ``same_fields`` says whether the hashes
agree across the checkouts.  ``max_field_difference`` is the largest
difference of a solve's field between the checkouts, over the solves that
both end converged, and ``converged_fields_beyond_1e-12`` counts those
solves whose fields differ by more than 1e-12.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import _parent
from _parent import ROOT

# name: (domain, spacings, curvatures, data); every curvature solves on
# every spacing's grid in turn
CASES = {
    "sweep": ("unit disk", (1 / 32,), tuple(0.05 * k for k in range(1, 10)), "zero"),
    "bump_legs": ("unit disk", (1 / 24, 1 / 48), (0.55, 0.45), "A8 bump"),
    "cap_64": ("unit disk", (1 / 64,), (0.4,), "zero"),
    "cap_128": ("unit disk", (1 / 128,), (0.4,), "zero"),
    "cap_256": ("unit disk", (1 / 256,), (0.4,), "zero"),
    "scherk": ("rect(0.6, 0.6)", (1 / 64, 1 / 128), (0.0,), "Scherk trace"),
    "near_critical": ("unit disk", (1 / 128,), (0.93, 0.95), "zero"),
}
SAMPLE_SEED = 20261019
_EXACT = ("newton_iterations", "krylov_iterations", "factorizations",
          "float64_factorizations", "splu_calls", "superlu_solve_calls",
          "max_stage_iterations", "stages", "verdicts", "field_sha256")


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
    domain, spacings, curvatures, data = CASES[case]
    domain = disk if domain == "unit disk" else mcgraph.rect(0.6, 0.6)
    grids = [mcgraph.Grid(domain, h) for h in spacings]
    data = {"zero": mcgraph.ZeroData(), "Scherk trace": mcgraph.scherk_trace(),
            "A8 bump": mcgraph.adversarial_boundary_data(disk, (1.0, 0.0), 0.10, 0.05)}[data]
    for H in curvatures:
        for grid in grids:
            yield grid, H, data


def _measure(root: str, case: str, draws: int, fields_path: str) -> dict:
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
    seconds, fields = 0.0, []
    row = {"newton_iterations": [], "krylov_iterations": 0, "factorizations": 0,
           "float64_factorizations": 0, "max_stage_iterations": 0, "stages": [],
           "verdicts": [], "field_sha256": []}
    for grid, H, data in _solves(mcgraph, case, draws):
        t0 = time.perf_counter()
        report = mcgraph.solve_dirichlet(grid, mcgraph.PrescribedCurvature.constant(H),
                                         data, n=2)
        seconds += time.perf_counter() - t0
        row["newton_iterations"].append(report.iterations)
        row["krylov_iterations"] += report.krylov_iterations
        row["factorizations"] += report.factorizations
        # a checkout without the float32 factor reports no fallback count
        row["float64_factorizations"] += getattr(report, "float64_factorizations", 0)
        row["max_stage_iterations"] = max([row["max_stage_iterations"],
                                           *(r["iter"] for r in report.trace)])
        row["stages"].append([[s.tau, s.iters] for s in report.stages])
        row["verdicts"].append(report.verdict)
        row["field_sha256"].append(hashlib.sha256(report.field.values.tobytes()).hexdigest())
        fields.append(report.field.values)
    np.savez(fields_path, *fields)
    return {**row, **counts, "solve_s": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


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
    results = {}
    with _parent.checkouts(args.parent) as (rev, checkouts), \
            tempfile.TemporaryDirectory() as tmp:
        for case in args.cases.split(","):
            fields = {name: Path(tmp) / f"{case}-{name}.npz" for name in checkouts}
            runs = _parent.alternate(
                checkouts, args.repeats,
                lambda name, r: _parent.fresh(__file__, checkouts[name], case, args.draws,
                                              fields[name]))
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
                    "float64_factorizations": first["float64_factorizations"],
                    "splu_calls": first["splu_calls"],
                    "superlu_solve_calls": first["superlu_solve_calls"],
                    "max_stage_iterations": first["max_stage_iterations"],
                    "solve_s_median": statistics.median(times), "solve_s_runs": times,
                    "peak_rss_mb": statistics.median(row["peak_rss_mb"] for row in rows)}
                if case != "sample":
                    entry[name].update(verdicts=first["verdicts"], stages=first["stages"],
                                       field_sha256=first["field_sha256"])
            both = [p == t == "converged" for p, t in zip(runs["parent"][0]["verdicts"],
                                                          runs["this"][0]["verdicts"])]
            entry["same_verdicts"] = runs["parent"][0]["verdicts"] == runs["this"][0]["verdicts"]
            entry["same_fields"] = (runs["parent"][0]["field_sha256"]
                                    == runs["this"][0]["field_sha256"])
            differences = _field_differences([fields["parent"], fields["this"]], both)
            entry["max_field_difference"] = max(differences, default=0.0)
            entry["converged_fields_beyond_1e-12"] = sum(d > 1e-12 for d in differences)
            if case == "sample":
                entry.update(_sample_table(runs["parent"][0], runs["this"][0]))
            results[case] = entry
            p, t = entry["parent"], entry["this"]
            print(f"{case:9} Newton {p['newton_iterations']:5} -> {t['newton_iterations']:5}, "
                  f"Krylov {p['krylov_iterations']:5} -> {t['krylov_iterations']:5}, "
                  f"LU {p['factorizations']} -> {t['factorizations']} "
                  f"(float64 {t['float64_factorizations']}), "
                  f"splu {p['splu_calls']} -> {t['splu_calls']}, SuperLU.solve "
                  f"{p['superlu_solve_calls']} -> {t['superlu_solve_calls']}, "
                  f"longest stage {p['max_stage_iterations']} -> "
                  f"{t['max_stage_iterations']}, "
                  f"solve {p['solve_s_median']:.3f} -> {t['solve_s_median']:.3f} s, "
                  f"{p['peak_rss_mb']:.0f} -> {t['peak_rss_mb']:.0f} MB, "
                  f"same verdicts {entry['same_verdicts']}, same fields "
                  f"{entry['same_fields']}, |du| {entry['max_field_difference']:.1e}",
                  flush=True)
    _parent.write(args.out, {
        "benchmark": "continuation solves against a parent commit: nine zero-data caps "
                     "on one disk grid, the two A8 bump legs on shared grids, single caps "
                     "at fine h, Scherk's square, two near-critical caps, and a sample of "
                     "bump-data draws; one fresh process per case, checkout and repeat",
        "machine": _parent.machine(),
        "parent": rev,
        "repeats": args.repeats,
        "cases": {**{case: {"domain": domain, "h": list(h), "curvatures": list(c),
                            "data": data}
                     for case, (domain, h, c, data) in CASES.items()},
                  "sample": {"h": [1 / 12, 1 / 24], "draws": args.draws, "seed": SAMPLE_SEED,
                             "H": [-1.5, 1.5], "width": [0.05, 1.0], "eps": [-0.5, 0.5]}},
        "results": results,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
