"""One benchmark process: set up mcgraph, then run rounds of one workload.

Started by run.py, never imported by it.  The set-up (``import mcgraph`` and
the first ``mcgraph.reference.catalog()`` call, whose self-test builds eight
small grids) ends with a line ``ready`` on standard output, so the parent can
time it from process start.  A line ``speed <s>`` follows: the reference
pace over the host's pace, from twelve passes of the pace kernel (the first
two dropped).  With ``--setup-only`` the process stops there.
Otherwise it runs floor(``--seconds`` / the workload's nominal round
length) whole rounds of the workload (at least one; with ``--trace 1`` at
least two, untraced and traced in turn), and prints one JSON line.  Each
untraced round also samples the host's pace (`pace.py`) beside its calls.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _setup(traced: bool):
    sys.path.insert(0, str(SRC))
    import mcgraph
    if Path(mcgraph.__file__).resolve().parent != SRC / "mcgraph":
        raise ImportError(f"mcgraph imported from {mcgraph.__file__}, not from {SRC}")
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    mcgraph.reference.catalog()
    return tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = _setup(bool(args.trace))
    print("ready", flush=True)
    # the host's pace just after set-up, as reference pace / measured pace;
    # the first passes also warm the kernel's caches before any round
    import pace
    host_pace = pace.Pace()
    passes = [host_pace.sample() for _ in range(12)]
    print(f"speed {pace.REF_S / statistics.median(passes[2:])!r}", flush=True)
    if args.setup_only:
        return 0

    import workloads
    run = workloads.WORKLOADS[args.workload]
    sizes = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    run_dir = HERE / "_runs"
    run_dir.mkdir(parents=True, exist_ok=True)

    if tracer is not None:
        tracer.uninstall()          # keep the set-up spans; traced rounds re-install
    rounds = max(1, int(args.seconds // workloads.ROUND_S[args.workload]))
    if args.trace:
        rounds = max(2, rounds)
    plain_walls, paced_walls, traced_walls, paces = [], [], [], []
    attempted = failed = 0
    failures = []
    traced_round = None
    for k in range(rounds):
        trace_this = bool(args.trace) and k % 2 == 1
        rnd = workloads.Round(pace=None if trace_this else host_pace)
        if trace_this:
            # the first traced round feeds the per-layer metrics; later ones
            # only time the tracing overhead
            rnd.tracer = tracer if traced_round is None else Tracer()
            rnd.tracer.phase = "round"
            rnd.tracer.install()
        try:
            failures += run(rnd, args.seed, sizes, run_dir)
        finally:
            if rnd.tracer is not None:
                rnd.tracer.uninstall()
        attempted += rnd.attempted
        failed += rnd.failed
        if trace_this:
            traced_walls.append(rnd.wall)
            if traced_round is None:
                traced_round = rnd.wall
        else:
            plain_walls.append(rnd.wall)
            paced_walls.append(rnd.paced_wall)
            paces += rnd.paces

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "plain_walls_s": plain_walls,
        "paced_walls_s": paced_walls,
        "paced_wall_s": statistics.median(paced_walls),
        "pace_s": statistics.median(paces),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        result["per_layer"] = tracer.summary(traced_round, overhead)
        trace_path = run_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "traced_wall_s": traced_round,
                                 "plain_walls_s": plain_walls,
                                 "traced_walls_s": traced_walls})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "MCGRAPH_THREADS"):
        os.environ.setdefault(knob, str(len(os.sched_getaffinity(0))))
    sys.exit(main())
