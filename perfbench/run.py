"""mcgraph benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cap_refinement --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
This process stays light (no numpy): it caps the BLAS thread pools at the
number of usable cores, starts ``worker.py`` processes and times their
set-up from process start to the ``ready`` line.  Two set-up-only workers
run first; the third worker sets up the same way and then runs the
workload.  ``setup_s`` is the median of the three set-ups, each at the
reference pace (times the speed the worker measured right after it).

With ``--trace 0`` the last line carries the end-to-end metrics
(paced_wall_s, setup_s, peak_rss_mb); with ``--trace 1`` the per-layer
metrics of a traced round.  Exits 2 without a result when the program's
sources are missing or a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cap_refinement", "nonexistence_pair", "domain_grids", "curvature_sweep")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "MCGRAPH_THREADS")


class BenchError(RuntimeError):
    pass


def _start(argv, env):
    return subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=str(ROOT),
                            env=env, stdout=subprocess.PIPE, text=True)


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _read_line(proc, deadline):
    """Next line of the worker's output, "" once it has closed its output."""
    left = deadline - time.perf_counter()
    if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
        raise BenchError("worker overran the deadline")
    return proc.stdout.readline()


def _timed_setup(proc, t0, deadline):
    """Set-up time from process start to 'ready', and the speed the worker
    measured right after it."""
    line = _read_line(proc, deadline).strip()
    if line != "ready":
        raise BenchError(f"worker said {line!r} instead of 'ready' (exit code {proc.wait()})")
    setup = time.perf_counter() - t0
    words = _read_line(proc, deadline).split()
    if len(words) != 2 or words[0] != "speed":
        raise BenchError(f"worker said {' '.join(words)!r} instead of its speed")
    return setup, float(words[1])


def measure(args, env, deadline):
    common = ["--seed", str(args.seed), "--trace", str(args.trace)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        t0 = time.perf_counter()
        proc = _start(["--setup-only", *common], env)
        try:
            setups.append(_timed_setup(proc, t0, deadline))
            if proc.wait(timeout=max(1.0, deadline - time.perf_counter())) != 0:
                raise BenchError("set-up worker failed")
        finally:
            _stop(proc)
    argv = ["--workload", args.workload, "--seconds", str(args.seconds), *common]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.perf_counter()
    proc = _start(argv, env)
    try:
        setups.append(_timed_setup(proc, t0, deadline))
        lines = []
        while line := _read_line(proc, deadline):
            lines.append(line.strip())
        if proc.wait() != 0 or not lines:
            raise BenchError(f"workload worker exited with code {proc.returncode}")
    finally:
        _stop(proc)
    result = json.loads(lines[-1])
    result["setups_s"] = [t for t, _ in setups]
    result["setup_s"] = statistics.median(t * speed for t, speed in setups)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-tests")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "mcgraph" / "__init__.py").is_file():
        print(f"no mcgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({knob: threads for knob in THREAD_KNOBS})
    try:
        result = measure(args, env, deadline)
    except (BenchError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "paced_wall_s": {"value": result["paced_wall_s"], "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"round walls {result['plain_walls_s']}, paced {result['paced_walls_s']}, "
          f"pace {result['pace_s']}, set-ups {result['setups_s']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
