"""Self-tests of the benchmark: each check rejects a deliberately wrong answer,
and the tiny sizes run every workload end to end.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mcgraph  # noqa: E402
import checks  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402

CAP_H = 0.4


@pytest.fixture(scope="module")
def cap_solves():
    out = []
    for h in (1 / 16, 1 / 32):
        grid = mcgraph.Grid(mcgraph.disk(1.0), h)
        rep = mcgraph.solve_dirichlet(grid, mcgraph.PrescribedCurvature.constant(CAP_H),
                                      mcgraph.ZeroData(), n=2)
        out.append((h, grid.interior_xy, rep.field.values))
    return out


def _cap_errors(solves, radius=2.5, poke=None):
    errs = []
    for k, (h, xy, u) in enumerate(solves):
        u = u.copy()
        if poke is not None and k == len(solves) - 1:
            u[len(u) // 2] += poke
        errs.append(float(np.max(np.abs(u - checks.cap_height(xy[:, 0], xy[:, 1], radius)))))
    return [h for h, _, _ in solves], errs


def test_cap_solves_pass(cap_solves):
    hs, errs = _cap_errors(cap_solves)
    assert checks.check_error_order(hs, errs, checks.CAP_ERR_C) == []


def test_field_perturbed_at_one_node_is_rejected(cap_solves):
    hs, errs = _cap_errors(cap_solves, poke=1e-3)
    assert checks.check_error_order(hs, errs, checks.CAP_ERR_C)


def test_cap_of_wrong_radius_is_rejected(cap_solves):
    hs, errs = _cap_errors(cap_solves, radius=2.4)
    assert checks.check_error_order(hs, errs, checks.CAP_ERR_C)
    assert checks.check_errors_bounded(hs, errs, checks.SWEEP_ERR_C)


def test_first_order_decay_is_rejected():
    hs = [1 / 16, 1 / 32, 1 / 64]
    # small enough for the C h^2 gate at every h, but halving only as h does
    errs = [1e-6 * h * 64 for h in hs]
    assert all(e <= checks.CAP_ERR_C * h * h for h, e in zip(hs, errs))
    fails = checks.check_error_order(hs, errs, checks.CAP_ERR_C)
    assert len(fails) == 2 and all("ratio 2.000" in f for f in fails)


def _quadratic_setup(domain, h):
    grid = mcgraph.Grid(domain, h)
    q, mq = checks.quadratic(np.array([0.3, 0.5, -0.2, 0.7, -0.4, 0.9]))
    xi, yi = grid.interior_xy[:, 0], grid.interior_xy[:, 1]
    q_int, q_feet = q(xi, yi), q(grid.foot_xy[:, 0], grid.foot_xy[:, 1])
    ghost_exact = q(grid.xs[grid.ghost_ij[:, 0]], grid.ys[grid.ghost_ij[:, 1]])
    return grid, q_int, q_feet, ghost_exact, mq(xi, yi)


def _closure_fails(grid, q_int, q_feet, ghost_exact, mq_int):
    fallbacks = grid.flags["ghost_linear_fallback"]
    fails = checks.check_ghost_quadratic(grid.ghost_values(q_int, q_feet), ghost_exact,
                                         fallbacks)
    mu = mcgraph.apply_M(mcgraph.ScalarField(grid, q_int, q_feet))
    fails += checks.check_apply_M(mu, mq_int, grid.h, float(np.max(np.abs(q_int))),
                                  grid.core_mask, fallbacks)
    return fails


def test_ghost_closures_pass_on_disk():
    assert _closure_fails(*_quadratic_setup(mcgraph.disk(1.0), 1 / 16)) == []


def test_ghost_closure_with_one_weight_dropped_is_rejected():
    grid, *rest = _quadratic_setup(mcgraph.disk(1.0), 1 / 16)
    g = int(np.argmax(np.abs(grid.ghost_node_w[:, 0])))
    grid.ghost_node_w[g, 0] = 0.0          # before the stencils are built
    fails = _closure_fails(grid, *rest)
    assert len(fails) == 2


def test_three_owner_ghosts_on_annulus_are_caught():
    # lattice nodes (+-0.5, 0), (0, +-0.5) sit on the inner circle
    fails = _closure_fails(*_quadratic_setup(mcgraph.annulus(0.5, 1.0), 1 / 16))
    assert len(fails) == 2 and "4 ghost closures" in fails[0]


def test_feet_off_the_curve_are_rejected():
    grid = mcgraph.Grid(mcgraph.ellipse(1.2, 0.7), 1 / 16)
    params = {"a": 1.2, "b": 0.7}
    assert checks.check_feet_on_curve(checks.distance_to_curve("ellipse", params, grid.foot_xy)) == []
    moved = grid.foot_xy * (1.0 + 1e-6)
    assert checks.check_feet_on_curve(checks.distance_to_curve("ellipse", params, moved))


def test_serrin_closed_forms_and_a_wrong_margin():
    H = mcgraph.PrescribedCurvature.constant(workloads.DOMAIN_H)
    dom = mcgraph.dumbbell(1.0, 1.3)
    params = {"waist": 1.0, "spread": 1.3}
    expected = checks.serrin_margin("dumbbell", params, workloads.DOMAIN_H)
    margin = mcgraph.check_serrin(dom, H, 2).margin
    assert checks.check_close(margin, expected, checks.SERRIN_TOL) == []
    assert checks.check_close(margin + 1e-3, expected, checks.SERRIN_TOL)


def test_bump_trace_matches_program_and_rejects_wrong_width():
    dom = mcgraph.disk(1.0)
    grid = mcgraph.Grid(dom, 1 / 32)
    data = mcgraph.adversarial_boundary_data(dom, workloads.Y0, workloads.WIDTH, workloads.EPS)
    feet = np.asarray(data.trace(grid.foot_xy, grid.foot_s))
    exact = checks.bump_trace(grid.foot_xy, workloads.Y0, workloads.WIDTH, workloads.EPS)
    assert np.max(np.abs(feet - exact)) <= checks.BUMP_TOL
    wrong = checks.bump_trace(grid.foot_xy, workloads.Y0, 1.1 * workloads.WIDTH, workloads.EPS)
    assert np.max(np.abs(feet - wrong)) > checks.BUMP_TOL


def test_comparison_and_monotonicity_violations_are_rejected():
    u = np.linspace(-1.0, 0.0, 50)
    assert checks.check_ordered(u - 1e-4, u) == []
    bad = u - 1e-4
    bad[7] = u[7] + 1e-6
    assert checks.check_ordered(bad, u)
    assert checks.check_increasing([0.1, 0.2, 0.3]) == []
    assert checks.check_increasing([0.1, 0.3, 0.2])


def test_pace_is_sampled_inside_calls_and_kept_out_of_their_time():
    rnd = workloads.Round(pace=pace.Pace())

    def spin(n):
        s = 0
        for i in range(n):
            s += i * i
        return s

    t0 = time.perf_counter()
    rnd.call(spin, 8_000_000)
    rnd.call(spin, 8_000_000)
    elapsed = time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample before the first call, then one per PACE_EVERY_S of call time
    assert len(rnd.paces) >= int(rnd.wall / workloads.PACE_EVERY_S)
    paused = sum(b - a for a, b in rnd._pauses)
    assert paused > 0
    assert elapsed - paused - rnd.paces[0] - 0.05 < rnd.wall < elapsed - paused


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("cap_refinement", 0), ("nonexistence_pair", 0), ("domain_grids", 0),
    ("curvature_sweep", 0), ("curvature_sweep", 1)])
def test_tiny_run_end_to_end(workload, trace):
    p = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace:
        coverage = result["metrics"]["trace.self_time_coverage"]["value"]
        assert abs(coverage - 1.0) <= 0.05


def test_without_program_sources_it_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    p = _bench(tmp_path, "--workload", "curvature_sweep", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
