"""Quasilinear solves by damped Newton continuation in correction form on
the grid's LU.

Each stage of the load schedule tau in (0, 1] takes Newton steps about the
current iterate: it solves J(u) delta = -Q(u) with delta = 0 at the feet and
sets

    u_next = u + damping * delta,

halving the damping factor whenever the defect grows while it is still above
the residual tolerance (floor 0.125).  Growth below the tolerance is
rounding, which damping cannot cure.

Each stage after the first starts from the secant predictor through the last
two stage answers,

    u_k + (tau - tau_k) / (tau_k - tau_{k-1}) * (u_k - u_{k-1}),

with (tau_0, u_0) = (0, 0), the exact answer at zero load, and the start's
trace re-anchored at the stage's load.  An intermediate stage's answer is
only the next stage's start, so it ends converged once its defect meets the
residual tolerance; the update tolerance is tested on the final stage only.
Guards abort a stage when the discrete slope blows past
`grad_max` (gradient divergence, the signature of unattainable boundary
data) or when the defect stops improving over a trailing window
(stagnation).  Each iterate is evaluated once (`operators.Evaluation`): the
defect norms, the slope guard and the next Jacobian read from it.

Every Newton system goes to `linear.solve`, which keeps one sparse LU on the
grid: GMRES preconditioned by it, and a fresh factorization only when that
stalls.  The LU outlives the solve, so the next solve on the grid starts
from it, whatever the H or the data; the report keeps the counts and the
largest LU fill.

A solve only solves: checking its answer against the a priori estimates is
a separate step, taken once per run by the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .grid import Grid, ScalarField
from .operators import DIMENSION, Evaluation, boundary_slope, gradient
from .linear import LinearCounts, correction_system, solve as linear_solve, SolverError

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged_gradient"
VERDICT_STAGNATED = "stagnated"
VERDICT_LINEAR_FAILURE = "linear_failure"


@dataclass
class SolveConfig:
    """Knobs for the continuation solve; defaults suit unit-scale domains."""

    tol_update: float = 1e-9
    tol_residual: Optional[float] = None   # default: 1e-6 * (1 + n * sup|H|)
    max_iters: int = 200
    tau_schedule: Sequence[float] = (0.25, 0.5, 0.75, 1.0)
    grad_max: float = 1e4
    stagnation_window: int = 20

    def residual_tolerance(self, H, n: int, domain) -> float:
        if self.tol_residual is not None:
            return float(self.tol_residual)
        return 1e-6 * (1.0 + n * float(H.h0(domain)))


@dataclass
class StageSummary:
    tau: float
    iters: int
    residual_core: float
    residual_collar: float
    update_norm: float
    sup_gradient: float
    damping_final: float
    verdict: str


@dataclass
class SolveReport:
    """Outcome of a continuation solve: final field, verdict, and diagnostics."""

    verdict: str
    field: ScalarField
    stages: list = field(default_factory=list)
    trace: list = field(default_factory=list)     # per-iteration rows
    sup_u: float = 0.0
    sup_gradient: float = 0.0
    residual_core: float = 0.0
    residual_collar: float = 0.0
    iterations: int = 0
    wall_time: float = 0.0
    message: str = ""
    factorizations: int = 0          # sparse LU factorizations the solve made
    krylov_iterations: int = 0       # GMRES inner iterations of the solve
    fill_nnz: int = 0                # fill of the largest LU the solve used (stored
                                     # entries of L and U), 0 if none

    @property
    def converged(self) -> bool:
        return self.verdict == VERDICT_CONVERGED

    def summary_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "sup_u": self.sup_u,
            "sup_gradient": self.sup_gradient,
            "residual_core": self.residual_core,
            "residual_collar": self.residual_collar,
            "iterations": self.iterations,
            "factorizations": self.factorizations,
            "krylov_iterations": self.krylov_iterations,
            "fill_nnz": self.fill_nnz,
            "wall_time_seconds": self.wall_time,
            "stages": [asdict(s) for s in self.stages],
            "message": self.message,
        }


def sup_slope(u: ScalarField, p: Optional[np.ndarray] = None) -> float:
    """Worst discrete slope: interior centered plus one-sided foot slopes.

    The one-sided slope (u_owner - phi_foot) / (theta h) along each boundary
    link sees steepening at the boundary a full mesh width before the
    centered interior slopes do, which is what the divergence guard needs.
    `p` is u's interior slope field when it has been evaluated already.
    """
    g = gradient(u) if p is None else p
    m = float(np.max(np.linalg.norm(g, axis=-1))) if len(g) else 0.0
    return max(m, boundary_slope(u))


def solve_dirichlet(grid: Grid, H, data, n: int = DIMENSION,
                    config: Optional[SolveConfig] = None) -> SolveReport:
    """Continuation solve of the prescribed-curvature Dirichlet problem.

    Returns a report whose verdict is one of converged, diverged_gradient,
    stagnated, or linear_failure; the field inside is the last iterate in
    every case so failures can be inspected.
    """
    cfg = config or SolveConfig()
    t0 = time.perf_counter()
    report = SolveReport(verdict=VERDICT_CONVERGED, field=None)
    counts = LinearCounts()
    verdict, message, ev = _continue(grid, H, data, n, cfg, report, counts)
    report.factorizations = counts.factorizations
    report.krylov_iterations = counts.krylov_iterations
    report.fill_nnz = counts.fill_nnz
    _finalize(report, verdict, message, ev, t0)
    return report


def _continue(grid: Grid, H, data, n: int, cfg: SolveConfig, report: SolveReport,
              counts: LinearCounts):
    """Run the load schedule, filling the report's stages, trace rows and
    iteration count; returns (verdict, message, evaluation of the last iterate)."""
    tol_res = cfg.residual_tolerance(H, n, domain=grid.domain)
    u = ScalarField.zeros(grid)
    phi = ScalarField.zeros(grid, data).feet   # the trace at the feet, once per solve
    # (tau_{k-1}, u_{k-1}) and tau_k of the last two stage answers; u = 0
    # solves the problem at zero load exactly
    tau_prev, u_prev, tau_k = 0.0, u.values, 0.0
    for k, tau in enumerate(cfg.tau_schedule):
        final = k == len(cfg.tau_schedule) - 1
        values = u.values
        if tau_k != tau_prev:
            # secant predictor through the last two stage answers
            values = values + (tau - tau_k) / (tau_k - tau_prev) * (values - u_prev)
        tau_prev, u_prev = tau_k, u.values
        # re-anchor the start's trace at this stage's load, tau * phi
        u = ScalarField(grid, values, tau * phi)
        ev = Evaluation(u, H, n, tau)
        damping = 1.0
        prev_res = np.inf
        window: list[float] = []
        stage_verdict = VERDICT_STAGNATED
        last_update = np.inf
        res_core = res_collar = np.inf
        it = 0
        for it in range(1, cfg.max_iters + 1):
            report.iterations += 1
            try:
                delta = linear_solve(correction_system(ev), counts)
            except SolverError as exc:
                return VERDICT_LINEAR_FAILURE, str(exc), ev
            u_new = ScalarField(grid, u.values + damping * delta.values, u.feet)
            ev_new = Evaluation(u_new, H, n, tau)
            g = sup_slope(u_new, ev_new.p)
            if not np.isfinite(g) or g > cfg.grad_max:
                report.stages.append(StageSummary(tau, it, np.inf, np.inf,
                                                  np.inf, g, damping,
                                                  VERDICT_DIVERGED))
                return (VERDICT_DIVERGED,
                        f"slope {g:.3e} exceeded grad_max={cfg.grad_max:g} "
                        f"at tau={tau:g}, iteration {it}", ev_new)
            res_core, res_collar = ev_new.residual_norms()
            last_update = float(np.max(np.abs(u_new.values - u.values)))
            report.trace.append({"tau": tau, "iter": it, "residual_core": res_core,
                                 "residual_collar": res_collar, "update": last_update,
                                 "sup_gradient": g, "damping": damping})
            if res_core > max(tol_res, prev_res * (1.0 + 1e-12)) and damping > 0.125:
                damping = max(0.125, 0.5 * damping)
            prev_res = res_core
            u, ev = u_new, ev_new
            # an intermediate answer is only the next stage's start: its
            # defect test suffices, the update test is the final stage's
            if res_core <= tol_res and (last_update <= cfg.tol_update or not final):
                stage_verdict = VERDICT_CONVERGED
                break
            window.append(res_core)
            if len(window) > cfg.stagnation_window:
                window.pop(0)
                if window[-1] > 0.999 * window[0] and last_update > cfg.tol_update:
                    stage_verdict = VERDICT_STAGNATED
                    break
        else:
            stage_verdict = VERDICT_STAGNATED
        report.stages.append(StageSummary(tau, it, res_core, res_collar,
                                          last_update, sup_slope(u, ev.p), damping,
                                          stage_verdict))
        if stage_verdict != VERDICT_CONVERGED:
            return (stage_verdict,
                    f"stage tau={tau:g} ended {stage_verdict} after "
                    f"{it} iterations (defect {res_core:.3e})", ev)
        tau_k = tau
    return VERDICT_CONVERGED, "", ev


def _finalize(report: SolveReport, verdict: str, message: str, ev: Evaluation, t0):
    report.verdict = verdict
    report.message = message
    report.field = ev.u
    report.residual_core, report.residual_collar = ev.residual_norms()
    report.sup_u = ev.u.sup()
    report.sup_gradient = sup_slope(ev.u, ev.p)
    report.wall_time = time.perf_counter() - t0

