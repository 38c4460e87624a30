"""Quasilinear solves by damped Newton continuation in correction form on a
held LU.

Each stage of the load schedule tau in (0, 1] takes Newton steps about the
current iterate: it solves J(u) delta = -Q(u) with delta = 0 at the feet and
sets

    u_next = u + damping * delta,

halving the damping factor whenever the defect grows while it is still above
the residual tolerance (floor 0.125), and warm-starting the next stage from
the converged iterate.  Growth below the tolerance is rounding, which damping
cannot cure.  Guards abort a stage when the discrete slope blows past
`grad_max` (gradient divergence, the signature of unattainable boundary
data) or when the defect stops improving over a trailing window
(stagnation).  Each iterate is evaluated once (`operators.Evaluation`): the
defect norms, the slope guard and the next Jacobian read from it.

A solve holds one sparse LU across all its stages and iterates: each Newton
system goes to GMRES preconditioned with it, and is factorized afresh only
when that stalls (see `linear`).  The factor is released when the solve
ends; the report keeps only the counts.

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
from .linear import HeldFactor, correction_system, solve as linear_solve, SolverError

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
    keep_stage_fields: bool = False

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
    stage_fields: list = field(default_factory=list)
    factorizations: int = 0          # sparse LU factorizations of the solve
    krylov_iterations: int = 0       # GMRES inner iterations of the solve

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
    held = HeldFactor()
    verdict, message, ev = _continue(grid, H, data, n, cfg, report, held)
    report.factorizations = held.factorizations
    report.krylov_iterations = held.krylov_iterations
    held.lu = None
    _finalize(report, verdict, message, ev, t0)
    return report


def _continue(grid: Grid, H, data, n: int, cfg: SolveConfig, report: SolveReport,
              held: HeldFactor):
    """Run the load schedule, filling the report's stages, trace rows and
    iteration count; returns (verdict, message, evaluation of the last iterate)."""
    tol_res = cfg.residual_tolerance(H, n, domain=grid.domain)
    u = ScalarField.zeros(grid, data.scaled(cfg.tau_schedule[0]) if grid.n_feet else None)
    for tau in cfg.tau_schedule:
        # re-anchor the warm start's trace at this stage's load
        u = ScalarField.from_data(grid, u.values, data.scaled(tau))
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
                delta = linear_solve(correction_system(ev), held=held)
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
            if last_update <= cfg.tol_update and res_core <= tol_res:
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
        if cfg.keep_stage_fields:
            report.stage_fields.append((tau, u.copy()))
        if stage_verdict != VERDICT_CONVERGED:
            return (stage_verdict,
                    f"stage tau={tau:g} ended {stage_verdict} after "
                    f"{it} iterations (defect {res_core:.3e})", ev)
    return VERDICT_CONVERGED, "", ev


def _finalize(report: SolveReport, verdict: str, message: str, ev: Evaluation, t0):
    report.verdict = verdict
    report.message = message
    report.field = ev.u
    report.residual_core, report.residual_collar = ev.residual_norms()
    report.sup_u = ev.u.sup()
    report.sup_gradient = sup_slope(ev.u, ev.p)
    report.wall_time = time.perf_counter() - t0

