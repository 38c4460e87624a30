"""Quasilinear solves by Newton continuation in correction form on one LU
per solve.

Each stage of the load schedule tau in (0, 1] takes full Newton steps about
the current iterate: it solves J(u) delta = -Q(u) with delta = 0 at the
feet and sets u_next = u + delta.  A stage ends at the first defect that
rises above the residual tolerance (Deuflhard's natural monotonicity,
*Newton Methods for Nonlinear Problems*, 2004): Newton no longer contracts
there, and damping on would only lengthen a failing solve.  Growth below
the tolerance is rounding, not a failure.

Every solve starts from the discrete harmonic lift L of its data (`_lift`):
J(0) L = 0 with L = phi at the feet, so non-zero data starts without the
boundary layer, of slope phi / (theta h) beside a foot, that u = 0 has;
zero data lifts to 0.  A solve first leaps: a walk of one stage, at the
full load tau = 1, from L.  When the leap ends in any verdict but
converged, its stage summary is dropped, its trace rows stay, at its tau,
and count as iterations, and the solve walks the whole schedule,
tau = 0.25, 0.5, 0.75, 1, its first stage from tau L, the lift of that
stage's trace; the schedule lists the loads a solve may stop at.

Each stage of the walk after the first starts from the secant predictor
through the last two stage answers,

    u_k + (tau - tau_k) / (tau_k - tau_{k-1}) * (u_k - u_{k-1}),

with (tau_0, u_0) = (0, 0), the exact answer at zero load, and the start's
trace re-anchored at the stage's load.  An intermediate stage's answer is
only the next stage's start, so it ends converged once its defect meets the
residual tolerance.  The final stage also needs its answer within the update
tolerance 1e-9 of the solution: either its last update is that small, or its
last two steps contract by Theta = ||delta_k|| / ||delta_{k-1}|| < 1/2 in the
infinity norm and the bound Theta / (1 - Theta) * ||delta_k|| on the
distance from the answer to the solution is (error-oriented termination,
Deuflhard 2004, with Kelley's contraction bound, *Iterative Methods for
Linear and Nonlinear Equations*, 1995).  So no step is spent only to see a
small update, and a converged final stage's `update_norm` can exceed 1e-9.
A stage that neither converges nor sees its defect rise ends `stagnated`
after `_MAX_ITERS` steps; one whose discrete slope blows past `_GRAD_MAX`
ends `diverged_gradient` (the signature of unattainable boundary data).
Either message names the stage's last contraction; a stagnated one also
names the defect's rise and the worst node, where |Q u| is largest.  The
trace's `damping` and a stage's `damping_final` are always 1.

Each iterate is evaluated once (`operators.Evaluation`): the defect norms,
the slope guard and the next Jacobian read from it, and the lift's J(0) is
the Jacobian at u = 0.  Every Newton system goes to `linear.solve` with the
solve's one `linear.Factor`: GMRES preconditioned by its LU, the grid's LU
of J(0) at first, and a fresh factorization only when that stalls.  An LU
the solve makes ends with it, so a report does not depend on what was
solved on the grid before; it keeps the counts and the largest LU fill.

The solver's settings are the module constants below, the same for every
solve; the residual tolerance is 1e-6 (1 + n sup|H|).

A solve only solves: checking its answer against the a priori estimates is
a separate step, taken once per run by the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .grid import Grid, ScalarField
from .operators import DIMENSION, Evaluation, boundary_slope, gradient
from .linear import Factor, solve as linear_solve, SolverError

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged_gradient"
VERDICT_STAGNATED = "stagnated"
VERDICT_LINEAR_FAILURE = "linear_failure"


# The solver's settings, read by _continue and _stage at each call
_TAU_SCHEDULE = (0.25, 0.5, 0.75, 1.0)   # the loads a solve may stop at
_MAX_ITERS = 200                         # Newton steps per stage
_TOL_UPDATE = 1e-9
_GRAD_MAX = 1e4


def _residual_tolerance(H, n: int, domain) -> float:
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
    factorizations: int = 0          # sparse LUs the solve used: J(0)'s and those it made
    float64_factorizations: int = 0  # those made in float64 after a float32 one failed
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
            "float64_factorizations": self.float64_factorizations,
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
    return max(float(np.max(np.linalg.norm(g, axis=-1))), boundary_slope(u))


def solve_dirichlet(grid: Grid, H, data, n: int = DIMENSION) -> SolveReport:
    """Continuation solve of the prescribed-curvature Dirichlet problem.

    Returns a report whose verdict is one of converged, diverged_gradient,
    stagnated, or linear_failure; the field inside is the last iterate in
    every case so failures can be inspected.
    """
    t0 = time.perf_counter()
    report = SolveReport(verdict=VERDICT_CONVERGED, field=None)
    factor = Factor(grid)
    verdict, message, ev = _continue(grid, H, data, n, report, factor)
    for name in ("factorizations", "float64_factorizations", "krylov_iterations", "fill_nnz"):
        setattr(report, name, getattr(factor, name))
    _finalize(report, verdict, message, ev, t0)
    return report


def _continue(grid: Grid, H, data, n: int, report: SolveReport, factor: Factor):
    """The leap, a walk of the last rung alone, then the whole schedule's walk
    if the leap does not converge; fills the report's stages, trace rows and
    iteration count and returns (verdict, message, last evaluation)."""
    tol_res = _residual_tolerance(H, n, grid.domain)
    phi = ScalarField.zeros(grid, data).feet   # the trace at the feet, once per solve
    lift = _lift(grid, phi)
    for schedule in (_TAU_SCHEDULE[-1:], _TAU_SCHEDULE):
        # a failed leap keeps its trace rows and iterations, not its stage
        report.stages.clear()
        # (tau_k, u_k) of the last stage answer; u = 0 solves the problem at
        # zero load exactly
        tau_k, values = 0.0, np.zeros(grid.n_interior)
        for k, tau in enumerate(schedule):
            # the first stage starts from the lift of its trace, the later
            # ones from the secant predictor through the last two answers
            start = (tau * lift if k == 0 else
                     values + (tau - tau_k) / (tau_k - tau_prev) * (values - u_prev))
            tau_prev, u_prev = tau_k, values
            # re-anchor the start's trace at this stage's load, tau * phi
            verdict, message, ev = _stage(ScalarField(grid, start, tau * phi), H, n, tau,
                                          tol_res, report, factor,
                                          final=k == len(schedule) - 1)
            if verdict != VERDICT_CONVERGED:
                break
            tau_k, values = tau, ev.u.values
        if verdict == VERDICT_CONVERGED:
            break
    return verdict, message, ev


def _lift(grid: Grid, phi: np.ndarray) -> np.ndarray:
    """The discrete harmonic lift L of the trace phi, J(0) L = 0 with L = phi
    at the feet: one float32 solve on the grid's J(0) LU, since L only
    starts Newton, whose right-hand side is the derivative of Q at u = 0
    along the field that is 0 inside and phi at the feet, negated.  Zero
    data lifts to 0 without a solve, and so does data whose lift SuperLU
    refuses (J(0) refused, which the first Newton system then reports) or
    makes non-finite (beyond float32's range)."""
    zero = np.zeros(grid.n_interior)
    if not phi.any():
        return zero
    try:
        lu = grid.laplacian_lu
    except RuntimeError:
        return zero
    lift = lu.solve(-Evaluation.zero(grid).derivative(ScalarField(grid, zero, phi)))
    return lift if np.all(np.isfinite(lift)) else zero


def _stage(u: ScalarField, H, n: int, tau: float, tol_res: float,
           report: SolveReport, factor: Factor, *, final: bool):
    """Full Newton steps at load tau from u, adding their trace rows and
    iterations to the report.  Records the stage's summary unless a linear
    solve fails, and returns (verdict, message, evaluation of the last
    iterate)."""
    grid = u.grid
    ev = Evaluation(u, H, n, tau)
    prev_res = np.inf
    verdict = VERDICT_STAGNATED
    update = theta = np.nan   # the last correction's norm, the last contraction
    for it in range(1, _MAX_ITERS + 1):
        report.iterations += 1
        try:
            delta, _ = linear_solve(ev.jacobian(), -ev.q, factor)
        except SolverError as exc:
            return VERDICT_LINEAR_FAILURE, str(exc), ev
        u_new = ScalarField(grid, u.values + delta, u.feet)
        ev_new = Evaluation(u_new, H, n, tau)
        g = sup_slope(u_new, ev_new.p)
        if not np.isfinite(g) or g > _GRAD_MAX:
            report.stages.append(StageSummary(tau, it, np.inf, np.inf, np.inf, g, 1.0,
                                              VERDICT_DIVERGED))
            return (VERDICT_DIVERGED,
                    f"slope {g:.3e} exceeded grad_max={_GRAD_MAX:g} "
                    f"at tau={tau:g}, iteration {it}; last contraction {theta:.3g}", ev_new)
        res_core, res_collar = ev_new.residual_norms()
        # the update is u_new - u, which rounds differently from delta.
        # Newton's contraction Theta = ||delta_k|| / ||delta_{k-1}||, nan on a
        # stage's first step; with Theta < 1/2, u_new is at most
        # Theta / (1 - Theta) * update from the solution
        last, update = update, float(np.max(np.abs(u_new.values - u.values)))
        theta = update / last if last else np.inf
        bound = theta / (1.0 - theta) * update if theta < 0.5 else np.inf
        report.trace.append({"tau": tau, "iter": it, "residual_core": res_core,
                             "residual_collar": res_collar, "update": update,
                             "sup_gradient": g, "damping": 1.0})
        u, ev = u_new, ev_new
        # an intermediate answer is only the next stage's start: its defect
        # test suffices.  The final answer must also be within _TOL_UPDATE of
        # the solution, by its last update or by the contraction bound
        if res_core <= tol_res and (not final or min(update, bound) <= _TOL_UPDATE):
            verdict = VERDICT_CONVERGED
            break
        # a defect that rises above the tolerance ends the stage: Newton no
        # longer contracts (growth below the tolerance is rounding)
        if res_core > max(tol_res, prev_res * (1.0 + 1e-12)):
            break
        prev_res = res_core
    report.stages.append(StageSummary(tau, it, res_core, res_collar, update,
                                      sup_slope(u, ev.p), 1.0, verdict))
    if verdict != VERDICT_CONVERGED:
        rose = f"defect rose {prev_res:.3e} -> {res_core:.3e}, " if res_core > prev_res else ""
        worst = int(np.argmax(np.abs(ev.q)))
        i, j = grid.interior_ij[worst]
        x, y = grid.xs[i], grid.ys[j]
        return (verdict, f"stage tau={tau:g} ended {verdict} after {it} iterations "
                         f"(defect {res_core:.3e}); {rose}last contraction {theta:.3g}; "
                         f"worst node ({x:.4g}, {y:.4g}) in the "
                         f"{'core' if grid.core_mask[worst] else 'collar'}", ev)
    return verdict, "", ev


def _finalize(report: SolveReport, verdict: str, message: str, ev: Evaluation, t0):
    report.verdict = verdict
    report.message = message
    report.field = ev.u
    report.residual_core, report.residual_collar = ev.residual_norms()
    report.sup_u = ev.u.sup()
    report.sup_gradient = sup_slope(ev.u, ev.p)
    report.wall_time = time.perf_counter() - t0

