"""Command-line front end.

Subcommands:
  run          execute a scenario config: solve, audit, emit artifacts
  check-serrin boundary solvability audit for a domain and curvature
  estimates    print the a priori constant ledger without solving
  sweep        refinement or curvature sweeps with a ratio/flag table

Configs and check-serrin's --shape build their domains through
`geometry.make_domain`.  check-serrin takes the flags of its shape's factory
parameters; a flag of another shape is a configuration error, and so is any
flag given beside --config.

run, an [experiment] run (on its finest solve) and estimates each take their
audits and constants from one `barriers.estimate_ledger` call.  An
[experiment] run and a curvature sweep run one non-existence pipeline
(`_nonexistence`): certificate, bump data, one solve per grid, witness.
--quiet (run, sweep) silences stdout only; artifacts and sweep.csv are
written all the same.

Exit codes: 4 on a configuration error for every command, taken in `main`
alone; a spacing at which no grid can be built (`GridError`) is one, and so
is a command line argparse refuses (--help exits 0).  run,
[experiment] runs included: 0 converged with all requested audits passing,
2 solver failure, 3 audit failure.  check-serrin exits 0 when the
solvability condition holds and 1 when violated.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import barriers
from .config import ConfigError, load_scenario, number
from .geometry import (REQUIRED, SHAPE_PARAMETERS, MalformedDomainError,
                       PrescribedCurvature, check_serrin, dimension, make_domain)
from .grid import Grid, GridError
from .reference import get as get_reference
from .reporting import (build_report, write_report, write_traces_csv,
                        write_fields_csv, write_heatmap_svg)
from .solver import solve_dirichlet

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_AUDIT = 3
EXIT_CONFIG = 4

# check-serrin's shape flags with their defaults; --shape offers each shape
# whose required factory parameters all have a flag
_SHAPE_FLAGS = {"radius": 1.0, "a": 1.0, "b": 1.0, "hx": 1.0, "hy": 1.0,
                "r_in": 0.5, "r_out": 1.0, "waist": 1.0, "spread": 1.1}
# check-serrin's other flags besides --config, with their defaults
_AUDIT_FLAGS = {"shape": "disk", "curvature": 0.0, "n": 2}


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _load(config_path: str, grid_h, out_override):
    scenario = load_scenario(config_path)
    if grid_h is not None:
        if not 0 < grid_h < math.inf:
            raise ConfigError(f"--grid-h must be positive and finite, got {grid_h!r}")
        scenario.spacings = (float(grid_h),)
    if out_override is not None:
        scenario.outdir = out_override
    return scenario


def cmd_run(args) -> int:
    scenario = _load(args.config, args.grid_h, args.out)
    if scenario.experiment is not None and len(scenario.spacings) < 2:
        raise ConfigError("[experiment] needs >= 2 grid spacings")
    outdir = Path(scenario.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if scenario.experiment is not None:
        return _run_experiment(scenario, outdir, args.quiet)

    h = scenario.spacings[0]
    if len(scenario.spacings) > 1:
        _say(args.quiet, f"run uses the first spacing h={h:g}; "
                         f"use `sweep` for the full series")
    grid = Grid(scenario.domain, h)
    _say(args.quiet, f"grid h={h:g}: {grid.n_interior} interior nodes")
    report = solve_dirichlet(grid, scenario.curvature, scenario.data, n=scenario.n)
    _say(args.quiet, f"verdict: {report.verdict} after {report.iterations} "
                     f"iterations, residual {report.residual_core:.3e}")

    ledger = barriers.estimate_ledger(scenario.domain, scenario.curvature,
                                      scenario.data, scenario.n, report=report,
                                      names=scenario.audits)
    extras = {}
    if scenario.reference:
        extras["reference"] = scenario.reference
        extras["reference_error_sup"] = get_reference(scenario.reference).error(
            report.field)

    extras["audits"] = ledger.audits
    _write_artifacts(outdir, scenario, report, ledger.params, extras, args.quiet)
    return _exit_code([report], ledger.audits)


def _write_artifacts(outdir: Path, scenario, report, params, extras: dict,
                     quiet: bool) -> None:
    """report.json, traces.csv, fields.csv and heatmap.svg for one solve."""
    write_report(outdir / "report.json", build_report(scenario, report, params, extras))
    write_traces_csv(outdir / "traces.csv", report)
    write_fields_csv(outdir / "fields.csv", report.field)
    write_heatmap_svg(outdir / "heatmap.svg", report.field)
    _say(quiet, f"artifacts in {outdir}/")


def _exit_code(reports, audits: dict) -> int:
    """Solver failure before audit failure: a failed solve leaves nothing to audit."""
    if any(r.verdict != "converged" for r in reports):
        return EXIT_SOLVER
    if any(isinstance(v, dict) and v.get("passed") is False for v in audits.values()):
        return EXIT_AUDIT
    return EXIT_OK


def _nonexistence(scenario, H, grids, quiet: bool):
    """The [experiment] pipeline at curvature H: certificate (or the
    NotApplicable that refused it), bump data, one solve per grid, coarsest
    first, and the witness over them.  Returns (certificate, data, reports,
    witness); with fewer than two grids there is nothing to witness, and it
    stops after the certificate."""
    exp = scenario.experiment
    try:
        cert = barriers.nonexistence_bound(scenario.domain, H, exp.y0, exp.eps,
                                           n=scenario.n)
        _say(quiet, f"certificate: a = 10^{cert.log10_a:.1f}, "
                    f"g(a) = {cert.g_value:.4f} < eps = {exp.eps:g}")
    except barriers.NotApplicable as exc:
        cert = exc
        _say(quiet, f"certificate not applicable: {exc}")
    if len(grids) < 2:
        return cert, None, [], None

    data = barriers.adversarial_boundary_data(scenario.domain, exp.y0,
                                              exp.width, exp.eps)
    reports = []
    for grid in grids:
        rep = solve_dirichlet(grid, H, data, n=scenario.n)
        _say(quiet, f"h={grid.h:g}: {rep.verdict} in {rep.iterations} iterations")
        reports.append(rep)
    witness = barriers.nonexistence_witness(reports, exp.y0, data, exp.eps,
                                            radius_a=exp.width)
    _say(quiet, f"witness verdict: {witness.verdict} "
                f"(ratios {['%.2f' % r for r in witness.gradient_ratios]}, "
                f"attainment gap {witness.attainment_gap:.3e})")
    return cert, data, reports, witness


def _run_experiment(scenario, outdir: Path, quiet: bool) -> int:
    """Non-existence pipeline over the config's spacings, then the estimate
    ledger of the finest solve."""
    exp = scenario.experiment
    grids = [Grid(scenario.domain, h) for h in scenario.spacings]
    cert, data, reports, witness = _nonexistence(scenario, scenario.curvature,
                                                 grids, quiet)
    extras = {"experiment": {"y0": list(exp.y0), "eps": exp.eps,
                             "width": exp.width}}
    if isinstance(cert, barriers.NotApplicable):
        extras["certificate"] = {"applicable": False, "reason": str(cert)}
        params = barriers.BarrierParams(eps=exp.eps)
    else:
        extras["certificate"] = {
            "applicable": True, "nu_ne": cert.nu_ne, "g_value": cert.g_value,
            "a": cert.a, "log10_a": cert.log10_a, "R1": cert.R1, "R2": cert.R2,
            "kappa_S": cert.kappa_S, "warnings": list(cert.warnings)}
        params = cert.params
    extras["nonexistence_witness"] = dataclasses.asdict(witness)
    extras["refinements"] = [{
        "h": rep.field.grid.h, "verdict": rep.verdict,
        "iterations": rep.iterations, "sup_gradient": rep.sup_gradient,
    } for rep in reports]

    fine = reports[-1]
    extras["audits"] = barriers.estimate_ledger(
        scenario.domain, scenario.curvature, data, scenario.n, report=fine,
        names=scenario.audits).audits
    _write_artifacts(outdir, scenario, fine, params, extras, quiet)
    return _exit_code(reports, extras["audits"])


def _flag(flag: str, check, value):
    """check(value), whose ValueError is a config error naming the flag."""
    try:
        return check(value)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def cmd_check_serrin(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in _SHAPE_FLAGS or k in _AUDIT_FLAGS}
    if args.config:
        if given:
            raise ConfigError(f"--{sorted(given)[0].replace('_', '-')} cannot be "
                              "given with --config")
        scenario = _load(args.config, None, None)
        domain, H, n = scenario.domain, scenario.curvature, scenario.n
    else:
        shape, curvature, n = (given.pop(k, d) for k, d in _AUDIT_FLAGS.items())
        params = SHAPE_PARAMETERS[shape]
        foreign = sorted(given.keys() - params.keys())
        if foreign:
            raise ConfigError(f"--{foreign[0].replace('_', '-')} is not a "
                              f"parameter of --shape {shape}")
        domain = make_domain(shape, **{k: given.get(k, _SHAPE_FLAGS[k])
                                       for k in params if k in _SHAPE_FLAGS})
        H = _flag("--curvature", PrescribedCurvature.constant, curvature)
        n = _flag("--n", dimension, n)

    audit = check_serrin(domain, H, n)
    state = "satisfied" if audit.satisfied else "violated"
    print(f"solvability condition {state}: margin = {audit.margin:.9g} "
          f"at boundary point ({audit.worst_point[0]:.6g}, "
          f"{audit.worst_point[1]:.6g})")
    return 0 if audit.satisfied else 1


def cmd_estimates(args) -> int:
    scenario = _load(args.config, None, None)
    ledger = barriers.estimate_ledger(scenario.domain, scenario.curvature,
                                      scenario.data, scenario.n, names=("serrin",))
    audits, height, grad = ledger.audits, ledger.height, ledger.gradient
    serrin = audits["serrin"]
    print("a priori constant ledger")
    if "error" in serrin:
        print(f"  solvability audit refused: {serrin['error']}")
    else:
        print(f"  solvability margin      = {serrin['margin']:.9g} "
              f"({'ok' if serrin['passed'] else 'VIOLATED'})")
    if height is not None:
        print(f"  mu                      = {height.params['mu']!r}")
        print(f"  delta (diameter)        = {height.params['delta']!r}")
        print(f"  height bound            = {height.bound!r}")
    else:
        print(f"  height bound refused: {audits['height']['error']}")
    if grad is not None:
        print(f"  gradient exponent A     = {grad.params['A']!r}")
        print(f"  global gradient bound   = {grad.bound!r}")
    else:
        print(f"  global gradient bound refused: {audits['gradient']['error']}")
    if ledger.package is not None:
        bg = ledger.package.audit
        for key in ("C", "nu", "k", "a", "M", "tau_strip"):
            print(f"  {key:<23s} = {bg.params[key]!r}")
        print(f"  boundary gradient bound = {bg.bound!r}")
    else:
        print(f"  boundary gradient barrier refused: {ledger.refusal}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """A curvature or refinement table, printed and written to sweep.csv."""
    scenario = _load(args.config, None, args.out)
    if scenario.sweep_curvatures:
        lines = _sweep_curvature(scenario)
    elif len(scenario.spacings) >= 2:
        lines = _sweep_refinement(scenario)
    else:
        raise ConfigError("sweep needs [sweep] curvatures or multiple "
                          "grid spacings")
    table = "\n".join(lines)
    _say(args.quiet, table)
    outdir = Path(scenario.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text(table + "\n")
    return EXIT_OK


def _sweep_refinement(scenario) -> list:
    reference = get_reference(scenario.reference) if scenario.reference else None

    rows = []
    for h in scenario.spacings:
        grid = Grid(scenario.domain, h)
        rep = solve_dirichlet(grid, scenario.curvature, scenario.data, n=scenario.n)
        err = reference.error(rep.field) if reference else rep.residual_core
        rows.append({"h": h, "verdict": rep.verdict, "iterations": rep.iterations,
                     "error": err})
    header = "h,verdict,iterations," + ("sup_error" if reference else
                                        "residual_core") + ",ratio"
    lines = [header]
    for k, row in enumerate(rows):
        ratio = "" if k == 0 or rows[k]["error"] == 0 else \
            repr(rows[k - 1]["error"] / rows[k]["error"])
        lines.append(f"{row['h']!r},{row['verdict']},{row['iterations']},"
                     f"{row['error']!r},{ratio}")
    return lines


def _sweep_curvature(scenario) -> list:
    lines = ["H,serrin_margin,certificate,witness"]
    grids = [Grid(scenario.domain, h) for h in scenario.spacings]
    for h_val in scenario.sweep_curvatures:
        H = PrescribedCurvature.constant(h_val)
        margin = check_serrin(scenario.domain, H, scenario.n).margin
        cert_flag, wit_flag = "not-applicable", ""
        if scenario.experiment is not None:
            cert, _, _, witness = _nonexistence(scenario, H, grids, quiet=True)
            if not isinstance(cert, barriers.NotApplicable):
                cert_flag = "applicable"
            if witness is not None:
                wit_flag = witness.verdict
        lines.append(f"{h_val!r},{margin!r},{cert_flag},{wit_flag}")
    return lines


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors (an unknown flag, a missing one, a
    value it cannot convert) raised as config errors, not exit 2, which is
    EXIT_SOLVER here; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcgraph",
        description="Dirichlet solver and verification laboratory for "
                    "prescribed mean curvature graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--grid-h", type=number, default=None,
                       help="override grid spacing, a decimal or a fraction like 1/64")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_ser = sub.add_parser("check-serrin", help="boundary solvability audit")
    p_ser.add_argument("--config", default=None)
    # every flag but --config is unset unless given, so that a foreign shape
    # flag or any flag beside --config shows; _AUDIT_FLAGS holds the defaults
    p_ser.add_argument("--shape", default=argparse.SUPPRESS, choices=[
        tag for tag, params in SHAPE_PARAMETERS.items()
        if all(k in _SHAPE_FLAGS for k, d in params.items() if d is REQUIRED)])
    for key in _SHAPE_FLAGS:
        p_ser.add_argument("--" + key.replace("_", "-"), dest=key, type=float,
                           default=argparse.SUPPRESS)
    p_ser.add_argument("--curvature", type=float, default=argparse.SUPPRESS)
    p_ser.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p_ser.set_defaults(func=cmd_check_serrin)

    p_est = sub.add_parser("estimates", help="print the constant ledger")
    p_est.add_argument("--config", required=True)
    p_est.set_defaults(func=cmd_estimates)

    p_sweep = sub.add_parser("sweep", help="refinement or curvature sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, MalformedDomainError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
