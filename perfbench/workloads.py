"""The four benchmark workloads, driven through mcgraph's public API.

Each workload does one round of timed calls into mcgraph through a `Round`,
then checks the answers with `checks` outside the timed calls.  It returns
the list of failed checks.  `SIZES` holds the inputs; `TINY` a smaller copy
of them for the self-tests.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import mcgraph
import mcgraph.cli

import checks
import pace as pace_mod

HERE = Path(__file__).resolve().parent
CAP_CONFIG = HERE / "cap.ini"
CAP_RADIUS = 2.5                      # 1/H for the config's H = 0.4

SIZES = {
    "cap_refinement": {"spacings": (1 / 16, 1 / 32, 1 / 64)},
    "nonexistence_pair": {"spacings": (1 / 24, 1 / 48)},
    "domain_grids": {"spacings": (1 / 32, 1 / 64, 1 / 128)},
    "curvature_sweep": {"h": 1 / 32, "curvatures": tuple(0.05 * k for k in range(1, 10))},
}
# length of one round with its checks on the reference box; a run makes
# floor(seconds / ROUND_S) rounds (at least one), a count fixed in advance so
# that every run does the same work, however fast the machine is that minute
ROUND_S = {"cap_refinement": 12.5, "nonexistence_pair": 5.0,
           "domain_grids": 10.0, "curvature_sweep": 4.5}
TINY = {
    "cap_refinement": {"spacings": (1 / 16, 1 / 32)},
    "nonexistence_pair": {"spacings": (1 / 12, 1 / 24)},
    "domain_grids": {"spacings": (1 / 16, 1 / 32)},
    "curvature_sweep": {"h": 1 / 16, "curvatures": (0.1, 0.25, 0.4)},
}

# domain_grids: (factory, shape for the closed forms, parameters)
LEVELSET_EXPR = "1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36"
DOMAINS = (
    ("disk", "disk", {"radius": 1.0}),
    ("ellipse", "ellipse", {"a": 1.2, "b": 0.7}),
    ("rounded_rect", "rounded_rect", {"hx": 1.0, "hy": 0.6, "corner_radius": 0.25}),
    ("annulus", "annulus", {"r_in": 0.8, "r_out": 1.6}),
    ("dumbbell", "dumbbell", {"waist": 1.0, "spread": 1.3}),
    ("levelset", "rotated_ellipse", {"A": 1.1, "B": 0.6, "cos": 0.8, "sin": 0.6}),
)
DOMAIN_H = 0.25                       # constant curvature of the Serrin audits

# time spent in calls between two samples of the host's pace
PACE_EVERY_S = 0.25

# nonexistence_pair: the A8 pipeline
Y0, EPS, WIDTH = (1.0, 0.0), 0.05, 0.10
H_SUPER, H_CONTROL = 0.55, 0.45


class Round:
    """Times the calls into mcgraph of one round and counts its operations.

    `call` times one call; `op` also counts it as an operation and turns an
    exception into a failed operation (returning None).  With a tracer the
    call becomes a root span of the layer that owns the function.

    With a `pace.Pace`, the host's pace is sampled once before the first
    call and then every `PACE_EVERY_S` of time spent in calls: a one-shot
    timer runs only while a call does, and its SIGALRM handler times one
    pass of the pace kernel and sets the timer again.  Python runs the
    handler between bytecodes of the interrupted call; the handler's time
    is taken out of the call's.
    """

    def __init__(self, tracer=None, pace=None):
        self.tracer = tracer
        self.pace = pace
        self.wall = 0.0
        self.paces = []
        self.attempted = 0
        self.failed = 0
        self._pauses = []
        self._pace_left = PACE_EVERY_S
        self._in_call = False
        if pace is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.paces.append(self.pace.sample())
        self._pauses.append((t0, time.perf_counter()))
        if self._in_call:
            signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S)

    @property
    def paced_wall(self):
        """`wall` at the pace of the reference box."""
        return self.wall * pace_mod.REF_S / statistics.median(self.paces)

    def call(self, fn, *args, **kwargs):
        paced = self.pace is not None
        if paced:
            if not self.paces:
                self.paces.append(self.pace.sample())
            self._in_call = True
            signal.setitimer(signal.ITIMER_REAL, self._pace_left)
        n0 = len(self._pauses)
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.span("call." + fn.__qualname__, fn.__module__.split(".")[-1],
                                    fn, *args, **kwargs)
        finally:
            if paced:
                self._in_call = False
                left = signal.setitimer(signal.ITIMER_REAL, 0)[0]
                self._pace_left = left if left > 0 else PACE_EVERY_S
            t1 = time.perf_counter()
            paused = sum(min(b, t1) - max(a, t0) for a, b in self._pauses[n0:] if a < t1)
            self.wall += t1 - t0 - paused

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return self.call(fn, *args, **kwargs)
        except Exception:      # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    @contextlib.contextmanager
    def checking(self):
        """Check outside the timed calls, with tracing suspended."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()


def _read_fields(path):
    xy, u = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["class"] == "interior":
                xy.append((float(row["x"]), float(row["y"])))
                u.append(float(row["u"]))
    return np.array(xy), np.array(u)


def cap_refinement(rnd: Round, seed: int, sizes: dict, run_dir: Path) -> list:
    """`mcgraph run` on the spherical-cap config at each spacing."""
    hs = sizes["spacings"]
    outs = []
    for k, h in enumerate(hs):
        out = run_dir / "cap_refinement" / f"h{k}"
        argv = ["run", "--config", str(CAP_CONFIG), "--grid-h", repr(h),
                "--out", str(out), "--quiet"]
        rc = rnd.op(mcgraph.cli.main, argv)
        if rc is not None and rc != 0:
            rnd.failed += 1
            print(f"mcgraph run at h = {h:g} exited {rc}", file=sys.stderr)
            rc = None
        outs.append(out if rc == 0 else None)
    fails = []
    with rnd.checking():
        errs = []
        for h, out in zip(hs, outs):
            if out is None:
                continue
            report = json.loads((out / "report.json").read_text())
            if report.get("verdict") != "converged":
                fails.append(f"cap h = {h:g}: verdict {report.get('verdict')}")
            for name in ("height", "gradient"):
                if report.get("audits", {}).get(name, {}).get("passed") is not True:
                    fails.append(f"cap h = {h:g}: {name} audit did not pass")
            xy, u = _read_fields(out / "fields.csv")
            if len(u) != checks.disk_interior_count(h):
                fails.append(f"cap h = {h:g}: fields.csv has {len(u)} interior rows, "
                             f"expected {checks.disk_interior_count(h)}")
            errs.append(float(np.max(np.abs(u - checks.cap_height(xy[:, 0], xy[:, 1], CAP_RADIUS)))))
        if len(errs) == len(hs):
            fails += checks.check_error_order(hs, errs, checks.CAP_ERR_C, label="cap")
    return fails


def nonexistence_pair(rnd: Round, seed: int, sizes: dict, run_dir: Path) -> list:
    """Certificate, adversarial bump data, supercritical and control solves at
    each spacing, and the refinement witness of each leg."""
    hs = sizes["spacings"]
    dom = rnd.call(mcgraph.disk, 1.0)
    H_sup = rnd.call(mcgraph.PrescribedCurvature.constant, H_SUPER)
    H_ctl = rnd.call(mcgraph.PrescribedCurvature.constant, H_CONTROL)
    cert = rnd.op(mcgraph.nonexistence_bound, dom, H_sup, Y0, EPS, n=2)
    data = rnd.call(mcgraph.adversarial_boundary_data, dom, Y0, WIDTH, EPS)
    grids = [rnd.op(mcgraph.Grid, dom, h) for h in hs]
    legs = {}
    for tag, H in (("super", H_sup), ("control", H_ctl)):
        reports = [rnd.op(mcgraph.solve_dirichlet, g, H, data, n=2) if g is not None else None
                   for g in grids]
        witness = None
        if all(r is not None for r in reports):
            witness = rnd.op(mcgraph.nonexistence_witness, reports, Y0, data, EPS,
                             radius_a=WIDTH)
        legs[tag] = (reports, witness)
    fails = []
    with rnd.checking():
        if cert is not None and not (math.isfinite(cert.log10_a) and cert.g_value < EPS):
            fails.append(f"certificate log10_a = {cert.log10_a}, g(a) = {cert.g_value}")
        for tag, hval in (("super", H_SUPER), ("control", H_CONTROL)):
            reports, witness = legs[tag]
            bound = checks.height_bound(hval, 2.0, EPS)
            for h, rep in zip(hs, reports):
                if rep is None:
                    continue
                if rep.verdict not in checks.VERDICTS:
                    fails.append(f"{tag} h = {h:g}: unknown verdict {rep.verdict!r}")
                if tag == "control" and rep.verdict != "converged":
                    fails.append(f"control h = {h:g}: verdict {rep.verdict}")
                grid = rep.field.grid
                exact = checks.bump_trace(grid.foot_xy, Y0, WIDTH, EPS)
                if not np.max(np.abs(rep.field.feet - exact)) <= checks.BUMP_TOL:
                    fails.append(f"{tag} h = {h:g}: feet do not carry the bump trace")
                sup_u = float(np.max(np.abs(rep.field.values)))
                if not sup_u <= bound:
                    fails.append(f"{tag} h = {h:g}: sup|u| {sup_u:.4g} > height bound {bound:.4g}")
            if tag == "control" and witness is not None:
                gap_max = checks.GAP_PER_H * hs[-1]
                if witness.verdict != "NO-WITNESS" or not witness.attainment_gap <= gap_max:
                    fails.append(f"control witness {witness.verdict}, attainment gap "
                                 f"{witness.attainment_gap:.3e} (at most {gap_max:.3e})")
        for h, r_sup, r_ctl in zip(hs, legs["super"][0], legs["control"][0]):
            if r_sup is not None and r_ctl is not None:
                fails += checks.check_ordered(r_sup.field.values, r_ctl.field.values,
                                              label=f"h = {h:g}:")
    return fails


def domain_grids(rnd: Round, seed: int, sizes: dict, run_dir: Path) -> list:
    """Serrin audit, grid and stencil operators for six domains at each spacing."""
    hs = sizes["spacings"]
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, 6)
    H = rnd.call(mcgraph.PrescribedCurvature.constant, DOMAIN_H)
    built = []
    for factory, shape, params in DOMAINS:
        if factory == "levelset":
            dom = rnd.call(mcgraph.levelset, LEVELSET_EXPR, (-1.1, 1.1, -1.0, 1.0))
        else:
            dom = rnd.call(getattr(mcgraph, factory), **params)
        audit = rnd.op(mcgraph.check_serrin, dom, H, 2)
        grids = []
        for h in hs:
            grid = rnd.op(mcgraph.Grid, dom, h)
            if grid is not None:
                rnd.call(grid.operators)
            grids.append(grid)
        built.append((factory, shape, params, audit, grids))
    fails = []
    q, mq = checks.quadratic(coeffs)
    with rnd.checking():
        for factory, shape, params, audit, grids in built:
            if audit is not None:
                fails += checks.check_close(audit.margin, checks.serrin_margin(shape, params, DOMAIN_H),
                                            checks.SERRIN_TOL, label=f"{factory} Serrin margin")
            for h, grid in zip(hs, grids):
                if grid is None:
                    continue
                label = f"{factory} h = {h:g}:"
                fallbacks = int(grid.flags.get("ghost_linear_fallback", 0))
                fails += checks.check_feet_on_curve(
                    checks.distance_to_curve(shape, params, grid.foot_xy), label)
                xi, yi = grid.interior_xy[:, 0], grid.interior_xy[:, 1]
                q_int = q(xi, yi)
                q_feet = q(grid.foot_xy[:, 0], grid.foot_xy[:, 1])
                gx, gy = grid.xs[grid.ghost_ij[:, 0]], grid.ys[grid.ghost_ij[:, 1]]
                fails += checks.check_ghost_quadratic(grid.ghost_values(q_int, q_feet),
                                                      q(gx, gy), fallbacks, label)
                u = mcgraph.ScalarField(grid, q_int, q_feet)
                fails += checks.check_apply_M(mcgraph.apply_M(u), mq(xi, yi), grid.h,
                                              float(np.max(np.abs(q_int))), grid.core_mask,
                                              fallbacks, label)
    return fails


def curvature_sweep(rnd: Round, seed: int, sizes: dict, run_dir: Path) -> list:
    """Spherical caps for a range of H on one shared disk grid, solved in a
    seed-shuffled order."""
    h, Hs = sizes["h"], sizes["curvatures"]
    order = np.random.default_rng(seed).permutation(len(Hs))
    dom = rnd.call(mcgraph.disk, 1.0)
    grid = rnd.op(mcgraph.Grid, dom, h)
    if grid is None:
        return []
    data = rnd.call(mcgraph.ZeroData)
    reports = {}
    for k in order:
        H = rnd.call(mcgraph.PrescribedCurvature.constant, Hs[k])
        reports[k] = rnd.op(mcgraph.solve_dirichlet, grid, H, data, n=2)
    fails = []
    with rnd.checking():
        sups, errs = [], []
        for k, Hk in enumerate(Hs):
            rep = reports[k]
            if rep is None:
                continue
            if rep.verdict != "converged":
                fails.append(f"sweep H = {Hk:g}: verdict {rep.verdict}")
            xy = grid.interior_xy
            errs.append(float(np.max(np.abs(rep.field.values
                                            - checks.cap_height(xy[:, 0], xy[:, 1], 1.0 / Hk)))))
            sups.append(float(np.max(np.abs(rep.field.values))))
        if len(errs) == len(Hs):
            fails += checks.check_errors_bounded([h] * len(Hs), errs, checks.SWEEP_ERR_C,
                                                 label="sweep")
            fails += checks.check_increasing(sups, label="sweep sup|u| over H")
    return fails


WORKLOADS = {
    "cap_refinement": cap_refinement,
    "nonexistence_pair": nonexistence_pair,
    "domain_grids": domain_grids,
    "curvature_sweep": curvature_sweep,
}
