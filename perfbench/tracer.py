"""In-memory span tracer wrapped around mcgraph's public functions.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, layer, start, end, parent) and updates counters, then calls
the original with the same arguments and returns its result unchanged.  A
function that a module re-binds under another name (``from .linear import
solve as linear_solve``) is replaced wherever it is bound in an ``mcgraph``
module.  `uninstall()` puts every original back.

Spans stay in memory; `summary()` turns them into per-layer metrics and
`dump()` writes them out as JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute path, span name); the layer is the span name's prefix
TRACED = (
    ("mcgraph.geometry", "DomainSpec.__init__", "geometry.domain"),
    ("mcgraph.geometry", "DomainSpec.signed_distance", "geometry.signed_distance"),
    ("mcgraph.geometry", "DomainSpec.diameter", "geometry.pairwise"),
    ("mcgraph.geometry", "DomainSpec.smoothness_radius", "geometry.pairwise"),
    ("mcgraph.geometry", "check_serrin", "geometry.serrin"),
    ("mcgraph.expressions", "compile_expr", "expressions.compile"),
    ("mcgraph.grid", "Grid.__init__", "grid.build"),
    ("mcgraph.grid", "Grid.operators", "grid.operators"),
    ("mcgraph.operators", "gradient", "operators.gradient"),
    ("mcgraph.operators", "residual_norms", "operators.residual"),
    ("mcgraph.linear", "assemble", "linear.assemble"),
    ("mcgraph.linear", "solve", "linear.solve"),
    ("scipy.sparse.linalg", "splu", "linear.factor"),
    ("scipy.sparse.linalg", "lgmres", "linear.krylov"),
    ("mcgraph.solver", "solve_dirichlet", "solver.solve"),
    ("mcgraph.barriers", "height_bound", "barriers.audit"),
    ("mcgraph.barriers", "global_gradient_bound", "barriers.audit"),
    ("mcgraph.barriers", "boundary_gradient_package", "barriers.audit"),
    ("mcgraph.barriers", "barrier_pair_checks", "barriers.audit"),
    ("mcgraph.barriers", "nonexistence_bound", "barriers.certificate"),
    ("mcgraph.barriers", "nonexistence_witness", "barriers.witness"),
    ("mcgraph.reference", "catalog", "reference.catalog"),
    ("mcgraph.config", "load_scenario", "config.load"),
    ("mcgraph.reporting", "build_report", "reporting.build"),
    ("mcgraph.reporting", "write_report", "reporting.write"),
    ("mcgraph.reporting", "write_traces_csv", "reporting.write"),
    ("mcgraph.reporting", "write_fields_csv", "reporting.write"),
    ("mcgraph.reporting", "write_heatmap_svg", "reporting.write"),
    ("mcgraph.cli", "main", "cli.main"),
)

LAYERS = ("geometry", "expressions", "grid", "operators", "linear", "solver",
          "barriers", "reference", "config", "reporting", "cli", "boundary")

# per-layer metrics of the traced run, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("geometry.domain_s", "s"), ("geometry.signed_distance_s", "s"),
    ("geometry.signed_distance_points", "count"), ("geometry.pairwise_s", "s"),
    ("geometry.serrin_s", "s"),
    ("expressions.compiles", "count"), ("expressions.compile_s", "s"),
    ("grid.build_s", "s"), ("grid.operators_s", "s"),
    ("grid.interior_nodes", "count"), ("grid.feet", "count"),
    ("operators.gradient_calls", "count"), ("operators.gradient_s", "s"),
    ("operators.residual_s", "s"), ("operators.gradients_per_iteration", "count"),
    ("linear.assemble_calls", "count"), ("linear.assemble_s", "s"),
    ("linear.factorizations", "count"), ("linear.factor_s", "s"),
    ("linear.solve_calls", "count"), ("linear.solve_s", "s"),
    ("linear.fill_nnz_max", "count"), ("linear.krylov_fallbacks", "count"),
    ("linear.backward_error_max", "1"),
    ("solver.solves", "count"), ("solver.solve_s", "s"),
    ("solver.iterations", "count"), ("solver.last_stage_iterations_max", "count"),
    ("solver.damping_cuts", "count"),
    ("barriers.audit_s", "s"), ("barriers.certificate_s", "s"),
    ("barriers.witness_s", "s"),
    ("reference.catalog_s", "s"), ("config.load_s", "s"),
    ("reporting.write_s", "s"), ("reporting.bytes", "bytes"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.self_time_coverage", "ratio"), ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)


def _resolve(owner, path):
    """(object holding the last attribute, attribute name, its raw value)."""
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent index, phase]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.phase = "setup"
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._built_ops = weakref.WeakSet()   # grids whose operators were traced
        self._stored_max = 0                  # largest SuperLU storage count seen

    # -- spans -------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.phase])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def span(self, name, layer, fn, *args, **kwargs):
        self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    # -- patching ----------------------------------------------------------

    def install(self):
        for modname, path, span_name in TRACED:
            module = sys.modules.get(modname)
            if module is None:
                continue
            try:
                owner, attr, orig = _resolve(module, path)
            except AttributeError:
                continue        # renamed or removed: the metric reads 0
            if isinstance(orig, property):
                wrapper = property(self._wrap(orig.fget, span_name), orig.fset, orig.fdel)
            else:
                wrapper = self._wrap(orig, span_name)
            targets = [(owner, attr)]
            if "." not in path:     # a plain function: find every re-binding
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "mcgraph" or name.startswith("mcgraph.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig and (mod, key) != (owner, attr):
                            targets.append((mod, key))
            for tgt, key in targets:
                self._patches.append((tgt, key, inspect.getattr_static(tgt, key)))
                setattr(tgt, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, orig, span_name):
        layer = span_name.split(".")[0]
        after = getattr(self, "_after_" + span_name.replace(".", "_"), None)
        tracer = self

        if span_name == "grid.operators":
            def wrapper(grid, *args, **kwargs):
                if grid in tracer._built_ops:
                    return orig(grid, *args, **kwargs)
                tracer._built_ops.add(grid)
                return tracer.span(span_name, layer, orig, grid, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                out = tracer.span(span_name, layer, orig, *args, **kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out
        return functools.update_wrapper(wrapper, orig)

    # -- counters read at the span boundaries ------------------------------

    def _after_geometry_signed_distance(self, args, kwargs, out):
        self.counts["geometry.signed_distance_points"] += getattr(out, "size", 1)

    def _after_grid_build(self, args, kwargs, out):
        grid = args[0]
        self.counts["grid.interior_nodes"] += getattr(grid, "n_interior", 0)
        self.counts["grid.feet"] += getattr(grid, "n_feet", 0)

    def _after_linear_solve(self, args, kwargs, out):
        system = args[0] if args else kwargs.get("system")
        relres = getattr(system, "meta", {}).get("relres")
        if relres is not None:
            self.maxima["linear.backward_error_max"] = max(
                self.maxima["linear.backward_error_max"], float(relres))

    def _after_linear_factor(self, args, kwargs, out):
        # nnz(L) + nnz(U) copies both factors, so it is read only when
        # SuperLU's own storage count sets a new maximum
        stored = getattr(out, "nnz", None)
        if stored is None or stored <= self._stored_max:
            return
        self._stored_max = stored
        self.maxima["linear.fill_nnz_max"] = max(self.maxima["linear.fill_nnz_max"],
                                                 out.L.nnz + out.U.nnz)

    def _after_solver_solve(self, args, kwargs, out):
        self.counts["solver.iterations"] += getattr(out, "iterations", 0)
        stages = getattr(out, "stages", [])
        if stages:
            self.maxima["solver.last_stage_iterations_max"] = max(
                self.maxima["solver.last_stage_iterations_max"], stages[-1].iters)
        self.counts["solver.damping_cuts"] += _damping_cuts(out)

    def _after_reporting_write(self, args, kwargs, out):
        path = args[0] if args else kwargs.get("path")
        try:
            self.counts["reporting.bytes"] += os.path.getsize(path)
        except (OSError, TypeError):
            pass

    # -- summary -----------------------------------------------------------

    def summary(self, round_wall_s, overhead):
        """Per-layer metrics: totals over set-up plus the traced round, and
        each layer's self time over the traced round alone."""
        spans = self.spans
        durations = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for k, s in enumerate(spans):
            if s[4] >= 0:
                child_time[s[4]] += durations[k]

        def outermost(k):
            # true when no ancestor carries the same span name
            name, p = spans[k][0], spans[k][4]
            while p >= 0:
                if spans[p][0] == name:
                    return False
                p = spans[p][4]
            return True

        total = defaultdict(float)
        calls = defaultdict(int)
        self_by_layer = defaultdict(float)
        for k, s in enumerate(spans):
            calls[s[0]] += 1
            if outermost(k):
                total[s[0]] += durations[k]
            if s[5] == "round":
                self_by_layer[s[1]] += durations[k] - child_time[k]

        m = {
            "geometry.domain_s": total["geometry.domain"],
            "geometry.signed_distance_s": total["geometry.signed_distance"],
            "geometry.signed_distance_points": self.counts["geometry.signed_distance_points"],
            "geometry.pairwise_s": total["geometry.pairwise"],
            "geometry.serrin_s": total["geometry.serrin"],
            "expressions.compiles": calls["expressions.compile"],
            "expressions.compile_s": total["expressions.compile"],
            "grid.build_s": total["grid.build"],
            "grid.operators_s": total["grid.operators"],
            "grid.interior_nodes": self.counts["grid.interior_nodes"],
            "grid.feet": self.counts["grid.feet"],
            "operators.gradient_calls": calls["operators.gradient"],
            "operators.gradient_s": total["operators.gradient"],
            "operators.residual_s": total["operators.residual"],
            "operators.gradients_per_iteration": (
                calls["operators.gradient"] / self.counts["solver.iterations"]
                if self.counts["solver.iterations"] else 0.0),
            "linear.assemble_calls": calls["linear.assemble"],
            "linear.assemble_s": total["linear.assemble"],
            "linear.factorizations": calls["linear.factor"],
            "linear.factor_s": total["linear.factor"],
            "linear.solve_calls": calls["linear.solve"],
            "linear.solve_s": total["linear.solve"],
            "linear.fill_nnz_max": self.maxima["linear.fill_nnz_max"],
            "linear.krylov_fallbacks": calls["linear.krylov"],
            "linear.backward_error_max": self.maxima["linear.backward_error_max"],
            "solver.solves": calls["solver.solve"],
            "solver.solve_s": total["solver.solve"],
            "solver.iterations": self.counts["solver.iterations"],
            "solver.last_stage_iterations_max": self.maxima["solver.last_stage_iterations_max"],
            "solver.damping_cuts": self.counts["solver.damping_cuts"],
            "barriers.audit_s": total["barriers.audit"],
            "barriers.certificate_s": total["barriers.certificate"],
            "barriers.witness_s": total["barriers.witness"],
            "reference.catalog_s": total["reference.catalog"],
            "config.load_s": total["config.load"],
            "reporting.write_s": total["reporting.write"],
            "reporting.bytes": self.counts["reporting.bytes"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        self_sum = sum(self_by_layer.values())
        m["trace.self_time_coverage"] = self_sum / round_wall_s if round_wall_s > 0 else 0.0
        m["trace.overhead"] = overhead
        m["trace.spans"] = len(spans)
        unit = dict(PER_LAYER)
        return {name: {"value": float(m[name]), "unit": unit[name]} for name, _ in PER_LAYER}

    def dump(self, path, extra):
        rows = [{"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "phase": s[5]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, **extra}, fh)


def _damping_cuts(report) -> int:
    """Halvings of the damping factor, read from the per-iteration trace rows
    and each stage's final damping."""
    rows = getattr(report, "trace", None) or []
    stages = getattr(report, "stages", None) or []
    by_tau = defaultdict(list)
    for row in rows:
        by_tau[row["tau"]].append(row["damping"])
    cuts = 0
    for stage in stages:
        seq = by_tau.get(stage.tau, []) + [stage.damping_final]
        cuts += sum(1 for a, b in zip(seq, seq[1:]) if b < a)
    return cuts

