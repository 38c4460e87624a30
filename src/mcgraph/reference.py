"""Catalog of analytic reference solutions for validation and error studies.

Each entry bundles an exact graph u(x, y), the curvature function it solves,
and the domain it is valid on.  `catalog()` self-tests on its first call: the
quasilinear operator applied to each analytic field must show the second
order residual decay the discretization promises, which guards against typos
in the expressions and sign conventions drifting apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .expressions import Expr2D, compile_expr
from .geometry import DomainSpec, PrescribedCurvature, disk, rect, annulus
from .grid import Grid, ScalarField
from .operators import Evaluation


@dataclass(frozen=True)
class ReferenceSolution:
    """An analytic solution: expression, curvature, validity domain."""

    name: str
    expr: Expr2D
    curvature: PrescribedCurvature
    domain: DomainSpec
    note: str = ""

    def field(self, grid: Grid) -> ScalarField:
        """Sample the exact solution at interior nodes and boundary feet."""
        return ScalarField.from_callable(grid, self.expr)

    def error(self, u: ScalarField) -> float:
        """Sup-norm error of a computed field against the exact solution."""
        pts = u.grid.interior_xy
        return float(np.max(np.abs(u.values - self.expr(pts[:, 0], pts[:, 1]))))


def _entries() -> Dict[str, ReferenceSolution]:
    return {
        "zero": ReferenceSolution(
            name="zero",
            expr=compile_expr("0"),
            curvature=PrescribedCurvature.constant(0.0),
            domain=disk(radius=1.0),
            note="flat graph, the trivial minimal solution",
        ),
        "cap": ReferenceSolution(
            name="cap",
            expr=compile_expr("sqrt(5.25) - sqrt(6.25 - x**2 - y**2)"),
            curvature=PrescribedCurvature.constant(0.4),
            domain=disk(radius=1.0),
            note="lower spherical cap of radius 2.5 over the unit disk, "
                 "zero trace",
        ),
        "scherk": ReferenceSolution(
            name="scherk",
            expr=compile_expr("log(cos(x)/cos(y))"),
            curvature=PrescribedCurvature.constant(0.0),
            domain=rect(0.6, 0.6),
            note="doubly periodic minimal graph, valid for |x|,|y| < pi/2",
        ),
        "catenoid": ReferenceSolution(
            name="catenoid",
            expr=compile_expr("0.4*acosh(sqrt(x**2 + y**2)/0.4)"),
            curvature=PrescribedCurvature.constant(0.0),
            domain=annulus(0.8, 1.6),
            note="upper catenoid sheet with neck radius 0.4 over an annulus "
                 "kept clear of the waist, where fourth derivatives blow up",
        ),
    }


_SELF_TEST_H = (1 / 16, 1 / 32)


def _self_test(entry: ReferenceSolution) -> None:
    """Residual of the analytic field must decay at least first order.

    Two spacings, core nodes only; the coarse residual must also be small in
    absolute terms so a broken expression cannot pass by decaying garbage.
    """
    res = []
    for h in _SELF_TEST_H:
        grid = Grid(entry.domain, h)
        u = entry.field(grid)
        q = Evaluation(u, entry.curvature, n=2, tau=1.0).q
        core = grid.core_mask
        res.append(float(np.max(np.abs(q[core]))) if core.any() else 0.0)
    if res[0] > 0.05:
        raise AssertionError(
            f"reference '{entry.name}': coarse residual {res[0]:.3g} too "
            f"large; expression or curvature is wrong")
    if res[0] > 1e-12 and res[1] > 0.6 * res[0]:
        raise AssertionError(
            f"reference '{entry.name}': residual fails to decay under "
            f"refinement ({res[0]:.3g} -> {res[1]:.3g})")


@functools.cache
def catalog() -> Dict[str, ReferenceSolution]:
    """The validated reference catalog: built and self-tested on the first
    call, the same dict after it (a failed self-test keeps nothing)."""
    entries = _entries()
    for entry in entries.values():
        _self_test(entry)
    return entries


def get(name: str) -> ReferenceSolution:
    cat = catalog()
    if name not in cat:
        raise KeyError(f"unknown reference solution '{name}'; "
                       f"available: {', '.join(sorted(cat))}")
    return cat[name]
