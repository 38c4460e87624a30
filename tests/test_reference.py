"""Reference solution catalog: entries, self-test gate, error measure."""

import numpy as np
import pytest

from mcgraph import Grid, disk
from mcgraph.reference import ReferenceSolution, catalog, get


def test_catalog_names():
    assert set(catalog()) == {"zero", "cap", "scherk", "catenoid"}


def test_catalog_is_built_once():
    assert catalog() is catalog()


def test_get_unknown_name_lists_available():
    with pytest.raises(KeyError, match="available: cap, catenoid, scherk, zero"):
        get("soap_film")


def test_cap_entry_values():
    cap = get("cap")
    # zero trace on the unit circle, apex depth at the center
    pts_x = np.array([1.0, 0.0, 0.0])
    pts_y = np.array([0.0, 1.0, 0.0])
    vals = cap.expr(pts_x, pts_y)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert vals[1] == pytest.approx(0.0, abs=1e-14)
    assert vals[2] == pytest.approx(np.sqrt(5.25) - 2.5, rel=1e-14)
    assert cap.curvature(np.array([[0.3, 0.2]]))[0] == 0.4


def test_error_measure_is_sup_norm():
    cap = get("cap")
    grid = Grid(disk(radius=1.0), 1.0 / 16.0)
    exact = cap.field(grid)
    assert cap.error(exact) == 0.0
    shifted = exact.shifted(1e-3)
    assert cap.error(shifted) == pytest.approx(1e-3, rel=1e-12)


def test_self_test_rejects_wrong_expression():
    from mcgraph.expressions import compile_expr
    from mcgraph.geometry import PrescribedCurvature
    from mcgraph.reference import _self_test
    bogus = ReferenceSolution(
        name="bogus",
        expr=compile_expr("x**2 + y**2"),
        curvature=PrescribedCurvature.constant(0.0),
        domain=disk(radius=1.0))
    with pytest.raises(AssertionError, match="bogus"):
        _self_test(bogus)
