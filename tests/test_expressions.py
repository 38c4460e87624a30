"""The formula compiler: exact jets of every accepted function and operator,
a finite-difference property, and the grammar's refusals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcgraph.expressions import ExpressionError, compile_expr
from mcgraph.geometry import PrescribedCurvature

def _linear(g, g1, g2, a=0.7, b=-0.4):
    """(f, fx, fy, fxx, fxy, fyy) of g(a x + b y) from g, g' and g''."""
    def jet(x, y):
        u = a * x + b * y
        d1, d2 = g1(u), g2(u)
        return g(u), a * d1, b * d1, a * a * d2, a * b * d2, b * b * d2
    return jet


# text, hand-written (f, fx, fy, fxx, fxy, fyy), box for x and y
CLOSED_FORMS = {
    "sqrt": ("sqrt(0.7*x - 0.4*y)", _linear(
        np.sqrt, lambda u: 0.5 / np.sqrt(u), lambda u: -0.25 * u ** -1.5), (0.5, 2.0, -1.0, 0.0)),
    "exp": ("exp(0.7*x - 0.4*y)", _linear(np.exp, np.exp, np.exp), (-1.0, 1.0, -1.0, 1.0)),
    "log": ("log(0.7*x - 0.4*y)", _linear(
        np.log, lambda u: 1 / u, lambda u: -1 / u ** 2), (0.5, 2.0, -1.0, 0.0)),
    "sin": ("sin(0.7*x - 0.4*y)", _linear(
        np.sin, np.cos, lambda u: -np.sin(u)), (-1.0, 1.0, -1.0, 1.0)),
    "cos": ("cos(0.7*x - 0.4*y)", _linear(
        np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)), (-1.0, 1.0, -1.0, 1.0)),
    "tan": ("tan(0.7*x - 0.4*y)", _linear(
        np.tan, lambda u: 1 / np.cos(u) ** 2,
        lambda u: 2 * np.sin(u) / np.cos(u) ** 3), (-1.0, 1.0, -1.0, 1.0)),
    "asin": ("asin(0.7*x - 0.4*y)", _linear(
        np.arcsin, lambda u: 1 / np.sqrt(1 - u * u),
        lambda u: u / (1 - u * u) ** 1.5), (-0.6, 0.6, -0.6, 0.6)),
    "acos": ("acos(0.7*x - 0.4*y)", _linear(
        np.arccos, lambda u: -1 / np.sqrt(1 - u * u),
        lambda u: -u / (1 - u * u) ** 1.5), (-0.6, 0.6, -0.6, 0.6)),
    "atan": ("atan(0.7*x - 0.4*y)", _linear(
        np.arctan, lambda u: 1 / (1 + u * u),
        lambda u: -2 * u / (1 + u * u) ** 2), (-2.0, 2.0, -2.0, 2.0)),
    "sinh": ("sinh(0.7*x - 0.4*y)", _linear(np.sinh, np.cosh, np.sinh), (-1.0, 1.0, -1.0, 1.0)),
    "cosh": ("cosh(0.7*x - 0.4*y)", _linear(np.cosh, np.sinh, np.cosh), (-1.0, 1.0, -1.0, 1.0)),
    "tanh": ("tanh(0.7*x - 0.4*y)", _linear(
        np.tanh, lambda u: 1 / np.cosh(u) ** 2,
        lambda u: -2 * np.sinh(u) / np.cosh(u) ** 3), (-1.0, 1.0, -1.0, 1.0)),
    "asinh": ("asinh(0.7*x - 0.4*y)", _linear(
        np.arcsinh, lambda u: 1 / np.sqrt(1 + u * u),
        lambda u: -u / (1 + u * u) ** 1.5), (-2.0, 2.0, -2.0, 2.0)),
    "acosh": ("acosh(0.7*x - 0.4*y)", _linear(
        np.arccosh, lambda u: 1 / np.sqrt(u * u - 1),
        lambda u: -u / (u * u - 1) ** 1.5), (2.0, 3.0, -1.0, 0.0)),
    "atanh": ("atanh(0.7*x - 0.4*y)", _linear(
        np.arctanh, lambda u: 1 / (1 - u * u),
        lambda u: 2 * u / (1 - u * u) ** 2), (-0.6, 0.6, -0.6, 0.6)),
    "add": ("x + y", lambda x, y: (x + y, 1, 1, 0, 0, 0), (-1.0, 1.0, -1.0, 1.0)),
    "sub": ("x - 2*y", lambda x, y: (x - 2 * y, 1, -2, 0, 0, 0), (-1.0, 1.0, -1.0, 1.0)),
    "mul": ("x*y", lambda x, y: (x * y, y, x, 0, 1, 0), (-1.0, 1.0, -1.0, 1.0)),
    "div": ("x/y", lambda x, y: (x / y, 1 / y, -x / y ** 2, 0, -1 / y ** 2, 2 * x / y ** 3),
            (-1.0, 1.0, 0.5, 2.0)),
    "div_by_x": ("y/x", lambda x, y: (y / x, -y / x ** 2, 1 / x, 2 * y / x ** 3, -1 / x ** 2, 0),
                 (0.5, 2.0, -1.0, 1.0)),
    "pow_const": ("x**3", lambda x, y: (x ** 3, 3 * x ** 2, 0, 6 * x, 0, 0),
                  (-1.0, 1.0, -1.0, 1.0)),
    "pow_frac": ("y**2.5", lambda x, y: (y ** 2.5, 0, 2.5 * y ** 1.5, 0, 0, 3.75 * y ** 0.5),
                 (-1.0, 1.0, 0.5, 2.0)),
    "pow_var": ("x**y", lambda x, y: (
        x ** y, y * x ** (y - 1), x ** y * np.log(x), y * (y - 1) * x ** (y - 2),
        x ** (y - 1) * (1 + y * np.log(x)), x ** y * np.log(x) ** 2), (0.5, 2.0, -1.0, 1.0)),
    "xor": ("x^2*y", lambda x, y: (x * x * y, 2 * x * y, x * x, 2 * y, 2 * x, 0),
            (-1.0, 1.0, -1.0, 1.0)),
    "unary": ("-x*+y", lambda x, y: (-x * y, -y, -x, 0, -1, 0), (-1.0, 1.0, -1.0, 1.0)),
    "constants": ("pi*x + E**y", lambda x, y: (
        np.pi * x + np.exp(y), np.pi, np.exp(y), 0, 0, np.exp(y)), (-1.0, 1.0, -1.0, 1.0)),
    "nested": ("sin(x*y)", lambda x, y: (
        np.sin(x * y), y * np.cos(x * y), x * np.cos(x * y), -y * y * np.sin(x * y),
        np.cos(x * y) - x * y * np.sin(x * y), -x * x * np.sin(x * y)), (-1.0, 1.0, -1.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
def test_jet_matches_closed_forms(case):
    text, exact, (x0, x1, y0, y1) = CLOSED_FORMS[case]
    rng = np.random.default_rng(7)
    x = rng.uniform(x0, x1, 64)
    y = rng.uniform(y0, y1, 64)
    e = compile_expr(text)
    got = e.jet(x, y)
    assert len(got) == 6
    for name, g, want in zip(("f", "fx", "fy", "fxx", "fxy", "fyy"), got, exact(x, y)):
        want = np.broadcast_to(np.asarray(want, dtype=float), x.shape)
        assert g.shape == x.shape
        np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-15, err_msg=f"{case} {name}")
    np.testing.assert_array_equal(e(x, y), got[0])
    np.testing.assert_array_equal(e.grad(x, y), np.stack(got[1:3], axis=-1))


# formulas that stay smooth and bounded for |x|, |y| <= 1
_LEAVES = st.sampled_from(["x", "y", "0.5", "1.3", "pi"])


def _grow(children):
    unary = st.sampled_from(["sin({})", "cos({})", "atan({})", "tanh({})", "-({})",
                             "sqrt(1 + ({})**2)", "exp(0.3*sin({}))", "({})**2"])
    binary = st.sampled_from(["({}) + ({})", "({}) - ({})", "({})*({})",
                              "({})/(2 + cos({}))", "(1.5 + sin({}))**(0.5*cos({}))"])
    return st.one_of(st.builds(lambda f, a: f.format(a), unary, children),
                     st.builds(lambda f, a, b: f.format(a, b), binary, children, children))


FORMULAS = st.recursive(_LEAVES, _grow, max_leaves=6)


@settings(max_examples=150)
@given(FORMULAS, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_jet_matches_central_differences(text, x, y):
    e = compile_expr(text)
    f, fx, fy, fxx, fxy, fyy = (float(v) for v in e.jet(x, y))
    h = 1e-5

    def diff(k, dx, dy):
        hi = e.jet(x + dx, y + dy)[k]
        lo = e.jet(x - dx, y - dy)[k]
        return float(hi - lo) / (2 * h)

    # first derivatives from values, second ones from the exact first ones
    pairs = [(fx, diff(0, h, 0)), (fy, diff(0, 0, h)),
             (fxx, diff(1, h, 0)), (fxy, diff(1, 0, h)), (fxy, diff(2, h, 0)),
             (fyy, diff(2, 0, h))]
    for exact, fd in pairs:
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)), (text, exact, fd)


def test_derivative_trees_are_built_on_first_use_and_once():
    # a value builds no derivative tree, a first-order jet the first-order
    # trees alone, and a repeated jet nothing new; a constant's curvature,
    # evaluated, builds none
    e = compile_expr("sin(x*y) + x**2/(1 + y)")
    e(0.3, 0.4)
    assert not e._nodes.derivs
    e.jet(0.3, 0.4, order=1)
    first = set(e._nodes.derivs)
    assert {var for _, var in first} == {"x", "y"}
    e.jet(0.3, 0.4)
    second = set(e._nodes.derivs)
    assert second > first
    e.jet(0.3, 0.4)
    e.grad(0.3, 0.4)
    assert set(e._nodes.derivs) == second
    H = PrescribedCurvature.constant(0.4)
    H(np.zeros((4, 2)))
    assert not H.expr._nodes.derivs


def test_partial_of_third_order_matches_its_closed_form():
    x, y = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 32))
    e = compile_expr("sin(x*y)")
    # d/dx d/dy d/dy sin(xy) = -2 x sin(xy) - x^2 y cos(xy)
    np.testing.assert_allclose(e.partial("yyx")(x, y),
                               -2 * x * np.sin(x * y) - x * x * y * np.cos(x * y),
                               rtol=1e-13, atol=1e-15)


def test_a_formula_too_deep_to_differentiate_is_refused_when_differentiated():
    # 700 nested minus signs parse, but their derivative recursion is deeper
    # than Python's stack allows
    e = compile_expr("-" * 700 + "x")
    with pytest.raises(ExpressionError, match="nested too deeply"):
        e.jet(0.5, 0.5)


def test_constant_broadcasts_to_the_input_shape():
    e = compile_expr("2")
    x = np.zeros((3, 4))
    assert np.array_equal(e(x, x), np.full((3, 4), 2.0))
    f, *derivs = e.jet(x, x)
    assert np.array_equal(f, np.full((3, 4), 2.0))
    for d in derivs:
        assert d.shape == (3, 4) and not d.any()
    assert e(0.5, 0.5).shape == ()


def test_results_are_fresh_arrays():
    x = np.array([0.25, 0.5])
    out = compile_expr("x")(x, x)
    out[0] = 9.0
    assert x[0] == 0.25


@pytest.mark.parametrize("text, expect", [("x**0", (1, 0, 0, 0, 0, 0)),
                                          ("x**1", (0, 1, 0, 0, 0, 0)),
                                          ("y**1", (0, 0, 1, 0, 0, 0))])
def test_zeroth_and_first_powers_have_exact_jets_at_zero(text, expect):
    # the generic rule c u^(c-1), c (c-1) u^(c-2) would give 0 * inf = nan here
    zeros = np.zeros(3)
    with np.errstate(all="raise"):
        jet = compile_expr(text).jet(zeros, zeros)
    for got, want in zip(jet, expect):
        assert np.array_equal(got, np.full(3, float(want)))


def test_negative_base_to_a_fractional_power_is_nan():
    with np.errstate(invalid="ignore"):
        assert np.isnan(compile_expr("x**(1/3)")(-8.0, 0.0))
        assert np.isnan(compile_expr("(-8)**(1/3) + x")(0.0, 0.0))


@pytest.mark.parametrize("text, fragment", [
    ("x +", "cannot parse"),
    ("z + x", "unknown symbols: z"),
    ("foo(x)", "unknown function foo"),
    ("x.real", "Attribute"),
    ("x[0]", "Subscript"),
    ("sin(x=1)", "one positional argument"),
    ("x < y", "Compare"),
    ("lambda: x", "Lambda"),
    ("atan(x, y)", "one positional argument"),
    ("'x'", "unsupported constant"),
    ("x if y else 1", "IfExp"),
    ("__import__('os').getpid() * 0 + x", "only calls of a function name"),
], ids=["syntax", "symbol", "function", "attribute", "subscript", "keyword",
        "comparison", "lambda", "two_arguments", "string", "conditional", "import"])
def test_refused_before_evaluation(text, fragment):
    with pytest.raises(ExpressionError, match=fragment):
        compile_expr(text)


def test_no_code_in_a_formula_runs(monkeypatch):
    monkeypatch.delenv("MCGRAPH_FORMULA_RAN", raising=False)
    with pytest.raises(ExpressionError):
        compile_expr("__import__('os').environ.setdefault('MCGRAPH_FORMULA_RAN', '1') * 0 + x")
    assert "MCGRAPH_FORMULA_RAN" not in os.environ


def test_start_up_imports_neither_sympy_nor_mpmath():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, mcgraph; mcgraph.reference.catalog(); mcgraph.ZeroData(); "
            "print(sorted(m for m in ('sympy', 'mpmath', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[-2] == "[]"


def test_certificate_imports_no_mpmath():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, mcgraph; mcgraph.nonexistence_bound(mcgraph.disk(), "
            "mcgraph.PrescribedCurvature.constant(0.55), (1.0, 0.0), 0.05); "
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[-2] == "False"


def test_start_up_and_grids_import_no_scipy_spatial():
    # the KD-tree of scipy.spatial is a fallback of the level-set distance
    # and of the barrier distance model: the catalog, a grid with its
    # operators on every factory domain at h = 1/32, and the sup of an
    # expression H over the dumbbell's closure samples do without it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = """
import sys, mcgraph
from mcgraph.geometry import _FACTORIES
mcgraph.reference.catalog()
params = {"disk": {}, "ellipse": {"a": 1.2, "b": 0.7}, "rect": {"hx": 1.0, "hy": 0.6},
          "rounded_rect": {"hx": 1.0, "hy": 0.6, "corner_radius": 0.25},
          "annulus": {"r_in": 0.8, "r_out": 1.6}, "dumbbell": {},
          "levelset": {"expr": "1 - (0.8*x + 0.6*y)**2/1.21 - (0.8*y - 0.6*x)**2/0.36",
                       "bbox": (-1.1, 1.1, -1.0, 1.0)}}
assert sorted(params) == sorted(_FACTORIES)
for name, kw in params.items():
    mcgraph.Grid(_FACTORIES[name](**kw), 1 / 32).operators()
mcgraph.PrescribedCurvature.expression("0.3 + 0.2*x*y").h0(_FACTORIES["dumbbell"]())
print("scipy.spatial" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[-2] == "False"
