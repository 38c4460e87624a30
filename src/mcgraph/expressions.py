"""Compile formulas in x, y into vectorized functions with exact first and
second partial derivatives.

The accepted grammar is a fixed subset of Python expression syntax:

* numbers, the variables ``x`` and ``y`` and the constants ``pi`` and ``E``;
* the binary operators ``+ - * / **`` (``^`` is read as ``**``), unary
  ``+`` and ``-``, and parentheses;
* one-argument calls of ``sqrt exp log sin cos tan asin acos atan sinh cosh
  tanh asinh acosh atanh``.

`compile_expr` parses the text with `ast.parse` and rejects any other node
with `ExpressionError`; nothing in the text is ever executed.  Constant
subtrees are folded once.  `Expr2D.jet` then evaluates the tree with
second-order forward-mode jets (Griewank & Walther, *Evaluating
Derivatives*, SIAM 2008, ch. 13): every node carries its value, (fx, fy)
and (fxx, fxy, fyy), and a derivative that is structurally zero is kept as
None instead of an array of zeros.  All arithmetic is numpy float64,
constants included, so a negative base to a fractional power gives nan.
"""

from __future__ import annotations

import ast
import operator

import numpy as np


class ExpressionError(ValueError):
    pass


_f64 = np.float64

_CONSTANTS = {"pi": _f64(np.pi), "E": _f64(np.e)}


# each function: value v = g(u) and (g'(u), g''(u)) from u and v
def _d_sqrt(u, v):
    g1 = 0.5 / v
    return g1, -0.5 * g1 / u


def _d_log(u, v):
    g1 = 1.0 / u
    return g1, -g1 * g1


def _d_tan(u, v):
    g1 = 1.0 + v * v
    return g1, 2.0 * v * g1


def _d_asin(u, v):
    g1 = 1.0 / np.sqrt((1.0 - u) * (1.0 + u))
    return g1, u * g1 ** 3


def _d_acos(u, v):
    g1 = -1.0 / np.sqrt((1.0 - u) * (1.0 + u))
    return g1, u * g1 ** 3


def _d_atan(u, v):
    g1 = 1.0 / (1.0 + u * u)
    return g1, -2.0 * u * g1 * g1


def _d_tanh(u, v):
    g1 = (1.0 - v) * (1.0 + v)
    return g1, -2.0 * v * g1


def _d_asinh(u, v):
    g1 = 1.0 / np.sqrt(1.0 + u * u)
    return g1, -u * g1 ** 3


def _d_acosh(u, v):
    g1 = 1.0 / np.sqrt((u - 1.0) * (u + 1.0))
    return g1, -u * g1 ** 3


def _d_atanh(u, v):
    g1 = 1.0 / ((1.0 - u) * (1.0 + u))
    return g1, 2.0 * u * g1 * g1


_FUNCTIONS = {
    "sqrt": (np.sqrt, _d_sqrt),
    "exp": (np.exp, lambda u, v: (v, v)),
    "log": (np.log, _d_log),
    "sin": (np.sin, lambda u, v: (np.cos(u), -v)),
    "cos": (np.cos, lambda u, v: (-np.sin(u), -v)),
    "tan": (np.tan, _d_tan),
    "asin": (np.arcsin, _d_asin),
    "acos": (np.arccos, _d_acos),
    "atan": (np.arctan, _d_atan),
    "sinh": (np.sinh, lambda u, v: (np.cosh(u), v)),
    "cosh": (np.cosh, lambda u, v: (np.sinh(u), v)),
    "tanh": (np.tanh, _d_tanh),
    "asinh": (np.arcsinh, _d_asinh),
    "acosh": (np.arccosh, _d_acosh),
    "atanh": (np.arctanh, _d_atanh),
}


# -- arithmetic on jet entries, None standing for a structural zero ----------

_ONE = _f64(1.0)         # the unit derivative of x and y, multiplied away


def _add(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _sub(a, b):
    if b is None:
        return a
    return -b if a is None else a - b


def _mul(a, b):
    if a is None or b is None:
        return None
    if a is _ONE:
        return b
    return a if b is _ONE else a * b


def _neg(a):
    return None if a is None else -a


def _chain(u, v, g1, g2):
    """Jet of g(u) from u's jet, v = g(u), g'(u) and g''(u)."""
    _, ux, uy, uxx, uxy, uyy = u
    return (v, _mul(g1, ux), _mul(g1, uy),
            _add(_mul(g1, uxx), _mul(g2, _mul(ux, ux))),
            _add(_mul(g1, uxy), _mul(g2, _mul(ux, uy))),
            _add(_mul(g1, uyy), _mul(g2, _mul(uy, uy))))


def _jet_mul(a, b):
    a0, ax, ay, axx, axy, ayy = a
    b0, bx, by, bxx, bxy, byy = b
    cross_xx = _mul(ax, bx)
    cross_yy = _mul(ay, by)
    return (a0 * b0,
            _add(_mul(ax, b0), _mul(a0, bx)),
            _add(_mul(ay, b0), _mul(a0, by)),
            _add(_add(_mul(axx, b0), _mul(a0, bxx)), _add(cross_xx, cross_xx)),
            _add(_add(_mul(axy, b0), _mul(a0, bxy)), _add(_mul(ax, by), _mul(ay, bx))),
            _add(_add(_mul(ayy, b0), _mul(a0, byy)), _add(cross_yy, cross_yy)))


def _over(a, b):
    return None if a is None else a / b


def _jet_div(a, b):
    # q = a / b: from a = q b, q' = (a' - q b') / b and
    # q'' = (a'' - 2 q' b' - q b'') / b, term by term
    a0, ax, ay, axx, axy, ayy = a
    b0, bx, by, bxx, bxy, byy = b
    q = a0 / b0
    qx = _over(_sub(ax, _mul(q, bx)), b0)
    qy = _over(_sub(ay, _mul(q, by)), b0)
    qx_bx = _mul(qx, bx)
    qy_by = _mul(qy, by)
    return (q, qx, qy,
            _over(_sub(_sub(axx, _add(qx_bx, qx_bx)), _mul(q, bxx)), b0),
            _over(_sub(_sub(axy, _add(_mul(qx, by), _mul(qy, bx))), _mul(q, bxy)), b0),
            _over(_sub(_sub(ayy, _add(qy_by, qy_by)), _mul(q, byy)), b0))


def _jet_pow_const(a, c):
    # u ** c: g' = c u^(c-1), g'' = c (c-1) u^(c-2)
    v = a[0] ** c
    if c == 0.0:
        return (v, None, None, None, None, None)
    if c == 1.0:
        return _chain(a, v, _ONE, None)
    if c == 2.0:
        return _chain(a, v, 2.0 * a[0], 2.0)
    return _chain(a, v, c * a[0] ** (c - 1.0), c * (c - 1.0) * a[0] ** (c - 2.0))


def _jet_pow(a, b):
    # a ** b = exp(b log a)
    v = a[0] ** b[0]
    log_a = _chain(a, np.log(a[0]), *_d_log(a[0], None))
    return _chain(_jet_mul(b, log_a), v, v, v)


_BINARY = {
    ast.Add: (operator.add, lambda a, b: tuple(map(_add, a, b))),
    ast.Sub: (operator.sub, lambda a, b: tuple(map(_sub, a, b))),
    ast.Mult: (operator.mul, _jet_mul),
    ast.Div: (operator.truediv, _jet_div),
    ast.Pow: (operator.pow, _jet_pow),
}


# -- the compiled tree ---------------------------------------------------------
#
# A node is ("const", c), ("x",), ("y",), ("neg", a), ("call", name, a) or
# ("bin", op, a, b); only "const" nodes hold no variable.

def _value(node, x, y):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "x":
        return x
    if kind == "y":
        return y
    if kind == "neg":
        return -_value(node[1], x, y)
    if kind == "call":
        return _FUNCTIONS[node[1]][0](_value(node[2], x, y))
    return _BINARY[node[1]][0](_value(node[2], x, y), _value(node[3], x, y))


def _jet(node, x, y):
    kind = node[0]
    if kind == "const":
        return (node[1], None, None, None, None, None)
    if kind == "x":
        return (x, _ONE, None, None, None, None)
    if kind == "y":
        return (y, None, _ONE, None, None, None)
    if kind == "neg":
        return tuple(map(_neg, _jet(node[1], x, y)))
    if kind == "call":
        fn, derivs = _FUNCTIONS[node[1]]
        u = _jet(node[2], x, y)
        v = fn(u[0])
        return _chain(u, v, *derivs(u[0], v))
    if node[1] is ast.Pow and node[3][0] == "const":
        return _jet_pow_const(_jet(node[2], x, y), node[3][1])
    return _BINARY[node[1]][1](_jet(node[2], x, y), _jet(node[3], x, y))


class _Parser:
    """AST → compiled tree, for the whitelisted nodes only."""

    def __init__(self, text: str):
        self.text = text

    def fail(self, what: str):
        raise ExpressionError(f"expression {self.text!r}: {what}")

    def build(self, node):
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                self.fail(f"unsupported constant {node.value!r}")
            try:
                return ("const", _f64(node.value))
            except OverflowError:
                self.fail(f"number {node.value} is out of float range")
        if isinstance(node, ast.Name):
            if node.id in ("x", "y"):
                return (node.id,)
            if node.id in _CONSTANTS:
                return ("const", _CONSTANTS[node.id])
            self.fail(f"uses unknown symbols: {node.id}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            a = self.build(node.operand)
            if isinstance(node.op, ast.UAdd):
                return a
            return ("const", -a[1]) if a[0] == "const" else ("neg", a)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            a, b = self.build(node.left), self.build(node.right)
            if a[0] == b[0] == "const":
                return ("const", _f64(_BINARY[type(node.op)][0](a[1], b[1])))
            return ("bin", type(node.op), a, b)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                self.fail("only calls of a function name are allowed")
            name = node.func.id
            if name not in _FUNCTIONS:
                self.fail(f"unknown function {name}; the functions are "
                          + ", ".join(_FUNCTIONS))
            if len(node.args) != 1 or node.keywords:
                self.fail(f"{name} takes exactly one positional argument")
            a = self.build(node.args[0])
            if a[0] == "const":
                return ("const", _f64(_FUNCTIONS[name][0](a[1])))
            return ("call", name, a)
        self.fail(f"unsupported syntax {type(node).__name__}")


class Expr2D:
    """A C^2 scalar function of (x, y) with exact first and second partials."""

    __slots__ = ("text", "_tree")

    def __init__(self, text: str, tree):
        self.text = text
        self._tree = tree

    def __repr__(self):
        return f"Expr2D({self.text!r})"

    def __call__(self, x, y):
        x, y, shape = _inputs(x, y)
        return _output(_value(self._tree, x, y), shape, [x, y])

    def jet(self, x, y):
        """(f, fx, fy, fxx, fxy, fyy) at the points, six distinct arrays of
        the inputs' shape."""
        x, y, shape = _inputs(x, y)
        out = []
        for d in _jet(self._tree, x, y):
            out.append(_output(0.0 if d is None else d, shape, [x, y, *out]))
        return tuple(out)

    def grad(self, x, y):
        _, fx, fy, *_ = self.jet(x, y)
        return np.stack([fx, fy], axis=-1)

    def hess(self, x, y):
        *_, xx, xy, yy = self.jet(x, y)
        h = np.empty(xx.shape + (2, 2), dtype=float)
        h[..., 0, 0] = xx
        h[..., 0, 1] = xy
        h[..., 1, 0] = xy
        h[..., 1, 1] = yy
        return h


def _inputs(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x, y, np.broadcast_shapes(x.shape, y.shape)


def _output(out, shape, taken):
    """A float array of the given shape that is none of `taken`: constants
    broadcast, shared arrays copied."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        return np.broadcast_to(out, shape).copy()
    return out.copy() if any(out is t for t in taken) else out


def compile_expr(text: str) -> Expr2D:
    """Parse `text` as a function of x and y in the grammar above."""
    try:
        body = ast.parse(text.replace("^", "**").strip(), mode="eval").body
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
    try:
        with np.errstate(all="ignore"):      # a folded constant may be nan or inf
            tree = _Parser(text).build(body)
    except RecursionError:
        raise ExpressionError(f"cannot parse expression {text!r}: nested too deeply") from None
    return Expr2D(text, tree)
