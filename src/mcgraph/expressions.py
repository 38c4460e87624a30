"""Compile formulas in x, y into vectorized functions with exact partial
derivatives of any order.

The accepted grammar is a fixed subset of Python expression syntax:

* numbers, the variables ``x`` and ``y`` and the constants ``pi`` and ``E``;
* the binary operators ``+ - * / **`` (``^`` is read as ``**``), unary
  ``+`` and ``-``, and parentheses;
* one-argument calls of ``sqrt exp log sin cos tan asin acos atan sinh cosh
  tanh asinh acosh atanh``.

`compile_expr` parses the text with `ast.parse` and rejects any other node
with `ExpressionError`; nothing in the text is ever executed.  Constant
subtrees are folded once.  A partial derivative is a tree too: each
operator and function has one first-derivative rule that returns a tree (a
function's rule is a formula in its argument u and its value v, in the same
grammar), and the rules applied again give partials of any order.  An
`Expr2D` builds each derivative tree on first use and keeps it.  Equal
nodes are made once, and a derivative that is structurally zero or one
(that of a constant, or of x in x) is added and multiplied away.  One
evaluator computes the value and any set of partials in a single pass: each
node they share once, each temporary freed after its last use.  `jet`
gives (f, fx, fy) at order 1, and adds (fxx, fxy, fyy) at order 2.  All
arithmetic is numpy float64, constants included, so a negative base to a
fractional power gives nan.
"""

from __future__ import annotations

import ast
import functools
import operator

import numpy as np


class ExpressionError(ValueError):
    pass


_f64 = np.float64

_CONSTANTS = {"pi": _f64(np.pi), "E": _f64(np.e)}

# each function and its derivative, a formula in its argument u and value v
_FUNCTIONS = {name: (fn, ast.parse(rule, mode="eval").body) for name, (fn, rule) in {
    "sqrt": (np.sqrt, "0.5/v"),
    "exp": (np.exp, "v"),
    "log": (np.log, "1/u"),
    "sin": (np.sin, "cos(u)"),
    "cos": (np.cos, "-sin(u)"),
    "tan": (np.tan, "1 + v*v"),
    "asin": (np.arcsin, "1/sqrt((1 - u)*(1 + u))"),
    "acos": (np.arccos, "-1/sqrt((1 - u)*(1 + u))"),
    "atan": (np.arctan, "1/(1 + u*u)"),
    "sinh": (np.sinh, "cosh(u)"),
    "cosh": (np.cosh, "sinh(u)"),
    "tanh": (np.tanh, "(1 - v)*(1 + v)"),
    "asinh": (np.arcsinh, "1/sqrt(1 + u*u)"),
    "acosh": (np.arccosh, "1/sqrt((u - 1)*(u + 1))"),
    "atanh": (np.arctanh, "1/((1 - u)*(1 + u))"),
}.items()}

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


# -- the compiled tree ---------------------------------------------------------
#
# A node is ("const", c), ("x",), ("y",), ("neg", a), ("call", name, a) or
# ("bin", op, a, b); only "const" nodes hold no variable.  _ZERO and _ONE are
# the structural zero and one of the derivative rules: d c and d x / d x.

_LEAVES = {"x": ("x",), "y": ("y",)}
_ZERO = ("const", _f64(0.0))
_ONE = ("const", _f64(1.0))


class _Nodes:
    """The nodes of one expression and of its derivative trees, kept for the
    table's life.  A node is keyed by its operator and its children's
    identities, so equal subtrees are one object; constants are not merged
    (0.0 == -0.0).  Each node's derivative in x or in y is built once."""

    def __init__(self):
        self.made = {}
        self.derivs = {}

    def neg(self, a):
        if a[0] == "const":
            return ("const", -a[1])
        return self.made.setdefault(("neg", id(a)), ("neg", a))

    def call(self, name, a):
        if a[0] == "const":
            return ("const", _f64(_FUNCTIONS[name][0](a[1])))
        return self.made.setdefault((name, id(a)), ("call", name, a))

    def bin(self, op, a, b):
        if a[0] == b[0] == "const":
            return ("const", _f64(_BINARY[op](a[1], b[1])))
        return self.made.setdefault((op, id(a), id(b)), ("bin", op, a, b))

    # the arithmetic of derivatives, in which _ZERO and _ONE drop out
    def add(self, a, b):
        return b if a is _ZERO else a if b is _ZERO else self.bin(ast.Add, a, b)

    def sub(self, a, b):
        return a if b is _ZERO else self.neg(b) if a is _ZERO else self.bin(ast.Sub, a, b)

    def mul(self, a, b):
        if a is _ZERO or b is _ZERO:
            return _ZERO
        return b if a is _ONE else a if b is _ONE else self.bin(ast.Mult, a, b)

    def d(self, node, var):
        """The tree of d node / d var, var "x" or "y"."""
        if node[0] in ("const", "x", "y"):
            return _ONE if node[0] == var else _ZERO
        key = (id(node), var)
        if key not in self.derivs:
            self.derivs[key] = self._rule(node, var)
        return self.derivs[key]

    def _rule(self, node, var):
        kind = node[0]
        if kind == "neg":
            return self.sub(_ZERO, self.d(node[1], var))
        if kind == "call":                   # g(u)' = g'(u) u'
            u = node[2]
            rule = _Parser("the derivative of " + node[1], self, {"u": u, "v": node})
            return self.mul(rule.build(_FUNCTIONS[node[1]][1]), self.d(u, var))
        op, a, b = node[1:]
        da, db = self.d(a, var), self.d(b, var)
        if op is ast.Add:
            return self.add(da, db)
        if op is ast.Sub:
            return self.sub(da, db)
        if op is ast.Mult:
            return self.add(self.mul(da, b), self.mul(a, db))
        if op is ast.Div:                    # q = a / b: q' = (a' - q b') / b
            q = self.sub(da, self.mul(node, db))
            return _ZERO if q is _ZERO else self.bin(ast.Div, q, b)
        if b[0] != "const":                  # a ** b = exp(b log a)
            return self.mul(node, self.d(self.bin(ast.Mult, b, self.call("log", a)), var))
        c = b[1]                             # a ** c: c a^(c-1) a'
        if c == 0.0:
            return _ZERO
        if c == 1.0:
            return da
        return self.mul(self.bin(ast.Mult, b, a if c == 2.0 else
                                 self.bin(ast.Pow, a, ("const", c - 1.0))), da)


class _Parser:
    """AST → compiled tree, for the whitelisted nodes only; `names` maps each
    symbol beside pi and E to its tree."""

    def __init__(self, text: str, nodes: _Nodes, names):
        self.text = text
        self.nodes = nodes
        self.names = names

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
            if node.id in self.names:
                return self.names[node.id]
            if node.id in _CONSTANTS:
                return ("const", _CONSTANTS[node.id])
            self.fail(f"uses unknown symbols: {node.id}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            a = self.build(node.operand)
            return a if isinstance(node.op, ast.UAdd) else self.nodes.neg(a)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return self.nodes.bin(type(node.op), self.build(node.left), self.build(node.right))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                self.fail("only calls of a function name are allowed")
            name = node.func.id
            if name not in _FUNCTIONS:
                self.fail(f"unknown function {name}; the functions are "
                          + ", ".join(_FUNCTIONS))
            if len(node.args) != 1 or node.keywords:
                self.fail(f"{name} takes exactly one positional argument")
            return self.nodes.call(name, self.build(node.args[0]))
        self.fail(f"unsupported syntax {type(node).__name__}")


_ORDERS = {0: ("",), 1: ("", "x", "y"), 2: ("", "x", "y", "xx", "xy", "yy")}


class Expr2D:
    """A smooth scalar function of (x, y) with exact partials of any order."""

    __slots__ = ("text", "_tree", "_nodes", "_plans")

    def __init__(self, text: str, tree, nodes: _Nodes):
        self.text = text
        self._tree = tree
        self._nodes = nodes
        self._plans = {}

    def __repr__(self):
        return f"Expr2D({self.text!r})"

    def __call__(self, x, y):
        return self._evaluate(x, y, _ORDERS[0])[0]

    def jet(self, x, y, order: int = 2):
        """(f, fx, fy, fxx, fxy, fyy) at the points, six distinct arrays of
        the inputs' shape; (f, fx, fy) at order 1."""
        return self._evaluate(x, y, _ORDERS[order])

    def grad(self, x, y):
        return np.stack(self.jet(x, y, order=1)[1:], axis=-1)

    def partial(self, axes: str) -> "Expr2D":
        """The partial derivative in the variables of `axes` in turn ("xy" is
        d/dy d/dx, "" the function itself), as an expression."""
        with np.errstate(all="ignore"):
            return Expr2D(f"d{axes}({self.text})", self._derivative(axes), self._nodes)

    def _evaluate(self, x, y, wanted):
        """The partials `wanted` (each named as in `partial`) at the points,
        distinct arrays of the inputs' shape, from one pass over the nodes."""
        x, y, shape = _inputs(x, y)
        try:
            plan = self._plans.get(wanted)
            if plan is None:
                with np.errstate(all="ignore"):      # a folded constant may be nan or inf
                    plan = self._plans[wanted] = _plan([self._derivative(a) for a in wanted])
            roots, shared = plan
            held = {}
            values = [_value(root, x, y, shared, held) for root in roots]
        except RecursionError:
            raise ExpressionError(f"expression {self.text!r}: nested too deeply") from None
        out = []
        for v in values:
            out.append(_output(v, shape, [x, y, *out]))
        return tuple(out)

    def _derivative(self, axes):
        return functools.reduce(self._nodes.d, axes, self._tree)


def _plan(roots):
    """The trees `roots` and the nodes under them read more than once (one
    read for each parent and each time the node is a root), with their
    numbers of reads."""
    reads = {}
    for root in roots:
        _count_reads(root, reads)
    return roots, {key: n for key, n in reads.items() if n > 1}


def _count_reads(node, reads):
    key = id(node)
    if key in reads:
        reads[key] += 1
        return
    reads[key] = 1
    for c in node[1:]:
        if type(c) is tuple and c[0] not in ("const", "x", "y"):   # leaves are not held
            _count_reads(c, reads)


def _value(node, x, y, shared, held):
    """The value of `node`, children first.  A node is computed once and
    held only until its last read, so a temporary that one parent reads is
    that parent's argument alone, which numpy may overwrite with the
    parent's result."""
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "x":
        return x
    if kind == "y":
        return y
    key = id(node)
    if key in held:
        entry = held[key]
        entry[1] -= 1
        return held.pop(key)[0] if entry[1] == 0 else entry[0]
    if kind == "neg":
        v = -_value(node[1], x, y, shared, held)
    elif kind == "call":
        v = _FUNCTIONS[node[1]][0](_value(node[2], x, y, shared, held))
    else:
        v = _BINARY[node[1]](_value(node[2], x, y, shared, held),
                             _value(node[3], x, y, shared, held))
    if key in shared:
        held[key] = [v, shared[key] - 1]
    return v


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


def compile_expr(text: str, **names: Expr2D) -> Expr2D:
    """Parse `text` as a function of x and y in the grammar above; each
    keyword is one more symbol, standing for its expression."""
    try:
        body = ast.parse(text.replace("^", "**").strip(), mode="eval").body
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
    nodes = _Nodes()
    trees = {**_LEAVES, **{k: e._tree for k, e in names.items()}}
    try:
        with np.errstate(all="ignore"):      # a folded constant may be nan or inf
            tree = _Parser(text, nodes, trees).build(body)
    except RecursionError:
        raise ExpressionError(f"cannot parse expression {text!r}: nested too deeply") from None
    return Expr2D(text, tree, nodes)
