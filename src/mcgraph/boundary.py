"""Dirichlet boundary data: zero, constant, expression, or a compact bump in
boundary arclength.

Expression-backed data carries an analytic C^2 extension to the plane, which
the barrier machinery uses for norms and transported derivatives.  Bump data
lives only on the boundary curve (no extension).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .expressions import Expr2D, compile_expr
from .geometry import DomainSpec


class BoundaryData:
    """Boundary trace phi plus (optionally) an analytic extension and its derivatives."""

    kind = "abstract"

    def trace(self, pts, s=None):
        """Values at boundary points pts; s are matching arclength coordinates."""
        raise NotImplementedError

    # extension to the closure, None when the data is boundary-only
    extension: Optional[Expr2D] = None

    def norms(self, domain: DomainSpec):
        """(|phi|_0, |phi|_1, |phi|_2) sup-norm ladder over the closure.

        |phi|_0 = sup |phi|; |phi|_1 adds sup of the Euclidean gradient norm;
        |phi|_2 adds sup of the Frobenius Hessian norm, which dominates the
        operator norm, so every <Hess phi . v, v> <= |phi|_2 |v|^2 bound in the
        barrier algebra stays valid.  Sampled on a 192 x 192 lattice plus the
        boundary samples; requires an extension."""
        if self.extension is None:
            raise ValueError(f"{self.kind} data has no C^2 extension; norms undefined")
        pts = domain.closure_samples(192)
        f, fx, fy, fxx, fxy, fyy = self.extension.jet(pts[:, 0], pts[:, 1])
        p0 = float(np.max(np.abs(f)))
        p1 = p0 + float(np.max(np.hypot(fx, fy)))
        frob = np.sqrt(fxx ** 2 + 2.0 * fxy ** 2 + fyy ** 2)
        p2 = p1 + float(np.max(frob))
        return p0, p1, p2

    def sup_abs(self, domain: DomainSpec) -> float:
        """sup |phi| over the boundary samples."""
        b = domain.boundary
        return float(np.max(np.abs(self.trace(b.points, b.arclength))))


class ZeroData(BoundaryData):
    kind = "zero"
    extension = compile_expr("0")

    def trace(self, pts, s=None):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape[:-1])

    def norms(self, domain: DomainSpec):
        """The zero extension's norms, without sampling."""
        return 0.0, 0.0, 0.0

    def __repr__(self):
        return "phi = 0"


class ExpressionData(BoundaryData):
    kind = "expression"

    def __init__(self, text: str):
        self.extension = compile_expr(text)
        self.text = text

    def trace(self, pts, s=None):
        pts = np.asarray(pts, dtype=float)
        return self.extension(pts[..., 0], pts[..., 1])

    def __repr__(self):
        return f"phi = {self.text}"


def constant_data(value: float) -> ExpressionData:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"constant data must be finite, got {value!r}")
    return ExpressionData(repr(v))


def scherk_trace() -> ExpressionData:
    """Trace of the classical minimal graph log(cos x / cos y); valid for |x|, |y| < pi/2."""
    return ExpressionData("log(cos(x)/cos(y))")


class BumpData(BoundaryData):
    """Smooth bump of height eps supported within boundary-arclength a of y0.

    phi(s) = eps * exp(1 - 1/(1 - (rho/a)^2)) for rho < a, else 0, where rho is
    the shortest boundary distance from s to y0; the width a must be positive
    and finite.
    """

    kind = "bump"
    extension = None

    def __init__(self, domain: DomainSpec, y0, width, eps: float):
        self.domain = domain
        self.y0 = np.asarray(y0, dtype=float)
        self.s0 = float(np.atleast_1d(domain.arclength_of(self.y0))[0])
        if not 0.0 < width < math.inf:
            raise ValueError(f"bump width must be positive and finite, got {width!r}")
        self.width = float(width)
        self.eps = float(eps)

    def trace(self, pts, s=None):
        if s is None:
            s = self.domain.arclength_of(np.asarray(pts, dtype=float))
        rho = self.domain.arc_distance(np.asarray(s, dtype=float), self.s0)
        a = self.width
        out = np.zeros(np.shape(rho))
        inside = rho < a
        q = (rho[inside] / a) ** 2
        out[inside] = self.eps * np.exp(1.0 - 1.0 / (1.0 - q))
        return out

    def __repr__(self):
        return (f"phi = bump(eps={self.eps}, width={self.width:.3g}, "
                f"s0={self.s0:.4f})")

