"""Bounded planar domains for graph problems: signed distance, boundary sampling,
curvature, and solvability audits.

Conventions used throughout the package:
  * signed distance d is positive inside the domain, negative outside, zero on
    the boundary; for interior points d(x) = dist(x, boundary),
  * every shape has its own sign test `contains(x, y)`, True on the closed
    domain: an inequality in closed form (|x - c|^2 <= r^2 on disks,
    x^2/a^2 + y^2/b^2 <= 1 on ellipses, within the corner radius of the
    core rectangle on rectangles, F >= 0 on level sets) at coordinate
    arrays that broadcast, so that a lattice is tested on its axes,
  * every shape gives `axis_crossing`, where a link along a lattice axis from
    an inside point leaves the domain: a square root on the link's line on
    the shapes with a closed form (disk, ellipse, rect, rounded_rect,
    annulus), a bracketed secant on F on level sets,
  * ellipse distances come from the exact nearest point (Eberly's root, found
    by a bracketed Newton iteration), level-set distances from a constrained
    Newton foot started at the point itself, whose first step is the
    gradient projection onto F = 0, or, where that foot is not certainly
    the nearest, at the nearest vertex of the traced contour (a KD-tree of
    scipy.spatial, imported on first use),
  * boundaries carry `_N_SAMPLES` counterclockwise samples, inner normals,
  * curvature kappa is positive where the domain is convex (unit disk: +1/r),
    negative on reentrant pieces,
  * curvature has one source per shape: the closed form on disks, ellipses,
    rectangles and annuli, the implicit curvature of F at the projected
    samples on level sets; `boundary_curvature` reads the closed form where
    there is one and the samples' own kappa otherwise, so the Serrin audit
    and the non-existence certificate read the same kappa.

The audits encode two pointwise conditions on the curvature data H:
  * Serrin margin:  min over boundary of (n-1)*kappa(y) - n*|H(y)|,
  * gradient condition margin:  min over the closure of n/(n-1)*H^2 - |grad H|.
"""

from __future__ import annotations

import inspect
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expressions import Expr2D, compile_expr

_TWO_PI = 2.0 * math.pi
_CONTOUR_GRID = 768      # lattice points per side on which a level set's contour is traced
_CONTOUR_ROWS = 64       # rows of that lattice per evaluation of the level function
_N_SAMPLES = 4096        # boundary samples of every domain, read when one is built
_SECANT_TOL = 1e-13      # a level set's axis crossing stops at a step this short
_REACH_STRIDE = 16       # a level set's reach bound reads every 16th boundary sample


class MalformedDomainError(ValueError):
    """Boundary parametrization is degenerate or a level set has no usable contour."""


# ---------------------------------------------------------------------------
# boundary sample container


@dataclass(frozen=True)
class BoundarySamples:
    """Ordered counterclockwise boundary samples with inner normals and curvature."""

    points: np.ndarray      # (m, 2)
    normals: np.ndarray     # (m, 2), unit inner normals
    kappa: np.ndarray       # (m,)
    arclength: np.ndarray   # (m,), arclength coordinate of each sample
    total_length: float

    def __post_init__(self):
        for arr in (self.points, self.normals, self.kappa, self.arclength):
            arr.setflags(write=False)
        d = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        if d.size and d.min() <= 1e-14 * max(1.0, self.total_length):
            raise MalformedDomainError("coincident consecutive boundary samples")


# ---------------------------------------------------------------------------
# shape implementations


def _axis_frame(rel, unit):
    """Position along and distance across the line of each axis link: rel is
    the link's start relative to the shape's centre, unit its direction,
    (+-1, 0) or (0, +-1); both are exact."""
    along = rel[:, 0] * unit[:, 0] + rel[:, 1] * unit[:, 1]
    across = np.abs(rel[:, 0] * unit[:, 1] + rel[:, 1] * unit[:, 0])
    return along, across


def _half_chord(radius, w):
    """Half the chord of a circle at distance 0 <= w <= radius from its
    centre, sqrt(r^2 - w^2) written as sqrt((r - w)(r + w)), which keeps its
    relative precision on near-tangent lines."""
    return np.sqrt((radius - w) * (radius + w))


class _Disk:
    tag = "disk"

    def __init__(self, center, radius):
        if radius <= 0:
            raise MalformedDomainError("disk radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def bbox(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cx + r, cy - r, cy + r)

    def contains(self, x, y):
        cx, cy = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 <= self.radius ** 2

    def signed_distance(self, pts):
        return self.radius - np.linalg.norm(pts - self.center, axis=-1)

    def axis_crossing(self, pts, unit, h):
        """Fraction of the link pts -> pts + h unit at which it leaves the
        disk, for inside points and axis directions unit."""
        along, across = _axis_frame(pts - self.center, unit)
        return (_half_chord(self.radius, across) - along) / h

    def sample(self, m):
        t = _TWO_PI * np.arange(m) / m
        c, s = np.cos(t), np.sin(t)
        pts = self.center + self.radius * np.stack([c, s], axis=-1)
        normals = -np.stack([c, s], axis=-1)
        kappa = np.full(m, 1.0 / self.radius)
        arclength = self.radius * t
        return pts, normals, kappa, arclength, _TWO_PI * self.radius

    def curvature_at(self, s):
        return np.full(np.shape(s), 1.0 / self.radius)

    def diameter(self):
        return 2.0 * self.radius

    def smoothness_radius(self):
        return self.radius

    def arclength_of_point(self, pts):
        d = pts - self.center
        ang = np.mod(np.arctan2(d[..., 1], d[..., 0]), _TWO_PI)
        return self.radius * ang


class _Ellipse:
    tag = "ellipse"

    def __init__(self, a, b, center=(0.0, 0.0)):
        if a <= 0 or b <= 0:
            raise MalformedDomainError("ellipse semi-axes must be positive")
        self.a, self.b = float(a), float(b)
        self.center = np.asarray(center, dtype=float)
        # dense parameter table for arclength-uniform resampling and s lookups
        t = np.linspace(0.0, _TWO_PI, 16385)
        x, y = self.a * np.cos(t), self.b * np.sin(t)
        seg = np.hypot(np.diff(x), np.diff(y))
        s = np.concatenate([[0.0], np.cumsum(seg)])
        self._t_table, self._s_table = t, s
        self.length = float(s[-1])

    def bbox(self):
        cx, cy = self.center
        return (cx - self.a, cx + self.a, cy - self.b, cy + self.b)

    def diameter(self):
        return 2.0 * max(self.a, self.b)

    def smoothness_radius(self):
        # the radius of curvature at the ends of the major axis
        return min(self.a, self.b) ** 2 / max(self.a, self.b)

    def _param(self, t):
        return self.center + np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def contains(self, x, y):
        cx, cy = self.center
        return ((x - cx) / self.a) ** 2 + ((y - cy) / self.b) ** 2 <= 1.0

    def axis_crossing(self, pts, unit, h):
        """As `_Disk.axis_crossing`: the half chord at distance w from the
        axis along the link is (e_along / e_across) sqrt(e_across^2 - w^2)."""
        along, across = _axis_frame(pts - self.center, unit)
        x_link = unit[:, 0] != 0
        e_along, e_across = np.where(x_link, self.a, self.b), np.where(x_link, self.b, self.a)
        return (e_along / e_across * _half_chord(e_across, across) - along) / h

    def _nearest(self, pts):
        """Nearest boundary point and its distance, by Eberly's method ("Distance
        from a point to an ellipse, an ellipsoid, or a hyperellipsoid",
        Geometric Tools, 2013).

        With the major semi-axis e0 first and the point folded into the first
        quadrant, the nearest point is x = (r0 y0 / (s + r0), y1 / (s + 1)),
        r0 = (e0/e1)^2, where s is the root of the decreasing function
        g(s) = (r0 z0 / (s + r0))^2 + (z1 / (s + 1))^2 - 1, z = y / e.  The
        root is found in u = s + 1, which keeps its relative precision for
        points near the major axis, inside the bracket [z1, 1] (inside) or
        [z1, |(r0 z0, z1)|] (outside).  g is convex and decreasing in u, so
        Newton's method from max(z1, r0 z0 - r0 + 1), where g >= 0 and
        neither of its terms exceeds 1, rises to the root; its step is
        scaled by u so that it neither overflows nor underflows near the
        major axis, a step that leaves the bracket bisects it instead, and
        each iterate moves an end of the bracket by the sign of g.  A point
        stops when its next iterate lands on an end of the bracket: it no
        longer moves, g is exactly zero, or the bracket cannot shrink.
        Points on an axis take the closed forms."""
        rel = np.atleast_2d(pts) - self.center
        swap = self.a < self.b
        e0, e1 = (self.b, self.a) if swap else (self.a, self.b)
        if swap:
            rel = rel[:, ::-1]
        y0, y1 = np.abs(rel[:, 0]), np.abs(rel[:, 1])
        x0, x1 = np.full(y0.shape, np.nan), np.full(y1.shape, np.nan)
        # on the major axis the nearest point is off it within (e0^2 - e1^2)/e0
        # of the centre, and the vertex beyond
        major = y1 == 0
        xde0 = np.minimum(e0 * y0[major] / (e0 * e0 - e1 * e1), 1.0) if e0 > e1 else 1.0
        x0[major] = e0 * xde0
        x1[major] = e1 * np.sqrt(1.0 - xde0 * xde0)
        minor = (y0 == 0) & (y1 > 0)
        x0[minor], x1[minor] = 0.0, e1
        r0 = (e0 / e1) ** 2
        z0, z1 = y0 / e0, y1 / e1
        g = z0 * z0 + z1 * z1 - 1.0
        quadrant = (y0 > 0) & (y1 > 0)
        on = quadrant & (g == 0)
        x0[on], x1[on] = y0[on], y1[on]
        idx = np.flatnonzero(quadrant & (g != 0))
        n0, z1i = r0 * z0[idx], z1[idx]
        lo = z1i
        hi = np.where(g[idx] < 0, 1.0, np.hypot(n0, z1i))
        c = r0 - 1.0
        u = np.empty(len(idx))
        todo = np.arange(len(idx))
        # from z1 or n0 - c, where a term of g is 1 and the other at most 1
        t = np.maximum(lo, n0 - c)
        while todo.size:
            a2, b2 = (n0[todo] / (t + c)) ** 2, (z1i[todo] / t) ** 2
            g_t = a2 + b2 - 1.0
            lo, hi = np.where(g_t > 0, t, lo), np.where(g_t > 0, hi, t)
            nxt = t + t * g_t / (2.0 * (a2 * t / (t + c) + b2))    # t - g / g'
            nxt = np.where(((nxt > lo) & (nxt < hi)) | (nxt == t), nxt, 0.5 * (lo + hi))
            done = (nxt == lo) | (nxt == hi)
            u[todo[done]] = nxt[done]
            keep = ~done
            todo, lo, hi, t = todo[keep], lo[keep], hi[keep], nxt[keep]
        x0[idx] = r0 * y0[idx] / (u + c)
        x1[idx] = y1[idx] / u
        dist = np.hypot(x0 - y0, x1 - y1)
        near = np.stack([np.copysign(x0, rel[:, 0]), np.copysign(x1, rel[:, 1])], axis=-1)
        if swap:
            near = near[:, ::-1]
        return near, dist

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        _, dist = self._nearest(pts)
        p2 = np.atleast_2d(pts)
        out = np.where(self.contains(p2[..., 0], p2[..., 1]), dist, -dist)
        return out[0] if pts.ndim == 1 else out.reshape(pts.shape[:-1])

    def _kappa_of_t(self, t):
        a, b = self.a, self.b
        return a * b / (a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2) ** 1.5

    def sample(self, m):
        s_targets = self.length * np.arange(m) / m
        t = np.interp(s_targets, self._s_table, self._t_table)
        pts = self._param(t)
        ct, st = np.cos(t), np.sin(t)
        tang = np.stack([-self.a * st, self.b * ct], axis=-1)
        tang /= np.linalg.norm(tang, axis=-1, keepdims=True)
        normals = np.stack([-tang[:, 1], tang[:, 0]], axis=-1)  # left normal, ccw => inner
        return pts, normals, self._kappa_of_t(t), s_targets, self.length

    def curvature_at(self, s):
        t = np.interp(np.mod(s, self.length), self._s_table, self._t_table)
        return self._kappa_of_t(t)

    def arclength_of_point(self, pts):
        near, _ = self._nearest(pts)
        t = np.mod(np.arctan2(near[:, 1] / self.b, near[:, 0] / self.a), _TWO_PI)
        return np.interp(t, self._t_table, self._s_table)


class _RoundedRect:
    """Rectangle with quarter-circle corners of radius r; boundary is C^1,1.

    r = 0 is the plain rectangle (tag "rect"): its arcs are empty and its
    corners are not sampled exactly."""

    def __init__(self, hx, hy, corner_radius, center=(0.0, 0.0)):
        if hx <= 0 or hy <= 0:
            raise MalformedDomainError("rectangle half-extents must be positive")
        if not 0 <= corner_radius < min(hx, hy):
            raise MalformedDomainError("corner radius must lie in (0, min(hx, hy))")
        self.tag = "rounded_rect" if corner_radius > 0 else "rect"
        self.hx, self.hy, self.r = float(hx), float(hy), float(corner_radius)
        self.center = np.asarray(center, dtype=float)
        ex, ey = self.hx - self.r, self.hy - self.r   # straight half-lengths
        self.length = 4.0 * (ex + ey) + _TWO_PI * self.r
        self._ex, self._ey = ex, ey
        # arclength where each piece of the ccw walk starts: right edge, NE
        # arc, top edge, NW arc, left edge, SW arc, bottom edge, SE arc
        qarc = 0.5 * math.pi * self.r
        self._cum = np.cumsum([0.0, 2 * ey, qarc, 2 * ex, qarc, 2 * ey, qarc, 2 * ex, qarc])

    def bbox(self):
        cx, cy = self.center
        return (cx - self.hx, cx + self.hx, cy - self.hy, cy + self.hy)

    def contains(self, x, y):
        # within r of the core rectangle
        cx, cy = self.center
        qx, qy = np.abs(x - cx) - self._ex, np.abs(y - cy) - self._ey
        return np.maximum(qx, 0.0) ** 2 + np.maximum(qy, 0.0) ** 2 <= self.r ** 2

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        q = np.abs(pts - self.center) - np.array([self._ex, self._ey])
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.maximum(q[..., 0], q[..., 1]), 0.0)
        return self.r - (outside + inside)

    def axis_crossing(self, pts, unit, h):
        """As `_Disk.axis_crossing`: a link leaves across a straight edge, or
        across a corner arc when its line passes the core rectangle at w > 0."""
        along, across = _axis_frame(pts - self.center, unit)
        x_link = unit[:, 0] != 0
        w = np.maximum(across - np.where(x_link, self._ey, self._ex), 0.0)
        return (np.where(x_link, self._ex, self._ey) + _half_chord(self.r, w) - along) / h

    def sample(self, m):
        # piecewise walk ccw: right edge, NE arc, top edge, NW arc, ...
        ex, ey, r, cum = self._ex, self._ey, self.r, self._cum
        s = self.length * (np.arange(m) + 0.5) / m
        pts = np.empty((m, 2))
        nrm = np.empty((m, 2))
        kap = np.zeros(m)
        for k in range(0, 8, 1 if r > 0 else 2):
            sel = (s >= cum[k]) & (s < cum[k + 1])
            u = s[sel] - cum[k]
            if k % 2 == 0:  # straight edges
                if k == 0:
                    p = np.stack([np.full(u.shape, ex + r), -ey + u], axis=-1); nv = (-1.0, 0.0)
                elif k == 2:
                    p = np.stack([ex - u, np.full(u.shape, ey + r)], axis=-1); nv = (0.0, -1.0)
                elif k == 4:
                    p = np.stack([np.full(u.shape, -ex - r), ey - u], axis=-1); nv = (1.0, 0.0)
                else:
                    p = np.stack([-ex + u, np.full(u.shape, -ey - r)], axis=-1); nv = (0.0, 1.0)
                pts[sel] = p
                nrm[sel] = nv
            else:           # corner arcs
                corner = {1: (ex, ey), 3: (-ex, ey), 5: (-ex, -ey), 7: (ex, -ey)}[k]
                ang0 = {1: 0.0, 3: 0.5 * math.pi, 5: math.pi, 7: 1.5 * math.pi}[k]
                ang = ang0 + u / r
                d = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
                pts[sel] = np.asarray(corner) + r * d
                nrm[sel] = -d
                kap[sel] = 1.0 / r
        return pts + self.center, nrm, kap, s, self.length

    def curvature_at(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.length)
        if self.r == 0:
            return np.zeros(np.shape(s))
        idx = np.searchsorted(self._cum, s, side="right") - 1
        return np.where(idx % 2 == 1, 1.0 / self.r, 0.0)

    def arclength_of_point(self, pts):
        # the nearest boundary point is the nearest point of the core
        # rectangle [-ex, ex] x [-ey, ey] pushed out by r: on a corner arc
        # when both coordinates leave the core, else on the edge whose side
        # is nearer
        ex, ey, r, cum = self._ex, self._ey, self.r, self._cum
        q = np.asarray(pts, dtype=float) - self.center
        x, y = q[..., 0], q[..., 1]
        out_x, out_y = np.abs(x) > ex, np.abs(y) > ey
        arc = out_x & out_y
        vertical = ~arc & (out_x | (~out_y & (ex - np.abs(x) <= ey - np.abs(y))))
        ang = np.mod(np.arctan2(y - np.sign(y) * ey, x - np.sign(x) * ex), _TWO_PI)
        quadrant = np.minimum((ang // (0.5 * math.pi)).astype(int), 3)
        s_arc = cum[2 * quadrant + 1] + r * (ang - 0.5 * math.pi * quadrant)
        s_vertical = np.where(x > 0, cum[0] + (y + ey), cum[4] + (ey - y))
        s_horizontal = np.where(y > 0, cum[2] + (ex - x), cum[6] + (x + ex))
        s = np.where(arc, s_arc, np.where(vertical, s_vertical, s_horizontal))
        return np.mod(s, self.length)


class _Annulus:
    """Ring r_in < |x| < r_out; two boundary components, outer sampled first."""

    tag = "annulus"

    def __init__(self, r_in, r_out, center=(0.0, 0.0)):
        if not 0 < r_in < r_out:
            raise MalformedDomainError("annulus needs 0 < r_in < r_out")
        self.r_in, self.r_out = float(r_in), float(r_out)
        self.center = np.asarray(center, dtype=float)
        self.length = _TWO_PI * (self.r_in + self.r_out)

    def bbox(self):
        cx, cy = self.center
        r = self.r_out
        return (cx - r, cx + r, cy - r, cy + r)

    def diameter(self):
        return 2.0 * self.r_out

    def smoothness_radius(self):
        # half the ring's width: the widest ball fitting between the circles
        return 0.5 * (self.r_out - self.r_in)

    def contains(self, x, y):
        cx, cy = self.center
        rho2 = (x - cx) ** 2 + (y - cy) ** 2
        return (self.r_in ** 2 <= rho2) & (rho2 <= self.r_out ** 2)

    def signed_distance(self, pts):
        rho = np.linalg.norm(np.asarray(pts, dtype=float) - self.center, axis=-1)
        return np.minimum(rho - self.r_in, self.r_out - rho)

    def axis_crossing(self, pts, unit, h):
        """As `_Disk.axis_crossing`, at the nearer of the outer circle's exit
        and, on a link that heads into the hole, the inner circle's entry."""
        along, across = _axis_frame(pts - self.center, unit)
        leave = _half_chord(self.r_out, across) - along
        hole = (across < self.r_in) & (along < 0)
        enter = -_half_chord(self.r_in, np.minimum(across, self.r_in)) - along
        return np.where(hole, np.minimum(leave, enter), leave) / h

    def sample(self, m):
        m_out = max(8, int(round(m * self.r_out / (self.r_in + self.r_out))))
        m_in = max(8, m - m_out)
        t_out = _TWO_PI * np.arange(m_out) / m_out
        t_in = _TWO_PI * np.arange(m_in) / m_in
        p_out = self.center + self.r_out * np.stack([np.cos(t_out), np.sin(t_out)], axis=-1)
        p_in = self.center + self.r_in * np.stack([np.cos(t_in), np.sin(t_in)], axis=-1)
        n_out = -(p_out - self.center) / self.r_out
        n_in = (p_in - self.center) / self.r_in
        k_out = np.full(m_out, 1.0 / self.r_out)
        k_in = np.full(m_in, -1.0 / self.r_in)   # reentrant seen from the ring
        s_out = self.r_out * t_out
        s_in = self.r_out * _TWO_PI + self.r_in * t_in
        pts = np.concatenate([p_out, p_in])
        return (pts, np.concatenate([n_out, n_in]), np.concatenate([k_out, k_in]),
                np.concatenate([s_out, s_in]), self.length)

    def curvature_at(self, s):
        # a few ulps of slack, as in the level-set lookup, keep a sample's
        # s + k L on its own circle where the circles meet
        s = np.asarray(s, dtype=float)
        s = np.mod(s + 4.0 * np.finfo(float).eps * (np.abs(s) + self.length), self.length)
        outer = s < self.r_out * _TWO_PI
        return np.where(outer, 1.0 / self.r_out, -1.0 / self.r_in)

    def arclength_of_point(self, pts):
        # angle times the nearer circle's radius; the inner circle follows the outer
        d = pts - self.center
        ang = np.mod(np.arctan2(d[..., 1], d[..., 0]), _TWO_PI)
        rho = np.hypot(d[..., 0], d[..., 1])
        outer = self.r_out - rho <= rho - self.r_in
        return np.where(outer, self.r_out * ang, self.r_out * _TWO_PI + self.r_in * ang)


class _LevelSet:
    """Domain {F > 0} for a C^2 level function given as an expression in x, y.

    The boundary is the longest zero contour of F traced in the bbox.  A
    point's nearest boundary point is found by a constrained Newton
    iteration, F(q) = 0 with x - q along grad F(q), started at the point
    itself, where its first step is the gradient projection step onto
    F = 0.  Its foot is kept where the iteration converged on the curve
    with grad F != 0 there, inside the bbox, and closer than half `_reach`,
    a lower bound of the boundary's reach computed once from the boundary
    samples: a normal foot that near the curve is the nearest point.  At
    the critical points of F the iteration does not move, and the residual
    test sends them, with every other point that fails a test, to
    `_tree_foot`, whose Newton starts from the nearest vertex of the traced
    polyline; scipy.spatial is imported there, on its first use.
    """

    tag = "levelset"

    def __init__(self, expr: str | Expr2D, bbox):
        self.F = expr if isinstance(expr, Expr2D) else compile_expr(expr)
        self._bbox = tuple(float(v) for v in bbox)
        self._samples = {}
        self._trace_contour()

    def bbox(self):
        return self._bbox

    def _trace_contour(self):
        x0, x1, y0, y1 = self._bbox
        nx = ny = _CONTOUR_GRID
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
        # F a block of rows at a time, so that each node of the expression
        # makes a block-sized temporary, not a lattice-sized one
        F = np.empty((nx, ny))
        for a in range(0, nx, _CONTOUR_ROWS):
            F[a:a + _CONTOUR_ROWS] = self.F(xs[a:a + _CONTOUR_ROWS, None], ys[None, :])
        loops = _marching_squares(F)
        if not loops:
            raise MalformedDomainError("level set has no zero contour inside the bbox")
        loop, closed = max(loops, key=lambda lc: len(lc[0]))
        self._one_contour = len(loops) == 1
        if not closed:
            raise MalformedDomainError("level-set zero contour is not closed in the bbox")
        pts = np.stack([
            x0 + loop[:, 0] * (x1 - x0) / (nx - 1),
            y0 + loop[:, 1] * (y1 - y0) / (ny - 1),
        ], axis=-1)
        pts = self._project(pts)
        # enforce ccw orientation (positive signed area)
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area < 0:
            pts = pts[::-1]
        self._polyline = pts

    def _project(self, pts):
        """Newton projection of points onto {F = 0} along grad F, at most 40 steps."""
        p = np.array(pts, dtype=float)
        for _ in range(40):
            f, gx, gy = self.F.jet(p[:, 0], p[:, 1], order=1)
            g2 = gx * gx + gy * gy
            g2 = np.where(g2 < 1e-30, 1e-30, g2)
            p[:, 0] -= f * gx / g2
            p[:, 1] -= f * gy / g2
            if np.max(np.abs(f)) < 1e-13:
                break
        return p

    def _nearest_foot(self, pts):
        """Nearest boundary point: the constrained Newton foot started at
        each point itself, kept where it converged on the curve, off the
        critical points of F, inside the bbox and closer than half the
        reach bound; every other point takes `_tree_foot`, and so does at
        once a point whose first-order distance |F| / |grad F| is not below
        the reach bound."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        f, gx, gy = self.F.jet(pts[:, 0], pts[:, 1], order=1)
        ok = np.abs(f) < self._reach * np.hypot(gx, gy)
        q = np.empty_like(pts)
        if ok.any():
            near = pts[ok]
            foot, kept = self._newton_foot(near, near.copy())
            kept &= np.linalg.norm(near - foot, axis=-1) < 0.5 * self._reach
            x0, x1, y0, y1 = self._bbox
            kept &= (x0 < foot[:, 0]) & (foot[:, 0] < x1) & (y0 < foot[:, 1]) & (foot[:, 1] < y1)
            q[ok] = foot
            ok[ok] = kept
        if not ok.all():
            q[~ok] = self._tree_foot(pts[~ok])
        return q

    def _tree_foot(self, pts):
        """Nearest boundary point: the constrained Newton foot from the
        nearest vertex of the traced polyline, which a KD-tree finds, or
        that vertex projected onto F = 0 where the foot is farther."""
        _, idx = self._polyline_tree.query(pts)
        q, _ = self._newton_foot(pts, self._polyline[idx].copy())
        d_poly = np.linalg.norm(pts - self._polyline[idx], axis=-1)
        d_newt = np.linalg.norm(pts - q, axis=-1)
        bad = d_newt > d_poly + 1e-9
        if np.any(bad):
            q[bad] = self._project(self._polyline[idx][bad])
        return q

    @cached_property
    def _polyline_tree(self):
        from scipy.spatial import cKDTree
        # wide leaves: fewer tree levels for the lattice-sized queries
        return cKDTree(self._polyline, leafsize=64)

    def _newton_foot(self, x, q):
        """Constrained Newton on (F(q) = 0, (x - q) x grad F(q) = 0) from the
        starts q, updated in place, at most 30 steps; with the mask of the
        points whose last residuals both passed the 1e-13 test with
        grad F != 0.  From q = x the first step is the gradient projection
        step F grad F / |grad F|^2 of `_project`, each component clipped to
        0.1 as every step is."""
        for _ in range(30):
            f, gx, gy, hxx, hxy, hyy = self.F.jet(q[:, 0], q[:, 1])
            rx, ry = x[:, 0] - q[:, 0], x[:, 1] - q[:, 1]
            # residuals: F = 0 and cross(r, g) = rx*gy - ry*gx = 0
            r1 = f
            r2 = rx * gy - ry * gx
            # jacobian
            a11, a12 = gx, gy
            a21 = -gy + rx * hxy - ry * hxx
            a22 = gx + rx * hyy - ry * hxy
            det = a11 * a22 - a12 * a21
            det = np.where(np.abs(det) < 1e-30, 1e-30, det)
            dq1 = (r1 * a22 - r2 * a12) / det
            dq2 = (a11 * r2 - a21 * r1) / det
            step = np.clip(np.stack([dq1, dq2], axis=-1), -0.1, 0.1)
            q -= step
            if max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-13:
                break
        converged = (np.abs(r1) < 1e-13) & (np.abs(r2) < 1e-13) & ((gx != 0) | (gy != 0))
        return q, converged

    @cached_property
    def _reach(self):
        """A lower bound of the reach of the boundary, from its _N_SAMPLES
        samples: every point nearer to it than this has one nearest point,
        the one normal foot at that distance (Federer, Trans. AMS 93, 1959).

        The reach is the least of 1/max|kappa| and half the shortest
        chord normal to the curve at both ends; the curve turns by at least
        pi between such ends, so they lie at least pi/max|kappa| apart
        along it.  Every _REACH_STRIDE-th sample stands in for the curve
        within `gap`, the longest arc between two of them: half the
        closest approach of those at least pi/max|kappa| - gap apart, less
        gap, bounds half that chord from below.  It is 0, and every foot
        comes from the tree, where F = 0 has another contour in the bbox,
        on which a Newton foot could land."""
        if not self._one_contour:
            return 0.0
        pts, _, kappa, s, length = self.sample(_N_SAMPLES)
        kmax = float(np.max(np.abs(kappa)))
        sub, s = pts[::_REACH_STRIDE], s[::_REACH_STRIDE]
        gap = float(np.max(np.diff(s, append=s[0] + length)))
        along = np.abs(s[:, None] - s[None, :])
        along = np.minimum(along, length - along)
        chord = np.hypot(sub[:, None, 0] - sub[None, :, 0], sub[:, None, 1] - sub[None, :, 1])
        far = along >= math.pi / kmax - gap
        closest = float(np.min(chord[far], initial=np.inf))
        return max(min(1.0 / kmax, 0.5 * closest - gap), 0.0)

    def contains(self, x, y):
        return self.F(x, y) >= 0.0

    def axis_crossing(self, pts, unit, h):
        """Fraction of each link pts -> pts + h unit, F(pts) > 0, at which F
        changes sign.

        A secant from the link's two ends, so that its first iterate is the
        linear interpolation of their values, safeguarded as in Brent
        (Algorithms for Minimization without Derivatives, 1973): F's sign
        keeps a bracket lo < theta < hi (F > 0 at lo, F <= 0 at hi), and an
        iterate outside it, or whose step is more than half the step before
        the last, is the bracket's midpoint instead.  A link stops once its
        step or its bracket is at most _SECANT_TOL or F is exactly 0 at its
        iterate.  A link whose far end has F > 0 has theta = 1."""
        step = h * unit

        def level(t, rows):
            q = pts[rows] + t[:, None] * step[rows]
            return self.F(q[:, 0], q[:, 1])

        n = len(pts)
        theta = np.ones(n)
        f_near, f_far = level(np.zeros(n), slice(None)), level(np.ones(n), slice(None))
        todo = np.flatnonzero(f_far <= 0)
        lo, hi = np.zeros(len(todo)), np.ones(len(todo))
        # the last two iterates, and the last two steps
        t0, f0, t1, f1 = lo, f_near[todo], hi, f_far[todo]
        before = last = np.full(len(todo), np.inf)
        while todo.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                t = t1 - f1 * (t1 - t0) / (f1 - f0)
            safe = (t > lo) & (t < hi) & (np.abs(t - t1) <= 0.5 * before)
            t = np.where(safe, t, 0.5 * (lo + hi))
            f = level(t, todo)
            before, last = last, np.abs(t - t1)
            lo, hi = np.where(f > 0, t, lo), np.where(f > 0, hi, t)
            done = (last <= _SECANT_TOL) | (hi - lo <= _SECANT_TOL) | (f == 0)
            theta[todo[done]] = t[done]
            keep = ~done
            todo, lo, hi, before, last = todo[keep], lo[keep], hi[keep], before[keep], last[keep]
            t0, f0, t1, f1 = t1[keep], f1[keep], t[keep], f[keep]
        return theta

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        p2 = np.atleast_2d(pts)
        dist = np.linalg.norm(p2 - self._nearest_foot(p2), axis=-1)
        out = np.where(self.contains(p2[..., 0], p2[..., 1]), dist, -dist)
        return out[0] if pts.ndim == 1 else out.reshape(pts.shape[:-1])

    def _implicit_kappa(self, pts):
        """Unit normals grad F / |grad F| (inward, F > 0 inside) and the
        implicit curvature of {F = 0} at points on it, from one jet."""
        _, gx, gy, hxx, hxy, hyy = self.F.jet(pts[:, 0], pts[:, 1])
        g = np.hypot(gx, gy)
        normals = np.stack([gx, gy], axis=-1) / g[:, None]
        kappa = (2 * gx * gy * hxy - gx * gx * hyy - gy * gy * hxx) / np.where(g < 1e-30, 1e-30, g) ** 3
        return normals, kappa

    def sample(self, m):
        """m boundary samples, equally spaced along the traced polyline and
        projected onto F = 0; made once for each m and kept."""
        if m in self._samples:
            return self._samples[m]
        pts = self._polyline
        seg = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        length = float(s[-1])
        targets = length * np.arange(m) / m
        closed = np.vstack([pts, pts[:1]])
        out = np.stack([np.interp(targets, s, closed[:, 0]), np.interp(targets, s, closed[:, 1])], axis=-1)
        out = self._project(out)
        normals, kappa = self._implicit_kappa(out)
        # recompute arclength after projection
        seg2 = np.linalg.norm(np.diff(out, axis=0, append=out[:1]), axis=1)
        s2 = np.concatenate([[0.0], np.cumsum(seg2[:-1])])
        self._samples[m] = out, normals, kappa, s2, float(np.sum(seg2))
        return self._samples[m]

    @cached_property
    def _arclength_index(self):
        """A tree of 8192 boundary samples and their arclengths."""
        from scipy.spatial import cKDTree
        ref_pts, _, _, s, _ = self.sample(8192)
        return cKDTree(ref_pts), s

    def arclength_of_point(self, pts):
        """Arclength of the nearest of 8192 boundary samples."""
        tree, s = self._arclength_index
        _, idx = tree.query(np.atleast_2d(pts))
        return s[idx]


def _cell_segments(case, joined):
    """Edge pairs (from, to) cut by the zero contour in one lattice cell.

    Corners and edges are numbered counterclockwise (edge k joins corners k
    and k+1); bit k of `case` marks corner k inside.  Each segment runs from
    an edge left inside-to-outside to one entered outside-to-inside, so the
    inside stays on its left.  Saddle cells join their inside corners when
    `joined` (cell-centre value inside) and separate them otherwise."""
    inside = [bool(case >> k & 1) for k in range(4)]
    leaves = [k for k in range(4) if inside[k] and not inside[(k + 1) % 4]]
    order = (1, 2, 3) if joined else (3, 2, 1)
    return tuple((k, next((k + s) % 4 for s in order
                          if inside[(k + s + 1) % 4] and not inside[(k + s) % 4]))
                 for k in leaves)


def _cell_table():
    """The segments of a cell by [case, joined]: up to two (from, to) edge
    pairs, then -1."""
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for case in range(1, 15):
        for joined in (0, 1):
            segments = _cell_segments(case, joined)
            table[case, joined, :len(segments)] = segments
    return table


_CELL_TABLE = _cell_table()


def _marching_squares(F):
    """Zero contour of a sampled function F[i, j] (Lorensen & Cline marching
    squares on the cell lattice) as a list of (points, closed) chains.

    Points are fractional (i, j) index coordinates, linearly interpolated on
    lattice edges; every chain keeps {F > 0} on its left, so closed loops
    around an inside region run counterclockwise.  Open chains end on the
    lattice border.

    A node has the number n = i ny + j, and so does the cell whose corner 0
    it is; the edge from n to (i + 1, j) has the number n, the edge to
    (i, j + 1) the number nx ny + n, so numbers sort as the edges' (axis, i,
    j).  The mixed cells are those with a sign change on one of their four
    edges.  Each looks up its segments in the (case, joined) table, the
    cells in ascending order and a cell's segments in table order, and a
    segment's successor is the segment that starts on its end edge, found
    by a sorted search.  The open chains are followed first, in ascending
    order of their first edges, then the closed loops, each from its first
    segment in that order.  A chain's points are the crossings on its
    segments' start edges, then on an open chain the last segment's end
    edge."""
    nx, ny = F.shape
    N = nx * ny
    F = F.ravel()
    inside = (F > 0.0).view(np.uint8)
    # sign changes on the edges to (i, j + 1) and to (i + 1, j); the first
    # also compares the ends of consecutive rows, which no cell reads
    across, along = inside[:-1] != inside[1:], inside[:-ny] != inside[ny:]
    mixed = across[:N - ny - 1] | across[ny:N - 1] | along[:-1] | along[1:]
    mixed[ny - 1::ny] = False
    cell = np.flatnonzero(mixed)
    if not len(cell):
        return []
    corner = cell[:, None] + (0, ny, ny + 1, 1)
    case = (inside[corner] << np.arange(4, dtype=np.uint8)).sum(axis=1)
    joined = F[corner[:, 0]] + F[corner[:, 1]] + F[corner[:, 2]] + F[corner[:, 3]] > 0.0
    segments = _CELL_TABLE[case, joined.view(np.int8)].reshape(-1, 2)
    real = segments[:, 0] >= 0
    # a cell's edges 0-3 have its own number plus (0, N + ny, 1, N)
    start, end = (np.repeat(cell, 2)[real, None] + np.array((0, N + ny, 1, N))[segments[real]]).T
    order = np.argsort(start)
    at = order[np.minimum(np.searchsorted(start, end, sorter=order), len(start) - 1)]
    succ = np.where(start[at] == end, at, -1)
    first = np.ones(len(start), dtype=bool)
    first[succ[succ >= 0]] = False
    heads = np.flatnonzero(first)
    succ, start_l, end_l = succ.tolist(), start.tolist(), end.tolist()
    seen = bytearray(len(start))
    chains = []
    for s in heads[np.argsort(start[heads])].tolist() + list(range(len(start))):
        if seen[s]:
            continue
        edges = []
        while s >= 0 and not seen[s]:
            seen[s] = 1
            edges.append(start_l[s])
            last, s = s, succ[s]
        closed = s >= 0
        if not closed:
            edges.append(end_l[last])
        e = np.array(edges)
        axis = e // N
        node = e - axis * N
        i, j = np.divmod(node, ny)
        f0, f1 = F[node], F[node + (1 - axis) * ny + axis]
        t = f0 / (f0 - f1)
        pts = np.stack([i + (1 - axis) * t, j + axis * t], axis=-1)
        # a contour through a lattice node crosses two edges at that node
        keep = np.any(pts != np.roll(pts, 1, axis=0), axis=1)
        keep[0] |= not closed
        chains.append((pts[keep], closed))
    return chains


# ---------------------------------------------------------------------------
# the public domain record


class DomainSpec:
    """A bounded planar domain: shape, bounding box, boundary samples, caches.

    Construct through the factory helpers (disk, ellipse, rect, rounded_rect,
    annulus, dumbbell, levelset) rather than directly.
    """

    def __init__(self, shape):
        self.shape = shape
        self.tag = shape.tag
        pts, normals, kappa, s, length = shape.sample(_N_SAMPLES)
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(kappa)):
            raise MalformedDomainError("non-finite boundary samples")
        self.boundary = BoundarySamples(pts, normals, kappa, s, float(length))
        self.bbox = shape.bbox()
        self._diameter: Optional[float] = None
        self._smoothness_radius: Optional[float] = None

    # -- distances ---------------------------------------------------------

    def signed_distance(self, pts):
        """Positive inside, negative outside, zero on the boundary."""
        return self.shape.signed_distance(np.asarray(pts, dtype=float))

    def contains(self, x, y):
        """Sign test, True inside or on the boundary (the shape's own closed
        inequality), at the points (x, y) of broadcastable coordinate
        arrays, a bool array of their broadcast shape: on a lattice's axes,
        ``contains(xs[:, None], ys[None, :])``."""
        return self.shape.contains(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def axis_crossing(self, pts, unit, h):
        """Fraction theta of each link pts -> pts + h unit at which it leaves
        the domain, for inside points pts (k, 2) and lattice axis directions
        unit (k, 2), rows (+-1, 0) or (0, +-1): in closed form on the disk,
        ellipse, rectangles and annulus, by a bracketed secant on F on level
        sets.  theta may fall outside (0, 1) by rounding, or beyond 1 where
        the link's far end is inside."""
        return self.shape.axis_crossing(np.asarray(pts, dtype=float), unit, h)

    # -- boundary lookups ----------------------------------------------------

    def boundary_curvature(self, s):
        """Curvature at arclength s: the shape's closed form where it has one,
        otherwise the samples' own curvature at the first sample at or past s."""
        s = np.asarray(s, dtype=float)
        closed = getattr(self.shape, "curvature_at", None)
        if closed is not None:
            return closed(s)
        b = self.boundary
        L = b.total_length
        # s = b.arclength + k L is rounded once when formed and once by the
        # mod; the slack of a few ulps keeps it on its own sample
        r = np.mod(s, L) - 4.0 * np.finfo(float).eps * (np.abs(s) + L)
        return b.kappa[np.searchsorted(b.arclength, r) % len(b.kappa)]

    def on_boundary(self, point) -> bool:
        """True when the point's |signed distance| is <= 1e-6 max(1, diameter)."""
        d = np.atleast_1d(self.signed_distance(np.asarray(point, dtype=float)[None, :]))
        return abs(float(d[0])) <= 1e-6 * max(1.0, self.diameter)

    def arclength_of(self, pts):
        """Arclength coordinate of the boundary point nearest to pts."""
        return self.shape.arclength_of_point(np.asarray(pts, dtype=float))

    def arc_distance(self, s1, s2):
        """Shortest distance along the boundary between arclengths s1 and s2."""
        L = self.boundary.total_length
        d = np.abs(np.mod(s1 - s2, L))
        return np.minimum(d, L - d)

    def closure_samples(self, m: int) -> np.ndarray:
        """Sample points of the closure: the points of the m x m lattice over
        the bounding box that the sign test keeps, then the boundary
        samples."""
        x0, x1, y0, y1 = self.bbox
        X, Y = np.meshgrid(np.linspace(x0, x1, m), np.linspace(y0, y1, m), indexing="ij")
        inside = self.contains(X, Y)
        return np.concatenate([np.stack([X[inside], Y[inside]], axis=-1),
                               self.boundary.points])

    # -- cached scalars -----------------------------------------------------

    @property
    def diameter(self) -> float:
        """Largest distance between boundary points: the shape's closed form
        where it has one, a scan over the boundary samples otherwise."""
        if self._diameter is None:
            closed = getattr(self.shape, "diameter", None)
            self._diameter = (float(closed()) if closed is not None
                              else _max_pairwise_distance(self.boundary.points))
        return self._diameter

    def smoothness_radius(self) -> float:
        """Largest t such that the inner parallel strip of width t stays embedded.

        The shape's closed form where it has one; otherwise min of the focal
        bound 1/kappa+ and a pairwise medial-axis clearance estimated from the
        boundary samples."""
        if self._smoothness_radius is None:
            closed = getattr(self.shape, "smoothness_radius", None)
            self._smoothness_radius = (float(closed()) if closed is not None
                                       else _sampled_smoothness_radius(self.boundary))
        return self._smoothness_radius


def _sampled_smoothness_radius(boundary: BoundarySamples) -> float:
    kmax = float(np.max(boundary.kappa))
    focal = 1.0 / kmax if kmax > 1e-12 else np.inf
    return float(min(focal, _medial_clearance(boundary.points, boundary.normals)))


def _max_pairwise_distance(pts):
    """Largest distance between two of the points, from (512, n) blocks
    of the coordinate differences, x and y apart."""
    x, y = np.array(pts[:, 0]), np.array(pts[:, 1])
    best = 0.0
    for i in range(0, len(pts), 512):
        dx = x[i:i + 512, None] - x
        dy = y[i:i + 512, None] - y
        d2 = dx * dx + dy * dy
        best = max(best, float(np.sqrt(d2.max())))
    return best


def _medial_clearance(pts, normals):
    """min over samples i of min over j of |y_i－y_j|^2 / (2 N_i . (y_j - y_i)).

    For each boundary sample this is the radius of the largest interior ball
    tangent at the sample that avoids every other sample (shrinking-ball
    medial axis estimate).  The pairs are taken in (512, n) blocks of the
    coordinate differences, x and y apart."""
    x, y = np.array(pts[:, 0]), np.array(pts[:, 1])
    best = np.inf
    for i in range(0, len(pts), 512):
        rows = slice(i, i + 512)
        dx = x - x[rows, None]
        dy = y - y[rows, None]
        d2 = dx * dx + dy * dy
        denom = 2.0 * (dx * normals[rows, 0:1] + dy * normals[rows, 1:2])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom > 1e-12, d2 / denom, np.inf)
        # ignore the self-pair and immediate neighbours (t -> curvature radius is fine,
        # but zero-distance pairs are noise)
        t[d2 < 1e-20] = np.inf
        best = min(best, float(t.min()))
    return best


# ---------------------------------------------------------------------------
# factories


def disk(radius=1.0, center=(0.0, 0.0)) -> DomainSpec:
    return DomainSpec(_Disk(center, radius))


def ellipse(a, b, center=(0.0, 0.0)) -> DomainSpec:
    return DomainSpec(_Ellipse(a, b, center))


def rect(hx, hy, center=(0.0, 0.0)) -> DomainSpec:
    return DomainSpec(_RoundedRect(hx, hy, 0.0, center))


def rounded_rect(hx, hy, corner_radius, center=(0.0, 0.0)) -> DomainSpec:
    if corner_radius <= 0:
        raise MalformedDomainError("corner radius must lie in (0, min(hx, hy))")
    return DomainSpec(_RoundedRect(hx, hy, corner_radius, center))


def annulus(r_in, r_out, center=(0.0, 0.0)) -> DomainSpec:
    return DomainSpec(_Annulus(r_in, r_out, center))


def dumbbell(waist=1.0, spread=1.1) -> DomainSpec:
    """Cassini-oval peanut {((x^2+y^2)^2 - 2 c^2 (x^2 - y^2) + c^4 < a^4)} with a
    reentrant neck for c < a < c*sqrt(2).  waist = c, spread = a."""
    c, a = float(waist), float(spread)
    if not c < a < c * math.sqrt(2.0):
        raise MalformedDomainError("dumbbell needs waist < spread < waist*sqrt(2)")
    expr = f"{a**4} - ((x**2 + y**2)**2 - 2*{c**2}*(x**2 - y**2) + {c**4})"
    xmax = math.sqrt(a * a + c * c)
    ymax = a * a / (2.0 * c)           # half-height of the lobes (the waist is lower)
    pad = 0.15 * xmax
    return DomainSpec(_LevelSet(expr, (-xmax - pad, xmax + pad, -ymax - pad, ymax + pad)))


def levelset(expr, bbox) -> DomainSpec:
    return DomainSpec(_LevelSet(expr, bbox))


_FACTORIES = {f.__name__: f for f in (disk, ellipse, rect, rounded_rect, annulus,
                                        dumbbell, levelset)}


# the one shape table: each shape's factory signature, the parameters that
# make_domain passes on, with their defaults (REQUIRED where there is none)
REQUIRED = inspect.Parameter.empty
SHAPE_PARAMETERS = {
    tag: {p.name: p.default for p in inspect.signature(f).parameters.values()}
    for tag, f in _FACTORIES.items()}


def make_domain(tag: str, **params) -> DomainSpec:
    if tag not in _FACTORIES:
        raise MalformedDomainError(f"unknown shape {tag!r}; have {sorted(_FACTORIES)}")
    return _FACTORIES[tag](**params)


# ---------------------------------------------------------------------------
# prescribed curvature data


class PrescribedCurvature:
    """The inhomogeneity H(x): one compiled formula in x, y.

    A constant H keeps its float as `value` (None for an expression), and
    its sup norms over a domain closure (h0 = sup |H|, h1 = sup |grad H|)
    are closed forms; otherwise they are sample maxima over a 256 x 256
    lattice plus the boundary samples, cached per domain object (weakly, so
    a freed domain's entry goes with it).
    """

    def __init__(self, expr: Expr2D, value: Optional[float] = None):
        self.expr = expr
        self.value = value
        self._norm_cache = weakref.WeakKeyDictionary()

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PrescribedCurvature":
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"a constant curvature must be finite, got {value!r}")
        return cls(compile_expr(repr(v)), v)    # repr folds back to v, -0.0 too

    @classmethod
    def expression(cls, text: str) -> "PrescribedCurvature":
        return cls(compile_expr(text))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.expr(pts[..., 0], pts[..., 1])

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.expr.grad(pts[..., 0], pts[..., 1])

    def h0(self, domain: DomainSpec) -> float:
        """sup |H| over the closure (exact for constants, sampled otherwise)."""
        if self.value is not None:
            return abs(self.value)
        return self._norms(domain)[0]

    def h1(self, domain: DomainSpec) -> float:
        """sup |grad H| over the closure (0 for constants, sampled otherwise)."""
        if self.value is not None:
            return 0.0
        return self._norms(domain)[1]

    def _norms(self, domain):
        if domain not in self._norm_cache:
            pts = domain.closure_samples(256)
            grads = np.linalg.norm(self.gradient(pts), axis=-1)
            self._norm_cache[domain] = (float(np.abs(self(pts)).max()), float(grads.max()))
        return self._norm_cache[domain]


# ---------------------------------------------------------------------------
# solvability audits


@dataclass(frozen=True)
class SerrinAudit:
    satisfied: bool
    margin: float
    worst_point: tuple
    worst_arclength: float
    n: int

    def __str__(self):
        state = "satisfied" if self.satisfied else "violated"
        return (f"Serrin condition {state}: min over boundary of "
                f"(n-1)*kappa - n*|H| = {self.margin:.6g} at point "
                f"({self.worst_point[0]:.4f}, {self.worst_point[1]:.4f})")


def dimension(n) -> int:
    """The dimension parameter n as an int; ValueError unless it is an integer >= 2."""
    if not (float(n).is_integer() and n >= 2):
        raise ValueError(f"dimension parameter must be an integer >= 2, got {n!r}")
    return int(n)


def check_serrin(domain: DomainSpec, H: PrescribedCurvature, n: int = 2) -> SerrinAudit:
    """Boundary solvability condition (n-1)*kappa(y) >= n*|H(y)| for all boundary y."""
    b = domain.boundary
    margins = (n - 1) * b.kappa - n * np.abs(H(b.points))
    i = int(np.argmin(margins))
    return SerrinAudit(bool(margins[i] >= 0.0), float(margins[i]),
                       (float(b.points[i, 0]), float(b.points[i, 1])),
                       float(b.arclength[i]), n)


def check_gradient_condition(domain: DomainSpec, H: PrescribedCurvature,
                             n: int = 2) -> tuple[bool, float]:
    """Interior condition |grad H| <= n/(n-1) * H^2, reported as (ok, margin):
    the minimum over the closure samples, or for a constant H the margin
    n/(n-1) H^2 that every point has, without sampling."""
    if H.value is not None:
        m = (n / (n - 1)) * (H.value * H.value)
    else:
        pts = domain.closure_samples(201)
        margin = (n / (n - 1)) * H(pts) ** 2 - np.linalg.norm(H.gradient(pts), axis=-1)
        m = float(margin.min())
    return m >= 0.0, m
