"""Bounded planar domains for graph problems: signed distance, boundary sampling,
curvature, and solvability audits.

Conventions used throughout the package:
  * signed distance d is positive inside the domain, negative outside, zero on
    the boundary; for interior points d(x) = dist(x, boundary),
  * the sign test `contains` is True strictly inside: an implicit inequality
    where the shape has one (x^2/a^2 + y^2/b^2 < 1 on ellipses, F > 0 on level
    sets), d > 0 on the shapes whose distance is a closed form,
  * ellipse distances come from the exact nearest point (Eberly's bisection),
    level-set distances from a constrained Newton foot on the traced contour,
  * boundary curves are sampled counterclockwise, normals point into the domain,
  * curvature kappa is positive where the domain is convex (unit disk: +1/r),
    negative on reentrant pieces.

The audits encode two pointwise conditions on the curvature data H:
  * Serrin margin:  min over boundary of (n-1)*kappa(y) - n*|H(y)|,
  * gradient condition margin:  min over the closure of n/(n-1)*H^2 - |grad H|.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .expressions import Expr2D, compile_expr

_TWO_PI = 2.0 * math.pi


class MalformedDomainError(ValueError):
    """Boundary parametrization is degenerate or a level set has no usable contour."""


class FocalPointError(ValueError):
    """Parallel curve evaluated at or beyond the focal distance 1/kappa."""


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

    def signed_distance(self, pts):
        return self.radius - np.linalg.norm(pts - self.center, axis=-1)

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

    def contains(self, pts):
        rel = pts - self.center
        return (rel[..., 0] / self.a) ** 2 + (rel[..., 1] / self.b) ** 2 < 1.0

    def _nearest(self, pts):
        """Nearest boundary point and its distance, by Eberly's method ("Distance
        from a point to an ellipse, an ellipsoid, or a hyperellipsoid",
        Geometric Tools, 2013).

        With the major semi-axis e0 first and the point folded into the first
        quadrant, the nearest point is x = (r0 y0 / (s + r0), y1 / (s + 1)),
        r0 = (e0/e1)^2, where s is the root of the decreasing function
        g(s) = (r0 z0 / (s + r0))^2 + (z1 / (s + 1))^2 - 1, z = y / e.  The
        root is bisected in u = s + 1, which keeps its relative precision for
        points near the major axis, until the bracket stops shrinking or g hits
        exactly zero; points on an axis take the closed forms."""
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
        u = np.empty(len(idx))
        todo = np.arange(len(idx))
        while todo.size:
            mid = 0.5 * (lo + hi)
            gm = (n0[todo] / (mid + (r0 - 1.0))) ** 2 + (z1i[todo] / mid) ** 2 - 1.0
            done = (mid == lo) | (mid == hi) | (gm == 0)
            u[todo[done]] = mid[done]
            keep = ~done
            todo, lo, hi, mid, up = todo[keep], lo[keep], hi[keep], mid[keep], gm[keep] > 0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        x0[idx] = r0 * y0[idx] / (u + (r0 - 1.0))
        x1[idx] = y1[idx] / u
        dist = np.hypot(x0 - y0, x1 - y1)
        near = np.stack([np.copysign(x0, rel[:, 0]), np.copysign(x1, rel[:, 1])], axis=-1)
        if swap:
            near = near[:, ::-1]
        return near, dist

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        _, dist = self._nearest(pts)
        out = np.where(self.contains(np.atleast_2d(pts)), dist, -dist)
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

    def bbox(self):
        cx, cy = self.center
        return (cx - self.hx, cx + self.hx, cy - self.hy, cy + self.hy)

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        q = np.abs(pts - self.center) - np.array([self._ex, self._ey])
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.maximum(q[..., 0], q[..., 1]), 0.0)
        return self.r - (outside + inside)

    def sample(self, m):
        # piecewise walk ccw: right edge, NE arc, top edge, NW arc, ...
        ex, ey, r = self._ex, self._ey, self.r
        qarc = 0.5 * math.pi * r
        pieces = [2 * ey, qarc, 2 * ex, qarc, 2 * ey, qarc, 2 * ex, qarc]
        cum = np.concatenate([[0.0], np.cumsum(pieces)])
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
        ex, ey, r = self._ex, self._ey, self.r
        qarc = 0.5 * math.pi * r
        pieces = np.array([2 * ey, qarc, 2 * ex, qarc, 2 * ey, qarc, 2 * ex, qarc])
        cum = np.concatenate([[0.0], np.cumsum(pieces)])
        s = np.mod(np.asarray(s, dtype=float), self.length)
        if r == 0:
            return np.zeros(np.shape(s))
        idx = np.searchsorted(cum, s, side="right") - 1
        return np.where(idx % 2 == 1, 1.0 / r, 0.0)

    def arclength_of_point(self, pts):
        return _nearest_sample_arclength(self, pts)


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

    def signed_distance(self, pts):
        rho = np.linalg.norm(np.asarray(pts, dtype=float) - self.center, axis=-1)
        return np.minimum(rho - self.r_in, self.r_out - rho)

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
        s = np.mod(np.asarray(s, dtype=float), self.length)
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
    """Domain {F > 0} for a C^2 level function given as an expression in x, y."""

    tag = "levelset"

    def __init__(self, expr: str | Expr2D, bbox, contour_grid=768):
        self.F = expr if isinstance(expr, Expr2D) else compile_expr(expr)
        self._bbox = tuple(float(v) for v in bbox)
        self._contour_grid = int(contour_grid)
        self._trace_contour()

    def bbox(self):
        return self._bbox

    def _trace_contour(self):
        x0, x1, y0, y1 = self._bbox
        nx = ny = self._contour_grid
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        Fv = self.F(X, Y)
        loops = _marching_squares(Fv)
        if not loops:
            raise MalformedDomainError("level set has no zero contour inside the bbox")
        loop, closed = max(loops, key=lambda lc: len(lc[0]))
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

    def _project(self, pts, iters=40):
        """Newton projection of points onto {F = 0} along grad F."""
        p = np.array(pts, dtype=float)
        for _ in range(iters):
            f = self.F(p[:, 0], p[:, 1])
            gx = self.F.fx(p[:, 0], p[:, 1])
            gy = self.F.fy(p[:, 0], p[:, 1])
            g2 = gx * gx + gy * gy
            g2 = np.where(g2 < 1e-30, 1e-30, g2)
            p[:, 0] -= f * gx / g2
            p[:, 1] -= f * gy / g2
            if np.max(np.abs(f)) < 1e-13:
                break
        return p

    def _nearest_foot(self, pts, iters=30):
        """Nearest boundary point: nearest polyline vertex, then constrained Newton
        on (F(q) = 0, (x - q) x grad F(q) = 0)."""
        from scipy.spatial import cKDTree

        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not hasattr(self, "_tree"):
            # wide leaves: fewer tree levels for the lattice-sized queries
            self._tree = cKDTree(self._polyline, leafsize=64)
        _, idx = self._tree.query(pts)
        q = self._polyline[idx].copy()
        x = pts
        for _ in range(iters):
            f = self.F(q[:, 0], q[:, 1])
            gx = self.F.fx(q[:, 0], q[:, 1])
            gy = self.F.fy(q[:, 0], q[:, 1])
            hxx = self.F.fxx(q[:, 0], q[:, 1])
            hxy = self.F.fxy(q[:, 0], q[:, 1])
            hyy = self.F.fyy(q[:, 0], q[:, 1])
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
        # guard: keep the Newton foot only while it stays consistent with the polyline
        d_poly = np.linalg.norm(pts - self._polyline[idx], axis=-1)
        d_newt = np.linalg.norm(pts - q, axis=-1)
        bad = d_newt > d_poly + 1e-9
        if np.any(bad):
            q[bad] = self._project(self._polyline[idx][bad])
        return q

    def contains(self, pts):
        return self.F(pts[..., 0], pts[..., 1]) > 0.0

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        p2 = np.atleast_2d(pts)
        dist = np.linalg.norm(p2 - self._nearest_foot(p2), axis=-1)
        out = np.where(self.contains(p2), dist, -dist)
        return out[0] if pts.ndim == 1 else out.reshape(pts.shape[:-1])

    def _implicit_kappa(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        gx, gy = self.F.fx(x, y), self.F.fy(x, y)
        hxx, hxy, hyy = self.F.fxx(x, y), self.F.fxy(x, y), self.F.fyy(x, y)
        g = np.hypot(gx, gy)
        return (2 * gx * gy * hxy - gx * gx * hyy - gy * gy * hxx) / np.where(g < 1e-30, 1e-30, g) ** 3

    def sample(self, m):
        pts = self._polyline
        seg = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        length = float(s[-1])
        targets = length * np.arange(m) / m
        closed = np.vstack([pts, pts[:1]])
        out = np.stack([np.interp(targets, s, closed[:, 0]), np.interp(targets, s, closed[:, 1])], axis=-1)
        out = self._project(out)
        gx = self.F.fx(out[:, 0], out[:, 1])
        gy = self.F.fy(out[:, 0], out[:, 1])
        g = np.hypot(gx, gy)
        normals = np.stack([gx, gy], axis=-1) / g[:, None]   # grad points inward (F > 0 inside)
        kappa = self._implicit_kappa(out)
        # recompute arclength after projection
        seg2 = np.linalg.norm(np.diff(out, axis=0, append=out[:1]), axis=1)
        s2 = np.concatenate([[0.0], np.cumsum(seg2[:-1])])
        return out, normals, kappa, s2, float(np.sum(seg2))

    def curvature_at(self, s):
        raise NotImplementedError  # handled by DomainSpec via sample interpolation

    def arclength_of_point(self, pts):
        return _nearest_sample_arclength(self, pts)


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


_CELL_SEGMENTS = {(case, joined): _cell_segments(case, joined)
                  for case in range(1, 15) for joined in (False, True)}


def _marching_squares(F):
    """Zero contour of a sampled function F[i, j] (Lorensen & Cline marching
    squares on the cell lattice) as a list of (points, closed) chains.

    Points are fractional (i, j) index coordinates, linearly interpolated on
    lattice edges; every chain keeps {F > 0} on its left, so closed loops
    around an inside region run counterclockwise.  Open chains end on the
    lattice border."""
    inside = F > 0.0
    corners = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:])
    case = sum(inside[c].astype(np.int8) << k for k, c in enumerate(corners))
    ci, cj = np.nonzero((case != 0) & (case != 15))
    joined = sum(F[c][ci, cj] for c in corners) > 0.0
    # lattice edges as (axis, i, j): axis 0 runs (i, j) -> (i+1, j), axis 1 (i, j) -> (i, j+1)
    nxt = {}
    for i, j, k, jn in zip(ci.tolist(), cj.tolist(), case[ci, cj].tolist(), joined.tolist()):
        edges = ((0, i, j), (1, i + 1, j), (0, i, j + 1), (1, i, j))
        for a, b in _CELL_SEGMENTS[k, jn]:
            nxt[edges[a]] = edges[b]
    chains = []
    for start in sorted(set(nxt) - set(nxt.values())) + list(nxt):
        if start not in nxt:
            continue
        chain = [start]
        while chain[-1] in nxt:
            chain.append(nxt.pop(chain[-1]))
        closed = chain[-1] == chain[0]
        e = np.array(chain[:-1] if closed else chain)
        axis, i, j = e[:, 0], e[:, 1], e[:, 2]
        f0, f1 = F[i, j], F[i + 1 - axis, j + axis]
        t = f0 / (f0 - f1)
        pts = np.stack([i + (1 - axis) * t, j + axis * t], axis=-1)
        # a contour through a lattice node crosses two edges at that node
        keep = np.any(pts != np.roll(pts, 1, axis=0), axis=1)
        keep[0] |= not closed
        chains.append((pts[keep], closed))
    return chains


def _nearest_sample_arclength(shape, pts):
    """Arclength of the boundary point nearest to pts, via the shape's own samples."""
    ref_pts, _, _, ref_s, _ = shape.sample(8192)
    from scipy.spatial import cKDTree

    tree = cKDTree(ref_pts)
    _, idx = tree.query(np.atleast_2d(pts))
    return ref_s[idx]


# ---------------------------------------------------------------------------
# the public domain record


class DomainSpec:
    """A bounded planar domain: shape, bounding box, boundary samples, caches.

    Construct through the factory helpers (disk, ellipse, rect, rounded_rect,
    annulus, dumbbell, levelset) rather than directly.
    """

    def __init__(self, shape, n_samples: int = 4096):
        self.shape = shape
        self.tag = shape.tag
        self.n_samples = int(n_samples)
        pts, normals, kappa, s, length = shape.sample(self.n_samples)
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

    def contains(self, pts):
        """Sign test, True strictly inside: the shape's implicit inequality
        where it has one, the sign of the signed distance otherwise."""
        test = getattr(self.shape, "contains", None)
        if test is None:
            return self.signed_distance(pts) > 0.0
        return test(np.asarray(pts, dtype=float))

    # -- boundary lookups ----------------------------------------------------

    def boundary_curvature(self, s):
        """Curvature at arclength s: analytic where the shape provides it,
        4th-order periodic finite differences of the sampled parametrization otherwise."""
        try:
            return self.shape.curvature_at(np.asarray(s, dtype=float))
        except NotImplementedError:
            return self._fd_curvature(np.asarray(s, dtype=float))

    def _fd_curvature(self, s):
        b = self.boundary
        kap = _fd_curvature_of_samples(b.points)
        idx = np.searchsorted(b.arclength, np.mod(s, b.total_length)) % len(kap)
        return kap[idx]

    def arclength_of(self, pts):
        """Arclength coordinate of the boundary point nearest to pts."""
        return self.shape.arclength_of_point(np.asarray(pts, dtype=float))

    def arc_distance(self, s1, s2):
        """Shortest distance along the boundary between arclengths s1 and s2."""
        L = self.boundary.total_length
        d = np.abs(np.mod(s1 - s2, L))
        return np.minimum(d, L - d)

    def closure_samples(self, m: int) -> np.ndarray:
        """Sample points of the closure: the m x m lattice over the bounding
        box where the signed distance is >= 0, then the boundary samples."""
        x0, x1, y0, y1 = self.bbox
        X, Y = np.meshgrid(np.linspace(x0, x1, m), np.linspace(y0, y1, m), indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        return np.concatenate([pts[self.signed_distance(pts) >= 0.0], self.boundary.points])

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


def _fd_curvature_of_samples(pts):
    """Curvature from 4th-order centered differences of a closed uniform polyline."""
    n = len(pts)
    seg = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
    ds = float(np.mean(seg))

    def sh(k):
        return np.roll(pts, -k, axis=0)

    d1 = (-sh(2) + 8 * sh(1) - 8 * sh(-1) + sh(-2)) / (12 * ds)
    d2 = (-sh(2) + 16 * sh(1) - 30 * pts + 16 * sh(-1) - sh(-2)) / (12 * ds * ds)
    num = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    den = (d1[:, 0] ** 2 + d1[:, 1] ** 2) ** 1.5
    return num / den


def _max_pairwise_distance(pts, chunk=512):
    best = 0.0
    for i in range(0, len(pts), chunk):
        blk = pts[i:i + chunk]
        d2 = np.sum((blk[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        best = max(best, float(np.sqrt(d2.max())))
    return best


def _medial_clearance(pts, normals, chunk=512):
    """min over samples i of min over j of |y_i－y_j|^2 / (2 N_i . (y_j - y_i)).

    For each boundary sample this is the radius of the largest interior ball
    tangent at the sample that avoids every other sample (shrinking-ball
    medial axis estimate)."""
    best = np.inf
    n = len(pts)
    for i in range(0, n, chunk):
        blk = pts[i:i + chunk]
        nrm = normals[i:i + chunk]
        diff = pts[None, :, :] - blk[:, None, :]          # (c, n, 2)
        d2 = np.sum(diff * diff, axis=-1)
        denom = 2.0 * np.sum(diff * nrm[:, None, :], axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom > 1e-12, d2 / denom, np.inf)
        # ignore the self-pair and immediate neighbours (t -> curvature radius is fine,
        # but zero-distance pairs are noise)
        t[d2 < 1e-20] = np.inf
        best = min(best, float(t.min()))
    return best


# ---------------------------------------------------------------------------
# factories


def disk(radius=1.0, center=(0.0, 0.0), n_samples=4096) -> DomainSpec:
    return DomainSpec(_Disk(center, radius), n_samples)


def ellipse(a, b, center=(0.0, 0.0), n_samples=4096) -> DomainSpec:
    return DomainSpec(_Ellipse(a, b, center), n_samples)


def rect(hx, hy, center=(0.0, 0.0), n_samples=4096) -> DomainSpec:
    return DomainSpec(_RoundedRect(hx, hy, 0.0, center), n_samples)


def rounded_rect(hx, hy, corner_radius, center=(0.0, 0.0), n_samples=4096) -> DomainSpec:
    if corner_radius <= 0:
        raise MalformedDomainError("corner radius must lie in (0, min(hx, hy))")
    return DomainSpec(_RoundedRect(hx, hy, corner_radius, center), n_samples)


def annulus(r_in, r_out, center=(0.0, 0.0), n_samples=4096) -> DomainSpec:
    return DomainSpec(_Annulus(r_in, r_out, center), n_samples)


def dumbbell(waist=1.0, spread=1.1, n_samples=4096) -> DomainSpec:
    """Cassini-oval peanut {((x^2+y^2)^2 - 2 c^2 (x^2 - y^2) + c^4 < a^4)} with a
    reentrant neck for c < a < c*sqrt(2).  waist = c, spread = a."""
    c, a = float(waist), float(spread)
    if not c < a < c * math.sqrt(2.0):
        raise MalformedDomainError("dumbbell needs waist < spread < waist*sqrt(2)")
    expr = f"{a**4} - ((x**2 + y**2)**2 - 2*{c**2}*(x**2 - y**2) + {c**4})"
    xmax = math.sqrt(a * a + c * c)
    ymax = a * a / (2.0 * c)           # half-height of the lobes (the waist is lower)
    pad = 0.15 * xmax
    return DomainSpec(_LevelSet(expr, (-xmax - pad, xmax + pad, -ymax - pad, ymax + pad)), n_samples)


def levelset(expr, bbox, n_samples=4096) -> DomainSpec:
    return DomainSpec(_LevelSet(expr, bbox), n_samples)


_FACTORIES = {
    "disk": disk,
    "ellipse": ellipse,
    "rect": rect,
    "rounded_rect": rounded_rect,
    "annulus": annulus,
    "dumbbell": dumbbell,
    "levelset": levelset,
}


def make_domain(tag: str, n_samples: int = 4096, **params) -> DomainSpec:
    if tag not in _FACTORIES:
        raise MalformedDomainError(f"unknown shape {tag!r}; have {sorted(_FACTORIES)}")
    return _FACTORIES[tag](n_samples=n_samples, **params)


# ---------------------------------------------------------------------------
# prescribed curvature data


class PrescribedCurvature:
    """The inhomogeneity H(x): a constant or an expression in x, y.

    sup norms over a domain closure (h0 = sup |H|, h1 = sup |grad H|) are
    sample maxima over a 256 x 256 lattice plus the boundary samples,
    cached per domain object (weakly, so a freed domain's entry goes with it).
    """

    def __init__(self, kind, func, grad_func, describe):
        self.kind = kind
        self._func = func
        self._grad = grad_func
        self.describe = describe
        self._norm_cache = weakref.WeakKeyDictionary()

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PrescribedCurvature":
        v = float(value)

        def f(pts):
            pts = np.asarray(pts, dtype=float)
            return np.full(pts.shape[:-1], v)

        def g(pts):
            pts = np.asarray(pts, dtype=float)
            return np.zeros(pts.shape[:-1] + (2,))

        obj = cls("constant", f, g, f"H = {v}")
        obj.value = v
        return obj

    @classmethod
    def expression(cls, text: str) -> "PrescribedCurvature":
        e = compile_expr(text)

        def f(pts):
            pts = np.asarray(pts, dtype=float)
            return e(pts[..., 0], pts[..., 1])

        def g(pts):
            pts = np.asarray(pts, dtype=float)
            return e.grad(pts[..., 0], pts[..., 1])

        obj = cls("expression", f, g, f"H = {text}")
        obj.expr = e
        return obj

    # -- evaluation ----------------------------------------------------------

    def __call__(self, pts):
        return self._func(np.asarray(pts, dtype=float))

    def gradient(self, pts):
        return self._grad(np.asarray(pts, dtype=float))

    def h0(self, domain: DomainSpec) -> float:
        """sup |H| over the closure (exact for constants, sampled otherwise)."""
        if self.kind == "constant":
            return abs(self.value)
        return self._norms(domain)[0]

    def h1(self, domain: DomainSpec) -> float:
        """sup |grad H| over the closure (0 for constants, sampled otherwise)."""
        if self.kind == "constant":
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
    """Interior condition |grad H| <= n/(n-1) * H^2, reported as (ok, margin)."""
    pts = domain.closure_samples(201)
    margin = (n / (n - 1)) * H(pts) ** 2 - np.linalg.norm(H.gradient(pts), axis=-1)
    m = float(margin.min())
    return m >= 0.0, m


def parallel_curvature(domain: DomainSpec, s, t):
    """Curvature of the inner parallel curve at distance t: kappa/(1 - t*kappa).

    Raises FocalPointError when 1 - t*kappa <= 0 (the parallel curve is no
    longer embedded at that depth)."""
    kappa = domain.boundary_curvature(s)
    t = np.asarray(t, dtype=float)
    denom = 1.0 - t * kappa
    if np.any(denom <= 0.0):
        raise FocalPointError(f"parallel curve hits the focal set: min(1 - t*kappa) = {denom.min():.3g}")
    return kappa / denom

