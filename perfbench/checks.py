"""Correctness checks of the benchmark, written apart from mcgraph.

Every check takes plain numbers or numpy arrays and returns a list of
failure messages, empty when the answer is right.  The closed forms here are
evaluated with numpy alone; none of them is read back from the program.
"""

from __future__ import annotations

import math

import numpy as np

VERDICTS = ("converged", "stagnated", "diverged_gradient", "linear_failure")

# tolerances, quoted in README.md
CAP_ERR_C = 0.02          # sup error of a cap solve <= C h^2 (today 0.0083-0.0088)
SWEEP_ERR_C = 0.05        # same, over the curvature sweep (H up to 0.45)
RATIO_BRACKET = (3.0, 5.0)
GHOST_TOL = 1e-9          # quadratic reproduced by the ghost closures
M_TOL = 1e-12             # apply_M on a quadratic: M_TOL * (1 + sup|q|) / h^2
FOOT_TOL = 1e-8           # distance of a boundary foot from the exact curve
SERRIN_TOL = 1e-5         # Serrin margin against its closed form
COMPARISON_TOL = 1e-8     # u(H=0.55) <= u(H=0.45) + tol at every interior node
BUMP_TOL = 1e-12          # feet carry the bump trace
GAP_PER_H = 0.5           # control witness attainment gap <= GAP_PER_H * h_fine


# -- closed forms -------------------------------------------------------------


def cap_height(x, y, radius):
    """Lower spherical cap of the given radius over the unit disk, zero on r = 1."""
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    return math.sqrt(radius * radius - 1.0) - np.sqrt(radius * radius - r2)


def disk_interior_count(h: float, radius: float = 1.0) -> int:
    """Lattice nodes (i h, j h) strictly inside the disk, counted with integers."""
    m = int(math.ceil(radius / h)) + 1
    k = np.arange(-m, m + 1)
    i2 = (k[:, None] ** 2 + k[None, :] ** 2) * h * h
    return int(np.count_nonzero(i2 < radius * radius * (1.0 - 1e-12)))


def bump_trace(xy, y0, width, eps):
    """eps * exp(1 - 1/(1 - (rho/width)^2)) on the unit circle, rho the arc
    distance to y0, zero for rho >= width."""
    ang = np.arctan2(xy[:, 1], xy[:, 0]) - math.atan2(y0[1], y0[0])
    rho = np.abs(np.mod(ang + math.pi, 2.0 * math.pi) - math.pi)
    out = np.zeros(len(xy))
    inside = rho < width
    q = (rho[inside] / width) ** 2
    out[inside] = eps * np.exp(1.0 - 1.0 / (1.0 - q))
    return out


def height_bound(H: float, diameter: float, sup_phi: float, n: int = 2) -> float:
    """sup|phi| + (e^(mu delta) - 1)/mu with mu = n H: the a priori height bound."""
    mu = n * H
    return sup_phi + (diameter if mu == 0 else math.expm1(mu * diameter) / mu)


def quadratic(c):
    """q(x, y) = c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2 and its M q."""

    def q(x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def mq(x, y):
        qx = c[1] + 2.0 * c[3] * x + c[4] * y
        qy = c[2] + c[4] * x + 2.0 * c[5] * y
        return ((1.0 + qy * qy) * 2.0 * c[3] - 2.0 * qx * qy * c[4]
                + (1.0 + qx * qx) * 2.0 * c[5])

    return q, mq


def _grad_normalized(F, Fx, Fy):
    return np.abs(F) / np.hypot(Fx, Fy)


def distance_to_curve(shape: str, params: dict, xy):
    """|F| / |grad F| for the shape's implicit equation F = 0 (exact distance
    for circles and the rounded rectangle)."""
    x, y = xy[:, 0], xy[:, 1]
    r = np.hypot(x, y)
    if shape == "disk":
        return np.abs(r - params["radius"])
    if shape == "annulus":
        return np.minimum(np.abs(r - params["r_in"]), np.abs(r - params["r_out"]))
    if shape == "ellipse":
        a2, b2 = params["a"] ** 2, params["b"] ** 2
        return _grad_normalized(x * x / a2 + y * y / b2 - 1.0, 2 * x / a2, 2 * y / b2)
    if shape == "rounded_rect":
        cr = params["corner_radius"]
        qx = np.abs(x) - (params["hx"] - cr)
        qy = np.abs(y) - (params["hy"] - cr)
        d = (np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
             + np.minimum(np.maximum(qx, qy), 0.0) - cr)
        return np.abs(d)
    if shape == "dumbbell":
        c2, a4 = params["waist"] ** 2, params["spread"] ** 4
        s = x * x + y * y
        F = s * s - 2 * c2 * (x * x - y * y) + c2 * c2 - a4
        return _grad_normalized(F, 4 * x * s - 4 * c2 * x, 4 * y * s + 4 * c2 * y)
    if shape == "rotated_ellipse":
        A2, B2, ct, st = params["A"] ** 2, params["B"] ** 2, params["cos"], params["sin"]
        u, v = ct * x + st * y, -st * x + ct * y
        F = u * u / A2 + v * v / B2 - 1.0
        Fu, Fv = 2 * u / A2, 2 * v / B2
        return _grad_normalized(F, ct * Fu - st * Fv, st * Fu + ct * Fv)
    raise ValueError(f"no implicit equation for {shape!r}")


def serrin_margin(shape: str, params: dict, H: float, n: int = 2) -> float:
    """min over the boundary of (n-1) kappa - n|H|, from the exact minimum curvature."""
    if shape == "disk":
        kmin = 1.0 / params["radius"]
    elif shape == "ellipse":
        kmin = params["b"] / params["a"] ** 2
    elif shape == "rounded_rect":
        kmin = 0.0                      # the flat sides
    elif shape == "annulus":
        kmin = -1.0 / params["r_in"]    # the inner circle, seen from the domain
    elif shape == "dumbbell":
        # waist point (0, y_w), y_w^2 = a^2 - c^2: kappa = (a^2 - 2c^2)/(a^2 y_w)
        c2, a2 = params["waist"] ** 2, params["spread"] ** 2
        kmin = (a2 - 2.0 * c2) / (a2 * math.sqrt(a2 - c2))
    elif shape == "rotated_ellipse":
        kmin = params["B"] / params["A"] ** 2
    else:
        raise ValueError(f"no closed-form margin for {shape!r}")
    return (n - 1) * kmin - n * abs(H)


# -- checks -------------------------------------------------------------------


def check_error_order(hs, errs, C, bracket=RATIO_BRACKET, label="") -> list:
    """Each error <= C h^2 and each refinement ratio within the bracket."""
    out = []
    for h, e in zip(hs, errs):
        if not (np.isfinite(e) and e <= C * h * h):
            out.append(f"{label} sup error {e:.3e} > {C} h^2 = {C * h * h:.3e} at h = {h:g}")
    lo, hi = bracket
    for (h0, e0), (h1, e1) in zip(zip(hs, errs), zip(hs[1:], errs[1:])):
        ratio = e0 / e1 if e1 > 0 else math.inf
        if not lo <= ratio <= hi:
            out.append(f"{label} error ratio {ratio:.3f} outside [{lo}, {hi}] "
                       f"for h = {h0:g} -> {h1:g}")
    return out


def check_errors_bounded(hs, errs, C, label="") -> list:
    return check_error_order(hs, errs, C, bracket=(0.0, math.inf), label=label)


def check_ghost_quadratic(closed, exact, fallbacks: int, label="") -> list:
    """Ghost closures reproduce a quadratic; only flagged linear fallbacks may not."""
    err = np.abs(np.asarray(closed) - np.asarray(exact))
    bad = int(np.count_nonzero(~(err <= GHOST_TOL)))
    if bad > fallbacks:
        return [f"{label} {bad} ghost closures miss the quadratic by up to "
                f"{float(np.max(err)):.3e} (> {GHOST_TOL:g}); "
                f"{fallbacks} linear fallbacks flagged"]
    return []


def check_apply_M(mu, mq, h, q_sup, core_mask, fallbacks: int, label="") -> list:
    """M applied to a quadratic equals its closed form: at every interior node
    when no closure fell back to linear, else on the core (>= 2h inside)."""
    mask = np.ones(len(mq), dtype=bool) if fallbacks == 0 else np.asarray(core_mask)
    tol = M_TOL * (1.0 + q_sup) / (h * h)
    err = np.abs(np.asarray(mu) - np.asarray(mq))[mask]
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= tol:
        return [f"{label} apply_M misses closed-form M q by {worst:.3e} > {tol:.3e}"]
    return []


def check_feet_on_curve(dist, label="") -> list:
    worst = float(np.max(dist)) if len(dist) else 0.0
    if not worst <= FOOT_TOL:
        return [f"{label} boundary foot {worst:.3e} off the curve (> {FOOT_TOL:g})"]
    return []


def check_close(value, expected, tol, label="") -> list:
    if not abs(value - expected) <= tol:
        return [f"{label} {value:.9g} differs from closed form {expected:.9g} by more than {tol:g}"]
    return []


def check_ordered(u_low, u_high, tol=COMPARISON_TOL, label="") -> list:
    """u_low <= u_high + tol at every node (the comparison principle)."""
    worst = float(np.max(np.asarray(u_low) - np.asarray(u_high)))
    if not worst <= tol:
        return [f"{label} comparison principle violated: max(u_low - u_high) = {worst:.3e}"]
    return []


def check_increasing(values, label="") -> list:
    v = np.asarray(values, dtype=float)
    if not np.all(np.diff(v) > 0):
        return [f"{label} not strictly increasing: {[f'{x:.6g}' for x in v]}"]
    return []
