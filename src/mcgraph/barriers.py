"""A priori estimates, barrier constructions, and the non-existence certificate.

Every bound the theory provides is evaluated here as an executable check:
the height estimate, the boundary-gradient barrier pair, the global gradient
bound, the comparison principle, and the two-step barrier argument that
certifies non-existence for supercritical boundary curvature.
`estimate_ledger` computes one run's height bound, global gradient bound and
boundary-gradient package once each, with their constants and report entries.

Barriers all have the composite form w = psi(rho(x)) + phi(x) for a C^2
profile psi and a distance-like function rho with |grad rho| = 1.  Their
quasilinear operator values come from the closed transformation formula, not
from discrete differentiation, so barrier sign checks are exact up to profile
rounding and independent of the grid stencils they certify.

All geometric Laplacians (of the distance to the boundary and, in the
certificate, to the tangent circle) are planar; the integer n entering the estimate formulas is the dimension
parameter of the equation and is carried symbolically.  Acceptance scenarios
use n = 2 where both coincide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .geometry import DomainSpec, SerrinAudit, check_serrin, check_gradient_condition
from .grid import _AXES, Grid, ScalarField
from .operators import Evaluation, boundary_slope, foot_slopes, gradient

_GEOM_DIM = 2     # planar domains; distance Laplacians use this, not the n parameter
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_CIRCLE_SAMPLES = 2048   # points on each circle the certificate samples


class NotApplicable(RuntimeError):
    """A hypothesis of the estimate fails; the check refuses rather than lies."""


# ---------------------------------------------------------------------------
# audit and parameter records


@dataclass
class EstimateAudit:
    """One named bound with its measurement: pass iff measured <= bound + tol."""

    name: str
    bound: float
    measured: Optional[float] = None
    tolerance: float = 1e-9
    note: str = ""
    params: dict = field(default_factory=dict)

    @property
    def margin(self) -> Optional[float]:
        if self.measured is None:
            return None
        return self.bound - self.measured

    @property
    def passed(self) -> Optional[bool]:
        if self.measured is None:
            return None
        return bool(self.measured <= self.bound + self.tolerance)

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "measured": self.measured,
                "margin": self.margin, "passed": self.passed,
                "tolerance": self.tolerance, "note": self.note,
                "params": dict(self.params)}

    def __str__(self):
        state = {True: "pass", False: "FAIL", None: "unmeasured"}[self.passed]
        meas = "-" if self.measured is None else f"{self.measured:.6g}"
        return f"[{state}] {self.name}: measured {meas} vs bound {self.bound:.6g}"


@dataclass(frozen=True)
class BarrierParams:
    """Ledger of every constant the barrier constructions produced."""

    mu: Optional[float] = None            # height-estimate rate
    delta: Optional[float] = None         # domain diameter
    C: Optional[float] = None             # domain constant 4n(1+|d|_2+1/tau)
    nu: Optional[float] = None            # slope of the log barrier
    k: Optional[float] = None             # log barrier scale nu*exp(nu*M)
    a: Optional[float] = None             # strip width of the barrier pair
    M: Optional[float] = None             # |u|_0 + |phi|_0
    tau_strip: Optional[float] = None     # width of the C^2 strip of d
    A: Optional[float] = None             # global-gradient exponent 1+8n|H|_C1
    eps: Optional[float] = None           # non-existence data height
    nu_ne: Optional[float] = None         # non-existence slack
    a_ne: Optional[float] = None          # certified exclusion radius (0.0 if underflow)
    log10_a_ne: Optional[float] = None
    R1: Optional[float] = None
    R2: Optional[float] = None
    kappa_S: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# barrier profiles: C^2 functions of a scalar distance


class HeightProfile:
    """phi(t) = (e^(mu delta)/mu)(1 - e^(-mu t)); the mu -> 0 limit is t."""

    def __init__(self, mu: float, delta: float):
        self.mu = float(mu)
        self.delta = float(delta)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.mu == 0.0:
            return t.copy()
        return (math.exp(self.mu * self.delta) / self.mu) * (1.0 - np.exp(-self.mu * t))

    def d1(self, t):
        # at mu = 0 this is e^0 = 1 exactly at every finite t
        return np.exp(self.mu * (self.delta - np.asarray(t, dtype=float)))

    def d2(self, t):
        return -self.mu * self.d1(t)

    @property
    def slack(self) -> float:
        """(e^(mu delta) - 1)/mu, the height-estimate excess over the trace sup."""
        if self.mu == 0.0:
            return self.delta
        return math.expm1(self.mu * self.delta) / self.mu


class LogProfile:
    """psi(t) = (1/nu) log(1 + k t): the boundary-gradient barrier profile.

    Satisfies nu psi'^2 + psi'' = 0 identically.
    """

    def __init__(self, nu: float, k: float):
        self.nu = float(nu)
        self.k = float(k)

    def __call__(self, t):
        return np.log1p(self.k * np.asarray(t, dtype=float)) / self.nu

    def d1(self, t):
        return self.k / (self.nu * (1.0 + self.k * np.asarray(t, dtype=float)))

    def d2(self, t):
        kt = self.k * np.asarray(t, dtype=float)
        return -(self.k**2) / (self.nu * (1.0 + kt) ** 2)


class SqrtProfile:
    """phi(t) = sqrt(2/nu)(a^(1/2) - t^(1/2)) on (0, a].

    The first barrier of the non-existence argument: nu phi'^3 + phi'' = 0,
    phi(a) = 0, phi' -> -inf at t -> 0+.
    """

    def __init__(self, nu: float, a: float):
        self.nu = float(nu)
        self.a = float(a)

    def __call__(self, t):
        return math.sqrt(2.0 / self.nu) * (math.sqrt(self.a) - np.sqrt(np.asarray(t, dtype=float)))

    def d1(self, t):
        return -0.5 * math.sqrt(2.0 / self.nu) / np.sqrt(np.asarray(t, dtype=float))

    def d2(self, t):
        return 0.25 * math.sqrt(2.0 / self.nu) * np.asarray(t, dtype=float) ** -1.5


# ---------------------------------------------------------------------------
# distance models: rho with |grad rho| = 1 and closed-form derivatives


class BoundaryDistance:
    """d(x) = dist(x, boundary), with derivatives from the nearest-point map.

    grad d is the inner normal at the nearest boundary point, Hess d is
    -kappa_t T T^T on the tangent direction with kappa_t the parallel-curve
    curvature kappa/(1 - d kappa).  Valid strictly inside the smoothness
    strip 0 < d < smoothness_radius(); on a disk that is every point but the
    centre, where 1 - d kappa = 0.
    """

    def __init__(self, domain: DomainSpec):
        self.domain = domain
        self.strip = domain.smoothness_radius()
        from scipy.spatial import cKDTree
        self._tree = cKDTree(domain.boundary.points)

    def rho(self, pts):
        return self.domain.signed_distance(pts)

    def _nearest(self, pts):
        _, idx = self._tree.query(np.asarray(pts, dtype=float))
        return idx

    def valid(self, pts):
        d = self.rho(pts)
        return (d > 1e-12) & (d < self.strip * (1.0 - 1e-9))

    def grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        idx = self._nearest(pts)
        y = self.domain.boundary.points[idx]
        v = pts - y
        nv = np.linalg.norm(v, axis=-1, keepdims=True)
        small = nv[:, 0] < 1e-14
        out = np.where(small[:, None], self.domain.boundary.normals[idx], v / np.maximum(nv, 1e-300))
        return out

    def _kappa_t(self, pts):
        d = self.rho(pts)
        idx = self._nearest(pts)
        kap = self.domain.boundary.kappa[idx]
        return kap / (1.0 - d * kap)

    def laplacian(self, pts):
        return -(_GEOM_DIM - 1) * self._kappa_t(pts)

    def hess(self, pts):
        g = self.grad(pts)
        t = np.stack([-g[..., 1], g[..., 0]], axis=-1)
        kt = self._kappa_t(pts)
        return -kt[:, None, None] * t[:, :, None] * t[:, None, :]


# ---------------------------------------------------------------------------
# transformation formula


@dataclass
class TransformedField:
    """A barrier w = psi(rho) + phi with its operator values at grid nodes."""

    grid: Grid
    w: np.ndarray             # barrier values (valid nodes only meaningful)
    m_values: np.ndarray      # M w from the closed formula
    slope_factor: np.ndarray  # W = sqrt(1 + |grad w|^2)
    valid: np.ndarray         # mask over interior nodes
    excluded: int             # count of interior nodes outside the validity region

    def q_values(self, H, n: int = 2, tau: float = 1.0) -> np.ndarray:
        """Q w = M w - tau n H W^3 at the valid nodes (others NaN)."""
        pts = self.grid.interior_xy
        out = np.full(len(pts), np.nan)
        v = self.valid
        out[v] = (self.m_values[v]
                  - tau * n * np.asarray(H(pts))[v] * self.slope_factor[v] ** 3)
        return out


def transform_radial(profile, phi, grid: Grid, distance=None) -> TransformedField:
    """Closed-form M w for w = profile(rho) + phi at the grid's interior nodes.

    phi is a constant or an object with analytic derivatives (grad/hess like a
    compiled expression); distance defaults to the boundary-distance model of
    the grid's domain.
    Nodes outside the model's validity region are excluded and counted; the
    model is evaluated only at the valid nodes.
    """
    dist = distance if distance is not None else BoundaryDistance(grid.domain)
    xy = grid.interior_xy
    valid = dist.valid(xy)
    pts = xy[valid]
    t = dist.rho(pts)
    p1 = np.asarray(profile.d1(t), dtype=float)
    p2 = np.asarray(profile.d2(t), dtype=float)
    p0 = np.asarray(profile(t), dtype=float)
    lap = dist.laplacian(pts)

    if np.isscalar(phi) or isinstance(phi, (int, float)):
        w2 = 1.0 + p1**2
        m = p1 * w2 * lap + p2
        w = p0 + float(phi)
        W = np.sqrt(w2)
    else:
        g_rho = dist.grad(pts)
        h_rho = dist.hess(pts)
        f, fx, fy, fxx, fxy, fyy = phi.jet(pts[:, 0], pts[:, 1])
        g_phi = np.stack([fx, fy], axis=-1)
        h_phi = np.stack([fxx, fxy, fxy, fyy], axis=-1).reshape(-1, 2, 2)
        slope = p1[:, None] * g_rho + g_phi
        w2 = 1.0 + np.sum(slope**2, axis=-1)
        lap_phi = fxx + fyy
        hr_gp = np.einsum("nij,nj->ni", h_rho, g_phi)
        term1 = p1 * w2 * lap - p1 * np.einsum("ni,ni->n", hr_gp, g_phi)
        term2 = p2 * w2 - p2 * np.einsum("ni,ni->n", g_rho, slope) ** 2
        hp_s = np.einsum("nij,nj->ni", h_phi, slope)
        term3 = lap_phi * w2 - np.einsum("ni,ni->n", hp_s, slope)
        m = term1 + term2 + term3
        w = p0 + f
        W = np.sqrt(w2)

    def on_valid(values):
        out = np.full(grid.n_interior, np.nan)
        out[valid] = values
        return out

    return TransformedField(grid, on_valid(w), on_valid(m), on_valid(W), valid,
                            int((~valid).sum()))


# ---------------------------------------------------------------------------
# height estimate


def height_bound(domain: DomainSpec, H, data=None, n: int = 2,
                 measured: Optional[float] = None,
                 serrin: Optional[SerrinAudit] = None) -> EstimateAudit:
    """sup |u| <= sup_boundary |phi| + (e^(mu delta) - 1)/mu with mu just above n sup|H|.

    The slack is increasing in mu, so mu = n h0 (1 + 1e-6) is the tightest
    reportable choice; h0 = 0 degenerates to the analytic limit delta.  The
    interior curvature-growth hypothesis |grad H| <= n/(n-1) H^2 is checked
    globally and reported in the note (the estimate needs it only where the
    distance function is smooth, so a global failure is advisory).  `serrin`
    is the domain's Serrin audit when the caller has it already.  Raises
    NotApplicable when e^(mu delta) overflows.
    """
    h0 = H.h0(domain)
    delta = domain.diameter
    mu = n * h0 * (1.0 + 1e-6) if h0 > 0 else 0.0
    if mu * delta > _LOG_FLOAT_MAX:
        raise NotApplicable(f"e^(mu delta) overflows: mu delta = {mu * delta:.3g} "
                            f"(mu={mu:.3g}, delta={delta:.3g})")
    profile = HeightProfile(mu, delta)
    sup_phi = float(data.sup_abs(domain)) if data is not None else 0.0
    bound = sup_phi + profile.slack
    notes = []
    ok, margin = check_gradient_condition(domain, H, n)
    if not ok:
        notes.append(f"interior condition |grad H| <= n/(n-1) H^2 fails "
                     f"globally (margin {margin:.3g}); bound is formal")
    serrin = serrin or check_serrin(domain, H, n)
    if not serrin.satisfied:
        notes.append(f"Serrin margin {serrin.margin:.3g} < 0; bound is formal")
    return EstimateAudit(
        name="height",
        bound=bound,
        measured=measured,
        tolerance=1e-9,
        note="; ".join(notes),
        params={"mu": mu, "delta": delta, "sup_phi": sup_phi,
                "slack": profile.slack},
    )


def height_barrier(domain: DomainSpec, H, grid: Grid, data=None,
                   n: int = 2) -> tuple[TransformedField, EstimateAudit]:
    """The height barrier w = phi_mu(d) + sup|phi| and its supersolution check.

    Returns the transformed field and an audit asserting Q w <= 0 on the
    validity strip (measured value is the max of Q w there).
    """
    audit0 = height_bound(domain, H, data, n)
    mu, delta = audit0.params["mu"], audit0.params["delta"]
    sup_phi = audit0.params["sup_phi"]
    profile = HeightProfile(mu, delta)
    tf = transform_radial(profile, sup_phi, grid)
    q = tf.q_values(H, n=n, tau=1.0)
    vals = q[tf.valid]
    worst = float(np.max(vals)) if len(vals) else -np.inf
    audit = EstimateAudit(
        name="height_barrier_sign",
        bound=0.0,
        measured=worst,
        tolerance=1e-12,
        note=f"max Q w over {int(tf.valid.sum())} strip nodes "
             f"({tf.excluded} excluded)",
        params={"mu": mu, "delta": delta, "sup_phi": sup_phi},
    )
    return tf, audit


# ---------------------------------------------------------------------------
# boundary gradient estimate


@dataclass
class GradientPackage:
    """Everything the boundary-gradient barrier construction produced."""

    params: BarrierParams
    audit: EstimateAudit
    psi: LogProfile
    bound: float


def _distance_c2_norm(domain: DomainSpec, depth: float) -> float:
    """C^2 norm of the distance function over the strip {d <= depth}.

    |d| <= depth, |grad d| = 1, and |Hess d| equals the parallel-curve
    curvature |kappa/(1 - t kappa)|, maximized over boundary samples and
    depths.
    """
    kap = domain.boundary.kappa
    ts = np.linspace(0.0, depth, 33)
    worst = 0.0
    for t in ts:
        denom = 1.0 - t * kap
        if np.any(denom <= 1e-12):
            raise NotApplicable("parallel curves hit the focal set inside the strip")
        worst = max(worst, float(np.max(np.abs(kap / denom))))
    return depth + 1.0 + worst


def boundary_gradient_package(domain: DomainSpec, H, data, n: int = 2,
                              u_sup: Optional[float] = None,
                              serrin: Optional[SerrinAudit] = None) -> GradientPackage:
    """Constant ledger and log-barrier profile for the boundary gradient bound.

    Builds C = 4n(1 + |d|_2 + 1/tau), nu = C(1 + |H|_C1 + |phi|_2)(1 + |phi|_1)^3,
    k = nu e^(nu M) with M = |u|_0 + |phi|_0, the strip width
    a = (e^(nu M) - 1)/(nu e^(nu M)), and the final bound |phi|_1 + k/nu.
    Refuses when the Serrin condition fails (the barrier argument needs it).

    |d|_2 is taken over the half strip {d <= tau/2}: since 1/nu <= 1/C < tau/4n,
    the barrier strip a < 1/nu always sits inside the half strip, so the
    constant is self-consistently valid where the barrier lives.

    u_sup defaults to the height-estimate bound, making the package computable
    before any solve.  `serrin` is the domain's Serrin audit when the caller
    has it already.  Its audit measures nothing; `barrier_pair_checks` does.
    """
    serrin = serrin or check_serrin(domain, H, n)
    if not serrin.satisfied:
        raise NotApplicable(f"boundary gradient estimate needs the Serrin "
                            f"condition; {serrin}")
    try:
        p0, p1, p2 = data.norms(domain)
    except ValueError as exc:
        raise NotApplicable(f"boundary data has no C^2 extension: {exc}") from None
    tau_strip = domain.smoothness_radius()
    d_c2 = _distance_c2_norm(domain, 0.5 * tau_strip)
    C = 4.0 * n * (1.0 + d_c2 + 1.0 / tau_strip)
    h0, h1 = H.h0(domain), H.h1(domain)
    nu = C * (1.0 + (h0 + h1) + p2) * (1.0 + p1) ** 3
    if u_sup is None:
        u_sup = height_bound(domain, H, data, n, serrin=serrin).bound
    M = float(u_sup) + p0
    if nu * M + math.log(nu) > _LOG_FLOAT_MAX:
        raise NotApplicable(f"k = nu e^(nu M) overflows: nu M = {nu * M:.3g} "
                            f"(nu={nu:.3g}, M={M:.3g}, tau={tau_strip:.3g})")
    exp_nm = math.exp(nu * M)
    k = nu * exp_nm
    a = -math.expm1(-nu * M) / nu      # (e^(nu M) - 1)/(nu e^(nu M)), stably
    if a >= 1.0 / nu:
        # exact arithmetic gives a < 1/nu strictly for any finite M; once
        # e^(-nu M) underflows against 1 the float rounds onto 1/nu, so
        # step back one ulp rather than refuse
        a = math.nextafter(1.0 / nu, 0.0)
    if not (a < 1.0 / nu < tau_strip):
        raise NotApplicable(f"strip ordering a < 1/nu < tau violated: "
                            f"a={a:.3g}, 1/nu={1.0 / nu:.3g}, tau={tau_strip:.3g}")
    psi = LogProfile(nu, k)
    bound = p1 + k / nu
    params = BarrierParams(C=C, nu=nu, k=k, a=a, M=M, tau_strip=tau_strip)
    audit = EstimateAudit(
        name="boundary_gradient",
        bound=bound,
        tolerance=1e-9,
        note=f"psi'(0) = k/nu = e^(nu M) = {exp_nm:.6g}",
        params={"C": C, "nu": nu, "k": k, "a": a, "M": M,
                "tau_strip": tau_strip, "phi_norms": (p0, p1, p2)},
    )
    return GradientPackage(params=params, audit=audit, psi=psi, bound=bound)


def barrier_pair_checks(pkg: GradientPackage, u: ScalarField, H, data,
                        n: int = 2) -> dict:
    """Sign and sandwich checks for the pair w_pm = +-psi(d) + phi on the strip.

    -psi is LogProfile(-nu, k): dividing by -nu negates exactly, so its
    value and derivatives are those of psi with the sign flipped, bit for
    bit.  Returns audits: qwp_negative (max Q w+ < 0), qwm_positive
    (min Q w- > 0), and sandwich (w- - tol <= u <= w+ + tol at strip nodes).
    """
    grid = u.grid
    domain = grid.domain
    a = pkg.params.a
    phi = data.extension if data.extension is not None else 0.0
    if getattr(phi, "text", None) == "0":
        phi = 0.0
    dist = BoundaryDistance(domain)
    up = transform_radial(pkg.psi, phi, grid, distance=dist)
    dn = transform_radial(LogProfile(-pkg.psi.nu, pkg.psi.k), phi, grid, distance=dist)
    d = domain.signed_distance(grid.interior_xy)
    strip = up.valid & (d < a)
    n_strip = int(strip.sum())
    out = {}
    qp = up.q_values(H, n=n)[strip]
    qm = dn.q_values(H, n=n)[strip]
    out["qwp_negative"] = EstimateAudit(
        name="barrier_pair_upper_sign", bound=0.0,
        measured=float(np.max(qp)) if n_strip else -np.inf,
        tolerance=0.0, note=f"max Q w+ over {n_strip} strip nodes")
    out["qwm_positive"] = EstimateAudit(
        name="barrier_pair_lower_sign", bound=0.0,
        measured=float(np.max(-qm)) if n_strip else -np.inf,
        tolerance=0.0, note=f"max of -(Q w-) over {n_strip} strip nodes "
                            "(positive lower barrier defect, sign flipped)")
    gap_hi = float(np.max(u.values[strip] - up.w[strip])) if n_strip else -np.inf
    gap_lo = float(np.max(dn.w[strip] - u.values[strip])) if n_strip else -np.inf
    out["sandwich"] = EstimateAudit(
        name="barrier_pair_sandwich", bound=0.0,
        measured=max(gap_hi, gap_lo),
        tolerance=1e-6,
        note=f"max(u - w+, w- - u) over {n_strip} strip nodes")
    return out


# ---------------------------------------------------------------------------
# global gradient estimate


def global_gradient_bound(domain: DomainSpec, H, n: int = 2,
                          sup_u: float = 0.0, boundary_gradient: float = 0.0,
                          measured: Optional[float] = None) -> EstimateAudit:
    """sup |grad u| <= (sqrt(3) + sup_boundary |grad u|) exp(2 sup|u| (1 + 8 n |H|_C1)).

    The boundary data enter only through `sup_u` and `boundary_gradient`.
    Raises NotApplicable when the exponential overflows."""
    h0, h1 = H.h0(domain), H.h1(domain)
    A = 1.0 + 8.0 * n * (h0 + h1)
    exponent = 2.0 * float(sup_u) * A
    if exponent > _LOG_FLOAT_MAX:
        raise NotApplicable(f"e^(2 sup|u| A) overflows: 2 sup|u| A = {exponent:.3g} "
                            f"(sup|u|={float(sup_u):.3g}, A={A:.3g})")
    bound = (math.sqrt(3.0) + float(boundary_gradient)) * math.exp(exponent)
    return EstimateAudit(
        name="global_gradient",
        bound=bound,
        measured=measured,
        tolerance=1e-9,
        params={"A": A, "sup_u": float(sup_u),
                "boundary_gradient": float(boundary_gradient)},
    )


# ---------------------------------------------------------------------------
# the estimate ledger of one run


@dataclass
class EstimateLedger:
    """The a priori estimates of one run and the report entries they make.

    height, gradient and package are None when their estimate raised; the
    package's reason is kept in refusal.  audits maps entry names to report
    dicts, {"error": message} for an estimate that raised.
    """

    params: BarrierParams
    audits: dict
    height: Optional[EstimateAudit]
    gradient: Optional[EstimateAudit]
    package: Optional[GradientPackage]
    refusal: str


def estimate_ledger(domain: DomainSpec, H, data, n: int = 2, report=None,
                    names: Sequence[str] = ()) -> EstimateLedger:
    """Height bound, global gradient bound and boundary-gradient package, once each.

    With a SolveReport the bounds take its sup|u| and boundary slope, and the
    height and gradient audits measure its sup|u| and sup slope (reported for
    converged solves only).  Without one, sup|u| is the height bound itself,
    the boundary slope 0, and nothing is measured.  `names` adds the
    requested "serrin" entry and, given a report, the barrier-pair checks on
    its field.  A raising estimate becomes an error entry, never a crash.
    """
    errors = {}

    def attempt(name, fn, *args, **kw):
        try:
            return fn(*args, **kw)
        except Exception as exc:    # noqa: BLE001 - an estimate must not kill a run
            errors[name] = {"error": str(exc)}
            return None

    measured = report is not None
    sup_u = report.sup_u if measured else None
    # one Serrin audit feeds both estimates and the "serrin" entry
    serrin = attempt("serrin", check_serrin, domain, H, n)
    height = attempt("height", height_bound, domain, H, data, n=n, measured=sup_u,
                     serrin=serrin)
    if not measured:
        # a refused height bound leaves sup|u| unbounded in floats
        sup_u = height.bound if height else math.inf
    gradient = attempt("gradient", global_gradient_bound, domain, H, n=n,
                       sup_u=sup_u,
                       boundary_gradient=boundary_slope(report.field) if measured else 0.0,
                       measured=report.sup_gradient if measured else None)
    package = attempt("barrier_pair", boundary_gradient_package, domain, H, data,
                      n=n, u_sup=sup_u, serrin=serrin)
    refusal = "" if package else errors["barrier_pair"]["error"]

    audits = {}
    if not measured or report.converged:
        audits["height"] = height.to_dict() if height else errors["height"]
        audits["gradient"] = gradient.to_dict() if gradient else errors["gradient"]
    if "serrin" in names:
        audits["serrin"] = errors["serrin"] if serrin is None else {
            "name": "serrin", "passed": bool(serrin.satisfied),
            "margin": serrin.margin, "worst_point": list(serrin.worst_point),
            "note": "boundary solvability (Serrin) condition"}
    if "barrier_pair" in names and measured:
        checks = package and attempt("barrier_pair", barrier_pair_checks, package,
                                     report.field, H, data, n=n)
        if checks:
            audits.update((key, audit.to_dict()) for key, audit in checks.items())
        else:
            audits["barrier_pair"] = errors["barrier_pair"]

    fields = asdict(package.params) if package else {}
    if height:
        fields.update(mu=height.params["mu"], delta=height.params["delta"])
    if gradient:
        fields["A"] = gradient.params["A"]
    return EstimateLedger(BarrierParams(**fields), audits, height, gradient, package,
                          refusal)


# ---------------------------------------------------------------------------
# comparison principle


@dataclass
class ComparisonResult:
    verdict: str               # "pass" | "fail" | "not-applicable"
    max_violation: float
    tol_interior: float
    note: str = ""

    def __bool__(self):
        return self.verdict == "pass"


def comparison_check(u: ScalarField, v: ScalarField, H, n: int = 2) -> ComparisonResult:
    """If Q u >= Q v in the interior and u <= v on the boundary, then u <= v.

    The hypothesis is checked first; when it fails the verdict is
    not-applicable, never a false assertion about the conclusion.  u <= v
    must hold at the feet to 1e-12; the interior tolerance is 10 h^2 times
    the field scale, to absorb scheme truncation.
    """
    if u.grid is not v.grid:
        raise ValueError("comparison requires both fields on the same grid")
    grid = u.grid
    qu = Evaluation(u, H, n).q
    qv = Evaluation(v, H, n).q
    tol_q = 1e-9 * (1.0 + float(np.max(np.abs(qu))) + float(np.max(np.abs(qv))))
    if np.min(qu - qv) < -tol_q:
        return ComparisonResult("not-applicable", np.nan, np.nan,
                                f"Q u >= Q v fails by {float(np.min(qu - qv)):.3g}")
    bgap = float(np.max(u.feet - v.feet))
    if bgap > 1e-12:
        return ComparisonResult("not-applicable", np.nan, np.nan,
                                f"u <= v on the boundary fails by {bgap:.3g}")
    scale = 1.0 + max(u.sup(), v.sup())
    tol_interior = 10.0 * grid.h**2 * scale
    worst = float(np.max(u.values - v.values))
    verdict = "pass" if worst <= tol_interior else "fail"
    return ComparisonResult(verdict, worst, tol_interior)


# ---------------------------------------------------------------------------
# non-existence: certificate, adversarial data, refinement witness


@dataclass
class NonexistenceCertificate:
    """Certified exclusion radius a for the estimate u(y0) < sup u + eps.

    The radius satisfies psi(a) + sqrt(2 a / nu) < eps/2.  Realistic eps
    push a far below float64 range, so `log10_a` is the record of the
    radius and `a` its float64 value (0.0 on underflow); `g_value` is the
    certified left-hand side.
    """

    y0: tuple
    eps: float
    nu_ne: float
    kappa_S: float
    circle_center: tuple
    circle_radius: float
    R1: float
    R2: float
    delta: float
    a: float
    log10_a: float
    g_value: float
    warnings: list = field(default_factory=list)

    @property
    def params(self) -> BarrierParams:
        return BarrierParams(eps=self.eps, nu_ne=self.nu_ne, a_ne=self.a,
                             log10_a_ne=self.log10_a, R1=self.R1, R2=self.R2,
                             kappa_S=self.kappa_S)


def _connected_on_boundary(domain: DomainSpec, y0, radius: float) -> bool:
    """True when the circle of `radius` about y0 meets the domain in one arc."""
    t = 2.0 * math.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    pts = np.asarray(y0) + radius * np.stack([np.cos(t), np.sin(t)], axis=-1)
    inside = domain.signed_distance(pts) > 0.0
    if not inside.any():
        return False
    flips = int(np.sum(inside != np.roll(inside, 1)))
    return flips <= 2


def nonexistence_bound(domain: DomainSpec, H, y0, eps: float,
                       n: int = 2) -> NonexistenceCertificate:
    """Radius a with the two-step barrier estimate u(y0) < sup u + eps certified.

    Requires (n-1) kappa(y0) < n H(y0) with H >= 0 (the supercritical case);
    refuses otherwise.  The slack nu_ne takes an eighth of the curvature gap,
    the inner tangent circle takes half the allowed curvature excess, and R1,
    R2 come from geometric shrinking until the sampled continuity bounds hold
    strictly.  The final root-find for a (Illinois regula falsi) runs on
    log a in float64, since certified radii routinely underflow: psi goes
    through Dawson's integral of sqrt(log(delta/a)).  It targets g(a) =
    eps/2 less 1e-12 relative, a margin over the float64 evaluation error,
    and returns the bracket's end below that target, so g(a) < eps/2; it
    stops when the bracket stops shrinking.
    """
    y0 = np.asarray(y0, dtype=float)
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not domain.on_boundary(y0):
        raise ValueError("y0 must lie on the domain boundary")
    s0 = float(np.atleast_1d(domain.arclength_of(y0))[0])
    kap0 = float(np.atleast_1d(domain.boundary_curvature(s0))[0])
    H0 = float(np.atleast_1d(H(y0[None, :]))[0])
    gap = n * H0 - (n - 1) * kap0
    if gap <= 0:
        raise NotApplicable(
            f"Serrin condition holds at y0: (n-1) kappa = {(n - 1) * kap0:.6g} "
            f">= n H = {n * H0:.6g}; the non-existence mechanism needs strict excess")
    # H >= 0 near y0 (lemma hypothesis); sample the boundary
    if float(np.min(H(domain.boundary.points))) < -1e-12:
        raise NotApplicable("non-existence construction needs H >= 0")
    nu_ne = gap / 8.0
    warnings: list[str] = []

    # R1: modulus of continuity of H, plus connectivity of the circle arc
    R1 = domain.diameter
    for _ in range(80):
        t = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        rr = np.linspace(1e-6, R1, 24)
        pts = (y0[None, None, :]
               + rr[:, None, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)[None, :, :])
        pts = pts.reshape(-1, 2)
        pts = pts[domain.signed_distance(pts) > 0.0]
        hv = np.asarray(H(pts))
        ok_h = len(pts) == 0 or float(np.max(np.abs(hv - H0))) < nu_ne / n
        if ok_h and _connected_on_boundary(domain, y0, R1):
            break
        R1 *= 0.5
    else:
        raise NotApplicable("could not find a continuity radius R1 for H at y0")

    # inner tangent circle S with slightly supercritical curvature
    kappa_S = kap0 + nu_ne / (2.0 * (n - 1))
    if kappa_S <= 0:
        raise NotApplicable(f"tangent circle curvature {kappa_S:.3g} <= 0; "
                            "the construction needs a convex touching circle")
    R_S = 1.0 / kappa_S
    idx = int(np.argmin(np.linalg.norm(domain.boundary.points - y0, axis=-1)))
    N0 = domain.boundary.normals[idx]
    z = y0 + R_S * N0
    t = 2.0 * math.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    circle = z + R_S * np.stack([np.cos(t), np.sin(t)], axis=-1)
    if float(np.min(domain.signed_distance(circle))) < -1e-7 * max(1.0, R_S):
        raise NotApplicable("tangent circle of the required curvature does not "
                            "fit inside the domain (domain too thin near y0)")

    # R2: continuity of the Laplacian of the circle distance, inside S
    R2 = 0.5 * min(R_S, R1)
    lap_at_y0 = -(_GEOM_DIM - 1) / R_S
    for _ in range(80):
        rr = np.linspace(1e-6, R2, 24)
        pts = (y0[None, None, :]
               + rr[:, None, None] * np.stack([np.cos(t[::8]), np.sin(t[::8])], axis=-1)[None, :, :])
        pts = pts.reshape(-1, 2)
        s = np.linalg.norm(pts - z, axis=-1)
        strip = (s < R_S) & (s > 0.0)
        s = s[strip]
        ok = len(s) == 0 or float(np.max(np.abs(-(_GEOM_DIM - 1) / s - lap_at_y0))) < nu_ne
        if ok:
            break
        R2 *= 0.5
    else:
        raise NotApplicable("could not find a continuity radius R2 for the "
                            "circle-distance Laplacian")

    # root-find for a in log space.  With x = sqrt(log(delta/a)), the profile
    # psi(a) = sqrt(2/(n-1)) a sqrt(pi) erfi(x) equals 2 sqrt(2/(n-1)) delta
    # D(x), D Dawson's integral (DLMF 7.5.1), so g(a) is a float64 sum even
    # where a underflows.  dawsn is good to about 2e-15 relative, so the
    # target sits 1e-12 below eps/2: f < 0 in float64 means g(a) < eps/2.
    from scipy.special import dawsn

    delta = domain.diameter
    log_delta = math.log(delta)
    c_psi = 2.0 * math.sqrt(2.0 / (n - 1)) * delta
    c_sqrt = math.sqrt(2.0 / nu_ne)
    target = eps / 2.0 * (1.0 - 1e-12)

    def f_of_log(la):
        """g(e^la) - target, increasing in la."""
        return (c_psi * float(dawsn(math.sqrt(log_delta - la)))
                + c_sqrt * math.exp(la / 2.0) - target)

    hi = math.log(R2 * (1.0 - 1e-9))
    f_hi = f_of_log(hi)
    lo, f_lo = hi, f_hi          # already small enough at the R2 cap when f < 0
    width = 64.0
    while f_lo >= 0:
        if width > 1e9:
            raise NotApplicable("root-find for the exclusion radius failed "
                                "to bracket; eps may be too small")
        hi, f_hi = lo, f_lo
        lo = hi - width
        f_lo = f_of_log(lo)
        width *= 2
    # Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on the bracket
    # f(lo) < 0 <= f(hi): the secant runs through (lo, s_lo) and (hi, s_hi),
    # and the end kept twice in a row has its s halved.  In float64 one end
    # can reach the root while the other is still far, and the secant then
    # rounds onto that end: it bisects instead.  It stops when the midpoint
    # is no longer strictly inside the bracket.
    s_lo, s_hi = f_lo, f_hi
    kept = 0                     # -1: lo moved last, 1: hi moved last
    while lo < hi:
        x = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        f_x = f_of_log(x)
        if f_x < 0:
            lo, f_lo, s_lo = x, f_x, f_x
            if kept == -1:
                s_hi /= 2
            kept = -1
        else:
            hi, s_hi = x, f_x
            if kept == 1:
                s_lo /= 2
            kept = 1
    g_val = f_lo + target
    a_float = math.exp(lo)
    log10_a = lo / math.log(10.0)
    if a_float == 0.0:
        warnings.append(
            f"certified radius a = 10^{log10_a:.1f} underflows float64 and any "
            f"practical grid; downstream experiments must use a resolvable "
            f"surrogate width")
    elif a_float < 1e-3:
        warnings.append(f"certified radius a = {a_float:.3g} is below typical "
                        f"grid spacings; refinement experiments need a "
                        f"resolvable surrogate width")
    return NonexistenceCertificate(
        y0=(float(y0[0]), float(y0[1])), eps=float(eps), nu_ne=float(nu_ne),
        kappa_S=float(kappa_S), circle_center=(float(z[0]), float(z[1])),
        circle_radius=float(R_S), R1=float(R1), R2=float(R2),
        delta=float(delta), a=a_float, log10_a=log10_a,
        g_value=float(g_val), warnings=warnings)


def adversarial_boundary_data(domain: DomainSpec, y0, a, eps: float):
    """Smooth arclength bump of height eps supported within distance a of y0."""
    from .boundary import BumpData
    return BumpData(domain, y0, a, eps)


@dataclass
class WitnessReport:
    verdict: str                # "WITNESS" | "NO-WITNESS"
    reasons: list
    gradient_ratios: list
    attainment_gap: float       # |extrapolated u at the foot nearest y0 - trace|
    boundary_excess: float      # extrapolated u - (sup outside data + eps - tol)
    measure_radius: float


def _local_slope(report, y0, radius: float) -> float:
    u = report.field
    grid = u.grid
    pts = grid.interior_xy
    near = np.linalg.norm(pts - np.asarray(y0), axis=-1) < radius
    m = 0.0
    if near.any():
        g = gradient(u)[near]
        m = float(np.max(np.linalg.norm(g, axis=-1)))
    fnear = np.linalg.norm(grid.foot_xy - np.asarray(y0), axis=-1) < radius
    if fnear.any():
        m = max(m, float(np.max(foot_slopes(u)[fnear])))
    return m


def _extrapolated_boundary_value(report, y0) -> tuple[float, float]:
    """(u extrapolated from interior values to the foot nearest y0, trace there).

    Linear extrapolation through the owner and its inward neighbor uses only
    solved values, so a boundary layer shows up as a gap against the imposed
    trace."""
    u = report.field
    grid = u.grid
    fi = int(np.argmin(np.linalg.norm(grid.foot_xy - np.asarray(y0), axis=-1)))
    owner = int(grid.foot_owner[fi])
    theta = float(grid.foot_theta[fi])
    # one step inward, away from the foot, along the foot's axis
    pi, pj = grid.interior_ij[owner] - _AXES[grid.foot_axis[fi]]
    u_o = float(u.values[owner])
    # the owner is at least two cells from the lattice edge, so (pi, pj) is on it
    if grid.node_id[pi, pj] >= 0:
        u_in = float(u.values[grid.node_id[pi, pj]])
        val = u_o + theta * (u_o - u_in)
    else:
        val = u_o
    return val, float(u.feet[fi])


def nonexistence_witness(reports: Sequence, y0, data, eps: float,
                         radius_a: float) -> WitnessReport:
    """Refinement-based witness verdict for an adversarial boundary-data run.

    WITNESS when any solve diverged or stagnated, or when the local slope near
    y0 grows by >= 1.5 between consecutive refinements while the interior
    field still clings to the bump value that the certified estimate forbids.
    reports must come from >= 2 solves of the same problem at decreasing h.
    The ceiling is the sup of the data away from y0 plus eps/2.
    """
    if len(reports) < 2:
        raise ValueError("witness evaluation needs solves at >= 2 spacings")
    hs = [r.field.grid.h for r in reports]
    if not all(b < a for a, b in zip(hs, hs[1:])):
        raise ValueError("reports must be ordered by strictly decreasing h")
    reasons = []
    bad = [r.verdict for r in reports
           if r.verdict in ("diverged_gradient", "stagnated")]
    if bad:
        reasons.append(f"solver breakdown: {', '.join(bad)}")
    radius = max(radius_a / 2.0, 4.0 * hs[0])
    slopes = [_local_slope(r, y0, radius) for r in reports]
    ratios = [b / a if a > 0 else np.inf for a, b in zip(slopes, slopes[1:])]
    growth = any(r >= 1.5 for r in ratios)
    if growth:
        reasons.append(f"local slope growth {max(ratios):.2f}x under refinement")

    fine = reports[-1]
    val, trace = _extrapolated_boundary_value(fine, y0)
    domain = fine.field.grid.domain
    b = domain.boundary
    outside = np.linalg.norm(b.points - np.asarray(y0), axis=-1) >= radius_a
    sup_out = (float(np.max(data.trace(b.points[outside], b.arclength[outside])))
               if outside.any() else 0.0)
    threshold = sup_out + eps - eps / 2.0
    exceeds = bool(np.isfinite(val) and val > threshold)
    if growth and exceeds:
        reasons.append(f"interior value {val:.4g} near y0 exceeds certified "
                       f"ceiling {threshold:.4g}")
    witness = bool(bad) or (growth and exceeds)
    return WitnessReport(
        verdict="WITNESS" if witness else "NO-WITNESS",
        reasons=reasons,
        gradient_ratios=[float(r) for r in ratios],
        attainment_gap=float(abs(val - trace)) if np.isfinite(val) else np.nan,
        boundary_excess=float(val - threshold) if np.isfinite(val) else np.nan,
        measure_radius=float(radius),
    )
