"""Scenario definitions parsed from INI-style config files.

Grammar: ``[section]`` headers over ``key = value`` lines, ``#`` comments.
Keys are lowercase snake-case.  Values are numbers (``0.5``, ``1e-3``, and
fractions like ``1/64``), quoted or bare strings, points (``1.0, 0.0``), or
comma lists.  Errors always name the offending section, key, and line.

Sections:
  [domain]     shape = disk|ellipse|rect|rounded_rect|annulus|dumbbell
               plus shape parameters (radius, a/b, hx/hy, corner_radius,
               r_in/r_out, waist/spread, center)
  [curvature]  constant = <number> or expression = "<formula in x, y>"; n
  [data]       kind = zero|constant|expression|scherk|bump, with value,
               expression, or y0/eps/width as the kind requires
  [grid]       spacing = <number> or spacings = <strictly decreasing list>
  [solver]     optional solver knobs (max_iters, tau_stages, ...)
  [audits]     names = comma list of estimate audits to run
  [experiment] optional non-existence pipeline: y0, eps, width
  [sweep]      optional: curvatures = <list> for curvature sweeps
  [output]     directory, plus optional reference = <catalog name>
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .geometry import (DomainSpec, PrescribedCurvature, disk, ellipse, rect,
                       rounded_rect, annulus, dumbbell)
from .boundary import (BoundaryData, ZeroData, ExpressionData, BumpData,
                       constant_data, scherk_trace)
from .solver import SolveConfig


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names key and line."""


@dataclass
class ExperimentSpec:
    y0: tuple
    eps: float
    width: float


@dataclass
class Scenario:
    domain: DomainSpec
    curvature: PrescribedCurvature
    n: int
    data: BoundaryData
    spacings: tuple
    solver: SolveConfig
    audits: tuple
    outdir: str
    reference: Optional[str] = None
    experiment: Optional[ExperimentSpec] = None
    sweep_curvatures: tuple = ()
    config_sha256: str = ""
    source_path: str = ""


_KNOWN_KEYS = {
    "domain": {"shape", "radius", "a", "b", "hx", "hy", "corner_radius",
               "r_in", "r_out", "waist", "spread", "center"},
    "curvature": {"constant", "expression", "n"},
    "data": {"kind", "value", "expression", "y0", "eps", "width"},
    "grid": {"spacing", "spacings"},
    "solver": {"max_iters", "tau_stages", "tol_update",
               "tol_residual", "grad_max", "stagnation_window"},
    "audits": {"names"},
    "experiment": {"y0", "eps", "width"},
    "sweep": {"curvatures"},
    "output": {"directory", "reference"},
}
_AUDIT_NAMES = {"height", "gradient", "serrin", "barrier_pair"}


class _Raw:
    """configparser contents plus raw-text line lookup for error messages."""

    def __init__(self, path: str):
        self.path = Path(path)
        try:
            self.text = self.path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(self.text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error in {path}: {exc}") from None
        self.parser = parser
        self.sha256 = hashlib.sha256(self.text.encode()).hexdigest()

    def line_of(self, section: str, key: Optional[str] = None) -> str:
        """'line N' for the key inside the section (best match), or ''."""
        in_section = False
        for i, line in enumerate(self.text.splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith("["):
                in_section = stripped == f"[{section}]"
                if in_section and key is None:
                    return f"line {i}"
                continue
            if in_section and key is not None:
                if re.match(rf"\s*{re.escape(key)}\s*[=:]", line):
                    return f"line {i}"
        return ""

    def fail(self, section: str, key: Optional[str], msg: str):
        where = self.line_of(section, key)
        loc = f"[{section}]" + (f" {key}" if key else "")
        raise ConfigError(f"{self.path}: {loc}" + (f" ({where})" if where else "")
                          + f": {msg}")

    def section(self, name: str, required: bool = True):
        if not self.parser.has_section(name):
            if required:
                raise ConfigError(f"{self.path}: missing section [{name}]")
            return None
        for key in self.parser.options(name):
            if key not in _KNOWN_KEYS[name]:
                self.fail(name, key, "unknown key")
        return dict(self.parser.items(name))


def _unquote(s: str) -> str:
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _number(raw: _Raw, section: str, key: str, s: str) -> float:
    s = _unquote(s)
    m = re.fullmatch(r"\s*([+-]?[\d.eE+-]+)\s*/\s*([\d.eE+-]+)\s*", s)
    try:
        if m:
            return float(m.group(1)) / float(m.group(2))
        return float(s)
    except (ValueError, ZeroDivisionError):
        raw.fail(section, key, f"expected a number, got {s!r}")


def _number_list(raw: _Raw, section: str, key: str, s: str) -> tuple:
    parts = [p for p in _unquote(s).split(",") if p.strip()]
    if not parts:
        raw.fail(section, key, "expected a non-empty comma list of numbers")
    return tuple(_number(raw, section, key, p) for p in parts)


def _point(raw: _Raw, section: str, key: str, s: str) -> tuple:
    vals = _number_list(raw, section, key, s)
    if len(vals) != 2:
        raw.fail(section, key, f"expected 'x, y', got {len(vals)} values")
    return vals


def _get_number(raw, section, sec, key, default=None):
    if key not in sec:
        if default is None:
            raw.fail(section, key, "required key missing")
        return default
    return _number(raw, section, key, sec[key])


def _build_domain(raw: _Raw, sec: dict) -> DomainSpec:
    shape = _unquote(sec.get("shape", ""))
    center = _point(raw, "domain", "center", sec["center"]) if "center" in sec \
        else (0.0, 0.0)
    try:
        if shape == "disk":
            return disk(radius=_get_number(raw, "domain", sec, "radius", 1.0),
                        center=center)
        if shape == "ellipse":
            return ellipse(_get_number(raw, "domain", sec, "a"),
                           _get_number(raw, "domain", sec, "b"), center=center)
        if shape == "rect":
            return rect(_get_number(raw, "domain", sec, "hx"),
                        _get_number(raw, "domain", sec, "hy"), center=center)
        if shape == "rounded_rect":
            return rounded_rect(_get_number(raw, "domain", sec, "hx"),
                                _get_number(raw, "domain", sec, "hy"),
                                _get_number(raw, "domain", sec, "corner_radius"),
                                center=center)
        if shape == "annulus":
            return annulus(_get_number(raw, "domain", sec, "r_in"),
                           _get_number(raw, "domain", sec, "r_out"),
                           center=center)
        if shape == "dumbbell":
            return dumbbell(waist=_get_number(raw, "domain", sec, "waist", 1.0),
                            spread=_get_number(raw, "domain", sec, "spread", 1.1))
    except ConfigError:
        raise
    except Exception as exc:
        raw.fail("domain", "shape", f"invalid domain parameters: {exc}")
    raw.fail("domain", "shape",
             f"unknown shape {shape!r} (expected disk, ellipse, rect, "
             f"rounded_rect, annulus, or dumbbell)")


def _build_curvature(raw: _Raw, sec: dict) -> tuple:
    has_c = "constant" in sec
    has_e = "expression" in sec
    if has_c == has_e:
        raw.fail("curvature", None,
                 "exactly one of 'constant' or 'expression' is required")
    n = int(_get_number(raw, "curvature", sec, "n", 2))
    if n < 2:
        raw.fail("curvature", "n", "dimension parameter must be >= 2")
    if has_c:
        H = PrescribedCurvature.constant(_get_number(raw, "curvature", sec, "constant"))
    else:
        try:
            H = PrescribedCurvature.expression(_unquote(sec["expression"]))
        except Exception as exc:
            raw.fail("curvature", "expression", str(exc))
    return H, n


def _build_data(raw: _Raw, sec: dict, domain: DomainSpec) -> BoundaryData:
    kind = _unquote(sec.get("kind", "zero"))
    if kind == "zero":
        return ZeroData()
    if kind == "constant":
        return constant_data(_get_number(raw, "data", sec, "value"))
    if kind == "expression":
        if "expression" not in sec:
            raw.fail("data", "expression", "required key missing")
        try:
            return ExpressionData(_unquote(sec["expression"]))
        except Exception as exc:
            raw.fail("data", "expression", str(exc))
    if kind == "scherk":
        return scherk_trace()
    if kind == "bump":
        for key in ("y0", "eps", "width"):
            if key not in sec:
                raw.fail("data", key, "required for kind = bump")
        return BumpData(domain, _point(raw, "data", "y0", sec["y0"]),
                        _get_number(raw, "data", sec, "width"),
                        _get_number(raw, "data", sec, "eps"))
    raw.fail("data", "kind", f"unknown kind {kind!r} (expected zero, "
                             f"constant, expression, scherk, or bump)")


def _build_spacings(raw: _Raw, sec: dict) -> tuple:
    if ("spacing" in sec) == ("spacings" in sec):
        raw.fail("grid", None, "exactly one of 'spacing' or 'spacings' is required")
    if "spacing" in sec:
        vals = (_number(raw, "grid", "spacing", sec["spacing"]),)
    else:
        vals = _number_list(raw, "grid", "spacings", sec["spacings"])
    if any(v <= 0 for v in vals):
        raw.fail("grid", "spacing" if "spacing" in sec else "spacings",
                 "spacings must be positive")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raw.fail("grid", "spacings", "spacings must be strictly decreasing")
    return vals


def _build_solver(raw: _Raw, sec: Optional[dict]) -> SolveConfig:
    if not sec:
        return SolveConfig()
    kw = {}
    for key, val in sec.items():
        if key == "tau_stages":
            stages = _number_list(raw, "solver", key, val)
            if any(t <= 0 or t > 1 for t in stages) or \
               any(b <= a for a, b in zip(stages, stages[1:])) or stages[-1] != 1.0:
                raw.fail("solver", key, "stages must increase to exactly 1.0")
            kw["tau_schedule"] = stages
        elif key in ("max_iters", "stagnation_window"):
            kw[key] = int(_number(raw, "solver", key, val))
        else:
            kw[key] = _number(raw, "solver", key, val)
    return SolveConfig(**kw)


def _build_audits(raw: _Raw, sec: Optional[dict]) -> tuple:
    if not sec or "names" not in sec:
        return ("height", "gradient")
    names = tuple(_unquote(p).strip() for p in sec["names"].split(",") if p.strip())
    for name in names:
        if name not in _AUDIT_NAMES:
            raw.fail("audits", "names",
                     f"unknown audit {name!r} (expected subset of "
                     f"{sorted(_AUDIT_NAMES)})")
    return names


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario config file."""
    raw = _Raw(path)
    for name in raw.parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"{raw.path}: unknown section [{name}] "
                              f"({raw.line_of(name)})")
    dom_sec = raw.section("domain")
    domain = _build_domain(raw, dom_sec)
    H, n = _build_curvature(raw, raw.section("curvature"))
    data = _build_data(raw, raw.section("data", required=False) or {"kind": "zero"},
                       domain)
    spacings = _build_spacings(raw, raw.section("grid"))
    solver = _build_solver(raw, raw.section("solver", required=False))
    audits = _build_audits(raw, raw.section("audits", required=False))

    out_sec = raw.section("output", required=False) or {}
    outdir = _unquote(out_sec.get("directory", "out"))
    reference = _unquote(out_sec["reference"]) if "reference" in out_sec else None
    if reference is not None:
        from .reference import catalog
        if reference not in catalog():
            raw.fail("output", "reference",
                     f"not in the reference catalog: {reference!r}")

    exp_sec = raw.section("experiment", required=False)
    experiment = None
    if exp_sec:
        for key in ("y0", "eps", "width"):
            if key not in exp_sec:
                raw.fail("experiment", key, "required key missing")
        experiment = ExperimentSpec(
            y0=_point(raw, "experiment", "y0", exp_sec["y0"]),
            eps=_get_number(raw, "experiment", exp_sec, "eps"),
            width=_get_number(raw, "experiment", exp_sec, "width"))

    sweep_sec = raw.section("sweep", required=False)
    sweep_curvatures = ()
    if sweep_sec:
        if "curvatures" not in sweep_sec or not sweep_sec["curvatures"].strip():
            raw.fail("sweep", "curvatures", "empty sweep list")
        sweep_curvatures = _number_list(raw, "sweep", "curvatures",
                                        sweep_sec["curvatures"])

    return Scenario(domain=domain, curvature=H, n=n, data=data,
                    spacings=spacings, solver=solver, audits=audits,
                    outdir=outdir, reference=reference, experiment=experiment,
                    sweep_curvatures=sweep_curvatures,
                    config_sha256=raw.sha256, source_path=str(raw.path))
