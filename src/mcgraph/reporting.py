"""Artifact emission: canonical JSON reports, CSV field dumps, SVG heatmaps.

Everything written here is text, diff-able, and deterministic: identical
scenario plus identical build produces byte-identical report.json except for
the wall-time field, which is the only place timing enters.  JSON keys are
sorted, floats use repr round-tripping, and the heatmap's color scale is a
fixed piecewise-linear map with the data range printed in the legend.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import NODE_GHOST, NODE_INTERIOR, ScalarField

SCHEMA_VERSION = 1

_CLASS_NAMES = {NODE_INTERIOR: "interior", NODE_GHOST: "ghost"}


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays and odd floats to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if f != f:
            return "nan"
        if f in (float("inf"), float("-inf")):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def build_report(scenario=None, solve_report=None, barrier_params=None,
                 extras: Optional[dict] = None) -> dict:
    """Assemble the canonical report dictionary.

    wall_time_seconds is the single non-deterministic field; everything else
    is a pure function of the scenario and the build.
    """
    out = {"schema": SCHEMA_VERSION}
    if scenario is not None:
        out["config_sha256"] = scenario.config_sha256
        out["config_path"] = str(Path(scenario.source_path).name)
        out["audits_requested"] = list(scenario.audits)
        out["spacings"] = list(scenario.spacings)
        out["dimension"] = scenario.n
    if solve_report is not None:
        out.update(solve_report.summary_dict())
        # construction counts of the solve's grid: linear ghost fallbacks,
        # theta clamps, one-sided and missing cross derivatives
        out["grid_flags"] = dict(solve_report.field.grid.flags)
    if barrier_params is not None:
        out["barrier_params"] = barrier_params.to_dict()
    if extras:
        out.update(extras)
    return _jsonable(out)


def write_report(path, report: dict) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)


def write_traces_csv(path, solve_report) -> None:
    """Per-iteration continuation history."""
    rows = solve_report.trace
    fields = ["tau", "iter", "residual_core", "residual_collar", "update",
              "sup_gradient", "damping"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(row[k])) if k != "iter" else row[k]
                             for k in fields})


def write_fields_csv(path, u: ScalarField) -> None:
    """Nodal dump: index pair, coordinates, node class, value.

    Interior nodes carry solved values; ghost rows carry the boundary-closure
    values so near-boundary behavior is inspectable.
    """
    grid = u.grid
    ij = np.concatenate([grid.interior_ij, grid.ghost_ij])
    node_class = ["interior"] * grid.n_interior + ["ghost"] * len(grid.ghost_ij)
    values = np.concatenate([u.values, u.ghost_values()])
    rows = zip(ij[:, 0].tolist(), ij[:, 1].tolist(),
               map(repr, grid.xs[ij[:, 0]].tolist()), map(repr, grid.ys[ij[:, 1]].tolist()),
               node_class, map(repr, values.tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "x", "y", "class", "u"])
        writer.writerows(rows)


_COLOR_STOPS = (
    (0.00, (48, 18, 59)),
    (0.25, (62, 117, 207)),
    (0.50, (27, 208, 213)),
    (0.75, (250, 186, 57)),
    (1.00, (122, 4, 3)),
)


def _color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    for (t0, c0), (t1, c1) in zip(_COLOR_STOPS, _COLOR_STOPS[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _COLOR_STOPS[-1][1]


def write_heatmap_svg(path, u: ScalarField, title: str = "u",
                      max_cells: int = 128) -> None:
    """Fixed-scale heatmap of the field over its grid, one rect per cell.

    Grids finer than max_cells per axis are block-subsampled so the SVG stays
    desk-sized; the legend prints the exact data range.
    """
    grid = u.grid
    vals = np.full((grid.nx, grid.ny), np.nan)
    ii, jj = grid.interior_ij[:, 0], grid.interior_ij[:, 1]
    vals[ii, jj] = u.values
    step = max(1, int(np.ceil(max(grid.nx, grid.ny) / max_cells)))
    sub = vals[::step, ::step]
    vmin = float(np.nanmin(vals)) if np.isfinite(vals).any() else 0.0
    vmax = float(np.nanmax(vals)) if np.isfinite(vals).any() else 0.0
    span = (vmax - vmin) or 1.0

    cell = max(4, 640 // max(sub.shape))
    w_px = sub.shape[0] * cell
    h_px = sub.shape[1] * cell
    margin = 8
    legend_h = 40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w_px + 2 * margin}" height="{h_px + legend_h + 2 * margin}" '
        f'viewBox="0 0 {w_px + 2 * margin} {h_px + legend_h + 2 * margin}">',
        f'<rect width="100%" height="100%" fill="white"/>',
        f'<g transform="translate({margin},{margin})">',
    ]
    nxs, nys = sub.shape
    for a in range(nxs):
        for b in range(nys):
            v = sub[a, b]
            if not np.isfinite(v):
                continue
            color = _color((v - vmin) / span)
            # svg y grows downward; flip so the plot is in math orientation
            lines.append(
                f'<rect x="{a * cell}" y="{(nys - 1 - b) * cell}" '
                f'width="{cell}" height="{cell}" fill="{color}"/>')
    lines.append("</g>")
    bar_y = h_px + margin + 10
    for k in range(100):
        lines.append(f'<rect x="{margin + k * (w_px / 100.0):.2f}" y="{bar_y}" '
                     f'width="{w_px / 100.0 + 0.5:.2f}" height="10" '
                     f'fill="{_color(k / 99.0)}"/>')
    lines.append(
        f'<text x="{margin}" y="{bar_y + 24}" font-family="monospace" '
        f'font-size="12">{title}: min={vmin!r} max={vmax!r}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")
