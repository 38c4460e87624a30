"""Artifact emission: canonical JSON reports, CSV field dumps, SVG heatmaps.

Everything written here is text, diff-able, and deterministic: identical
scenario plus identical build produces byte-identical report.json except for
the wall-time field, which is the only place timing enters.  JSON keys are
sorted, floats use repr round-tripping, and the heatmap's color scale is a
fixed piecewise-linear map with the data range printed in the legend.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import ScalarField

SCHEMA_VERSION = 1
_MAX_CELLS = 128     # heatmap cells per axis, at most


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


def _write_csv(path, header, rows) -> None:
    """Write the header and the rows of strings as csv.writer's default
    dialect would: comma-separated, every row ended by \r\n.  No field
    written here (ints, float reprs, node classes) needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, rows), ""]))


def _on_lines(strings, k: np.ndarray) -> list:
    """strings[k] over an array of lattice-line indices k, so that each line
    is formatted once rather than once per node on it."""
    return np.array(list(strings), dtype=object)[k].tolist()


def write_traces_csv(path, solve_report) -> None:
    """Per-iteration continuation history."""
    fields = ["tau", "iter", "residual_core", "residual_collar", "update",
              "sup_gradient", "damping"]
    _write_csv(path, fields, ([str(row[k]) if k == "iter" else repr(float(row[k]))
                               for k in fields] for row in solve_report.trace))


def write_fields_csv(path, u: ScalarField) -> None:
    """Nodal dump: index pair, coordinates, node class, value.

    Interior nodes carry solved values; ghost rows carry the boundary-closure
    values so near-boundary behavior is inspectable.
    """
    grid = u.grid
    i, j = np.concatenate([grid.interior_ij, grid.ghost_ij]).T
    node_class = ["interior"] * grid.n_interior + ["ghost"] * len(grid.ghost_ij)
    values = np.concatenate([u.values, u.ghost_values()])
    _write_csv(path, ["i", "j", "x", "y", "class", "u"], zip(
        _on_lines(map(str, range(grid.nx)), i), _on_lines(map(str, range(grid.ny)), j),
        _on_lines(map(repr, grid.xs.tolist()), i), _on_lines(map(repr, grid.ys.tolist()), j),
        node_class, map(repr, values.tolist())))


_STOP_T = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_STOP_RGB = np.array([(48, 18, 59), (62, 117, 207), (27, 208, 213), (250, 186, 57),
                      (122, 4, 3)], dtype=float)


def _colors(t: np.ndarray) -> list:
    """'#rrggbb' of each t under the piecewise-linear map through the stops.

    t is clamped to [0, 1], NaN going to 0; t falls in the first segment whose
    end is >= t, and each channel is rounded half to even."""
    t = np.where(t > 0.0, np.minimum(t, 1.0), 0.0)
    k = np.searchsorted(_STOP_T[1:], t, side="left")
    w = (t - _STOP_T[k]) / (_STOP_T[k + 1] - _STOP_T[k])
    c0, c1 = _STOP_RGB[k], _STOP_RGB[k + 1]
    rgb = np.rint(c0 + w[:, None] * (c1 - c0)).astype(np.int64)
    return [f"#{c:06x}" for c in (rgb @ [1 << 16, 1 << 8, 1]).tolist()]


def write_heatmap_svg(path, u: ScalarField) -> None:
    """Fixed-scale heatmap of the field over its grid, one rect per cell.

    Grids finer than `_MAX_CELLS` (read at each call) per axis are block-
    subsampled so the SVG stays desk-sized; the legend prints u's exact range.
    """
    grid = u.grid
    vals = np.full((grid.nx, grid.ny), np.nan)
    vals[tuple(grid.interior_ij.T)] = u.values
    step = max(1, int(np.ceil(max(grid.nx, grid.ny) / _MAX_CELLS)))
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
    # the finite cells in a-major order; svg y grows downward, so b is
    # flipped to put the plot in math orientation
    a, b = np.nonzero(np.isfinite(sub))
    lines += [f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>'
              for x, y, color in zip((a * cell).tolist(),
                                     ((sub.shape[1] - 1 - b) * cell).tolist(),
                                     _colors((sub[a, b] - vmin) / span))]
    lines.append("</g>")
    bar_y = h_px + margin + 10
    for k, color in enumerate(_colors(np.arange(100) / 99.0)):
        lines.append(f'<rect x="{margin + k * (w_px / 100.0):.2f}" y="{bar_y}" '
                     f'width="{w_px / 100.0 + 0.5:.2f}" height="10" '
                     f'fill="{color}"/>')
    lines.append(
        f'<text x="{margin}" y="{bar_y + 24}" font-family="monospace" '
        f'font-size="12">u: min={vmin!r} max={vmax!r}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")
