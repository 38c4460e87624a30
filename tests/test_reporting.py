"""Artifact emission: canonical JSON, CSV dumps, SVG heatmap."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest

import mcgraph.reporting
from mcgraph import (Grid, ScalarField, annulus, build_report, disk, load_scenario,
                     solve_dirichlet, write_fields_csv, write_heatmap_svg,
                     write_report, write_traces_csv)
from mcgraph.reporting import _colors, _jsonable, SCHEMA_VERSION


@pytest.fixture(scope="module")
def small_solve(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "small.ini"
    cfg.write_text("""\
[domain]
shape = disk
radius = 1.0

[curvature]
constant = 0.4
n = 2

[grid]
spacing = 1/16
""")
    scn = load_scenario(str(cfg))
    grid = Grid(scn.domain, scn.spacings[0])
    report = solve_dirichlet(grid, scn.curvature, scn.data, n=scn.n)
    assert report.verdict == "converged"
    return scn, grid, report


def test_jsonable_handles_special_floats():
    out = _jsonable({"a": float("nan"), "b": float("inf"),
                     "c": float("-inf"), "d": np.float64(1.5),
                     "e": np.int32(7), "f": np.bool_(True),
                     "g": np.array([1.0, 2.0]), "h": (1, 2)})
    assert out == {"a": "nan", "b": "inf", "c": "-inf", "d": 1.5,
                   "e": 7, "f": True, "g": [1.0, 2.0], "h": [1, 2]}
    # round-trips through the json module without error
    json.dumps(out)


def test_report_contents(small_solve):
    scn, grid, rep = small_solve
    out = build_report(scenario=scn, solve_report=rep)
    assert out["schema"] == SCHEMA_VERSION
    assert out["config_sha256"] == scn.config_sha256
    assert out["verdict"] == "converged"
    assert out["dimension"] == 2
    assert out["spacings"] == [1.0 / 16.0]
    # the leap to the full load is accepted: one stage, at tau = 1
    assert isinstance(out["stages"], list) and len(out["stages"]) == 1
    assert out["stages"][0]["tau"] == 1.0
    assert {"tau", "iters", "residual_core", "verdict"} <= set(out["stages"][0])
    assert out["wall_time_seconds"] > 0


def test_report_carries_linear_layer_counts(small_solve):
    scn, grid, rep = small_solve
    out = build_report(scenario=scn, solve_report=rep)
    assert out["factorizations"] == rep.factorizations >= 1
    assert out["float64_factorizations"] == rep.float64_factorizations == 0
    assert out["krylov_iterations"] == rep.krylov_iterations >= 0
    assert out["fill_nnz"] == rep.fill_nnz > 0


def test_report_carries_grid_flags(small_solve):
    scn, grid, rep = small_solve
    out = build_report(scenario=scn, solve_report=rep)
    assert out["grid_flags"] == grid.flags
    assert set(out["grid_flags"]) == {"ghost_linear_fallback", "ghost_theta_clamped",
                                      "cross_one_sided", "cross_missing"}


def test_report_deterministic_modulo_wall_time(small_solve, tmp_path):
    scn, grid, rep = small_solve
    r1 = build_report(scenario=scn, solve_report=rep)
    r2 = build_report(scenario=scn, solve_report=rep)
    r1.pop("wall_time_seconds")
    r2.pop("wall_time_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_write_report_sorted_keys(small_solve, tmp_path):
    scn, grid, rep = small_solve
    path = tmp_path / "report.json"
    write_report(path, build_report(scenario=scn, solve_report=rep))
    text = path.read_text()
    parsed = json.loads(text)
    assert parsed["schema"] == SCHEMA_VERSION
    # canonical ordering: re-serializing with sort_keys reproduces the file
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_extras_merged():
    out = build_report(extras={"certificate": {"log10_a": -5559.0}})
    assert out["certificate"]["log10_a"] == -5559.0
    assert out["schema"] == SCHEMA_VERSION


def test_traces_csv(small_solve, tmp_path):
    scn, grid, rep = small_solve
    path = tmp_path / "traces.csv"
    write_traces_csv(path, rep)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.trace) > 0
    assert set(rows[0]) == {"tau", "iter", "residual_core", "residual_collar",
                            "update", "sup_gradient", "damping"}
    # repr round-trip: the file reproduces the floats exactly
    assert float(rows[-1]["residual_core"]) == rep.trace[-1]["residual_core"]
    taus = sorted({float(r["tau"]) for r in rows})
    assert taus == [1.0]


def test_fields_csv_row_count(small_solve, tmp_path):
    scn, grid, rep = small_solve
    path = tmp_path / "fields.csv"
    write_fields_csv(path, rep.field)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == grid.n_interior + len(grid.ghost_ij)
    classes = {r["class"] for r in rows}
    assert classes == {"interior", "ghost"}
    interior = [r for r in rows if r["class"] == "interior"]
    assert len(interior) == grid.n_interior
    k = int(np.argmax(rep.field.values))
    match = [r for r in interior
             if int(r["i"]) == grid.interior_ij[k, 0]
             and int(r["j"]) == grid.interior_ij[k, 1]]
    assert len(match) == 1
    assert float(match[0]["u"]) == rep.field.values[k]


def test_heatmap_svg(small_solve, tmp_path):
    scn, grid, rep = small_solve
    path = tmp_path / "heat.svg"
    write_heatmap_svg(path, rep.field)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<rect") > grid.n_interior / 4
    vmin, vmax = rep.field.values.min(), rep.field.values.max()
    assert f"min={float(vmin)!r}" in text
    assert f"max={float(vmax)!r}" in text


def test_heatmap_subsamples_fine_grids(tmp_path, monkeypatch):
    grid = Grid(disk(radius=1.0), 1.0 / 256.0)
    u = ScalarField.from_callable(grid, lambda x, y: x * y)
    path = tmp_path / "big.svg"
    monkeypatch.setattr(mcgraph.reporting, "_MAX_CELLS", 64)
    write_heatmap_svg(path, u)
    text = path.read_text()
    # block subsampling caps the rect count near _MAX_CELLS^2 plus legend bar
    assert text.count("<rect") < 64 * 64 + 200


def test_artifacts_byte_identical_across_runs(small_solve, tmp_path):
    scn, grid, rep = small_solve
    blobs = []
    for tag in ("a", "b"):
        t = tmp_path / f"traces_{tag}.csv"
        f = tmp_path / f"fields_{tag}.csv"
        s = tmp_path / f"heat_{tag}.svg"
        write_traces_csv(t, rep)
        write_fields_csv(f, rep.field)
        write_heatmap_svg(s, rep.field)
        blobs.append((t.read_bytes(), f.read_bytes(), s.read_bytes()))
    assert blobs[0] == blobs[1]


# the scalar colour map the heatmap used before it was vectorised
_ORACLE_STOPS = (
    (0.00, (48, 18, 59)),
    (0.25, (62, 117, 207)),
    (0.50, (27, 208, 213)),
    (0.75, (250, 186, 57)),
    (1.00, (122, 4, 3)),
)


def _oracle_color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    for (t0, c0), (t1, c1) in zip(_ORACLE_STOPS, _ORACLE_STOPS[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _ORACLE_STOPS[-1][1]


def test_colors_match_the_scalar_map():
    rng = np.random.default_rng(19)
    t = np.concatenate([np.linspace(-0.1, 1.1, 10_001), rng.uniform(-0.1, 1.1, 2_000),
                        [0.0, 0.25, 0.5, 0.75, 1.0, np.nextafter(0.25, 1.0), np.nan]])
    assert _colors(t) == [_oracle_color(v) for v in t]
    # the stops themselves
    assert _colors(np.array([0.0, 0.25, 0.5, 0.75, 1.0])) == [
        "#30123b", "#3e75cf", "#1bd0d5", "#faba39", "#7a0403"]
    # at t = 0.3125 the blue channel is 207 + 0.25 = 208.5 exactly, which
    # rounds half to even, down to 208 (0xd0)
    assert _colors(np.array([0.3125])) == [_oracle_color(0.3125)] == ["#358cd0"]


@pytest.fixture(scope="module")
def annulus_field():
    grid = Grid(annulus(0.5, 1.0), 1.0 / 16.0)
    return ScalarField.from_callable(grid, lambda x, y: np.sin(3 * x) * y + x * x)


def test_fields_csv_matches_csv_writer_on_annulus(annulus_field, tmp_path):
    u = annulus_field
    grid = u.grid
    assert len(grid.ghost_ij) > 0
    # oracle: the row-by-row csv.writer dump of repr'd coordinates and values
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["i", "j", "x", "y", "class", "u"])
    for cls, ij, vals in (("interior", grid.interior_ij, u.values),
                          ("ghost", grid.ghost_ij, u.ghost_values())):
        for (i, j), v in zip(ij.tolist(), vals.tolist()):
            writer.writerow([i, j, repr(float(grid.xs[i])), repr(float(grid.ys[j])),
                             cls, repr(v)])
    path = tmp_path / "fields.csv"
    write_fields_csv(path, u)
    assert path.read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("max_cells", [128, 16])
def test_heatmap_svg_skips_the_hole_of_an_annulus(annulus_field, tmp_path, monkeypatch,
                                                  max_cells):
    u = annulus_field
    grid = u.grid
    vals = np.full((grid.nx, grid.ny), np.nan)
    vals[grid.interior_ij[:, 0], grid.interior_ij[:, 1]] = u.values
    step = max(1, int(np.ceil(max(grid.nx, grid.ny) / max_cells)))
    sub = vals[::step, ::step]
    path = tmp_path / "heat.svg"
    monkeypatch.setattr(mcgraph.reporting, "_MAX_CELLS", max_cells)
    write_heatmap_svg(path, u)
    text = path.read_text()
    cells = [(int(x), int(y), int(w)) for x, y, w in
             re.findall(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="\d+"', text)]
    # one rect per finite subsampled cell, 100 legend rects, the background
    assert len(cells) == np.isfinite(sub).sum()
    assert text.count("<rect") == len(cells) + 100 + 1
    # every cell sits on an interior node of the annulus, none in the hole
    nys = sub.shape[1]
    for x, y, cell in cells:
        i, j = x // cell * step, (nys - 1 - y // cell) * step
        assert grid.node_id[i, j] >= 0
        assert math.hypot(grid.xs[i], grid.ys[j]) > 0.5
