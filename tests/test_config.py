"""Scenario config parsing: happy paths and error message contracts."""

import hashlib

import numpy as np
import pytest

from mcgraph import (ConfigError, annulus, disk, dumbbell, ellipse,
                     load_scenario, rect, rounded_rect)
from mcgraph.boundary import ZeroData, BumpData, ExpressionData


BASE = """\
[domain]
shape = disk
radius = 1.0

[curvature]
constant = 0.4
n = 2

[grid]
spacing = 1/64
"""


def write(tmp_path, text, name="scn.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_scenario(tmp_path):
    path = write(tmp_path, BASE)
    scn = load_scenario(path)
    assert scn.spacings == (1.0 / 64.0,)
    assert scn.n == 2
    assert isinstance(scn.data, ZeroData)
    assert scn.audits == ("height", "gradient")
    assert scn.outdir == "out"
    assert scn.reference is None
    assert scn.experiment is None
    assert scn.source_path == path
    # the hash is over the raw file text, so edits are detectable
    assert scn.config_sha256 == hashlib.sha256(BASE.encode()).hexdigest()


def test_fraction_and_plain_numbers(tmp_path):
    text = BASE.replace("spacing = 1/64", "spacing = 0.03125")
    scn = load_scenario(write(tmp_path, text))
    assert scn.spacings == (0.03125,)


def test_full_scenario(tmp_path, capsys):
    text = """\
[domain]
shape = ellipse
a = 1.2
b = 0.7
center = 0.1, -0.2

[curvature]
expression = "0.3 + 0.05*x"
n = 3

[data]
kind = expression
expression = "x*y"

[grid]
spacings = 1/16, 1/32, 1/64

[audits]
names = height, gradient, serrin

[output]
directory = out/full
reference = cap
"""
    scn = load_scenario(write(tmp_path, text))
    assert scn.spacings == (1.0 / 16, 1.0 / 32, 1.0 / 64)
    assert scn.audits == ("height", "gradient", "serrin")
    assert scn.outdir == "out/full"
    assert scn.reference == "cap"
    assert isinstance(scn.data, ExpressionData)
    import numpy as np
    assert scn.curvature(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.3)
    assert scn.n == 3
    # the solver's settings are constants: [solver] is an unknown section
    from mcgraph.cli import EXIT_CONFIG, main
    text += "\n[solver]\nmax_iters = 80\ntau_stages = 0.5, 1.0\n"
    expect_error(tmp_path, text, "unknown section [solver]", "(line 25)")
    assert main(["run", "--config", write(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "unknown section [solver]" in err


def test_bump_data_and_experiment(tmp_path):
    text = BASE + """
[data]
kind = bump
y0 = 1.0, 0.0
eps = 0.05
width = 0.2

[experiment]
y0 = 1.0, 0.0
eps = 0.05
width = 0.2
"""
    scn = load_scenario(write(tmp_path, text))
    assert isinstance(scn.data, BumpData)
    assert scn.experiment is not None
    assert scn.experiment.y0 == (1.0, 0.0)
    assert scn.experiment.eps == 0.05
    assert scn.experiment.width == 0.2


@pytest.mark.parametrize("keys, factory", [
    ("shape = disk\nradius = 0.8\ncenter = 0.1, -0.2",
     lambda: disk(0.8, center=(0.1, -0.2))),
    ("shape = ellipse\na = 1.2\nb = 0.7", lambda: ellipse(1.2, 0.7)),
    ("shape = rect\nhx = 1.0\nhy = 0.6\ncenter = 0.5, 0.0",
     lambda: rect(1.0, 0.6, center=(0.5, 0.0))),
    ("shape = rounded_rect\nhx = 1.0\nhy = 0.6\ncorner_radius = 0.2",
     lambda: rounded_rect(1.0, 0.6, 0.2)),
    ("shape = annulus\nr_in = 0.3\nr_out = 1.0", lambda: annulus(0.3, 1.0)),
    ("shape = dumbbell\nwaist = 1.0\nspread = 1.3", lambda: dumbbell(1.0, 1.3)),
])
def test_config_shape_matches_factory(tmp_path, keys, factory):
    text = BASE.replace("shape = disk\nradius = 1.0", keys)
    got, want = load_scenario(write(tmp_path, text)).domain, factory()
    assert got.tag == want.tag
    assert got.bbox == want.bbox
    assert np.array_equal(got.boundary.points, want.boundary.points)
    assert got.diameter == want.diameter


def test_sweep_curvatures(tmp_path):
    text = BASE + "\n[sweep]\ncurvatures = 0.3, 0.45, 0.55\n"
    scn = load_scenario(write(tmp_path, text))
    assert scn.sweep_curvatures == (0.3, 0.45, 0.55)


# -- error contracts: every message names its section, key, and line ----------


def expect_error(tmp_path, text, *fragments):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    msg = str(exc.value)
    for frag in fragments:
        assert frag in msg, f"{frag!r} not in {msg!r}"
    return msg


def test_missing_domain_section(tmp_path):
    text = "[curvature]\nconstant = 0.4\n\n[grid]\nspacing = 1/16\n"
    expect_error(tmp_path, text, "missing section [domain]")


def test_unknown_section(tmp_path):
    expect_error(tmp_path, BASE + "\n[bogus]\nfoo = 1\n", "[bogus]", "line")


def test_unknown_key_names_line(tmp_path):
    text = BASE.replace("radius = 1.0", "radius = 1.0\nradiu = 2.0")
    expect_error(tmp_path, text, "[domain]", "radiu", "(line 4)", "unknown key")


def test_foreign_shape_key_names_line(tmp_path):
    # a key of another shape is as unknown as a misspelt one
    dumbbell_center = BASE.replace("shape = disk\nradius = 1.0",
                                   "shape = dumbbell\ncenter = 5.0, 5.0")
    expect_error(tmp_path, dumbbell_center, "[domain]", "center", "(line 3)",
                 "unknown key")
    disk_a = BASE.replace("radius = 1.0", "radius = 1.0\na = 1.2")
    expect_error(tmp_path, disk_a, "[domain]", " a ", "(line 4)", "unknown key")


def test_bad_number_names_key_and_line(tmp_path):
    text = BASE.replace("constant = 0.4", "constant = forty")
    expect_error(tmp_path, text, "[curvature]", "constant",
                 "expected a number", "'forty'")


def test_unknown_shape(tmp_path):
    text = BASE.replace("shape = disk", "shape = trapezoid")
    expect_error(tmp_path, text, "[domain]", "unknown shape", "trapezoid")


def test_invalid_domain_parameters(tmp_path):
    text = BASE.replace("radius = 1.0", "radius = -1.0")
    expect_error(tmp_path, text, "[domain]", "invalid domain parameters")


def test_curvature_requires_exactly_one_form(tmp_path):
    neither = BASE.replace("constant = 0.4\n", "")
    expect_error(tmp_path, neither, "[curvature]", "exactly one")
    both = BASE.replace("constant = 0.4",
                        'constant = 0.4\nexpression = "0.4"')
    expect_error(tmp_path, both, "[curvature]", "exactly one")


def test_dimension_must_be_at_least_two(tmp_path):
    text = BASE.replace("n = 2", "n = 1")
    expect_error(tmp_path, text, "[curvature]", "n", ">= 2")


@pytest.mark.parametrize("n", ["2.7", "inf", "nan"])
def test_dimension_must_be_an_integer(tmp_path, n):
    text = BASE.replace("n = 2", f"n = {n}")
    expect_error(tmp_path, text, "[curvature] n (line 7)", "an integer >= 2", n)


def test_dimension_may_be_written_as_a_float(tmp_path):
    scn = load_scenario(write(tmp_path, BASE.replace("n = 2", "n = 3.0")))
    assert scn.n == 3 and isinstance(scn.n, int)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_constant_curvature_must_be_finite(tmp_path, value):
    text = BASE.replace("constant = 0.4", f"constant = {value}")
    expect_error(tmp_path, text, "[curvature] constant (line 6)", "must be finite")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_constant_data_must_be_finite(tmp_path, value):
    # was an ExpressionError traceback from compiling the text 'nan'
    text = BASE + f"\n[data]\nkind = constant\nvalue = {value}\n"
    expect_error(tmp_path, text, "[data] value (line 14)", "must be finite")


def test_sweep_curvatures_must_be_finite(tmp_path):
    text = BASE + "\n[sweep]\ncurvatures = 0.3, nan\n"
    expect_error(tmp_path, text, "[sweep] curvatures", "must be finite")


def test_grid_requires_exactly_one_form(tmp_path):
    both = BASE.replace("spacing = 1/64",
                        "spacing = 1/64\nspacings = 1/16, 1/32")
    expect_error(tmp_path, both, "[grid]", "exactly one")
    neither = BASE.replace("spacing = 1/64", "")
    expect_error(tmp_path, neither, "[grid]", "exactly one")


def test_spacings_strictly_decreasing(tmp_path):
    text = BASE.replace("spacing = 1/64", "spacings = 1/32, 1/16")
    expect_error(tmp_path, text, "[grid]", "spacings", "strictly decreasing")


def test_spacings_positive(tmp_path):
    text = BASE.replace("spacing = 1/64", "spacing = 0")
    expect_error(tmp_path, text, "[grid]", "positive")


@pytest.mark.parametrize("line", ["spacing = nan", "spacing = inf", "spacings = inf, 1/16"])
def test_spacings_finite(tmp_path, capsys, line):
    # nan reached the grid constructor and inf an IndexError, each a traceback
    from mcgraph.cli import EXIT_CONFIG, main
    text = BASE.replace("spacing = 1/64", line)
    expect_error(tmp_path, text, "[grid]", line.split()[0], "positive and finite")
    assert main(["run", "--config", write(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_audit_name(tmp_path):
    text = BASE + "\n[audits]\nnames = height, entropy\n"
    expect_error(tmp_path, text, "[audits]", "unknown audit", "entropy")


def test_experiment_missing_key(tmp_path):
    text = BASE + "\n[experiment]\ny0 = 1.0, 0.0\neps = 0.05\n"
    expect_error(tmp_path, text, "[experiment]", "width", "required key missing")


EXPERIMENT = BASE + """
[experiment]
y0 = 1.0, 0.0
eps = 0.05
width = 0.2
"""


@pytest.mark.parametrize("key, value, message", [
    ("eps", "0", "must be positive and finite"),        # ValueError traceback
    ("eps", "-0.05", "must be positive and finite"),    # ValueError traceback
    ("eps", "nan", "must be positive and finite"),      # AssertionError traceback
    ("y0", "0.5, 0.0", "does not lie on the domain boundary"),   # ValueError traceback
    ("width", "0", "must be positive and finite"),      # ran on a zero bump, exit 0
    ("width", "-0.1", "must be positive and finite"),   # ran on a zero bump, exit 0
    ("width", "inf", "must be positive and finite"),    # ran on a zero bump, exit 0
])
def test_bad_experiment_value_is_config_error(tmp_path, capsys, key, value, message):
    from mcgraph.cli import EXIT_CONFIG, main
    line = {"y0": "y0 = 1.0, 0.0", "eps": "eps = 0.05", "width": "width = 0.2"}[key]
    text = EXPERIMENT.replace(line, f"{key} = {value}")
    expect_error(tmp_path, text, f"[experiment] {key} (line ", message)
    cfg = write(tmp_path, text)
    for command in ("run", "sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"[experiment] {key}" in err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("width", "0", "must be positive and finite"),
    ("width", "-0.1", "must be positive and finite"),
    ("width", "inf", "must be positive and finite"),
    ("eps", "nan", "must be finite"),
])
def test_bad_bump_value_is_config_error(tmp_path, capsys, key, value, message):
    from mcgraph.cli import EXIT_CONFIG, main
    bump = {"y0": "1.0, 0.0", "eps": "0.05", "width": "0.2", key: value}
    text = BASE + "\n[data]\nkind = bump\n" + "".join(f"{k} = {v}\n" for k, v in bump.items())
    expect_error(tmp_path, text, f"[data] {key} (line ", message)
    assert main(["run", "--config", write(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"[data] {key}" in err and "Traceback" not in err


def test_bump_data_takes_negative_eps(tmp_path):
    # a bump may dip: only the [experiment]'s eps must be positive
    text = BASE + "\n[data]\nkind = bump\ny0 = 1.0, 0.0\neps = -0.3\nwidth = 0.2\n"
    scn = load_scenario(write(tmp_path, text))
    assert scn.data.trace(np.array([[1.0, 0.0]]))[0] == -0.3


def test_reference_must_be_in_catalog(tmp_path):
    text = BASE + "\n[output]\nreference = nonexistent_surface\n"
    expect_error(tmp_path, text, "[output]", "reference",
                 "not in the reference catalog")


def test_empty_sweep_list(tmp_path):
    text = BASE + "\n[sweep]\ncurvatures =\n"
    expect_error(tmp_path, text, "[sweep]", "curvatures", "empty sweep list")


def test_bump_data_missing_keys(tmp_path):
    text = BASE + "\n[data]\nkind = bump\ny0 = 1.0, 0.0\n"
    expect_error(tmp_path, text, "[data]", "required for kind = bump")


def test_constant_data(tmp_path):
    scn = load_scenario(write(tmp_path, BASE + "\n[data]\nkind = constant\nvalue = 0.25\n"))
    assert np.array_equal(scn.data.trace(np.array([[1.0, 0.0], [0.0, -1.0]])), [0.25, 0.25])


def test_scherk_data(tmp_path):
    scn = load_scenario(write(tmp_path, BASE + "\n[data]\nkind = scherk\n"))
    x, y = 0.3, -0.7
    assert scn.data.trace(np.array([[x, y]]))[0] == pytest.approx(
        np.log(np.cos(x) / np.cos(y)), rel=1e-14)


@pytest.mark.parametrize("kind, key", [("constant", "value"), ("expression", "expression")])
def test_data_kind_needs_its_key(tmp_path, kind, key):
    text = BASE + f"\n[data]\nkind = {kind}\n"
    expect_error(tmp_path, text, f"[data] {key}", "required key missing")


def test_unknown_data_kind(tmp_path):
    text = BASE + "\n[data]\nkind = spline\n"
    expect_error(tmp_path, text, "[data]", "unknown kind", "spline")


def test_point_needs_two_coordinates(tmp_path):
    text = BASE.replace("radius = 1.0", "radius = 1.0\ncenter = 0.5")
    expect_error(tmp_path, text, "[domain]", "center", "expected 'x, y'")


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario("/no/such/scenario.ini")


def test_syntax_error(tmp_path):
    expect_error(tmp_path, "not an ini file at all\n", "syntax error")


def test_unknown_function_in_expression_exits_config(tmp_path, capsys):
    from mcgraph.cli import EXIT_CONFIG, main
    text = BASE.replace("constant = 0.4", 'expression = "foo(x)"')
    assert main(["run", "--config", write(tmp_path, text)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[curvature]" in err and "unknown function foo" in err


@pytest.mark.parametrize("h", ["0", "-0.125", "nan", "inf"])
def test_grid_h_override_must_be_positive(tmp_path, capsys, h):
    # --grid-h 0 died in the grid constructor with a traceback
    from mcgraph.cli import EXIT_CONFIG, main
    assert main(["run", "--config", write(tmp_path, BASE), "--out", str(tmp_path / "o"),
                 "--grid-h", h]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "--grid-h" in err
