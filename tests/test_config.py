"""Scenario config parsing: happy paths and error message contracts."""

import hashlib

import pytest

from mcgraph import ConfigError, load_scenario
from mcgraph.boundary import ZeroData, BumpData, ExpressionData
from mcgraph.solver import SolveConfig


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


def test_full_scenario(tmp_path):
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

[solver]
max_iters = 80
tau_stages = 0.5, 1.0

[audits]
names = height, gradient, serrin

[output]
directory = out/full
reference = cap
"""
    scn = load_scenario(write(tmp_path, text))
    assert scn.spacings == (1.0 / 16, 1.0 / 32, 1.0 / 64)
    assert scn.solver.max_iters == 80
    assert tuple(scn.solver.tau_schedule) == (0.5, 1.0)
    assert scn.audits == ("height", "gradient", "serrin")
    assert scn.outdir == "out/full"
    assert scn.reference == "cap"
    assert isinstance(scn.data, ExpressionData)
    import numpy as np
    assert scn.curvature(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.3)
    assert scn.n == 3


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


def test_tau_stages_must_climb_to_one(tmp_path):
    for bad in ("0.5, 0.75", "1.0, 0.5", "0.0, 1.0", "0.5, 0.5, 1.0"):
        text = BASE + f"\n[solver]\ntau_stages = {bad}\n"
        expect_error(tmp_path, text, "[solver]", "tau_stages",
                     "increase to exactly 1.0")


def test_unknown_audit_name(tmp_path):
    text = BASE + "\n[audits]\nnames = height, entropy\n"
    expect_error(tmp_path, text, "[audits]", "unknown audit", "entropy")


def test_experiment_missing_key(tmp_path):
    text = BASE + "\n[experiment]\ny0 = 1.0, 0.0\neps = 0.05\n"
    expect_error(tmp_path, text, "[experiment]", "width", "required key missing")


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


def test_solver_defaults_without_section(tmp_path):
    scn = load_scenario(write(tmp_path, BASE))
    ref = SolveConfig()
    assert scn.solver.max_iters == ref.max_iters
    assert scn.solver.tol_update == ref.tol_update
    assert tuple(scn.solver.tau_schedule) == tuple(ref.tau_schedule)
