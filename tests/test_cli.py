"""Command-line behavior: exit codes, artifacts, printed tables."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mcgraph.solver
from mcgraph.cli import main, EXIT_OK, EXIT_SOLVER, EXIT_AUDIT, EXIT_CONFIG


CAP = """\
[domain]
shape = disk
radius = 1.0

[curvature]
constant = 0.4
n = 2

[grid]
spacing = 1/16

[audits]
names = height, gradient, serrin
"""


def write(tmp_path, text, name="scn.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, CAP)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    for name in ("report.json", "traces.csv", "fields.csv", "heatmap.svg"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "converged"
    assert report["audits"]["serrin"]["passed"] is True
    assert report["audits"]["height"]["passed"] is True
    assert len(report["config_sha256"]) == 64
    stdout = capsys.readouterr().out
    assert "verdict: converged" in stdout


def test_run_cap_reproduces_committed_artifacts(tmp_path):
    # out/cap/ is the committed output of the cap scenario: every artifact
    # but the wall time must come out byte for byte the same
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "cap"
    code = main(["run", "--config", str(root / "configs" / "cap.ini"),
                 "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    for name in ("fields.csv", "traces.csv", "heatmap.svg"):
        assert (out / name).read_bytes() == (root / "out" / "cap" / name).read_bytes(), name
    report, golden = (json.loads((d / "report.json").read_text())
                      for d in (out, root / "out" / "cap"))
    report.pop("wall_time_seconds")
    golden.pop("wall_time_seconds")
    assert report == golden


def test_cap_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # the same bytes, wall time aside, with one BLAS thread and with two
    root = Path(__file__).resolve().parent.parent
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "mcgraph", "run", "--config",
                        str(root / "configs" / "cap.ini"), "--out", str(out), "--quiet"],
                       env=env, check=True, timeout=120)
        report = json.loads((out / "report.json").read_text())
        report.pop("wall_time_seconds")
        runs.append([report] + [(out / name).read_bytes()
                                for name in ("fields.csv", "traces.csv", "heatmap.svg")])
    assert runs[0] == runs[1]


def test_run_quiet_silences_stdout(tmp_path, capsys):
    cfg = write(tmp_path, CAP)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_run_grid_override(tmp_path):
    cfg = write(tmp_path, CAP)
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out),
                 "--grid-h", "0.125", "--quiet"])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["spacings"] == [0.125]


def test_run_grid_override_takes_a_fraction(tmp_path):
    # --grid-h 1/64 exited 4 with "invalid float value", although
    # [grid] spacing = 1/64 loads; a fraction and its decimal run alike
    cfg = write(tmp_path, CAP)
    reports = []
    for h in ("1/16", "0.0625"):
        out = tmp_path / h.replace("/", "_")
        assert main(["run", "--config", cfg, "--out", str(out), "--grid-h", h,
                     "--quiet"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        report.pop("wall_time_seconds")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["spacings"] == [0.0625]


def test_run_spacing_that_builds_no_grid_exits_config(tmp_path, capsys):
    # at h = 1e300 the grid constructor raises GridError, which escaped main;
    # it is refused before the lattice coordinates overflow
    root = Path(__file__).resolve().parent.parent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(root / "configs" / "cap.ini"),
                     "--out", str(tmp_path / "o"), "--grid-h", "1e300", "--quiet"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: spacing h = 1e+300 exceeds")


def test_run_missing_section_exits_config(tmp_path, capsys):
    cfg = write(tmp_path, "[domain]\nshape = disk\n\n[grid]\nspacing = 1/16\n")
    code = main(["run", "--config", cfg])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "[curvature]" in err


def test_run_unknown_key_names_line(tmp_path, capsys):
    cfg = write(tmp_path, CAP.replace("constant = 0.4",
                                      "constant = 0.4\nconstnat = 0.3"))
    code = main(["run", "--config", cfg])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "constnat" in err and "line" in err


def test_run_audit_failure_exits_three(tmp_path, capsys):
    # zero data keeps the solve well inside the cap regime, but the
    # boundary solvability audit fails once 2H exceeds the curvature
    cfg = write(tmp_path, CAP.replace("constant = 0.4", "constant = 0.55"))
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_AUDIT
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "converged"
    assert report["audits"]["serrin"]["passed"] is False
    assert report["audits"]["serrin"]["margin"] < 0


def test_run_solver_failure_exits_two(tmp_path, monkeypatch):
    monkeypatch.setattr(mcgraph.solver, "_GRAD_MAX", 0.1)
    cfg = write(tmp_path, CAP)
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_SOLVER
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "diverged_gradient"


def test_check_serrin_satisfied(capsys):
    code = main(["check-serrin", "--shape", "disk", "--radius", "1.0",
                 "--curvature", "0.45"])
    assert code == 0
    out = capsys.readouterr().out
    assert "solvability condition satisfied" in out
    assert "margin" in out


def test_check_serrin_violated(capsys):
    code = main(["check-serrin", "--shape", "disk", "--radius", "1.0",
                 "--curvature", "0.55"])
    assert code == 1
    out = capsys.readouterr().out
    assert "solvability condition violated" in out


def test_check_serrin_from_config(tmp_path, capsys):
    cfg = write(tmp_path, CAP)
    assert main(["check-serrin", "--config", cfg]) == 0
    assert "satisfied" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--curvature", "0.9"], ["--n", "3"],
                                   ["--shape", "ellipse"], ["--a", "3"], ["--radius", "1.0"]],
                         ids=["curvature", "n", "shape", "a", "radius"])
def test_check_serrin_flag_beside_config_is_config_error(tmp_path, capsys, flags):
    cfg = write(tmp_path, CAP)
    assert main(["check-serrin", "--config", cfg, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and flags[0] in err and "--config" in err


def test_check_serrin_shape_flags_reach_the_factory(capsys):
    from mcgraph import PrescribedCurvature, check_serrin, ellipse
    code = main(["check-serrin", "--shape", "ellipse", "--a", "1.2", "--b", "0.7",
                 "--curvature", "0.3"])
    audit = check_serrin(ellipse(1.2, 0.7), PrescribedCurvature.constant(0.3), 2)
    assert code == (0 if audit.satisfied else 1)
    assert f"margin = {audit.margin:.9g} " in capsys.readouterr().out


def test_check_serrin_foreign_flag_is_config_error(capsys):
    code = main(["check-serrin", "--shape", "ellipse", "--radius", "3"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "--radius" in err


def test_check_serrin_malformed_domain(capsys):
    code = main(["check-serrin", "--shape", "dumbbell",
                 "--waist", "1.0", "--spread", "2.0"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--curvature", "nan"], ["--curvature", "inf"],
                                   ["--n", "1"]], ids=["nan", "inf", "n1"])
def test_check_serrin_refuses_bad_curvature_and_dimension(capsys, flags):
    assert main(["check-serrin", *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and flags[0] in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["check-serrin", "--n", "2.7"], "--n"),
    (["check-serrin", "--curvature", "abc"], "--curvature"),
    (["run", "--config", "configs/cap.ini", "--grid-h", "abc"], "--grid-h"),
    (["run", "--quiet"], "--config"),
], ids=["n", "curvature", "grid-h", "missing"])
def test_flag_argparse_refuses_is_a_config_error(capsys, argv, flag):
    # argparse's own exit code, 2, is EXIT_SOLVER
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and flag in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["check-serrin", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: mcgraph" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_refuses_a_non_finite_constant_curvature(tmp_path, capsys, value):
    cfg = write(tmp_path, CAP.replace("constant = 0.4", f"constant = {value}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_CONFIG
    assert "[curvature] constant" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_refuses_non_finite_constant_data(tmp_path, capsys, value):
    cfg = write(tmp_path, CAP + f"\n[data]\nkind = constant\nvalue = {value}\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_CONFIG
    assert "[data] value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_check_serrin_dumbbell_waist_violated(capsys):
    code = main(["check-serrin", "--shape", "dumbbell",
                 "--waist", "1.0", "--spread", "1.3"])
    assert code == 1
    assert "solvability condition violated" in capsys.readouterr().out


def test_estimates_prints_ledger(tmp_path, capsys):
    cfg = write(tmp_path, CAP)
    assert main(["estimates", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    for needle in ("a priori constant ledger", "solvability margin",
                   "height bound", "global gradient bound",
                   "boundary gradient bound", "tau_strip"):
        assert needle in out, needle


def test_estimates_refusal_when_unsolvable(tmp_path, capsys):
    # at H = 1.0 and 200 an exponential also leaves the floats, and the
    # estimate it belongs to is refused by name instead of crashing the ledger
    for constant, refused in (
            ("0.55", ()),
            ("1.0", ("global gradient bound refused: e^(2 sup|u| A) overflows: "
                     "2 sup|u| A = 911",)),
            ("200", ("height bound refused: e^(mu delta) overflows: mu delta = 800",
                     "global gradient bound refused"))):
        cfg = write(tmp_path, CAP.replace("constant = 0.4", f"constant = {constant}"))
        assert main(["estimates", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "boundary gradient barrier refused" in out
        for needle in refused:
            assert needle in out, (constant, needle)


def test_sweep_refinement(tmp_path, capsys):
    text = CAP.replace("spacing = 1/16", "spacings = 1/8, 1/16")
    text += "\n[output]\nreference = cap\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    table = (out / "sweep.csv").read_text()
    lines = table.strip().splitlines()
    assert lines[0] == "h,verdict,iterations,sup_error,ratio"
    assert len(lines) == 3
    assert "converged" in lines[1]
    # second-order scheme: one halving shrinks the reference error ~4x
    ratio = float(lines[2].rsplit(",", 1)[1])
    assert 2.5 < ratio < 6.0
    assert capsys.readouterr().out.strip().startswith("h,verdict")


def test_sweep_quiet_writes_table_only(tmp_path, capsys):
    cfg = write(tmp_path, CAP.replace("spacing = 1/16", "spacings = 1/8, 1/16"))
    loud, quiet = tmp_path / "loud", tmp_path / "quiet"
    assert main(["sweep", "--config", cfg, "--out", str(loud)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert main(["sweep", "--config", cfg, "--out", str(quiet), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    table = (quiet / "sweep.csv").read_text()
    assert table == (loud / "sweep.csv").read_text() == printed


def test_sweep_needs_series_or_curvatures(tmp_path, capsys):
    cfg = write(tmp_path, CAP)
    code = main(["sweep", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "sweep needs" in capsys.readouterr().err


EXPERIMENT = """\
[domain]
shape = disk
radius = 1.0

[curvature]
constant = 0.55
n = 2

[grid]
spacings = 1/12, 1/24

[experiment]
y0 = 1.0, 0.0
eps = 0.05
width = 0.10
"""


def test_run_experiment_pipeline(tmp_path, capsys):
    # the finest solve gets the requested audits, and a failing one sets the
    # exit code as in a plain run: H = 0.55 breaks the Serrin condition
    text = EXPERIMENT + "\n[audits]\nnames = height, gradient, serrin, barrier_pair\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_AUDIT
    report = json.loads((out / "report.json").read_text())
    cert = report["certificate"]
    assert cert["applicable"] is True
    assert cert["g_value"] < 0.05 and cert["log10_a"] < -100
    assert report["nonexistence_witness"]["verdict"] == "NO-WITNESS"
    assert [r["h"] for r in report["refinements"]] == [1 / 12, 1 / 24]
    assert all(r["verdict"] == "converged" for r in report["refinements"])
    assert report["barrier_params"]["nu_ne"] == cert["nu_ne"]
    audits = report["audits"]
    assert audits["height"]["passed"] is True
    assert audits["gradient"]["passed"] is True
    assert audits["serrin"]["passed"] is False
    assert "Serrin condition" in audits["barrier_pair"]["error"]
    for name in ("experiment", "certificate", "nonexistence_witness",
                 "refinements", "barrier_params", "verdict", "stages"):
        assert name in report, name


def test_sweep_curvature_with_experiment(tmp_path, capsys):
    text = EXPERIMENT + "\n[sweep]\ncurvatures = 0.45, 0.55\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "H,serrin_margin,certificate,witness"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.45, 0.55]
    assert float(rows[0][1]) > 0 > float(rows[1][1])
    assert [r[2] for r in rows] == ["not-applicable", "applicable"]
    assert [r[3] for r in rows] == ["NO-WITNESS", "NO-WITNESS"]


def test_run_barrier_pair_audit(tmp_path):
    cfg = write(tmp_path, CAP.replace("serrin", "serrin, barrier_pair"))
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    audits = json.loads((out / "report.json").read_text())["audits"]
    for name in ("qwp_negative", "qwm_positive", "sandwich"):
        assert audits[name]["passed"] is True, name
    assert "barrier_pair" not in audits
