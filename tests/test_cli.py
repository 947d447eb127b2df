"""CLI subcommands: outputs, exit codes, config handling, determinism."""
import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import opnormlab
import opnormlab.cli
from opnormlab.cli import RunConfig, build_parser, run_cli
from opnormlab.errors import DomainError
from opnormlab.grids import parse_grid
from opnormlab.operators import POWER_MAX_ITER, POWER_TOL
from opnormlab.sweeps import GridPolicy


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_satisfied(capsys):
    code, payload = run_json(capsys, [
        "check", "--thm", "1", "--s1", "-0.25", "--s2", "-0.25", "--kappa", "1.5"])
    assert code == 0
    assert payload["satisfied"] is True
    assert payload["margin"] == pytest.approx(0.5)
    assert payload["provenance"]["seed"] == 0


def test_check_inapplicable_exit_3(capsys):
    code, payload = run_json(capsys, [
        "check", "--thm", "1", "--s1", "0.5", "--s2", "0", "--kappa", "9"])
    assert code == 3
    assert payload["applicable"] is False


def test_check_third_variant_note(capsys):
    code, payload = run_json(capsys, [
        "check", "--thm", "3", "--s1", "-1", "--s2", "-1", "--p1", "4",
        "--p2", "2", "--kappa", "2"])
    assert code == 0
    assert payload["inner_threshold"] == pytest.approx(1.25)
    assert "note" in payload


def test_oracle_majorant(capsys):
    code, payload = run_json(capsys, ["oracle", "majorant", "--x", "0", "--a", "2"])
    assert code == 0
    assert payload["value"] == pytest.approx(2.0, rel=1e-15)


def test_oracle_majorant_divergence_exit_2(capsys):
    code = run_cli(["oracle", "majorant", "--x", "0", "--a", "1"])
    assert code == 2
    assert "numerical" in capsys.readouterr().err


def test_oracle_powerlaw_norm(capsys):
    code, payload = run_json(capsys, [
        "oracle", "powerlaw-norm", "--t", "1", "--space", "H(-1)"])
    assert code == 0
    assert payload["value"] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)


def test_oracle_indicator_image(capsys):
    code, payload = run_json(capsys, [
        "oracle", "indicator-image", "--kappa", "2", "--x", "1"])
    assert code == 0
    assert payload["value"] == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_norm_matches_oracle(capsys):
    code, payload = run_json(capsys, [
        "norm", "--function", "powerlaw(1)", "--space", "H(-1)",
        "--grid", "grid(10000,40,1.3,8)"])
    assert code == 0
    assert payload["value"] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-6)


def test_apply_matches_oracle(capsys):
    code, payload = run_json(capsys, [
        "apply", "--kernel", "envelope(2)", "--function", "indicator(0,1)",
        "--grid", "grid(1,8,1.2,8)", "--x", "0"])
    assert code == 0
    assert payload["value"] == pytest.approx(0.5, rel=1e-8)


def test_opnorm(capsys):
    code, payload = run_json(capsys, [
        "opnorm", "--kernel", "envelope(2)", "--source", "H(-1)",
        "--target", "H(-1)", "--grid", "grid(40,10,1.3,8)"])
    assert code == 0
    assert payload["certified"] is True
    assert payload["value"] > 0


def test_opnorm_norm_whose_power_sum_overflows(capsys):
    # sum |u|^2 overflows for c = 1e300 although the norm is finite: the run
    # is the unscaled one times 1e300, in as many iterations
    argv = ["opnorm", "--kernel", "envelope(2)", "--source", "H(-1)",
            "--target", "H(-1)", "--grid", "grid(40,10,1.3,8)"]
    _, plain = run_json(capsys, argv)
    argv[2] = "envelope(2,1e300)"
    code, scaled = run_json(capsys, argv)
    assert code == 0 and plain["value"] == 1.1463932882972416
    assert scaled["value"] == pytest.approx(1e300 * plain["value"], rel=1e-15)
    assert scaled["iterations"] == plain["iterations"] == 6 and scaled["certified"]


def test_opnorm_separate_target_grid(capsys):
    code, payload = run_json(capsys, [
        "opnorm", "--kernel", "envelope(2)", "--source", "H(-1)",
        "--target", "H(-1)", "--grid", "grid(40,10,1.3,8)",
        "--target-grid", "grid(40,8,1.3,6)"])
    assert code == 0
    assert payload["source_nodes"] == 160 and payload["target_nodes"] == 96


def test_sweep_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--query", "thm=1,s1=-0.25,s2=-0.25,kappa=1.5",
            "--r-schedule", "10,40", "--panels", "8", "--order", "6",
            "--out", None]
    argv[-1] = str(out1)
    assert run_cli(argv) == 0
    argv[-1] = str(out2)
    assert run_cli(argv) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "saturating" in text
    assert text.startswith("# opnormlab sweep report")


def test_sweep_header_echoes_the_kernel_and_the_seed(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--query", "thm=2,s1=-0.5,s2=0,p1=3,p2=2,kappa=2",
                    "--kernel", "cosmod(2,1.5)", "--r-schedule", "10,40", "--panels", "8",
                    "--order", "6", "--seed", "5", "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("# ")]
    assert "# kernel=cosmod(2,1.5)" in header
    position = header.index("# seed=5")
    assert header[position - 1].startswith("# gamma_growing=")


def test_sweep_bad_query_exit_1(capsys):
    assert run_cli(["sweep", "--query", "s1=-0.25"]) == 1
    assert "usage" in capsys.readouterr().err


def test_corner_roundtrip(capsys, tmp_path):
    dump = tmp_path / "cd.csv"
    code, payload = run_json(capsys, [
        "corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)",
        "--f", "gauss(1)", "--g", "powerlaw(1.5)",
        "--grid1", "grid(20,10,1.3,5)", "--grid2", "grid(20,10,1.3,5)",
        "--dump-csv", str(dump)])
    assert code == 0
    assert payload["residual_1"] < 1e-10
    assert payload["residual_2"] < 1e-10
    assert payload["condition_estimate"] < 1e6
    lines = dump.read_text().strip().split("\n")
    assert lines[0] == "unknown,node,value"
    assert len(lines) == 1 + 2 * 100  # C and D samples
    for line in lines[1:]:
        name, node, value = line.split(",")
        assert name in ("C", "D")
        float(node), float(value)  # plain parseable numbers, no scalar wrappers


def test_consecutive_calls_share_one_parser(capsys):
    assert build_parser() is build_parser()
    code, payload = run_json(capsys, ["check", "--thm", "3", "--s1", "-1", "--s2", "-1",
                                      "--p1", "4", "--p2", "2", "--kappa", "2", "--seed", "7"])
    assert code == 0 and payload["p1"] == 4.0 and payload["provenance"]["seed"] == 7
    assert run_cli(["check", "--thm", "1", "--nope", "1"]) == 1
    assert "error: usage" in capsys.readouterr().err
    code, payload = run_json(capsys, ["oracle", "majorant", "--x", "0", "--a", "2"])
    assert code == 0 and payload["kind"] == "majorant"
    # nothing carries over from the earlier calls: defaults are back
    code, payload = run_json(capsys, ["check", "--thm", "1", "--s1", "-0.25",
                                      "--s2", "-0.25", "--kappa", "1.5"])
    assert code == 0 and payload["p1"] == 2.0 and payload["provenance"]["seed"] == 0
    assert run_cli(["oracle", "majorant", "--x", "0", "--a", "1"]) == 2


def test_sweep_does_not_import_scipy():
    # scipy.linalg is loaded by the corner solve only
    script = ("import sys, opnormlab.cli\n"
              "code = opnormlab.cli.run_cli(['sweep', '--query', "
              "'thm=1,s1=-0.25,s2=-0.25,kappa=1.5', '--r-schedule', '10,40', "
              "'--panels', '4', '--order', '4', '--out', sys.argv[1]])\n"
              "sys.exit(code if code else 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(opnormlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script, os.devnull], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["check", "--thm", "1", "--s1", "-0.25", "--s2", "-0.25", "--kappa", "1.5"]
    env = dict(os.environ, PYTHONPATH=str(Path(opnormlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "opnormlab", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    code = run_cli(argv)
    assert (result.returncode, result.stdout) == (code, capsys.readouterr().out)


def test_overflowing_function_prints_one_plain_error_line():
    # outside pytest's warning filters: no RuntimeWarning line, no numpy repr
    argv = ["norm", "--function", "powerlaw(-400)", "--space", "H(-1)",
            "--grid", "grid(20,4,1.3,4)"]
    env = dict(os.environ, PYTHONPATH=str(Path(opnormlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "opnormlab", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: numerical: non-finite sample at node -19.50689587291439\n"


def test_unknown_flag_exit_1(capsys):
    assert run_cli(["check", "--thm", "1", "--nope", "1"]) == 1
    assert "usage" in capsys.readouterr().err


def test_bad_minilanguage_exit_1(capsys):
    assert run_cli(["norm", "--function", "mystery(1)", "--space", "H(-1)"]) == 1


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["check", "--help"], ["sweep", "--help"],
                 ["oracle", "--help"], ["oracle", "majorant", "--help"]):
        assert run_cli(argv) == 0
        assert "usage" in capsys.readouterr().out


def test_config_file_and_override(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "panels_per_side": 9}))
    code, payload = run_json(capsys, [
        "check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2",
        "--config", str(config), "--seed", "7"])
    assert code == 0
    assert payload["provenance"]["seed"] == 7  # flag wins over file
    assert payload["provenance"]["panels_per_side"] == 9


def test_config_unknown_key_exit_1(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mystery": 1}))
    assert run_cli(["check", "--thm", "1", "--s1", "-1", "--s2", "-1",
                    "--kappa", "2", "--config", str(config)]) == 1


def test_runconfig_round_trip():
    config = RunConfig(seed=3, r_schedule=(10.0, 40.0))
    assert RunConfig.from_dict(config.to_dict()) == config
    with pytest.raises(DomainError):
        RunConfig.from_dict({"nope": 1})
    # values of the field's type pass through unchanged: an int grading is echoed as 1
    out = RunConfig.from_dict({"grading": 1, "r_schedule": [10, 40.0]}).to_dict()
    assert type(out["grading"]) is int and out["r_schedule"] == [10.0, 40.0]


def test_runconfig_defaults_match_library():
    config, policy = RunConfig(), GridPolicy()
    for field in fields(GridPolicy):
        assert getattr(config, field.name) == getattr(policy, field.name)
    grid = parse_grid(config.grid)
    assert (grid.grading, grid.panel_order) == (policy.grading, policy.panel_order)
    assert (config.power_tol, config.power_max_iter) == (POWER_TOL, POWER_MAX_ITER)


def test_output_file_byte_identical(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    base = ["check", "--thm", "2", "--s1", "-0.5", "--s2", "-0.5",
            "--p1", "4", "--p2", "4", "--kappa", "1.75", "--out"]
    assert run_cli(base + [str(first)]) == 0
    assert run_cli(base + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


QUERY = "thm=1,s1=-0.25,s2=-0.25,kappa=1.5"


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--query", "thm=x,s1=-0.25,s2=-0.25,kappa=1.5"], None),
    (["sweep", "--query", "thm=1,s1=abc,s2=-0.25,kappa=1.5"], None),
    (["sweep", "--query", QUERY, "--r-schedule", "10,x"], None),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"r_schedule": ["a"]}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"seed": "x"}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"seed": True}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"panels_per_side": 9.0}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"grid": 3}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"grading": "1.3"}),
    (["norm", "--function", "gauss(1)", "--space", "H(-1)", "--grid", "grid(10,4,1.3,0)"], None),
    (["sweep", "--query", QUERY, "--order", "0"], None),
    (["sweep", "--query", QUERY, "--order", "-1"], None),
    (["sweep", "--query", "thm=1,s1=-0.25,s1=-5,s2=-0.25,kappa=1.5"], None),
    (["sweep", "--query", "family=h,s1=-0.25,s2=-0.25,kappa=1.5"], None),
])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: usage: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_corner_condition_estimate_is_reproducible(monkeypatch, tmp_path):
    # LAPACK's estimate varied in its last digit between identical calls
    real = opnormlab.cli.solve_corner
    estimates = iter((47.04614851892391, 47.046148518923914))
    monkeypatch.setattr(opnormlab.cli, "solve_corner", lambda *args: replace(
        real(*args), condition_estimate=next(estimates)))
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert run_cli(["corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)",
                        "--f", "gauss(1)", "--g", "powerlaw(1.5)",
                        "--grid1", "grid(20,10,1.3,5)", "--grid2", "grid(20,10,1.3,5)",
                        "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["condition_estimate"] == 47.0461


def test_sweep_flags_set_runconfig_fields(tmp_path):
    config_fields = {f.name for f in fields(RunConfig)}
    not_config = {"help", "query", "kernel", "timing", "config", "out"}
    subcommands, = (a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subcommands.choices["sweep"]._actions} - not_config
    assert dests <= config_fields
    assert {"panels_per_side", "panel_order", "r_schedule"} <= dests
    # the same setting as a flag or as a --config key gives the same report
    settings = [("--panels", "6", "panels_per_side", 6), ("--order", "5", "panel_order", 5),
                ("--r-schedule", "10,40", "r_schedule", [10, 40]),
                ("--grading", "1.4", "grading", 1.4), ("--extra-panels", "3", "extra_panels", 3),
                ("--max-nodes", "3000", "max_nodes", 3000), ("--seed", "9", "seed", 9)]
    flags = [token for flag, text, _, _ in settings for token in (flag, text)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value for _, _, key, value in settings}))
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    assert run_cli(["sweep", "--query", QUERY, *flags, "--out", str(by_flag)]) == 0
    assert run_cli(["sweep", "--query", QUERY, "--config", str(config),
                    "--out", str(by_config)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()
    assert "# panels_per_side=6\n" in by_flag.read_text()


SMALL_GRID = ["--grid", "grid(10,4,1.3,4)"]
OPNORM = ["opnorm", "--kernel", "envelope(2)", "--source", "H(-0.25)",
          "--target", "H(-0.25)", *SMALL_GRID]
APPLY = ["apply", "--kernel", "envelope(2)", "--function", "gauss(1)", *SMALL_GRID]
# omega * x * y overflows, so cos gives NaN entries
COSMOD_OVERFLOW_OPNORM = ["opnorm", "--kernel", "cosmod(2,1e308)", "--source", "H(-0.5)",
                          "--target", "H(-0.5)", *SMALL_GRID]
COSMOD_OVERFLOW_CORNER = ["corner", "--kernel1", "cosmod(2,1e308)", "--kernel2", "envelope(2)",
                          "--f", "gauss(1)", "--g", "powerlaw(1.5)",
                          "--grid1", "grid(20,5,1.3,4)", "--grid2", "grid(20,5,1.3,4)"]
# R is finite, 2R is not
RADIUS_OVERFLOW_OPNORM = OPNORM[:-1] + ["grid(1e308,4,1.3,4)"]
RADIUS_OVERFLOW_NORM = ["norm", "--function", "gauss(1)", "--space", "H(-0.5)",
                        "--grid", "grid(1e308,4,1.3,4)"]
# the power of the samples, and the product of a kernel row with them, overflow
POWER_OVERFLOW_NORM = ["norm", "--function", "powerlaw(-40)", "--space", "H(-1)"]
APPLY_OVERFLOW_GAUSS = ["apply", "--kernel", "envelope(-400)", "--function", "gauss(1)",
                        "--x", "0.5"]
APPLY_OVERFLOW_INDICATOR = ["apply", "--kernel", "envelope(-100)", "--function",
                            "indicator(0,0)", "--x", "0.5"]
# every block entry is finite, but B1 B2 in the Schur complement overflows
CORNER_SCHUR_OVERFLOW = ["corner", "--kernel1", "envelope(2,1e300)", "--kernel2",
                         "envelope(2,1e300)", "--f", "gauss(1)", "--g", "powerlaw(1.5)",
                         "--grid1", "grid(20,25,1.3,4)", "--grid2", "grid(20,25,1.3,4)"]
# 2 sigma^2 overflows (1e200) or underflows to 0 (1e-300)
NORM_GAUSS_WIDE = ["norm", "--function", "gauss(1e200)", "--space", "H(-1)", *SMALL_GRID]
NORM_GAUSS_NARROW = ["norm", "--function", "gauss(1e-300)", "--space", "H(-1)", *SMALL_GRID]
CORNER_GAUSS_WIDE = ["corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)",
                     "--f", "gauss(1e200)", "--g", "powerlaw(1.5)",
                     "--grid1", "grid(20,5,1.3,4)", "--grid2", "grid(20,5,1.3,4)"]
CORNER_GAUSS_NARROW = ["corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)",
                       "--f", "gauss(1)", "--g", "gauss(1e-300)",
                       "--grid1", "grid(20,5,1.3,4)", "--grid2", "grid(20,5,1.3,4)"]


@pytest.mark.parametrize("argv, config_text, code", [
    (["oracle", "majorant", "--x", "0", "--a", "0.5", "--R", "inf"], None, 1),
    (["oracle", "majorant", "--x", "nan", "--a", "2"], None, 1),
    (["oracle", "indicator-image", "--kappa", "nan", "--x", "1"], None, 1),
    (["oracle", "powerlaw-norm", "--t", "nan", "--space", "H(-1)"], None, 1),
    (["oracle", "majorant", "--x", "0", "--a", "-400", "--R", "1e300"], None, 2),
    (APPLY + ["--x", "inf"], None, 1),
    (APPLY + ["--x", "nan"], None, 1),
    (OPNORM, '{"power_tol": NaN}', 1),
    (OPNORM, '{"power_tol": Infinity}', 1),
    (OPNORM, '{"grading": -Infinity}', 1),
    (OPNORM, '{"power_tol": 1e999}', 1),
    (OPNORM, '{"power_max_iter": 0}', 1),
    (OPNORM, '{"power_tol": -0.001}', 1),
    (["norm", "--function", "gauss(1)", "--space", "H(-0.5)", "--grid", "grid(10,4,nan,4)"],
     None, 1),
    (["norm", "--function", "gauss(1)", "--space", "H(-0.5)", "--grid", "grid(10,nan,1.3,4)"],
     None, 1),
    (["sweep", "--query", QUERY, "--grading", "nan"], None, 1),
    (["norm", "--function", "gauss(1)", "--space", "H(-1)", "--grid", "grid(10,4,1e300,4)"],
     None, 1),
    (["check", "--thm", "1", "--s1=-1e308", "--s2", "1e308", "--kappa", "1"], None, 2),
    # 2*s1 stays finite here, so only kappa - threshold overflows
    (["check", "--thm", "1", "--s1=-8e307", "--s2=-8e307", "--kappa=-1.7e308"], None, 2),
    (["apply", "--kernel", "envelope(2,nan)", "--function", "gauss(1)", *SMALL_GRID,
      "--x", "0"], None, 1),
    (["apply", "--kernel", "envelope(2,inf)", "--function", "gauss(1)", *SMALL_GRID,
      "--x", "0"], None, 1),
    # every entry is finite, the operator norm (about 1.9e308) is not
    (["opnorm", "--kernel", "envelope(2,1.7e308)", "--source", "H(-1)", "--target", "H(-1)",
      "--grid", "grid(40,10,1.3,8)"], None, 2),
    (["corner", "--kernel1", "envelope(-400)", "--kernel2", "envelope(2)", "--f", "gauss(1)",
      "--g", "powerlaw(1.5)", "--grid1", "grid(20,5,1.3,4)", "--grid2", "grid(20,5,1.3,4)"],
     None, 2),
    (["norm", "--function", "powerlaw(-400)", "--space", "H(-1)", "--grid", "grid(20,4,1.3,4)"],
     None, 2),
    (COSMOD_OVERFLOW_OPNORM, None, 2),
    (COSMOD_OVERFLOW_CORNER, None, 2),
    (RADIUS_OVERFLOW_OPNORM, None, 1),
    (RADIUS_OVERFLOW_NORM, None, 1),
    (POWER_OVERFLOW_NORM, None, 2),
    (APPLY_OVERFLOW_GAUSS, None, 2),
    (APPLY_OVERFLOW_INDICATOR, None, 2),
], ids=["majorant-R-inf", "majorant-x-nan", "indicator-kappa-nan", "powerlaw-norm-t-nan",
        "majorant-overflow", "apply-x-inf", "apply-x-nan", "config-nan", "config-infinity",
        "config-minus-infinity", "config-overflowing-literal", "config-max-iter-0",
        "config-negative-tol", "norm-grading-nan", "norm-panels-nan", "sweep-grading-nan",
        "norm-grading-overflow", "check-threshold-overflow", "check-margin-overflow",
        "kernel-c-nan", "kernel-c-inf", "opnorm-norm-overflow", "corner-kernel-overflow",
        "norm-function-overflow", "opnorm-cosmod-overflow", "corner-cosmod-overflow",
        "opnorm-radius-overflow", "norm-radius-overflow", "norm-power-overflow",
        "apply-gauss-overflow", "apply-indicator-overflow"])
def test_non_finite_input_exits_with_one_error_line(capsys, tmp_path, argv, config_text, code):
    # no NaN or Infinity reaches a report, and nothing escapes as a traceback
    if config_text is not None:
        path = tmp_path / "config.json"
        path.write_text(config_text)
        argv = argv + ["--config", str(path)]
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    prefix = "error: usage: " if code == 1 else "error: numerical: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv, code, stderr", [
    (COSMOD_OVERFLOW_OPNORM, 2, "error: numerical: non-finite operator entry at (17, 23)\n"),
    (COSMOD_OVERFLOW_CORNER, 2,
     "error: numerical: non-finite coupling block A1 entry at (20, 23)\n"),
    (RADIUS_OVERFLOW_OPNORM, 1,
     "error: usage: truncation radius 1e+308 is too large: 2R overflows\n"),
    (RADIUS_OVERFLOW_NORM, 1,
     "error: usage: truncation radius 1e+308 is too large: 2R overflows\n"),
    (POWER_OVERFLOW_NORM, 2, "error: numerical: weighted norm integrand overflowed\n"),
    (APPLY_OVERFLOW_GAUSS, 2, "error: numerical: operator application overflowed at x = 0.5\n"),
    (APPLY_OVERFLOW_INDICATOR, 2,
     "error: numerical: operator application overflowed at x = 0.5\n"),
    (CORNER_SCHUR_OVERFLOW, 2,
     "error: numerical: condition estimate inf of the corner system exceeds 1e+12\n"),
    (NORM_GAUSS_WIDE, 1, "error: usage: gauss width 1e+200 out of range: "
                         "2 sigma^2 must be a finite positive normal float\n"),
    (NORM_GAUSS_NARROW, 1, "error: usage: gauss width 1e-300 out of range: "
                           "2 sigma^2 must be a finite positive normal float\n"),
    (CORNER_GAUSS_WIDE, 1, "error: usage: gauss width 1e+200 out of range: "
                           "2 sigma^2 must be a finite positive normal float\n"),
    (CORNER_GAUSS_NARROW, 1, "error: usage: gauss width 1e-300 out of range: "
                             "2 sigma^2 must be a finite positive normal float\n"),
], ids=["opnorm-cosmod", "corner-cosmod", "opnorm-radius", "norm-radius", "norm-power",
        "apply-gauss", "apply-indicator", "corner-schur-overflow", "norm-gauss-wide",
        "norm-gauss-narrow", "corner-gauss-wide", "corner-gauss-narrow"])
def test_overflow_prints_exactly_one_error_line(argv, code, stderr):
    # outside pytest's warning filters, where a numpy RuntimeWarning would print
    env = dict(os.environ, PYTHONPATH=str(Path(opnormlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "opnormlab", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", stderr)
