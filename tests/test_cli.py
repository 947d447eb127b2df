"""CLI subcommands: outputs, exit codes, provenance, determinism."""
import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import opnormlab
import opnormlab.cli
import opnormlab.sweeps
from opnormlab.cli import DEFAULT_GRID, build_parser, run_cli
from opnormlab.grids import build_grid, parse_grid
from opnormlab.operators import POWER_MAX_ITER, POWER_TOL
from opnormlab.sweeps import DEFAULT_R_SCHEDULE, MAX_NODES, GridPolicy


def library_provenance() -> dict:
    """The provenance of a report on the default grid, built here from the library's records."""
    policy = GridPolicy()
    return {"grid": DEFAULT_GRID, "r_schedule": list(DEFAULT_R_SCHEDULE),
            "panels_per_side": policy.panels_per_side, "grading": policy.grading,
            "panel_order": policy.panel_order, "extra_panels": policy.extra_panels,
            "max_nodes": MAX_NODES, "power_tol": POWER_TOL, "power_max_iter": POWER_MAX_ITER}


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
    assert payload["provenance"] == library_provenance()


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
    assert code == 0 and plain["value"] == 1.1463932882972419
    assert scaled["value"] == pytest.approx(1e300 * plain["value"], rel=1e-15)
    assert scaled["iterations"] == plain["iterations"] == 6 and scaled["certified"]


def test_opnorm_reports_its_one_grid_as_grid_nodes(capsys):
    # the README example: both spaces are sampled on one grid, named with
    # the key that norm and apply use
    code, payload = run_json(capsys, [
        "opnorm", "--kernel", "envelope(2)", "--source", "H(-1)",
        "--target", "H(-1)", "--grid", "grid(40,10,1.3,8)"])
    assert code == 0 and payload["grid_nodes"] == 160
    assert "source_nodes" not in payload and "target_nodes" not in payload


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


def test_sweep_header_echoes_the_kernel(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--query", "thm=2,s1=-0.5,s2=0,p1=3,p2=2,kappa=2",
                    "--kernel", "cosmod(2,1.5)", "--r-schedule", "10,40", "--panels", "8",
                    "--order", "6", "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("# ")]
    assert "# kernel=cosmod(2,1.5)" in header
    # the CLI's provenance follows the plan's entries, and no entry is a seed
    position = header.index("# command=sweep")
    assert header[position - 1].startswith("# gamma_growing=")
    assert not any(line.startswith("# seed=") for line in header)


@pytest.mark.parametrize("extra", [
    ["--kernel", "envelope(1.5,0)", "--r-schedule", "10,40"],  # the zero kernel
    ["--r-schedule", "1e250,4e250"],  # every kernel entry underflows to 0
], ids=["zero-kernel", "underflow"])
def test_sweep_of_zero_norms_is_inconclusive(capsys, extra):
    assert run_cli(["sweep", "--query", QUERY, *extra]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")][1:]
    assert [(row[0], row[10], row[-1]) for row in rows] == [
        ("cell", "0.0", ""), ("cell", "0.0", ""), ("summary", "", "inconclusive")]
    assert rows[-1][-2] == ""  # no gamma


def test_sweep_bad_query_exit_1(capsys):
    assert run_cli(["sweep", "--query", "s1=-0.25"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("flags, stderr", [
    (["--panels", "0"], "error: usage: panels per side must be a whole number >= 1\n"),
    (["--extra-panels", "0"],
     "error: usage: extra panels per radius must be a whole number >= 1\n"),
], ids=["panels", "extra-panels"])
def test_sweep_bad_panel_count_names_its_flag(capsys, flags, stderr):
    assert run_cli(["sweep", "--query", QUERY, *flags]) == 1
    assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("argv, stderr", [
    (["sweep", "--query", "thm=1,s1,s2=-0.25,kappa=1.5"],
     "error: usage: query field 's1' is not key=value\n"),
    (["sweep", "--query", "thm=1,family=h,s1=-0.25,s2=-0.25,kappa=1.5"],
     "error: usage: unknown query fields: ['family']\n"),
    (["sweep", "--query", "thm=1,s1=-0.25,s2=-0.25"],
     "error: usage: query 'thm=1,s1=-0.25,s2=-0.25' is missing ['kappa']\n"),
    (["corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)", "--f", "gauss(1)",
      "--g", "gauss(1)", "--grid1", "grid(10,4,1.3,4)", "--grid2", "grid(10,4,1.3,4)",
      "--s", "nan"], "error: usage: smoothness exponent must be finite\n"),
], ids=["query-part-not-key-value", "query-unknown-field", "query-missing-field",
        "corner-s-nan"])
def test_bad_input_is_named_in_its_usage_line(capsys, argv, stderr):
    assert run_cli(argv) == 1
    assert capsys.readouterr() == ("", stderr)


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
                                      "--p1", "4", "--p2", "2", "--kappa", "2"])
    assert code == 0 and payload["p1"] == 4.0
    assert run_cli(["check", "--thm", "1", "--nope", "1"]) == 1
    assert "error: usage" in capsys.readouterr().err
    code, payload = run_json(capsys, ["oracle", "majorant", "--x", "0", "--a", "2"])
    assert code == 0 and payload["kind"] == "majorant"
    # nothing carries over from the earlier calls: defaults are back
    code, payload = run_json(capsys, ["check", "--thm", "1", "--s1", "-0.25",
                                      "--s2", "-0.25", "--kappa", "1.5"])
    assert code == 0 and payload["p1"] == 2.0
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


def test_runconfig_defaults_match_library(capsys):
    # the default grid is the library's grid policy at R = 10000 with 40 panels
    grid = parse_grid(DEFAULT_GRID)
    want = build_grid(10000, 40, GridPolicy.grading, GridPolicy.panel_order)
    assert np.array_equal(grid.breakpoints, want.breakpoints)
    assert grid.panel_order == GridPolicy.panel_order
    # the provenance is the library's defaults, then the sweep's node budget and
    # the one stop rule, in this order
    _, payload = run_json(capsys, ["oracle", "majorant", "--x", "0", "--a", "2"])
    assert list(payload["provenance"].items()) == list(library_provenance().items())


def test_output_file_byte_identical(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    base = ["check", "--thm", "2", "--s1", "-0.5", "--s2", "-0.5",
            "--p1", "4", "--p2", "4", "--kappa", "1.75", "--out"]
    assert run_cli(base + [str(first)]) == 0
    assert run_cli(base + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # a negative number in any float spelling is a value, not an option name
    check = ["check", "--thm", "1", "--s2", "0", "--kappa", "2"]
    apply = ["apply", "--kernel", "envelope(2)", "--function", "gauss(1)", *SMALL_GRID]
    for argv, spaced, joined in ((check, ["--s1", "-1e-3"], ["--s1=-0.001"]),
                                 (check, ["--s1", "-.5"], ["--s1=-0.5"]),
                                 (check, ["--s1", "-2"], ["--s1=-2"]),
                                 (apply, ["--x", "-1e1"], ["--x=-10"])):
        assert run_cli(argv + spaced + ["--out", str(first)]) == 0
        assert run_cli(argv + joined + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


QUERY = "thm=1,s1=-0.25,s2=-0.25,kappa=1.5"
SMALL_GRID = ["--grid", "grid(10,4,1.3,4)"]
OPNORM = ["opnorm", "--kernel", "envelope(2)", "--source", "H(-0.25)",
          "--target", "H(-0.25)", *SMALL_GRID]


# one command line per JSON subcommand; norm, apply and opnorm take the default grid
JSON_COMMANDS = {
    "check": ["check", "--thm", "1", "--s1", "-0.25", "--s2", "-0.25", "--kappa", "1.5"],
    "norm": ["norm", "--function", "gauss(1)", "--space", "H(-1)"],
    "apply": ["apply", "--kernel", "envelope(2)", "--function", "gauss(1)", "--x", "0.5"],
    "opnorm": OPNORM[:-2],
    "corner": ["corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)",
               "--f", "gauss(1)", "--g", "powerlaw(1.5)",
               "--grid1", "grid(20,5,1.3,4)", "--grid2", "grid(20,5,1.3,4)"],
    "oracle-majorant": ["oracle", "majorant", "--x", "0", "--a", "2"],
    "oracle-powerlaw-norm": ["oracle", "powerlaw-norm", "--t", "1", "--space", "H(-1)"],
    "oracle-indicator-image": ["oracle", "indicator-image", "--kappa", "2", "--x", "1"],
}
COMMANDS = {**JSON_COMMANDS, "sweep": ["sweep", "--query", QUERY, "--r-schedule", "10,40",
                                       "--panels", "4", "--order", "4"]}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(), ids=JSON_COMMANDS.keys())
def test_every_json_report_echoes_the_default_config(tmp_path, argv):
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"] == library_provenance()


def test_runconfig_round_trip(capsys):
    # --grid changes the provenance of a report in its grid alone
    _, default = run_json(capsys, JSON_COMMANDS["check"])
    _, flagged = run_json(capsys, OPNORM)
    want = {**default["provenance"], "grid": SMALL_GRID[1]}
    assert list(flagged["provenance"].items()) == list(want.items())


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_config_option_is_a_usage_error(capsys, tmp_path, argv):
    # flags are the only way to set a run: a settings file is refused, even a valid one
    config, out = tmp_path / "config.json", tmp_path / "report"
    config.write_text(json.dumps({"power_tol": 0.5}))
    assert run_cli(argv + ["--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: usage: unrecognized arguments: --config ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--query", "thm=x,s1=-0.25,s2=-0.25,kappa=1.5"], None),
    (["sweep", "--query", "thm=1,s1=abc,s2=-0.25,kappa=1.5"], None),
    (["sweep", "--query", QUERY, "--r-schedule", "10,x"], None),
    # a --config file is refused whole, whatever it holds: flags are the only way to set a run
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"r_schedule": ["a"]}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"power_max_iter": "x"}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"power_max_iter": True}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"panels_per_side": 9.0}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"grid": 3}),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"grading": "1.3"}),
    (["norm", "--function", "gauss(1)", "--space", "H(-1)", "--grid", "grid(10,4,1.3,0)"], None),
    (["sweep", "--query", QUERY, "--order", "0"], None),
    (["sweep", "--query", QUERY, "--order", "-1"], None),
    (["sweep", "--query", "thm=1,s1=-0.25,s1=-5,s2=-0.25,kappa=1.5"], None),
    (["sweep", "--query", "family=h,s1=-0.25,s2=-0.25,kappa=1.5"], None),
    # a line break in a spec would break the one-line CSV header that echoes it
    (["sweep", "--query", QUERY, "--kernel", "envelope(1.5,\n1)", "--r-schedule", "10,40",
      "--panels", "4", "--order", "4"], None),
    (["sweep", "--query", QUERY, "--kernel", "envelope(1.5)\n"], None),
    (["sweep", "--query", QUERY, "--kernel", "envelope(1.5)\r"], None),
    (["sweep", "--query", QUERY, "--kernel", "envelope(1.5)\u2028"], None),
    (["norm", "--function", "gauss(1)", "--space", "H(-1)\n", "--grid", "grid(10,4,1.3,4)"],
     None),
    # an operator has one grid, which --grid sets
    (["opnorm", "--kernel", "envelope(2)", "--source", "H(-1)", "--target", "H(-1)",
      "--target-grid", "grid(40,8,1.3,6)"], None),
    # no report depends on a seed or a clock, so neither can be set
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2", "--seed", "1"], None),
    (["sweep", "--query", QUERY, "--r-schedule", "10,40", "--timing"], None),
    (["check", "--thm", "1", "--s1", "-1", "--s2", "-1", "--kappa", "2"], {"seed": 0}),
    # numbers past the largest float: the stop rule has no flag, a schedule refuses them
    (OPNORM, {"power_tol": 10 ** 400}),
    (["sweep", "--query", QUERY], {"r_schedule": [10, 10 ** 400]}),
    (["sweep", "--query", QUERY, "--r-schedule", "10,1e400"], None),
    (["sweep", "--query", QUERY, "--panels", "9.0"], None),
    # the node budget is a constant, so no flag sets it
    pytest.param(["sweep", "--query", QUERY, "--max-nodes", "3000"], None, id="max-nodes"),
    # the nodes and weights of the first panel would be subnormal floats
    pytest.param(["sweep", "--query", QUERY, "--r-schedule", "1e-320,1", "--panels", "4",
                  "--order", "4"], None, id="sweep-subnormal-radius"),
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
    assert config is None or "unrecognized arguments: --config" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["check", "--thm", "1", "--s1", "-0.25", "--s2", "-0.25", "--kappa", "1.5"], "--out"),
    (["corner", "--kernel1", "envelope(2)", "--kernel2", "envelope(2)", "--f", "gauss(1)",
      "--g", "powerlaw(1.5)", "--grid1", "grid(20,10,1.3,5)", "--grid2", "grid(20,10,1.3,5)"],
     "--dump-csv"),
], ids=["check-out", "corner-dump-csv"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, flag):
    path = tmp_path / "missing" / "report"
    assert run_cli(argv + [flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: usage: cannot write output file: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not path.parent.exists()


def test_out_of_memory_is_one_numerical_error_line(capsys, monkeypatch):
    # a grid too large for memory; the parser is stubbed, nothing large is allocated
    def no_memory(spec):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(opnormlab.cli, "parse_grid", no_memory)
    assert run_cli(["norm", "--function", "gauss(1)", "--space", "H(-1)",
                    "--grid", "grid(10,1e12,1,8)"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: numerical: out of memory: Unable to allocate 7.28 TiB\n"
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
    # each grid flag is named after the GridPolicy field it sets, and an unset
    # flag leaves the library's default
    settable = {f.name for f in fields(GridPolicy)} | {"r_schedule"}
    not_settings = {"help", "query", "kernel", "out"}
    subcommands, = (a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subcommands.choices["sweep"]._actions if a.dest not in not_settings]
    assert {a.dest for a in actions} == settable
    assert all(a.default is None for a in actions)
    # each flag overrides its field, which the sweep header echoes; the node
    # budget and the stop rule stay fixed
    settings = [("--panels", "6", "panels_per_side=6"), ("--order", "5", "panel_order=5"),
                ("--r-schedule", "10,40", "R_schedule=10.0:40.0"),
                ("--grading", "1.4", "grading=1.4"), ("--extra-panels", "3", "extra_panels=3")]
    flags = [token for flag, text, _ in settings for token in (flag, text)]
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--query", QUERY, *flags, "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if line.startswith("# ")]
    echoes = [echo for _, _, echo in settings] + [f"power_tol={POWER_TOL!r}",
                                                   f"power_max_iter={POWER_MAX_ITER}"]
    assert {f"# {echo}" for echo in echoes} <= set(lines)
    # the node budget stays where its field was, right after extra_panels
    assert lines[lines.index("# extra_panels=3") + 1] == f"# max_nodes={MAX_NODES}"


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
# the sum of a panel's two edges overflows too, so the radius is checked first
RADIUS_OVERFLOW_PANEL = OPNORM[:-1] + ["grid(1.7e308,4,1.3,4)"]
RADIUS_OVERFLOW_SWEEP = ["sweep", "--query", "thm=1,s1=-0.25,s2=-0.25,kappa=1.5",
                         "--r-schedule", "1e300,1.7e308"]
# the norm of the samples (about 1e321), and the product of a kernel row with them, overflow
POWER_OVERFLOW_NORM = ["norm", "--function", "powerlaw(-70)", "--space", "H(10)"]
APPLY_OVERFLOW_GAUSS = ["apply", "--kernel", "envelope(-400)", "--function", "gauss(1)",
                        "--x", "0.5"]
APPLY_OVERFLOW_INDICATOR = ["apply", "--kernel", "envelope(-100)", "--function",
                            "indicator(0,0)", "--x", "0.5"]
# the column scaling overflows at the outer nodes, where the kernel underflows to 0
GRID_OVERFLOW_OPNORM = ["opnorm", "--kernel", "envelope(2)", "--source", "H(-1)",
                        "--target", "H(-1)", "--grid", "grid(1e300,10,1.3,8)"]
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
# t is finite, p*t - w is not
POWERLAW_NORM_OVERFLOW = ["oracle", "powerlaw-norm", "--t", "1e308", "--space", "Hsp(-1,3)"]


@pytest.mark.parametrize("argv, code", [
    (["oracle", "majorant", "--x", "0", "--a", "0.5", "--R", "inf"], 1),
    (["oracle", "majorant", "--x", "nan", "--a", "2"], 1),
    (["oracle", "indicator-image", "--kappa", "nan", "--x", "1"], 1),
    (["oracle", "powerlaw-norm", "--t", "nan", "--space", "H(-1)"], 1),
    (["oracle", "majorant", "--x", "0", "--a", "-400", "--R", "1e300"], 2),
    (APPLY + ["--x", "inf"], 1),
    (APPLY + ["--x", "nan"], 1),
    (["norm", "--function", "gauss(1)", "--space", "H(-0.5)", "--grid", "grid(10,4,nan,4)"], 1),
    (["norm", "--function", "gauss(1)", "--space", "H(-0.5)", "--grid", "grid(10,nan,1.3,4)"], 1),
    (["sweep", "--query", QUERY, "--grading", "nan"], 1),
    (["norm", "--function", "gauss(1)", "--space", "H(-1)", "--grid", "grid(10,4,1e300,4)"], 1),
    (["check", "--thm", "1", "--s1=-1e308", "--s2", "1e308", "--kappa", "1"], 2),
    # 2*s1 stays finite here, so only kappa - threshold overflows
    (["check", "--thm", "1", "--s1=-8e307", "--s2=-8e307", "--kappa=-1.7e308"], 2),
    (["apply", "--kernel", "envelope(2,nan)", "--function", "gauss(1)", *SMALL_GRID,
      "--x", "0"], 1),
    (["apply", "--kernel", "envelope(2,inf)", "--function", "gauss(1)", *SMALL_GRID,
      "--x", "0"], 1),
    # every entry is finite, the operator norm (about 1.9e308) is not
    (["opnorm", "--kernel", "envelope(2,1.7e308)", "--source", "H(-1)", "--target", "H(-1)",
      "--grid", "grid(40,10,1.3,8)"], 2),
    (["corner", "--kernel1", "envelope(-400)", "--kernel2", "envelope(2)", "--f", "gauss(1)",
      "--g", "powerlaw(1.5)", "--grid1", "grid(20,5,1.3,4)", "--grid2", "grid(20,5,1.3,4)"],
     2),
    (["norm", "--function", "powerlaw(-400)", "--space", "H(-1)", "--grid", "grid(20,4,1.3,4)"],
     2),
    (COSMOD_OVERFLOW_OPNORM, 2),
    (COSMOD_OVERFLOW_CORNER, 2),
    (RADIUS_OVERFLOW_OPNORM, 1),
    (RADIUS_OVERFLOW_NORM, 1),
    (POWER_OVERFLOW_NORM, 2),
    (APPLY_OVERFLOW_GAUSS, 2),
    (APPLY_OVERFLOW_INDICATOR, 2),
    (["sweep", "--query", QUERY, "--grading=-inf"], 1),
    (POWERLAW_NORM_OVERFLOW, 2),
    (["oracle", "powerlaw-norm", "--t", "-1e308", "--space", "Hsp(-1,3)"], 2),
], ids=["majorant-R-inf", "majorant-x-nan", "indicator-kappa-nan", "powerlaw-norm-t-nan",
        "majorant-overflow", "apply-x-inf", "apply-x-nan", "norm-grading-nan",
        "norm-panels-nan", "sweep-grading-nan",
        "norm-grading-overflow", "check-threshold-overflow", "check-margin-overflow",
        "kernel-c-nan", "kernel-c-inf", "opnorm-norm-overflow", "corner-kernel-overflow",
        "norm-function-overflow", "opnorm-cosmod-overflow", "corner-cosmod-overflow",
        "opnorm-radius-overflow", "norm-radius-overflow", "norm-power-overflow",
        "apply-gauss-overflow", "apply-indicator-overflow", "sweep-grading-minus-inf",
        "powerlaw-norm-exponent-overflow", "powerlaw-norm-exponent-minus-overflow"])
def test_non_finite_input_exits_with_one_error_line(capsys, argv, code):
    # no NaN or Infinity reaches a report, and nothing escapes as a traceback
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
    (GRID_OVERFLOW_OPNORM, 2, "error: numerical: non-finite operator entry at (80, 80)\n"),
    (RADIUS_OVERFLOW_PANEL, 1,
     "error: usage: truncation radius 1.7e+308 is too large: 2R overflows\n"),
    (RADIUS_OVERFLOW_SWEEP, 1,
     "error: usage: truncation radius 1.7e+308 is too large: 2R overflows\n"),
    (POWERLAW_NORM_OVERFLOW, 2, "error: numerical: exponent p*t - w overflows for t = 1e+308\n"),
], ids=["opnorm-cosmod", "corner-cosmod", "opnorm-radius", "norm-radius", "norm-power",
        "apply-gauss", "apply-indicator", "corner-schur-overflow", "norm-gauss-wide",
        "norm-gauss-narrow", "corner-gauss-wide", "corner-gauss-narrow", "opnorm-grid-overflow",
        "opnorm-panel-overflow", "sweep-radius-overflow", "powerlaw-norm-exponent"])
def test_overflow_prints_exactly_one_error_line(argv, code, stderr):
    # outside pytest's warning filters, where a numpy RuntimeWarning would print
    env = dict(os.environ, PYTHONPATH=str(Path(opnormlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "opnormlab", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", stderr)


def _count_calls(monkeypatch, module, name: str) -> list:
    # replaces module.name by a wrapper that records each call, as a tracer does
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_sweep_builds_its_grids_through_the_sweeps_module(monkeypatch, tmp_path):
    # a tracer that wraps opnormlab.sweeps.nested_grids sees every grid a sweep builds
    calls = _count_calls(monkeypatch, opnormlab.sweeps, "nested_grids")
    assert run_cli(["sweep", "--query", QUERY, "--r-schedule", "10,40", "--panels", "4",
                    "--order", "4", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(calls) == 1 and calls[0][0] == (10.0, 40.0)


@pytest.mark.parametrize("argv", [
    OPNORM, ["norm", "--function", "gauss(1)", "--space", "H(-1)", *SMALL_GRID],
    APPLY + ["--x", "0.5"],
], ids=["opnorm", "norm", "apply"])
def test_one_grid_commands_parse_their_grid_through_the_cli_module(monkeypatch, tmp_path,
                                                                   argv):
    # a tracer that wraps opnormlab.cli.parse_grid sees the one grid of each command
    calls = _count_calls(monkeypatch, opnormlab.cli, "parse_grid")
    assert run_cli(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert calls == [("grid(10,4,1.3,4)",)]
