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
