"""Smoke tests of the benchmark: every workload at tiny sizes, the checks,
the traced run, and the result line of the run script.

    PYTHONPATH=src python -m pytest benchmark/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import opnormlab.cli  # noqa: E402,F401  (before workloads, as in the worker)
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _tiny(name, seed=3):
    return workloads.WORKLOADS[name](seed, tiny=True)


@pytest.mark.parametrize("name", NAMES)
def test_every_tiny_job_passes_its_check_twice(name):
    workload = _tiny(name)
    for _ in range(2):
        for index in range(len(workload.jobs)):
            assert workload.failure(index, workload.run(index)) is None


@pytest.mark.parametrize("name", NAMES)
def test_seed_selects_the_inputs(name):
    def inputs(seed):
        jobs = _tiny(name, seed).jobs
        if name == "corner-solve":
            return [(job.kernel_1.kappa, job.f_data.values.tolist()) for job in jobs]
        return jobs
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_sweep_check_rejects_a_decreasing_norm():
    workload = _tiny("sweep-saturation")
    code, text = workload.run(0)
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("cell,"))
    fields = lines[row].split(",")
    fields[10] = repr(float(fields[10]) * 10.0)  # the first cell's norm
    lines[row] = ",".join(fields)
    assert "decrease" in workload.failure(0, (code, "\n".join(lines)))
    assert workload.failure(0, (2, text)) == "exit code 2"


def test_opnorm_check_rejects_a_value_outside_the_bracket():
    workload = _tiny("opnorm-dense")
    code, text = workload.run(4)
    report = json.loads(text)
    lower, upper = workload.bracket(4)
    assert lower <= report["value"] <= upper
    report["value"] = upper * 1.01
    assert "outside the bracket" in workload.failure(4, (code, json.dumps(report)))


def test_corner_check_rejects_a_perturbed_solution():
    workload = _tiny("corner-solve")
    solution = workload.run(1)
    values = solution.c.values * (1.0 + 1e-6)
    wrong = type(solution)(c=type(solution.c)(solution.c.grid, values), d=solution.d,
                           residual_1=solution.residual_1, residual_2=solution.residual_2,
                           condition_estimate=solution.condition_estimate)
    assert "missed" in workload.failure(1, wrong)


@pytest.mark.parametrize("name", NAMES)
def test_traced_jobs_report_every_layer_metric(name):
    workload = _tiny(name)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for index in range(len(workload.jobs)):
            tracer.job(index, workload.run, index)
    finally:
        tracer.uninstall()
    assert not hasattr(opnormlab.sweeps.assemble, "__wrapped__")
    metrics = spans.layer_metrics(tracer.spans, import_s=0.25, overhead_frac=0.0)
    assert list(metrics) == [name for name, _ in spans.LAYER_METRICS]
    layers_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    job_time = np.mean([end - start for name_, _, _, start, end, _ in tracer.spans
                        if name_ == spans.JOB])
    assert layers_self == pytest.approx(job_time * metrics["trace.accounted_frac"]["value"])
    assert metrics["trace.accounted_frac"]["value"] > 0.9
    if name == "corner-solve":
        assert metrics["corner.solve_calls"]["value"] == 1
        assert metrics["corner.blocks_calls"]["value"] == 2
    else:
        assert metrics["operators.assemble_calls"]["value"] >= 1
        assert metrics["operators.converged_frac"]["value"] == 1


def test_overhead_matches_pool_entries():
    latencies = [(0, True, 1.2), (0, False, 1.0), (1, True, 2.2), (1, False, 2.0), (2, True, 9.0)]
    assert spans.overhead(latencies) == pytest.approx(0.15)


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert run.tail([float(v) for v in range(100)]) == (89.0, 90.0)


def _checkout_copy(tmp_path, with_package):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_package:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "corner-solve",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_fails_without_the_package(tmp_path):
    done = _run(_checkout_copy(tmp_path, with_package=False), trace=0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_the_result_line(tmp_path, trace):
    done = _run(_checkout_copy(tmp_path, with_package=True), trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert (tmp_path / ".bench_out").is_dir() == bool(trace)
