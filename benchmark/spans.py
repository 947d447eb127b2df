"""Spans around the package's layer boundaries, for the traced run.

The wrappers are installed from here over the module attributes that the
package's own functions look up at call time (``opnormlab.sweeps.assemble``,
``opnormlab.corner.coupling_blocks``, ...), so the package itself is not
changed.  Each span holds its name, the job it belongs to, its parent span,
its start and end, and the counts read off the wrapped call's result.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict


def _grid_nodes(result, args):
    grids = result if isinstance(result, list) else [result]
    return {"nodes": sum(grid.size for grid in grids)}


def _entries(result, args):
    return {"entries": int(getattr(result, "size", 1))}


def _matrix_entries(result, args):
    return {"entries": int(result.matrix.size)}


def _norm_counts(result, args):
    matrix = args[0].matrix
    # each iteration reads the matrix for B v and B^T u, the last one only for B v
    reads = max(2 * result.iterations - 1, 0)
    return {"iterations": result.iterations, "converged": int(result.converged),
            "certified": int(result.certified),
            "bytes": reads * matrix.size * matrix.itemsize}


def _sweep_cells(result, args):
    return {"cells": len(result.cells),
            "excluded": sum(not cell.converged for cell in result.cells)}


def _condition(result, args):
    return {"condition": float(result.condition_estimate)}


def _lu_flops(result, args):
    n = args[0].shape[0]
    return {"flops": 2.0 * n ** 3 / 3.0}


# (module, attribute, span name, counter); the span name's prefix is its layer.
# kernel_eval is wrapped in every module that imports it, including those the
# listed workloads do not reach, so kernel time stays in the kernels layer
# when a caller moves between modules.
TARGETS = (
    ("opnormlab.cli", "run_cli", "cli.run_cli", None),
    ("opnormlab.cli", "parse_grid", "grids.parse_grid", _grid_nodes),
    ("opnormlab.sweeps", "nested_grids", "grids.nested_grids", _grid_nodes),
    ("opnormlab.kernels", "kernel_eval", "kernels.kernel_eval", _entries),
    ("opnormlab.operators", "kernel_eval", "kernels.kernel_eval", _entries),
    ("opnormlab.sweeps", "kernel_eval", "kernels.kernel_eval", _entries),
    ("opnormlab.corner", "kernel_eval", "kernels.kernel_eval", _entries),
    ("opnormlab.cli", "assemble", "operators.assemble", _matrix_entries),
    ("opnormlab.sweeps", "assemble", "operators.assemble", _matrix_entries),
    ("opnormlab.cli", "operator_norm_pq", "operators.norm", _norm_counts),
    ("opnormlab.sweeps", "operator_norm_pq", "operators.norm", _norm_counts),
    ("opnormlab.cli", "run_boundedness_sweep", "sweeps.run", _sweep_cells),
    ("opnormlab.sweeps", "fit_growth_exponent", "sweeps.fit", None),
    ("opnormlab.cli", "sweep_csv_text", "sweeps.csv", None),
    ("opnormlab.corner", "solve_corner", "corner.solve", _condition),
    ("opnormlab.corner", "coupling_blocks", "corner.blocks", None),
    ("opnormlab.corner", "lu_factor", "corner.lu", _lu_flops),
)
LAYERS = ("cli", "grids", "kernels", "operators", "sweeps", "corner")
JOB = "job"

# (metric, unit) in the order the traced run reports them
LAYER_METRICS = (
    ("cli.import_s", "s"), ("cli.self_s", "s/job"),
    ("grids.calls", "calls/job"), ("grids.busy_s", "s/job"),
    ("grids.nodes_built", "nodes/job"), ("grids.self_s", "s/job"),
    ("kernels.eval_calls", "calls/job"), ("kernels.eval_s", "s/job"),
    ("kernels.eval_entries", "entries/job"), ("kernels.self_s", "s/job"),
    ("operators.assemble_calls", "calls/job"), ("operators.assemble_s", "s/job"),
    ("operators.assemble_entries", "entries/job"),
    ("operators.assemble_ns_per_entry", "ns"),
    ("operators.norm_calls", "calls/job"), ("operators.norm_s", "s/job"),
    ("operators.norm_iterations", "iters/job"), ("operators.norm_ms_per_iter", "ms"),
    ("operators.norm_bytes_computed", "B/job"), ("operators.converged_frac", "ratio"),
    ("operators.certified_frac", "ratio"), ("operators.self_s", "s/job"),
    ("sweeps.cells", "cells/job"), ("sweeps.cells_excluded", "cells/job"),
    ("sweeps.fit_s", "s/job"), ("sweeps.csv_s", "s/job"), ("sweeps.self_s", "s/job"),
    ("corner.solve_calls", "calls/job"), ("corner.solve_s", "s/job"),
    ("corner.blocks_calls", "calls/job"), ("corner.blocks_s", "s/job"),
    ("corner.lu_s", "s/job"), ("corner.lu_flops_computed", "flop/job"),
    ("corner.condition_max", "1"), ("corner.self_s", "s/job"),
    ("trace.accounted_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Records nested spans while ``enabled``; wrappers pass through otherwise."""

    def __init__(self):
        # [name, job, parent index or None, start, end, counts]
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._job: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, self._job, parent, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def job(self, job: int, run, *args):
        """Run one job under a root span when enabled."""
        if not self.enabled:
            return run(*args)
        self._job = job
        span = self._open(JOB)
        try:
            return run(*args)
        finally:
            self._close(span)
            self._job = None

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[5] = counter(result, args)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target the package still defines; report the others."""
        for module_name, attribute, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                print(f"trace: {module_name}.{attribute} not found, not traced",
                      file=sys.stderr)
                continue
            self._restore.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list], import_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run, additive ones per traced job.

    Self time is a span's duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.  The root job
    spans hold the time spent outside every layer, so ``trace.accounted_frac``
    is the share of job time that the layers' self times cover.
    """
    child_time = defaultdict(float)
    for name, job, parent, start, end, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    counts_sum = defaultdict(float)
    condition_max = 0.0
    jobs = 0
    for index, (name, job, parent, start, end, counts) in enumerate(spans):
        duration = end - start
        busy[name] += duration
        calls[name] += 1
        self_time[name.split(".")[0]] += duration - child_time[index]
        jobs += name == JOB
        for key, value in (counts or {}).items():
            if key == "condition":
                condition_max = max(condition_max, value)
            else:
                counts_sum[f"{name}.{key}"] += value
    per_job = functools.partial(_ratio, denominator=jobs)
    job_time = busy[JOB]
    values = {
        "cli.import_s": import_s,
        "grids.calls": per_job(calls["grids.parse_grid"] + calls["grids.nested_grids"]),
        "grids.busy_s": per_job(busy["grids.parse_grid"] + busy["grids.nested_grids"]),
        "grids.nodes_built": per_job(counts_sum["grids.parse_grid.nodes"]
                                     + counts_sum["grids.nested_grids.nodes"]),
        "kernels.eval_calls": per_job(calls["kernels.kernel_eval"]),
        "kernels.eval_s": per_job(busy["kernels.kernel_eval"]),
        "kernels.eval_entries": per_job(counts_sum["kernels.kernel_eval.entries"]),
        "operators.assemble_calls": per_job(calls["operators.assemble"]),
        "operators.assemble_s": per_job(busy["operators.assemble"]),
        "operators.assemble_entries": per_job(counts_sum["operators.assemble.entries"]),
        "operators.assemble_ns_per_entry": 1e9 * _ratio(
            busy["operators.assemble"], counts_sum["operators.assemble.entries"]),
        "operators.norm_calls": per_job(calls["operators.norm"]),
        "operators.norm_s": per_job(busy["operators.norm"]),
        "operators.norm_iterations": per_job(counts_sum["operators.norm.iterations"]),
        "operators.norm_ms_per_iter": 1e3 * _ratio(
            busy["operators.norm"], counts_sum["operators.norm.iterations"]),
        "operators.norm_bytes_computed": per_job(counts_sum["operators.norm.bytes"]),
        "operators.converged_frac": _ratio(counts_sum["operators.norm.converged"],
                                           calls["operators.norm"]),
        "operators.certified_frac": _ratio(counts_sum["operators.norm.certified"],
                                           calls["operators.norm"]),
        "sweeps.cells": per_job(counts_sum["sweeps.run.cells"]),
        "sweeps.cells_excluded": per_job(counts_sum["sweeps.run.excluded"]),
        "sweeps.fit_s": per_job(busy["sweeps.fit"]),
        "sweeps.csv_s": per_job(busy["sweeps.csv"]),
        "corner.solve_calls": per_job(calls["corner.solve"]),
        "corner.solve_s": per_job(busy["corner.solve"]),
        "corner.blocks_calls": per_job(calls["corner.blocks"]),
        "corner.blocks_s": per_job(busy["corner.blocks"]),
        "corner.lu_s": per_job(busy["corner.lu"]),
        "corner.lu_flops_computed": per_job(counts_sum["corner.lu.flops"]),
        "corner.condition_max": condition_max,
        "trace.accounted_frac": _ratio(job_time - self_time[JOB], job_time),
        "trace.overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = per_job(self_time[layer])
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def overhead(latencies: list[tuple[int, bool, float]]) -> float:
    """Traced against untraced job time, as a fraction, matched per pool entry.

    ``latencies`` holds (pool index, traced, seconds).  For each pool entry
    run both ways, take the ratio of its mean traced to its mean untraced
    time; report the median ratio minus one.
    """
    groups = defaultdict(lambda: ([], []))
    for index, traced, seconds in latencies:
        groups[index][0 if traced else 1].append(seconds)
    ratios = [statistics.fmean(on) / statistics.fmean(off)
              for on, off in groups.values() if on and off]
    return statistics.median(ratios) - 1.0 if ratios else 0.0
