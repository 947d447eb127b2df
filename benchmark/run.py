"""Closed-loop benchmark of opnormlab, one workload per invocation.

    python3 benchmark/run.py --workload sweep-saturation --seed 0 --seconds 55 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Every job of a workload runs in one fresh child interpreter with
BLAS pinned to one thread.  The set-up time is the median of that child's
cold start and of the cold starts it times during its loop.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run, whose spans are written to
``.bench_out/``.  The report lists every metric with its unit and sample
count; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
TAIL_BEYOND = 10   # the tail is the highest percentile with this many jobs beyond it
RUN_LIMIT_S = 170  # the whole run, every child included
OUT_DIR = Path(".bench_out")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class ChildFailed(RuntimeError):
    pass


def _spawn(args, deadline: float) -> tuple[float, subprocess.Popen]:
    """Start the worker; return the seconds it took to print ``ready``."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_child_env())
    line = child.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        _finish(child, deadline)
        raise ChildFailed(f"worker exited with code {child.returncode} before set-up ended")
    return setup_s, child


def _finish(child: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = child.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise ChildFailed("worker ran past the run's time limit") from None
    if child.returncode != 0:
        raise ChildFailed(f"worker exited with code {child.returncode}")
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], max(100.0 * (1.0 - TAIL_BEYOND / len(ordered)), 0.0)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    latencies = result["latencies_ms"]
    n, failed = len(latencies), result["failed"]
    tail_ms, percentile = tail(latencies)
    metrics = {
        "jobs_per_s": _metric((n - failed) / result["elapsed_s"], "1/s"),
        "job_p50_ms": _metric(statistics.median(latencies), "ms"),
        "job_tail_ms": _metric(tail_ms, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    notes = {
        "jobs_per_s": f"{n - failed} passing jobs in {result['elapsed_s']:.2f} s",
        "job_p50_ms": f"median of {n} jobs",
        "job_tail_ms": f"p{percentile:.1f}, {TAIL_BEYOND} of {n} jobs beyond it",
        "setup_s": f"median of {len(setups)} cold starts",
        "peak_rss_mb": "maximum RSS of the worker process during the loop",
    }
    lines = [f"  {name:<34} {m['value']:>14.6g} {m['unit']:<12} {notes[name]}"
             for name, m in metrics.items()]
    # fail_frac is 0 on a healthy run, so it is reported here and through
    # the attempted/failed counts rather than as a metric with a bound
    lines.append(f"  {'fail_frac':<34} {failed / n:>14.6g} {'ratio':<12} "
                 f"{failed} of {n} jobs failed their check or raised")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/opnormlab/__init__.py").is_file():
        print("error: run from the root of an opnormlab checkout (src/opnormlab is missing)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_s, child = _spawn(args, deadline)
        lines = _finish(child, deadline).splitlines()
        if not lines:
            raise ChildFailed("worker printed no result")
        result = json.loads(lines[-1])
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = result["provenance"]
    print(f"opnormlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{key}={prov[key]}" for key in (
        "nproc", "blas_threads", "omp_threads", "python", "numpy", "scipy", "openblas")))
    print(f"jobs: attempted={result['attempted']} failed={result['failed']}")
    if args.trace:
        metrics = result["layers"]
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "provenance": prov, "metrics": metrics,
            "span_fields": ["name", "job", "parent", "start", "end", "counts"],
            "spans": result["spans"]}))
        print(f"spans: {len(result['spans'])} written to {path}")
    else:
        metrics, lines = end_to_end(result, [setup_s, *result["setups_s"]])
        print("\n".join(lines))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
