"""One workload in one fresh interpreter: set up, run the timed loop, check.

Started by run.py, which times this process from spawn to the ``ready``
line (set-up) and reads the one JSON line printed at the end.

    python3 benchmark/worker.py --workload NAME --seed N --setup-only
    python3 benchmark/worker.py --workload NAME --seed N --seconds S --trace 0|1

The loop is closed with one client: a job starts when the previous one has
returned.  Outputs are kept and checked only after the loop.  With
``--trace 1`` jobs alternate between traced and untraced, so the tracing
overhead is measured on the same inputs at the same time.

Between jobs, at even intervals of the loop, the worker starts set-up-only
copies of itself and times each cold start; the loop clock stops meanwhile.
Spreading the cold starts over the run keeps a slow or fast phase of the
machine from setting all of them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

COLD_STARTS = 6  # set-up-only children per run, spread over the loop


def _provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": openblas,
    }


def _cold_start(args) -> float:
    """Seconds from spawning a set-up-only worker to its ``ready`` line."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        setup_s = time.perf_counter() - started
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit(f"set-up-only worker exited with code {child.returncode}")
    return setup_s


def _traced(job: int, pool: int) -> bool:
    # alternates job by job, and each pool entry flips from cycle to cycle
    return (job // pool + job % pool) % 2 == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import opnormlab.cli  # noqa: F401  (timed on its own: cli.import_s)
    import_s = time.perf_counter() - started
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    pool = len(workload.jobs)
    records = []  # (pool index, traced, seconds, output)
    cold_at = [args.seconds * (k + 0.5) / COLD_STARTS for k in range(COLD_STARTS)]
    setups = []
    paused = 0.0
    job = 0
    loop_start = time.perf_counter()
    while True:
        while cold_at and time.perf_counter() - loop_start - paused >= cold_at[0]:
            cold_at.pop(0)
            begin = time.perf_counter()
            setups.append(_cold_start(args))
            paused += time.perf_counter() - begin
        index = job % pool
        tracer.enabled = bool(args.trace) and _traced(job, pool)
        begin = time.perf_counter()
        try:
            output = tracer.job(job, workload.run, index)
        except Exception as exc:  # a raising job counts as failed, not retried
            output = exc
        end = time.perf_counter()
        records.append((index, tracer.enabled, end - begin, output))
        job += 1
        if end - loop_start - paused >= args.seconds:
            break
    elapsed = end - loop_start - paused
    tracer.enabled = False
    setups += [_cold_start(args) for _ in cold_at]  # when one job outlasted the rest
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB -> MB

    failures = []
    for number, (index, traced, seconds, output) in enumerate(records):
        if isinstance(output, Exception):
            message = f"raised {type(output).__name__}: {output}"
        else:
            try:
                message = workload.failure(index, output)
            except Exception as exc:  # output the check cannot even read
                message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append(f"job {number} (pool entry {index}): {message}")
    for message in failures[:5]:
        print(f"check failed: {message}", file=sys.stderr)

    result = {
        "attempted": len(records), "failed": len(failures),
        "elapsed_s": elapsed, "peak_rss_mb": peak_rss_mb, "setups_s": setups,
        "latencies_ms": [1e3 * seconds for _, _, seconds, _ in records],
        "provenance": _provenance(args.workload, args.seed),
    }
    if args.trace:
        tracer.uninstall()
        overhead = spans.overhead([(i, t, s) for i, t, s, _ in records])
        result["layers"] = spans.layer_metrics(tracer.spans, import_s, overhead)
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
