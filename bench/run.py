"""Benchmark of the edge-spectrum pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  edge_channel     one base-channel strip solve plus the ladder comparison;
  quasimode_study  residual exponents of orders 0/1/2 at mu = 0 and mu = 0.3;
  bulk_sweep       essential edges at 24 zeta for a scalar and a magnetic wall.
BENCHMARK.json lists the first two.  bulk_sweep runs on request only: its
one ~20 s rep per run spread by 0.27 (quartile distance over median, ten
seeds) on a shared two-core host, and two reps per run do not fit the
time budget of three workloads; its layers (bloch, ribbon.bulk_edges) are
traced on edge_channel as well.

Each run starts a worker process (worker.py) with BLAS pinned to one thread
(at most nproc; OpenBLAS threads spin, and on a shared two-core machine a
second thread doubled the run-to-run spread).  With ``--trace 0`` the worker
runs the workload once, and again while another rep fits in ``--seconds``,
and the last line printed holds the end-to-end metrics:
  wall_s       median over reps of inputs-ready to checked result;
  setup_s      median over SETUP_SAMPLES processes of process start to
               inputs ready (imports, fields, basis, cone certificate);
  peak_rss_mb  peak resident memory of the worker process over its setup
               and first rep.
With ``--trace 1`` the worker runs the workload once untraced and once under
the span tracer (tracer.py), and the last line holds the per-layer metrics.

Every operation is checked against a reference; an exception or a failed
check counts as a failed operation.  Each run also writes its full record
(parameters, versions, thread counts, per-operation times, solver
diagnostics, warnings, spans) to .bench_runs/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402  (stdlib only)

WORKLOADS = ("edge_channel", "quasimode_study", "bulk_sweep")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 5  # the main worker's own setup plus four setup-only processes
TIME_LIMIT = 170.0  # seconds for the whole run, workers included
BLAS_THREADS = 1


class WorkerFailed(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker(args, mode: str, deadline: float, threads: int, spans_out=None):
    """Run one worker; return (seconds to its ``ready`` line, its JSON result)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
    if code != 0 or ready.strip() != "ready":
        raise WorkerFailed(f"worker ({mode}) exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return setup, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--wrong-reference", action="store_true",
        help="shift every reference so that each operation must fail (self-check)",
    )
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    deadline = time.perf_counter() + TIME_LIMIT
    threads = min(BLAS_THREADS, _nproc())
    records = os.path.join(ROOT, ".bench_runs")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(
        records, f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    )
    # setup-only samples are split around the main worker, so that they see
    # the host at the start and at the end of the run
    probes = 0 if args.trace else SETUP_SAMPLES - 1

    def probe() -> float:
        return _worker(args, "setup", deadline, threads)[0]

    try:
        setups = [probe() for _ in range(probes // 2)]
        setup, result = _worker(
            args, "trace" if args.trace else "run", deadline, threads,
            spans_out=stem + "-spans.json" if args.trace else None,
        )
        setups.append(setup)
        setups += [probe() for _ in range(probes - probes // 2)]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for rep in result["reps"] for op in rep["operations"]]
    failed = sum(1 for op in ops if not op["ok"])
    if args.trace:
        values = result["trace"]["metrics"]
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(rep["seconds"] for rep in result["reps"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    summary = {
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wrong_reference": args.wrong_reference,
        "nproc": _nproc(),
        "blas_threads_pinned": threads,
        "setup_samples_s": setups,
        **result,
        "summary": summary,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for op in ops:
        if not op["ok"]:
            print(f"failed operation {op['name']}: {op['error']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
