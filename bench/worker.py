"""One benchmark process: set up a workload, run it, report on stdout.

Started by run.py, one process per run, with the BLAS thread count already
pinned in its environment.  Protocol on stdout: the line ``ready`` as soon
as the inputs are built (run.py timestamps it for setup_s), then one JSON
line with the result.  Everything else the process prints goes to stderr.

Modes:
  setup  build the inputs and exit (extra setup_s samples);
  run    run the workload once, and again while another rep fits in --seconds;
  trace  one untraced rep, then one rep under the span tracer.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _blas_info(np) -> dict:
    """BLAS name and version from numpy's build, and its live thread count."""
    info = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _plain(value):
    """JSON fallback for numpy scalars."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_rep(workload) -> dict:
    """One rep of the workload as a record, with the process CPU time it took."""
    cpu = time.process_time()
    rep = workload.rep()
    return {
        "seconds": rep.seconds,
        "cpu_seconds": time.process_time() - cpu,
        "stages": rep.stages,
        "warnings": rep.warnings,
        "operations": [
            {"name": op.name, "seconds": op.seconds, "ok": op.ok, "error": op.error,
             "detail": op.detail}
            for op in rep.operations
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--wrong-reference", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    out = sys.stdout
    sys.stdout = sys.stderr

    import numpy as np
    import scipy

    import workloads
    from tracer import Tracer

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    ref = workloads.wrong_reference() if args.wrong_reference else workloads.REFERENCE
    workload = workloads.WORKLOADS[args.workload](args.seed, ref)
    workload.setup()
    out.write("ready\n")
    out.flush()
    if args.mode == "setup":
        return 0

    if tracer is not None:
        tracer.uninstall()
    # the first rep runs untraced in both modes; later reps can raise the
    # peak a little through heap fragmentation, so peak_rss_mb is read here
    start = time.perf_counter()
    reps = [_timed_rep(workload)]
    first_peak = _peak_rss_mb()
    trace = None
    if tracer is not None:
        tracer.phase = "run"
        tracer.install()
        reps.append(_timed_rep(workload))
        tracer.uninstall()
        counts = {k: v["count"] for k, v in reps[-1]["warnings"].items()}
        trace = {
            "metrics": tracer.metrics(reps[0]["seconds"], reps[1]["seconds"], counts),
            "spans": tracer.span_summary(),
        }
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "phase", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    else:
        # repeat while one more rep, as long as the last, still fits in --seconds
        while time.perf_counter() - start + reps[-1]["seconds"] <= args.seconds:
            reps.append(_timed_rep(workload))

    result = {
        "params": workload.params,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(np),
        },
        "peak_rss_mb": first_peak,
        "peak_rss_mb_all_reps": _peak_rss_mb(),
        "reps": reps,
        "trace": trace,
    }
    out.write(json.dumps(result, default=_plain) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
