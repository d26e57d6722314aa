"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Checks, in order:
  1. run.py knows every workload of BENCHMARK.json, and the metric names
     and units it prints match BENCHMARK.json;
  2. a normal run (--trace 0) and a traced run (--trace 1) of edge_channel
     print exactly those metrics, with zero failed operations;
  3. on every workload, a run with every reference deliberately wrong exits
     0 and reports each operation as failed, not as a crash or a pass;
  4. in a directory holding only BENCHMARK.json and the benchmark's files
     (no library sources), the benchmark exits non-zero and prints no result.
Exits 0 when all pass.  Each run does a single rep; the whole check takes
about three minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root: str, workload: str, trace: int, *extra: str):
    """Run the benchmark command of BENCHMARK.json in ``root``, one rep."""
    cmd = _spec()["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def _expect(cond: bool, what: str, problems: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def _metrics_match(summary: dict, wanted: list) -> bool:
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    return got == {m["name"]: m["unit"] for m in wanted} and all(
        isinstance(v["value"], (int, float)) for v in summary["metrics"].values()
    )


def _summary(last: str):
    try:
        return json.loads(last)
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = _spec()
    problems: list = []

    _expect(
        {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
        "every BENCHMARK.json workload is one run.py knows", problems,
    )
    _expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
        "end-to-end names and units match BENCHMARK.json", problems,
    )
    _expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
        "per-layer names and units match BENCHMARK.json", problems,
    )

    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, last = _run(ROOT, "edge_channel", trace)
        summary = _summary(last)
        _expect(
            code == 0 and summary is not None
            and set(summary) == {"correct", "attempted", "failed", "metrics"},
            f"--trace {trace} run exits 0 and prints a result", problems,
        )
        if summary is not None:
            _expect(
                summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1,
                f"--trace {trace} run passes every operation", problems,
            )
            _expect(_metrics_match(summary, wanted),
                    f"--trace {trace} prints exactly the BENCHMARK.json metrics", problems)

    for workload in run.WORKLOADS:
        code, last = _run(ROOT, workload, 0, "--wrong-reference")
        summary = _summary(last)
        _expect(
            code == 0 and summary is not None and summary["correct"] is False
            and summary["attempted"] >= 1 and summary["failed"] == summary["attempted"],
            f"{workload}: a wrong reference shows up as failed operations", problems,
        )

    bare = os.path.join(ROOT, ".bench_runs", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        code, last = _run(bare, "edge_channel", 0)
        _expect(code != 0 and not last.startswith("{"),
                "without the library the benchmark fails and prints no result", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-check " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
