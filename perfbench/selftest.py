#!/usr/bin/env python3
"""Self-test of the report-path benchmark.

    python3 perfbench/selftest.py

Runs every workload in its tiny configuration (--tiny, one second), traced
and untraced, through perfbench/run.py, and checks that each run passes its
output check and prints exactly the metrics BENCHMARK.json lists, with their
units. Then checks that run.py refuses to produce a result in a directory
that holds only BENCHMARK.json and perfbench/. Takes about a minute after
the first build.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_serve", "feedback_serve", "steady_cluster", "churn_serve")


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def check_run(workload, trace, spec):
    done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-400:]}"]
    result = json.loads(done.stdout.strip().split("\n")[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: output check did not pass")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: attempted {result.get('attempted')}, "
                        f"failed {result.get('failed')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{label}: missing {metric['name']}")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got.get('unit')}"
                            f" instead of {metric['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {metric['name']} has no number")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    return problems


def check_bare_checkout():
    """Without the project's sources the benchmark must fail, quickly and
    without a result line."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target) if Path(target).is_absolute() else ROOT / target
    bare = base / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, "--workload", "steady_serve", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["bare checkout: expected a non-zero exit and no output"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
            print(f"checked {workload} trace={trace}", flush=True)
    problems += check_bare_checkout()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
