#!/usr/bin/env python3
"""Report-path benchmark: builds perfbench from the repository's sources and
runs one workload.

    python3 perfbench/run.py --workload steady_serve --seed 1 --seconds 10 \\
        --trace 0

Workloads: steady_serve, feedback_serve, steady_cluster, churn_serve (see
perfbench/README.md). With --trace 0 the result carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics. Every line
before the last is the run's full report; the last line of stdout is the
result document. --tiny runs a seconds-long configuration for the
self-test (perfbench/selftest.py).

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root); scratch files of a run live there too and are
removed when it ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_serve", "feedback_serve", "steady_cluster", "churn_serve")
# A run takes under a minute; an up-to-date build check about a second.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then rebuilds incrementally; build output goes to
    stderr so stdout carries only the run's report."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no project sources under {ROOT}; nothing to build", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 2)
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}", 2)
    return binary


def check_result(line, trace):
    """The result document must carry exactly the metrics BENCHMARK.json
    lists for this kind of run, each with its unit."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys: {sorted(result)}")
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(wanted) & set(got)
                       if wanted[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test configuration (small and fast)")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    out = build_dir()
    binary = build(out)

    work = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--trace-file",
               str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        fail(f"run failed with exit code {done.returncode}", done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
