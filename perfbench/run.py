#!/usr/bin/env python3
"""Build and run the TOSS repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the TOSS sources from src/ plus the toss_perfbench binary) as a
Release build under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. The binary's output is passed through, and its last line, a
JSON object with the keys correct/attempted/failed/metrics, is checked
against the metric names and units in BENCHMARK.json before the script
exits 0. Any build failure, run failure or mismatch exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build(build_dir):
    source = os.path.join(ROOT, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "toss_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "toss_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: result keys are " + ", ".join(sorted(result)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {missing}, extra {extra}, wrong unit {wrong}")
    if result["attempted"] < 1:
        sys.exit("perfbench: nothing was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.exit(f"perfbench: no valid result (toss_perfbench exited with "
                 f"{run.returncode}): {e}")
    print(lines[-1], flush=True)
    if run.returncode != 0 or not result["correct"]:
        sys.exit("perfbench: the correctness gate failed")


if __name__ == "__main__":
    main()
