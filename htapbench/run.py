#!/usr/bin/env python3
"""Builds the HTAP benchmark driver from source and runs one workload.

    python3 htapbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The driver and the engine library of the
repository's own CMake build are compiled into .bench_build/htapbench
(incremental after the first run), the driver is run once, and its
metrics are filtered to the set BENCHMARK.json declares for the mode:
every end_to_end metric with --trace 0, every per_layer metric with
--trace 1. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any build failure, bad argument, wrong result or missing metric exits
non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "htapbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "htap_bench")
WORKLOADS = ("olap_frozen", "olap_evicted", "htap_mixed")
BUILD_TIMEOUT_S = 850
# The driver's run time is a fixed part (three rounds of setup and warm-up)
# plus a multiple of --seconds: a traced htap_mixed run, the longest, streams
# OLTP for four times --seconds (at least 30 s). 170 s at --seconds 10.
RUN_TIMEOUT_FIXED_S = 90
RUN_TIMEOUT_PER_S = 8


def run_timeout(seconds):
    return RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_S * seconds


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()  # unknown flags exit with code 2
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= a.seconds <= 600:
        p.error("--seconds must be in 1..600")
    return a


def run(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit(f"run.py: build step failed: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: the repository's CMakeLists.txt is not next to "
                 "htapbench/")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    a = parse_args()
    build()
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", OUT_DIR]
    timeout = run_timeout(a.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: driver did not finish within {timeout} s")
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)  # the failed run's result
        sys.exit(f"run.py: driver exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    names = declared_metrics(a.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"run.py: driver did not report {', '.join(missing)}")
    result["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
