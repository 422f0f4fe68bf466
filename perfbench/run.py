#!/usr/bin/env python3
"""Builds and runs the service-traffic benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cached-batch --seed 1 --seconds 25

It configures perfbench/ (which compiles ../src) into .bench_build/ once,
rebuilds incrementally on every call, then runs the benchmark binary. The
binary's output is passed through; its last line is one JSON object with
the keys correct, attempted, failed and metrics. Spans of traced runs
(--trace 1) are written under .bench_out/. The exit code is non-zero when
the build fails, the run fails or times out, or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRACE_DIR = ".bench_out"
TARGET = "lrm_traffic_bench"
WORKLOADS = ("cached-batch", "novel-batch", "single-query")
# One run must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_build_step(cmd, timeout):
    # Build chatter goes to stderr so stdout ends with the result line.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources at %s/src" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for attempt in range(2):
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            if not run_build_step(configure, BUILD_TIMEOUT_S):
                return False
        if run_build_step(["cmake", "--build", BUILD_DIR, "--target", TARGET,
                           "-j", jobs], BUILD_TIMEOUT_S):
            return True
        if attempt == 0:
            # A cache from another checkout path cannot be reused.
            log("run.py: build failed; reconfiguring from scratch")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        if not build():
            return 2
    except subprocess.TimeoutExpired:
        log("run.py: build timed out")
        return 2

    binary = os.path.join(BUILD_DIR, TARGET)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark run timed out")
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(proc.stdout)
        log("run.py: benchmark exited with %d and printed no result" %
            proc.returncode)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or result["correct"] is not True:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
