#!/usr/bin/env python3
"""Builds the cellrel benchmark from this checkout and runs one workload.

    python3 cellbench/run.py --workload paper_campaign|mobile_fleet|analysis_replay \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The first run configures and compiles
the cellrel libraries and the cellbench binary into .bench_build/cellbench
(Release); later runs only rebuild what changed. The binary's output is
passed through unchanged: every metric with its unit, then one JSON line
{"correct", "attempted", "failed", "metrics"}. The exit code is the
binary's: 0 only when no operation failed. Spans (--trace 1) and a result
file with provenance land in .bench_out/. README.md explains the workloads
and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cellbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "cellbench")
WORKLOADS = ("paper_campaign", "mobile_fleet", "analysis_replay")
DEFAULT_SEED = 20200101
# One run measures for --seconds and then does a bounded amount of
# follow-up work; anything slower than this has hung.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configures once, then builds incrementally. Returns an error text or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cellbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                return f"{' '.join(cmd)}: {e}"
            if rc != 0:
                return f"{' '.join(cmd)} exited {rc}; see {log_path}"
    return None


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"cellbench: no cellrel source tree under {ROOT}; run from a checkout root",
              file=sys.stderr)
        return 2
    error = build()
    if error:
        print(f"cellbench: build failed: {error}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git", git_describe()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"cellbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode == 0 and not (isinstance(result, dict) and result.get("correct")):
        print("cellbench: the run printed no valid result line", file=sys.stderr)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
