#!/usr/bin/env python3
"""End-to-end Auto-FP benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the harness (perfbench/harness)
and the library sources it links into .bench_build/perfbench on first use,
runs one workload in a child process, and prints the harness's lines; the
last line of standard output is the result object (correct, attempted,
failed, metrics). Exits non-zero, without a result, when the build or the
run fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
WORKLOADS = ("search_rs_prep", "search_smac_pick", "search_tevo_parallel",
             "serve_mixed")
# The harness must exit well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources not found under %s/src" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return os.path.isfile(HARNESS)


def commit_id():
    """The git commit, or a digest of the library sources outside git."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
        out = result.stdout.split()
        if (result.returncode == 0 and len(out) == 2 and
                os.path.realpath(out[0]) == os.path.realpath(ROOT)):
            return out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed >= 0")

    started = time.monotonic()
    if not build():
        return 1
    log("perfbench: build ready in %.1f s" % (time.monotonic() - started))

    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [HARNESS, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--work-dir", work_dir, "--commit",
               commit_id()]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(result.stdout[-4000:])
        log("perfbench: harness failed with exit code %d" % result.returncode)
        return 1
    try:
        record = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last harness line is not a result object")
        return 1
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result object")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
