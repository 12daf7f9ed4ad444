#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload resolve_batch --seed 1 --seconds 15 --trace 0

Workloads: resolve_batch, serve_online, collective_stream (see README.md).
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the checkout); checkpoints written during set-up go to a per-run
directory beside it and are removed afterwards. The last line on stdout is the
run's JSON result; the exit code is non-zero when the build fails, a
correctness check fails, or a counter the metrics need is missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resolve_batch", "serve_online", "collective_stream")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found beside perfbench/; nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_e2e"],
    ]
    for step in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 2

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    process = subprocess.Popen(command)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        code = 124
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
