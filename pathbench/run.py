#!/usr/bin/env python3
"""End-to-end PathLog benchmark.

Builds the pathbench program and the PathLog library from source (a
Release build under $CARGO_TARGET_DIR, default .bench_build), then runs
one workload and relays its output. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 pathbench/run.py --workload company-query --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. The exit status is 0 only when every answer the
benchmark checked was right; build failures exit 2 without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "benchmark_meta.json")) as meta_file:
    META = json.load(meta_file)
WORKLOADS = tuple(META["workloads"])


def build(build_root):
    """Configures and builds pathbench; returns the binary's path."""
    build_type = META["build_type"]
    build_dir = os.path.join(build_root, "pathbench-" + build_type.lower())
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + build_type] + generator,
        ["cmake", "--build", build_dir, "--target", "pathbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "pathbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("pathbench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(build_root, "pathbench-work-%d" % os.getpid())
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            timeout=170)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
