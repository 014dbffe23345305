#!/usr/bin/env python3
"""The benchmark's own test: counts repeat exactly at a fixed seed.

Runs every workload's traced window twice at the default seed of
benchmark_meta.json and asserts that every count the traced pass prints
(engine counters, ref_eval routes, WAL append bytes, store size, rows
per query family) and every per-layer metric with unit `count` is the
same in both runs, and that both runs were correct.

    python3 pathbench/test_determinism.py [--seconds 10]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("FAIL %s: exit %d" % (workload, done.returncode))
    result = json.loads(lines[-1])
    counts = {line.split()[1]: line.split()[2]
              for line in lines if line.startswith("count ")}
    for name, metric in result["metrics"].items():
        if metric["unit"] == "count":
            counts[name] = metric["value"]
    return result, counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(HERE, "benchmark_meta.json")) as meta_file:
        meta = json.load(meta_file)
    failures = 0
    for workload in meta["workloads"]:
        first, a = traced_run(workload, meta["default_seed"], args.seconds)
        second, b = traced_run(workload, meta["default_seed"], args.seconds)
        if not (first["correct"] and second["correct"]):
            print("FAIL %s: a traced run was not correct" % workload)
            failures += 1
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        for name in diff:
            print("FAIL %s: %s %s != %s" % (workload, name, a.get(name),
                                            b.get(name)))
        failures += len(diff)
        print("%s %s: %d counts compared" %
              ("FAIL" if diff else "ok", workload, len(a)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
