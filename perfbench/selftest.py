#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark command (under a minute after
the build). From the repository root:

    python3 perfbench/selftest.py

For every workload, with --trace 0 and --trace 1, it runs perfbench/run.py
on a 3000x366 matrix and checks that the last stdout line carries exactly
the BENCHMARK.json metrics with their units, a finite value each (positive
for end-to-end metrics), and 0 failed responses. It then checks that the
command fails without printing a result in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            label = f"{workload} trace={trace}"
            done = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                        "--trace", str(trace), "--scale", "tiny"], root)
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("failed") != 0 or result.get("correct") is not True:
                problems.append(f"{label}: {result.get('failed')} failed responses")
            if not result.get("attempted", 0) >= 1:
                problems.append(f"{label}: nothing attempted")
            metrics = result.get("metrics", {})
            if sorted(metrics) != sorted(m["name"] for m in wanted):
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got.get('unit')}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {m['name']} value {value}")
                elif not trace and value <= 0:
                    problems.append(f"{label}: end-to-end {m['name']} is {value}")
            print(f"ok  {label}: {result.get('attempted')} attempted", flush=True)

    # Without the sources next to it the command must fail, printing nothing.
    bare = os.path.join(root, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("bare directory: expected a non-zero exit and no output")
    else:
        print("ok  bare directory fails without a result", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
