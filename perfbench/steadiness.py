#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark. From the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 101 [--workloads disk_point]

Runs perfbench/run.py --runs times per workload, each with another seed
and BENCHMARK.json's run_seconds, and prints per metric the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median against the metric's bound. Also reports the
diagnostic candidates (p99 tails) the same way. Raw results go to
.bench_build/steadiness-<first-seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-500:]}")
                return 1
            result = json.loads(lines[-1])
            extra = json.loads(lines[-2])
            runs.append({"seed": seed, "result": result, "diagnostics": extra["diagnostics"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        raw[workload] = runs
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<22}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
                  f"{s['spread']:>9.3f}{bound:>7.2f}{flag}")
        diag_names = sorted(k for k in runs[0]["diagnostics"] if k.endswith("_p99_us"))
        for name in diag_names:
            s = summarize([r["diagnostics"][name] for r in runs])
            print(f"  {name + ' (diag)':<22}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.3f}")
    out = os.path.join(".bench_build", f"steadiness-{args.first_seed}.json")
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
