#!/usr/bin/env python3
"""Compares two sets of perfbench runs, parent against change.

    python3 bench/perfbench_diff.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds perfbench results: the records run.py keeps in
.bench_build/results/<workload>-seed<seed>-trace<t>.json, or saved
stdout, or files of JSON lines. Every JSON object with a "metrics" map
is one run. Its workload is its "workload" field, else the workload
name the file name starts with. Runs pair up by seed when both sides
carry seeds, else in file order.

For every workload and every end_to_end metric of BENCHMARK.json it
prints each side's median and quartiles, the relative change of the
median, the median gap over the parent's interquartile range (a gain
claim needs it above 1), and how many pairs the change won (strictly
better in the metric's direction). The exit code is 1 when a median
worsens by more than the metric's bound, or a larger share of a
workload's requests failed; 0 otherwise. Uses only the standard library.
"""

import argparse
import json
import os
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def parse_objects(path):
    with open(path) as f:
        text = f.read()
    try:
        objects = [json.loads(text)]
    except json.JSONDecodeError:
        objects = []
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                objects.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return [o for o in objects if isinstance(o, dict) and "metrics" in o]


def load_runs(directory, workloads):
    """{workload: [run, ...]}, each run {"seed", "metrics", "failed_share"}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        from_name = max((w for w in workloads if name.startswith(w)),
                        key=len, default=None)
        for obj in parse_objects(path):
            workload = obj.get("workload", from_name)
            if workload is None:
                continue
            metrics = {k: (v["value"] if isinstance(v, dict) else v)
                       for k, v in obj["metrics"].items()}
            failed_share = None
            if obj.get("attempted"):
                failed_share = obj.get("failed", 0) / obj["attempted"]
            runs.setdefault(workload, []).append(
                {"seed": obj.get("seed"), "metrics": metrics,
                 "failed_share": failed_share})
    return runs


def pair_runs(parent, change):
    if all(r["seed"] is not None for r in parent + change):
        by_seed = {r["seed"]: r for r in parent}
        return [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    return list(zip(parent, change))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parent_runs = load_runs(args.parent, workloads)
    change_runs = load_runs(args.change, workloads)

    regressions = []
    for workload in workloads:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload}: no runs on "
                  f"{'either side' if not parent and not change else 'one side'}")
            continue
        pairs = pair_runs(parent, change)
        print(f"{workload}: {len(parent)} parent runs, {len(change)} change "
              f"runs, {len(pairs)} pairs")
        print(f"  {'metric':<20}{'parent median [q1, q3]':>34}"
              f"{'change median [q1, q3]':>34}{'delta':>9}{'gap/iqr':>9}{'won':>8}"
              f"{'bound':>7}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            p_values = [r["metrics"][name] for r in parent if name in r["metrics"]]
            c_values = [r["metrics"][name] for r in change if name in r["metrics"]]
            if not p_values or not c_values:
                print(f"  {name:<20} not measured on both sides")
                continue
            p_q1, p_med, p_q3 = quartiles(p_values)
            c_q1, c_med, c_q3 = quartiles(c_values)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            iqr = p_q3 - p_q1
            gap = f"{abs(c_med - p_med) / iqr:.2f}" if iqr > 0 else "-"
            worse = delta if lower else -delta
            measured = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
                        if name in p["metrics"] and name in c["metrics"]]
            won = sum(1 for p, c in measured if (c < p if lower else c > p))
            flag = ""
            if worse > metric["bound"]:
                flag = "  <-- worse than bound"
                regressions.append(f"{workload} {name}: median {p_med:.6g} -> "
                                   f"{c_med:.6g} ({delta:+.1%}, bound "
                                   f"{metric['bound']:.0%})")
            print(f"  {name:<20}"
                  f"{f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]':>34}"
                  f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]':>34}"
                  f"{delta:>+9.1%}{gap:>9}{f'{won}/{len(measured)}':>8}"
                  f"{metric['bound']:>7.2f}{flag}")
        p_failed = [r["failed_share"] for r in parent if r["failed_share"] is not None]
        c_failed = [r["failed_share"] for r in change if r["failed_share"] is not None]
        if p_failed and c_failed and max(c_failed) > max(p_failed):
            regressions.append(f"{workload}: failed share {max(p_failed):.3g} -> "
                               f"{max(c_failed):.3g}")
            print(f"  failed share {max(p_failed):.3g} -> {max(c_failed):.3g}"
                  "  <-- more failures")
    if regressions:
        print("\nregressions:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nno median worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
