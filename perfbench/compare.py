#!/usr/bin/env python3
"""Compares two sets of perfbench runs, workload by workload.

    python3 perfbench/compare.py PARENT_FILE... --against CHANGE_FILE...

Each file holds the stdout of one or more `perfbench/run.py` runs (their
"REPORT {...}" lines are read; other lines are ignored). For every workload
and every end-to-end metric of BENCHMARK.json the tool prints each side's
median and quartiles (statistics.quantiles, n=4) and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run
  better      the change wins at least 9 in 10 of all (parent, change)
              pairs and the medians differ by more than the parent's
              quartile spread
  same        none of the above

With --layers the per-layer metrics are listed too (no bound, no verdict).
It also checks that both sides ran the same inputs: runs of one workload
and seed must carry the same input hash. Exit code 1 when any pairing is
worse or the inputs differ, else 0.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_reports(paths):
    """{workload: [report, ...]} from every REPORT line of `paths`."""
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("REPORT "):
                    report = json.loads(line[len("REPORT "):])
                    runs[report["meta"]["workload"]].append(report)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, bound, higher_is_better):
    sign = 1 if higher_is_better else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved"
    pairs = [(p, c) for p in parent for c in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    if wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > (q3 - q1):
        return "better"
    return "same"


def check_inputs(parent, change):
    """Problems where one (workload, seed) ran different inputs."""
    hashes = defaultdict(set)
    for runs in (parent, change):
        for wl, reports in runs.items():
            for r in reports:
                hashes[(wl, r["meta"]["seed"])].add(r["meta"]["input_hash"])
    return [f"{wl} seed {seed}: input hashes {sorted(h)}"
            for (wl, seed), h in sorted(hashes.items()) if len(h) > 1]


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="+", help="files with the parent's runs")
    ap.add_argument("--against", nargs="+", required=True,
                    help="files with the change's runs")
    ap.add_argument("--layers", action="store_true",
                    help="also list per-layer metrics (traced runs)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parent, change = read_reports(args.parent), read_reports(args.against)

    status = 0
    for problem in check_inputs(parent, change):
        print("INPUTS DIFFER: " + problem)
        status = 1

    header = (f"{'workload':<12} {'metric':<28} {'n':>5} "
              f"{'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'delta':>8}  verdict")
    print(header)
    print("-" * len(header))
    for wl in sorted(set(parent) | set(change)):
        for m in bench["end_to_end"]:
            p = [r["end_to_end"][m["name"]]["value"] for r in parent.get(wl, [])
                 if m["name"] in r["end_to_end"]]
            c = [r["end_to_end"][m["name"]]["value"] for r in change.get(wl, [])
                 if m["name"] in r["end_to_end"]]
            if not p or not c:
                print(f"{wl:<12} {m['name']:<28} missing on one side")
                status = 1
                continue
            v = verdict(p, c, m["bound"], m["better"] == "higher")
            if v == "worse":
                status = 1
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else float("nan")
            print(f"{wl:<12} {m['name']:<28} {len(p):>2}/{len(c):<2} "
                  f"{'/'.join(fmt(x) for x in pq):>32} "
                  f"{'/'.join(fmt(x) for x in cq):>32} {delta:>+8.1%}  {v}")
        if args.layers:
            for m in bench["per_layer"]:
                p = [r["per_layer"][m["name"]]["value"]
                     for r in parent.get(wl, []) if m["name"] in r["per_layer"]]
                c = [r["per_layer"][m["name"]]["value"]
                     for r in change.get(wl, []) if m["name"] in r["per_layer"]]
                if p and c:
                    print(f"{wl:<12} {m['name']:<28} {len(p):>2}/{len(c):<2} "
                          f"{'/'.join(fmt(x) for x in quartiles(p)):>32} "
                          f"{'/'.join(fmt(x) for x in quartiles(c)):>32}")
    return status


if __name__ == "__main__":
    sys.exit(main())
