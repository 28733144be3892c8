#!/usr/bin/env python3
"""Checks that the campaign benchmark repeats within its own bounds.

    python3 campaign_bench/steadiness.py [--runs 10] [--sets 2] [--workload NAME ...]

Run from the repository root. For each workload it makes `--sets` sets of
`--runs` untraced runs of the same build, each run with its own seed (set
k uses seeds k*1000+1 ..), and prints for every end-to-end metric of
BENCHMARK.json each set's median and quartiles, the quartile distance as
a share of the median, and the change of the median from the first set,
each against the metric's bound. It exits 1 when a spread or a median
change (either way) exceeds its bound, or when the share of failed
operations differs between sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            results = [run(bench, workload, k * 1000 + i + 1) for i in range(args.runs)]
            sets.append(results)
        print(f"== {workload}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) > 1:
            ok = False
            print(f"  failed-operation share differs between sets: {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                change = (med - first) / first
                flag = ""
                if spread > bound or abs(change) > bound:
                    ok = False
                    flag = "  OVER BOUND"
                print(f"  {name:<14} set {k}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.3f} change {change:+.3f} bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
