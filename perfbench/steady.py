#!/usr/bin/env python3
"""Steadiness check: how much each end-to-end metric moves from run to run.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads verify_cold,finetune,...]

Runs every workload --runs times, each in a fresh process with its own
seed, and prints for each end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  A spread at or above a third
of the bound is flagged.  Also prints the share of failed operations per
workload.  Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            r = run_once(workload, seed, args.seconds)
            results.append(r)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={v['value']:.4g}" for n, v in r["metrics"].items()),
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: runs={len(results)} failed share(s)={shares} "
              f"attempted={[r['attempted'] for r in results]}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            flag = "  <-- over a third of the bound" if spread >= bound / 3 else ""
            print(f"  {name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bound:>8.2f}{flag}")
    print(f"largest spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
