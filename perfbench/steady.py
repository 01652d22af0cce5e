#!/usr/bin/env python3
"""Runs one workload several times and reports how steady it is.

    python3 perfbench/steady.py --workload serve [--runs 10] [--sets 1]
        [--seed-base 1] [--seconds S]

Each run uses another seed (seed-base, seed-base + 1, ...; a second set
continues the sequence). For every end-to-end metric of BENCHMARK.json it
prints the median and the first and third quartiles (statistics.quantiles,
n=4) of the last set, the spread (q3 - q1) / median of every set, and the
metric's bound. With
--sets 2 it also prints how far the second set's median moved from the
first's, in the metric's worse direction, against the same bound. A
spread at or above a third of its bound (setup_s excepted), a median that
moves by more than its bound, or a share of failed operations that
differs between runs marks the workload unsteady; the exit code is then 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" %
                 (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = []
    seed = args.seed_base
    for _ in range(args.sets):
        results = []
        for _ in range(args.runs):
            r = run_once(args.workload, seed, seconds)
            results.append(r)
            print("seed %d: correct=%s attempted=%d failed=%d" %
                  (seed, r["correct"], r["attempted"], r["failed"]),
                  flush=True)
            seed += 1
        sets.append(results)

    steady = True
    shares = {r["failed"] / r["attempted"] for s in sets for r in s}
    if len(shares) != 1:
        steady = False
    if not all(r["correct"] for s in sets for r in s):
        steady = False
    print("failed share: %s" % sorted(shares))
    print("%-16s %12s %12s %12s %15s %6s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "drift"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        meds, spreads = [], []
        for s in sets:
            vals = [r["metrics"][name]["value"] for r in s]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            meds.append(statistics.median(vals))
            spread = (q3 - q1) / meds[-1] if meds[-1] else float("inf")
            spreads.append("%.4f" % spread)
            if name != "setup_s" and spread >= bound / 3:
                steady = False
        drift = ""
        if len(meds) == 2:
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            drift = "%+.4f" % worse
            if worse > bound:
                steady = False
        print("%-16s %12.6g %12.6g %12.6g %15s %6.3f %8s" %
              (name, meds[-1], q1, q3, " / ".join(spreads), bound, drift))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
