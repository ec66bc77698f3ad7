#!/usr/bin/env python3
"""Steadiness check: run one workload N times and summarize each metric.

Usage, from the root of a checkout:

    python3 evalbench/steady.py --workload <name> [--runs 10] [--seed-base 1]
                                [--seconds <s>]

Run i uses seed seed-base + i, so the spread includes the change of
inputs across seeds, as a comparison between two commits would see it.
Every run is untraced (--trace 0), so it prints the end-to-end metrics,
the ones BENCHMARK.json bounds. For every metric the table gives the
median, the first and third quartiles (Python's statistics.quantiles,
n=4), the quartile distance as a share of the median, and the max/min
ratio, next to the bound BENCHMARK.json fixes for it. This is the
evidence behind each bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, units, shares = {}, {}, set()
    for i in range(args.runs):
        seed = args.seed_base + i
        cmd = [sys.executable, os.path.join(ROOT, "evalbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed with code "
                  f"{proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"run {i} (seed {seed}) reported incorrect outputs",
                  file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]) if
                   result["failed"] else (0, 1))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, failed shares "
          f"{sorted(shares)}")
    print(f"{'metric':36} {'unit':10} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'max/min':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        lo, hi = min(vals), max(vals)
        spread = (q3 - q1) / med if med else float("nan")
        ratio = hi / lo if lo else float("inf")
        bound = bounds.get(name)
        print(f"{name:36} {units[name]:10} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {ratio:8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
