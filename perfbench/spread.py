#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD [WORKLOAD ...] [--seeds 10]
                                [--first-seed 1] [--seconds N]

Runs perfbench/run.py once per seed on each workload (--trace 0) and
prints, per end-to-end metric, the median, the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, and that spread against a third of the metric's bound in
BENCHMARK.json.  Exits non-zero if a run fails or reports failures.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {name:14s} median {med:14.6g}  spread {spread:7.2%}"
                  f"  bound/3 {bounds[name] / 3:6.2%}  {flag}  "
                  + " ".join(f"{v / med:.2f}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
