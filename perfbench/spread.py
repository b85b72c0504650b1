#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports how far each
end-to-end metric spreads: the distance between the first and the third
quartile of its values, as a share of their median.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads rpc,bulk]

Run it from the repository root.  It reads the command, run length, workloads
and bounds from BENCHMARK.json, and exits 1 if a spread other than setup_s's
exceeds its metric's bound.  A spread below a third of the bound is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    too_wide = []
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(command, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            print(lines[0], flush=True)
            result = json.loads(lines[-1])
            if result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} requests failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs")
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / statistics.median(values[name])
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if spread > bound and name != "setup_s":
                too_wide.append(f"{workload}/{name}")
            print(f"  {name:24} median {statistics.median(values[name]):14.4f}  "
                  f"q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:.4f}  bound {bound}  {verdict}")
    if too_wide:
        sys.exit("spread above bound: " + ", ".join(too_wide))


if __name__ == "__main__":
    main()
