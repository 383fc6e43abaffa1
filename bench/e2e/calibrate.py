#!/usr/bin/env python3
"""Noise calibration for the end-to-end benchmark.

Runs BENCHMARK.json's command once per (workload, seed), untraced, and
prints for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median over the seeds, next to the metric's bound.
A bound is safe when every workload's spread stays below a third of it.

    python3 bench/e2e/calibrate.py [--runs 10] [--workload W,..] [--first-seed 1]

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workload.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:18} {name:16} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f} bound {bounds[name]}", flush=True)
            # In run order, so that slow phases of the machine show as runs.
            print(" " * 19 + "values " + " ".join(f"{v / med:.3f}" for v in vs))
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
