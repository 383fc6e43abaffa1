#!/usr/bin/env python3
"""Alternating-pair comparison of two checkouts on the end-to-end benchmark.

For every seed, runs BENCHMARK.json's command once in the parent checkout
and once in the change checkout, with --workload W --seed S, alternating
which side runs first from seed to seed so that a slow phase of the
machine lands on both sides alike. Then prints, for every end-to-end
metric:

- each side's median and quartiles over the seeds;
- how many pairs the change won, in the metric's `better` direction;
- the difference of the medians against the parent's quartile distance
  (q3 - q1);
- each side's quartile distance against `bound` x the parent's median.

Exits non-zero if any run failed or any instance failed, or if the two
sides printed different `pinned.*` counts for the same seed.

    python3 bench/pairs.py --parent DIR --change DIR --workload W \\
        --seeds 401-410 [--seconds S]

--seeds takes ranges and lists: 401-410, 1,3,5 or 1-3,7. Each directory
is a full checkout; the command builds what it runs from its source.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, med, q3


def run(directory, bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=directory, capture_output=True, text=True,
                         timeout=1800)
    lines = out.stdout.strip().splitlines()
    pinned = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[1].startswith("pinned."):
            pinned[fields[1]] = fields[2]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = out.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(f"{directory} seed {seed} failed:\n{out.stderr}\n")
    return {"ok": ok, "result": result, "pinned": pinned}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json's)")
    args = ap.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    benches = {
        s: json.load(open(os.path.join(d, "BENCHMARK.json")))
        for s, d in sides.items()
    }
    metrics = benches["parent"]["end_to_end"]
    values = {s: {m["name"]: [] for m in metrics} for s in sides}
    attempted = {s: 0 for s in sides}
    failed = {s: 0 for s in sides}
    wins = {m["name"]: 0 for m in metrics}
    bad = False
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for side in order:
            runs[side] = run(sides[side], benches[side], args.workload, seed,
                             args.seconds)
        for side, r in runs.items():
            if not r["ok"]:
                bad = True
            if r["result"] is not None:
                attempted[side] += r["result"]["attempted"]
                failed[side] += r["result"]["failed"]
        if runs["parent"]["pinned"] != runs["change"]["pinned"]:
            bad = True
            sys.stderr.write(
                f"seed {seed}: pinned counts differ: parent "
                f"{runs['parent']['pinned']} change {runs['change']['pinned']}\n")
        if not all(r["ok"] for r in runs.values()):
            continue
        cells = []
        for m in metrics:
            name = m["name"]
            p = runs["parent"]["result"]["metrics"][name]["value"]
            c = runs["change"]["result"]["metrics"][name]["value"]
            values["parent"][name].append(p)
            values["change"][name].append(c)
            if (c < p) if m["better"] == "lower" else (c > p):
                wins[name] += 1
            cells.append(f"{name} {p:.6g} -> {c:.6g}")
        print(f"seed {seed} ({order[0]} first): " + ", ".join(cells),
              flush=True)
    pairs = len(values["parent"][metrics[0]["name"]])
    print(f"\n{args.workload}: {pairs} pairs; failed instances: parent "
          f"{failed['parent']} of {attempted['parent']}, change "
          f"{failed['change']} of {attempted['change']}")
    if failed["parent"] or failed["change"]:
        bad = True
    if pairs == 0:
        sys.exit(1)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        pq1, pmed, pq3 = quartiles(values["parent"][name])
        cq1, cmed, cq3 = quartiles(values["change"][name])
        piqr, ciqr = pq3 - pq1, cq3 - cq1
        limit = bound * pmed
        diff = cmed - pmed
        print(f"{name} ({m['unit']}, {m['better']} is better)")
        print(f"  parent median {pmed:.6g} (q1 {pq1:.6g}, q3 {pq3:.6g})")
        print(f"  change median {cmed:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g})")
        print(f"  change won {wins[name]} of {pairs} pairs")
        print(f"  median difference {diff:+.6g} vs parent quartile distance "
              f"{piqr:.6g}: {'larger' if abs(diff) > piqr else 'not larger'}")
        print(f"  quartile distance: parent {piqr:.6g}, change {ciqr:.6g}, "
              f"bound x parent median {limit:.6g}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
