#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and spread (interquartile range as a share of the median), next
to the bound BENCHMARK.json fixes for it.

Run from the root of a checkout:
    python3 perfbench/spread.py --workload web-read --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --all --seeds 1-10 --seconds 20

A metric whose spread exceeds a third of its bound is flagged "WIDE";
one above the bound itself "OVER". setup_s is reported but has no
spread gate. Exits 1 if any run is incorrect or any spread is OVER.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def report(bench, workload, seeds, seconds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in seeds:
        result = run_once(bench["command"], workload, seed, seconds)
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: INCORRECT ({result['failed']} failed)")
            ok = False
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: done", file=sys.stderr)
    print(f"\n{workload}: {len(seeds)} seeds, {seconds} s each")
    for name, bound in bounds.items():
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s":
            if spread > bound:
                flag, ok = "OVER", False
            elif spread > bound / 3:
                flag = "WIDE"
        print(f"  {name:24s} median {med:16.6g}  spread {spread:7.4f}  bound {bound:5.2f}  {flag}")
        if flag:
            print("      per seed: " + " ".join(f"{v:.4g}" for v in vs))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]] if args.all else [args.workload]
    seconds = args.seconds or bench["run_seconds"]
    ok = all([report(bench, w, seeds_of(args.seeds), seconds) for w in names])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
