#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads syn-churn,fleet --seeds 1-10 [--json out.json]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run_seconds of BENCHMARK.json, then reports for every end-to-end
metric the median over seeds and the interquartile spread as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound.  A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="write the medians and spreads here")
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, spec["run_seconds"]) for s in seeds_of(args.seeds)]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "spread": round(spread, 4), "bound": m["bound"]}
            flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
            print(f"{workload:14s} {m['name']:22s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {m['bound']}{flag}", flush=True)
        bad = [r for r in results if not r["correct"]]
        rows["runs"] = len(results)
        rows["incorrect_runs"] = len(bad)
        rows["failed_per_attempted"] = sum(r["failed"] for r in results) / sum(
            r["attempted"] for r in results)
        report[workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
