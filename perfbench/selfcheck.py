#!/usr/bin/env python3
"""Sensitivity self-check of the repo benchmark.

Runs halo_bare and sampler_threads with and without --inject-slowdown (a
host spin worth ~20% of a control run inside the benchmark's own rank
function) and checks that the benchmark's own bounds flag it: msgs_per_s
must drop by more than its bound on halo_bare, overhead_ratio must rise by
more than its bound on sampler_threads. Exits 1 when either is missed.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seeds 1,2] [--seconds 25]
"""
import argparse
import json
import statistics
import subprocess
import sys

CASES = (("halo_bare", "msgs_per_s"), ("sampler_threads", "overhead_ratio"))


def measure(workload, seed, seconds, inject):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd.append("--inject-slowdown")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    ok = True
    for workload, metric in CASES:
        base, slow = [], []
        for seed in seeds:
            base.append(measure(workload, seed, args.seconds, False)[metric]["value"])
            slow.append(measure(workload, seed, args.seconds, True)[metric]["value"])
        b, s = statistics.median(base), statistics.median(slow)
        worse = (b - s) / b if spec[metric]["better"] == "higher" else (s - b) / b
        flagged = worse > spec[metric]["bound"]
        ok = ok and flagged
        print("%-16s %-15s base %.6g  slowed %.6g  worse by %.1f%%  bound "
              "%.0f%%  %s" % (workload, metric, b, s, 100 * worse,
                              100 * spec[metric]["bound"],
                              "FLAGGED" if flagged else "MISSED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
