#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and compares spreads.

    python3 livebench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, the
metric's bound from BENCHMARK.json and spread / bound. A spread under a
third of the bound is marked "ok". It also prints the share of failed
operations, which must be identical across runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    values = {d["name"]: [] for d in spec["end_to_end"]}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("run with seed %d failed (exit %d)" % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if not result["correct"]:
            sys.exit("run with seed %d reported wrong outputs" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("\nworkload %s, %d runs of %g s" % (args.workload, args.runs, args.seconds))
    print("%-16s %12s %12s %12s %8s %7s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "sp/bnd"))
    for d in spec["end_to_end"]:
        v = values[d["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread < d["bound"] / 3 else "WIDE"
        if d["name"] == "setup_s":
            verdict += " (not gated)"
        print("%-16s %12.6g %12.6g %12.6g %7.2f%% %6.0f%% %8.2f  %s" %
              (d["name"], med, q1, q3, 100 * spread, 100 * d["bound"],
               spread / d["bound"], verdict))
    print("failed share: %s" % ("identical (%g)" % shares[0]
                                if len(set(shares)) == 1 else
                                "DIFFERS " + repr(shares)))


if __name__ == "__main__":
    main()
