#!/usr/bin/env python3
"""Builds and runs the live-GVM benchmark.

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark program (and the live-path libraries it links) with CMake under
$CARGO_TARGET_DIR/livebench, default .bench_build/livebench; later runs
only re-check the build. The program's report is passed through, and the
last stdout line is the JSON result, checked against BENCHMARK.json's
metric lists. See livebench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "livebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "livebench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("livebench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "livebench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    return {d["name"]: d["unit"] for d in defs}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or b""
        sys.stderr.write(out.decode() if isinstance(out, bytes) else out)
        sys.exit("livebench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("livebench: benchmark program exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        sys.exit("livebench: no JSON result line")
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        sys.exit("livebench: result does not match BENCHMARK.json")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
