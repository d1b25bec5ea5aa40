#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 qbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the qbench binary into .bench_build/qbench (later runs rebuild
incrementally). Build output goes to stderr; stdout carries the binary's
lines, the last of which is the JSON result. A traced run also writes its
spans to .bench_build/trace-<workload>-<seed>.json.

Exits nonzero without a result when the sources are missing, the build
fails, the binary fails or overruns, or the metrics it printed differ from
the ones BENCHMARK.json declares for the mode.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
BINARY = os.path.join(BUILD, "qbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.hpp")):
        sys.exit("qbench: no library sources under %s/src" % ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    want = declared(args.trace)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("qbench: build failed: %s" % e)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("qbench: run overran %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("qbench: binary exited with %d" % proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(proc.stdout)
        sys.exit("qbench: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "unit mismatches %s" % (
                     sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                     sorted(k for k in set(got) & set(want) if got[k] != want[k])))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
