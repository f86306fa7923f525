#!/usr/bin/env python3
"""Build and run the ciflow benchmark from the root of a checkout.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all        # every workload in turn

The harness (benchmark/harness.cpp) and the ciflow library are compiled
from source into $CARGO_TARGET_DIR (default .bench_build) as a Release
build, then the workload runs in its own process. The last line of
stdout is the harness's JSON result; build output goes to stderr. The
exit code is the harness's: nonzero when any correctness check failed.
See benchmark/METRICS.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["dse_sweep", "tune_converge", "serve_steady", "serve_faults"]


def run_seconds():
    """The measuring time every recorded spread was taken with."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the harness; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rpu", "experiment.h")):
        sys.exit("error: ciflow sources (src/) not found next to benchmark/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("error: benchmark build failed: " + " ".join(cmd))
    return os.path.join(out, "ciflow_bench")


def harness_cmd(binary, args, workload):
    return [binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--digests", os.path.join(BENCH_DIR, "digests.txt"),
            "--spans", os.path.join(build_dir(), f"spans_{workload}.json")
            ] + args.extra


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds())
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("extra", nargs="*",
                   help="further harness options, after --")
    args = p.parse_args()
    binary = build()
    sys.stdout.flush()

    if args.workload != "all":
        sys.exit(subprocess.run(harness_cmd(binary, args, args.workload)).returncode)

    # Every workload in its own process; a combined result line last.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        res = subprocess.run(harness_cmd(binary, args, w), stdout=subprocess.PIPE,
                             text=True)
        lines = res.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or res.returncode
        try:
            r = json.loads(lines[-1])
        except (IndexError, ValueError):
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            total["metrics"][w + ":" + k] = v
    print(json.dumps(total))
    sys.exit(code or (0 if total["correct"] else 1))


if __name__ == "__main__":
    main()
