#!/usr/bin/env python3
"""Self-checks of the benchmark harness itself, not of ciflow.

    python3 benchmark/selftest.py

Builds the harness like run.py, then checks on every workload that:
  1. a 2-round traced run reports the same per-iteration counts and
     simulated metrics as a 1-round run (numbers are per run, not
     accumulated across iterations);
  2. the metrics printed are exactly BENCHMARK.json's, with its units:
     end_to_end with --trace 0, per_layer with --trace 1;
  3. the outputs recorded in digests.txt match on the default seed and
     on the held-out seed;
and that an unknown workload exits nonzero without a result line.
Exits nonzero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = (1, 977)


def harness(binary, *args):
    res = subprocess.run([binary, "--digests",
                          os.path.join(run.BENCH_DIR, "digests.txt")]
                         + list(args), stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    return res.returncode, lines, json.loads(lines[-1]) if lines else None


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def exact_metrics(result, spec):
    """Per-layer metrics that are exact per-iteration values."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.startswith("bench.") and
            (units[k] in ("count", "ratio") or k.startswith("sim_"))}


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != run.WORKLOADS:
        fail("BENCHMARK.json workloads differ from run.py's")

    for w in run.WORKLOADS:
        rounds = {}
        for n in (1, 2):
            code, _, r = harness(binary, "--workload", w, "--iters", str(n),
                                 "--trace", "1")
            if code or not r["correct"]:
                fail(f"{w}: traced {n}-round run failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != per_layer:
                fail(f"{w}: --trace 1 metrics differ from per_layer")
            rounds[n] = exact_metrics(r, spec)
        if rounds[1] != rounds[2]:
            diff = {k: (rounds[1][k], rounds[2][k]) for k in rounds[1]
                    if rounds[1][k] != rounds[2][k]}
            fail(f"{w}: per-iteration counts change with iterations: {diff}")
        for seed in SEEDS:
            code, lines, r = harness(binary, "--workload", w, "--iters", "1",
                                     "--seed", str(seed), "--trace", "0")
            if code or not r["correct"]:
                fail(f"{w}: seed {seed} run failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != e2e:
                fail(f"{w}: --trace 0 metrics differ from end_to_end")
            env = next(line for line in lines if line.startswith("# env"))
            checked = int(re.search(r"recorded_checks=(\d+)", env).group(1))
            if checked == 0:
                fail(f"{w}: nothing recorded for seed {seed}")
        print(f"ok {w}")

    code, lines, _ = harness(binary, "--workload", "no_such_workload")
    if code == 0 or lines:
        fail("unknown workload did not fail cleanly")
    print("ok all")


if __name__ == "__main__":
    main()
