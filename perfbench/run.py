#!/usr/bin/env python3
"""Build and run the DLHT benchmark.

    python3 perfbench/run.py --workload read_dram --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                # every workload, seed 1
    python3 perfbench/run.py --self-test    # known-answer tests of the arithmetic

Builds perfbench/ with CMake into .bench_build/perfbench under the
repository root, runs one workload, checks the result against
BENCHMARK.json and prints it as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. Each run's configuration
and every metric, with sample counts, go to .bench_build/results/.
A failed build or run exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
RESULTS = os.path.join(".bench_build", "results")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "include", "dlht", "dlht.hpp")):
        fail("include/dlht/dlht.hpp not found: run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def check_result(line, names):
    """The result line has exactly the contract's keys and every metric in
    `names`, each a finite number with its unit."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys " + str(sorted(res)))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        raise ValueError("failed must be a whole number")
    got = res["metrics"]
    if set(got) != set(names):
        raise ValueError("metrics differ from BENCHMARK.json: %s" %
                         sorted(set(got) ^ set(names)))
    for name, unit in names.items():
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError("metric %s: %s" % (name, m))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError("metric %s is not a finite number" % name)
    return res


def run_one(spec, workload, seed, seconds, trace):
    key = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[key]}
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", RESULTS]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, r.returncode), r.returncode or 1)
    try:
        res = check_result(lines[-1], names)
    except (ValueError, KeyError, TypeError) as e:
        fail("%s: bad result line: %s" % (workload, e), 1)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)
    os.makedirs(RESULTS, exist_ok=True)

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload != "all":
        if args.workload not in workloads:
            fail("unknown workload %s (have %s)" % (args.workload, workloads))
        res = run_one(spec, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(res))
        return
    # Every workload in turn; the last line sums the tallies and names each
    # metric by workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        print("== %s" % w)
        res = run_one(spec, w, args.seed, seconds, args.trace)
        print(json.dumps(res))
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][w + "." + name] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
