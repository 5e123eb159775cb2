#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload kv_durable]
    python3 perfbench/steadiness.py --seeds 1-10 --second-seed 9001

Runs every workload (or one) once per seed, untraced, and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A spread above the metric's bound in BENCHMARK.json is marked
UNSTEADY (setup_s is exempt). With --second-seed, one more run per
workload on that seed must land within each metric's bound of the
median, in the metric's worse direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if r.returncode != 0:
        sys.exit("%s seed %d exited with %d" % (workload, seed, r.returncode))
    res = json.loads(r.stdout.splitlines()[-1])
    if not res["correct"] or res["failed"] != 0:
        sys.exit("%s seed %d: incorrect output (%d failed)" %
                 (workload, seed, res["failed"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--second-seed", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]

    ok = True
    for w in workloads:
        runs = [run(w, s) for s in seeds_of(args.seeds)]
        second = run(w, args.second_seed) if args.second_seed else None
        print("== %s (%d runs)" % (w, len(runs)))
        for m in metrics:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = m["name"] == "setup_s" or spread <= m["bound"]
            line = "%-18s median %12.6g  spread %6.3f  bound %.2f %s" % (
                m["name"], med, spread, m["bound"], "" if steady else "UNSTEADY")
            if second is not None:
                v = second[m["name"]]
                worse = (med - v) / med if m["better"] == "higher" else (v - med) / med
                within = worse <= m["bound"]
                line += "  seed %d: %.6g (%+.3f)%s" % (
                    args.second_seed, v, -worse, "" if within else " OUT OF BOUND")
                ok = ok and within
            ok = ok and steady
            print(line)
        print("   values: " + json.dumps({m["name"]: [round(r[m["name"]], 6) for r in runs]
                                          for m in metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
