#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload with alternating pairs.

    python3 scripts/perfbench_pairs.py --parent ../parent --workload kv_durable
    python3 scripts/perfbench_pairs.py --parent ../parent --workload read_dram \\
        --pairs 5 --seed 1 --trace 0
    python3 scripts/perfbench_pairs.py --self-test

The change is this checkout. Builds perfbench/ in both checkouts with
perfbench/run.py's build (into each one's .bench_build/perfbench), then
runs N pairs of the workload, each run as long as BENCHMARK.json's
run_seconds. The parent runs first on odd pairs and the change first on
even ones, so a drift in the host's load hits both sides alike. Each run
writes under a fresh --out directory on a tmpfs when the host has one
(/dev/shm first), so kv_durable's WAL is on tmpfs and perfbench needs no
private mount; the directory is removed afterwards.

Checks each result line with perfbench/run.py's check_result (exact keys,
every metric finite with its unit) and prints the run's metrics
(BENCHMARK.json's end-to-end ones, or with --trace 1 the per-layer ones)
with its failed count, then per metric the median and interquartile range
of each side, the change's shift, how many pairs the change won (by the
metric's "better" direction; a tie is not a win), and whether the median
gap exceeds the parent's IQR. The figures a run prints on its "e2e+"
lines but does not gate (kv_durable's get_p99_us, write_p99_us,
sync_p99_us, max_rate_mops, ...) are printed per run too, then in a
separate table of each side's median and IQR, with no verdict. Exits
nonzero when a build or a run fails or a result line fails the check. It
reads perfbench/ and BENCHMARK.json and writes neither.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench/run.py's build and result check, imported without writing a
# bytecode cache into perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as bench_run  # noqa: E402


def fail(msg):
    print("perfbench_pairs: " + msg, file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------- arithmetic

def quantile(xs, p):
    """Linear-interpolation quantile (numpy's default) of a non-empty list."""
    s = sorted(xs)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def summarize(xs):
    """(median, q1, q3) of a non-empty list."""
    return quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75)


def wins(parent, change, better):
    """Pairs in which the change is strictly better than its parent."""
    if better == "higher":
        return sum(1 for p, c in zip(parent, change) if c > p)
    return sum(1 for p, c in zip(parent, change) if c < p)


def verdict(parent, change, better):
    """Summary of one metric over paired runs: medians, IQRs, shift, wins,
    and whether the change's median beats the parent's by more than the
    parent's IQR."""
    pm, p1, p3 = summarize(parent)
    cm, c1, c3 = summarize(change)
    gain = cm - pm if better == "higher" else pm - cm
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "shift_pct": (cm - pm) / pm * 100.0 if pm != 0 else float("nan"),
        "wins": wins(parent, change, better),
        "pairs": len(parent),
        "beyond_iqr": gain > p3 - p1,
    }


# ---------------------------------------------------------------- tmpfs

def tmpfs_root(mounts_text):
    """A writable tmpfs mount point from /proc/self/mounts text: /dev/shm
    if it is one, else the first other; None when there is none."""
    points = []
    for line in mounts_text.splitlines():
        f = line.split()
        if len(f) >= 3 and f[2] == "tmpfs":
            points.append(f[1].replace("\\040", " "))
    points.sort(key=lambda p: p != "/dev/shm")
    for p in points:
        if os.path.isdir(p) and os.access(p, os.W_OK):
            return p
    return None


def out_parent():
    try:
        with open("/proc/self/mounts") as f:
            return tmpfs_root(f.read())
    except OSError:
        return None


# ------------------------------------------------------------------ runs

def build(checkout):
    """perfbench/run.py's build, which works in the current directory."""
    if not os.path.isfile(os.path.join(checkout, "perfbench", "CMakeLists.txt")):
        fail("%s has no perfbench/" % checkout)
    os.chdir(checkout)
    bench_run.build()
    return os.path.join(checkout, bench_run.BUILD, "perfbench")


def run_once(binary, checkout, args, seconds, names, out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", out]
    try:
        r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                           text=True, timeout=bench_run.RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(cmd),
                                          bench_run.RUN_TIMEOUT_S))
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd), r.returncode))
    try:
        res = bench_run.check_result(lines[-1], names)
    except (ValueError, KeyError, TypeError) as e:
        fail("%s: bad result line: %s" % (" ".join(cmd), e))
    return res, printed_extras(lines[:-1])


def printed_extras(lines):
    """name -> (value, unit) of every "e2e+" line a run printed, e.g.
    "e2e+   get_p99_us   844.526933 us   (n=1249351, 12488 beyond)".
    A value that is not a finite number is left out."""
    out = {}
    for line in lines:
        f = line.split()
        if len(f) < 4 or f[0] != "e2e+":
            continue
        try:
            v = float(f[2])
        except ValueError:
            continue
        if math.isfinite(v):
            out[f[1]] = (v, f[3])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--workload", default="kv_durable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if args.parent is None or args.pairs < 1:
        ap.error("--parent and --pairs >= 1 are required")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    seconds = spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in metrics}

    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    binaries = {side: build(path) for side, path in sides.items()}
    root = tempfile.mkdtemp(prefix="perfbench_pairs_", dir=out_parent())
    print("# %s, %d pairs, %d s, seed %d, trace %d, --out under %s" %
          (args.workload, args.pairs, seconds, args.seed, args.trace, root))
    values = {"parent": {}, "change": {}}
    extras = {"parent": {}, "change": {}}
    units = {}
    try:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                out = os.path.join(root, "pair%02d-%s" % (pair, side))
                res, printed = run_once(binaries[side], sides[side], args,
                                        seconds, names, out)
                shutil.rmtree(out, ignore_errors=True)
                got = res["metrics"]
                for m in metrics:
                    values[side].setdefault(m["name"], []).append(
                        got[m["name"]]["value"])
                for name, (v, unit) in printed.items():
                    extras[side].setdefault(name, []).append(v)
                    units.setdefault(name, unit)
                print("pair %2d %-6s %s failed=%d/%d correct=%s" % (
                    pair, side,
                    " ".join("%s=%.6g" % (m["name"], got[m["name"]]["value"])
                             for m in metrics),
                    res["failed"], res["attempted"],
                    str(res["correct"]).lower()), flush=True)
                if printed:
                    print("        %-6s printed: %s" % (side, " ".join(
                        "%s=%.6g" % (n, v) for n, (v, _) in printed.items())),
                        flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print_summary(metrics, values)
    print_extras(extras, units)


def print_summary(metrics, values):
    print("%-34s %-30s %-30s %8s %6s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "shift", "wins", "gap > parent IQR"))
    for m in metrics:
        v = verdict(values["parent"][m["name"]], values["change"][m["name"]],
                    m["better"])
        print("%-34s %-30s %-30s %+7.1f%% %3d/%-2d %s" % (
            m["name"], "%.6g [%.6g, %.6g]" % v["parent"],
            "%.6g [%.6g, %.6g]" % v["change"], v["shift_pct"], v["wins"],
            v["pairs"], "yes" if v["beyond_iqr"] else "no"))


def extras_rows(extras, units):
    """(name, unit, parent, change) per printed-but-not-gated figure, in
    name order, where each side is its (median, q1, q3, runs), or None
    when none of its runs printed the figure."""
    rows = []
    for name in sorted(set(extras["parent"]) | set(extras["change"])):
        sides = []
        for side in ("parent", "change"):
            xs = extras[side].get(name, [])
            sides.append(summarize(xs) + (len(xs),) if xs else None)
        rows.append((name, units.get(name, ""), sides[0], sides[1]))
    return rows


def print_extras(extras, units):
    rows = extras_rows(extras, units)
    if not rows:
        return
    print("printed, not gated: median [q1, q3] (runs)")
    print("%-34s %-7s %-36s %-36s" % ("metric", "unit", "parent", "change"))
    for name, unit, parent, change in rows:
        cells = ["%.6g [%.6g, %.6g] (%d)" % s if s else "-"
                 for s in (parent, change)]
        print("%-34s %-7s %-36s %-36s" % (name, unit, cells[0], cells[1]))


# ------------------------------------------------------------- self-test

def self_test():
    def expect(got, want, what):
        if isinstance(want, float) or isinstance(got, float):
            ok = abs(got - want) < 1e-9
        else:
            ok = got == want
        if not ok:
            fail("self-test: %s: got %r, want %r" % (what, got, want))

    expect(quantile([3.0], 0.25), 3.0, "quantile of one value")
    expect(summarize([4.0, 1.0, 3.0, 2.0]), (2.5, 1.75, 3.25),
           "median and quartiles of 1..4")
    expect(summarize([5.0, 1.0, 2.0, 4.0, 3.0]), (3.0, 2.0, 4.0),
           "median and quartiles of 1..5")
    expect(wins([1.0, 2.0, 3.0], [0.5, 2.5, 2.0], "lower"), 2,
           "lower-is-better wins")
    expect(wins([1.0, 2.0, 3.0], [0.5, 2.5, 2.0], "higher"), 1,
           "higher-is-better wins")
    expect(wins([1.0, 2.0], [1.0, 2.0], "lower"), 0, "ties are not wins")
    # setup_s falls ~36%, far beyond the parent's IQR, in every pair.
    parent = [0.60, 0.58, 0.62, 0.61, 0.59, 0.63, 0.60, 0.57, 0.64, 0.60]
    change = [0.39, 0.38, 0.40, 0.37, 0.39, 0.41, 0.38, 0.39, 0.36, 0.40]
    v = verdict(parent, change, "lower")
    expect(v["wins"], 10, "a clear gain wins every pair")
    expect(v["parent"][0], 0.60, "parent median")
    expect(v["change"][0], 0.39, "change median")
    expect(round(v["shift_pct"], 6), -35.0, "shift of the medians")
    expect(v["beyond_iqr"], True, "a clear gain clears the parent's IQR")
    # Noise: the change wins half the pairs and its median moves less than
    # the parent's IQR.
    parent = [4.80, 4.70, 4.90, 4.75, 4.85, 4.80]
    change = [4.85, 4.65, 4.88, 4.80, 4.82, 4.81]
    v = verdict(parent, change, "higher")
    expect(v["wins"], 3, "noise wins half the pairs")
    expect(v["beyond_iqr"], False, "noise stays inside the parent's IQR")
    # A gain smaller than the parent's IQR is not beyond it.
    v = verdict([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5], "lower")
    expect(v["wins"], 0, "a uniform loss wins nothing")
    expect(v["beyond_iqr"], False, "a loss is not a gain")
    # A result line that lacks a gated metric fails the check, so a series
    # cannot look complete without it.
    names = {"setup_s": "s", "throughput_mops": "Mops/s"}
    line = json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {"setup_s": {"value": 0.4, "unit": "s"}}})
    try:
        bench_run.check_result(line, names)
        fail("self-test: a result missing a metric passed the check")
    except ValueError:
        pass
    mounts = ("/dev/vda / ext4 rw 0 0\n"
              "tmpfs /run tmpfs rw 0 0\n"
              "tmpfs /dev/shm tmpfs rw 0 0\n")
    want = "/dev/shm" if os.path.isdir("/dev/shm") and \
        os.access("/dev/shm", os.W_OK) else None
    if want is not None:
        expect(tmpfs_root(mounts), want, "/dev/shm is preferred")
    expect(tmpfs_root("/dev/vda / ext4 rw 0 0\n"), None, "no tmpfs")
    # The "e2e+" lines of a run's output, and only those, are its printed
    # extras; a count suffix does not disturb the value, and a value that
    # is not a finite number is left out.
    out = [
        "config wal_dir_fs                        \"tmpfs\"",
        "e2e    get_p50_us                              11.806973 us      "
        "(n=1249351, 624673 beyond)",
        "e2e+   get_p99_us                            2158.210510 us      "
        "(n=1249351, 12488 beyond)",
        "e2e+   max_rate_mops                            4.801738 Mops/s ",
        "e2e+   sync_p99_us                           2179.072000 us      "
        "(n=12500, 5 beyond) THIN",
        "e2e+   write_p99_us                                  nan us",
        "layer  server.start_s                           0.103422 s",
        "checks attempted=35881112 failed=0 fail_ratio=0",
    ]
    expect(printed_extras(out),
           {"get_p99_us": (2158.21051, "us"), "max_rate_mops": (4.801738,
            "Mops/s"), "sync_p99_us": (2179.072, "us")},
           "e2e+ lines parse to name -> (value, unit)")
    expect(printed_extras(["e2e+ truncated 1.0"]), {}, "a short line is not "
           "an extra")
    # The extras table: per side median and quartiles, runs counted, and a
    # figure only one side printed shows as absent on the other.
    extras = {"parent": {"get_p99_us": [4.0, 1.0, 3.0, 2.0]},
              "change": {"get_p99_us": [1.0, 2.0, 3.0],
                         "new_p99_us": [5.0]}}
    expect(extras_rows(extras, {"get_p99_us": "us", "new_p99_us": "us"}),
           [("get_p99_us", "us", (2.5, 1.75, 3.25, 4), (2.0, 1.5, 2.5, 3)),
            ("new_p99_us", "us", None, (5.0, 5.0, 5.0, 1))],
           "extras rows")
    print("perfbench_pairs self-test ok")


if __name__ == "__main__":
    main()
