#!/usr/bin/env bash
# Perf-trajectory recorder: run a representative smoke-scale slice of the
# figure benches with --json and collect machine-readable BENCH_<fig>.json
# summaries ({fig, config, ops_per_sec, p50/p99_ns, rows}) for the CI
# bench-trajectory job to upload as artifacts. Every CI run then leaves a
# throughput/latency record, so speedups and regressions across PRs are
# diffable instead of anecdotal.
#
# Usage:
#   scripts/bench_json.sh [out-dir]     # default out-dir: bench-json
#   BUILD_DIR=build scripts/bench_json.sh
#
# Smoke scales (VM-sized) are deliberately identical to the ctest smokes:
# trajectory points are only comparable if the config is pinned. The
# "config" field in each JSON records it regardless — including the
# scale= tag, which is how bench_diff.py keeps paper-scale rows from ever
# being compared against smoke rows.
#
# DLHT_BENCH_SCALE=paper scripts/bench_json.sh runs the big-box slice
# instead: fig01/fig03/fig18/fig19 at the paper's populations (100M keys,
# 1M subscribers / 10M accounts), no smoke-size flag overrides. Each
# binary's RSS guard refuses (exit 2) up front if the box is too small.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench-json}"
build="${BUILD_DIR:-build}"

launcher=()
if command -v ccache >/dev/null 2>&1; then
  launcher=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
if [ ! -x "$build/micro_ops" ]; then
  cmake -B "$build" -S . "${launcher[@]}"
fi
cmake --build "$build" -j "$(nproc)"

mkdir -p "$out"

run() {  # run <fig-label> <binary> [args...]
  local fig="$1" bin="$2"
  shift 2
  echo "--- $fig"
  "./$build/$bin" "$@" --json "$out/BENCH_$fig.json" > /dev/null
  # A trajectory point must parse and carry a real throughput number.
  grep -q '"fig"' "$out/BENCH_$fig.json"
  grep -q '"ops_per_sec"' "$out/BENCH_$fig.json"
}

# Paper-scale slice: no smoke-size flags, so the profile's own populations
# apply (flags would override them). The rows land with scale=paper in
# their config tag and bench_diff.py keeps them in their own trajectory.
if [ "${DLHT_BENCH_SCALE:-default}" = paper ]; then
  run fig01 fig01_overview --map dlht,rh,mm
  DLHT_BENCH_THREADS=8,16,32 run fig03 fig03_get_scaling
  run fig18 fig18_ycsb
  run fig19 fig19_oltp
  echo "=== paper-scale bench trajectory written ==="
  ls -l "$out"/BENCH_*.json
  exit 0
fi

# Core op costs + the batching pipeline (the repo's headline mechanism).
# --counters attaches perf counters to the shape-check rows; on hosts where
# perf_event_open is forbidden the object is zeroed with unavailable:true,
# so the key is asserted either way.
run micro_ops micro_ops --keys 65536 --ms 100 --counters
grep -Eq '"counters"' "$out/BENCH_micro_ops.json"
grep -Eq '"unavailable": (true|false)' "$out/BENCH_micro_ops.json"
# All-designs overview with the two strong from-scratch opponents enabled —
# the trajectory tracks DLHT against real competition, not only itself.
run fig01 fig01_overview --keys 16384 --ms 20 --map dlht,rh,mm
grep -q 'RobinHood/get' "$out/BENCH_fig01.json"
grep -q 'MagedMichael/get' "$out/BENCH_fig01.json"
grep -q 'maps=dlht,rh,mm' "$out/BENCH_fig01.json"
# Scalar/batched Get scaling across threads.
DLHT_BENCH_THREADS=1,2 run fig03 fig03_get_scaling --keys 16384 --ms 20
# Batch-size sweep: the software-pipelining win itself.
run fig12 fig12_batch_size --keys 1048576 --ms 40 --threads-list 1
# Growth: a live upward resize with Gets running through it.
run fig08 fig08_resize_timeline --keys 131072
# Shrink: the downward mirror (delete-heavy phase, bins drop, Gets live).
run fig_shrink fig_shrink_timeline --keys 131072
# Closed-loop latency: the p50/p99_ns fields of the trajectory.
run fig15 fig15_latency --keys 16384 --ms 30 --threads-list 1,2
# Apps layer: YCSB mixes over the skewed generators.
run fig18 fig18_ycsb --keys 16384 --ms 25 --threads-list 1,2
# Durable tier: WAL ingest, write amplification, checkpoint + recovery rates.
run fig_recovery fig_recovery --keys 65536

# KV server loopback: the network batching engine over a unix socket. Needs
# a live server, so it can't use the run() helper — start one, drive the
# pipelined client with --json, tear down, then validate like every other
# point. bench_diff.py gates BENCH_kv_server.json once a baseline exists.
echo "--- kv_server"
kv_sock="$(mktemp -u /tmp/dlht_bench_kv.XXXXXX.sock)"
kv_log="$(mktemp /tmp/dlht_bench_kv.XXXXXX.log)"
"./$build/dlht_server" --listen "unix:$kv_sock" --keys 8192 --threads 2 \
  --no-pin > "$kv_log" 2>&1 &
kv_pid=$!
for _ in $(seq 1 100); do
  grep -q "ready" "$kv_log" && break
  sleep 0.1
done
kv_status=0
"./$build/kv_client" --connect "unix:$kv_sock" --keys 8192 --ms 250 \
  --threads-list 1,2 --batch 32 --json "$out/BENCH_kv_server.json" \
  > /dev/null || kv_status=$?
kill "$kv_pid" 2>/dev/null || true
wait "$kv_pid" 2>/dev/null || true
rm -f "$kv_sock" "$kv_log"
[ "$kv_status" -eq 0 ]
grep -q '"fig"' "$out/BENCH_kv_server.json"
grep -q '"ops_per_sec"' "$out/BENCH_kv_server.json"

echo "=== bench trajectory written ==="
ls -l "$out"/BENCH_*.json
