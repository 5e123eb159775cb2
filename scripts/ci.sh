#!/usr/bin/env bash
# CI entry point: build, test, sanitize, and smoke-run the bench binaries
# so they cannot silently rot. Usable locally:
#   scripts/ci.sh         # everything
#   scripts/ci.sh main    # Release build + ctest + bench smoke + perfbench
#                         # and perfbench_pairs self-tests + ASan/UBSan
#   scripts/ci.sh tsan    # ThreadSanitizer build + concurrency tests only
#   scripts/ci.sh mutants # every mutant in scripts/mutants.py is killed
#   scripts/ci.sh docs    # every figure binary documented in REPRODUCING.md
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

# Compiler cache: cuts CI rebuild time to seconds once the cache is warm
# (the GH workflow provisions ccache via hendrikmuhs/ccache-action).
# Harmless no-op where ccache is not installed.
launcher=()
if command -v ccache >/dev/null 2>&1; then
  launcher=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_docs() {
  echo "=== docs: every figure/table binary documented in REPRODUCING.md ==="
  local missing=0
  for t in $(grep -oE '^add_executable\((fig|tab|ablation|micro|dlht_server|kv_client)[0-9a-z_]*' \
               CMakeLists.txt | sed 's/^add_executable(//' | sort -u); do
    if ! grep -q "\`$t\`" docs/REPRODUCING.md; then
      echo "FAIL: bench target '$t' is not documented in docs/REPRODUCING.md" >&2
      missing=1
    fi
  done
  if [ "$missing" -ne 0 ]; then exit 1; fi
  # The probe-engine knobs must stay documented: every bench honors them,
  # and a trajectory number without its engine tag is uninterpretable.
  # ...and the server knobs likewise: the loopback trajectory point is
  # only interpretable if the batching/sharding knobs are documented.
  # ...and the memory-awareness knobs: pinning/placement/counters change
  # what a trajectory number *means* on a NUMA box.
  # ...and the bench-scale knobs: a trajectory row is only interpretable
  # if its scale profile and competitor filter are documented.
  for knob in DLHT_PROBE DLHT_ABLATION DLHT_SERVER_BATCH DLHT_SERVER_THREADS \
              DLHT_PIN DLHT_NUMA DLHT_SYSFS_ROOT DLHT_COUNTERS \
              DLHT_BENCH_SCALE DLHT_BENCH_MAPS DLHT_MEM_AVAILABLE_MB; do
    if ! grep -q "$knob" docs/REPRODUCING.md; then
      echo "FAIL: probe knob '$knob' is not documented in docs/REPRODUCING.md" >&2
      exit 1
    fi
  done
  # Every --map name the benches accept must be covered by the handbook's
  # competitor matrix — an undocumented opponent is an unfair one.
  for name in $(grep -oE '"[a-z]+"' bench/bench_common.hpp \
                  | sed -n 's/"\([a-z]*\)"/\1/p' | sort -u); do
    case "$name" in
      dlht|clht|growt|folly|dramhit|mica|cuckoo|leapfrog|locked|rh|mm)
        if ! grep -q "\`$name\`" docs/BENCHMARKING.md; then
          echo "FAIL: --map name '$name' is not documented in docs/BENCHMARKING.md" >&2
          exit 1
        fi ;;
    esac
  done
  for cls in RobinHoodMap MagedMichaelMap; do
    if ! grep -q "$cls" docs/BENCHMARKING.md; then
      echo "FAIL: baseline class '$cls' is not documented in docs/BENCHMARKING.md" >&2
      exit 1
    fi
  done

  echo "=== docs: every documented DLHT_* name is read by the code ==="
  # A deleted knob must not stay documented: each DLHT_ name in README.md
  # and docs/*.md must be a string literal somewhere in the code, or a
  # CMake option.
  unread=0
  for name in $(grep -ohE 'DLHT_[A-Z0-9_]+' README.md docs/*.md | sort -u); do
    if ! grep -rqF "\"$name\"" include bench server tests scripts perfbench &&
       ! grep -qE "^option\($name[[:space:]]" CMakeLists.txt; then
      echo "FAIL: '$name' is documented but read nowhere in the code" >&2
      unread=1
    fi
  done
  if [ "$unread" -ne 0 ]; then exit 1; fi

  echo "=== docs: relative links in docs/*.md and README.md resolve ==="
  # A handbook that points at renamed files is worse than none: walk every
  # relative markdown link (skip http(s) and #anchors) and require the
  # target to exist, resolved against the linking file's directory.
  broken=0
  for f in README.md docs/*.md; do
    dir=$(dirname "$f")
    for link in $(grep -oE '\]\(([^)#]+)(#[^)]*)?\)' "$f" \
                    | sed -E 's/^\]\(//; s/#[^)]*//; s/\)$//' \
                    | grep -vE '^https?://' | sort -u); do
      if [ ! -e "$dir/$link" ] && [ ! -e "$link" ]; then
        echo "FAIL: $f links to '$link' which does not exist" >&2
        broken=1
      fi
    done
  done
  if [ "$broken" -ne 0 ]; then exit 1; fi
  echo "docs coverage ok"
}

run_main() {
  echo "=== configure + build (Release) ==="
  cmake -B build -S . "${launcher[@]}"
  cmake --build build -j "$(nproc)"

  echo "=== ctest ==="
  ctest --test-dir build --output-on-failure

  echo "=== bench smoke ==="
  ./build/micro_ops --keys 65536 --ms 100
  DLHT_BENCH_THREADS=1,2 ./build/fig01_overview --keys 16384 --ms 20 > /dev/null
  echo "fig01 smoke ok"

  echo "=== apps-layer fig smoke (13, 15, 17-20) ==="
  # The paper shapes these must reproduce are also enforced as ctest
  # FAIL_REGULAR_EXPRESSION properties; here we additionally fail on a WARN
  # for the required claims so a bare script run catches regressions too.
  # (NB: a bare `! grep` is exempt from errexit — test explicitly.)
  require_absent() {  # require_absent <file> <regex>
    if grep -Eq "$2" "$1"; then
      echo "FAIL: required shape regressed: $2" >&2
      exit 1
    fi
  }
  ./build/fig13_skew --keys 2097152 --ms 80 --threads-list 1 \
    | tee /tmp/fig13.out > /dev/null
  require_absent /tmp/fig13.out "WARN: Gets speed up under skew"
  ./build/fig15_latency --keys 16384 --ms 30 --threads-list 1,2 \
    | tee /tmp/fig15.out > /dev/null
  require_absent /tmp/fig15.out "nan|inf"
  ./build/fig17_lock_manager --keys 16384 --ms 30 --threads-list 1,2 > /dev/null
  ./build/fig18_ycsb --keys 16384 --ms 25 --threads-list 1,2 \
    | tee /tmp/fig18.out > /dev/null
  require_absent /tmp/fig18.out "WARN: read-only C beats update-only F"
  ./build/fig19_oltp --keys 16384 --ms 25 --threads-list 1,2 > /dev/null
  ./build/fig20_hashjoin --keys 1048576 --ms 25 --threads-list 1,2 \
    | tee /tmp/fig20.out > /dev/null
  require_absent /tmp/fig20.out "WARN: (batched probe beats unbatched|join checksum mismatch)"
  echo "apps fig smoke ok"

  echo "=== bench_diff gate self-test ==="
  # The perf-trajectory diff must actually gate: an identical pair passes,
  # a synthesized >15% throughput drop / p99 rise each exit nonzero.
  python3 scripts/bench_diff.py --self-test

  echo "=== perfbench_pairs known-answer self-test ==="
  # The A/B pairs tool's median, IQR and per-pair win arithmetic.
  python3 scripts/perfbench_pairs.py --self-test

  echo "=== perfbench known-answer self-test ==="
  # The end-to-end benchmark's own arithmetic (perfbench/stats.hpp,
  # trace.hpp) against known answers.
  python3 perfbench/run.py --self-test

  echo "=== ASan/UBSan build + tests ==="
  cmake -B build-asan -S . "${launcher[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j "$(nproc)" --target dlht_test resize_churn_test \
    shrink_churn_test epoch_test rng_test apps_test probe_equivalence_test \
    recovery_test kill_recover_writer protocol_test dlht_server kv_client \
    topology_test perf_counters_test baseline_equivalence_test
  ./build-asan/dlht_test
  # The from-scratch opponents' hazards (backward-shift deletes,
  # reclamation under readers) are exactly the bugs ASan exists for.
  ./build-asan/baseline_equivalence_test
  ./build-asan/resize_churn_test
  ./build-asan/shrink_churn_test
  ./build-asan/epoch_test
  ./build-asan/rng_test
  ./build-asan/apps_test
  # Memory-awareness layer: the sysfs parser walks attacker-adjacent input
  # (arbitrary file contents) and the counter reader does raw syscalls —
  # both run sanitized.
  ./build-asan/topology_test
  ./build-asan/perf_counters_test
  # SIMD/SWAR/full-key probe engines must agree under the memory checker
  # too — the AVX kernels read whole 64-byte headers, so this run is the
  # no-OOB proof for the vector loads.
  ./build-asan/probe_equivalence_test
  # recovery_test fuzzes the WAL/snapshot decoders over random bytes and
  # truncations — this sanitized run is the no-UB proof the framing claims.
  ./build-asan/recovery_test
  KRW=./build-asan/kill_recover_writer bash tests/kill_recover_test.sh
  # Wire-protocol decoder totality under ASan/UBSan: the random/bit-flip
  # fuzz runs on exactly-sized heap buffers, so any overread is fatal here.
  ./build-asan/protocol_test
  # Full server<->client loopback under the memory checker. SKIP_RATIO:
  # sanitized throughput is meaningless; the lost/dup audits and the
  # networked kill-and-recover cycle are what this run proves.
  SKIP_RATIO=1 KR_CYCLES=1 KV_KEYS=2048 KV_MS=120 \
    SERVER=./build-asan/dlht_server CLIENT=./build-asan/kv_client \
    KRW=./build-asan/kill_recover_writer bash tests/kv_loopback_test.sh
}

run_tsan() {
  echo "=== TSan build + concurrency tests ==="
  # Blind spot: TSan does not model standalone fences (GCC's -Wtsan warns
  # "'atomic_thread_fence' is not supported" while building these), so
  # this job does not check the seqlock re-check fences in dlht.hpp
  # (for_each, probe_bucket, consume_group) or EpochManager's seq_cst
  # fences. ROADMAP item 4's controlled schedules are meant to. The WAL
  # shard lock uses no standalone fence, only its atomic word, which TSan
  # does model.
  cmake -B build-tsan -S . "${launcher[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$(nproc)" --target dlht_test resize_churn_test \
    shrink_churn_test epoch_test apps_test probe_equivalence_test \
    fig18_ycsb recovery_test kill_recover_writer protocol_test \
    dlht_server kv_client topology_test baseline_equivalence_test
  ./build-tsan/dlht_test
  # Maged-Michael under the race detector: marked-pointer unlinks + epoch
  # retire while readers walk the same chains. Robin Hood is excluded by
  # DLHT_TEST_MAPS: its readers are optimistic seqlock loops, which TSan
  # rejects wholesale by design (ASan/UBSan cover it above).
  DLHT_TEST_MAPS=mm ./build-tsan/baseline_equivalence_test
  ./build-tsan/resize_churn_test
  ./build-tsan/shrink_churn_test
  ./build-tsan/epoch_test
  # Plan caches (default_pin_plan, allowed_cpus_cached) are function-local
  # statics read from many worker threads — TSan proves the init is clean.
  ./build-tsan/topology_test
  # The mid-probe mutation family races a writer against every probe
  # engine's batched readers — the seqlock re-check in the SIMD sweep is
  # exactly what TSan must see as properly synchronized.
  ./build-tsan/probe_equivalence_test
  # apps_test's Smallbank conservation run is the first workload doing
  # cross-instance RMW transactions; fig18 exercises the YCSB mixes (incl.
  # F's update() path) under the race detector at a tiny scale.
  ./build-tsan/apps_test
  DLHT_BENCH_THREADS=2 ./build-tsan/fig18_ycsb --keys 4096 --ms 20 > /dev/null
  echo "tsan ycsb smoke ok"
  # Durable tier under the race detector: the crash-point matrix plus the
  # multi-writer SIGKILL churn (4 writers + group committer + snapshotter).
  ./build-tsan/recovery_test
  KRW=./build-tsan/kill_recover_writer bash tests/kill_recover_test.sh
  ./build-tsan/protocol_test
  # Server under the race detector: N epoll shards batching into one shared
  # table, cross-thread conn handoff (eventfd inbox), checkpointer vs WAL
  # writers in --durable mode — the loopback drives all of it.
  SKIP_RATIO=1 KR_CYCLES=1 KV_KEYS=2048 KV_MS=120 \
    SERVER=./build-tsan/dlht_server CLIENT=./build-tsan/kv_client \
    KRW=./build-tsan/kill_recover_writer bash tests/kv_loopback_test.sh
}

run_mutants() {
  echo "=== mutants: each listed mutant fails the tests named for it ==="
  # Copies the tree to a temporary directory and rebuilds it once per
  # mutant (only the targets its tests run); a surviving mutant or one
  # whose search text no longer matches exactly once fails the job.
  python3 scripts/mutants.py --self-test
  python3 scripts/mutants.py
}

case "$mode" in
  main)    run_main ;;
  tsan)    run_tsan ;;
  mutants) run_mutants ;;
  docs)    run_docs ;;
  all)     run_docs; run_main; run_tsan; run_mutants ;;
  *)       echo "usage: scripts/ci.sh [main|tsan|mutants|docs|all]" >&2; exit 2 ;;
esac

echo "CI OK ($mode)"
