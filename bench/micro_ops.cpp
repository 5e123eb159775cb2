// Micro-op benches: hash functions, header CAS, dw-CAS, allocators, and
// single operations of DLHT and the baselines. These are the op-level
// costs behind the figure-level results.
//
// Default run: a fast driver-based shape check that batched Get (batch=24)
// beats scalar Get by >= 1.5x at >= 4 threads — the prefetch-pipelining
// claim at the heart of the paper. Pass --full to also run the
// google-benchmark op-cost suite (when the library is available).
#include <algorithm>
#include <functional>
#include <memory>

#include "alloc/pool_allocator.hpp"
#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "dlht/dlht.hpp"
#include "workload/mixes.hpp"

#ifdef DLHT_HAVE_GBENCH
#include <benchmark/benchmark.h>

namespace {

using namespace dlht;

// ------------------------------------------------------------------- hashes

template <class H>
void BM_Hash64(benchmark::State& state) {
  H h;
  std::uint64_t k = 0x12345678;
  for (auto _ : state) {
    k = h(k);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_Hash64<ModuloHash>);
BENCHMARK(BM_Hash64<WyHash>);
BENCHMARK(BM_Hash64<Fnv1aHash>);
BENCHMARK(BM_Hash64<Murmur3Hash>);
BENCHMARK(BM_Hash64<XxMixHash>);

static void BM_WyHashBytes(benchmark::State& state) {
  std::vector<char> buf(static_cast<std::size_t>(state.range(0)), 'x');
  std::uint64_t h = 0;
  for (auto _ : state) {
    h = wyhash_bytes(buf.data(), buf.size(), h);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WyHashBytes)->Arg(8)->Arg(64)->Arg(256)->Arg(4096);

// -------------------------------------------------------------- atomic ops

static void BM_HeaderCas(benchmark::State& state) {
  alignas(64) std::uint64_t header = 0;
  for (auto _ : state) {
    std::uint64_t expected = header;
    const std::uint64_t desired = hdr::bump_version(
        hdr::with_slot_state(expected, 0, SlotState::kValid));
    Sync<true>::cas(&header, expected, desired);
    benchmark::DoNotOptimize(header);
  }
}
BENCHMARK(BM_HeaderCas);

static void BM_SlotDwCas(benchmark::State& state) {
  alignas(16) Slot s{1, 2};
  std::uint64_t v = 2;
  for (auto _ : state) {
    Sync<true>::dwcas(&s, Slot{1, v}, Slot{1, v + 1});
    ++v;
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SlotDwCas);

static void BM_SingleThreadStoreVsCas(benchmark::State& state) {
  alignas(64) std::uint64_t header = 0;
  for (auto _ : state) {
    std::uint64_t expected = header;
    Sync<false>::cas(&header, expected, hdr::bump_version(expected));
    benchmark::DoNotOptimize(header);
  }
}
BENCHMARK(BM_SingleThreadStoreVsCas);

// -------------------------------------------------------------- allocators

static void BM_PoolAllocator(benchmark::State& state) {
  PoolAllocator pool;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = pool.allocate(n);
    benchmark::DoNotOptimize(p);
    pool.deallocate(p, n);
  }
}
BENCHMARK(BM_PoolAllocator)->Arg(16)->Arg(64)->Arg(1024);

static void BM_Malloc(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = std::malloc(n);
    benchmark::DoNotOptimize(p);
    std::free(p);
  }
}
BENCHMARK(BM_Malloc)->Arg(16)->Arg(64)->Arg(1024);

// ------------------------------------------------------------- map singles

static void BM_DlhtGet(benchmark::State& state) {
  static InlinedMap map(Options{.initial_bins = 1 << 18});
  static bool populated = false;
  if (!populated) {
    for (std::uint64_t k = 0; k < (1u << 18); ++k) map.insert(k, k);
    populated = true;
  }
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.get(rng.next_below(1u << 18)));
  }
}
BENCHMARK(BM_DlhtGet);

static void BM_DlhtInsertErase(benchmark::State& state) {
  InlinedMap map(Options{.initial_bins = 1 << 12});
  std::uint64_t k = 0;
  for (auto _ : state) {
    map.insert(k, k);
    map.erase(k);
    ++k;
  }
}
BENCHMARK(BM_DlhtInsertErase);

static void BM_DlhtPut(benchmark::State& state) {
  InlinedMap map(Options{.initial_bins = 1 << 12});
  for (std::uint64_t k = 0; k < 1024; ++k) map.insert(k, k);
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.put(rng.next_below(1024), rng()));
  }
}
BENCHMARK(BM_DlhtPut);

static void BM_DlhtBatchGet(benchmark::State& state) {
  static InlinedMap map(Options{.initial_bins = 1 << 18});
  static bool populated = false;
  if (!populated) {
    for (std::uint64_t k = 0; k < (1u << 18); ++k) map.insert(k, k);
    populated = true;
  }
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<InlinedMap::Request> reqs(batch);
  std::vector<InlinedMap::Reply> reps(batch);
  Xoshiro256 rng(9);
  for (auto _ : state) {
    for (auto& rq : reqs) rq = {OpType::kGet, rng.next_below(1u << 18), 0, 0};
    map.execute_batch(reqs.data(), reps.data(), batch);
    benchmark::DoNotOptimize(reps.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DlhtBatchGet)->Arg(8)->Arg(24)->Arg(64);

static void BM_GrowtGet(benchmark::State& state) {
  static baselines::GrowtLike<> map(1 << 20);
  static bool populated = false;
  if (!populated) {
    for (std::uint64_t k = 1; k <= (1u << 18); ++k) map.insert(k, k);
    populated = true;
  }
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.get(rng.next_below(1u << 18) + 1));
  }
}
BENCHMARK(BM_GrowtGet);

static void BM_DlhtAllocatorGetPtr(benchmark::State& state) {
  static AllocatorMap<> map(Options{.initial_bins = 1 << 16,
                                    .fixed_value_size = 64});
  static bool populated = false;
  if (!populated) {
    char blob[64] = {};
    for (std::uint64_t k = 0; k < (1u << 16); ++k) map.insert(k, blob, 64);
    populated = true;
  }
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.get_ptr(rng.next_below(1u << 16)));
  }
}
BENCHMARK(BM_DlhtAllocatorGetPtr);

static void BM_DlhtAllocatorInsertErase(benchmark::State& state) {
  AllocatorMap<> map(Options{.initial_bins = 1 << 12,
                             .fixed_value_size = 64});
  char blob[64] = {};
  std::uint64_t k = 0;
  for (auto _ : state) {
    map.insert(k, blob, 64);
    map.erase(k);
    if ((k & 127) == 0) map.quiesce();
    ++k;
  }
}
BENCHMARK(BM_DlhtAllocatorInsertErase);

static void BM_DlhtBatchInsertDelete(benchmark::State& state) {
  InlinedMap map(Options{.initial_bins = 1 << 12});
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<InlinedMap::Request> reqs(batch);
  std::vector<InlinedMap::Reply> reps(batch);
  std::uint64_t k = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < batch; i += 2) {
      reqs[i] = {OpType::kInsert, k, k, 0};
      reqs[i + 1] = {OpType::kDelete, k, 0, 0};
      ++k;
    }
    map.execute_batch(reqs.data(), reps.data(), batch & ~std::size_t{1});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DlhtBatchInsertDelete)->Arg(8)->Arg(24);

static void BM_DlhtShadowCommit(benchmark::State& state) {
  InlinedMap map(Options{.initial_bins = 1 << 12});
  std::uint64_t k = 0;
  for (auto _ : state) {
    map.insert_shadow(k, k);
    map.commit_shadow(k);
    map.erase(k);
    ++k;
  }
}
BENCHMARK(BM_DlhtShadowCommit);

static void BM_EpochQuiesce(benchmark::State& state) {
  AllocatorMap<> map(Options{.initial_bins = 256, .fixed_value_size = 8});
  for (auto _ : state) {
    map.quiesce();
  }
}
BENCHMARK(BM_EpochQuiesce);

static void BM_MicaGet(benchmark::State& state) {
  static baselines::MicaLike<> map(1 << 16);
  static bool populated = false;
  if (!populated) {
    for (std::uint64_t k = 1; k <= (1u << 18); ++k) map.insert(k, k);
    populated = true;
  }
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.get(rng.next_below(1u << 18) + 1));
  }
}
BENCHMARK(BM_MicaGet);

}  // namespace
#endif  // DLHT_HAVE_GBENCH

namespace {

using namespace dlht;

/// The paper's headline mechanism, as a pass/fail smoke: software-pipelined
/// batched Gets must beat scalar Gets once memory latency dominates.
///
/// The claim is about *memory-bound* tables, so the check floors the table
/// at 1M keys regardless of --keys: below ~256K keys the bucket array fits
/// in cache on server parts (this box has a 2 MiB L2 / 260 MiB L3) and
/// out-of-order execution already overlaps scalar probes, which measures
/// the cache hierarchy rather than the batching pipeline.
void run_shape_check(const bench::Args& args) {
  const int max_threads =
      args.threads_list.empty()
          ? static_cast<int>(hardware_threads())
          : *std::max_element(args.threads_list.begin(),
                              args.threads_list.end());
  const int threads = max_threads < 4 ? 4 : max_threads;
  const double secs = args.seconds();
  constexpr std::size_t kBatch = 24;
  const std::uint64_t keys =
      args.keys > (1u << 20) ? args.keys : (1u << 20);

  if (keys != args.keys) {
    std::printf("# shape table floored to %llu keys (--keys %llu is "
                "cache-resident; the claim is about memory-bound tables)\n",
                static_cast<unsigned long long>(keys),
                static_cast<unsigned long long>(args.keys));
  }

  InlinedMap m(bench::dlht_options(keys));
  workload::populate(m, keys);

  workload::RunSpec spec{.threads = threads, .seconds = secs};
  spec.counters = bench::counters_enabled();

  const auto scalar_r =
      workload::run_for(spec, workload::make_get_worker(m, keys, 7));
  const auto batched_r = workload::run_for(
      spec, workload::make_get_batch_worker(m, keys, kBatch, 7));
  const double scalar = scalar_r.mreqs_per_sec;
  const double batched = batched_r.mreqs_per_sec;

  // Counters ride on the row that follows them, so stash each region's
  // totals immediately before its print_row.
  if (spec.counters) bench::note_counters(scalar_r.counters);
  bench::print_row("micro_ops", "Get/scalar", threads, scalar, "Mreq/s");
  if (spec.counters) bench::note_counters(batched_r.counters);
  bench::print_row("micro_ops", "Get/batch24", threads, batched, "Mreq/s");
  bench::check_shape("batched Get (batch=24) >= 1.5x scalar Get",
                     batched >= 1.5 * scalar);
}

/// Probe-engine sweep: one table per engine this host can execute, same
/// keyset and batched-Get workload, so the SWAR/AVX2/AVX-512 rows are
/// directly comparable. Runs at --keys scale (cache-resident by default):
/// that is where header matching is the bottleneck and the SIMD engines
/// must earn their keep — at memory-bound scale the prefetch pipeline
/// hides most of the matching cost anyway. Single-threaded: the engines
/// differ per-core, not in scalability.
void run_probe_sweep(const bench::Args& args) {
  const Options base = bench::dlht_options(args.keys);
  if (!base.ablation.fingerprints) {
    std::printf("# probe sweep skipped (fingerprints ablated: SWAR only)\n");
    return;
  }
  std::vector<ProbeStrategy> engines{ProbeStrategy::kSwar};
  if (probe::host_supports(ProbeStrategy::kAvx2)) {
    engines.push_back(ProbeStrategy::kAvx2);
  }
  if (probe::host_supports(ProbeStrategy::kAvx512)) {
    engines.push_back(ProbeStrategy::kAvx512);
  }

  constexpr std::size_t kBatch = 24;

  // One table per engine, built up front. The replay worker pregenerates
  // one shared key stream, so every engine probes the identical sequence
  // and no per-key generator time dilutes the probe-pipeline comparison.
  std::vector<std::unique_ptr<InlinedMap>> tables;
  for (const ProbeStrategy e : engines) {
    Options o = base;
    o.probe_strategy = e;
    tables.push_back(std::make_unique<InlinedMap>(o));
    workload::populate(*tables.back(), args.keys);
  }

  // Interleaved ~2 ms slices (bench::interleaved_mops): every engine sees
  // the same host noise, so the engine ratio measures the engines.
  std::vector<std::function<std::size_t()>> workers;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    workers.push_back(workload::make_get_batch_replay_worker(
        *tables[i], args.keys, kBatch, 7)(0));
  }
  const std::vector<double> mops =
      bench::interleaved_mops(workers, args.seconds());

  double swar = 0.0;
  double avx2 = 0.0;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    bench::print_row(
        "micro_ops",
        std::string("Get/batch24[") + probe::name(engines[i]) + "]", 1,
        mops[i], "Mreq/s");
    if (engines[i] == ProbeStrategy::kSwar) swar = mops[i];
    if (engines[i] == ProbeStrategy::kAvx2) avx2 = mops[i];
  }
  if (avx2 > 0.0) {
    bench::check_shape("AVX2 batched Get >= 1.15x SWAR batched Get",
                       avx2 >= 1.15 * swar);
  } else {
    std::printf("# shape skip: AVX2 vs SWAR (host lacks AVX2)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const dlht::bench::Args args = dlht::bench::parse_args(argc, argv);
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") full = true;
  }

  dlht::bench::print_header("micro_ops",
                            "op-level costs + batching shape check");
  dlht::bench::print_probe_engine();
  run_shape_check(args);
  run_probe_sweep(args);

  if (full) {
#ifdef DLHT_HAVE_GBENCH
    // Forward only google-benchmark's own flags; ours are already consumed.
    std::vector<char*> bargs;
    bargs.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
        bargs.push_back(argv[i]);
      }
    }
    int bargc = static_cast<int>(bargs.size());
    benchmark::Initialize(&bargc, bargs.data());
    benchmark::RunSpecifiedBenchmarks();
#else
    std::fprintf(stderr,
                 "micro_ops: built without google-benchmark; --full only "
                 "runs the shape check\n");
#endif
  }
  return 0;
}
