// Op-level checks behind the figure-level results.
//
// A closed-loop shape check that batched Get (batch=24) beats scalar Get
// by >= 1.5x at >= 4 threads — the prefetch-pipelining claim at the heart
// of the paper — then a batched-Get sweep over every probe engine this
// host can execute. Takes exactly the bench harness's flags.
#include <algorithm>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "dlht/dlht.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace dlht;

/// The paper's headline mechanism, as a pass/fail smoke: software-pipelined
/// batched Gets must beat scalar Gets once memory latency dominates.
///
/// The claim is about *memory-bound* tables, so the check floors the table
/// at 1M keys regardless of --keys: below ~256K keys the bucket array fits
/// in cache on server parts (L3s of 100 MiB and more) and out-of-order
/// execution already overlaps scalar probes, which measures the cache
/// hierarchy rather than the batching pipeline.
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
  dlht::bench::print_header("micro_ops",
                            "op-level costs + batching shape check");
  dlht::bench::print_probe_engine();
  run_shape_check(args);
  run_probe_sweep(args);
  return 0;
}
