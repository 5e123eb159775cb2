// Figure 3: Get throughput as threads increase, all designs.
//
// Paper shape: DLHT (batched) on top and scaling; DRAMHiT ~1.7x below;
// GrowT/Folly/CLHT/DLHT-NoBatch clustered >2.2-3.5x below; MICA below those
// (two accesses per Get); Cuckoo/TBB/Leapfrog at the bottom. The strong
// from-scratch opponents sweep too: Robin Hood (batched, prefetching) lands
// near the open-addressing cluster; Maged-Michael pays a pointer chase per
// Get and sits lower.
//
// --map a,b,... restricts the sweep; shape checks
// needing a filtered-out series self-skip.
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const double secs = args.seconds();
  guard_comparison_rss(args, "fig03");
  print_header("fig03", "Get throughput vs threads");

  double dlht_peak = 0, nobatch_peak = 0, mica_peak = 0;

  print_probe_engine();
  if (args.map_enabled("dlht")) {
    InlinedMap m(dlht_options(keys));
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      const double v = get_tput(m, keys, t, secs, kDefaultBatch);
      dlht_peak = std::max(dlht_peak, v);
      print_row("fig03", "DLHT", t, v, "Mreq/s");
    }
    for (const int t : args.threads_list) {
      const double v = get_tput(m, keys, t, secs, 1);
      nobatch_peak = std::max(nobatch_peak, v);
      print_row("fig03", "DLHT-NoBatch", t, v, "Mreq/s");
    }
  }
  // When the dispatched engine is SIMD, also sweep a forced-SWAR table so
  // the figure shows what the vector probe contributes at each thread
  // count (its sibling micro-view is micro_ops' single-thread sweep).
  if (args.map_enabled("dlht") &&
      DLHT::resolved_probe(dlht_options(keys)) != ProbeStrategy::kSwar) {
    Options o = dlht_options(keys);
    o.probe_strategy = ProbeStrategy::kSwar;
    InlinedMap m(o);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "DLHT-SwarProbe", t,
                get_tput(m, keys, t, secs, kDefaultBatch), "Mreq/s");
    }
  }
  if (args.map_enabled("clht")) {
    baselines::ClhtLike<> m(keys);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "CLHT", t, get_tput(m, keys, t, secs, 1), "Mreq/s");
    }
  }
  if (args.map_enabled("growt")) {
    baselines::GrowtLike<> m(keys * 8);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "GrowT", t, get_tput(m, keys, t, secs, 1), "Mreq/s");
    }
  }
  if (args.map_enabled("folly")) {
    baselines::FollyLike<> m(keys * 4);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "Folly", t, get_tput(m, keys, t, secs, 1), "Mreq/s");
    }
  }
  if (args.map_enabled("dramhit")) {
    baselines::DramhitLike<> m(keys * 4);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "DRAMHiT", t,
                get_tput(m, keys, t, secs, kDefaultBatch), "Mreq/s");
    }
  }
  if (args.map_enabled("mica")) {
    baselines::MicaLike<> m(keys / 4 + 16);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      const double v = get_tput(m, keys, t, secs, kDefaultBatch);
      mica_peak = std::max(mica_peak, v);
      print_row("fig03", "MICA", t, v, "Mreq/s");
    }
  }
  if (args.map_enabled("cuckoo")) {
    baselines::CuckooLike<> m(keys * 2);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "Cuckoo", t, get_tput(m, keys, t, secs, 1), "Mreq/s");
    }
  }
  if (args.map_enabled("leapfrog")) {
    baselines::LeapfrogLike<> m(keys * 4);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "Leapfrog", t, get_tput(m, keys, t, secs, 1),
                "Mreq/s");
    }
  }
  if (args.map_enabled("rh")) {
    baselines::RobinHoodMap<> m(keys * 2);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "RobinHood", t,
                get_tput(m, keys, t, secs, kDefaultBatch), "Mreq/s");
    }
  }
  if (args.map_enabled("mm")) {
    baselines::MagedMichaelMap<> m(keys);
    workload::populate(m, keys);
    for (const int t : args.threads_list) {
      print_row("fig03", "MagedMichael", t,
                get_tput(m, keys, t, secs, kDefaultBatch), "Mreq/s");
    }
  }

  if (args.map_enabled("dlht")) {
    check_shape("batched DLHT beats DLHT-NoBatch (prefetch pays)",
                dlht_peak > nobatch_peak);
  }
  if (args.map_enabled("dlht") && args.map_enabled("mica")) {
    check_shape("DLHT beats MICA (inlining: 1 access vs 2)",
                dlht_peak > mica_peak);
  }
  return 0;
}
