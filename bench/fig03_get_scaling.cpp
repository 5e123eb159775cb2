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
#include <map>
#include <string>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const double secs = args.seconds();
  const DesignNames field = {"dlht",    "clht",   "growt",    "folly",
                             "dramhit", "mica",   "cuckoo",   "leapfrog",
                             "rh",      "mm"};
  guard_comparison_rss(args, "fig03", field);
  print_header("fig03", "Get throughput vs threads");

  std::map<std::string, double> peak;  // by series

  print_probe_engine();
  run_designs(args, field, keys, keys, [&](const auto& d, auto& m) {
    const auto sweep = [&](const std::string& series, std::size_t batch) {
      for (const int t : args.threads_list) {
        const double v = get_tput(m, keys, t, secs, batch);
        peak[series] = std::max(peak[series], v);
        print_row("fig03", series, t, v, "Mreq/s");
      }
    };
    sweep(d.label, d.get_batch);
    if (std::string_view(d.name) == "dlht") sweep("DLHT-NoBatch", 1);
  });
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

  if (args.map_enabled("dlht")) {
    check_shape("batched DLHT beats DLHT-NoBatch (prefetch pays)",
                peak["DLHT"] > peak["DLHT-NoBatch"]);
  }
  if (args.map_enabled("dlht") && args.map_enabled("mica")) {
    check_shape("DLHT beats MICA (inlining: 1 access vs 2)",
                peak["DLHT"] > peak["MICA"]);
  }
  return 0;
}
