// Figure 6: Put-heavy workload (50 % Gets / 50 % Puts) vs threads.
//
// Paper shape: DLHT peaks (1042 M/s on their box), up to 2.7x the
// non-prefetching open-addressing designs; smaller edge over DRAMHiT
// (which also prefetches but can only upsert); MICA capped by multiple
// accesses; CLHT absent (no Puts). Robin Hood upserts in place under its
// stripe locks; Maged-Michael upserts with a single release store once the
// node is found.
#include <map>
#include <string>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const double secs = args.seconds();
  const DesignNames field = {"dlht", "growt", "folly", "dramhit",
                             "mica", "rh",    "mm"};
  guard_comparison_rss(args, "fig06", field);
  print_header("fig06", "Put-heavy (50% Get / 50% Put) vs threads");

  std::map<std::string, double> peak;  // by series

  run_designs(args, field, keys, keys, [&](const auto& d, auto& m) {
    const auto sweep = [&](const std::string& series, std::size_t batch) {
      for (const int t : args.threads_list) {
        const double v = putheavy_tput(m, keys, t, secs, batch);
        peak[series] = std::max(peak[series], v);
        print_row("fig06", series, t, v, "Mreq/s");
      }
    };
    sweep(d.label, kDefaultBatch);
    if (std::string_view(d.name) == "dlht") sweep("DLHT-NoBatch", 1);
  });

  if (args.map_enabled("dlht") && args.map_enabled("growt")) {
    check_shape("DLHT Put-heavy beats non-prefetching open addressing",
                peak["DLHT"] > peak["GrowT"]);
  }
  return 0;
}
