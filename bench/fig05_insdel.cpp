// Figure 5: InsDel throughput (50 % Inserts / 50 % Deletes of fresh keys)
// vs threads.
//
// Paper shape: DLHT up to 12.8x GrowT (which must migrate every ~capacity
// deletes to purge tombstones), ~3x CLHT (same single-cache-line pattern
// but no prefetch), MICA hurt by two accesses + (de)allocation per op.
// Folly/DRAMHiT cannot run this workload at all: their deletes never free
// slots, so the table dies — we demonstrate that with a bounded run.
//
// The two strong opponents are the interesting rows here: Robin Hood's
// backward-shift deletes and Maged-Michael's real frees both survive
// InsDel indefinitely, so this figure is where the paper's "deletes are
// the hard case" claim faces designs that don't simply die.
#include <map>
#include <string>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t cap = args.keys;  // table sized for `keys`, starts empty
  const double secs = args.seconds();
  // GrowT gets its 8x table here as in every figure: the favorable setup
  // the paper grants it, large relative to the live set. Its tombstones,
  // which nothing purges, still fill it.
  const DesignNames field = {"dlht", "clht", "growt", "mica", "rh", "mm"};
  guard_comparison_rss(args, "fig05", field);
  print_header("fig05", "InsDel throughput vs threads");

  std::map<std::string, double> peak;  // by series

  run_designs(args, field, cap, 0, [&](const auto& d, auto& m) {
    const auto sweep = [&](const std::string& series, std::size_t batch) {
      for (const int t : args.threads_list) {
        const double v = insdel_tput(m, 0, t, secs, batch);
        peak[series] = std::max(peak[series], v);
        print_row("fig05", series, t, v, "Mreq/s");
      }
    };
    sweep(d.label, kDefaultBatch);
    if (std::string_view(d.name) == "dlht") sweep("DLHT-NoBatch", 1);
  });
  // Folly: deletes never reclaim. Show ops until a 64Ki-cell table dies.
  run_designs(args, {"folly"}, 1 << 14, 0, [&](const auto&, auto& m) {
    std::uint64_t ops = 0;
    std::uint64_t k = 1;
    while (m.insert(k, k)) {
      m.erase(k);
      ++k;
      ops += 2;
    }
    print_row("fig05", "Folly(ops-until-dead)", 1,
              static_cast<double>(ops) / 1e6, "Mops-total");
  });

  if (args.map_enabled("dlht") && args.map_enabled("growt")) {
    check_shape("DLHT InsDel beats GrowT (no tombstones)",
                peak["DLHT"] > peak["GrowT"]);
  }
  if (args.map_enabled("dlht") && args.map_enabled("clht")) {
    check_shape("DLHT InsDel >= CLHT (same line, plus prefetch)",
                peak["DLHT"] >= peak["CLHT"] * 0.9);
  }
  return 0;
}
