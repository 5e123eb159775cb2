// Figure 1: throughput of state-of-the-art hashtables and DLHT on a
// memory-resident uniform workload — Gets and (where meaningful) Deletes —
// at the maximum thread count.
//
// Paper shape: DLHT tops Gets (1.66 B/s on their box); DRAMHiT is the only
// baseline in the same league; Cuckoo/TBB/Leapfrog trail far behind; on
// Deletes (InsDel) the open-addressing designs collapse. The two strong
// from-scratch opponents (Robin Hood with backward-shift deletes,
// Maged-Michael lock-free chaining) are the exceptions the paper's claim
// must survive: both keep running InsDel forever, so the argument there is
// throughput, not survival.
//
// --map a,b,... restricts the field — at paper scale
// one run of every design is hours; shape checks needing a filtered-out
// series self-skip.
#include <map>
#include <string>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const int threads = args.threads_list.back();
  const double secs = args.seconds();
  const DesignNames field = {"dlht",    "clht",   "growt",    "folly",
                             "dramhit", "mica",   "cuckoo",   "leapfrog",
                             "rh",      "mm"};
  guard_comparison_rss(args, "fig01", field);
  print_header("fig01", "overview: Gets + InsDel, all designs, max threads");

  std::map<std::string, double> get, insdel;
  run_designs(args, field, keys, keys, [&](const auto& d, auto& m) {
    get[d.name] = get_tput(m, keys, threads, secs, d.get_batch);
    print_row("fig01", std::string(d.label) + "/get", threads, get[d.name],
              "Mreq/s");
    if (std::string_view(d.name) == "dlht") {
      print_row("fig01", "DLHT-NoBatch/get", threads,
                get_tput(m, keys, threads, secs, 1), "Mreq/s");
    }
  });
  run_designs(args, {"dlht", "growt", "mica", "rh", "mm"}, keys, 0,
              [&](const auto& d, auto& m) {
                insdel[d.name] =
                    insdel_tput(m, 0, threads, secs, kDefaultBatch);
                print_row("fig01", std::string(d.label) + "/insdel", threads,
                          insdel[d.name], "Mreq/s");
              });

  if (args.map_enabled("dlht") && args.map_enabled("dramhit")) {
    check_shape("DLHT Gets beat DRAMHiT Gets", get["dlht"] > get["dramhit"]);
  }
  if (args.map_enabled("dlht") && args.map_enabled("growt")) {
    check_shape("DLHT InsDel >> GrowT InsDel (tombstone collapse)",
                insdel["dlht"] > 2.0 * insdel["growt"]);
  }
  if (args.map_enabled("dlht") && args.map_enabled("rh")) {
    check_shape("DLHT Gets beat Robin Hood Gets", get["dlht"] > get["rh"]);
  }
  if (args.map_enabled("dlht") && args.map_enabled("mm")) {
    check_shape("DLHT Gets beat Maged-Michael Gets (inline vs chase)",
                get["dlht"] > get["mm"]);
  }
  return 0;
}
