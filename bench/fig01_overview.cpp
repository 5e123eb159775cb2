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
// --map a,b,... (or DLHT_BENCH_MAPS) restricts the field — at paper scale
// one run of every design is hours; shape checks needing a filtered-out
// series self-skip.
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const int threads = args.threads_list.back();
  const double secs = args.seconds();
  guard_comparison_rss(args, "fig01");
  print_header("fig01", "overview: Gets + InsDel, all designs, max threads");

  double dlht_get = 0, dramhit_get = 0, growt_insdel = 0, dlht_insdel = 0;
  double rh_get = 0, mm_get = 0;

  if (args.map_enabled("dlht")) {
    InlinedMap m(dlht_options(keys));
    workload::populate(m, keys);
    dlht_get = get_tput(m, keys, threads, secs, kDefaultBatch);
    print_row("fig01", "DLHT/get", threads, dlht_get, "Mreq/s");
    print_row("fig01", "DLHT-NoBatch/get", threads,
              get_tput(m, keys, threads, secs, 1), "Mreq/s");
  }
  if (args.map_enabled("dlht")) {
    InlinedMap m(dlht_options(keys));
    dlht_insdel = insdel_tput(m, 0, threads, secs, kDefaultBatch);
    print_row("fig01", "DLHT/insdel", threads, dlht_insdel, "Mreq/s");
  }
  if (args.map_enabled("clht")) {
    baselines::ClhtLike<> m(keys);  // ~1/3 occupancy headroom (3 slots/bin)
    workload::populate(m, keys);
    print_row("fig01", "CLHT/get", threads,
              get_tput(m, keys, threads, secs, 1), "Mreq/s");
  }
  if (args.map_enabled("growt")) {
    baselines::GrowtLike<> m(keys * 8);
    workload::populate(m, keys);
    print_row("fig01", "GrowT/get", threads,
              get_tput(m, keys, threads, secs, 1), "Mreq/s");
  }
  if (args.map_enabled("growt")) {
    baselines::GrowtLike<> m(keys * 8);
    growt_insdel = insdel_tput(m, 0, threads, secs, 1);
    print_row("fig01", "GrowT/insdel", threads, growt_insdel, "Mreq/s");
  }
  if (args.map_enabled("folly")) {
    baselines::FollyLike<> m(keys * 4);
    workload::populate(m, keys);
    print_row("fig01", "Folly/get", threads,
              get_tput(m, keys, threads, secs, 1), "Mreq/s");
  }
  if (args.map_enabled("dramhit")) {
    baselines::DramhitLike<> m(keys * 4);
    workload::populate(m, keys);
    dramhit_get = get_tput(m, keys, threads, secs, kDefaultBatch);
    print_row("fig01", "DRAMHiT/get", threads, dramhit_get, "Mreq/s");
  }
  if (args.map_enabled("mica")) {
    baselines::MicaLike<> m(keys / 4 + 16);
    workload::populate(m, keys);
    print_row("fig01", "MICA/get", threads,
              get_tput(m, keys, threads, secs, kDefaultBatch), "Mreq/s");
  }
  if (args.map_enabled("mica")) {
    baselines::MicaLike<> m(keys / 4 + 16);
    print_row("fig01", "MICA/insdel", threads,
              insdel_tput(m, 0, threads, secs, 1), "Mreq/s");
  }
  if (args.map_enabled("cuckoo")) {
    baselines::CuckooLike<> m(keys * 2);
    workload::populate(m, keys);
    print_row("fig01", "Cuckoo/get", threads,
              get_tput(m, keys, threads, secs, 1), "Mreq/s");
  }
  if (args.map_enabled("leapfrog")) {
    baselines::LeapfrogLike<> m(keys * 4);
    workload::populate(m, keys);
    print_row("fig01", "Leapfrog/get", threads,
              get_tput(m, keys, threads, secs, 1), "Mreq/s");
  }
  // Robin Hood at 50% load: its comfort zone, and the batched Get path
  // engages its prefetch pipeline (it satisfies DlhtLikeMap).
  if (args.map_enabled("rh")) {
    baselines::RobinHoodMap<> m(keys * 2);
    workload::populate(m, keys);
    rh_get = get_tput(m, keys, threads, secs, kDefaultBatch);
    print_row("fig01", "RobinHood/get", threads, rh_get, "Mreq/s");
  }
  if (args.map_enabled("rh")) {
    baselines::RobinHoodMap<> m(keys * 2);
    print_row("fig01", "RobinHood/insdel", threads,
              insdel_tput(m, 0, threads, secs, kDefaultBatch), "Mreq/s");
  }
  // Maged-Michael at one expected node per bucket: deletes really free.
  if (args.map_enabled("mm")) {
    baselines::MagedMichaelMap<> m(keys);
    workload::populate(m, keys);
    mm_get = get_tput(m, keys, threads, secs, kDefaultBatch);
    print_row("fig01", "MagedMichael/get", threads, mm_get, "Mreq/s");
  }
  if (args.map_enabled("mm")) {
    baselines::MagedMichaelMap<> m(keys);
    print_row("fig01", "MagedMichael/insdel", threads,
              insdel_tput(m, 0, threads, secs, kDefaultBatch), "Mreq/s");
  }

  if (args.map_enabled("dlht") && args.map_enabled("dramhit")) {
    check_shape("DLHT Gets beat DRAMHiT Gets", dlht_get > dramhit_get);
  }
  if (args.map_enabled("dlht") && args.map_enabled("growt")) {
    check_shape("DLHT InsDel >> GrowT InsDel (tombstone collapse)",
                dlht_insdel > 2.0 * growt_insdel);
  }
  if (args.map_enabled("dlht") && args.map_enabled("rh")) {
    check_shape("DLHT Gets beat Robin Hood Gets", dlht_get > rh_get);
  }
  if (args.map_enabled("dlht") && args.map_enabled("mm")) {
    check_shape("DLHT Gets beat Maged-Michael Gets (inline vs chase)",
                dlht_get > mm_get);
  }
  return 0;
}
