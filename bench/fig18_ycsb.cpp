// Figure 18: YCSB single-key mixes (A, B, C, F) vs threads.
//
// Paper shape: all mixes scale with threads; update-only F peaks at about
// half of read-only C (every accessed line is dirtied and written back).
#include "apps/ycsb.hpp"
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const double secs = args.seconds();
  // Single DLHT table; the paper profile's 100M-key population is ~5 GB
  // of table, so refuse up front on a small box rather than OOM mid-run.
  guard_comparison_rss(args, "fig18", {"dlht"});
  print_header("fig18", "YCSB mixes vs threads");

  InlinedMap m(dlht_options(keys));
  workload::populate(m, keys);

  double c_peak = 0, f_peak = 0;
  for (const auto mix :
       {apps::YcsbMix::kA, apps::YcsbMix::kB, apps::YcsbMix::kC,
        apps::YcsbMix::kF}) {
    for (const int t : args.threads_list) {
      const double v =
          run_tput(t, secs, apps::make_ycsb_worker(m, mix, keys, 5));
      print_row("fig18", std::string(apps::ycsb_name(mix)), t, v, "Mreq/s");
      if (mix == apps::YcsbMix::kC) c_peak = std::max(c_peak, v);
      if (mix == apps::YcsbMix::kF) f_peak = std::max(f_peak, v);
    }
  }

  check_shape("read-only C beats update-only F", c_peak > f_peak);
  return 0;
}
