// Figure 19: multi-key OLTP transactions — TATP (read-intensive) and
// Smallbank (write-intensive) — vs threads.
//
// Paper shape: both scale with threads; TATP outperforms Smallbank (fewer
// updates, fewer write-backs). Populations scale with --keys by default;
// DLHT_BENCH_SCALE=paper pins them to the paper's own 1M subscribers /
// 10M accounts regardless of --keys.
#include "apps/smallbank.hpp"
#include "apps/tatp.hpp"
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const double secs = args.seconds();
  const std::uint64_t subscribers =
      paper_scale() ? kPaperSubscribers
                    : std::max<std::uint64_t>(args.keys / 8, 1000);
  const std::uint64_t accounts =
      paper_scale() ? kPaperAccounts
                    : std::max<std::uint64_t>(args.keys / 4, 1000);
  // TATP keeps 4 rows per subscriber, Smallbank 2 per account; the bins
  // below dominate the footprint. The blocks run sequentially, so guard on
  // the larger of the two tables.
  require_memory_or_die(
      "fig19", std::max<std::uint64_t>(subscribers * 4 * 64 + subscribers * 64,
                                       accounts * 2 * 64 + accounts * 64));
  print_header("fig19", "TATP + Smallbank transactions/s vs threads");

  double tatp_peak = 0, smallbank_peak = 0;

  {
    apps::Tatp tatp(apps::Tatp::Config{
        .subscribers = subscribers,
        .initial_bins = static_cast<std::size_t>(subscribers * 4)});
    for (const int t : args.threads_list) {
      const double v = run_tput(t, secs, [&tatp](int tid) {
        return [&tatp, rng = Xoshiro256(splitmix64(tid + 1)),
                c = apps::Tatp::Counters{}]() mutable {
          for (int i = 0; i < 32; ++i) tatp.run_one(rng, c);
          return std::uint64_t{32};
        };
      });
      tatp_peak = std::max(tatp_peak, v);
      print_row("fig19", "TATP", t, v, "Mtxn/s");
    }
  }
  {
    apps::Smallbank bank(apps::Smallbank::Config{
        .accounts = accounts,
        .initial_bins = static_cast<std::size_t>(accounts * 2)});
    for (const int t : args.threads_list) {
      const double v = run_tput(t, secs, [&bank](int tid) {
        return [&bank, rng = Xoshiro256(splitmix64(tid + 9)),
                c = apps::Smallbank::Counters{}]() mutable {
          for (int i = 0; i < 32; ++i) bank.run_one(rng, c);
          return std::uint64_t{32};
        };
      });
      smallbank_peak = std::max(smallbank_peak, v);
      print_row("fig19", "Smallbank", t, v, "Mtxn/s");
    }
  }

  check_shape("read-intensive TATP beats write-intensive Smallbank",
              tatp_peak > smallbank_peak);
  return 0;
}
