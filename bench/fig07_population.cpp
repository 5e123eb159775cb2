// Figure 7: average population throughput — inserting N keys into an
// initially small index that grows on demand — vs threads.
//
// Paper shape: DLHT's parallel non-blocking resize keeps population
// scaling with threads, while a blocking-resize design (GrowT/CLHT class)
// serializes on its stop-the-world rehash and flatlines. The CLHT stand-in
// here grows by chaining (its bins never split), the BlockingGrow baseline
// rehashes serially under an exclusive lock.
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;  // paper: 800M; scaled here
  print_header("fig07", "population of a growing index vs threads");

  double dlht_last = 0, blocking_last = 0, clht_last = 0;

  // DLHT populates through its batch API (the default configuration):
  // prefetches the bins of 24 pending inserts and amortizes migration
  // helping across the batch.
  for (const int t : args.threads_list) {
    InlinedMap m(apply_env_knobs(Options{.initial_bins = 1024,
                                           .link_ratio = 0.125}));
    const std::uint64_t per = keys / static_cast<std::uint64_t>(t);
    const double secs = workload::run_once(t, [&m, per](int tid) {
      return [&m, per, tid] {
        constexpr std::size_t kB = 24;
        InlinedMap::Request reqs[kB];
        InlinedMap::Reply reps[kB];
        const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * per;
        std::uint64_t i = 0;
        while (i < per) {
          const std::size_t n =
              per - i < kB ? static_cast<std::size_t>(per - i) : kB;
          for (std::size_t j = 0; j < n; ++j) {
            reqs[j] = {OpType::kInsert, base + i + j, i + j, 0};
          }
          m.execute_batch(reqs, reps, n);
          i += n;
        }
      };
    });
    const double v =
        static_cast<double>(per) * static_cast<double>(t) / secs / 1e6;
    dlht_last = v;  // value at the highest thread count survives the loop
    print_row("fig07", "DLHT", t, v, "Minserts/s");
  }

  for (const int t : args.threads_list) {
    InlinedMap m(apply_env_knobs(Options{.initial_bins = 1024,
                                           .link_ratio = 0.125}));
    const std::uint64_t per = keys / static_cast<std::uint64_t>(t);
    const double secs = workload::run_once(t, [&m, per](int tid) {
      return [&m, per, tid] {
        const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * per;
        for (std::uint64_t i = 0; i < per; ++i) m.insert(base + i, i);
      };
    });
    print_row("fig07", "DLHT-NoBatch", t,
              static_cast<double>(per) * static_cast<double>(t) / secs / 1e6,
              "Minserts/s");
  }

  for (const int t : args.threads_list) {
    baselines::BlockingGrowTable<> m(1024);
    const std::uint64_t per = keys / static_cast<std::uint64_t>(t);
    const double secs = workload::run_once(t, [&m, per](int tid) {
      return [&m, per, tid] {
        const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * per;
        for (std::uint64_t i = 0; i < per; ++i) m.insert(base + i, i);
      };
    });
    const double v =
        static_cast<double>(per) * static_cast<double>(t) / secs / 1e6;
    blocking_last = v;
    print_row("fig07", "BlockingGrow", t, v, "Minserts/s");
  }

  for (const int t : args.threads_list) {
    baselines::ClhtLike<> m(1024);  // grows by chaining, bins never split
    const std::uint64_t per = keys / static_cast<std::uint64_t>(t);
    const double secs = workload::run_once(t, [&m, per](int tid) {
      return [&m, per, tid] {
        const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * per;
        for (std::uint64_t i = 0; i < per; ++i) m.insert(base + i, i);
      };
    });
    const double v =
        static_cast<double>(per) * static_cast<double>(t) / secs / 1e6;
    clht_last = v;
    print_row("fig07", "CLHT-chain", t, v, "Minserts/s");
  }

  // The paper's claim is about SCALING: a blocking resize caps population
  // throughput as threads grow; compare at the highest thread count. On a
  // single-core host there is no parallelism for the blocking rehash to
  // waste, so that comparison is only asserted with real hardware threads.
  if (hardware_threads() >= 2) {
    check_shape(
        "DLHT population beats the blocking-resize design at max threads",
        dlht_last > blocking_last);
  } else {
    std::printf("# shape skip: blocking-resize comparison needs >1 hw thread"
                " (DLHT %.2f vs BlockingGrow %.2f Minserts/s)\n",
                dlht_last, blocking_last);
  }
  check_shape("DLHT population beats chain-growth CLHT at max threads",
              dlht_last > clht_last);
  return 0;
}
