// Figure 16: single-thread operation (§3.4.5).
//
// The paper's single-thread build swaps atomics for plain stores; this
// reproduction runs the concurrent build on one thread — x86 keeps its
// uncontended atomics cheap — and asks the question the figure answers for
// practitioners: is one DLHT thread at least as fast as the simplest
// correct alternative (a mutex-protected std::unordered_map)? Batched DLHT
// additionally shows that the prefetch pipeline pays off even with no
// concurrency in sight. The strong opponents get the same three rows:
// with zero contention their synchronization is nearly free, so this is
// their best-case showing.
#include <map>
#include <string>
#include <type_traits>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const double secs = args.seconds();
  const DesignNames field = {"dlht", "locked", "rh", "mm"};
  guard_comparison_rss(args, "fig16", field);
  print_header("fig16", "single-thread DLHT vs locked std::unordered_map");

  std::map<std::string, double> v;  // by series
  const auto row = [&](const std::string& series, double mreqs) {
    v[series] = mreqs;
    print_row("fig16", series, 1, mreqs, "Mreq/s");
  };
  run_designs(args, field, keys, keys, [&](const auto& d, auto& m) {
    constexpr bool kDlht = std::is_same_v<std::decay_t<decltype(m)>, DLHT>;
    const std::string label = d.label;
    row(label + "/Get",
        run_tput(1, secs, workload::make_get_worker(m, keys, 3)));
    if constexpr (kDlht) {
      row("DLHT-Batched/Get",
          run_tput(1, secs, workload::make_get_batch_worker(
                                m, keys, kDefaultBatch, 3)));
    }
    row(label + "/PutHeavy",
        run_tput(1, secs, workload::make_putheavy_worker(m, keys, 5)));
    row(label + "/InsDel",
        run_tput(1, secs, workload::make_insdel_worker(m, keys, 1)));
    if constexpr (kDlht) {
      row("DLHT-Batched/InsDel",
          run_tput(1, secs, workload::make_insdel_batch_worker(
                                m, keys, 1, kDefaultBatch)));
    }
  });

  if (args.map_enabled("dlht") && args.map_enabled("locked")) {
    print_row("fig16", "DLHT-vs-Locked/Get", 1,
              v["DLHT/Get"] / v["Locked/Get"], "x");
    print_row("fig16", "DLHT-vs-Locked/InsDel", 1,
              v["DLHT/InsDel"] / v["Locked/InsDel"], "x");

    check_shape("single-thread DLHT Get >= locked baseline",
                v["DLHT/Get"] >= v["Locked/Get"]);
    check_shape("single-thread DLHT PutHeavy >= locked baseline",
                v["DLHT/PutHeavy"] >= v["Locked/PutHeavy"]);
    // The scalar InsDel window is cache-resident, where the locked map's
    // node cache is competitive — the batched pipeline is DLHT's answer.
    check_shape("single-thread batched DLHT InsDel >= locked baseline",
                v["DLHT-Batched/InsDel"] >= v["Locked/InsDel"]);
    check_shape("single-thread scalar DLHT InsDel >= locked baseline",
                v["DLHT/InsDel"] >= v["Locked/InsDel"]);
  }
  if (args.map_enabled("dlht")) {
    check_shape("batching still helps a single thread (DRAM-resident)",
                v["DLHT-Batched/Get"] > v["DLHT/Get"]);
  }
  return 0;
}
