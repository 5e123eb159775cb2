// Figure 17: database lock manager over DLHT's HashSet (§5.3.3).
//
// Each "transaction" locks 8 records in canonical order via an ordered
// batch, then unlocks them. Paper shape: batched locking scales to ~1.5B
// locks/s on their box and is up to 2.2x the unbatched path.
#include <algorithm>

#include "apps/lock_manager.hpp"
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t records = args.keys;
  const double secs = args.seconds();
  constexpr std::size_t kLocksPerTxn = 8;
  print_header("fig17", "lock manager over HashSet: locks+unlocks/s");

  apps::LockManager lm(dlht_options(records));

  double batched_peak = 0, nobatch_peak = 0;

  // Each transaction locks kLocksPerTxn RANDOM records in canonical
  // (sorted) order — the 2PL pattern. Random records make the lock table
  // memory-resident per access, which is what the batch prefetch hides.
  auto fill_sorted_random = [records](UniformGenerator& gen,
                                      std::vector<std::uint64_t>& recs) {
    (void)records;
    for (auto& r : recs) r = gen.next();
    std::sort(recs.begin(), recs.end());
    recs.erase(std::unique(recs.begin(), recs.end()), recs.end());
  };

  for (const int t : args.threads_list) {
    const double v = run_tput(t, secs, [&lm, records, t,
                                        &fill_sorted_random](int tid) {
      return [session = apps::LockManager::Session(lm),
              gen = UniformGenerator(records, splitmix64(tid * 31 + t)),
              recs = std::vector<std::uint64_t>(kLocksPerTxn),
              &fill_sorted_random]() mutable {
        recs.resize(kLocksPerTxn);
        fill_sorted_random(gen, recs);
        if (session.lock_all(recs)) session.unlock_all(recs);
        return std::uint64_t{2 * kLocksPerTxn};
      };
    });
    batched_peak = std::max(batched_peak, v);
    print_row("fig17", "DLHT(batched)", t, v, "Mlock-ops/s");
  }

  for (const int t : args.threads_list) {
    const double v = run_tput(t, secs, [&lm, records, t,
                                        &fill_sorted_random](int tid) {
      return [&lm, gen = UniformGenerator(records, splitmix64(tid * 77 + t)),
              recs = std::vector<std::uint64_t>(kLocksPerTxn),
              &fill_sorted_random]() mutable {
        recs.resize(kLocksPerTxn);
        fill_sorted_random(gen, recs);
        std::size_t got = 0;
        for (const std::uint64_t r : recs) {
          if (!lm.lock(r)) break;
          ++got;
        }
        for (std::size_t i = 0; i < got; ++i) lm.unlock(recs[i]);
        return std::uint64_t{2 * kLocksPerTxn};
      };
    });
    nobatch_peak = std::max(nobatch_peak, v);
    print_row("fig17", "DLHT-NoBatch", t, v, "Mlock-ops/s");
  }

  check_shape("batched locking beats unbatched", batched_peak > nobatch_peak);
  return 0;
}
