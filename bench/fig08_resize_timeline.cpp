// Figure 8: Gets, Inserts, and a non-blocking resize over time.
//
// Half the threads populate the table until it outgrows its index (forcing
// at least one full shadow-table migration) while the other half
// continuously Get prepopulated keys. Throughput is sampled in fixed time
// buckets. Paper shape: Gets keep completing during the transfer (dipping,
// not stalling, as redirected probes pay the old+new lookup) and recover
// once the transfer completes; Inserts stall only for the threads that
// become migration helpers.
//
// Exits nonzero if no resize completed — that would mean the bench is not
// measuring what it claims.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t prepop = args.keys / 2;
  const std::uint64_t target = args.keys * 2;
  print_header("fig08", "Get/Insert throughput timeline across a live resize");

  // Size the index so `prepop` sits under the load-factor trigger but
  // `target` (4x prepop) forces at least one full migration mid-run.
  InlinedMap m(apply_env_knobs(Options{.initial_bins = args.keys / 3 + 64,
                                       .link_ratio = 0.125,
                                       .resize_chunk_bins = 4096}));
  workload::populate(m, prepop);

  constexpr int kBucketMs = 25;
  constexpr int kMaxBuckets = 4000;
  static std::atomic<std::uint64_t> gets[kMaxBuckets];
  static std::atomic<std::uint64_t> inserts[kMaxBuckets];
  std::atomic<bool> stop{false};
  const std::uint64_t t0 = now_ns();
  auto bucket_of_now = [&t0] {
    const auto b = static_cast<int>((now_ns() - t0) / (kBucketMs * 1000000ULL));
    return b < kMaxBuckets ? b : kMaxBuckets - 1;
  };

  std::vector<std::thread> threads;
  const int readers = 2, writers = 2;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      UniformGenerator gen(prepop, splitmix64(r + 1));
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t done = 0;
        for (int i = 0; i < 256; ++i) {
          done += m.get(gen.next() + 1).has_value();
        }
        gets[bucket_of_now()].fetch_add(done, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t k = prepop + 1 + static_cast<std::uint64_t>(w);
      while (k <= target) {
        std::uint64_t done = 0;
        for (int i = 0; i < 256 && k <= target; ++i, k += writers) {
          done += m.insert(k, k);
        }
        inserts[bucket_of_now()].fetch_add(done, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < writers; ++w) threads[readers + w].join();
  stop = true;
  for (int r = 0; r < readers; ++r) threads[r].join();

  const int last = bucket_of_now();
  std::uint64_t min_gets = ~0ULL;
  for (int b = 0; b <= last; ++b) {
    const double secs = kBucketMs / 1000.0;
    print_row("fig08", "Gets", b * kBucketMs,
              static_cast<double>(gets[b].load()) / secs / 1e6, "Mreq/s");
    print_row("fig08", "Inserts", b * kBucketMs,
              static_cast<double>(inserts[b].load()) / secs / 1e6, "Mreq/s");
    if (b > 0 && b < last) min_gets = std::min(min_gets, gets[b].load());
  }
  std::printf("# resizes completed: %llu, final bins: %zu\n",
              static_cast<unsigned long long>(m.resizes_completed()),
              m.bins());
  check_shape("Gets never fully stalled during the migration",
              last < 2 || min_gets > 0);
  if (m.resizes_completed() < 1) {
    std::fprintf(stderr, "fig08: no resize completed — bench invalid\n");
    return 1;
  }
  return 0;
}
