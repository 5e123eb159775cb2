// Shrink timeline: Gets, Deletes, and non-blocking *downward* resizes
// over time — fig08's mirror image for the delete-heavy aftermath the
// paper's InsDel/OLTP churn scenarios leave behind.
//
// The table is populated to its high-water geometry, then two writers
// delete 15/16 of the keys while two readers continuously Get the
// surviving 1/16. Occupancy falling through Options::min_load_factor
// triggers cooperative shadow migrations into smaller instances (the
// same machinery as growth: migrated-bit redirects, force-chained
// destination overflow, epoch-retired sources). Throughput and the live
// bin count are sampled in fixed time buckets.
//
// Expected shape: stats().bins steps down from the high-water mark after
// the delete phase while Gets keep completing in every bucket (dipping,
// not stalling, while redirected probes pay the old+new lookup) and
// every surviving key stays readable throughout.
//
// Exits nonzero if no shrink completed — then the bench measured nothing.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  print_header("fig_shrink",
               "Get/Delete throughput timeline across live shrinks");

  // Populated occupancy sits just under the grow trigger (no growth noise);
  // the delete phase then falls through min_load_factor and cascades down.
  Options o;
  o.initial_bins = keys / 2;  // pow2-ceil ≤ 2/3 load after populate
  o.link_ratio = 0.125;
  o.resize_chunk_bins = 1024;
  o.min_load_factor = 0.2;
  InlinedMap m(apply_env_knobs(o));
  workload::populate(m, keys);
  const std::size_t high_bins = m.stats().bins;

  constexpr int kBucketMs = 10;
  constexpr int kMaxBuckets = 4000;
  static std::atomic<std::uint64_t> gets[kMaxBuckets];
  static std::atomic<std::uint64_t> deletes[kMaxBuckets];
  static std::atomic<std::size_t> bins_seen[kMaxBuckets];
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_errors{0};
  const std::uint64_t t0 = now_ns();
  auto bucket_of_now = [&t0] {
    const auto b = static_cast<int>((now_ns() - t0) / (kBucketMs * 1000000ULL));
    return b < kMaxBuckets ? b : kMaxBuckets - 1;
  };

  // Keys with k % 16 == 1 survive the delete phase; readers only ask for
  // those, so every Get must hit (a miss is a correctness error, not
  // noise) and must hit *throughout* the migrations.
  const std::uint64_t survivors = keys / 16;
  std::vector<std::thread> threads;
  const int readers = 2, writers = 2;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      UniformGenerator gen(survivors, splitmix64(r + 1));
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t done = 0, bad = 0;
        // Small credit batches: a batch straddling a bucket boundary can
        // only under-credit one bucket by 64 ops, not 256.
        for (int i = 0; i < 64; ++i) {
          const std::uint64_t k = 16 * gen.next() + 1;
          const auto v = m.get(k);
          if (v.has_value() && *v == k) {
            ++done;
          } else {
            ++bad;
          }
        }
        gets[bucket_of_now()].fetch_add(done, std::memory_order_relaxed);
        if (bad != 0) read_errors.fetch_add(bad, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      const std::uint64_t lo = w * (keys / writers) + 1;
      const std::uint64_t hi = (w + 1) * (keys / writers);
      std::uint64_t done = 0;
      for (std::uint64_t k = lo; k <= hi; ++k) {
        if (k % 16 == 1) continue;  // survivor
        done += m.erase(k) ? 1 : 0;
        if ((k & 255u) == 0) {
          deletes[bucket_of_now()].fetch_add(done, std::memory_order_relaxed);
          done = 0;
        }
      }
      deletes[bucket_of_now()].fetch_add(done, std::memory_order_relaxed);
    });
  }

  // Sample the live geometry while the phases run.
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      bins_seen[bucket_of_now()].store(m.stats().bins,
                                       std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(kBucketMs / 2));
    }
  });

  for (int w = 0; w < writers; ++w) threads[readers + w].join();
  // Settle: a shrink the deleters triggered but did not finish would stall
  // with no writers left (writers are the migration workforce). Erasing an
  // absent key routes through writer_table() and helps migrate without
  // touching the size counters, so in-flight shrinks complete and the
  // reported final geometry is stable.
  const std::uint64_t settle_deadline = now_ns() + 500'000'000ULL;
  for (std::uint64_t s = m.shrinks_completed();;) {
    for (int i = 0; i < 256; ++i) m.erase(0);
    const std::uint64_t cur = m.shrinks_completed();
    if (cur == s || now_ns() > settle_deadline) break;
    s = cur;
  }
  stop = true;
  for (int r = 0; r < readers; ++r) threads[r].join();
  sampler.join();

  const auto final_stats = m.stats();
  const int last = bucket_of_now();
  // A genuinely blocked Get path blanks a long run of buckets; one empty
  // 10ms bucket between live neighbors is scheduler noise on a loaded
  // (shared-CI) box, not a stall — tolerate exactly that.
  int max_zero_run = 0, zero_run = 0;
  std::size_t prev_bins = high_bins;
  for (int b = 0; b <= last; ++b) {
    const double secs = kBucketMs / 1000.0;
    print_row("fig_shrink", "Gets", b * kBucketMs,
              static_cast<double>(gets[b].load()) / secs / 1e6, "Mreq/s");
    print_row("fig_shrink", "Deletes", b * kBucketMs,
              static_cast<double>(deletes[b].load()) / secs / 1e6, "Mreq/s");
    std::size_t bins = bins_seen[b].load();
    if (bins == 0) bins = prev_bins;  // bucket shorter than the sample period
    prev_bins = bins;
    print_row("fig_shrink", "bins", b * kBucketMs,
              static_cast<double>(bins), "buckets");
    if (b > 0 && b < last) {
      zero_run = gets[b].load() == 0 ? zero_run + 1 : 0;
      max_zero_run = std::max(max_zero_run, zero_run);
    }
  }
  std::printf(
      "# shrinks completed: %llu, bins %zu -> %zu, reclaimed %zu bins + %zu "
      "link buckets, %lld keys left\n",
      static_cast<unsigned long long>(m.shrinks_completed()), high_bins,
      final_stats.bins, final_stats.bins_reclaimed,
      final_stats.links_reclaimed,
      static_cast<long long>(m.approx_size()));

  check_shape("bins drop from the high-water mark after the delete phase",
              final_stats.bins < high_bins);
  check_shape("Gets never fully stalled during the shrink",
              last < 2 || max_zero_run <= 1);
  check_shape("every surviving key stayed readable",
              read_errors.load() == 0);
  if (m.shrinks_completed() < 1) {
    std::fprintf(stderr, "fig_shrink: no shrink completed — bench invalid\n");
    return 1;
  }
  return 0;
}
