// Delete-heavy churn across live *shrinking* resizes: concurrent writers
// drain their key stripes (with real delete/reinsert/put churn mixed in)
// while readers Get through at least two downward shadow-table
// migrations, then a full-content audit proves no key was lost or
// duplicated and the reclaim accounting is consistent.
//
// resize_churn_test covers the growth direction; this is its mirror.
// Runs clean under ASan/UBSan and TSan (scripts/ci.sh builds all three).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

using namespace dlht;

// Values encode the key so readers can detect torn/stale slots; the low
// bit flags "rewritten by put" vs "original".
constexpr std::uint64_t val_of(std::uint64_t k, bool updated) {
  return (k << 2) | 1u | (updated ? 2u : 0u);
}

void churn_across_shrinks() {
  std::puts("churn_across_shrinks");
  Options o;
  o.initial_bins = 32768;     // high-water geometry the drain falls from
  o.link_ratio = 0.25;
  o.resize_chunk_bins = 64;   // small chunks: many threads help migrate
  o.min_load_factor = 0.25;   // trigger: live < 0.25 * (3 * bins)
  InlinedMap m(o);

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kStripe = 1u << 20;   // per-writer key namespace
  constexpr std::uint64_t kPerWriter = 12288;   // prepopulated per stripe
  constexpr std::uint64_t kKeep = 1024;         // survivors per stripe
  std::atomic<int> failures{0};
  std::atomic<bool> stop_readers{false};

  // Prepopulate every stripe: 4 * 12288 = 49152 live entries at load
  // factor 0.5 — between the shrink trigger (0.25) and the grow trigger
  // (0.75), so the table starts resize-quiet.
  for (int t = 0; t < kWriters; ++t) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kStripe;
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      if (!m.insert(base + i, val_of(base + i, false))) failures.fetch_add(1);
    }
  }
  CHECK(failures.load() == 0);
  CHECK(m.shrinks_completed() == 0);
  const std::size_t high_bins = m.stats().bins;

  // Writers drain their stripe from the top down to kKeep survivors, with
  // delete/reinsert and put windows inside the surviving region so slot
  // churn (not just monotone removal) crosses the migrations. After the
  // drain they keep churning the survivors until >= 2 shrinks completed —
  // writers are the migration workforce, so churn is what finishes them.
  auto writer = [&](int tid) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * kStripe;
    Xoshiro256 rng(splitmix64(2000 + tid));
    std::uint64_t top = kPerWriter;  // keys [0, top) of the stripe are live
    while (top > kKeep) {
      // Delete a burst off the top of the stripe.
      for (int i = 0; i < 64 && top > kKeep; ++i) {
        const std::uint64_t k = base + --top;
        if (!m.erase(k)) failures.fetch_add(1);
        if (m.get(k).has_value()) failures.fetch_add(1);
      }
      // Churn a window inside the survivors: delete+reinsert, then puts.
      const std::uint64_t w = rng.next_below(kKeep - 32);
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t k = base + w + i;
        if (!m.erase(k)) failures.fetch_add(1);
        if (!m.insert(k, val_of(k, false))) failures.fetch_add(1);
      }
      const std::uint64_t u = rng.next_below(kKeep - 32);
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t k = base + u + i;
        if (!m.put(k, val_of(k, true))) failures.fetch_add(1);
      }
    }
    // Bounded settle churn: keep helping until two downward migrations
    // have fully completed (cap so a bug cannot hang the test).
    for (int round = 0; round < 20000 && m.shrinks_completed() < 2; ++round) {
      const std::uint64_t k = base + rng.next_below(kKeep);
      if (!m.erase(k)) failures.fetch_add(1);
      if (!m.insert(k, val_of(k, false))) failures.fetch_add(1);
    }
  };

  // Readers hammer the always-live survivor region of random stripes,
  // through both the scalar and the batched read path.
  auto reader = [&] {
    Xoshiro256 rng(splitmix64(99));
    std::vector<std::uint64_t> ks(32);
    std::vector<InlinedMap::Reply> out(32);
    while (!stop_readers.load(std::memory_order_relaxed)) {
      for (auto& k : ks) {
        const int t = static_cast<int>(rng.next_below(kWriters));
        k = 1 + static_cast<std::uint64_t>(t) * kStripe +
            rng.next_below(kKeep);
      }
      m.get_batch(ks.data(), out.data(), ks.size());
      for (std::size_t i = 0; i < ks.size(); ++i) {
        // Survivors are either mid-churn (briefly absent) or must carry
        // their own encoding — anything else is a torn/stale read.
        if (out[i].status == Status::kOk && (out[i].value >> 2) != ks[i]) {
          failures.fetch_add(1);
        }
      }
      const std::uint64_t k = ks[0];
      const auto v = m.get(k);
      if (v && (*v >> 2) != k) failures.fetch_add(1);
    }
  };

  std::vector<std::thread> rthreads;
  for (int r = 0; r < kReaders; ++r) rthreads.emplace_back(reader);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) writers.emplace_back(writer, t);
  for (auto& t : writers) t.join();
  stop_readers.store(true, std::memory_order_relaxed);
  for (auto& t : rthreads) t.join();

  CHECK(failures.load() == 0);
  CHECK(m.shrinks_completed() >= 2);

  // Audit: exactly the survivors remain — present once each with a sane
  // value, nothing lost into a retired instance, nothing duplicated
  // across generations, nothing left over from the churn windows.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWriters) * kKeep;
  for (int t = 0; t < kWriters; ++t) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kStripe;
    for (std::uint64_t i = 0; i < kKeep; ++i) {
      const auto v = m.get(base + i);
      if (!v || (*v >> 2) != base + i) failures.fetch_add(1);
    }
  }
  CHECK(failures.load() == 0);

  std::uint64_t walked = 0;
  bool values_ok = true;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++walked;
    if ((v >> 2) != k) values_ok = false;
  });
  CHECK(values_ok);
  CHECK(walked == expected);
  CHECK(m.approx_size() == static_cast<std::int64_t>(expected));

  // Reclaim accounting: the current geometry is below the high-water
  // mark and the books balance exactly — every shrink descends from the
  // high-water geometry, so the cumulative bins given back must equal the
  // distance travelled. The live generation's link pool must be a fresh
  // (small) one: if retired-pool accounting ever leaked into the new
  // instance, its capacity would rival what the retired pools returned.
  const auto s = m.stats();
  CHECK(s.bins < high_bins);
  CHECK(s.bins_reclaimed == high_bins - s.bins);
  CHECK(s.links_reclaimed > 0);
  CHECK(s.links_capacity < s.links_reclaimed);

  std::printf("  %llu survivors audited across %llu shrinks "
              "(bins %zu -> %zu, %zu bins + %zu links reclaimed)\n",
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(m.shrinks_completed()), high_bins,
              s.bins, s.bins_reclaimed, s.links_reclaimed);
}

// Single-thread forced march down through many generations via
// shrink_now(): every surviving key must outlive every migration, and the
// floor must hold (shrink_now is a no-op at minimum geometry).
void sequential_shrink() {
  std::puts("sequential_shrink");
  Options o;
  o.initial_bins = 4096;
  o.resize_chunk_bins = 16;
  InlinedMap m(o);  // min_load_factor left 0: automatic shrinking off
  constexpr std::uint64_t kN = 900;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    if (!m.insert(k, k * 7 + 1)) CHECK(false);
  }
  CHECK(m.shrinks_completed() == 0);  // auto-shrink disabled by default
  std::size_t bins = m.bins();
  while (m.bins() > 64) {
    const std::uint64_t before = m.shrinks_completed();
    m.shrink_now();
    CHECK(m.shrinks_completed() == before + 1);
    CHECK(m.bins() < bins);
    bins = m.bins();
    for (std::uint64_t k = 1; k <= kN; k += 13) {
      CHECK(m.get(k).value_or(0) == k * 7 + 1);
    }
  }
  // At the 16-bin floor shrink_now() must return without forcing anything.
  while (m.bins() > 16) m.shrink_now();
  const std::uint64_t at_floor = m.shrinks_completed();
  m.shrink_now();
  CHECK(m.shrinks_completed() == at_floor);
  CHECK(m.bins() == 16);
  std::uint64_t walked = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++walked; });
  CHECK(walked == kN);
  CHECK(m.approx_size() == static_cast<std::int64_t>(kN));
}

}  // namespace

int main() {
  sequential_shrink();
  churn_across_shrinks();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all shrink churn tests passed");
  return 0;
}
