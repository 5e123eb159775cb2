// Churn across forced online resizes: concurrent Put/Delete/Get while the
// table migrates through at least two shadow-table generations, then a
// full-content audit proving no key was lost or duplicated.
//
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

// Values encode the key so readers can detect torn/stale slots, and the
// low bit flags "updated by put" vs "freshly inserted".
constexpr std::uint64_t val_of(std::uint64_t k, bool updated) {
  return (k << 2) | 1u | (updated ? 2u : 0u);
}

void churn_across_resizes() {
  std::puts("churn_across_resizes");
  Options o;
  o.initial_bins = 512;        // tiny so growth crosses >= 2 resizes fast
  o.link_ratio = 0.25;
  o.resize_chunk_bins = 64;    // small chunks: many threads help migrate
  InlinedMap m(o);

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kStripe = 1u << 20;  // per-writer key namespace
  std::atomic<int> failures{0};
  std::atomic<bool> stop_readers{false};
  // Writers publish how far their stripe has deterministically advanced:
  // keys below the floor are settled (present with a known value).
  std::atomic<std::uint64_t> settled[kWriters] = {};

  auto writer = [&](int tid) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * kStripe;
    std::uint64_t next = 0;  // next un-inserted offset in this stripe
    Xoshiro256 rng(splitmix64(1000 + tid));
    // Keep churning until the table has been through >= 2 full migrations,
    // with a hard cap so a bug cannot hang the test.
    for (int round = 0; round < 4000; ++round) {
      // Insert a burst of fresh keys.
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t k = base + next++;
        if (!m.insert(k, val_of(k, false))) failures.fetch_add(1);
      }
      // Delete then reinsert a window inside the settled region, and
      // update another window with puts — real slot churn, not append-only.
      if (next > 256) {
        const std::uint64_t w = rng.next_below(next - 128);
        for (int i = 0; i < 32; ++i) {
          const std::uint64_t k = base + w + i;
          if (!m.erase(k)) failures.fetch_add(1);
          if (m.get(k).has_value()) failures.fetch_add(1);
          if (!m.insert(k, val_of(k, false))) failures.fetch_add(1);
        }
        const std::uint64_t u = rng.next_below(next - 128);
        for (int i = 0; i < 32; ++i) {
          const std::uint64_t k = base + u + i;
          if (!m.put(k, val_of(k, true))) failures.fetch_add(1);
        }
      }
      settled[tid].store(next, std::memory_order_release);
      if (m.resizes_completed() >= 2 && round >= 64) break;
    }
  };

  auto reader = [&] {
    Xoshiro256 rng(splitmix64(77));
    std::vector<std::uint64_t> ks(32);
    std::vector<InlinedMap::Reply> out(32);
    while (!stop_readers.load(std::memory_order_relaxed)) {
      for (auto& k : ks) {
        const int t = static_cast<int>(rng.next_below(kWriters));
        const std::uint64_t lim = settled[t].load(std::memory_order_acquire);
        if (lim == 0) {
          k = 1;  // stripe 0 key 0 may not exist yet; value still checked
          continue;
        }
        k = 1 + static_cast<std::uint64_t>(t) * kStripe + rng.next_below(lim);
      }
      m.get_batch(ks.data(), out.data(), ks.size());
      for (std::size_t i = 0; i < ks.size(); ++i) {
        // A settled key is either mid-churn (briefly absent) or must carry
        // its own encoding — any other value is a torn/stale read.
        if (out[i].status == Status::kOk &&
            (out[i].value >> 2) != ks[i]) {
          failures.fetch_add(1);
        }
      }
      // Scalar gets interleaved so both read paths cross the migration.
      const std::uint64_t k = ks[0];
      const auto v = m.get(k);
      if (v && (*v >> 2) != k) failures.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) writers.emplace_back(writer, t);
  for (auto& t : writers) t.join();
  stop_readers.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  CHECK(failures.load() == 0);
  CHECK(m.resizes_completed() >= 2);

  // Audit: every settled key present exactly once with a sane value, and
  // the table holds not one entry more (no duplicated keys across the old
  // and new instances, no leftovers from the delete/reinsert churn).
  std::uint64_t expected = 0;
  for (int t = 0; t < kWriters; ++t) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kStripe;
    const std::uint64_t lim = settled[t].load();
    expected += lim;
    for (std::uint64_t i = 0; i < lim; ++i) {
      const auto v = m.get(base + i);
      if (!v || (*v >> 2) != base + i) {
        failures.fetch_add(1);
      }
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

  std::printf("  %llu keys audited across %llu resizes (final bins %zu)\n",
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(m.resizes_completed()),
              m.bins());
}

// A single-thread forced march through many generations: every key from
// every generation must survive every later migration.
void sequential_growth() {
  std::puts("sequential_growth");
  Options o;
  o.initial_bins = 64;
  o.resize_chunk_bins = 16;
  InlinedMap m(o);
  constexpr std::uint64_t kN = 60000;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    if (!m.insert(k, k * 7 + 1)) {
      CHECK(false);
      break;
    }
    // Spot-check old keys while migration states churn underneath.
    if ((k & 1023) == 0) {
      for (std::uint64_t p = 1; p <= k; p += k / 7 + 1) {
        CHECK(m.get(p).value_or(0) == p * 7 + 1);
      }
    }
  }
  CHECK(m.resizes_completed() >= 2);
  for (std::uint64_t k = 1; k <= kN; ++k) {
    CHECK(m.get(k).value_or(0) == k * 7 + 1);
  }
  std::uint64_t walked = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++walked; });
  CHECK(walked == kN);
}

// The resizes_completed() counter and Options::growth_factor: the counter
// ticks once per completed migration, a larger factor reaches the same
// capacity in strictly fewer migrations, and grow_now() forces exactly one
// more.
void growth_factor_policy() {
  std::puts("growth_factor_policy");
  constexpr std::uint64_t kN = 50000;

  std::uint64_t counts[3] = {0, 0, 0};
  const std::size_t factors[3] = {2, 4, 8};
  for (int i = 0; i < 3; ++i) {
    Options o;
    o.initial_bins = 64;
    o.growth_factor = factors[i];
    InlinedMap m(o);
    CHECK(m.resizes_completed() == 0);
    for (std::uint64_t k = 1; k <= kN; ++k) {
      if (!m.insert(k, k)) CHECK(false);
    }
    CHECK(m.resizes_completed() >= 1);  // 64 bins cannot hold 50K keys
    // Capacity reached: the table holds everything it was fed.
    CHECK(m.approx_size() == static_cast<std::int64_t>(kN));
    for (std::uint64_t k = 1; k <= kN; k += 997) {
      CHECK(m.get(k).value_or(0) == k);
    }
    counts[i] = m.resizes_completed();

    // grow_now() forces exactly one more migration and keeps every key.
    const std::uint64_t before = m.resizes_completed();
    const std::size_t bins_before = m.bins();
    m.grow_now();
    CHECK(m.resizes_completed() == before + 1);
    CHECK(m.bins() > bins_before);
    for (std::uint64_t k = 1; k <= kN; k += 997) {
      CHECK(m.get(k).value_or(0) == k);
    }
  }
  // x4 needs strictly fewer migrations than x2, x8 no more than x4.
  CHECK(counts[1] < counts[0]);
  CHECK(counts[2] <= counts[1]);
}

// A full grow -> shrink -> grow round trip on one table: both direction
// counters advance independently, approx_size stays exact at every phase
// boundary, and no key is lost crossing migrations in either direction.
void grow_shrink_grow_cycle() {
  std::puts("grow_shrink_grow_cycle");
  Options o;
  o.initial_bins = 256;
  o.resize_chunk_bins = 64;
  o.min_load_factor = 0.2;  // automatic shrinking on
  InlinedMap m(o);

  // Phase 1 — grow: 20K keys cannot fit in 256 bins.
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    if (!m.insert(k, k * 3 + 1)) CHECK(false);
  }
  const std::uint64_t grows1 = m.resizes_completed();
  CHECK(grows1 >= 1);
  CHECK(m.shrinks_completed() == 0);
  CHECK(m.approx_size() == static_cast<std::int64_t>(kN));
  const std::size_t high_bins = m.bins();

  // Phase 2 — shrink: drain to 500 survivors; the erase-side trigger
  // cascades downward migrations, erases themselves doing the helping.
  constexpr std::uint64_t kKeep = 500;
  for (std::uint64_t k = kKeep + 1; k <= kN; ++k) {
    if (!m.erase(k)) CHECK(false);
  }
  CHECK(m.shrinks_completed() >= 1);
  CHECK(m.bins() < high_bins);
  CHECK(m.approx_size() == static_cast<std::int64_t>(kKeep));
  // shrink_now() deterministically lands one more completed shrink even
  // if the final cascade was still mid-flight when the erases ran out.
  const std::uint64_t shrinks_before = m.shrinks_completed();
  const std::size_t bins_before = m.bins();
  m.shrink_now();
  CHECK(m.shrinks_completed() == shrinks_before + 1);
  CHECK(m.bins() <= bins_before);
  for (std::uint64_t k = 1; k <= kKeep; ++k) {
    CHECK(m.get(k).value_or(0) == k * 3 + 1);
  }
  CHECK(m.approx_size() == static_cast<std::int64_t>(kKeep));
  // Every shrink descended from the phase-1 high-water geometry, so the
  // cumulative reclaim must equal the distance travelled down.
  const auto s = m.stats();
  CHECK(s.bins_reclaimed == high_bins - m.bins());
  CHECK(s.links_reclaimed > 0);

  // Phase 3 — grow again: the shrunken table takes a fresh wave of
  // inserts and the grow counter advances past its phase-1 value.
  for (std::uint64_t k = kN + 1; k <= 2 * kN; ++k) {
    if (!m.insert(k, k * 3 + 1)) CHECK(false);
  }
  CHECK(m.resizes_completed() > grows1);
  CHECK(m.approx_size() == static_cast<std::int64_t>(kKeep + kN));
  for (std::uint64_t k = kN + 1; k <= 2 * kN; k += 997) {
    CHECK(m.get(k).value_or(0) == k * 3 + 1);
  }
  std::uint64_t walked = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++walked; });
  CHECK(walked == kKeep + kN);
  std::printf("  %llu grows + %llu shrinks, bins %zu high-water -> %zu\n",
              static_cast<unsigned long long>(m.resizes_completed()),
              static_cast<unsigned long long>(m.shrinks_completed()), high_bins,
              m.bins());
}

}  // namespace

int main() {
  sequential_growth();
  growth_factor_policy();
  grow_shrink_grow_cycle();
  churn_across_resizes();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all resize churn tests passed");
  return 0;
}
