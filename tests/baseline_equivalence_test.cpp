// Correctness tests for the bench-grade opponents. Every --map design,
// built through the bench registry (bench::kDesigns), must answer its own
// value for each populated key, miss absent keys, and give the same
// answers from its batched Get as from its scalar Get. The two strong
// from-scratch opponents (baselines::RobinHoodMap,
// baselines::MagedMichaelMap) also get the dlht_test scalar/batch matrix
// plus the cases that are specifically theirs — Robin Hood's
// backward-shift deletes and bounded-probe refusal, and Maged-Michael's
// reclamation-under-readers. The benches treat these maps as real
// competitors, so they get the same no-framework CHECK treatment as the
// core table; ci.sh runs this under ASan/UBSan and (mm-only, via
// DLHT_TEST_MAPS=mm) under TSan.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "workload/mixes.hpp"

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

static_assert(workload::DlhtLikeMap<baselines::RobinHoodMap<>>);
static_assert(workload::DlhtLikeMap<baselines::MagedMichaelMap<>>);

/// DLHT_TEST_MAPS, a comma list of --map names, restricts the run (TSan
/// covers mm only: the Robin Hood readers are optimistic seqlock loops, a
/// pattern TSan flags by design even though every racing word is atomic).
bool map_selected(const char* name) {
  const char* env = std::getenv("DLHT_TEST_MAPS");
  if (env == nullptr || *env == '\0') return true;
  const std::string list(env);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (list.compare(pos, end - pos, name) == 0) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

/// Answers of one batch of Gets through the design's own batching
/// mechanism: a DLHT-like get_batch, DRAMHiT's kFind batch or MICA's
/// two-stage get_batch. False when the design has none.
template <class M>
bool batched_get(M& m, const std::vector<std::uint64_t>& ks,
                 std::vector<std::optional<std::uint64_t>>& out) {
  const std::size_t n = ks.size();
  if constexpr (workload::DlhtLikeMap<M>) {
    std::vector<typename M::Reply> r(n);
    m.get_batch(ks.data(), r.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = r[i].status == Status::kOk
                   ? std::optional<std::uint64_t>(r[i].value)
                   : std::nullopt;
    }
  } else if constexpr (requires { M::Op::kFind; }) {
    std::vector<typename M::Request> rq(n);
    std::vector<typename M::Reply> rp(n);
    for (std::size_t i = 0; i < n; ++i) rq[i] = {M::Op::kFind, ks[i], 0};
    m.execute_batch(rq.data(), rp.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rp[i].found ? std::optional<std::uint64_t>(rp[i].value)
                           : std::nullopt;
    }
  } else if constexpr (requires(baselines::Lookup* o) {
                         m.get_batch(ks.data(), o, n);
                       }) {
    std::vector<baselines::Lookup> r(n);
    m.get_batch(ks.data(), r.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = r[i].found ? std::optional<std::uint64_t>(r[i].value)
                          : std::nullopt;
    }
  } else {
    return false;
  }
  return true;
}

/// Every registry design, populated with keys 1..N as the benches do, at
/// rest: each populated key answers its own value, no key in N+1..2N hits,
/// and a design with a batched Get answers every key of 1..2N the way its
/// scalar Get does. MICA's index is lossy (a full bucket evicts an entry),
/// so a populated key may miss there, but a hit must carry its own value.
void test_registry_designs_at_rest() {
  constexpr std::uint64_t kN = 16384;
  bench::for_each_design([](const auto& d) {
    if (!map_selected(d.name)) return;
    std::printf("== registry design %s ==\n", d.name);
    auto m = d.make(kN);
    workload::populate(m, kN);
    std::uint64_t misses = 0;
    for (std::uint64_t k = 1; k <= kN; ++k) {
      const auto v = m.get(k);
      if (!v) {
        ++misses;
      } else {
        CHECK(*v == k);
      }
    }
    std::printf("  %llu of %llu populated keys miss\n",
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(kN));
    if (std::string_view(d.name) != "mica") CHECK(misses == 0);
    for (std::uint64_t k = kN + 1; k <= 2 * kN; ++k) {
      CHECK(!m.get(k).has_value());
    }
    if (d.get_batch == 1) return;
    std::vector<std::uint64_t> ks(d.get_batch);
    std::vector<std::optional<std::uint64_t>> out(d.get_batch);
    for (std::uint64_t base = 1; base <= 2 * kN; base += d.get_batch) {
      for (std::size_t i = 0; i < ks.size(); ++i) ks[i] = base + i;
      CHECK(batched_get(m, ks, out));
      for (std::size_t i = 0; i < ks.size(); ++i) {
        CHECK(out[i] == m.get(ks[i]));
      }
    }
  });
}

template <class M>
void test_scalar_semantics(M& m) {
  std::puts("  scalar_semantics");
  constexpr std::uint64_t kN = 20000;

  // Key 0 must be a legal key (no sentinel leaks into the API).
  CHECK(m.insert(0, 42));
  CHECK(m.get(0).value_or(0) == 42);
  CHECK(m.erase(0));
  CHECK(!m.get(0).has_value());

  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k * 3));
  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.get(k).value_or(0) == k * 3);
  CHECK(!m.get(kN + 1).has_value());

  // Duplicate insert fails; put updates in place and reports prior state.
  CHECK(!m.insert(7, 99));
  CHECK(m.get(7).value_or(0) == 7 * 3);
  CHECK(m.put(7, 99));       // existed -> true
  CHECK(m.get(7).value_or(0) == 99);
  CHECK(m.put(7, 7 * 3));
  CHECK(m.erase(kN));
  CHECK(!m.put(kN, 5));      // fresh -> false
  CHECK(m.get(kN).value_or(0) == 5);
  CHECK(m.put(kN, kN * 3));

  // Delete every even key; odd keys survive; deleted slots are reusable.
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(m.erase(k));
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(!m.get(k).has_value());
  for (std::uint64_t k = 1; k <= kN; k += 2) {
    CHECK(m.get(k).value_or(0) == k * 3);
  }
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(m.insert(k, k + 1));
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(m.get(k).value_or(0) == k + 1);
  CHECK(!m.erase(kN + 1));
}

template <class M>
void test_batch_matches_scalar(M& batched, M& scalar) {
  std::puts("  batch_matches_scalar");
  Xoshiro256 rng(1234);
  constexpr std::size_t kOps = 30000;
  constexpr std::size_t kBatch = 24;
  constexpr std::uint64_t kSpace = 4000;

  std::vector<typename M::Request> reqs(kBatch);
  std::vector<typename M::Reply> reps(kBatch);
  for (std::size_t done = 0; done < kOps; done += kBatch) {
    for (auto& rq : reqs) {
      const std::uint64_t k = rng.next_below(kSpace);
      switch (rng.next_below(4)) {
        case 0: rq = {OpType::kGet, k, 0, k}; break;
        case 1: rq = {OpType::kPut, k, rng(), 0}; break;
        case 2: rq = {OpType::kInsert, k, rng(), 0}; break;
        default: rq = {OpType::kDelete, k, 0, 0}; break;
      }
    }
    batched.execute_batch(reqs.data(), reps.data(), kBatch);
    // Replay the same ops scalar-style and compare each reply.
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto& rq = reqs[i];
      const auto& rp = reps[i];
      switch (rq.op) {
        case OpType::kGet: {
          const auto v = scalar.get(rq.key);
          CHECK(rp.user == rq.user);
          CHECK((rp.status == Status::kOk) == v.has_value());
          if (v) CHECK(rp.value == *v);
          break;
        }
        case OpType::kPut: {
          const bool existed = scalar.put(rq.key, rq.value);
          CHECK(rp.status == (existed ? Status::kExists : Status::kOk));
          break;
        }
        case OpType::kInsert: {
          const bool inserted = scalar.insert(rq.key, rq.value);
          CHECK(rp.status == (inserted ? Status::kOk : Status::kExists));
          break;
        }
        case OpType::kDelete: {
          const auto v = scalar.get(rq.key);
          const bool erased = scalar.erase(rq.key);
          CHECK((rp.status == Status::kOk) == erased);
          if (erased && v) CHECK(rp.value == *v);
          break;
        }
      }
    }
  }
  // Final table contents must agree too.
  for (std::uint64_t k = 0; k < kSpace; ++k) {
    const auto a = batched.get(k);
    const auto b = scalar.get(k);
    CHECK(a.has_value() == b.has_value());
    if (a && b) CHECK(*a == *b);
  }

  // get_batch agrees with scalar get.
  std::vector<std::uint64_t> keys(kSpace);
  std::vector<typename M::Reply> out(kSpace);
  for (std::uint64_t k = 0; k < kSpace; ++k) keys[k] = k;
  batched.get_batch(keys.data(), out.data(), kSpace);
  for (std::uint64_t k = 0; k < kSpace; ++k) {
    const auto v = batched.get(k);
    CHECK((out[k].status == Status::kOk) == v.has_value());
    if (v) CHECK(out[k].value == *v);
  }
}

// 4 writers own disjoint key ranges and run insert/put/erase cycles while
// validating their own reads; a reader thread batch-reads every range
// throughout (a hit must carry a value the owner actually wrote). After
// joining, per-range contents must match what the owner last wrote.
template <class M>
void test_thread_stress(M& m) {
  std::puts("  thread_stress");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kRange = 4000;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> ts;
  ts.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&m, &failures, w] {
      const std::uint64_t base = 1 + static_cast<std::uint64_t>(w) * kRange;
      for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(round) << 32) | 0x100u | unsigned(w);
        for (std::uint64_t k = base; k < base + kRange; ++k) {
          if (!m.insert(k, tag)) ++failures;
        }
        for (std::uint64_t k = base; k < base + kRange; ++k) {
          if (m.get(k).value_or(0) != tag) ++failures;
          if (!m.put(k, tag + 1)) ++failures;  // overwrite -> true
        }
        if (round + 1 == kRounds) break;  // leave the final round in place
        for (std::uint64_t k = base; k < base + kRange; ++k) {
          if (!m.erase(k)) ++failures;
        }
      }
    });
  }
  ts.emplace_back([&m, &stop, &failures] {
    constexpr std::size_t kBatch = 64;
    std::vector<std::uint64_t> ks(kBatch);
    std::vector<typename M::Reply> out(kBatch);
    Xoshiro256 rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        ks[i] = 1 + rng.next_below(kWriters * kRange);
      }
      m.get_batch(ks.data(), out.data(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        // A hit must be a value some owner actually wrote (tag scheme).
        if (out[i].status == Status::kOk && (out[i].value & 0x700u) == 0) {
          ++failures;
        }
      }
    }
  });
  for (int w = 0; w < kWriters; ++w) ts[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  ts.back().join();
  CHECK(failures.load() == 0);

  const std::uint64_t last_round = kRounds - 1;
  for (int w = 0; w < kWriters; ++w) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(w) * kRange;
    const std::uint64_t want =
        (last_round << 32) | 0x100u | unsigned(w) | 0;
    for (std::uint64_t k = base; k < base + kRange; ++k) {
      CHECK(m.get(k).value_or(0) == want + 1);
    }
  }
}

// Backward-shift delete: build natural probe clusters in a tiny table,
// delete from the middle of each cluster, and verify every survivor is
// still reachable (a naive "clear the slot" delete would orphan the keys
// that probed past it) and that freed slots are genuinely reusable.
void test_rh_backward_shift() {
  std::puts("  rh_backward_shift");
  baselines::RobinHoodMap<> m(256);  // 256 slots -> heavy clustering
  constexpr std::uint64_t kN = 200;
  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k * 11));
  // Delete a comb of keys (every 3rd) — statistically lands mid-cluster.
  for (std::uint64_t k = 3; k <= kN; k += 3) CHECK(m.erase(k));
  for (std::uint64_t k = 1; k <= kN; ++k) {
    if (k % 3 == 0) {
      CHECK(!m.get(k).has_value());
    } else {
      CHECK(m.get(k).value_or(0) == k * 11);
    }
  }
  // Freed slots are reusable and the shift left no phantom duplicates.
  for (std::uint64_t k = 3; k <= kN; k += 3) CHECK(m.insert(k, k * 13));
  for (std::uint64_t k = 3; k <= kN; k += 3) {
    CHECK(m.get(k).value_or(0) == k * 13);
    CHECK(!m.insert(k, 1));
  }
}

// The probe bound makes inserts refuse (kFull) instead of looping: fill a
// tiny table until the first refusal, then prove the table still answers
// correctly for everything it accepted.
void test_rh_full_refusal() {
  std::puts("  rh_full_refusal");
  baselines::RobinHoodMap<> m(64);
  std::vector<std::uint64_t> accepted;
  const std::uint64_t limit =
      64 + baselines::RobinHoodMap<>::kMaxProbe + 1;
  for (std::uint64_t k = 1; k <= limit; ++k) {
    if (m.insert(k, k * 7)) accepted.push_back(k);
  }
  CHECK(m.full_rejects() > 0);
  CHECK(!accepted.empty());
  for (const std::uint64_t k : accepted) CHECK(m.get(k).value_or(0) == k * 7);
  // Erase half; survivors stay readable and most of the space comes back
  // (at this saturation a few refills can still hit the probe bound, so
  // the assertion is a majority, not all).
  for (std::size_t i = 0; i < accepted.size(); i += 2) {
    CHECK(m.erase(accepted[i]));
  }
  for (std::size_t i = 1; i < accepted.size(); i += 2) {
    CHECK(m.get(accepted[i]).value_or(0) == accepted[i] * 7);
  }
  std::size_t erased = 0, refilled = 0;
  for (std::size_t i = 0; i < accepted.size(); i += 2) {
    ++erased;
    if (m.insert(accepted[i], 1)) {
      ++refilled;
      CHECK(m.get(accepted[i]).value_or(0) == 1);
    }
  }
  std::printf("    refilled %zu/%zu erased slots\n", refilled, erased);
  CHECK(refilled * 2 > erased);
}

// Reclamation under readers: erasers retire nodes while reader threads
// walk the same chains, with periodic quiesce() checkpoints forcing limbo
// lists to actually drain. ASan catches a premature free; TSan catches a
// racy unlink.
void test_mm_reclamation_under_readers() {
  std::puts("  mm_reclamation_under_readers");
  baselines::MagedMichaelMap<> m(128);  // short table -> long shared chains
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&m, &stop, &failures, r] {
      Xoshiro256 rng(7 + static_cast<std::uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t k = 1 + rng.next_below(kN);
        const auto v = m.get(k);
        // Values are immutable here: a hit must carry the exact value.
        if (v && *v != k) ++failures;
      }
    });
  }
  // Churn every key several times while the readers run.
  for (int round = 0; round < 6; ++round) {
    for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.erase(k));
    m.quiesce();  // retired nodes from this round become freeable
    for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  CHECK(failures.load() == 0);
  m.quiesce();
  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.get(k).value_or(0) == k);
}

}  // namespace

int main() {
  test_registry_designs_at_rest();
  if (map_selected("rh")) {
    std::puts("== RobinHoodMap ==");
    {
      baselines::RobinHoodMap<> m(1 << 16);
      test_scalar_semantics(m);
    }
    {
      baselines::RobinHoodMap<> a(1 << 14), b(1 << 14);
      test_batch_matches_scalar(a, b);
    }
    {
      baselines::RobinHoodMap<> m(1 << 16);
      test_thread_stress(m);
    }
    test_rh_backward_shift();
    test_rh_full_refusal();
  }
  if (map_selected("mm")) {
    std::puts("== MagedMichaelMap ==");
    {
      baselines::MagedMichaelMap<> m(1 << 15);
      test_scalar_semantics(m);
    }
    {
      baselines::MagedMichaelMap<> a(1 << 12), b(1 << 12);
      test_batch_matches_scalar(a, b);
    }
    {
      baselines::MagedMichaelMap<> m(1 << 14);
      test_thread_stress(m);
    }
    test_mm_reclamation_under_readers();
  }
  if (g_failures == 0) {
    std::puts("ALL PASS");
    return 0;
  }
  std::fprintf(stderr, "%d FAILURES\n", g_failures);
  return 1;
}
