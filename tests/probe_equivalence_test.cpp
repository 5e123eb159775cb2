// Probe-engine equivalence: every strategy the probe layer can dispatch
// (SWAR baseline, AVX2 / AVX-512 batch kernels, and the full-key-compare
// path with fingerprints ablated) must return identical results for
// identical tables — on randomized keysets, on adversarial buckets where
// every slot shares one fingerprint, across full link chains, and while a
// seeded writer thread mutates headers mid-probe. Engines the host cannot
// execute are skipped (and said so), keeping the binary green on any CPU.
//
// Runs under ASan/UBSan and TSan via scripts/ci.sh; sizes are chosen so
// the sanitized runs stay inside the ctest budget.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
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

struct Strategy {
  const char* label;
  ProbeStrategy kind;
  bool fingerprints;  // false = the full-key-compare (nofp) strategy
};

/// Every strategy this host can actually execute. SWAR and full-key
/// always; the SIMD engines only when cpuid says so.
std::vector<Strategy> host_strategies() {
  std::vector<Strategy> out{{"swar", ProbeStrategy::kSwar, true},
                            {"fullkey", ProbeStrategy::kSwar, false}};
  if (probe::host_supports(ProbeStrategy::kAvx2)) {
    out.push_back({"avx2", ProbeStrategy::kAvx2, true});
  } else {
    std::puts("note: host lacks AVX2 — avx2 strategy skipped");
  }
  if (probe::host_supports(ProbeStrategy::kAvx512)) {
    out.push_back({"avx512", ProbeStrategy::kAvx512, true});
  } else {
    std::puts("note: host lacks AVX-512BW — avx512 strategy skipped");
  }
  return out;
}

Options strategy_options(const Strategy& s, std::size_t bins,
                         double max_load = 0.75) {
  Options o;
  o.initial_bins = bins;
  o.link_ratio = 0.25;
  o.probe_strategy = s.kind;
  o.ablation.fingerprints = s.fingerprints;
  o.max_load_factor = max_load;
  return o;
}

/// Compare get_batch replies for `keys` across all strategy tables,
/// element by element, against the first table's answer.
void check_batch_agreement(std::vector<DLHT*>& tables,
                           const std::vector<Strategy>& strats,
                           const std::vector<std::uint64_t>& keys,
                           std::size_t batch) {
  std::vector<DLHT::Reply> ref(keys.size()), got(keys.size());
  for (std::size_t b = 0; b < keys.size(); b += batch) {
    const std::size_t n = std::min(batch, keys.size() - b);
    tables[0]->get_batch(keys.data() + b, ref.data() + b, n);
  }
  for (std::size_t t = 1; t < tables.size(); ++t) {
    for (std::size_t b = 0; b < keys.size(); b += batch) {
      const std::size_t n = std::min(batch, keys.size() - b);
      tables[t]->get_batch(keys.data() + b, got.data() + b, n);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (got[i].status != ref[i].status || got[i].value != ref[i].value) {
        std::fprintf(stderr,
                     "FAIL: strategy %s disagrees with %s on key %llu "
                     "(batch=%zu): status %d/%d value %llu/%llu\n",
                     strats[t].label, strats[0].label,
                     static_cast<unsigned long long>(keys[i]), batch,
                     static_cast<int>(got[i].status),
                     static_cast<int>(ref[i].status),
                     static_cast<unsigned long long>(got[i].value),
                     static_cast<unsigned long long>(ref[i].value));
        ++g_failures;
        return;  // one detailed failure per sweep is enough
      }
    }
  }
}

/// Randomized keysets over a small-bin table (dense link chains), mixed
/// present/absent probes, every batch-size shape including SIMD tails.
void test_randomized_equivalence() {
  std::puts("test_randomized_equivalence");
  const auto strats = host_strategies();
  std::vector<DLHT*> tables;
  for (const auto& s : strats) {
    tables.push_back(new DLHT(strategy_options(s, /*bins=*/512)));
  }
  for (const auto& s : strats) {
    (void)s;  // every table must have resolved what we asked for
  }

  Xoshiro256 rng(0xfeedbeefULL);
  constexpr std::size_t kN = 40000;
  std::vector<std::uint64_t> keys;
  keys.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) keys.push_back(rng() | 1u);

  // Identical mutation history on every table: inserts, overwrites,
  // deletes, reinserts.
  for (std::size_t i = 0; i < kN; ++i) {
    for (auto* t : tables) t->put(keys[i], keys[i] * 3);
  }
  for (std::size_t i = 0; i < kN; i += 3) {
    for (auto* t : tables) t->erase(keys[i]);
  }
  for (std::size_t i = 0; i < kN; i += 9) {
    for (auto* t : tables) t->put(keys[i], keys[i] + 7);
  }

  // Probe set: all live/deleted keys plus never-inserted ones.
  std::vector<std::uint64_t> probes = keys;
  for (std::size_t i = 0; i < kN / 2; ++i) probes.push_back(rng() | 1u);
  for (const std::size_t batch : {1ul, 7ul, 8ul, 13ul, 24ul, 64ul, 200ul}) {
    check_batch_agreement(tables, strats, probes, batch);
  }

  // Mixed execute_batch with a long Get run (the batched-Get fast path
  // inside mixed batches) must agree with scalar ops on a fresh control.
  {
    std::vector<DLHT::Request> reqs;
    Xoshiro256 r2(77);
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t k = probes[r2.next_below(probes.size())];
      const std::uint64_t roll = r2.next_below(10);
      DLHT::Request rq{};
      rq.key = k;
      rq.user = static_cast<std::uint64_t>(i);
      if (roll < 7) {
        rq.op = OpType::kGet;
      } else if (roll < 8) {
        rq.op = OpType::kPut;
        rq.value = k ^ 0x5aa5;
      } else if (roll < 9) {
        rq.op = OpType::kInsert;
        rq.value = k + 1;
      } else {
        rq.op = OpType::kDelete;
      }
      reqs.push_back(rq);
    }
    std::vector<DLHT::Reply> ref(reqs.size()), got(reqs.size());
    tables[0]->execute_batch(reqs.data(), ref.data(), reqs.size());
    for (std::size_t t = 1; t < tables.size(); ++t) {
      tables[t]->execute_batch(reqs.data(), got.data(), reqs.size());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        CHECK(got[i].status == ref[i].status);
        CHECK(got[i].value == ref[i].value);
        CHECK(got[i].user == ref[i].user);
        if (g_failures != 0) break;
      }
    }
  }

  for (auto* t : tables) delete t;
}

/// Brute-force keys that all land in bucket `bin` of a 16-bin table AND
/// share fingerprint `want_fp`: the adversarial worst case where the
/// fingerprint filter rejects nothing and every slot of a deep chain is a
/// candidate.
std::vector<std::uint64_t> same_fp_keys(std::size_t count, std::uint64_t bin,
                                        std::uint8_t want_fp,
                                        std::uint64_t start) {
  XxMixHash hash;
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = start; out.size() < count; ++k) {
    const std::uint64_t h = hash(k);
    if ((h & 15u) == bin && probe::fp_of(h) == want_fp) out.push_back(k);
  }
  return out;
}

void test_adversarial_same_fingerprint() {
  std::puts("test_adversarial_same_fingerprint");
  const auto strats = host_strategies();
  // 64 colliding keys -> home bucket + ~21 link buckets, every slot the
  // same fingerprint. max_load_factor is huge so the 16-bin table never
  // resizes out of the adversarial shape.
  const auto present = same_fp_keys(64, /*bin=*/3, /*fp=*/0xab, /*start=*/1);
  const auto absent =
      same_fp_keys(64, 3, 0xab, present.back() + 1);  // same bin, same fp

  std::vector<DLHT*> tables;
  for (const auto& s : strats) {
    tables.push_back(new DLHT(strategy_options(s, 16, /*max_load=*/1e9)));
  }
  for (auto* t : tables) {
    for (const auto k : present) CHECK(t->insert(k, k ^ 0x1234));
  }

  std::vector<std::uint64_t> probes = present;
  probes.insert(probes.end(), absent.begin(), absent.end());
  for (const std::size_t batch : {8ul, 24ul, 64ul, 128ul}) {
    check_batch_agreement(tables, strats, probes, batch);
  }
  // And against ground truth, not just each other.
  for (auto* t : tables) {
    for (const auto k : present) CHECK(t->get(k).value_or(0) == (k ^ 0x1234));
    for (const auto k : absent) CHECK(!t->get(k).has_value());
    std::vector<DLHT::Reply> rep(probes.size());
    t->get_batch(probes.data(), rep.data(), probes.size());
    for (std::size_t i = 0; i < present.size(); ++i) {
      CHECK(rep[i].status == Status::kOk);
      CHECK(rep[i].value == (probes[i] ^ 0x1234));
    }
    for (std::size_t i = present.size(); i < probes.size(); ++i) {
      CHECK(rep[i].status == Status::kNotFound);
    }
  }
  for (auto* t : tables) delete t;
}

/// A seeded writer thread erases/reinserts a window of keys while batched
/// readers probe the same window on every strategy: headers mutate (and
/// buckets lock) mid-probe, exercising the SIMD path's torn-lane and
/// locked-lane fallbacks. Invariant: a kOk reply must carry the one value
/// ever written for that key; after the writer joins, every strategy's
/// table must agree with ground truth.
void test_mid_probe_mutation() {
  std::puts("test_mid_probe_mutation");
  const auto strats = host_strategies();
  constexpr std::size_t kWindow = 2048;
  constexpr int kRounds = 200;

  for (const auto& s : strats) {
    DLHT t(strategy_options(s, 256));
    std::vector<std::uint64_t> keys;
    Xoshiro256 rng(0x1234u);
    for (std::size_t i = 0; i < kWindow; ++i) keys.push_back(rng() | 1u);
    for (const auto k : keys) t.put(k, k * 2 + 1);

    std::atomic<bool> done{false};
    std::thread writer([&] {
      Xoshiro256 wr(42);
      for (int round = 0; round < kRounds; ++round) {
        // Erase a pseudo-random stride, then reinsert with the same value
        // so kOk always implies value == k*2+1.
        const std::size_t stride = 1 + wr.next_below(7);
        for (std::size_t i = 0; i < keys.size(); i += stride) {
          t.erase(keys[i]);
        }
        for (std::size_t i = 0; i < keys.size(); i += stride) {
          t.put(keys[i], keys[i] * 2 + 1);
        }
      }
      done.store(true, std::memory_order_release);
    });

    std::vector<DLHT::Reply> rep(keys.size());
    std::uint64_t sweeps = 0;
    while (!done.load(std::memory_order_acquire)) {
      t.get_batch(keys.data(), rep.data(), keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (rep[i].status == Status::kOk) {
          if (rep[i].value != keys[i] * 2 + 1) {
            std::fprintf(stderr, "FAIL: %s read torn value for key %llu\n",
                         s.label,
                         static_cast<unsigned long long>(keys[i]));
            ++g_failures;
          }
        }
      }
      ++sweeps;
    }
    writer.join();
    CHECK(sweeps > 0);
    // Quiescent ground truth: everything was reinserted by round end.
    for (const auto k : keys) CHECK(t.get(k).value_or(0) == k * 2 + 1);
  }
}

// The SWAR masks against a per-slot reference decoded with hdr::slot_state
// and hdr::fingerprint, over random headers (so state 3, which no writer
// stores, shows up too). Bit 8i+7 = slot i. The state masks are exact —
// state 3 counts only as occupied. fp_matches may flag more than the exact
// matches (the zero-byte test's borrow can flag the byte just above one),
// but only there, and never a bit outside kSlotMask.
void test_mask_reference() {
  std::puts("test_mask_reference");
  Xoshiro256 rng(0x9a7eULL);
  for (int n = 0; n < 200000; ++n) {
    const std::uint64_t header = rng();
    // Half the lookups reuse a slot's fingerprint, so matches are common.
    const std::uint8_t fp =
        (n & 1) != 0 ? hdr::fingerprint(header, n % kSlotsPerBucket)
                     : static_cast<std::uint8_t>(rng());
    std::uint32_t valid = 0, shadow = 0, occupied = 0, exact = 0;
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      const std::uint32_t bit = 0x80u << (8 * i);
      const SlotState st = hdr::slot_state(header, i);
      if (st == SlotState::kValid) valid |= bit;
      if (st == SlotState::kShadow) shadow |= bit;
      if (st != SlotState::kEmpty) occupied |= bit;
      if (hdr::fingerprint(header, i) == fp) exact |= bit;
    }
    CHECK(probe::valid_slots(header) == valid);
    CHECK(probe::shadow_slots(header) == shadow);
    CHECK(probe::occupied_slots(header) == occupied);
    const std::uint32_t fm = probe::fp_matches(header, fp);
    CHECK((fm & exact) == exact);
    CHECK((fm & ~probe::kSlotMask) == 0u);
    CHECK(((fm & ~exact) & ~(exact << 8)) == 0u);  // extras sit above a match
    CHECK(probe::match_valid(header, fp) == (fm & probe::valid_slots(header)));
    if (g_failures != 0) return;  // one failing header is enough
  }
}

}  // namespace

int main() {
  std::printf("probe engines under test:");
  for (const auto& s : host_strategies()) std::printf(" %s", s.label);
  std::printf("\n");
  test_mask_reference();
  test_randomized_equivalence();
  test_adversarial_same_fingerprint();
  test_mid_probe_mutation();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", g_failures);
    return 1;
  }
  std::puts("OK");
  return 0;
}
