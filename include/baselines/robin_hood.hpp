// Robin Hood open-addressing baseline — the strongest textbook
// open-addressing design, built from scratch as a real opponent for the
// comparison figures.
//
// Mechanisms reproduced (each is what makes Robin Hood competitive):
//   * displacement-ordered linear probing: an insert "robs the rich" —
//     whenever the carried entry is further from home than the resident
//     one, the resident is shifted onward, which equalizes probe lengths
//     across keys instead of letting unlucky keys build long tails;
//   * backward-shift deletes: an erase pulls every displaced successor one
//     slot back toward its home instead of leaving a tombstone, so probe
//     chains *shrink* on deletes and the InsDel mix cannot collapse the
//     table the way it collapses GrowT/Folly/Leapfrog;
//   * distance-bounded probes: no entry is ever placed further than
//     kMaxProbe slots from home (inserts refuse instead), so every lookup
//     — hit or miss — terminates within a fixed window.
//
// Concurrency: per-stripe seqlocks (64 slots per stripe). Writers take the
// stripes their window touches in ascending slot order (the table does not
// wrap: the cell array carries a kMaxProbe tail past the home range, so
// "ascending" is a total order and lock acquisition cannot deadlock).
// Readers are lock-free: they record each touched stripe's version on
// entry and re-validate the set after the scan, retrying on any change —
// the same optimistic-read discipline as DLHT's bucket seqlocks. All cell
// words are atomics, so the races the retry loop absorbs are benign by
// construction (TSan-clean), not merely "unlikely".
//
// Conforms to workload::DlhtLikeMap (scalar get/put/insert/erase plus
// get_batch/execute_batch with DLHT's Request/Reply), so the bench layer
// drives it through the same workers as DLHT itself — including the
// prefetch-batched ones.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "dlht/dlht.hpp"
#include "dlht/hash.hpp"

namespace dlht::baselines {

template <class Hash = XxMixHash>
class RobinHoodMap {
 public:
  using Request = DLHT::Request;
  using Reply = DLHT::Reply;

  /// Probe-distance bound: an entry never sits further than this from its
  /// home slot; inserts that would need to refuse instead (full_rejects()).
  /// 512 slots is ~13 cache lines of worst-case scan — generous against
  /// the O(log n) displacements Robin Hood actually produces at the <=50%
  /// loads the benches size for, and still a hard bound on every probe.
  static constexpr std::uint32_t kMaxProbe = 512;

  explicit RobinHoodMap(std::uint64_t capacity)
      : cap_(ceil_pow2(capacity < 64 ? 64 : capacity)),
        mask_(cap_ - 1),
        slots_(cap_ + kMaxProbe),
        cells_(std::make_unique<Cell[]>(slots_)),
        stripes_((slots_ + kStripeSlots - 1) / kStripeSlots),
        vers_(std::make_unique<Stripe[]>(stripes_)) {
    for (std::size_t i = 0; i < slots_; ++i) {
      cells_[i].meta.store(kEmptyMeta, std::memory_order_relaxed);
    }
  }

  /// Inserts refused by the probe-distance bound (never at bench loads;
  /// tab01's occupancy study fills until this first ticks).
  std::uint64_t full_rejects() const {
    return full_rejects_.load(std::memory_order_relaxed);
  }

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    const std::size_t home = Hash{}(k) & mask_;
    for (;;) {
      std::uint64_t seen[kMaxReadStripes];
      std::size_t nseen = 0, cur_stripe = kNoStripe;
      bool found = false, retry = false;
      std::uint64_t value = 0;
      for (std::uint32_t d = 0; d < kMaxProbe; ++d) {
        const std::size_t i = home + d;
        const std::size_t s = i >> kStripeShift;
        if (s != cur_stripe) {
          const std::uint64_t v = vers_[s].v.load(std::memory_order_acquire);
          if (v & 1) {
            retry = true;
            break;
          }
          seen[nseen++] = v;
          cur_stripe = s;
        }
        const std::uint32_t meta = cells_[i].meta.load(std::memory_order_acquire);
        if (meta == kEmptyMeta || meta < d) break;  // RH invariant: a hit
        // at distance d would have robbed any resident closer to home.
        if (cells_[i].key.load(std::memory_order_relaxed) == k) {
          value = cells_[i].value.load(std::memory_order_relaxed);
          found = true;
          break;
        }
      }
      if (!retry) {
        std::atomic_thread_fence(std::memory_order_acquire);
        std::size_t s0 = (home >> kStripeShift);
        bool valid = true;
        for (std::size_t j = 0; j < nseen; ++j) {
          if (vers_[s0 + j].v.load(std::memory_order_relaxed) != seen[j]) {
            valid = false;
            break;
          }
        }
        if (valid) {
          if (found) return value;
          return std::nullopt;
        }
      }
      cpu_relax();
    }
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    return mutate(k, v, /*upsert=*/false) == Status::kOk;
  }

  /// Upsert; true when an existing entry was overwritten (DLHT semantics).
  bool put(std::uint64_t k, std::uint64_t v) {
    return mutate(k, v, /*upsert=*/true) == Status::kExists;
  }

  bool erase(std::uint64_t k) {
    std::uint64_t dropped;
    return erase_impl(k, dropped);
  }

  /// Two-stage batched lookup: prefetch every home line, then probe — the
  /// same idiom the comparison benches grant DRAMHiT/MICA.
  void get_batch(const std::uint64_t* ks, Reply* out, std::size_t n) const {
    constexpr std::size_t kChunk = 32;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      for (std::size_t j = 0; j < m; ++j) {
        __builtin_prefetch(&cells_[Hash{}(ks[base + j]) & mask_], 0, 3);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const auto v = get(ks[base + j]);
        out[base + j].status = v ? Status::kOk : Status::kNotFound;
        out[base + j].value = v.value_or(0);
        out[base + j].user = 0;
      }
    }
  }

  void execute_batch(const Request* reqs, Reply* reps, std::size_t n) {
    constexpr std::size_t kChunk = 32;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      for (std::size_t j = 0; j < m; ++j) {
        __builtin_prefetch(&cells_[Hash{}(reqs[base + j].key) & mask_], 1, 3);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const Request& rq = reqs[base + j];
        Reply& rp = reps[base + j];
        rp.user = rq.user;
        switch (rq.op) {
          case OpType::kGet: {
            const auto v = get(rq.key);
            rp.status = v ? Status::kOk : Status::kNotFound;
            rp.value = v.value_or(0);
            break;
          }
          case OpType::kPut:
            rp.status = mutate(rq.key, rq.value, /*upsert=*/true);
            rp.value = 0;
            break;
          case OpType::kInsert:
            rp.status = mutate(rq.key, rq.value, /*upsert=*/false);
            rp.value = 0;
            break;
          case OpType::kDelete: {
            std::uint64_t old = 0;
            rp.status = erase_impl(rq.key, old) ? Status::kOk
                                                : Status::kNotFound;
            rp.value = old;
            break;
          }
        }
      }
    }
  }

 private:
  static constexpr std::size_t kStripeShift = 6;  // 64 slots per stripe
  static constexpr std::size_t kStripeSlots = std::size_t{1} << kStripeShift;
  static constexpr std::uint32_t kEmptyMeta = ~std::uint32_t{0};
  static constexpr std::size_t kNoStripe = ~std::size_t{0};
  // A probe window spans at most kMaxProbe/64 + 1 stripes.
  static constexpr std::size_t kMaxReadStripes =
      kMaxProbe / kStripeSlots + 2;

  struct Cell {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint32_t> meta{kEmptyMeta};  // probe distance; ~0 = empty
  };

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};  // seqlock word: odd = writer inside
  };

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// Writer-side stripe set: ascending acquisition (the no-wrap layout
  /// makes slot order a total order), released all at once when the op
  /// finishes, plus release_below() so a backward-shift can drop stripes
  /// it has fully passed without ever exceeding the fixed window.
  struct LockSpan {
    explicit LockSpan(RobinHoodMap& t) : t_(t) {}
    ~LockSpan() {
      for (std::size_t s = lo_; s < hi_; ++s) t_.unlock_stripe(s);
    }

    /// Ensure every stripe up to the one containing `slot` is held.
    void cover(std::size_t slot) {
      const std::size_t s = slot >> kStripeShift;
      if (lo_ == kNoStripe) {
        lo_ = hi_ = s;
      }
      while (hi_ <= s) t_.lock_stripe(hi_++);
    }

    /// Release held stripes strictly below the one containing `slot` —
    /// legal once the op will never touch them again.
    void release_below(std::size_t slot) {
      const std::size_t s = slot >> kStripeShift;
      while (lo_ < s && lo_ < hi_) t_.unlock_stripe(lo_++);
    }

    RobinHoodMap& t_;
    std::size_t lo_ = kNoStripe, hi_ = kNoStripe;
  };

  void lock_stripe(std::size_t s) {
    std::atomic<std::uint64_t>& w = vers_[s].v;
    for (;;) {
      std::uint64_t v = w.load(std::memory_order_relaxed);
      if (!(v & 1) &&
          w.compare_exchange_weak(v, v + 1, std::memory_order_acq_rel)) {
        return;
      }
      cpu_relax();
    }
  }

  void unlock_stripe(std::size_t s) {
    std::atomic<std::uint64_t>& w = vers_[s].v;
    w.store(w.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  /// Insert/upsert under the stripe locks. Returns kOk (inserted),
  /// kExists (key present: value overwritten iff upsert), or kFull (the
  /// distance bound refused the placement — nothing was modified).
  Status mutate(std::uint64_t k, std::uint64_t v, bool upsert) {
    const std::size_t home = Hash{}(k) & mask_;
    LockSpan locks(*this);
    locks.cover(home);
    // One pass: remember the displacement-ordered insertion point, detect
    // an existing key, and find the first empty slot the shift will use.
    std::size_t pos = kNoStripe;
    std::size_t empty = kNoStripe;
    for (std::uint32_t d = 0; d < kMaxProbe; ++d) {
      const std::size_t i = home + d;
      locks.cover(i);
      const std::uint32_t meta = cells_[i].meta.load(std::memory_order_relaxed);
      if (meta == kEmptyMeta) {
        empty = i;
        break;
      }
      if (meta >= d &&
          cells_[i].key.load(std::memory_order_relaxed) == k) {
        if (upsert) cells_[i].value.store(v, std::memory_order_relaxed);
        return Status::kExists;
      }
      if (pos == kNoStripe && meta < d) pos = i;  // rob the rich here
    }
    if (empty == kNoStripe) {
      full_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::kFull;
    }
    if (pos == kNoStripe) pos = empty;
    // The shift bumps every resident in [pos, empty) one slot onward; any
    // of them hitting the distance bound refuses the insert *before* any
    // cell moves, keeping the bound a hard invariant.
    for (std::size_t i = pos; i < empty; ++i) {
      if (cells_[i].meta.load(std::memory_order_relaxed) + 1 >= kMaxProbe) {
        full_rejects_.fetch_add(1, std::memory_order_relaxed);
        return Status::kFull;
      }
    }
    for (std::size_t i = empty; i > pos; --i) {
      cells_[i].key.store(cells_[i - 1].key.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      cells_[i].value.store(
          cells_[i - 1].value.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      cells_[i].meta.store(
          cells_[i - 1].meta.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    }
    cells_[pos].key.store(k, std::memory_order_relaxed);
    cells_[pos].value.store(v, std::memory_order_relaxed);
    cells_[pos].meta.store(static_cast<std::uint32_t>(pos - home),
                           std::memory_order_relaxed);
    return Status::kOk;
  }

  /// Erase with backward shift: successors displaced past their home are
  /// pulled one slot back until a home-resident (distance 0) or an empty
  /// slot ends the run. The shift only ever *shrinks* distances, so the
  /// probe bound cannot be violated, and no tombstone is ever written.
  bool erase_impl(std::uint64_t k, std::uint64_t& old_value) {
    const std::size_t home = Hash{}(k) & mask_;
    LockSpan locks(*this);
    locks.cover(home);
    std::size_t p = kNoStripe;
    for (std::uint32_t d = 0; d < kMaxProbe; ++d) {
      const std::size_t i = home + d;
      locks.cover(i);
      const std::uint32_t meta = cells_[i].meta.load(std::memory_order_relaxed);
      if (meta == kEmptyMeta || meta < d) return false;
      if (cells_[i].key.load(std::memory_order_relaxed) == k) {
        p = i;
        break;
      }
    }
    if (p == kNoStripe) return false;
    old_value = cells_[p].value.load(std::memory_order_relaxed);
    for (;;) {
      const std::size_t q = p + 1;
      if (q >= slots_) break;
      locks.cover(q);
      const std::uint32_t meta = cells_[q].meta.load(std::memory_order_relaxed);
      if (meta == kEmptyMeta || meta == 0) break;
      cells_[p].key.store(cells_[q].key.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      cells_[p].value.store(cells_[q].value.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      cells_[p].meta.store(meta - 1, std::memory_order_relaxed);
      p = q;
      // Slots behind the hole are final; freeing their stripes bounds how
      // many a long run can pin at once (writers behind us queue on the
      // hole's stripe, never deadlock — acquisition stays ascending).
      locks.release_below(p);
    }
    cells_[p].meta.store(kEmptyMeta, std::memory_order_relaxed);
    return true;
  }

  std::size_t cap_;
  std::size_t mask_;
  std::size_t slots_;  // cap_ + kMaxProbe: probes never wrap
  std::unique_ptr<Cell[]> cells_;
  std::size_t stripes_;
  std::unique_ptr<Stripe[]> vers_;
  std::atomic<std::uint64_t> full_rejects_{0};
};

}  // namespace dlht::baselines
