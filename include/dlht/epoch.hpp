// Per-thread epoch-based memory reclamation (the paper's GC scheme).
//
// Every table operation pins the current global epoch into a per-thread
// slot (one cache line per slot). Slots are allocated as threads arrive,
// in segments of 64, 128, 256, ... slots, so any number of live threads
// has one. Retiring an object tags it with the epoch at retirement; the
// object is freed once the global epoch has advanced two steps past that
// tag, which proves every thread that could have held a reference has
// since passed through a quiescent point. The global epoch advances only
// when every pinned slot has caught up to it — the classic three-epoch
// invariant.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace dlht {

namespace detail {

/// Process-wide small-integer thread ids. Indices are recycled on thread
/// exit so the count of concurrently *live* threads — not the historical
/// total — bounds the largest index handed out. A new thread gets the
/// smallest free index, so the epoch segments a manager allocates and
/// scans stay as few as the threads alive at once need.
class ThreadIndexAllocator {
 public:
  /// Out of line, so that this_thread_index() stays inlined on the hot
  /// path: with the heap pop inline, GCC made it a call in every Guard.
  __attribute__((noinline)) static unsigned acquire() {
    auto& self = instance();
    std::lock_guard<std::mutex> g(self.mu_);
    if (!self.free_.empty()) {
      std::pop_heap(self.free_.begin(), self.free_.end(), std::greater<>());
      const unsigned idx = self.free_.back();
      self.free_.pop_back();
      return idx;
    }
    return self.next_++;
  }

  static void release(unsigned idx) {
    auto& self = instance();
    std::lock_guard<std::mutex> g(self.mu_);
    self.free_.push_back(idx);
    std::push_heap(self.free_.begin(), self.free_.end(), std::greater<>());
  }

 private:
  static ThreadIndexAllocator& instance() {
    static ThreadIndexAllocator a;
    return a;
  }

  std::mutex mu_;
  std::vector<unsigned> free_;  // a min-heap
  unsigned next_ = 0;
};

struct ThreadIndexHolder {
  unsigned idx;
  ThreadIndexHolder() : idx(ThreadIndexAllocator::acquire()) {}
  ~ThreadIndexHolder() { ThreadIndexAllocator::release(idx); }
};

}  // namespace detail

/// This thread's process-wide small id (stable for the thread's lifetime,
/// recycled after it exits). Used to address epoch slots and size shards.
inline unsigned this_thread_index() {
  static thread_local detail::ThreadIndexHolder holder;
  return holder.idx;
}

class EpochManager {
  struct PinSlot;

 public:
  using Deleter = void (*)(void* obj, void* ctx);

  EpochManager() = default;

  ~EpochManager() {
    drain_all();
    for (auto& seg : dir_) delete[] seg.load(std::memory_order_relaxed);
  }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII pin. While a Guard lives, any pointer the thread observed through
  /// the protected structure (a TableInstance, an AllocatorMap value block)
  /// stays allocated: retirements from its epoch onward cannot be freed
  /// until the guard drops and the epoch advances past them. Reentrant per
  /// thread — nested guards share the outermost pin, so batched entry
  /// points pin once and call scalar internals freely. Guards are cheap
  /// (two uncontended per-thread stores) but not free; hold them for an
  /// operation, not for a phase.
  class Guard {
   public:
    explicit Guard(EpochManager& m) : pin_(&m.slot().pin) {
      if (pin_->depth++ == 0) m.pin_slot(*pin_);
    }
    ~Guard() {
      if (--pin_->depth == 0) pin_->epoch.store(0, std::memory_order_release);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    PinSlot* pin_;
  };

  Guard pin() { return Guard(*this); }

  /// Defer destruction of `obj` until every epoch that could reference it
  /// has drained. Callable with or without an active pin.
  void retire(void* obj, Deleter fn, void* ctx) {
    // The caller unlinked `obj` with a release store (DLHT's cur_ swap,
    // AllocatorMap's erase unlock), and a release store may be reordered
    // after the load of the tag below. Then the tag could predate the
    // unlink: an advance lands, a reader pins the new epoch and still loads
    // the old pointer, and the next advance frees it under that reader. The
    // fence pairs with pin_slot's: a reader that pins past the tag sees the
    // unlink.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    Limbo& l = slot().limbo;
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    {
      SpinGuard g(l.lock);
      l.items.push_back(Retired{obj, fn, ctx, e});
    }
    if ((l.retires.fetch_add(1, std::memory_order_relaxed) & 63u) == 63u) {
      try_advance();
      reclaim(l);
    }
  }

  /// Best-effort checkpoint: advance the epoch if possible and free every
  /// limbo entry (any slot's) that is provably unreachable. Safe to call
  /// concurrently with readers; frees nothing a pinned thread could touch.
  void quiesce() {
    try_advance();
    for_each_slot([this](Slot& s) { reclaim(s.limbo); });
  }

  /// Free everything still in limbo. Only legal when the caller guarantees
  /// no thread is inside a Guard (destructor / single-threaded teardown).
  void drain_all() {
    for_each_slot([](Slot& s) {
      SpinGuard g(s.limbo.lock);
      for (const Retired& r : s.limbo.items) r.fn(r.obj, r.ctx);
      s.limbo.items.clear();
    });
  }

  std::uint64_t global_epoch() const {
    return global_.load(std::memory_order_relaxed);
  }

  /// Retired objects not yet freed, over every slot's limbo list. Takes
  /// each list's lock in turn: a cold-path count for stats and tests.
  std::size_t limbo_objects() const {
    std::size_t n = 0;
    for_each_slot([&n](Slot& s) {
      SpinGuard g(s.limbo.lock);
      n += s.limbo.items.size();
    });
    return n;
  }

 private:
  struct alignas(64) PinSlot {
    std::atomic<std::uint64_t> epoch{0};  // 0 = quiescent
    std::uint32_t depth = 0;              // owner-thread only (reentrancy)
  };

  struct Retired {
    void* obj;
    Deleter fn;
    void* ctx;
    std::uint64_t epoch;
  };

  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag& f) : flag(f) {
      while (flag.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag.clear(std::memory_order_release); }
    std::atomic_flag& flag;
  };

  /// Limbo lists are per-slot to keep retirement mostly uncontended, but
  /// spinlocked so quiesce() can reclaim any slot's eligible entries.
  struct Limbo {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<Retired> items;
    std::atomic<std::uint64_t> retires{0};
  };

  struct Slot {
    PinSlot pin;
    Limbo limbo;
  };

  /// Segment k holds kSegment0 << k slots, for thread indices from
  /// kSegment0 * (2^k - 1) on; 17 segments cover more live threads than
  /// Linux allows (PID_MAX_LIMIT is 2^22).
  static constexpr unsigned kSegment0 = 64;
  static constexpr unsigned kSegments = 17;

  /// The calling thread's slot. Its first pin or retire allocates the
  /// slot's segment, if no thread has yet.
  Slot& slot() {
    const unsigned v = this_thread_index() + kSegment0;
    const unsigned k = std::bit_width(v) - std::bit_width(kSegment0);
    Slot* seg = dir_[k].load(std::memory_order_seq_cst);
    if (__builtin_expect(seg == nullptr, 0)) seg = add_segment(k);
    return seg[v - (kSegment0 << k)];
  }

  /// Out of line, so that every Guard inlines the lookup above.
  __attribute__((noinline)) Slot* add_segment(unsigned k) {
    std::lock_guard<std::mutex> g(segment_mu_);
    Slot* seg = dir_[k].load(std::memory_order_relaxed);
    if (seg == nullptr) {
      seg = new Slot[kSegment0 << k];
      dir_[k].store(seg, std::memory_order_seq_cst);
    }
    return seg;
  }

  /// Visit the slots of every segment allocated so far.
  template <class F>
  void for_each_slot(F&& f) const {
    for (unsigned k = 0; k < kSegments; ++k) {
      Slot* seg = dir_[k].load(std::memory_order_seq_cst);
      for (std::size_t i = 0; seg != nullptr && i < (kSegment0 << k); ++i) {
        f(seg[i]);
      }
    }
  }

  void pin_slot(PinSlot& s) {
    std::uint64_t e = global_.load(std::memory_order_seq_cst);
    for (;;) {
      s.epoch.store(e, std::memory_order_seq_cst);
      // The fence orders the slot publication before any table loads; the
      // re-read closes the race with a concurrent advance that scanned the
      // slots before our store landed.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint64_t now = global_.load(std::memory_order_seq_cst);
      if (now == e) return;
      e = now;
    }
  }

  /// A segment that appears mid-scan is covered by pin_slot's re-read. A
  /// thread T in it pins only after the segment's seq_cst publication
  /// (its own store, or another thread's seen through a seq_cst load or
  /// segment_mu_), and this scan's seq_cst load of the directory saw
  /// nullptr, so it came first. T's re-read of global_ then follows our
  /// load too: if our CAS to e + 1 lands first, T re-pins at e + 1;
  /// otherwise T holds e under e + 1, which blocks the next advance — as
  /// if we had read T's slot as 0.
  void try_advance() {
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    bool straggler = false;  // a thread still pinned in an older epoch
    for_each_slot([&](Slot& s) {
      const std::uint64_t p = s.pin.epoch.load(std::memory_order_seq_cst);
      straggler |= p != 0 && p != e;
    });
    if (straggler) return;
    std::uint64_t expected = e;
    global_.compare_exchange_strong(expected, e + 1,
                                    std::memory_order_seq_cst);
  }

  void reclaim(Limbo& l) {
    const std::uint64_t g = global_.load(std::memory_order_seq_cst);
    SpinGuard guard(l.lock);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < l.items.size(); ++i) {
      const Retired& r = l.items[i];
      if (r.epoch + 2 <= g) {
        r.fn(r.obj, r.ctx);
      } else {
        l.items[keep++] = r;
      }
    }
    l.items.resize(keep);
  }

  std::atomic<std::uint64_t> global_{2};  // starts past the 0 sentinel
  std::atomic<Slot*> dir_[kSegments] = {};
  std::mutex segment_mu_;
};

}  // namespace dlht
