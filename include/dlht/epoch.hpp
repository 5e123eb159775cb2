// Per-thread epoch-based memory reclamation (the paper's GC scheme).
//
// Every table operation pins the current global epoch into a per-thread
// slot (one cache line per slot, sized by Options::max_threads). Retiring
// an object tags it with the epoch at retirement; the object is freed once
// the global epoch has advanced two steps past that tag, which proves every
// thread that could have held a reference has since passed through a
// quiescent point. The global epoch advances only when every pinned slot
// has caught up to it — the classic three-epoch invariant.
//
// This replaces the PR-1 stand-in (a mutex-guarded retire list drained by
// gc_checkpoint()) for both AllocatorMap value blocks and, new in this PR,
// whole TableInstance bucket arrays retired by the resize coordinator.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace dlht {

namespace detail {

/// Process-wide small-integer thread ids. Indices are recycled on thread
/// exit so the count of concurrently *live* threads — not the historical
/// total — bounds the largest index handed out.
class ThreadIndexAllocator {
 public:
  static unsigned acquire() {
    auto& self = instance();
    std::lock_guard<std::mutex> g(self.mu_);
    if (!self.free_.empty()) {
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
  }

 private:
  static ThreadIndexAllocator& instance() {
    static ThreadIndexAllocator a;
    return a;
  }

  std::mutex mu_;
  std::vector<unsigned> free_;
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
 public:
  using Deleter = void (*)(void* obj, void* ctx);

  explicit EpochManager(unsigned max_threads) {
    std::size_t n = 4u * (max_threads != 0 ? max_threads : 1u) + 64u;
    if (n < kMinSlots) n = kMinSlots;
    slots_ = n;
    pins_ = new PinSlot[n];
    limbo_ = new Limbo[n];
  }

  ~EpochManager() {
    drain_all();
    delete[] pins_;
    delete[] limbo_;
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
    explicit Guard(EpochManager& m) : m_(&m), slot_(m.slot_index()) {
      PinSlot& s = m_->pins_[slot_];
      if (s.depth++ == 0) m_->pin_slot(s);
    }
    ~Guard() {
      PinSlot& s = m_->pins_[slot_];
      if (--s.depth == 0) s.epoch.store(0, std::memory_order_release);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager* m_;
    unsigned slot_;
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
    Limbo& l = limbo_[slot_index()];
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
    for (std::size_t i = 0; i < slots_; ++i) reclaim(limbo_[i]);
  }

  /// Free everything still in limbo. Only legal when the caller guarantees
  /// no thread is inside a Guard (destructor / single-threaded teardown).
  void drain_all() {
    for (std::size_t i = 0; i < slots_; ++i) {
      Limbo& l = limbo_[i];
      SpinGuard g(l.lock);
      for (const Retired& r : l.items) r.fn(r.obj, r.ctx);
      l.items.clear();
    }
  }

  std::uint64_t global_epoch() const {
    return global_.load(std::memory_order_relaxed);
  }

  /// Retired objects not yet freed, over every slot's limbo list. Takes
  /// each list's lock in turn: a cold-path count for stats and tests.
  std::size_t limbo_objects() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < slots_; ++i) {
      SpinGuard g(limbo_[i].lock);
      n += limbo_[i].items.size();
    }
    return n;
  }

 private:
  static constexpr std::size_t kMinSlots = 256;

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

  unsigned slot_index() const {
    const unsigned idx = this_thread_index();
    if (idx >= slots_) {
      std::fprintf(stderr,
                   "dlht: %u live threads exceed epoch slots (%zu); raise "
                   "Options::max_threads\n",
                   idx + 1, slots_);
      std::abort();
    }
    return idx;
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

  void try_advance() {
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < slots_; ++i) {
      const std::uint64_t p = pins_[i].epoch.load(std::memory_order_seq_cst);
      if (p != 0 && p != e) return;  // a straggler still in an older epoch
    }
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
  PinSlot* pins_ = nullptr;
  Limbo* limbo_ = nullptr;
  std::size_t slots_ = 0;
};

}  // namespace dlht
