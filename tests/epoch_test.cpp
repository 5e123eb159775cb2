// Epoch-based reclamation: retired objects must stay alive while any
// thread is pinned in an older epoch, and must actually be freed (not just
// deferred forever) once readers drain. Run under ASan to catch both
// use-after-free and leaks; under TSan for the pin/advance races.
#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"
#include "dlht/epoch.hpp"

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

std::atomic<int> g_freed{0};
void counting_deleter(void* obj, void*) {
  delete static_cast<int*>(obj);
  g_freed.fetch_add(1, std::memory_order_relaxed);
}

// A pinned reader blocks reclamation; unpinning releases it.
void pin_blocks_reclamation() {
  std::puts("pin_blocks_reclamation");
  EpochManager em;
  g_freed.store(0);

  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;  // 0: starting, 1: pinned, 2: release requested
  std::thread reader([&] {
    EpochManager::Guard g(em);
    {
      std::unique_lock<std::mutex> l(mu);
      stage = 1;
      cv.notify_all();
      cv.wait(l, [&] { return stage == 2; });
    }
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return stage == 1; });
  }

  // Retire while the reader is pinned: no quiesce() may free it.
  em.retire(new int(42), &counting_deleter, nullptr);
  for (int i = 0; i < 8; ++i) em.quiesce();
  CHECK(g_freed.load() == 0);

  {
    std::lock_guard<std::mutex> l(mu);
    stage = 2;
  }
  cv.notify_all();
  reader.join();

  // Reader gone: a few checkpoints advance the epoch past the tag.
  for (int i = 0; i < 8 && g_freed.load() == 0; ++i) em.quiesce();
  CHECK(g_freed.load() == 1);
}

// Reentrant guards share one pin; the slot only unpins at the outermost
// exit (this is what lets batched ops call scalar internals).
void reentrant_guard() {
  std::puts("reentrant_guard");
  EpochManager em;
  g_freed.store(0);
  {
    EpochManager::Guard outer(em);
    {
      EpochManager::Guard inner(em);
      em.retire(new int(1), &counting_deleter, nullptr);
    }
    // Inner guard exited but we are still pinned: nothing may be freed.
    for (int i = 0; i < 8; ++i) em.quiesce();
    CHECK(g_freed.load() == 0);
  }
  for (int i = 0; i < 8 && g_freed.load() == 0; ++i) em.quiesce();
  CHECK(g_freed.load() == 1);
}

// AllocatorMap end-to-end: concurrent insert/erase churn with readers
// dereferencing get_ptr under a pin; afterwards every retired block must
// have been returned to the pool (outstanding == live entries).
void allocator_map_reclaims() {
  std::puts("allocator_map_reclaims");
  Options o;
  o.initial_bins = 1024;
  o.fixed_value_size = 32;
  AllocatorMap<> m(o);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kSpace = 2048;
  constexpr int kRounds = 200;
  std::atomic<int> failures{0};

  auto worker = [&](int tid) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * kSpace;
    char blob[32];
    for (int r = 0; r < kRounds; ++r) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t k = base + ((r * 64 + i) % kSpace);
        std::memset(blob, static_cast<int>(k & 0xff), sizeof blob);
        m.insert(k, blob, sizeof blob);
      }
      for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t k = base + ((r * 64 + i) % kSpace);
        // Pin across the dereference: the block may be retired by our own
        // erase below on a later iteration, never freed under us.
        auto g = m.pin();
        if (const char* p = m.get_ptr(k)) {
          if (static_cast<unsigned char>(p[7]) != (k & 0xff)) {
            failures.fetch_add(1);
          }
        }
      }
      for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t k = base + ((r * 64 + i) % kSpace);
        m.erase(k);
      }
      if ((r & 15) == 0) m.quiesce();
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  CHECK(failures.load() == 0);

  // All keys erased; after checkpoints every retired block must be back in
  // the pool. (quiesce() needs one call to advance the epoch past the last
  // retirement tags and one more sweep to free them.)
  for (int i = 0; i < 8 && m.allocator().outstanding_blocks() != 0; ++i) {
    m.quiesce();
  }
  CHECK(m.allocator().outstanding_blocks() == 0);
}

/// Insert fresh keys, or erase present ones, from `first` upward until the
/// table's limbo is empty; returns how many writes that took (at most
/// `limit`).
std::uint64_t writes_until_limbo_empty(InlinedMap& m, bool erase,
                                       std::uint64_t first,
                                       std::uint64_t limit) {
  std::uint64_t n = 0;
  for (; n < limit && m.epoch().limbo_objects() != 0; ++n) {
    if (erase) {
      CHECK(m.erase(first + n));
    } else {
      CHECK(m.insert(first + n, 1));
    }
  }
  return n;
}

// Retired TableInstances from completed resizes are reclaimed while
// concurrent readers keep probing (ASan catches a premature free).
void table_instances_reclaimed() {
  std::puts("table_instances_reclaimed");
  Options o;
  o.initial_bins = 256;
  o.resize_chunk_bins = 32;
  InlinedMap m(o);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread reader([&] {
    Xoshiro256 rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = 1 + rng.next_below(50000);
      const auto v = m.get(k);
      if (v && *v != k * 3) failures.fetch_add(1);
    }
  });

  for (std::uint64_t k = 1; k <= 50000; ++k) m.insert(k, k * 3);
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  CHECK(failures.load() == 0);
  CHECK(m.resizes_completed() >= 2);
  for (std::uint64_t k = 1; k <= 50000; ++k) {
    if (m.get(k).value_or(0) != k * 3) {
      failures.fetch_add(1);
      break;
    }
  }
  CHECK(failures.load() == 0);
  // Limbo drains while the table is in use, not only at destruction: the
  // last drained generation is freed within 1024 more writes, with no
  // explicit quiesce(). (Usually the inserts above already freed it.)
  writes_until_limbo_empty(m, false, 50001, 1024);
  CHECK(m.epoch().limbo_objects() == 0);
}

// A drained generation is freed within a grace period of its migration:
// after grow_now() then shrink_now(), at most 1024 inserts (or erases)
// from the same thread empty the limbo, without quiesce() or another
// resize.
void limbo_drains_after_resize() {
  std::puts("limbo_drains_after_resize");
  for (const bool erase : {false, true}) {
    Options o;
    o.initial_bins = 1024;
    InlinedMap m(o);
    for (std::uint64_t k = 1; k <= 2048; ++k) m.insert(k, k);
    m.grow_now();
    m.shrink_now();
    CHECK(m.bins() == 1024);
    CHECK(m.epoch().limbo_objects() == 1);  // the shrink's drained source
    const std::uint64_t n =
        writes_until_limbo_empty(m, erase, erase ? 1 : 1u << 20, 1024);
    std::printf("  %s: limbo empty after %llu writes\n",
                erase ? "erases" : "inserts",
                static_cast<unsigned long long>(n));
    CHECK(m.epoch().limbo_objects() == 0);
  }
}

// A reader pinned before a shrink keeps the drained generation alive
// through 10K writes; once it unpins, at most 1024 writes free it.
void pinned_reader_holds_drained_generation() {
  std::puts("pinned_reader_holds_drained_generation");
  Options o;
  o.initial_bins = 1024;
  InlinedMap m(o);
  for (std::uint64_t k = 1; k <= 2048; ++k) m.insert(k, k);
  m.grow_now();

  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;  // 0: starting, 1: pinned, 2: release requested
  std::thread reader([&] {
    EpochManager::Guard g(m.epoch());
    std::unique_lock<std::mutex> l(mu);
    stage = 1;
    cv.notify_all();
    cv.wait(l, [&] { return stage == 2; });
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return stage == 1; });
  }

  m.shrink_now();
  // 10K writes, half inserts and half erases, so the table keeps its size.
  for (std::uint64_t k = 1u << 20; k < (1u << 20) + 5000; ++k) {
    CHECK(m.insert(k, k));
    CHECK(m.erase(k));
  }
  CHECK(m.epoch().limbo_objects() == 1);

  {
    std::lock_guard<std::mutex> l(mu);
    stage = 2;
  }
  cv.notify_all();
  reader.join();
  const std::uint64_t n = writes_until_limbo_empty(m, false, 1u << 21, 1024);
  std::printf("  limbo empty %llu writes after the reader unpinned\n",
              static_cast<unsigned long long>(n));
  CHECK(m.epoch().limbo_objects() == 0);
}

/// Takes every process-wide thread index below `n` that no live thread
/// holds, so threads started meanwhile get indices from `n` up, or the
/// ones give() hands back. Returns the rest on destruction.
class HeldIndices {
 public:
  explicit HeldIndices(unsigned n) {
    const unsigned mine = this_thread_index();
    std::vector<unsigned> high;
    while (held_.size() + (mine < n ? 1 : 0) < n) {
      const unsigned i = detail::ThreadIndexAllocator::acquire();
      (i < n ? held_ : high).push_back(i);
    }
    for (const unsigned i : high) detail::ThreadIndexAllocator::release(i);
  }
  ~HeldIndices() {
    for (const unsigned i : held_) detail::ThreadIndexAllocator::release(i);
  }
  HeldIndices(const HeldIndices&) = delete;
  HeldIndices& operator=(const HeldIndices&) = delete;

  /// Release held index `i`: the next thread to start takes it.
  void give(unsigned i) {
    const auto it = std::find(held_.begin(), held_.end(), i);
    CHECK(it != held_.end());
    if (it == held_.end()) return;
    held_.erase(it);
    detail::ThreadIndexAllocator::release(i);
  }

 private:
  std::vector<unsigned> held_;
};

/// The epoch-slot segment that thread index `idx` falls in (64, 128, 256,
/// ... slots each).
unsigned segment_of(unsigned idx) { return std::bit_width(idx + 64u) - 7; }

// Threads with indices past 1000 get epoch slots: with every smaller index
// held, three threads run table ops, a resize and retire/quiesce, and a
// Guard on such a thread holds back an object retired after its pin, so
// try_advance scans their segment.
void high_thread_indices() {
  std::puts("high_thread_indices");
  HeldIndices hold(1024);
  Options o;
  o.initial_bins = 1024;
  InlinedMap m(o);
  EpochManager em;
  g_freed.store(0);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      if (this_thread_index() < 1024) failures.fetch_add(1);
      const std::uint64_t base = (t + 1) << 32;
      for (std::uint64_t k = 0; k < 4000; ++k) m.insert(base + k, k);
      if (t == 0) m.grow_now();
      for (std::uint64_t k = 0; k < 4000; ++k) {
        if (m.get(base + k) != k) failures.fetch_add(1);
        if (k % 2 == 0 && !m.erase(base + k)) failures.fetch_add(1);
      }
      em.retire(new int(1), &counting_deleter, nullptr);
      em.quiesce();
    });
  }
  for (auto& th : threads) th.join();
  CHECK(failures.load() == 0);
  CHECK(m.approx_size() == 3 * 2000);
  CHECK(m.resizes_completed() >= 2);
  for (int i = 0; i < 8 && g_freed.load() < 3; ++i) em.quiesce();
  CHECK(g_freed.load() == 3);

  g_freed.store(0);
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;  // 0: starting, 1: pinned, 2: release requested
  std::thread reader([&] {
    if (this_thread_index() < 1024) failures.fetch_add(1);
    EpochManager::Guard g(em);
    std::unique_lock<std::mutex> l(mu);
    stage = 1;
    cv.notify_all();
    cv.wait(l, [&] { return stage == 2; });
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return stage == 1; });
  }
  em.retire(new int(2), &counting_deleter, nullptr);
  for (int i = 0; i < 8; ++i) em.quiesce();
  CHECK(g_freed.load() == 0);
  {
    std::lock_guard<std::mutex> l(mu);
    stage = 2;
  }
  cv.notify_all();
  reader.join();
  for (int i = 0; i < 8 && g_freed.load() == 0; ++i) em.quiesce();
  CHECK(g_freed.load() == 1);
  CHECK(failures.load() == 0);
}

// Eight threads whose indices fall in four segments no thread has used yet
// start together and pin, retire and quiesce concurrently. Each object
// they swap out of `published` is freed exactly once, and never while a
// Guard taken before its retirement is still held.
void segments_appear_concurrently() {
  std::puts("segments_appear_concurrently");
  struct Obj {
    std::atomic<int> frees{0};
  };
  constexpr int kThreads = 8;
  constexpr int kRounds = 1000;
  const unsigned picks[kThreads] = {40, 41, 100, 101, 300, 301, 1000, 1001};
  CHECK(this_thread_index() < picks[0]);
  HeldIndices hold(1024);
  for (const unsigned i : picks) hold.give(i);

  EpochManager em;
  std::vector<Obj> objs(kThreads * kRounds + 1);
  std::atomic<std::size_t> next_obj{1};
  std::atomic<Obj*> published{&objs[0]};
  const EpochManager::Deleter count_free = [](void* p, void*) {
    static_cast<Obj*>(p)->frees.fetch_add(1, std::memory_order_relaxed);
  };
  std::atomic<int> ready{0};
  std::atomic<int> early{0};  // freed under a Guard that predates retirement
  unsigned seen[kThreads] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = this_thread_index();
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        {
          EpochManager::Guard g(em);
          Obj* p = published.load(std::memory_order_acquire);
          if (r % 8 == 0) em.quiesce();
          if (p->frees.load(std::memory_order_relaxed) != 0) early.fetch_add(1);
        }
        Obj* old = published.exchange(&objs[next_obj.fetch_add(1)],
                                      std::memory_order_acq_rel);
        em.retire(old, count_free, nullptr);
        if (r % 32 == 0) em.quiesce();
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<unsigned> segments;
  for (const unsigned idx : seen) segments.push_back(segment_of(idx));
  std::sort(segments.begin(), segments.end());
  segments.erase(std::unique(segments.begin(), segments.end()),
                 segments.end());
  std::printf("  thread indices in %zu segments\n", segments.size());
  CHECK(segments.size() >= 3);
  CHECK(early.load() == 0);
  em.retire(published.load(), count_free, nullptr);
  em.drain_all();
  int wrong = 0;
  for (std::size_t i = 0; i < next_obj.load(); ++i) {
    wrong += objs[i].frees.load() != 1;
  }
  CHECK(wrong == 0);
}

// A new thread gets the smallest free index: after 1000 indices come back
// in ascending order (as threads exiting oldest-first return them), the
// next acquire() is the first one returned, not the last, so the new
// thread does not make its managers allocate and scan a large segment.
void smallest_free_index_first() {
  std::puts("smallest_free_index_first");
  std::vector<unsigned> idx;
  for (int i = 0; i < 1000; ++i) {
    idx.push_back(detail::ThreadIndexAllocator::acquire());
  }
  std::sort(idx.begin(), idx.end());
  for (const unsigned i : idx) detail::ThreadIndexAllocator::release(i);
  const unsigned next = detail::ThreadIndexAllocator::acquire();
  CHECK(next == idx.front());
  detail::ThreadIndexAllocator::release(next);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// This process's resident set (VmRSS), in bytes; 0 if unreadable.
std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

// A shrink gives memory back without an explicit quiesce(): after a
// 4M -> 2M-bin shrink, 1024 erases free the drained generation, and VmRSS
// falls by at least its 256 MiB main array. Checked in optimized,
// unsanitized builds only (sanitizers keep their own shadow memory).
void shrink_returns_memory() {
  std::puts("shrink_returns_memory");
  if (!kOptimized || kSanitized) {
    std::puts("  not checked (sanitized/debug build)");
    return;
  }
  constexpr std::size_t kBins = std::size_t{1} << 22;
  Options o;
  o.initial_bins = kBins;
  InlinedMap m(o);
  for (std::uint64_t k = 1; k <= (1u << 20); ++k) m.insert(k, k);
  m.shrink_now();
  CHECK(m.bins() == kBins / 2);
  const std::uint64_t before = rss_bytes();
  for (std::uint64_t k = 1; k <= 1024; ++k) CHECK(m.erase(k));
  const std::uint64_t after = rss_bytes();
  const std::uint64_t drained = kBins * sizeof(Bucket);
  std::printf("  VmRSS %.1f -> %.1f MiB (drained main array %.1f MiB)\n",
              static_cast<double>(before) / (1 << 20),
              static_cast<double>(after) / (1 << 20),
              static_cast<double>(drained) / (1 << 20));
  CHECK(m.epoch().limbo_objects() == 0);
  if (before != 0) CHECK(before >= after + drained);
}

}  // namespace

int main() {
  pin_blocks_reclamation();
  reentrant_guard();
  allocator_map_reclaims();
  table_instances_reclaimed();
  limbo_drains_after_resize();
  pinned_reader_holds_drained_generation();
  high_thread_indices();
  segments_appear_concurrently();
  smallest_free_index_first();
  shrink_returns_memory();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all epoch tests passed");
  return 0;
}
