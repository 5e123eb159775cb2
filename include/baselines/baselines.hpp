// Bench-grade reimplementations of the designs DLHT is compared against
// (Table 3). Each reproduces the *mechanism* that drives its figure-level
// behavior — open addressing with tombstones (GrowT/Folly/Leapfrog),
// CLHT-style cache-line buckets, DRAMHiT-style in-batch reordering,
// MICA's two-access index+store, 2-choice cuckoo buckets, and a sharded
// locked std::unordered_map ("Locked").
//
// These are opponents for throughput figures, not production maps: reads
// are lock-free but only loosely snapshot-consistent under racing writers.
// The workloads only ever write disjoint key ranges concurrently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "dlht/hash.hpp"

namespace dlht::baselines {

/// Result of one batched lookup (MICA-style get_batch output).
struct Lookup {
  bool found = false;
  std::uint64_t value = 0;
};

namespace detail {

enum class Probe { kLinear, kQuadratic, kStride };

/// Open-addressing table with tombstoned deletes — the skeleton shared by
/// GrowT-, Folly-, and Leapfrog-likes (they differ in probe sequence).
/// Key 0 is the empty sentinel, ~0 the tombstone; workloads use keys >= 1.
template <class Hash, Probe P>
class OpenTable {
 public:
  /// `max_fill` > 0 arms the resize-policy counter: when occupied cells
  /// (live + tombstone) cross max_fill * capacity, migrations() ticks and
  /// the threshold doubles. No actual migration runs — tab01's occupancy
  /// study only needs to observe *when* the policy would fire (GrowT's is
  /// 30 %).
  explicit OpenTable(std::uint64_t capacity, double max_fill = 0.0)
      : cap_(ceil_pow2(capacity < 64 ? 64 : capacity)), mask_(cap_ - 1),
        cells_(std::make_unique<Cell[]>(cap_)),
        grow_at_(max_fill > 0.0
                     ? static_cast<std::uint64_t>(
                           max_fill * static_cast<double>(cap_))
                     : 0) {}

  /// Times the fill policy fired (see constructor); 0 when unarmed.
  std::uint64_t migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    const std::uint64_t h = Hash{}(k);
    std::size_t i = h & mask_;
    const std::size_t stride = stride_of(h);
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      std::uint64_t cur = cells_[i].key.load(std::memory_order_acquire);
      if (cur == k) {
        cells_[i].value.store(v, std::memory_order_release);
        return false;
      }
      // Tombstones are dead until a (not-implemented) migration reclaims
      // them — faithful to GrowT, and the reason InsDel collapses these
      // designs: probe chains only ever grow.
      if (cur == kEmpty) {
        if (cells_[i].key.compare_exchange_strong(cur, k,
                                                  std::memory_order_acq_rel)) {
          cells_[i].value.store(v, std::memory_order_release);
          note_fill();
          return true;
        }
        if (cur == k) {
          cells_[i].value.store(v, std::memory_order_release);
          return false;
        }
      }
      i = advance(i, stride, probes);
    }
    return false;  // table full
  }

  bool put(std::uint64_t k, std::uint64_t v) { return !insert(k, v); }

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    const std::uint64_t h = Hash{}(k);
    std::size_t i = h & mask_;
    const std::size_t stride = stride_of(h);
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      const std::uint64_t cur = cells_[i].key.load(std::memory_order_acquire);
      if (cur == kEmpty) return std::nullopt;
      if (cur == k) return cells_[i].value.load(std::memory_order_acquire);
      i = advance(i, stride, probes);
    }
    return std::nullopt;
  }

  /// Delete leaves a tombstone: probe chains never shrink, which is exactly
  /// the behavior that collapses these designs on the InsDel mix.
  bool erase(std::uint64_t k) {
    const std::uint64_t h = Hash{}(k);
    std::size_t i = h & mask_;
    const std::size_t stride = stride_of(h);
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      std::uint64_t cur = cells_[i].key.load(std::memory_order_acquire);
      if (cur == kEmpty) return false;
      if (cur == k) {
        return cells_[i].key.compare_exchange_strong(
            cur, kTomb, std::memory_order_acq_rel);
      }
      i = advance(i, stride, probes);
    }
    return false;
  }

  void prefetch_key(std::uint64_t k) const {
    __builtin_prefetch(&cells_[Hash{}(k) & mask_], 0, 3);
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kTomb = ~std::uint64_t{0};

  static std::size_t stride_of(std::uint64_t h) {
    if constexpr (P == Probe::kStride) {
      return static_cast<std::size_t>((h >> 57) | 1);
    } else {
      return 1;
    }
  }
  std::size_t advance(std::size_t i, std::size_t stride,
                      std::size_t probes) const {
    if constexpr (P == Probe::kQuadratic) {
      return (i + probes + 1) & mask_;
    } else {
      return (i + stride) & mask_;
    }
  }

  void note_fill() {
    const std::uint64_t n = filled_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t at = grow_at_.load(std::memory_order_relaxed);
    if (at != 0 && n == at) {
      migrations_.fetch_add(1, std::memory_order_relaxed);
      grow_at_.store(at * 2, std::memory_order_relaxed);
    }
  }

  std::size_t cap_;
  std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  std::atomic<std::uint64_t> filled_{0};  // cells ever occupied (incl. tomb)
  std::atomic<std::uint64_t> grow_at_{0};
  std::atomic<std::uint64_t> migrations_{0};
};

}  // namespace detail

template <class Hash = XxMixHash>
using GrowtLike = detail::OpenTable<Hash, detail::Probe::kLinear>;

template <class Hash = XxMixHash>
using FollyLike = detail::OpenTable<Hash, detail::Probe::kQuadratic>;

template <class Hash = XxMixHash>
using LeapfrogLike = detail::OpenTable<Hash, detail::Probe::kStride>;

/// CLHT-style: one cache line per bin (lock word + 3 kv pairs + overflow
/// pointer), lock-free reads, per-bin spinlock writes.
template <class Hash = XxMixHash>
class ClhtLike {
 public:
  explicit ClhtLike(std::uint64_t expected_keys)
      : bins_(ceil_pow2(expected_keys < 16 ? 16 : expected_keys)),
        mask_(bins_ - 1), table_(new Node[bins_]) {}

  ~ClhtLike() {
    for (std::size_t b = 0; b < bins_; ++b) {
      Node* n = table_[b].next.load(std::memory_order_relaxed);
      while (n != nullptr) {
        Node* d = n;
        n = n->next.load(std::memory_order_relaxed);
        delete d;
      }
    }
  }

  ClhtLike(const ClhtLike&) = delete;
  ClhtLike& operator=(const ClhtLike&) = delete;

  /// Times a bin overflowed its three in-line slots (an overflow node had
  /// to be chained). Real CLHT triggers its serial, blocking resize on this
  /// event — tab01's occupancy study counts it as "would have resized".
  std::uint64_t resizes() const {
    return overflows_.load(std::memory_order_relaxed);
  }

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    for (const Node* n = &table_[Hash{}(k) & mask_]; n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      for (int i = 0; i < 3; ++i) {
        if (n->keys[i].load(std::memory_order_acquire) == k) {
          return n->vals[i].load(std::memory_order_acquire);
        }
      }
    }
    return std::nullopt;
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    Node* bin = &table_[Hash{}(k) & mask_];
    lock(bin);
    Node* free_n = nullptr;
    int free_i = -1;
    Node* n = bin;
    Node* tail = bin;
    for (; n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
      tail = n;
      for (int i = 0; i < 3; ++i) {
        const std::uint64_t cur = n->keys[i].load(std::memory_order_relaxed);
        if (cur == k) {
          n->vals[i].store(v, std::memory_order_release);
          unlock(bin);
          return false;
        }
        if (cur == 0 && free_n == nullptr) {
          free_n = n;
          free_i = i;
        }
      }
    }
    if (free_n == nullptr) {
      Node* fresh = new Node;
      fresh->keys[0].store(k, std::memory_order_relaxed);
      fresh->vals[0].store(v, std::memory_order_relaxed);
      tail->next.store(fresh, std::memory_order_release);
      overflows_.fetch_add(1, std::memory_order_relaxed);
    } else {
      free_n->vals[free_i].store(v, std::memory_order_relaxed);
      free_n->keys[free_i].store(k, std::memory_order_release);
    }
    unlock(bin);
    return true;
  }

  bool put(std::uint64_t k, std::uint64_t v) { return !insert(k, v); }

  bool erase(std::uint64_t k) {
    Node* bin = &table_[Hash{}(k) & mask_];
    lock(bin);
    for (Node* n = bin; n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 3; ++i) {
        if (n->keys[i].load(std::memory_order_relaxed) == k) {
          n->keys[i].store(0, std::memory_order_release);
          unlock(bin);
          return true;
        }
      }
    }
    unlock(bin);
    return false;
  }

 private:
  struct alignas(64) Node {
    std::atomic<std::uint64_t> lck{0};
    std::atomic<std::uint64_t> keys[3]{};
    std::atomic<std::uint64_t> vals[3]{};
    std::atomic<Node*> next{nullptr};
  };
  static_assert(sizeof(Node) == 64);

  static void lock(Node* bin) {
    while (bin->lck.exchange(1, std::memory_order_acquire) != 0) {
    }
  }
  static void unlock(Node* bin) {
    bin->lck.store(0, std::memory_order_release);
  }

  std::size_t bins_;
  std::size_t mask_;
  std::unique_ptr<Node[]> table_;
  std::atomic<std::uint64_t> overflows_{0};
};

/// DRAMHiT-style: open addressing plus a request-reordering batch API that
/// prefetches every request's home cell before any probe runs.
template <class Hash = XxMixHash>
class DramhitLike {
 public:
  enum class Op { kFind, kInsert };
  struct Request {
    Op op;
    std::uint64_t key;
    std::uint64_t value;
  };
  struct Reply {
    bool found = false;
    std::uint64_t value = 0;
  };

  explicit DramhitLike(std::uint64_t capacity) : impl_(capacity) {}

  bool insert(std::uint64_t k, std::uint64_t v) { return impl_.insert(k, v); }
  bool put(std::uint64_t k, std::uint64_t v) { return impl_.put(k, v); }
  std::optional<std::uint64_t> get(std::uint64_t k) const {
    return impl_.get(k);
  }
  bool erase(std::uint64_t k) { return impl_.erase(k); }

  void execute_batch(const Request* reqs, Reply* reps, std::size_t n) {
    constexpr std::size_t kChunk = 64;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      for (std::size_t j = 0; j < m; ++j) {
        impl_.prefetch_key(reqs[base + j].key);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const Request& rq = reqs[base + j];
        Reply& rp = reps[base + j];
        if (rq.op == Op::kFind) {
          const auto v = impl_.get(rq.key);
          rp.found = v.has_value();
          rp.value = v ? *v : 0;
        } else {
          rp.found = impl_.insert(rq.key, rq.value);
          rp.value = 0;
        }
      }
    }
  }

 private:
  GrowtLike<Hash> impl_;
};

/// MICA-style: a lossy bucketed index of (tag, offset) entries pointing
/// into a separate item store — every Get costs two dependent accesses,
/// which its two-stage prefetched get_batch tries to hide.
template <class Hash = XxMixHash>
class MicaLike {
 public:
  explicit MicaLike(std::uint64_t index_buckets)
      : nbuckets_(ceil_pow2(index_buckets < 16 ? 16 : index_buckets)),
        mask_(nbuckets_ - 1), entries_(nbuckets_ * kAssoc),
        index_(std::make_unique<std::atomic<std::uint64_t>[]>(entries_)),
        store_(std::make_unique<Item[]>(entries_)) {}

  MicaLike(const MicaLike&) = delete;
  MicaLike& operator=(const MicaLike&) = delete;

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    const std::uint64_t h = Hash{}(k);
    const std::size_t base = (h & mask_) * kAssoc;
    const std::uint64_t tg = tag_of(h);
    for (std::size_t e = 0; e < kAssoc; ++e) {
      const std::uint64_t ent =
          index_[base + e].load(std::memory_order_acquire);
      if (ent == 0 || (ent >> 48) != tg) continue;
      const std::uint64_t off = (ent & kOffMask) - 1;
      if (store_[off].key.load(std::memory_order_acquire) == k) {
        return store_[off].value.load(std::memory_order_acquire);
      }
    }
    return std::nullopt;
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    const std::uint64_t h = Hash{}(k);
    const std::size_t base = (h & mask_) * kAssoc;
    const std::uint64_t tg = tag_of(h);
    for (std::size_t e = 0; e < kAssoc; ++e) {
      const std::uint64_t ent =
          index_[base + e].load(std::memory_order_acquire);
      if (ent == 0 || (ent >> 48) != tg) continue;
      const std::uint64_t off = (ent & kOffMask) - 1;
      if (store_[off].key.load(std::memory_order_relaxed) == k) {
        store_[off].value.store(v, std::memory_order_release);
        return false;
      }
    }
    std::uint64_t off;
    if (!alloc_item(&off)) return false;
    store_[off].key.store(k, std::memory_order_relaxed);
    store_[off].value.store(v, std::memory_order_relaxed);
    const std::uint64_t ent = (tg << 48) | (off + 1);
    for (std::size_t e = 0; e < kAssoc; ++e) {
      std::uint64_t expected = 0;
      if (index_[base + e].compare_exchange_strong(
              expected, ent, std::memory_order_release)) {
        return true;
      }
    }
    // Bucket full: MICA is lossy — evict a pseudo-random victim.
    const std::uint64_t old = index_[base + ((h >> 32) & (kAssoc - 1))]
                                  .exchange(ent, std::memory_order_acq_rel);
    if (old != 0) free_item((old & kOffMask) - 1);
    return true;
  }

  bool put(std::uint64_t k, std::uint64_t v) { return !insert(k, v); }

  bool erase(std::uint64_t k) {
    const std::uint64_t h = Hash{}(k);
    const std::size_t base = (h & mask_) * kAssoc;
    const std::uint64_t tg = tag_of(h);
    for (std::size_t e = 0; e < kAssoc; ++e) {
      std::uint64_t ent = index_[base + e].load(std::memory_order_acquire);
      if (ent == 0 || (ent >> 48) != tg) continue;
      const std::uint64_t off = (ent & kOffMask) - 1;
      if (store_[off].key.load(std::memory_order_relaxed) != k) continue;
      if (index_[base + e].compare_exchange_strong(
              ent, 0, std::memory_order_acq_rel)) {
        free_item(off);
        return true;
      }
    }
    return false;
  }

  /// Two-stage batched lookup: prefetch all index buckets, resolve entries
  /// while prefetching the pointed-to items, then read the items.
  void get_batch(const std::uint64_t* keys, Lookup* out, std::size_t n) const {
    constexpr std::size_t kChunk = 64;
    std::uint64_t hs[kChunk];
    std::uint64_t offs[kChunk];
    for (std::size_t cb = 0; cb < n; cb += kChunk) {
      const std::size_t m = n - cb < kChunk ? n - cb : kChunk;
      for (std::size_t j = 0; j < m; ++j) {
        hs[j] = Hash{}(keys[cb + j]);
        __builtin_prefetch(&index_[(hs[j] & mask_) * kAssoc], 0, 3);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t base = (hs[j] & mask_) * kAssoc;
        const std::uint64_t tg = tag_of(hs[j]);
        offs[j] = 0;
        for (std::size_t e = 0; e < kAssoc; ++e) {
          const std::uint64_t ent =
              index_[base + e].load(std::memory_order_acquire);
          if (ent != 0 && (ent >> 48) == tg) {
            offs[j] = ent & kOffMask;
            __builtin_prefetch(&store_[offs[j] - 1], 0, 3);
            break;
          }
        }
      }
      for (std::size_t j = 0; j < m; ++j) {
        Lookup& lk = out[cb + j];
        lk.found = false;
        lk.value = 0;
        if (offs[j] == 0) continue;
        const Item& it = store_[offs[j] - 1];
        if (it.key.load(std::memory_order_acquire) == keys[cb + j]) {
          lk.found = true;
          lk.value = it.value.load(std::memory_order_acquire);
        } else if (const auto v = get(keys[cb + j])) {
          // The first tag match holds another key: scan on, as get() does.
          lk.found = true;
          lk.value = *v;
        }
      }
    }
  }

 private:
  static constexpr std::size_t kAssoc = 8;
  static constexpr std::uint64_t kOffMask = (std::uint64_t{1} << 48) - 1;

  struct Item {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> value{0};
  };

  static std::uint64_t tag_of(std::uint64_t h) { return (h >> 48) & 0xffff; }

  bool alloc_item(std::uint64_t* off) {
    {
      std::lock_guard<std::mutex> g(free_mu_);
      if (!free_.empty()) {
        *off = free_.back();
        free_.pop_back();
        return true;
      }
    }
    const std::uint64_t i = bump_.fetch_add(1, std::memory_order_relaxed);
    if (i >= entries_) return false;
    *off = i;
    return true;
  }
  void free_item(std::uint64_t off) {
    std::lock_guard<std::mutex> g(free_mu_);
    free_.push_back(off);
  }

  std::size_t nbuckets_;
  std::size_t mask_;
  std::size_t entries_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> index_;
  std::unique_ptr<Item[]> store_;
  std::atomic<std::uint64_t> bump_{0};
  std::mutex free_mu_;
  std::vector<std::uint64_t> free_;
};

/// 2-choice cuckoo with 4-slot buckets. Reads are lock-free; writers
/// serialize on one mutex (the built comparison benches only read it
/// concurrently — population is single-threaded).
template <class Hash = XxMixHash>
class CuckooLike {
 public:
  explicit CuckooLike(std::uint64_t capacity_slots)
      : nbuckets_(ceil_pow2(
            (capacity_slots < 64 ? 64 : capacity_slots) / kSlots)),
        mask_(nbuckets_ - 1), table_(new BucketC[nbuckets_]) {}

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    const std::uint64_t h = Hash{}(k);
    for (const std::size_t b : {bucket1(h), bucket2(h)}) {
      const BucketC& bk = table_[b];
      for (int i = 0; i < kSlots; ++i) {
        if (bk.keys[i].load(std::memory_order_acquire) == k) {
          return bk.vals[i].load(std::memory_order_acquire);
        }
      }
    }
    return std::nullopt;
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    std::lock_guard<std::mutex> g(write_mu_);
    const std::uint64_t h = Hash{}(k);
    for (const std::size_t b : {bucket1(h), bucket2(h)}) {
      for (int i = 0; i < kSlots; ++i) {
        if (table_[b].keys[i].load(std::memory_order_relaxed) == k) {
          table_[b].vals[i].store(v, std::memory_order_release);
          return false;
        }
      }
    }
    std::uint64_t ck = k, cv = v;
    std::size_t b = bucket1(h);
    for (int depth = 0; depth < 256; ++depth) {
      BucketC& bk = table_[b];
      for (int i = 0; i < kSlots; ++i) {
        if (bk.keys[i].load(std::memory_order_relaxed) == 0) {
          bk.vals[i].store(cv, std::memory_order_relaxed);
          bk.keys[i].store(ck, std::memory_order_release);
          return true;
        }
      }
      // Evict a victim and move it to its alternate bucket.
      const int vi = depth & (kSlots - 1);
      const std::uint64_t vk = bk.keys[vi].load(std::memory_order_relaxed);
      const std::uint64_t vv = bk.vals[vi].load(std::memory_order_relaxed);
      bk.vals[vi].store(cv, std::memory_order_relaxed);
      bk.keys[vi].store(ck, std::memory_order_release);
      ck = vk;
      cv = vv;
      const std::uint64_t vh = Hash{}(ck);
      b = (b == bucket1(vh)) ? bucket2(vh) : bucket1(vh);
    }
    return false;  // displacement chain too long
  }

  bool put(std::uint64_t k, std::uint64_t v) { return !insert(k, v); }

  bool erase(std::uint64_t k) {
    std::lock_guard<std::mutex> g(write_mu_);
    const std::uint64_t h = Hash{}(k);
    for (const std::size_t b : {bucket1(h), bucket2(h)}) {
      for (int i = 0; i < kSlots; ++i) {
        if (table_[b].keys[i].load(std::memory_order_relaxed) == k) {
          table_[b].keys[i].store(0, std::memory_order_release);
          return true;
        }
      }
    }
    return false;
  }

 private:
  static constexpr int kSlots = 4;
  struct alignas(64) BucketC {
    std::atomic<std::uint64_t> keys[kSlots]{};
    std::atomic<std::uint64_t> vals[kSlots]{};
  };

  std::size_t bucket1(std::uint64_t h) const { return h & mask_; }
  std::size_t bucket2(std::uint64_t h) const {
    return (h >> 32 ^ 0x5bd1e995) & mask_;
  }

  std::size_t nbuckets_;
  std::size_t mask_;
  std::unique_ptr<BucketC[]> table_;
  std::mutex write_mu_;
};

/// The simplest opponent: std::unordered_map sharded under mutexes (the
/// single-thread floor of fig16).
template <class Hash = XxMixHash, std::size_t kShards = 16>
class Locked {
 public:
  explicit Locked(std::uint64_t expected_keys)
      : shards_(std::make_unique<Shard[]>(kShards)) {
    for (std::size_t s = 0; s < kShards; ++s) {
      shards_[s].map.reserve(expected_keys / kShards + 1);
    }
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    Shard& s = shard(k);
    std::lock_guard<std::mutex> g(s.mu);
    return s.map.emplace(k, v).second;
  }
  bool put(std::uint64_t k, std::uint64_t v) {
    Shard& s = shard(k);
    std::lock_guard<std::mutex> g(s.mu);
    const bool existed = s.map.count(k) != 0;
    s.map[k] = v;
    return existed;
  }
  std::optional<std::uint64_t> get(std::uint64_t k) const {
    Shard& s = shard(k);
    std::lock_guard<std::mutex> g(s.mu);
    const auto it = s.map.find(k);
    if (it == s.map.end()) return std::nullopt;
    return it->second;
  }
  bool erase(std::uint64_t k) {
    Shard& s = shard(k);
    std::lock_guard<std::mutex> g(s.mu);
    return s.map.erase(k) != 0;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
  };
  Shard& shard(std::uint64_t k) const {
    return shards_[Hash{}(k) % kShards];
  }
  std::unique_ptr<Shard[]> shards_;
};

/// A growing open-addressing table with a *blocking* resize: writers hold a
/// shared lock, and whichever inserter trips the load trigger takes the
/// exclusive lock and rehashes alone while every other thread stalls. This
/// is the mechanism DLHT's non-blocking shadow migration is compared
/// against in the population figure (Fig. 7): past a few threads the serial
/// stop-the-world rehash dominates and population throughput flatlines.
template <class Hash = XxMixHash>
class BlockingGrowTable {
 public:
  explicit BlockingGrowTable(std::uint64_t capacity)
      : cap_(ceil_pow2(capacity < 64 ? 64 : capacity)),
        cells_(std::make_unique<Cell[]>(cap_)) {}

  bool insert(std::uint64_t k, std::uint64_t v) {
    for (;;) {
      bool placed = false;
      {
        std::shared_lock<std::shared_mutex> g(mu_);
        const std::size_t mask = cap_ - 1;
        std::size_t i = Hash{}(k) & mask;
        for (std::size_t probes = 0; probes <= mask; ++probes) {
          std::uint64_t cur = cells_[i].key.load(std::memory_order_acquire);
          if (cur == k) {
            cells_[i].value.store(v, std::memory_order_release);
            return false;
          }
          if (cur == 0) {
            if (cells_[i].key.compare_exchange_strong(
                    cur, k, std::memory_order_acq_rel)) {
              cells_[i].value.store(v, std::memory_order_release);
              if ((size_.fetch_add(1, std::memory_order_relaxed) + 1) * 10 >
                  cap_ * 6) {
                want_grow_.store(true, std::memory_order_relaxed);
              }
              placed = true;
              break;
            }
            if (cur == k) {
              cells_[i].value.store(v, std::memory_order_release);
              return false;
            }
          }
          i = (i + 1) & mask;
        }
      }
      if (want_grow_.load(std::memory_order_relaxed)) grow();
      if (placed) return true;
      // Table was full before the trigger fired (pathological): grow and
      // retry the probe from scratch.
    }
  }

  bool put(std::uint64_t k, std::uint64_t v) { return !insert(k, v); }

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    std::shared_lock<std::shared_mutex> g(mu_);
    const std::size_t mask = cap_ - 1;
    std::size_t i = Hash{}(k) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes) {
      const std::uint64_t cur = cells_[i].key.load(std::memory_order_acquire);
      if (cur == 0) return std::nullopt;
      if (cur == k) return cells_[i].value.load(std::memory_order_acquire);
      i = (i + 1) & mask;
    }
    return std::nullopt;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> value{0};
  };

  /// The blocking part: one thread rehashes every cell into a double-size
  /// array while holding the exclusive lock; everyone else waits.
  void grow() {
    std::unique_lock<std::shared_mutex> g(mu_);
    if (!want_grow_.load(std::memory_order_relaxed)) return;  // raced: done
    const std::size_t ncap = cap_ * 2;
    auto ncells = std::make_unique<Cell[]>(ncap);
    const std::size_t nmask = ncap - 1;
    for (std::size_t i = 0; i < cap_; ++i) {
      const std::uint64_t k = cells_[i].key.load(std::memory_order_relaxed);
      if (k == 0) continue;
      std::size_t j = Hash{}(k) & nmask;
      while (ncells[j].key.load(std::memory_order_relaxed) != 0) {
        j = (j + 1) & nmask;
      }
      ncells[j].key.store(k, std::memory_order_relaxed);
      ncells[j].value.store(cells_[i].value.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    cells_ = std::move(ncells);
    cap_ = ncap;
    want_grow_.store(false, std::memory_order_relaxed);
  }

  mutable std::shared_mutex mu_;
  std::size_t cap_;
  std::unique_ptr<Cell[]> cells_;
  std::atomic<std::uint64_t> size_{0};
  std::atomic<bool> want_grow_{false};
};

}  // namespace dlht::baselines

// The two strong from-scratch opponents live in sibling headers (they pull
// in the DLHT core for Request/Reply and the epoch machinery); including
// them here keeps "the baselines" one include for the bench layer.
#include "baselines/maged_michael.hpp"  // IWYU pragma: export
#include "baselines/robin_hood.hpp"     // IWYU pragma: export
