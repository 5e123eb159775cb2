// Maged Michael's lock-free chained hash table (PODC '02) — the strongest
// textbook chaining design, built from scratch as a real opponent for the
// comparison figures.
//
// Each bucket is a key-ordered Harris-Michael linked list: logical deletes
// mark a node's next pointer (low bit), physical unlinking is a CAS on the
// predecessor, and every traversal helps by unlinking any marked node it
// steps over. All operations are lock-free; none ever blocks another.
//
// Reclamation: the original uses hazard pointers; this reproduction reuses
// the repo's own epoch machinery (dlht::EpochManager, epoch.hpp) —
// hazard-era style. Every operation pins an epoch Guard; the thread whose
// unlink CAS succeeds retires the node, and the three-epoch invariant
// frees it only after every thread that could still hold a reference has
// passed a quiescent point. Unlinks succeed exactly once, so each node is
// retired exactly once — the reclamation-under-readers case in
// baseline_equivalence_test runs this under ASan and TSan.
//
// Deletes genuinely free their node (no tombstones), so like DLHT — and
// unlike the tombstoned open-addressing field — this design survives the
// InsDel mix indefinitely. Its handicap is pointer-chasing: every Get is a
// dependent-load walk, which is exactly the cost DLHT's inline buckets
// avoid; the per-chunk head prefetch in the batched entry points is the
// best a chaining design can do about it.
//
// Conforms to workload::DlhtLikeMap (scalar get/put/insert/erase plus
// get_batch/execute_batch with DLHT's Request/Reply).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "dlht/dlht.hpp"
#include "dlht/epoch.hpp"
#include "dlht/hash.hpp"

namespace dlht::baselines {

template <class Hash = XxMixHash>
class MagedMichaelMap {
 public:
  using Request = DLHT::Request;
  using Reply = DLHT::Reply;

  explicit MagedMichaelMap(std::uint64_t buckets)
      : nbuckets_(ceil_pow2(buckets < 64 ? 64 : buckets)),
        mask_(nbuckets_ - 1),
        heads_(std::make_unique<Head[]>(nbuckets_)) {}

  ~MagedMichaelMap() {
    // Live nodes are freed here; already-unlinked ones sit in the epoch
    // limbo lists and are drained by the EpochManager destructor (which
    // runs after this body — member teardown order).
    for (std::size_t b = 0; b < nbuckets_; ++b) {
      Node* n = clear_mark(heads_[b].next.load(std::memory_order_relaxed));
      while (n != nullptr) {
        Node* nx = clear_mark(n->next.load(std::memory_order_relaxed));
        delete n;
        n = nx;
      }
    }
  }

  MagedMichaelMap(const MagedMichaelMap&) = delete;
  MagedMichaelMap& operator=(const MagedMichaelMap&) = delete;

  std::optional<std::uint64_t> get(std::uint64_t k) const {
    EpochManager::Guard g(epoch_);
    const Node* n =
        clear_mark(bucket_of(k).next.load(std::memory_order_acquire));
    while (n != nullptr && n->key < k) {
      n = clear_mark(n->next.load(std::memory_order_acquire));
    }
    if (n != nullptr && n->key == k &&
        !is_marked(n->next.load(std::memory_order_acquire))) {
      return n->value.load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    EpochManager::Guard g(epoch_);
    return insert_pinned(k, v, /*upsert=*/false) == Status::kOk;
  }

  /// Upsert; true when an existing entry was overwritten (DLHT semantics).
  bool put(std::uint64_t k, std::uint64_t v) {
    EpochManager::Guard g(epoch_);
    return insert_pinned(k, v, /*upsert=*/true) == Status::kExists;
  }

  bool erase(std::uint64_t k) {
    std::uint64_t dropped;
    EpochManager::Guard g(epoch_);
    return erase_pinned(k, dropped);
  }

  /// Two-stage batched lookup: prefetch every bucket head, then walk.
  void get_batch(const std::uint64_t* ks, Reply* out, std::size_t n) const {
    EpochManager::Guard g(epoch_);
    constexpr std::size_t kChunk = 32;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      for (std::size_t j = 0; j < m; ++j) {
        __builtin_prefetch(&heads_[Hash{}(ks[base + j]) & mask_], 0, 3);
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
    EpochManager::Guard g(epoch_);  // reentrant: scalar ops nest for free
    constexpr std::size_t kChunk = 32;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      for (std::size_t j = 0; j < m; ++j) {
        __builtin_prefetch(&heads_[Hash{}(reqs[base + j].key) & mask_], 1, 3);
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
            rp.status = insert_pinned(rq.key, rq.value, /*upsert=*/true);
            rp.value = 0;
            break;
          case OpType::kInsert:
            rp.status = insert_pinned(rq.key, rq.value, /*upsert=*/false);
            rp.value = 0;
            break;
          case OpType::kDelete: {
            std::uint64_t old = 0;
            rp.status =
                erase_pinned(rq.key, old) ? Status::kOk : Status::kNotFound;
            rp.value = old;
            break;
          }
        }
      }
    }
  }

  /// Best-effort epoch checkpoint (tests use it to prove retired nodes
  /// actually get freed while readers run).
  void quiesce() { epoch_.quiesce(); }

 private:
  struct Node {
    std::uint64_t key;
    std::atomic<std::uint64_t> value;
    std::atomic<Node*> next;

    Node(std::uint64_t k, std::uint64_t v, Node* nx)
        : key(k), value(v), next(nx) {}
  };

  // Heads are deliberately unpadded (8 bytes): at paper scale (100M
  // buckets) cache-line padding would cost 6+ GB by itself, and the
  // design's cost is the chain walk, not head false sharing.
  struct Head {
    std::atomic<Node*> next{nullptr};
  };

  static bool is_marked(const Node* p) {
    return (reinterpret_cast<std::uintptr_t>(p) & 1u) != 0;
  }
  static Node* mark(Node* p) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) | 1u);
  }
  static Node* clear_mark(Node* p) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) &
                                   ~std::uintptr_t{1});
  }

  Head& bucket_of(std::uint64_t k) const {
    return heads_[Hash{}(k) & mask_];
  }

  static void free_node(void* obj, void* /*ctx*/) {
    delete static_cast<Node*>(obj);
  }

  /// Harris-Michael search: position (prev, cur) such that cur is the
  /// first unmarked node with key >= k. Unlinks (and retires) every marked
  /// node stepped over — the "helping" that keeps the list lock-free.
  struct Position {
    std::atomic<Node*>* prev;
    Node* cur;   // nullptr = end of chain
    Node* next;  // cur's unmarked successor snapshot
  };

  Position find(std::atomic<Node*>& head, std::uint64_t k) {
  retry:
    for (;;) {
      std::atomic<Node*>* prev = &head;
      Node* cur = clear_mark(prev->load(std::memory_order_acquire));
      for (;;) {
        if (cur == nullptr) return {prev, nullptr, nullptr};
        Node* nx = cur->next.load(std::memory_order_acquire);
        if (is_marked(nx)) {
          // cur is logically deleted: unlink it. Whoever wins this CAS
          // owns the retire (it can succeed exactly once).
          Node* expected = cur;
          if (!prev->compare_exchange_strong(expected, clear_mark(nx),
                                             std::memory_order_acq_rel)) {
            goto retry;  // chain changed under us: restart from the head
          }
          epoch_.retire(cur, &free_node, nullptr);
          cur = clear_mark(nx);
          continue;
        }
        if (cur->key >= k) return {prev, cur, nx};
        prev = &cur->next;
        cur = clear_mark(nx);
      }
    }
  }

  /// Insert/upsert under an active Guard. Returns kOk (inserted) or
  /// kExists (key present; value overwritten iff upsert).
  Status insert_pinned(std::uint64_t k, std::uint64_t v, bool upsert) {
    std::atomic<Node*>& head = bucket_of(k).next;
    Node* fresh = nullptr;
    for (;;) {
      Position pos = find(head, k);
      if (pos.cur != nullptr && pos.cur->key == k) {
        delete fresh;  // lost the race to an equal key
        if (upsert) pos.cur->value.store(v, std::memory_order_release);
        return Status::kExists;
      }
      if (fresh == nullptr) fresh = new Node(k, v, pos.cur);
      fresh->next.store(pos.cur, std::memory_order_relaxed);
      Node* expected = pos.cur;
      if (pos.prev->compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel)) {
        return Status::kOk;
      }
    }
  }

  /// Erase under an active Guard: mark, then unlink (retiring on success;
  /// on CAS failure a re-find performs the unlink for us).
  bool erase_pinned(std::uint64_t k, std::uint64_t& old_value) {
    std::atomic<Node*>& head = bucket_of(k).next;
    for (;;) {
      Position pos = find(head, k);
      if (pos.cur == nullptr || pos.cur->key != k) return false;
      Node* nx = pos.next;
      old_value = pos.cur->value.load(std::memory_order_acquire);
      if (!pos.cur->next.compare_exchange_strong(
              nx, mark(nx), std::memory_order_acq_rel)) {
        continue;  // raced with another erase or an insert after cur
      }
      Node* expected = pos.cur;
      if (pos.prev->compare_exchange_strong(expected, nx,
                                            std::memory_order_acq_rel)) {
        epoch_.retire(pos.cur, &free_node, nullptr);
      } else {
        find(head, k);  // helper path unlinks (and retires) the marked node
      }
      return true;
    }
  }

  std::size_t nbuckets_;
  std::size_t mask_;
  std::unique_ptr<Head[]> heads_;
  mutable EpochManager epoch_;
};

}  // namespace dlht::baselines
