// Database lock manager over DLHT's HashSet (§5.3.3, Fig. 17).
//
// A held lock is a present key: insert-if-absent is try-lock (insert fails
// iff someone else holds the record), delete is unlock. The batched lock
// path issues one execute_batch of inserts in the caller's canonical
// (sorted) record order — the 2PL pattern — so the pipeline's prefetch
// stage hides the DRAM latency of the lock-table lines, which is where the
// paper's up-to-2.2x over scalar locking comes from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dlht/dlht.hpp"

namespace dlht::apps {

class LockManager {
 public:
  explicit LockManager(const Options& o) : set_(o) {}

  /// Try-lock: false means another session holds the record.
  bool lock(std::uint64_t rec) { return set_.insert(tag(rec)); }
  void unlock(std::uint64_t rec) { set_.erase(tag(rec)); }
  bool held(std::uint64_t rec) const { return set_.contains(tag(rec)); }

  std::int64_t locks_held() const { return set_.approx_size(); }

  /// Per-worker handle owning the batch buffers, so the hot path never
  /// allocates. Copyable: benches capture one per worker closure.
  class Session {
   public:
    explicit Session(LockManager& lm) : lm_(&lm) {}

    /// All-or-nothing batched try-lock of `recs` (caller-deduplicated, in
    /// canonical order). One pipelined batch of inserts; on any conflict
    /// the locks that were acquired are released — again batched — and the
    /// transaction should back off and retry.
    bool lock_all(const std::vector<std::uint64_t>& recs) {
      const std::size_t n = recs.size();
      reqs_.resize(n);
      reps_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        reqs_[i] = {OpType::kInsert, tag(recs[i]), 0, 0};
      }
      lm_->set_.execute_batch(reqs_.data(), reps_.data(), n);
      std::size_t got = 0;
      for (std::size_t i = 0; i < n; ++i) {
        got += reps_[i].status == Status::kOk ? 1 : 0;
      }
      if (got == n) return true;
      // Roll back the acquisitions that did land (conflicting inserts in
      // the middle of the batch do not stop the ones after them).
      std::size_t r = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (reps_[i].status == Status::kOk) {
          reqs_[r++] = {OpType::kDelete, tag(recs[i]), 0, 0};
        }
      }
      if (r != 0) lm_->set_.execute_batch(reqs_.data(), reps_.data(), r);
      return false;
    }

    /// Batched unlock of records previously acquired via lock_all.
    void unlock_all(const std::vector<std::uint64_t>& recs) {
      const std::size_t n = recs.size();
      reqs_.resize(n);
      reps_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        reqs_[i] = {OpType::kDelete, tag(recs[i]), 0, 0};
      }
      lm_->set_.execute_batch(reqs_.data(), reps_.data(), n);
    }

   private:
    LockManager* lm_;
    std::vector<HashSet::Request> reqs_;
    std::vector<HashSet::Reply> reps_;
  };

 private:
  /// Shift record ids off key 0: the repo-wide convention keeps 0 free.
  static std::uint64_t tag(std::uint64_t rec) { return rec + 1; }

  HashSet set_;
};

}  // namespace dlht::apps
