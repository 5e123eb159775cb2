// DLHT core (conf_hpdc_KatsarakisGN24): a memory-resident concurrent
// hashtable built from single-cache-line buckets.
//
// Design, following the paper:
//  * Every probe touches exactly one cache line: a bucket holds an 8-byte
//    header (fingerprints + slot states + lock + version), three inline
//    key/value slots, and a 32-bit link to an overflow bucket drawn from a
//    pool sized by Options::link_ratio.
//  * Gets are optimistic and lock-free on the fast path: read header,
//    probe fingerprint-matching slots, re-read header to validate.
//  * Puts/Inserts/Deletes take the home bucket's lock bit (one CAS); the
//    home lock guards the whole link chain. Deletes free slots in place —
//    no tombstones — so slots are immediately reusable.
//  * The batched API software-pipelines N independent requests in stages
//    (hash all -> prefetch all buckets -> probe all) so DRAM latency
//    overlaps across the batch instead of serializing per request.
//  * The bucket array lives in a TableInstance pinned by readers through
//    per-thread epochs (epoch.hpp). Resizing is online and non-blocking:
//    a coordinator publishes a double-size shadow instance and writers
//    cooperatively migrate buckets into it (per-bucket migrated bits;
//    Gets re-probe the shadow on redirect; mutations land in the shadow
//    after migrating their home bucket). The drained instance is retired
//    through the epoch scheme, never freed under a live reader.
//  * Resizes run in both directions: delete-heavy workloads that fall
//    below Options::min_load_factor trigger a *shrink* through the exact
//    same shadow-migration machinery (smaller destination, force-chained
//    overflow, epoch-retired source), so the table gives memory back
//    instead of parking at its high-water mark.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <optional>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "alloc/pool_allocator.hpp"
#include "common/topology.hpp"
#include "dlht/bucket.hpp"
#include "dlht/epoch.hpp"
#include "dlht/hash.hpp"
#include "dlht/probe.hpp"
#include "dlht/sync.hpp"

namespace dlht {

struct Options {
  /// Main-bucket count at construction, rounded up to a power of two
  /// (minimum 16). Each bucket holds three inline slots, so capacity before
  /// the first resize is ~3 * initial_bins * max_load_factor.
  std::size_t initial_bins = 1 << 16;
  /// Link-bucket (overflow-chain) pool, as a fraction of the main buckets.
  /// The pool grows on demand, so this sets the pre-mapped floor, not a
  /// ceiling. A floor of 2 MiB or more is faulted in as links are handed
  /// out, so its untouched part costs address space, not memory. The
  /// paper's occupancy study (tab01) uses 0.2.
  double link_ratio = 0.125;
  /// AllocatorMap only: nonzero pins every value block to this size (one
  /// pool size class, no length header); 0 stores variable-size values.
  std::size_t fixed_value_size = 0;
  /// Resize trigger: a grow starts when the entry count exceeds
  /// max_load_factor * (3 * bins). Checked every ~256 inserts per size
  /// shard, so expect slight overshoot.
  double max_load_factor = 0.75;
  /// Buckets a helping writer migrates per cursor claim during an online
  /// resize. Smaller chunks = more helper parallelism, more cursor traffic.
  std::size_t resize_chunk_bins = 512;
  /// Shadow-table size multiplier when a resize fires. 2/4/8 are flat
  /// factors; 0 selects the paper's adaptive policy (x8 while the table is
  /// small, x4 mid-size, x2 at scale) so early growth needs fewer
  /// migrations. Values below 2 (other than 0) behave as 2.
  std::size_t growth_factor = 2;
  /// Shrink trigger: a downward resize starts when the entry count falls
  /// below min_load_factor * (3 * bins). Checked every ~256 erases per
  /// size shard, and only between resizes. 0 (the default) disables
  /// automatic shrinking — shrink_now() works regardless — so tables
  /// pre-sized for a population are never shrunk out from under it.
  /// Hysteresis guards against grow/shrink flapping: a shrink starts only
  /// if the survivors fill at most half the grow trigger of the smaller
  /// table, so one shrink can never bounce straight back into a grow.
  /// A shrink halves the table, floored at the 16-bin minimum.
  double min_load_factor = 0.0;

  /// NUMA placement for the bucket array and link pools (every
  /// TableInstance this table ever allocates, including resize shadows and
  /// demand-grown link chunks). kFirstTouch is the kernel default — pages
  /// land on the node of the thread that first writes them (arrays under
  /// 2 MiB are populated when mapped, so on the allocating thread's
  /// node). kInterleave round-robins pages
  /// across all real nodes (the multi-socket serving configuration);
  /// kNodeLocal binds to Options::numa_node (the paper's remote-socket /
  /// CXL-style placement). Placement needs >= 2 real NUMA nodes and a
  /// kernel that honors mbind; otherwise the allocation proceeds unplaced
  /// and stats().numa_fallback counts it — never an error.
  NumaPolicy numa_policy = NumaPolicy::kFirstTouch;
  /// Target node for NumaPolicy::kNodeLocal.
  unsigned numa_node = 0;

  /// Probe engine for the batched pipeline (dlht/probe.hpp): kAuto resolves
  /// to the widest engine this CPU supports at construction (cpuid, never
  /// per probe). An explicit SIMD kind on a host without it degrades to
  /// kSwar — the core always runs; benches refuse instead (bench `--probe`
  /// / DLHT_PROBE knob). Scalar ops and the write-side slot search always
  /// use the portable SWAR matchers regardless of this setting: SIMD pays
  /// off where 8 prefetched headers can be matched per instruction. kSwar
  /// is also fig14's SIMD ablation.
  ProbeStrategy probe_strategy = ProbeStrategy::kAuto;

  /// Runtime ablation toggles (fig14/tab01/ablation_design): each disables
  /// one design feature so its contribution can be measured. Defaults are
  /// the paper's design. Batching has no toggle here because it is a
  /// call-site choice: use the scalar API to ablate it.
  struct Ablation {
    /// Off: probes compare full keys in every valid slot instead of
    /// SWAR-matching the 8-bit header fingerprints first.
    bool fingerprints = true;
    /// Off: an insert whose home bucket (and existing chain) is full fails
    /// with Status::kFull instead of appending a link bucket — the bounded
    /// one-line index of §3.2.1. Migration during a resize still chains,
    /// so resizing never silently drops entries.
    bool link_chains = true;
    /// Off: put() on an existing key removes the old entry and republishes
    /// through the two-phase shadow-insert path (three home-lock
    /// acquisitions) instead of overwriting the value in place under one.
    bool inplace_updates = true;
  };
  Ablation ablation;
};

enum class OpType : std::uint8_t { kGet = 0, kPut, kInsert, kDelete };

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound,
  kExists,
  /// Write refused because its key's chain is full and cannot take a link
  /// bucket: link chains are ablated away (Options::Ablation::link_chains
  /// == false), or the link pool could not grow (its chunk limit was
  /// reached or the mapping failed). The write changed nothing, and the
  /// bin keeps serving.
  kFull,
  /// A durability operation (WAL append/sync, snapshot write) hit a disk
  /// failure. The in-memory table is unaffected: DurableDLHT reports the
  /// error once, counts it, and degrades to memory-only mode instead of
  /// aborting (see durability.hpp).
  kIOError,
};

namespace detail {

/// NUMA placement request threaded from Options through every bucket
/// mapping a table makes. `fallback` counts placements that could not be
/// applied (single-node host, bogus node, kernel refusal) — surfaced as
/// stats().numa_fallback so callers can tell "placed" from "silently
/// local".
struct NumaBinding {
  NumaPolicy policy = NumaPolicy::kFirstTouch;
  unsigned node = 0;
  std::atomic<std::uint64_t>* fallback = nullptr;
};

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

inline std::size_t page_bytes() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// The whole pages an array of `count` buckets occupies.
inline std::size_t bucket_span(std::size_t count) {
  const std::size_t page = page_bytes();
  return (count * sizeof(Bucket) + page - 1) & ~(page - 1);
}

/// Map `count` zeroed buckets with anonymous mmap. The array ends exactly
/// at a PROT_NONE guard page, so writing past it faults. Arrays of 2 MiB or
/// more get a 2 MiB-aligned mapping madvised for transparent huge pages
/// (without them random probes also miss the dTLB, and x86 drops
/// prefetches that need a page walk, killing the batched pipeline) and are
/// left untouched: the kernel zeroes each page when a writer first stores
/// to it, so the threads populating a table, or the helpers migrating into
/// a shadow, zero it in parallel. Smaller arrays (small tables, link grow
/// chunks) are populated here, because faulting them 4 KiB at a time would
/// land on the write path. NUMA placement is bound before any page is
/// touched.
inline Bucket* map_buckets(std::size_t count, const NumaBinding* nb) {
  const std::size_t page = page_bytes();
  const std::size_t bytes = count * sizeof(Bucket);
  const std::size_t span = bucket_span(count);
  const bool huge = bytes >= kHugePageBytes;
  const std::size_t len = span + page + (huge ? kHugePageBytes - page : 0);
  void* raw = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const lo = static_cast<char*>(raw);
  char* base = lo;
  if (huge) {  // trim the mapping to a 2 MiB-aligned array plus its guard
    base = reinterpret_cast<char*>(
        (reinterpret_cast<std::uintptr_t>(lo) + kHugePageBytes - 1) &
        ~(kHugePageBytes - 1));
    char* const end = base + span + page;
    if (base != lo) ::munmap(lo, static_cast<std::size_t>(base - lo));
    if (end != lo + len) {
      ::munmap(end, static_cast<std::size_t>(lo + len - end));
    }
  }
  ::mprotect(base + span, page, PROT_NONE);
#if defined(MADV_HUGEPAGE)
  if (huge) ::madvise(base, span, MADV_HUGEPAGE);
#endif
  if (nb != nullptr && nb->policy != NumaPolicy::kFirstTouch) {
    if (!numa_bind_region(base, span, nb->policy, nb->node) &&
        nb->fallback != nullptr) {
      nb->fallback->fetch_add(1, std::memory_order_relaxed);
    }
  }
#if defined(MADV_POPULATE_WRITE)
  if (!huge) ::madvise(base, span, MADV_POPULATE_WRITE);
#endif
  return reinterpret_cast<Bucket*>(base + span - bytes);
}

/// Unmap an array map_buckets(count, ...) returned, guard page included.
inline void unmap_buckets(Bucket* p, std::size_t count) {
  const std::size_t span = bucket_span(count);
  ::munmap(reinterpret_cast<char*>(p + count) - span, span + page_bytes());
}

}  // namespace detail

class DLHT {
 public:
  using Hasher = XxMixHash;

  struct Request {
    OpType op;
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t user;  // opaque tag echoed into the reply
  };
  struct Reply {
    Status status = Status::kNotFound;
    std::uint64_t value = 0;
    std::uint64_t user = 0;
  };

  /// The log callback of the plain write path: it does nothing and
  /// compiles away (see execute_batch(reqs, reps, n, log)).
  struct NoLog {
    void operator()(OpType, std::uint64_t, std::uint64_t) const {}
  };

  /// The probe engine a table built with `o` would actually run: cpuid
  /// resolution of o.probe_strategy, forced to SWAR when the fingerprints
  /// ablation removes what SIMD accelerates. Exposed so bench config tags
  /// can record the dispatched engine without building a table.
  static ProbeStrategy resolved_probe(const Options& o) {
    if (!o.ablation.fingerprints) return ProbeStrategy::kSwar;
    return probe::resolve(o.probe_strategy);
  }

  explicit DLHT(const Options& o)
      : opts_(o),
        probe_(resolved_probe(o)),
        numa_binding_{o.numa_policy, o.numa_node, &numa_fallback_} {
    cur_.store(new TableInstance(o.initial_bins, o.link_ratio, &numa_binding_),
               std::memory_order_release);
  }

  ~DLHT() {
    TableInstance* t = cur_.load(std::memory_order_relaxed);
    if (TableInstance* n = t->next.load(std::memory_order_relaxed)) delete n;
    delete t;
    // epoch_'s destructor drains instances retired by completed resizes.
  }

  DLHT(const DLHT&) = delete;
  DLHT& operator=(const DLHT&) = delete;

  /// Current main-bucket count; grows across resizes.
  std::size_t bins() const {
    EpochManager::Guard g(epoch_);  // the instance must outlive the read
    return cur_.load(std::memory_order_acquire)->mask_ + 1;
  }
  const Options& options() const { return opts_; }

  /// The probe engine this table dispatched at construction (never kAuto).
  ProbeStrategy probe_strategy() const { return probe_; }

  /// Completed *growth* migrations since construction (shrinks are
  /// counted separately by shrinks_completed()).
  std::uint64_t resizes_completed() const {
    return resizes_completed_.load(std::memory_order_relaxed);
  }

  /// Completed *shrink* (downward) migrations since construction.
  std::uint64_t shrinks_completed() const {
    return shrinks_completed_.load(std::memory_order_relaxed);
  }

  /// Point-in-time geometry of the current table generation. links_used is
  /// the number of link (overflow) buckets handed out so far;
  /// links_capacity is the pool currently provisioned for them (the
  /// link_ratio floor, demand-grown in chunks). The occupancy benches
  /// derive slot totals from these instead of re-deriving the core's
  /// sizing rules.
  struct Stats {
    std::size_t bins = 0;
    std::size_t links_used = 0;
    std::size_t links_capacity = 0;
    /// Cumulative main buckets given back by completed shrinks (the sum of
    /// source-minus-destination bins over every downward migration).
    std::size_t bins_reclaimed = 0;
    /// Cumulative link-pool buckets returned with instances retired by
    /// shrinks — each retired source gives back its whole provisioned pool
    /// (the new, smaller generation starts a fresh pool, so there is no
    /// stale accounting carried across the migration).
    std::size_t links_reclaimed = 0;
    /// Bucket/link allocations whose Options::numa_policy placement could
    /// not be applied (single-node host, no mbind, bogus target node). 0
    /// under kFirstTouch, which never needs the kernel's help.
    std::uint64_t numa_fallback = 0;
  };
  Stats stats() const {
    EpochManager::Guard g(epoch_);  // the instance must outlive the reads
    const TableInstance* t = cur_.load(std::memory_order_acquire);
    // links_used can transiently overshoot capacity mid-alloc_link (the
    // bump is taken before the pool grows); clamp so utilization derived
    // from these two fields never reads above 100 %.
    const std::size_t cap = t->links_capacity();
    std::size_t used = t->links_used();
    if (used > cap) used = cap;
    return Stats{t->mask_ + 1, used, cap,
                 bins_reclaimed_.load(std::memory_order_relaxed),
                 links_reclaimed_.load(std::memory_order_relaxed),
                 numa_fallback_.load(std::memory_order_relaxed)};
  }

  /// Force a resize now, regardless of load factor, and help migrate until
  /// one completes: on return resizes_completed() has advanced by at least
  /// one. If a resize was already active (even one whose shadow is still
  /// being allocated by the thread that won the publication race), this
  /// call helps finish that one instead of stacking another.
  void grow_now() {
    EpochManager::Guard g(epoch_);
    force_migration(resizes_completed_, [this](TableInstance* t) {
      publish_shadow(t, next_bins(t->mask_ + 1));
      return true;
    });
  }

  /// Force a downward resize now, regardless of load factor, and help
  /// migrate until one completes: on return shrinks_completed() has
  /// advanced by at least one. If a resize is already active (grow or
  /// shrink), this call helps finish it first — a completed grow is
  /// followed by starting the requested shrink. No-op when the table is
  /// already at its 16-bin minimum.
  void shrink_now() {
    EpochManager::Guard g(epoch_);
    force_migration(shrinks_completed_, [this](TableInstance* t) {
      const std::size_t nb = shrink_bins(t->mask_ + 1);
      if (nb == t->mask_ + 1) return false;  // at the 16-bin floor
      publish_shadow(t, nb);
      return true;
    });
  }

  /// Sharded entry count: exact once all mutators are quiescent.
  std::int64_t approx_size() const {
    std::int64_t s = 0;
    for (const Shard& sh : shards_) {
      s += sh.count.load(std::memory_order_relaxed);
    }
    return s;
  }

  EpochManager& epoch() const { return epoch_; }

  // ------------------------------------------------------------ scalar ops

  /// Point lookup. Lock-free and wait-free against writers on the fast
  /// path: optimistic seqlock probe of the home bucket's cache line,
  /// chasing link chains and migration redirects as needed. Returns the
  /// value snapshot, or nullopt when absent. Never blocks a resize.
  std::optional<std::uint64_t> get(std::uint64_t key) const {
    EpochManager::Guard g(epoch_);
    Reply rp;
    get_on(cur_.load(std::memory_order_acquire), hash_(key), key, rp);
    if (rp.status == Status::kOk) return rp.value;
    return std::nullopt;
  }

  /// Insert if absent. Returns false if the key already exists — or if its
  /// chain is full and cannot take a link bucket (Status::kFull; callers
  /// that care can use execute_batch to distinguish the two).
  bool insert(std::uint64_t key, std::uint64_t value) {
    EpochManager::Guard g(epoch_);
    return mutate_pinned(hash_(key), key, value, /*upsert=*/false,
                         SlotState::kValid) == Status::kOk;
  }

  /// Upsert: write `value` for `key`, creating the entry if absent.
  /// Returns true if an existing value was overwritten. The overwrite is an
  /// in-place store under the home-bucket lock (one acquisition); with
  /// Options::Ablation::inplace_updates off it instead removes the old
  /// entry and republishes through the two-phase shadow path, during which
  /// concurrent Gets may briefly miss the key (bench-grade semantics).
  bool put(std::uint64_t key, std::uint64_t value) {
    EpochManager::Guard g(epoch_);
    const std::uint64_t h = hash_(key);
    if (!opts_.ablation.inplace_updates) {
      // Shadow-first, so a full bounded bucket (link-chain ablation) is
      // detected before anything is removed — an unstorable fresh key is
      // rejected, never half-written, and an existing key's slot is freed
      // only once its replacement can take it.
      bool existed = false;
      Status st =
          mutate_pinned(h, key, value, /*upsert=*/false, SlotState::kShadow);
      if (st == Status::kExists) {
        existed = extract_pinned(h, key).has_value();
        do {  // the freed slot is in this key's own chain; reclaim it
          st = mutate_pinned(h, key, value, /*upsert=*/false,
                             SlotState::kShadow);
        } while (st == Status::kFull);
      }
      if (st == Status::kOk) commit_pinned(h, key);
      return existed;
    }
    return mutate_pinned(h, key, value, /*upsert=*/true, SlotState::kValid) ==
           Status::kExists;
  }

  bool erase(std::uint64_t key) { return extract(key).has_value(); }

  /// Read-modify-write: replace the value of an existing key with
  /// `f(current)` under the home-bucket lock — one lock acquisition, no
  /// separate Get/Put round trip (the YCSB-F primitive). `f` runs while the
  /// bucket is locked, so keep it tiny and side-effect-light. Returns the
  /// value written, or nullopt when the key is absent.
  template <class F>
  std::optional<std::uint64_t> update(std::uint64_t key, F&& f) {
    return update(key, std::forward<F>(f), NoLog{});
  }

  /// update() that reports the write to `log` as log(OpType::kPut, key,
  /// value written), under the same rules as execute_batch's log. Nothing
  /// is reported when the key is absent.
  template <class F, class Log>
  std::optional<std::uint64_t> update(std::uint64_t key, F&& f, Log log) {
    EpochManager::Guard g(epoch_);
    std::optional<std::uint64_t> out;
    // Only kValid slots: a shadow-reserved entry is not yet readable, so it
    // is not yet updatable either.
    edit_pinned<probe::valid_slots>(
        hash_(key), key, [&](Slot& slot, int, std::uint64_t bh) {
          out = f(slot.value);
          S::store_relaxed(&slot.value, *out);
          log(OpType::kPut, key, *out);
          return bh;
        });
    return out;
  }

  /// Delete, returning the removed value. The slot is freed in place (no
  /// tombstone) and immediately reusable by later inserts.
  std::optional<std::uint64_t> extract(std::uint64_t key) {
    EpochManager::Guard g(epoch_);
    return extract_pinned(hash_(key), key);
  }

  /// Two-phase insert: reserve a slot invisible to Gets...
  bool insert_shadow(std::uint64_t key, std::uint64_t value) {
    EpochManager::Guard g(epoch_);
    return mutate_pinned(hash_(key), key, value, /*upsert=*/false,
                         SlotState::kShadow) == Status::kOk;
  }

  /// ...then flip it visible once the caller's side effects are durable.
  bool commit_shadow(std::uint64_t key) {
    EpochManager::Guard g(epoch_);
    return commit_pinned(hash_(key), key);
  }

  // ----------------------------------------------------------- batched ops

  /// Batched Get: hash + prefetch every home bucket up front, then probe.
  /// Requests that chain into link buckets prefetch the next line and are
  /// revisited on the next sweep, so link-chain misses also overlap.
  /// During a migration, keys whose bucket migrated follow the redirect
  /// to the shadow one at a time.
  void get_batch(const std::uint64_t* keys, Reply* out, std::size_t n) const {
    EpochManager::Guard g(epoch_);
    for (std::size_t base = 0; base < n; base += kGetChunk) {
      const std::size_t m = n - base < kGetChunk ? n - base : kGetChunk;
      probe_chunk(cur_.load(std::memory_order_acquire), keys + base,
                  out + base, m);
    }
  }

  /// Batched mixed ops, same two-stage pipeline: hash + prefetch all home
  /// buckets, then execute in request order (so an insert followed by a
  /// delete of the same key in one batch behaves like the scalar sequence).
  void execute_batch(const Request* reqs, Reply* reps, std::size_t n) {
    execute_batch(reqs, reps, n, NoLog{});
  }

  /// execute_batch() that reports every change it makes to `log` as
  /// log(op, key, value): a Put that wrote (value = the value stored), an
  /// Insert that took a slot, a Delete that removed the key (value = 0).
  /// Nothing is reported for Gets, for an Insert answering kExists, a
  /// Delete answering kNotFound, or a kFull, nor for a resize's migration
  /// copies. `log` runs inside the key's home-bucket critical section,
  /// after the slot (or link bucket) is secured and just before the store
  /// that publishes the change, so it sees each key's writes in their
  /// apply order. Gets spin on that locked bucket: `log` must be short and
  /// must not block or throw. It is passed by value, so a callback that
  /// keeps state must refer to it (as a lambda capturing by reference does);
  /// the empty NoLog then costs no argument at all.
  template <class Log>
  void execute_batch(const Request* reqs, Reply* reps, std::size_t n,
                     Log log) {
    EpochManager::Guard g(epoch_);
    constexpr std::size_t kChunk = 64;
    std::uint64_t hs[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      const TableInstance* t = cur_.load(std::memory_order_acquire);
      for (std::size_t j = 0; j < m; ++j) {
        hs[j] = hash_(reqs[base + j].key);
        __builtin_prefetch(&t->main_[hs[j] & t->mask_], 1, 3);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const Request& rq = reqs[base + j];
        Reply& rp = reps[base + j];
        rp.user = rq.user;
        // A run of consecutive Gets has no intra-run ordering constraint
        // (Gets don't mutate, and every earlier write in the batch has
        // already been applied), so hand it to the vectorized batched-Get
        // pipeline instead of probing one key at a time. This is how mixed
        // batches (e.g. read-heavy YCSB) reach the SIMD probe engine.
        if (rq.op == OpType::kGet) {
          std::size_t e = j + 1;
          while (e < m && reqs[base + e].op == OpType::kGet) ++e;
          if (e - j >= 8) {
            std::uint64_t ks[kChunk];
            for (std::size_t r = j; r < e; ++r) {
              ks[r - j] = reqs[base + r].key;
              reps[base + r].user = reqs[base + r].user;
            }
            probe_chunk(cur_.load(std::memory_order_acquire), ks,
                        &reps[base + j], e - j);
            j = e - 1;
            continue;
          }
        }
        switch (rq.op) {
          case OpType::kGet:
            get_on(cur_.load(std::memory_order_acquire), hs[j], rq.key, rp);
            break;
          case OpType::kPut:
            rp.status = mutate_pinned(hs[j], rq.key, rq.value, true,
                                      SlotState::kValid, log);
            rp.value = 0;
            break;
          case OpType::kInsert:
            rp.status = mutate_pinned(hs[j], rq.key, rq.value, false,
                                      SlotState::kValid, log);
            rp.value = 0;
            break;
          case OpType::kDelete: {
            const auto v = extract_pinned(hs[j], rq.key, log);
            rp.status = v ? Status::kOk : Status::kNotFound;
            rp.value = v ? *v : 0;
            break;
          }
        }
      }
    }
  }

  /// Iterate the live (valid) entries; legal while mutators and resizes
  /// run. The walk holds an epoch Guard (no visited instance is reclaimed
  /// under it) and reads each bucket through the seqlock (header, slots,
  /// fence, header re-check), so no torn slot is emitted. A migrated chain
  /// is walked in the shadow instead; its migrated bits are published
  /// under its home lock, so with no writer running every entry is
  /// emitted exactly once. Under concurrent writes the view is *fuzzy*: a
  /// chain migrating mid-walk can be emitted from both instances, and a
  /// mutated entry surfaces as whichever version the seqlock captured, so
  /// consumers treat emissions last-writer-wins per key (durability.hpp
  /// loads snapshots as upserts and replays the WAL suffix on top).
  template <class F>
  void for_each(F&& f) const {
    EpochManager::Guard g(epoch_);
    const TableInstance* t = cur_.load(std::memory_order_acquire);
    std::uint64_t keys[kSlotsPerBucket];
    std::uint64_t vals[kSlotsPerBucket];
    while (t != nullptr) {
      for (std::size_t idx = 0; idx <= t->mask_; ++idx) {
        const Bucket* b = &t->main_[idx];
        bool redirected = false;
        while (b != nullptr && !redirected) {
          int nv = 0;
          for (;;) {
            const std::uint64_t v1 = S::load_acquire(&b->header);
            if (hdr::locked(v1)) {
              cpu_relax();
              continue;
            }
            if (hdr::migrated(v1)) {
              // The whole chain (re)appears in the shadow instance; emitting
              // it there too only duplicates, never loses.
              redirected = true;
              break;
            }
            nv = 0;
            for (int i = 0; i < kSlotsPerBucket; ++i) {
              if (hdr::slot_state(v1, i) == SlotState::kValid) {
                keys[nv] = S::load_relaxed(&b->slots[i].key);
                vals[nv] = S::load_relaxed(&b->slots[i].value);
                ++nv;
              }
            }
            __atomic_thread_fence(__ATOMIC_ACQUIRE);
            if (S::load_relaxed(&b->header) == v1) break;  // stable read
          }
          if (redirected) break;
          for (int i = 0; i < nv; ++i) f(keys[i], vals[i]);
          const std::uint32_t lk = __atomic_load_n(&b->link, __ATOMIC_ACQUIRE);
          b = lk != 0 ? t->link_at(lk) : nullptr;
        }
      }
      t = t->next.load(std::memory_order_acquire);
    }
  }

  /// Test/diagnostic only: walk `key`'s current chain once and count the
  /// fingerprint-candidate slots a Get would have to full-key-compare
  /// (including the hit itself when the key is present). Quiescent use
  /// only — no lock spin or migration chasing — so tests can measure the
  /// fingerprint false-positive rate without hot-path counters.
  std::size_t debug_probe_candidates(std::uint64_t key) const {
    EpochManager::Guard g(epoch_);
    const TableInstance* t = cur_.load(std::memory_order_acquire);
    const std::uint64_t h = hash_(key);
    const std::uint8_t f = fp_of(h);
    std::size_t n = 0;
    const Bucket* b = &t->main_[h & t->mask_];
    while (b != nullptr) {
      const std::uint64_t v1 = S::load_acquire(&b->header);
      n += static_cast<std::size_t>(
          __builtin_popcount(probe::match_valid(v1, f)));
      const std::uint32_t lk = __atomic_load_n(&b->link, __ATOMIC_ACQUIRE);
      b = lk != 0 ? t->link_at(lk) : nullptr;
    }
    return n;
  }

 private:
  using S = Sync<true>;

  /// Slot fingerprint for a hash — probe.hpp owns the derivation (mixed
  /// top bytes, disjoint from the bin-index bits).
  static std::uint8_t fp_of(std::uint64_t h) { return probe::fp_of(h); }

  // ------------------------------------------------------- table instance

  /// One generation of the table: the main bucket array plus its private
  /// link-bucket pool and this generation's migration progress. Readers pin
  /// instances via epochs; a drained instance is retired, not freed.
  class TableInstance {
   public:
    static constexpr std::size_t kGrowChunkBuckets = std::size_t{1} << 14;
    static constexpr std::size_t kMaxGrowChunks = 1024;

    TableInstance(std::size_t bins_request, double link_ratio,
                  const detail::NumaBinding* numa)
        : numa_(numa) {
      const std::size_t bins =
          ceil_pow2(bins_request < 16 ? std::size_t{16} : bins_request);
      mask_ = bins - 1;
      main_ = detail::map_buckets(bins, numa_);
      double ratio = link_ratio < 0.0 ? 0.0 : link_ratio;
      chunk0_count_ =
          static_cast<std::size_t>(static_cast<double>(bins) * ratio);
      if (chunk0_count_ < 1024) chunk0_count_ = 1024;
      chunk0_ = detail::map_buckets(chunk0_count_, numa_);
      link_capacity_.store(chunk0_count_, std::memory_order_relaxed);
      for (auto& c : grow_chunks_) c.store(nullptr, std::memory_order_relaxed);
    }

    ~TableInstance() {
      detail::unmap_buckets(main_, mask_ + 1);
      detail::unmap_buckets(chunk0_, chunk0_count_);
      for (auto& c : grow_chunks_) {
        if (Bucket* p = c.load(std::memory_order_relaxed)) {
          detail::unmap_buckets(p, kGrowChunkBuckets);
        }
      }
    }

    TableInstance(const TableInstance&) = delete;
    TableInstance& operator=(const TableInstance&) = delete;

    Bucket* link_at(std::uint32_t idx) const {
      std::uint64_t i = idx - 1;
      if (i < chunk0_count_) return &chunk0_[i];
      i -= chunk0_count_;
      Bucket* chunk =
          grow_chunks_[i / kGrowChunkBuckets].load(std::memory_order_acquire);
      return chunk + (i & (kGrowChunkBuckets - 1));
    }

    std::uint32_t alloc_link() {
      const std::uint64_t i =
          link_bump_.fetch_add(1, std::memory_order_relaxed);
      while (i >= link_capacity_.load(std::memory_order_acquire)) {
        grow_links();
      }
      return static_cast<std::uint32_t>(i + 1);
    }

    /// Epoch deleter; `ctx` is the owning DLHT's drained_in_limbo_.
    static void delete_cb(void* p, void* ctx) {
      delete static_cast<TableInstance*>(p);
      static_cast<std::atomic<std::uint32_t>*>(ctx)->fetch_sub(
          1, std::memory_order_relaxed);
    }

    /// Link buckets handed out by this generation so far.
    std::size_t links_used() const {
      return static_cast<std::size_t>(
          link_bump_.load(std::memory_order_relaxed));
    }

    /// Link buckets currently provisioned (floor + demand-grown chunks).
    std::size_t links_capacity() const {
      return static_cast<std::size_t>(
          link_capacity_.load(std::memory_order_acquire));
    }

    Bucket* main_ = nullptr;
    std::size_t mask_ = 0;

    // Migration state: the published shadow table, the cooperative bucket
    // cursor, and how many home buckets have finished migrating.
    std::atomic<TableInstance*> next{nullptr};
    std::atomic<std::uint64_t> migrate_cursor{0};
    std::atomic<std::uint64_t> migrated_bins{0};

   private:
    void grow_links() {
      std::lock_guard<std::mutex> g(grow_mu_);
      const std::uint64_t cap = link_capacity_.load(std::memory_order_relaxed);
      if (link_bump_.load(std::memory_order_relaxed) < cap) return;
      const std::size_t n = (cap - chunk0_count_) / kGrowChunkBuckets;
      if (n >= kMaxGrowChunks) throw std::bad_alloc();
      grow_chunks_[n].store(detail::map_buckets(kGrowChunkBuckets, numa_),
                            std::memory_order_release);
      link_capacity_.store(cap + kGrowChunkBuckets, std::memory_order_release);
    }

    const detail::NumaBinding* numa_ = nullptr;  // owned by the DLHT
    Bucket* chunk0_ = nullptr;  // initial link pool, sized by link_ratio
    std::size_t chunk0_count_ = 0;
    std::atomic<Bucket*> grow_chunks_[kMaxGrowChunks];
    std::atomic<std::uint64_t> link_capacity_{0};
    std::atomic<std::uint64_t> link_bump_{0};
    std::mutex grow_mu_;
  };

  // ------------------------------------------------------------- locking

  static std::uint64_t lock_bucket(Bucket* b) {
    for (;;) {
      const std::uint64_t h = S::load_relaxed(&b->header);
      if (hdr::locked(h)) {
        cpu_relax();
        continue;
      }
      if (S::cas(&b->header, h, hdr::with_lock(h))) return hdr::with_lock(h);
      cpu_relax();
    }
  }

  /// Release with a version bump: readers validating against a pre-lock
  /// header snapshot are guaranteed to observe a different word.
  static void unlock_bucket(Bucket* b, std::uint64_t locked_header) {
    S::store_release(&b->header,
                     hdr::bump_version(hdr::without_lock(locked_header)));
  }

  // ------------------------------------------------------------- probing

  /// One optimistic probe of one bucket. Fills `rp` and returns nullptr
  /// when the request is resolved; returns the next chain bucket to visit,
  /// or &kRedirectBucket when the bucket has migrated to the shadow table.
  ///
  /// Slot selection is SWAR over the header word: one XOR + zero-byte test
  /// matches all three fingerprints at once, masked down to valid slots, so
  /// the common miss costs no per-slot branches.
  const Bucket* probe_bucket(const TableInstance* t, const Bucket* b,
                             std::uint8_t fp, std::uint64_t key,
                             Reply& rp) const {
    for (;;) {
      const std::uint64_t v1 = S::load_acquire(&b->header);
      if (__builtin_expect(hdr::locked(v1), 0)) {
        cpu_relax();
        continue;
      }
      if (__builtin_expect(hdr::migrated(v1), 0)) return &kRedirectBucket;
      // Candidate slots via the probe layer's SWAR matchers (bit 8i+7 =
      // slot i, peeled with ctz>>3). Fingerprint ablation: probe every
      // valid slot by full-key compare.
      std::uint32_t cand = opts_.ablation.fingerprints
                               ? probe::match_valid(v1, fp)
                               : probe::valid_slots(v1);
      while (cand != 0) {
        const int i = __builtin_ctz(cand) >> 3;
        const std::uint64_t k = S::load_relaxed(&b->slots[i].key);
        const std::uint64_t val = S::load_relaxed(&b->slots[i].value);
        // Seqlock validation: the fence keeps the slot loads above the
        // header re-read (an acquire load alone lets them sink below it).
        __atomic_thread_fence(__ATOMIC_ACQUIRE);
        if (S::load_relaxed(&b->header) != v1) goto retry;
        if (k == key) {
          rp.status = Status::kOk;
          rp.value = val;
          return nullptr;
        }
        cand &= cand - 1;
      }
      {
        const std::uint32_t lk = __atomic_load_n(&b->link, __ATOMIC_ACQUIRE);
        if (lk != 0) return t->link_at(lk);
      }
      rp.status = Status::kNotFound;
      rp.value = 0;
      return nullptr;
    retry:;
    }
  }

  /// Migration-aware Get starting at instance `t`: a migrated bucket
  /// redirects the whole probe to the shadow table (whose contents for that
  /// bucket are complete by the time the migrated bit is visible).
  void get_on(const TableInstance* t, std::uint64_t h, std::uint64_t key,
              Reply& rp) const {
    const std::uint8_t fp = fp_of(h);
    for (;;) {
      const Bucket* b = &t->main_[h & t->mask_];
      for (;;) {
        const Bucket* next = probe_bucket(t, b, fp, key, rp);
        if (next == nullptr) return;
        if (next == &kRedirectBucket) break;
        b = next;
      }
      // A migrated bit is only ever set after the shadow is published.
      t = t->next.load(std::memory_order_acquire);
    }
  }

  /// Slow-lane resolution for the SIMD pipeline: finish one key entirely
  /// through the scalar chain walk (locked header, seqlock retry, or
  /// migration redirect knocked it out of the vector sweep).
  void resolve_scalar(const TableInstance* t, const Bucket* b,
                      std::uint8_t fp, std::uint64_t key, Reply& rp) const {
    for (;;) {
      const Bucket* next = probe_bucket(t, b, fp, key, rp);
      if (next == nullptr) return;
      if (next == &kRedirectBucket) {
        get_on(t, hash_(key), key, rp);
        return;
      }
      b = next;
    }
  }

  static constexpr std::size_t kGetChunk = 64;

#if DLHT_PROBE_X86_SIMD
  /// Consume one gathered group of 8 lanes given the packed candidate mask
  /// from a probe.hpp x8 kernel; kStride is the mask's per-lane bit stride
  /// (4 for the compact AVX2 form, 8 for the byte-stride AVX-512 form).
  /// Deliberately baseline-target: a caller may
  /// always inline a callee compiled for a subset of its ISA, so this one
  /// body serves both per-engine sweeps below. always_inline is load-
  /// bearing — left to its own cost model GCC keeps this out of line, and
  /// an 11-argument call per 8 lanes costs more than the vector matching
  /// saves.
  template <int kStride>
  __attribute__((always_inline)) inline void consume_group(const TableInstance* t, const std::uint64_t* keys,
                            const std::uint8_t* fp, const Bucket** cur,
                            std::uint16_t* active, std::size_t s, Reply* out,
                            const std::uint64_t* hd, std::uint64_t cmask,
                            std::size_t& keep, bool identity) const {
    for (int j = 0; j < 8; ++j) {
      const std::size_t lane = identity ? s + j : active[s + j];
      Reply& rp = out[lane];
      const std::uint64_t k = keys[lane];
      const Bucket* b = cur[lane];
      const std::uint64_t v1 = hd[j];
      if (__builtin_expect((v1 & (hdr::kLockBit | hdr::kMigratedBit)) != 0,
                           0)) {
        resolve_scalar(t, b, fp[lane], k, rp);
        continue;
      }
      std::uint32_t cand =
          static_cast<std::uint32_t>(cmask >> (kStride * j)) & 7u;
      bool resolved = false;
      bool torn = false;
      while (cand != 0) {
        const int i = __builtin_ctz(cand);
        const std::uint64_t sk = S::load_relaxed(&b->slots[i].key);
        const std::uint64_t sv = S::load_relaxed(&b->slots[i].value);
        // Same seqlock validation as the scalar probe: the fence keeps the
        // slot loads above the header re-read.
        __atomic_thread_fence(__ATOMIC_ACQUIRE);
        if (S::load_relaxed(&b->header) != v1) {
          torn = true;
          break;
        }
        if (sk == k) {
          rp.status = Status::kOk;
          rp.value = sv;
          resolved = true;
          break;
        }
        cand &= cand - 1;
      }
      if (__builtin_expect(torn, 0)) {
        resolve_scalar(t, b, fp[lane], k, rp);
        continue;
      }
      if (resolved) continue;
      // Miss in this bucket. No slot bytes were trusted (candidates came
      // from the atomically-loaded header itself), so no re-validation is
      // needed — exactly the scalar miss path.
      const std::uint32_t lk = __atomic_load_n(&b->link, __ATOMIC_ACQUIRE);
      if (lk != 0) {
        cur[lane] = t->link_at(lk);
        __builtin_prefetch(cur[lane], 0, 3);
        active[keep++] = static_cast<std::uint16_t>(lane);
      } else {
        rp.status = Status::kNotFound;
        rp.value = 0;
      }
    }
  }

  /// Per-engine group sweeps over active lanes [0, na): gather 8 acquire
  /// header loads + the 8 fingerprints packed into one register word, run
  /// the matching x8 kernel, consume. Each sweep carries the same target
  /// ISA as its kernel so the kernel inlines here — the gathered headers
  /// feed the vector compare without an out-of-line call frame in between.
  /// On the first sweep of a chunk (`identity`, active[j] == j) the lane
  /// indirection drops out and the fingerprint word is one contiguous
  /// 8-byte load. Returns the lane index where the scalar tail resumes.
  /// Gather one group's 8 headers (acquire) + fingerprints. The unrolled
  /// scalar loads keep each header in its own SSA value so the sweeps can
  /// hand them to the vector kernels as registers (see the probe.hpp AVX2
  /// note on a stack array's store-forwarding hazard); the hd[] copy feeds
  /// the per-lane seqlock re-checks in consume_group, where same-width 8B
  /// store/load pairs forward cleanly.
  __attribute__((always_inline)) inline std::uint64_t gather_group(
      const std::uint8_t* fp, const Bucket** cur, const std::uint16_t* active,
      std::size_t s, bool identity, std::uint64_t* hd) const {
    std::uint64_t fps;
    if (identity) {
      std::memcpy(&fps, fp + s, 8);  // lane j's fp lands in byte j (LE)
      hd[0] = S::load_acquire(&cur[s + 0]->header);
      hd[1] = S::load_acquire(&cur[s + 1]->header);
      hd[2] = S::load_acquire(&cur[s + 2]->header);
      hd[3] = S::load_acquire(&cur[s + 3]->header);
      hd[4] = S::load_acquire(&cur[s + 4]->header);
      hd[5] = S::load_acquire(&cur[s + 5]->header);
      hd[6] = S::load_acquire(&cur[s + 6]->header);
      hd[7] = S::load_acquire(&cur[s + 7]->header);
    } else {
      fps = 0;
      for (int j = 0; j < 8; ++j) {
        const std::size_t lane = active[s + j];
        hd[j] = S::load_acquire(&cur[lane]->header);
        fps |= static_cast<std::uint64_t>(fp[lane]) << (8 * j);
      }
    }
    return fps;
  }

  __attribute__((target("avx2"))) std::size_t sweep_groups_avx2(
      const TableInstance* t, const std::uint64_t* keys,
      const std::uint8_t* fp, const Bucket** cur, std::uint16_t* active,
      std::size_t na, Reply* out, std::size_t& keep, bool identity) const {
    std::size_t s = 0;
    std::uint64_t hd[8];
    for (; s + 8 <= na; s += 8) {
      const std::uint64_t fps = gather_group(fp, cur, active, s, identity, hd);
      // Matching only needs each header's low dword, so all 8 lanes fit one
      // ymm; the dword packing is plain integer ALU work the vector ports
      // never see.
      const __m256i hlo = _mm256_set_epi64x(
          static_cast<long long>(probe::pack_lo_pair(hd[6], hd[7])),
          static_cast<long long>(probe::pack_lo_pair(hd[4], hd[5])),
          static_cast<long long>(probe::pack_lo_pair(hd[2], hd[3])),
          static_cast<long long>(probe::pack_lo_pair(hd[0], hd[1])));
      consume_group<4>(t, keys, fp, cur, active, s, out, hd,
                       probe::match_valid_x8v_avx2(hlo, fps), keep, identity);
    }
    return s;
  }

  __attribute__((target("avx512f,avx512bw"))) std::size_t sweep_groups_avx512(
      const TableInstance* t, const std::uint64_t* keys,
      const std::uint8_t* fp, const Bucket** cur, std::uint16_t* active,
      std::size_t na, Reply* out, std::size_t& keep, bool identity) const {
    std::size_t s = 0;
    std::uint64_t hd[8];
    for (; s + 8 <= na; s += 8) {
      const std::uint64_t fps = gather_group(fp, cur, active, s, identity, hd);
      const __m512i h = _mm512_set_epi64(static_cast<long long>(hd[7]),
                                         static_cast<long long>(hd[6]),
                                         static_cast<long long>(hd[5]),
                                         static_cast<long long>(hd[4]),
                                         static_cast<long long>(hd[3]),
                                         static_cast<long long>(hd[2]),
                                         static_cast<long long>(hd[1]),
                                         static_cast<long long>(hd[0]));
      consume_group<8>(t, keys, fp, cur, active, s, out, hd,
                       probe::match_valid_x8v_avx512(h, fps), keep, identity);
    }
    return s;
  }
#endif  // DLHT_PROBE_X86_SIMD

  /// The software-pipelined core of a batched-Get chunk (m <= kGetChunk)
  /// against instance `t` — shared by get_batch and execute_batch's
  /// consecutive-Get runs. Fills out[j].status/value only. Correct during
  /// a migration, including one that starts mid-chunk: migrated, locked
  /// and torn lanes resolve through get_on / resolve_scalar.
  ///
  /// Stage 1 hashes and prefetches every home bucket; stage 2 sweeps the
  /// still-active lanes, one bucket per lane per sweep, so link-chain
  /// misses overlap too. With a SIMD engine dispatched, each sweep matches
  /// fingerprints across 8 prefetched headers at once (probe.hpp kernels:
  /// broadcast + cmpeq_epi8 + movemask into per-key candidate bitsets) and
  /// the seqlock re-check of all 8 lanes shares one acquire fence; locked,
  /// migrated, or torn lanes fall back to the scalar walk. Chained lanes
  /// re-enter the next sweep, which vectorizes link-chain scans as well.
  void probe_chunk(const TableInstance* t, const std::uint64_t* keys,
                   Reply* out, std::size_t m) const {
    const Bucket* cur[kGetChunk];
    std::uint8_t fp[kGetChunk];
    // Lanes that survive a sweep are compacted into active[]; the first
    // sweep is the identity mapping, so no initialization is needed here.
    std::uint16_t active[kGetChunk];
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t h = hash_(keys[j]);
      cur[j] = &t->main_[h & t->mask_];
      fp[j] = fp_of(h);
      __builtin_prefetch(cur[j], 0, 3);
    }
    std::size_t na = m;
    // The first sweep visits every lane in order (active[j] == j), so both
    // the SIMD sweeps and the scalar tail skip the active[] indirection
    // until the first link-chain compaction.
    bool identity = true;
    while (na > 0) {
      std::size_t keep = 0;
      std::size_t s = 0;
#if DLHT_PROBE_X86_SIMD
      if (probe_ == ProbeStrategy::kAvx2) {
        s = sweep_groups_avx2(t, keys, fp, cur, active, na, out, keep,
                              identity);
      } else if (probe_ == ProbeStrategy::kAvx512) {
        s = sweep_groups_avx512(t, keys, fp, cur, active, na, out, keep,
                                identity);
      }
#endif
      for (; s < na; ++s) {
        const std::size_t j = identity ? s : active[s];
        Reply& rp = out[j];
        const std::uint64_t k = keys[j];
        const Bucket* next = probe_bucket(t, cur[j], fp[j], k, rp);
        if (next == &kRedirectBucket) {
          // A resize started mid-pipeline: resolve this key scalar-style.
          get_on(t, hash_(k), k, rp);
          continue;
        }
        if (next != nullptr) {
          cur[j] = next;
          __builtin_prefetch(next, 0, 3);
          active[keep++] = static_cast<std::uint16_t>(j);
        }
      }
      na = keep;
      identity = false;
    }
  }

  // ------------------------------------------------------------ mutations
  //
  // Every write runs one protocol. lock_home takes the home bucket's lock
  // bit — it guards the whole link chain — or refuses a home that already
  // migrated, and locked_write then retries at the shadow. search_locked
  // walks the chain under the lock. publish releases: a link bucket's
  // header is stored with a version bump before the home unlock bumps the
  // home's, so an optimistic reader of either line revalidates.

  /// Lock bucket `idx` of `t` and return it with its locked header in
  /// `hh`; nullptr (lock dropped) when the bucket already migrated.
  static Bucket* lock_home(TableInstance* t, std::size_t idx,
                           std::uint64_t& hh) {
    Bucket* home = &t->main_[idx];
    hh = lock_bucket(home);
    if (!hdr::migrated(hh)) return home;
    S::store_release(&home->header, hdr::without_lock(hh));
    return nullptr;
  }

  /// Release a write to bucket `b` of home's locked chain, `nh` being b's
  /// new header (for the home itself, still carrying the lock bit). An
  /// appended link bucket (`append_to` = the old tail, `idx` = the new
  /// bucket) is linked in after its header is stored and before the home
  /// unlocks: complete before it is reachable, reachable before the lock
  /// drops.
  static void publish(Bucket* home, std::uint64_t hh, Bucket* b,
                      std::uint64_t nh, Bucket* append_to = nullptr,
                      std::uint32_t idx = 0) {
    if (b == home) return unlock_bucket(home, nh);
    S::store_release(&b->header, hdr::bump_version(nh));
    if (append_to != nullptr) {
      __atomic_store_n(&append_to->link, idx, __ATOMIC_RELEASE);
    }
    unlock_bucket(home, hh);
  }

  /// A slot of a locked chain: its bucket (nullptr = none), that bucket's
  /// header as read under the lock, and the slot index.
  struct SlotRef {
    Bucket* b = nullptr;
    std::uint64_t bh = 0;
    int i = 0;
  };
  struct ChainSearch {
    SlotRef hit;     // `key` among the slots the state mask selects
    SlotRef empty;   // the chain's first empty slot
    Bucket* tail = nullptr;  // the last bucket (set only on a miss)
  };

  /// Walk home's locked chain for `key` among the slots `States` selects,
  /// fingerprint-filtered unless that is ablated, stopping at the hit. On
  /// the way it notes the first empty slot and the tail, for inserts.
  /// always_inline is load-bearing: out of line, GCC returns ChainSearch
  /// through memory, and a cache-resident erase loop ran ~25% slower.
  template <std::uint32_t (*States)(std::uint64_t)>
  __attribute__((always_inline)) inline ChainSearch search_locked(
      const TableInstance* t, Bucket* home, std::uint64_t hh, std::uint8_t fp,
      std::uint64_t key) const {
    ChainSearch s;
    Bucket* b = home;
    std::uint64_t bh = hh;
    for (;;) {
      if (s.empty.b == nullptr) {
        const std::uint32_t e = ~probe::occupied_slots(bh) & probe::kSlotMask;
        if (e != 0) s.empty = {b, bh, __builtin_ctz(e) >> 3};
      }
      std::uint32_t cand = States(bh);
      if (opts_.ablation.fingerprints) cand &= probe::fp_matches(bh, fp);
      for (; cand != 0; cand &= cand - 1) {
        const int i = __builtin_ctz(cand) >> 3;
        if (b->slots[i].key == key) {
          s.hit = {b, bh, i};
          return s;
        }
      }
      if (b->link == 0) break;
      b = t->link_at(b->link);
      bh = S::load_relaxed(&b->header);
    }
    s.tail = b;
    return s;
  }

  /// The instance writes should land in for a key hashing to `h`. During a
  /// resize this migrates the key's home bucket first (so the shadow
  /// becomes authoritative for this key), lends a hand with a cursor
  /// chunk, and returns the shadow; otherwise the current table.
  TableInstance* writer_table(std::uint64_t h) {
    TableInstance* t = cur_.load(std::memory_order_acquire);
    TableInstance* n = t->next.load(std::memory_order_acquire);
    if (n == nullptr) return t;
    ensure_migrated(t, n, h & t->mask_);
    help_migrate(t, n);
    return n;
  }

  /// The retry-at-shadow loop: run `op(t, home, hh)` with the home bucket
  /// for `h` locked in the instance writes land in. A home that migrated
  /// before we locked it sends us back through writer_table. `op` must
  /// release the lock.
  template <class Op>
  auto locked_write(std::uint64_t h, Op&& op) {
    for (;;) {
      TableInstance* t = writer_table(h);
      std::uint64_t hh;
      if (Bucket* home = lock_home(t, h & t->mask_, hh)) {
        return op(t, home, hh);
      }
    }
  }

  /// Insert logic, run under home's lock in `t`. A duplicate among the
  /// occupied slots (valid or shadow-reserved) answers kExists, its value
  /// first overwritten in place when `upsert`; otherwise the key takes the
  /// chain's first empty slot, or a link bucket appended at the tail. A
  /// write that changes the table reports itself to `log` just before it
  /// publishes (as a kPut when `upsert`, else a kInsert). Releases the
  /// lock. `force_chain` marks a migration copy: it appends link buckets
  /// even when the user surface has them ablated off (a resize must never
  /// drop entries), and a link pool that cannot grow throws instead of
  /// answering kFull.
  template <class Log>
  Status try_mutate_on(TableInstance* t, Bucket* home, std::uint64_t hh,
                       std::uint64_t h, std::uint64_t key, std::uint64_t value,
                       bool upsert, SlotState publish_state, Log log,
                       bool force_chain = false) {
    const std::uint8_t fp = fp_of(h);
    const OpType op = upsert ? OpType::kPut : OpType::kInsert;
    const ChainSearch s =
        search_locked<probe::occupied_slots>(t, home, hh, fp, key);
    if (s.hit.b != nullptr) {
      if (!upsert) {
        unlock_bucket(home, hh);
        return Status::kExists;
      }
      S::store_relaxed(&s.hit.b->slots[s.hit.i].value, value);
      log(op, key, value);
      publish(home, hh, s.hit.b, s.hit.bh);
      return Status::kExists;
    }
    if (s.empty.b != nullptr) {
      S::store_relaxed(&s.empty.b->slots[s.empty.i].key, key);
      S::store_relaxed(&s.empty.b->slots[s.empty.i].value, value);
      const std::uint64_t nh =
          hdr::with_fingerprint(s.empty.bh, s.empty.i, fp);
      log(op, key, value);
      publish(home, hh, s.empty.b,
              hdr::with_slot_state(nh, s.empty.i, publish_state));
      return Status::kOk;
    }
    // Chain is full. With link chains ablated off (and this not being a
    // migration copy), the bounded index rejects the insert instead.
    if (!opts_.ablation.link_chains && !force_chain) {
      unlock_bucket(home, hh);
      return Status::kFull;
    }
    std::uint32_t idx;
    try {
      idx = t->alloc_link();
    } catch (const std::bad_alloc&) {
      if (force_chain) throw;
      unlock_bucket(home, hh);  // never leave the bin locked
      return Status::kFull;
    }
    Bucket* nb = t->link_at(idx);
    nb->slots[0].key = key;
    nb->slots[0].value = value;
    nb->link = 0;
    const std::uint64_t nh = hdr::with_fingerprint(nb->header, 0, fp);
    log(op, key, value);
    publish(home, hh, nb, hdr::with_slot_state(nh, 0, publish_state), s.tail,
            idx);
    return Status::kOk;
  }

  template <class Log = NoLog>
  Status mutate_pinned(std::uint64_t h, std::uint64_t key, std::uint64_t value,
                       bool upsert, SlotState publish_state, Log log = {}) {
    const Status st =
        locked_write(h, [&](TableInstance* t, Bucket* home, std::uint64_t hh) {
          return try_mutate_on(t, home, hh, h, key, value, upsert,
                               publish_state, log);
        });
    if (st == Status::kOk) note_insert();
    return st;
  }

  /// Edit an existing entry: find `key` among the slots `States` selects
  /// and publish the header `edit(slot, i, bh)` returns for its bucket.
  /// False (lock released, nothing written) when the key is not there.
  template <std::uint32_t (*States)(std::uint64_t), class Edit>
  bool edit_pinned(std::uint64_t h, std::uint64_t key, Edit&& edit) {
    return locked_write(
        h, [&](TableInstance* t, Bucket* home, std::uint64_t hh) {
          const SlotRef hit =
              search_locked<States>(t, home, hh, fp_of(h), key).hit;
          if (hit.b == nullptr) {
            unlock_bucket(home, hh);
            return false;
          }
          publish(home, hh, hit.b, edit(hit.b->slots[hit.i], hit.i, hit.bh));
          return true;
        });
  }

  template <class Log = NoLog>
  std::optional<std::uint64_t> extract_pinned(std::uint64_t h,
                                              std::uint64_t key,
                                              Log log = {}) {
    std::optional<std::uint64_t> out;
    if (edit_pinned<probe::occupied_slots>(
            h, key, [&](Slot& slot, int i, std::uint64_t bh) {
              out = slot.value;
              log(OpType::kDelete, key, 0);
              return hdr::with_slot_state(bh, i, SlotState::kEmpty);
            })) {
      note_erase();
    }
    return out;
  }

  /// Flip `key`'s shadow-reserved slot to kValid; false when none exists.
  bool commit_pinned(std::uint64_t h, std::uint64_t key) {
    return edit_pinned<probe::shadow_slots>(
        h, key, [](Slot&, int i, std::uint64_t bh) {
          return hdr::with_slot_state(bh, i, SlotState::kValid);
        });
  }

  // ------------------------------------------------------------- resizing

  /// Move one home bucket (and its whole link chain) into the shadow table.
  /// Runs under the home lock, so no mutation can interleave. Two passes:
  /// first copy the entire chain into the shadow, then publish the migrated
  /// bits — so the moment ANY bucket's bit is visible (a reader mid-chain
  /// can encounter a link bucket's bit before the home's), every entry of
  /// the chain is already findable in the shadow. Returns true iff this
  /// call performed the migration.
  bool migrate_one(TableInstance* t, TableInstance* n, std::size_t idx) {
    // Acquire: a writer that skips an already-migrated home then writes
    // its key in the shadow, after every write the migration carried
    // over (the per-key write order that DurableDLHT's log relies on).
    if (hdr::migrated(S::load_acquire(&t->main_[idx].header))) return false;
    std::uint64_t hh;
    Bucket* home = lock_home(t, idx, hh);
    if (home == nullptr) return false;
    for (Bucket* b = home; b != nullptr;
         b = b->link != 0 ? t->link_at(b->link) : nullptr) {
      const std::uint64_t bh = S::load_relaxed(&b->header);
      for (int i = 0; i < kSlotsPerBucket; ++i) {
        const SlotState st = hdr::slot_state(bh, i);
        if (st == SlotState::kEmpty) continue;
        // Shadow-reserved slots migrate as shadow: a later commit_shadow
        // finds them in the new table.
        const std::uint64_t k = b->slots[i].key;
        const std::uint64_t h = hash_(k);
        std::uint64_t nhh;
        if (Bucket* dst = lock_home(n, h & n->mask_, nhh)) {
          try_mutate_on(n, dst, nhh, h, k, b->slots[i].value,
                        /*upsert=*/false, st, NoLog{}, /*force_chain=*/true);
        }
      }
    }
    for (Bucket* b = home->link != 0 ? t->link_at(home->link) : nullptr;
         b != nullptr; b = b->link != 0 ? t->link_at(b->link) : nullptr) {
      S::store_release(&b->header, hdr::bump_version(hdr::with_migrated(
                                       S::load_relaxed(&b->header))));
    }
    unlock_bucket(home, hdr::with_migrated(hh));
    return true;
  }

  void ensure_migrated(TableInstance* t, TableInstance* n, std::size_t idx) {
    if (migrate_one(t, n, idx)) credit_migrated(t, n, 1);
  }

  /// Claim one cursor chunk and migrate it. Called from every mutation
  /// while a resize is active: writers are the migration workforce (the
  /// paper's "inserts stall only for threads that become helpers").
  void help_migrate(TableInstance* t, TableInstance* n) {
    const std::uint64_t bins = t->mask_ + 1;
    if (t->migrate_cursor.load(std::memory_order_relaxed) >= bins) return;
    const std::size_t chunk =
        opts_.resize_chunk_bins != 0 ? opts_.resize_chunk_bins : 1;
    const std::uint64_t start =
        t->migrate_cursor.fetch_add(chunk, std::memory_order_relaxed);
    if (start >= bins) return;
    const std::uint64_t end = start + chunk < bins ? start + chunk : bins;
    std::uint64_t did = 0;
    for (std::uint64_t i = start; i < end; ++i) {
      did += migrate_one(t, n, static_cast<std::size_t>(i)) ? 1 : 0;
    }
    credit_migrated(t, n, did);
  }

  void credit_migrated(TableInstance* t, TableInstance* n,
                       std::uint64_t count) {
    if (count == 0) return;
    const std::uint64_t bins = t->mask_ + 1;
    if (t->migrated_bins.fetch_add(count, std::memory_order_acq_rel) + count ==
        bins) {
      // Last bucket done: the shadow becomes the table; the drained
      // instance is retired and reclaimed once every reader epoch drains.
      const std::size_t new_bins = n->mask_ + 1;
      cur_.store(n, std::memory_order_release);
      if (new_bins < bins) {
        // Downward migration: account what the retired generation gives
        // back (its bin surplus and its whole link pool — the new
        // generation starts a fresh pool, so nothing stale carries over).
        bins_reclaimed_.fetch_add(bins - new_bins, std::memory_order_relaxed);
        links_reclaimed_.fetch_add(t->links_capacity(),
                                   std::memory_order_relaxed);
        shrinks_completed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        resizes_completed_.fetch_add(1, std::memory_order_relaxed);
      }
      resize_active_.store(false, std::memory_order_release);
      drained_in_limbo_.fetch_add(1, std::memory_order_relaxed);
      epoch_.retire(t, &TableInstance::delete_cb, &drained_in_limbo_);
      // The first of the two advances that free it; the writers' next
      // checkpoints (reclaim_drained) supply the second.
      epoch_.quiesce();
    }
  }

  void note_insert() {
    Shard& s = shards_[this_thread_index() & (kSizeShards - 1)];
    s.count.fetch_add(1, std::memory_order_relaxed);
    if ((s.inserts.fetch_add(1, std::memory_order_relaxed) & 255u) == 255u) {
      reclaim_drained();
      maybe_start_resize();
    }
  }

  void note_erase() {
    Shard& s = shards_[this_thread_index() & (kSizeShards - 1)];
    s.count.fetch_sub(1, std::memory_order_relaxed);
    if ((s.erases.fetch_add(1, std::memory_order_relaxed) & 255u) == 255u) {
      reclaim_drained();
      maybe_start_shrink();
    }
  }

  /// The writers' every-256-ops checkpoint: while a drained generation
  /// waits in limbo, try to advance the epoch, so the generation is freed
  /// within a grace period of its migration, not at the next resize. Never
  /// waits: a pinned straggler only defers it to a later checkpoint.
  void reclaim_drained() {
    if (drained_in_limbo_.load(std::memory_order_relaxed) != 0) {
      epoch_.quiesce();
    }
  }

  void maybe_start_resize() {
    if (resize_active_.load(std::memory_order_acquire)) return;
    TableInstance* t = cur_.load(std::memory_order_acquire);
    const std::size_t capacity = (t->mask_ + 1) * kSlotsPerBucket;
    if (static_cast<double>(approx_size()) <=
        opts_.max_load_factor * static_cast<double>(capacity)) {
      return;
    }
    publish_shadow(t, next_bins(t->mask_ + 1));
  }

  /// Erase-side twin of maybe_start_resize(): start a downward migration
  /// once occupancy falls below min_load_factor, with hysteresis so the
  /// smaller table lands at most halfway to its own grow trigger.
  void maybe_start_shrink() {
    if (opts_.min_load_factor <= 0.0) return;
    if (resize_active_.load(std::memory_order_acquire)) return;
    TableInstance* t = cur_.load(std::memory_order_acquire);
    const std::size_t bins = t->mask_ + 1;
    const std::size_t new_bins = shrink_bins(bins);
    if (new_bins == bins) return;  // already at the minimum geometry
    const double size = static_cast<double>(approx_size());
    if (size >= opts_.min_load_factor *
                    static_cast<double>(bins * kSlotsPerBucket)) {
      return;
    }
    if (size > 0.5 * opts_.max_load_factor *
                   static_cast<double>(new_bins * kSlotsPerBucket)) {
      return;  // hysteresis: would land too close to the grow trigger
    }
    publish_shadow(t, new_bins);
  }

  /// Shadow-table size for a resize of a table with `bins` main buckets:
  /// Options::growth_factor, with 0 meaning the paper's adaptive 8/4/2
  /// policy (aggressive while rebuilds are cheap, conservative at scale).
  std::size_t next_bins(std::size_t bins) const {
    std::size_t f = opts_.growth_factor;
    if (f == 0) {
      f = bins < (std::size_t{1} << 18) ? 8
          : bins < (std::size_t{1} << 22) ? 4
                                          : 2;
    }
    if (f < 2) f = 2;
    return bins * f;
  }

  /// Destination size for a shrink of a table with `bins` (a power of
  /// two) main buckets: half of it, or `bins` itself at the 16-bin floor.
  static std::size_t shrink_bins(std::size_t bins) {
    return bins > 16 ? bins / 2 : bins;
  }

  /// The one shadow-publication protocol, shared by both directions: win
  /// the resize flag, revalidate that `t` is still current with no shadow
  /// pending, and publish an `nb`-bin shadow. Losing any check means
  /// someone else got there first, which is fine. From here a shrink
  /// shares the growth machinery: writers cooperatively migrate into the
  /// shadow (force-chaining where a smaller destination's bucket
  /// overflows), Gets follow the migrated-bit redirect, and
  /// credit_migrated() retires the drained source through the epochs.
  void publish_shadow(TableInstance* t, std::size_t nb) {
    if (resize_active_.exchange(true, std::memory_order_acq_rel)) return;
    if (cur_.load(std::memory_order_acquire) != t ||
        t->next.load(std::memory_order_relaxed) != nullptr) {
      resize_active_.store(false, std::memory_order_release);
      return;
    }
    TableInstance* n;
    try {
      n = new TableInstance(nb, opts_.link_ratio, &numa_binding_);
    } catch (...) {
      resize_active_.store(false, std::memory_order_release);
      throw;
    }
    t->next.store(n, std::memory_order_release);
  }

  /// grow_now()/shrink_now() driver: help until `counter` advances,
  /// starting a migration via `start` whenever none is pending. `start`
  /// returning false means nothing can be started at this geometry — give
  /// up rather than spin. (A pending shadow that is still being allocated
  /// by the publication winner shows as next == nullptr; `start` then
  /// no-ops on the flag and the loop spins until the shadow appears.)
  template <class StartFn>
  void force_migration(std::atomic<std::uint64_t>& counter, StartFn&& start) {
    const std::uint64_t before = counter.load(std::memory_order_acquire);
    while (counter.load(std::memory_order_acquire) == before) {
      TableInstance* t = cur_.load(std::memory_order_acquire);
      TableInstance* n = t->next.load(std::memory_order_acquire);
      if (n == nullptr) {
        if (!start(t)) return;
        cpu_relax();
        continue;
      }
      help_migrate(t, n);
    }
  }

  static constexpr unsigned kSizeShards = 64;
  struct alignas(64) Shard {
    std::atomic<std::int64_t> count{0};
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> erases{0};
  };

  static inline const Bucket kRedirectBucket{};

  Options opts_;
  /// Resolved at construction (resolved_probe); branch target of the
  /// batched pipeline, never re-derived per probe.
  ProbeStrategy probe_ = ProbeStrategy::kSwar;
  Hasher hash_{};
  /// Placements that could not be applied (see Options::numa_policy).
  /// Declared before epoch_/numa_binding_ users: epoch_'s destructor can
  /// still be retiring TableInstances that point at numa_binding_.
  std::atomic<std::uint64_t> numa_fallback_{0};
  detail::NumaBinding numa_binding_{};
  /// Drained generations retired but not yet freed (before epoch_ for the
  /// same reason: its destructor's deleters count down here).
  std::atomic<std::uint32_t> drained_in_limbo_{0};
  mutable EpochManager epoch_;
  std::atomic<TableInstance*> cur_{nullptr};
  std::atomic<bool> resize_active_{false};
  std::atomic<std::uint64_t> resizes_completed_{0};
  std::atomic<std::uint64_t> shrinks_completed_{0};
  std::atomic<std::uint64_t> bins_reclaimed_{0};
  std::atomic<std::uint64_t> links_reclaimed_{0};
  Shard shards_[kSizeShards];
};

/// The paper's default configuration: 8-byte values inlined in the bucket.
using InlinedMap = DLHT;

/// Value-less membership mode (§5.3.3): the HashSet the paper builds its
/// database lock manager on. insert-if-absent doubles as try-lock and
/// delete as unlock; values are pinned to zero so the surface cannot be
/// misused as a map. The batched entry points are DLHT's own pipeline —
/// an ordered batch of inserts is the lock manager's batched lock path.
class HashSet {
 public:
  using Request = DLHT::Request;
  using Reply = DLHT::Reply;

  explicit HashSet(const Options& o) : core_(o) {}

  /// Membership insert. False means the key was already present — exactly
  /// a failed try-lock when keys are lock records.
  bool insert(std::uint64_t key) { return core_.insert(key, 0); }
  bool erase(std::uint64_t key) { return core_.erase(key); }
  bool contains(std::uint64_t key) const {
    return core_.get(key).has_value();
  }

  /// Pipelined mixed batch (kInsert/kDelete/kGet requests); values in the
  /// requests are ignored and should be zero.
  void execute_batch(const Request* reqs, Reply* reps, std::size_t n) {
    core_.execute_batch(reqs, reps, n);
  }

  std::int64_t approx_size() const { return core_.approx_size(); }
  DLHT& core() { return core_; }

 private:
  DLHT core_;
};

/// Out-of-line values: the table stores a pointer into a pool allocator.
/// Deletes retire blocks through the table's epoch manager; a block is
/// freed only after every thread that could hold its pointer has passed a
/// quiescent point. Callers that dereference get_ptr() results across
/// concurrent erases should hold a pin() guard for the duration.
template <class Alloc = PoolAllocator>
class AllocatorMap {
 public:
  explicit AllocatorMap(const Options& o) : opts_(o), core_(o) {}

  ~AllocatorMap() {
    // Free retired value blocks while pool_ is still alive.
    core_.epoch().drain_all();
  }

  AllocatorMap(const AllocatorMap&) = delete;
  AllocatorMap& operator=(const AllocatorMap&) = delete;

  /// Pin the calling thread's epoch: blocks retired by concurrent erases
  /// stay allocated while the guard lives.
  EpochManager::Guard pin() const { return core_.epoch().pin(); }

  bool insert(std::uint64_t key, const void* data, std::size_t len) {
    if (fixed() && len > opts_.fixed_value_size) return false;  // no silent truncation
    const std::size_t block_len = block_size(len);
    char* blk = static_cast<char*>(pool_.allocate(block_len));
    char* dst = blk;
    if (!fixed()) {
      const std::uint64_t len64 = len;
      std::memcpy(blk, &len64, 8);
      dst += 8;
    }
    std::memcpy(dst, data, len);
    if (core_.insert(key, reinterpret_cast<std::uintptr_t>(blk))) return true;
    pool_.deallocate(blk, block_len);
    return false;
  }

  const char* get_ptr(std::uint64_t key) const {
    EpochManager::Guard g(core_.epoch());
    const auto v = core_.get(key);
    if (!v) return nullptr;
    const char* blk = reinterpret_cast<const char*>(
        static_cast<std::uintptr_t>(*v));
    return fixed() ? blk : blk + 8;
  }

  bool erase(std::uint64_t key) {
    const auto v = core_.extract(key);
    if (!v) return false;
    core_.epoch().retire(
        reinterpret_cast<char*>(static_cast<std::uintptr_t>(*v)),
        &AllocatorMap::free_block_cb, this);
    return true;
  }

  // ------------------------------------------------- variable-size keys
  //
  // The Fig. 10 surface: keys are byte strings, not u64s. The table key is
  // a 64-bit wyhash of the key bytes and the block stores
  //   [8B key-len][8B value-len][key bytes][value bytes]
  // so every lookup dereferences the block to verify the full key — the
  // paper's "cliff past 8-byte keys". Use either this _kv surface or the
  // u64-key surface on one map instance, never both (the block layouts
  // differ). A full 64-bit hash collision between distinct keys makes
  // insert_kv report "exists" (~n^2/2^64 — bench-grade, documented).

  bool insert_kv(const void* key, std::size_t klen, const void* value,
                 std::size_t vlen) {
    const std::size_t block_len = 16 + klen + vlen;
    char* blk = static_cast<char*>(pool_.allocate(block_len));
    const std::uint64_t k64 = klen, v64 = vlen;
    std::memcpy(blk, &k64, 8);
    std::memcpy(blk + 8, &v64, 8);
    std::memcpy(blk + 16, key, klen);
    std::memcpy(blk + 16 + klen, value, vlen);
    if (core_.insert(kv_hash(key, klen),
                     reinterpret_cast<std::uintptr_t>(blk))) {
      return true;
    }
    pool_.deallocate(blk, block_len);
    return false;
  }

  /// Pointer to the stored value bytes (and optionally their length), or
  /// nullptr when absent. Always touches the block: the full key is
  /// compared before the value pointer is returned. Callers dereferencing
  /// the result across concurrent erase_kv calls must hold a pin() guard.
  const char* get_ptr_kv(const void* key, std::size_t klen,
                         std::size_t* vlen_out = nullptr) const {
    EpochManager::Guard g(core_.epoch());
    const auto v = core_.get(kv_hash(key, klen));
    if (!v) return nullptr;
    const char* blk =
        reinterpret_cast<const char*>(static_cast<std::uintptr_t>(*v));
    std::uint64_t k64, v64;
    std::memcpy(&k64, blk, 8);
    std::memcpy(&v64, blk + 8, 8);
    if (k64 != klen || std::memcmp(blk + 16, key, klen) != 0) return nullptr;
    if (vlen_out != nullptr) *vlen_out = static_cast<std::size_t>(v64);
    return blk + 16 + klen;
  }

  bool erase_kv(const void* key, std::size_t klen) {
    const auto v = core_.extract(kv_hash(key, klen));
    if (!v) return false;
    core_.epoch().retire(
        reinterpret_cast<char*>(static_cast<std::uintptr_t>(*v)),
        &AllocatorMap::free_kv_block_cb, this);
    return true;
  }

  /// Epoch checkpoint: advance if possible and free provably unreachable
  /// retired blocks.
  void quiesce() { core_.epoch().quiesce(); }

  const Alloc& allocator() const { return pool_; }
  EpochManager& epoch() const { return core_.epoch(); }

 private:
  bool fixed() const { return opts_.fixed_value_size != 0; }
  std::size_t block_size(std::size_t len) const {
    return fixed() ? opts_.fixed_value_size : len + 8;
  }

  static std::uint64_t kv_hash(const void* key, std::size_t klen) {
    return wyhash_bytes(key, klen, 0x5851f42d4c957f2dull);
  }

  static void free_kv_block_cb(void* p, void* ctx) {
    auto* self = static_cast<AllocatorMap*>(ctx);
    char* blk = static_cast<char*>(p);
    std::uint64_t k64, v64;
    std::memcpy(&k64, blk, 8);
    std::memcpy(&v64, blk + 8, 8);
    self->pool_.deallocate(
        blk, 16 + static_cast<std::size_t>(k64) + static_cast<std::size_t>(v64));
  }

  static void free_block_cb(void* p, void* ctx) {
    auto* self = static_cast<AllocatorMap*>(ctx);
    char* blk = static_cast<char*>(p);
    std::size_t len = 0;
    if (!self->fixed()) {
      std::uint64_t len64;
      std::memcpy(&len64, blk, 8);
      len = static_cast<std::size_t>(len64);
    }
    self->pool_.deallocate(blk, self->block_size(len));
  }

  Options opts_;
  mutable Alloc pool_;  // declared before core_: outlives retire callbacks
  DLHT core_;
};

}  // namespace dlht
