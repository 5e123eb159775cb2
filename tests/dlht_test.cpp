// Tier-1 correctness tests for the DLHT core. No framework: each check
// prints its name, asserts loudly on failure, and main returns nonzero if
// anything failed, so the binary works under ctest and ASan alike.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"
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

// Small bin count so link-bucket chains are exercised hard.
Options tiny_options() {
  Options o;
  o.initial_bins = 256;
  o.link_ratio = 0.25;
  return o;
}

void test_put_get_delete() {
  std::puts("test_put_get_delete");
  InlinedMap m(tiny_options());
  constexpr std::uint64_t kN = 20000;

  // Key 0 must be a legal key (no sentinel leaks into the API).
  CHECK(m.insert(0, 42));
  CHECK(m.get(0).value_or(0) == 42);
  CHECK(m.erase(0));
  CHECK(!m.get(0).has_value());

  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k * 3));
  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.get(k).value_or(0) == k * 3);
  CHECK(!m.get(kN + 1).has_value());

  // Duplicate insert fails; put updates in place.
  CHECK(!m.insert(7, 99));
  CHECK(m.get(7).value_or(0) == 7 * 3);
  CHECK(m.put(7, 99));
  CHECK(m.get(7).value_or(0) == 99);
  CHECK(m.put(7, 7 * 3));  // restore so the sweeps below stay uniform

  // Delete every even key; odd keys survive; deleted slots are reusable.
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(m.erase(k));
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(!m.get(k).has_value());
  for (std::uint64_t k = 1; k <= kN; k += 2) CHECK(m.get(k).value_or(0) == k * 3);
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(m.insert(k, k + 1));
  for (std::uint64_t k = 2; k <= kN; k += 2) CHECK(m.get(k).value_or(0) == k + 1);

  CHECK(!m.erase(kN + 1));

  // 20000 keys in a 256-bin table crosses the load-factor trigger several
  // times: the sweeps above ran across live resizes.
  CHECK(m.resizes_completed() >= 1);
  CHECK(m.bins() > 256);
  CHECK(m.approx_size() == static_cast<std::int64_t>(kN));
}

void test_shadow_insert() {
  std::puts("test_shadow_insert");
  InlinedMap m(tiny_options());
  CHECK(m.insert_shadow(5, 50));
  CHECK(!m.get(5).has_value());   // invisible until committed
  CHECK(!m.insert(5, 51));        // but the slot is reserved
  CHECK(m.commit_shadow(5));
  CHECK(m.get(5).value_or(0) == 50);
  CHECK(!m.commit_shadow(5));     // already committed
  CHECK(m.erase(5));
}

/// Keys that all land in bin `bin` of a 16-bin table: inserted in order,
/// they fill the home bucket and then one link bucket per three keys.
std::vector<std::uint64_t> same_bin_keys(std::size_t count, std::uint64_t bin) {
  XxMixHash hash;
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1; out.size() < count; ++k) {
    if ((hash(k) & 15u) == bin) out.push_back(k);
  }
  return out;
}

/// Every write path on entries that sit in link buckets. One chain of 12
/// keys (home + 3 link buckets) in a 16-bin table that never resizes; after
/// each step the op's reply, get() and get_batch() must match a reference.
void test_deep_chain_writes() {
  std::puts("test_deep_chain_writes");
  Options o;
  o.initial_bins = 16;
  o.max_load_factor = 1e9;  // never resize out of the one-chain shape
  InlinedMap m(o);
  const auto keys = same_bin_keys(14, 5);
  std::vector<std::optional<std::uint64_t>> ref(keys.size());
  auto check_all = [&](const char* step) {
    std::vector<DLHT::Reply> out(keys.size());
    m.get_batch(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto v = m.get(keys[i]);
      const bool ok = v == ref[i] &&
                      (out[i].status == Status::kOk) == ref[i].has_value() &&
                      (!ref[i] || out[i].value == *ref[i]);
      if (!ok) {
        std::fprintf(stderr, "FAIL deep chain after %s: key #%zu\n", step, i);
        ++g_failures;
      }
    }
  };
  for (std::size_t i = 0; i < 12; ++i) {
    CHECK(m.insert(keys[i], 100 + i));
    ref[i] = 100 + i;
  }
  check_all("populate");
  CHECK(m.stats().links_used == 3);
  // keys[10] sits in the third link bucket.
  CHECK(!m.insert(keys[10], 1));
  check_all("duplicate insert");
  CHECK(m.put(keys[10], 7));
  ref[10] = 7;
  check_all("overwriting put");
  CHECK(m.update(keys[10], [](std::uint64_t v) { return v * 3; }).value_or(0) ==
        21);
  ref[10] = 21;
  check_all("update");
  CHECK(!m.update(keys[12], [](std::uint64_t v) { return v; }).has_value());
  // keys[7] sits in the second link bucket.
  CHECK(m.extract(keys[7]).value_or(0) == 107);
  ref[7].reset();
  check_all("extract");
  CHECK(!m.extract(keys[7]).has_value());
  // The freed slot is now the chain's first empty one: the next insert of
  // the bin refills it instead of appending a link bucket.
  CHECK(m.insert_shadow(keys[12], 500));
  check_all("insert_shadow");  // reserved, not yet visible
  CHECK(!m.insert(keys[12], 1));
  CHECK(!m.update(keys[12], [](std::uint64_t v) { return v; }).has_value());
  CHECK(m.commit_shadow(keys[12]));
  ref[12] = 500;
  check_all("commit_shadow");
  CHECK(!m.commit_shadow(keys[12]));
  CHECK(m.stats().links_used == 3);
  // The chain is full again, so one more key appends a fourth link bucket.
  CHECK(m.insert(keys[13], 113));
  ref[13] = 113;
  check_all("append");
  CHECK(m.stats().links_used == 4);
  CHECK(m.bins() == 16);
}

/// Every link bucket a table hands out starts empty: first from chunk0_
/// (1024 buckets for a 16-bin table), then from a demand-mapped grow chunk.
/// Same-bin keys inserted round-robin over the 16 bins grow every chain in
/// step, so after each insert links_used must be exactly what empty link
/// buckets need; a stale header would take slots and show as extra links.
void test_new_link_buckets_are_empty() {
  std::puts("test_new_link_buckets_are_empty");
  Options o;
  o.initial_bins = 16;
  o.max_load_factor = 1e9;  // never resize: all 16 chains stay in place
  InlinedMap m(o);
  constexpr std::size_t kPerBin = 240;  // 79 links a chain, 1264 in all
  std::vector<std::vector<std::uint64_t>> keys;
  for (std::uint64_t b = 0; b < 16; ++b) {
    keys.push_back(same_bin_keys(kPerBin, b));
  }
  // Link buckets a chain of n keys needs beyond its home bucket.
  auto links = [](std::size_t n) { return n <= 3 ? 0 : (n - 1) / 3; };
  bool exact = true;
  for (std::size_t j = 0; j < kPerBin && exact; ++j) {
    for (std::size_t b = 0; b < 16 && exact; ++b) {
      CHECK(m.insert(keys[b][j], j));
      const std::size_t want = (b + 1) * links(j + 1) + (15 - b) * links(j);
      if (m.stats().links_used != want) {
        std::fprintf(stderr,
                     "FAIL links_used %zu, want %zu (key %zu of bin %zu)\n",
                     m.stats().links_used, want, j, b);
        exact = false;
        ++g_failures;
      }
    }
  }
  CHECK(m.stats().links_used == 16 * links(kPerBin));
  CHECK(m.stats().links_capacity > 1024);  // a grow chunk was mapped
  std::size_t seen = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++seen; });
  CHECK(seen == 16 * kPerBin);
  for (std::size_t b = 0; b < 16; ++b) {
    for (std::size_t j = 0; j < kPerBin; ++j) {
      CHECK(m.get(keys[b][j]).value_or(~0ull) == j);
    }
  }
}

/// Each new table maps fresh memory: whatever an earlier table of the same
/// size wrote, the next one starts empty. The sizes cover a sub-page array,
/// one populated when mapped, exactly 2 MiB (the smallest lazily faulted
/// array) and a 64 MiB one, each built and destroyed three times.
void test_fresh_tables_are_empty() {
  std::puts("test_fresh_tables_are_empty");
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t bins : {std::size_t{16}, std::size_t{1024},
                                   std::size_t{32768}, std::size_t{1} << 20}) {
      Options o;
      o.initial_bins = bins;
      o.max_load_factor = 1e9;  // keep this geometry while writing
      InlinedMap m(o);
      const std::uint64_t n = bins * 2 < (1u << 16) ? bins * 2 : 1u << 16;
      std::size_t seen = 0;
      m.for_each([&](std::uint64_t, std::uint64_t) { ++seen; });
      CHECK(seen == 0);
      CHECK(m.stats().links_used == 0);
      bool hit = false;
      for (std::uint64_t k = 1; k <= n; ++k) hit |= m.get(k).has_value();
      CHECK(!hit);  // the previous round's table held exactly these keys
      for (std::uint64_t k = 1; k <= n; ++k) CHECK(m.insert(k, ~k));
    }
  }
}

/// map_buckets ends every array at a PROT_NONE guard page, whatever its
/// size: the array reads as zeroes and its last byte is writable, and a
/// forked child writing the byte after it dies with SIGSEGV.
void test_bucket_arrays_end_at_a_guard_page() {
  std::puts("test_bucket_arrays_end_at_a_guard_page");
  for (const std::size_t count : {std::size_t{16}, std::size_t{1000},
                                  std::size_t{16384}, std::size_t{32768},
                                  std::size_t{40001}}) {
    Bucket* b = detail::map_buckets(count, nullptr);
    char* const begin = reinterpret_cast<char*>(b);
    char* const end = reinterpret_cast<char*>(b + count);
    bool zero = true;
    for (const char* p = begin; p < end; ++p) zero &= *p == 0;
    CHECK(zero);
    end[-1] = 1;
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::signal(SIGSEGV, SIG_DFL);  // die of the fault, unreported
      *reinterpret_cast<volatile char*>(end) = 1;
      ::_exit(0);
    }
    int status = 0;
    CHECK(pid > 0 && ::waitpid(pid, &status, 0) == pid);
    if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV)) {
      std::fprintf(stderr,
                   "FAIL %zu buckets: overrun did not fault (status %d)\n",
                   count, status);
      ++g_failures;
    }
    detail::unmap_buckets(b, count);
  }
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

/// This process's virtual size (VmSize), in bytes; 0 if unreadable.
std::uint64_t vm_size_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmSize: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

/// A link pool that cannot grow answers kFull and leaves the bin serving.
/// A forked child fills one bin of a 16-bin table (a load factor no resize
/// reaches) until chunk0's 1024 link buckets are used and full, then caps
/// its address space below one more 1 MiB link chunk. The next colliding
/// insert must return false, a Get of a key in that bin must still return
/// its value, and the size must not move. An insert that throws with the
/// home bucket locked instead aborts the child, or hangs it until SIGALRM.
/// Sanitized builds skip it: their shadow memory does not fit the cap.
void test_link_pool_exhaustion_answers_full() {
  std::puts("test_link_pool_exhaustion_answers_full");
  if (kSanitized) {
    std::puts("  skip (sanitized build)");
    return;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    Options o;
    o.initial_bins = 16;
    o.max_load_factor = 1e9;
    DLHT t(o);
    std::uint64_t k = 0;
    const auto next_in_bin0 = [&] {
      do {
        ++k;
      } while ((DLHT::Hasher{}(k) & 15) != 0);
      return k;
    };
    std::vector<std::uint64_t> keys;  // the home bucket + 1024 full links
    for (int i = 0; i < 3 * (1 + 1024); ++i) {
      keys.push_back(next_in_bin0());
      if (!t.insert(keys.back(), keys.back() * 3)) ::_exit(10);
    }
    const DLHT::Stats s = t.stats();
    if (s.links_used != 1024 || s.links_capacity != 1024) ::_exit(11);
    const std::int64_t size = t.approx_size();
    const std::uint64_t extra = next_in_bin0();
    const std::uint64_t vm = vm_size_bytes();
    struct rlimit cap;
    cap.rlim_cur = cap.rlim_max = vm + (std::uint64_t{512} << 10);
    if (vm == 0 || ::setrlimit(RLIMIT_AS, &cap) != 0) ::_exit(12);
    ::alarm(10);
    if (t.insert(extra, 1)) ::_exit(13);
    const std::uint64_t probe = keys[keys.size() / 2];
    if (t.get(probe) != std::optional<std::uint64_t>(probe * 3)) ::_exit(14);
    if (t.approx_size() != size) ::_exit(15);
    ::_exit(0);
  }
  int status = 0;
  CHECK(pid > 0 && ::waitpid(pid, &status, 0) == pid);
  if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    std::fprintf(stderr,
                 "FAIL link-pool exhaustion: child %s %d (want exit 0)\n",
                 WIFEXITED(status) ? "exited" : "killed by signal",
                 WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status));
    ++g_failures;
  }
}

/// A shadow-reserved entry deep in a chain survives a grow and a shrink
/// (migrate_one copies it as shadow): still invisible and still blocking a
/// duplicate insert after each, then committable.
void test_shadow_across_migrations() {
  std::puts("test_shadow_across_migrations");
  Options o;
  o.initial_bins = 16;
  o.max_load_factor = 1e9;  // only the forced migrations below
  InlinedMap m(o);
  const auto keys = same_bin_keys(9, 2);
  for (std::size_t i = 0; i < 8; ++i) CHECK(m.insert(keys[i], keys[i] + 1));
  CHECK(m.insert_shadow(keys[8], 77));  // lands in the third bucket
  auto check_reserved = [&] {
    CHECK(!m.get(keys[8]).has_value());
    CHECK(!m.insert(keys[8], 1));
    for (std::size_t i = 0; i < 8; ++i) {
      CHECK(m.get(keys[i]).value_or(0) == keys[i] + 1);
    }
  };
  m.grow_now();
  CHECK(m.resizes_completed() == 1);
  CHECK(m.bins() == 32);
  check_reserved();
  m.shrink_now();
  CHECK(m.shrinks_completed() == 1);
  CHECK(m.bins() == 16);
  check_reserved();
  CHECK(m.commit_shadow(keys[8]));
  CHECK(m.get(keys[8]).value_or(0) == 77);
  CHECK(m.approx_size() == 9);
}

void test_batch_matches_scalar() {
  std::puts("test_batch_matches_scalar");
  InlinedMap batched(tiny_options());
  InlinedMap scalar(tiny_options());
  Xoshiro256 rng(1234);
  constexpr std::size_t kOps = 30000;
  constexpr std::size_t kBatch = 24;
  constexpr std::uint64_t kSpace = 4000;

  std::vector<InlinedMap::Request> reqs(kBatch);
  std::vector<InlinedMap::Reply> reps(kBatch);
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
          const auto v = scalar.extract(rq.key);
          CHECK((rp.status == Status::kOk) == v.has_value());
          if (v) CHECK(rp.value == *v);
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
  std::vector<InlinedMap::Reply> out(kSpace);
  for (std::uint64_t k = 0; k < kSpace; ++k) keys[k] = k;
  batched.get_batch(keys.data(), out.data(), kSpace);
  for (std::uint64_t k = 0; k < kSpace; ++k) {
    const auto v = batched.get(k);
    CHECK((out[k].status == Status::kOk) == v.has_value());
    if (v) CHECK(out[k].value == *v);
  }
}

// Batched Gets while a migration is pending: a shadow is published and
// the writes since then landed in it, so get_batch and execute_batch's
// Get runs must follow migrated bits through the pipelined probe exactly
// as scalar get does, under each probe engine; then again once grow_now()
// has finished the migration.
void test_batched_gets_across_migration() {
  std::puts("test_batched_gets_across_migration");
  for (const ProbeStrategy ps : {ProbeStrategy::kAuto, ProbeStrategy::kSwar}) {
    Options o;
    o.initial_bins = 1024;
    o.resize_chunk_bins = 1;
    o.probe_strategy = ps;
    InlinedMap m(o);
    // The grow trigger (0.75 * 3 * 1024 = 2304 entries) is checked every
    // 256 inserts on one thread, so the 2560th insert publishes a shadow.
    constexpr std::uint64_t kKeys = 2560;
    std::vector<std::uint64_t> ref(kKeys + 65, 0);  // value, 0 = absent
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      CHECK(m.insert(k, k));
      ref[k] = k;
    }
    // Each write migrates at most its home and one cursor bucket, so 300
    // writes leave the 1024-bucket migration open. An erase that lands in
    // the shadow leaves a stale copy that debug_probe_candidates, which
    // walks only the current instance, still counts.
    std::size_t stale = 0;
    for (std::uint64_t k = 7; k <= 7 * 300; k += 7) {
      if (k % 2 != 0) {
        CHECK(m.put(k, k + 1000000));
        ref[k] = k + 1000000;
      } else {
        CHECK(m.erase(k));
        ref[k] = 0;
        stale += m.debug_probe_candidates(k) >= 1;
      }
    }
    CHECK(m.resizes_completed() == 0);
    CHECK(stale == 150);
    auto check_batches = [&] {
      const std::size_t n = ref.size();
      std::vector<std::uint64_t> keys(n);
      std::vector<InlinedMap::Request> reqs(n);
      for (std::uint64_t k = 0; k < n; ++k) {
        keys[k] = k;
        reqs[k] = {OpType::kGet, k, 0, k};
      }
      std::vector<InlinedMap::Reply> got(n), ran(n);
      m.get_batch(keys.data(), got.data(), n);
      m.execute_batch(reqs.data(), ran.data(), n);
      std::size_t wrong = 0;
      for (std::uint64_t k = 0; k < n; ++k) {
        const auto v = m.get(k);
        const bool present = ref[k] != 0;
        wrong += v.has_value() != present || (present && *v != ref[k]);
        for (const InlinedMap::Reply& rp : {got[k], ran[k]}) {
          wrong += (rp.status == Status::kOk) != present ||
                   (present && rp.value != ref[k]);
        }
        wrong += ran[k].user != k;
      }
      CHECK(wrong == 0);
    };
    check_batches();
    m.grow_now();
    CHECK(m.resizes_completed() == 1);
    CHECK(m.bins() == 2048);
    check_batches();
  }
}

// Every numa_policy value must construct, populate through a resize, and
// keep scalar/batch equivalence — with placement either in force or
// honestly counted in stats().numa_fallback. Single-node hosts (every CI
// runner) exercise the fallback path; multi-node hosts the real one.
void test_numa_policies() {
  std::puts("test_numa_policies");
  struct Case {
    NumaPolicy policy;
    unsigned node;
    const char* name;
  };
  const Case cases[] = {
      {NumaPolicy::kFirstTouch, 0, "first_touch"},
      {NumaPolicy::kInterleave, 0, "interleave"},
      {NumaPolicy::kNodeLocal, 0, "node_local(0)"},
      {NumaPolicy::kNodeLocal, 999, "node_local(999)"},  // bogus target
  };
  const bool multi_node = real_node_count() >= 2;
  for (const Case& c : cases) {
    Options o = tiny_options();  // 256 bins: populating 20000 keys resizes
    o.numa_policy = c.policy;
    o.numa_node = c.node;
    InlinedMap m(o);
    constexpr std::uint64_t kN = 20000;
    for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k * 7));
    // Scalar/batch equivalence over the populated table.
    constexpr std::size_t kBatch = 24;
    std::vector<std::uint64_t> keys(kBatch);
    std::vector<InlinedMap::Reply> out(kBatch);
    for (std::uint64_t base = 1; base + kBatch <= kN; base += 997) {
      for (std::size_t i = 0; i < kBatch; ++i) keys[i] = base + i;
      m.get_batch(keys.data(), out.data(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        CHECK(out[i].status == Status::kOk);
        CHECK(out[i].value == keys[i] * 7);
        CHECK(m.get(keys[i]).value_or(0) == keys[i] * 7);
      }
    }
    const std::uint64_t fb = m.stats().numa_fallback;
    std::printf("  %-15s numa_fallback=%llu\n", c.name,
                static_cast<unsigned long long>(fb));
    if (c.policy == NumaPolicy::kFirstTouch) {
      CHECK(fb == 0);  // the default policy never has anything to fall from
    } else if (c.policy == NumaPolicy::kNodeLocal && c.node == 999) {
      CHECK(fb > 0);  // a bogus node can never bind, on any host
    } else if (!multi_node) {
      CHECK(fb > 0);  // single-node host: bound policies must count honestly
    }
  }
}

// 4 threads hammer one table: each owns a disjoint key range and runs
// insert/put/erase cycles while validating its own reads; a fifth pattern
// (thread 0 also batch-reads everyone's ranges) checks cross-thread
// visibility invariants. After joining, per-range state must match exactly
// what the owner last wrote — any lost update fails the final sweep.
// The runtime ablation toggles must only change performance, never
// correctness — except link_chains, whose whole point is rejecting inserts
// a bounded bucket cannot hold.
void test_ablation_toggles() {
  std::puts("test_ablation_toggles");

  {  // Fingerprints off: full-key probes, same results, chains included.
    Options o = tiny_options();
    o.ablation.fingerprints = false;
    InlinedMap m(o);
    constexpr std::uint64_t kN = 8000;
    for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k * 5));
    for (std::uint64_t k = 1; k <= kN; ++k) {
      CHECK(m.get(k).value_or(0) == k * 5);
    }
    CHECK(!m.get(kN + 1).has_value());
    std::vector<std::uint64_t> ks(64);
    std::vector<InlinedMap::Reply> out(64);
    for (std::size_t i = 0; i < ks.size(); ++i) ks[i] = i * 101 + 1;
    m.get_batch(ks.data(), out.data(), ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const bool hit = ks[i] <= kN;
      CHECK((out[i].status == Status::kOk) == hit);
      if (hit) CHECK(out[i].value == ks[i] * 5);
    }
    for (std::uint64_t k = 1; k <= kN; k += 2) CHECK(m.erase(k));
    for (std::uint64_t k = 2; k <= kN; k += 2) {
      CHECK(m.get(k).value_or(0) == k * 5);
    }
  }

  {  // Link chains off: a full home bucket rejects, erase makes room again.
    Options o;
    o.initial_bins = 16;
    o.max_load_factor = 1e9;  // never resize: capacity is the point
    o.ablation.link_chains = false;
    InlinedMap m(o);
    std::uint64_t inserted = 0, first_rejected = 0;
    for (std::uint64_t k = 1; k <= 16 * 3 * 4; ++k) {
      if (m.insert(k, k)) {
        ++inserted;
      } else if (first_rejected == 0) {
        first_rejected = k;
      }
    }
    CHECK(first_rejected != 0);          // bounded: some bin filled up
    CHECK(inserted <= 16 * 3);           // cannot exceed the inline slots
    // Erase an inserted key and reinsert it: chains-off still reuses the
    // freed slot (same home bucket, so room is guaranteed).
    CHECK(m.erase(first_rejected - 1));
    CHECK(m.insert(first_rejected - 1, 7));
    CHECK(m.get(first_rejected - 1).value_or(0) == 7);
  }

  {  // In-place updates off: puts keep upsert semantics via the shadow path.
    Options o = tiny_options();
    o.ablation.inplace_updates = false;
    InlinedMap m(o);
    CHECK(!m.put(9, 90));               // absent -> inserted, no overwrite
    CHECK(m.get(9).value_or(0) == 90);
    CHECK(m.put(9, 91));                // present -> overwritten
    CHECK(m.get(9).value_or(0) == 91);
    CHECK(m.update(9, [](std::uint64_t v) { return v + 1; }).value_or(0) ==
          92);
    CHECK(m.erase(9));
    CHECK(!m.get(9).has_value());
  }
}

void test_variable_kv() {
  std::puts("test_variable_kv");
  Options o = tiny_options();
  AllocatorMap<> m(o);
  char key[64], val[128];
  for (int i = 0; i < 500; ++i) {
    std::snprintf(key, sizeof key, "user:%d:profile", i);
    std::snprintf(val, sizeof val, "payload-%d", i * 7);
    CHECK(m.insert_kv(key, std::strlen(key), val, std::strlen(val) + 1));
  }
  CHECK(!m.insert_kv("user:7:profile", 14, "dup", 4));  // duplicate key
  for (int i = 0; i < 500; ++i) {
    std::snprintf(key, sizeof key, "user:%d:profile", i);
    std::snprintf(val, sizeof val, "payload-%d", i * 7);
    std::size_t vlen = 0;
    const char* p = m.get_ptr_kv(key, std::strlen(key), &vlen);
    CHECK(p != nullptr);
    if (p != nullptr) {
      CHECK(vlen == std::strlen(val) + 1);
      CHECK(std::string_view(p) == val);
    }
  }
  CHECK(m.get_ptr_kv("user:9999:profile", 17) == nullptr);
  for (int i = 0; i < 500; i += 2) {
    std::snprintf(key, sizeof key, "user:%d:profile", i);
    CHECK(m.erase_kv(key, std::strlen(key)));
  }
  for (int i = 0; i < 500; ++i) {
    std::snprintf(key, sizeof key, "user:%d:profile", i);
    CHECK((m.get_ptr_kv(key, std::strlen(key)) != nullptr) == (i % 2 == 1));
  }
  m.quiesce();
}

void test_concurrent_stress() {
  std::puts("test_concurrent_stress");
  Options o;
  o.initial_bins = 1024;  // force contention and chaining
  o.link_ratio = 0.5;
  InlinedMap m(o);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRange = 8000;
  constexpr int kRounds = 30;
  std::atomic<int> failures{0};

  auto owner = [&](int tid) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(tid) * kRange;
    Xoshiro256 rng(splitmix64(77 + tid));
    for (int r = 0; r < kRounds; ++r) {
      for (std::uint64_t i = 0; i < kRange; ++i) {
        if (!m.insert(base + i, (base + i) * 2 + 1)) failures.fetch_add(1);
      }
      for (std::uint64_t i = 0; i < kRange; ++i) {
        const auto v = m.get(base + i);
        if (!v || *v % 2 == 0) failures.fetch_add(1);
      }
      for (std::uint64_t i = 0; i < kRange; ++i) {
        m.put(base + i, (base + i) * 4 + 1);
      }
      // Erase a rotating half so slot reuse and link chains churn.
      const std::uint64_t half = kRange / 2;
      const std::uint64_t off = (r & 1) ? half : 0;
      for (std::uint64_t i = 0; i < half; ++i) {
        if (!m.erase(base + off + i)) failures.fetch_add(1);
      }
      for (std::uint64_t i = 0; i < half; ++i) {
        if (m.get(base + off + i).has_value()) failures.fetch_add(1);
      }
      // Re-erase the surviving half before the next round reinserts all.
      for (std::uint64_t i = 0; i < half; ++i) {
        const std::uint64_t k = base + (off ? 0 : half) + i;
        const auto v = m.get(k);
        if (!v || *v % 2 == 0) failures.fetch_add(1);
        if (!m.erase(k)) failures.fetch_add(1);
      }
    }
    // Leave a known final state: owner's keys all present with value*8+1.
    for (std::uint64_t i = 0; i < kRange; ++i) {
      m.put(base + i, (base + i) * 8 + 1);
    }
  };

  // A pure reader thread: every observed value must satisfy the odd-value
  // invariant all writers maintain (catches torn/stale slot reads).
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Xoshiro256 rng(999);
    std::vector<std::uint64_t> ks(24);
    std::vector<InlinedMap::Reply> out(24);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& k : ks) k = 1 + rng.next_below(kThreads * kRange);
      m.get_batch(ks.data(), out.data(), ks.size());
      for (std::size_t i = 0; i < ks.size(); ++i) {
        if (out[i].status == Status::kOk && out[i].value % 2 == 0) {
          failures.fetch_add(1);
        }
        if (out[i].status == Status::kOk && out[i].value / 8 > ks[i]) {
          failures.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) writers.emplace_back(owner, t);
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kRange;
    for (std::uint64_t i = 0; i < kRange; ++i) {
      const auto v = m.get(base + i);
      if (!v || *v != (base + i) * 8 + 1) failures.fetch_add(1);
    }
  }
  CHECK(failures.load() == 0);
}

void test_allocator_map() {
  std::puts("test_allocator_map");
  Options o;
  o.initial_bins = 256;
  o.fixed_value_size = 64;
  AllocatorMap<> m(o);
  char blob[64];
  for (int i = 0; i < 64; ++i) blob[i] = static_cast<char>(i);
  CHECK(m.insert(1, blob, sizeof blob));
  CHECK(!m.insert(1, blob, sizeof blob));
  const char* p = m.get_ptr(1);
  CHECK(p != nullptr && p[10] == 10 && p[63] == 63);
  CHECK(m.erase(1));
  CHECK(m.get_ptr(1) == nullptr);
  m.quiesce();

  Options vo;
  vo.initial_bins = 256;
  AllocatorMap<> vm(vo);
  const char msg[] = "variable-size value";
  CHECK(vm.insert(2, msg, sizeof msg));
  const char* q = vm.get_ptr(2);
  CHECK(q != nullptr && std::string_view(q) == msg);
  CHECK(vm.erase(2));
  vm.quiesce();
}

/// Fingerprints must behave like 8 independent hash bits: probing absent
/// keys against a 1M-key table should see ~occupancy/256 false candidates
/// per probe. The old derivation reused the low hash byte that also picks
/// the bin, which correlated fingerprints within a bucket; this pins the
/// fixed (disjoint mixed bytes) derivation with an empirical bound of
/// 2/256 candidates per absent-key probe.
void test_fingerprint_false_positive_rate() {
  std::puts("test_fingerprint_false_positive_rate");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr std::uint64_t kKeys = 1u << 17;  // keep sanitizer runs in budget
#else
  constexpr std::uint64_t kKeys = 1u << 20;
#endif
  Options o;
  o.initial_bins = kKeys;  // ~1 occupied slot/bucket: expect ~1/256 a probe
  InlinedMap m(o);
  for (std::uint64_t i = 1; i <= kKeys; ++i) CHECK(m.insert(i, i));

  std::uint64_t candidates = 0;
  for (std::uint64_t i = 1; i <= kKeys; ++i) {
    candidates += m.debug_probe_candidates(kKeys + i);  // all absent
  }
  const double per_probe = static_cast<double>(candidates) /
                           static_cast<double>(kKeys);
  std::printf("  fp candidates per absent probe: %.5f (bound %.5f)\n",
              per_probe, 2.0 / 256.0);
  CHECK(per_probe < 2.0 / 256.0);
}

}  // namespace

int main() {
  test_put_get_delete();
  test_shadow_insert();
  test_deep_chain_writes();
  test_new_link_buckets_are_empty();
  test_fresh_tables_are_empty();
  test_bucket_arrays_end_at_a_guard_page();
  test_link_pool_exhaustion_answers_full();
  test_shadow_across_migrations();
  test_batch_matches_scalar();
  test_batched_gets_across_migration();
  test_numa_policies();
  test_ablation_toggles();
  test_variable_kv();
  test_concurrent_stress();
  test_allocator_map();
  test_fingerprint_false_positive_rate();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all tests passed");
  return 0;
}
