// Correctness tests for the application workload layer (include/apps/) and
// the core primitives it rides on: DLHT::update() RMW, the HashSet
// value-less mode, the lock manager's all-or-nothing batched path, the
// YCSB/TATP/Smallbank generators, the hash join, and the driver's latency
// mode. Smallbank money conservation runs multi-threaded: it is the first
// workload exercising atomic RMWs across several DLHT instances at once.
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/hashjoin.hpp"
#include "apps/lock_manager.hpp"
#include "apps/smallbank.hpp"
#include "apps/tatp.hpp"
#include "apps/ycsb.hpp"
#include "workload/driver.hpp"

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

void test_update_rmw() {
  std::puts("test_update_rmw");
  InlinedMap m(tiny_options());
  // Absent key: no-op, reports nullopt, inserts nothing.
  CHECK(!m.update(5, [](std::uint64_t v) { return v + 1; }).has_value());
  CHECK(!m.get(5).has_value());

  // Dense enough that link chains form (256 bins * 3 slots < 4000 keys).
  constexpr std::uint64_t kN = 4000;
  for (std::uint64_t k = 1; k <= kN; ++k) CHECK(m.insert(k, k));
  for (std::uint64_t k = 1; k <= kN; ++k) {
    const auto nv = m.update(k, [](std::uint64_t v) { return v * 2; });
    CHECK(nv.has_value() && *nv == k * 2);
  }
  for (std::uint64_t k = 1; k <= kN; ++k) {
    CHECK(m.get(k).value_or(0) == k * 2);
  }

  // Concurrent increments on one key must not lose updates.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  m.put(1, 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&m] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        m.update(1, [](std::uint64_t v) { return v + 1; });
      }
    });
  }
  for (auto& t : ts) t.join();
  CHECK(m.get(1).value_or(0) == kThreads * kPerThread);
}

void test_hashset() {
  std::puts("test_hashset");
  HashSet s(tiny_options());
  CHECK(s.insert(7));
  CHECK(!s.insert(7));  // second insert = failed try-lock
  CHECK(s.contains(7));
  CHECK(s.erase(7));
  CHECK(!s.erase(7));
  CHECK(!s.contains(7));
  for (std::uint64_t k = 1; k <= 2000; ++k) CHECK(s.insert(k));
  CHECK(s.approx_size() == 2000);
}

void test_lock_manager() {
  std::puts("test_lock_manager");
  apps::LockManager lm(tiny_options());
  CHECK(lm.lock(3));
  CHECK(!lm.lock(3));  // held => try-lock fails
  CHECK(lm.held(3));
  lm.unlock(3);
  CHECK(!lm.held(3));
  CHECK(lm.lock(3));
  lm.unlock(3);

  // Batched all-or-nothing: a conflict in the middle rolls back everything
  // the batch acquired, leaving only the pre-existing lock.
  apps::LockManager::Session session(lm);
  CHECK(lm.lock(20));
  const std::vector<std::uint64_t> want{10, 20, 30, 40};
  CHECK(!session.lock_all(want));
  CHECK(!lm.held(10));
  CHECK(lm.held(20));  // the conflicting holder keeps its lock
  CHECK(!lm.held(30));
  CHECK(!lm.held(40));
  lm.unlock(20);

  CHECK(session.lock_all(want));
  for (const std::uint64_t r : want) CHECK(lm.held(r));
  CHECK(!session.lock_all(want));  // self-conflict: still all-or-nothing
  for (const std::uint64_t r : want) CHECK(lm.held(r));
  session.unlock_all(want);
  for (const std::uint64_t r : want) CHECK(!lm.held(r));
  CHECK(lm.locks_held() == 0);
}

void test_ycsb() {
  std::puts("test_ycsb");
  CHECK(std::string_view(apps::ycsb_name(apps::YcsbMix::kA)) == "YCSB-A");
  CHECK(std::string_view(apps::ycsb_name(apps::YcsbMix::kF)) == "YCSB-F");

  constexpr std::uint64_t kKeys = 5000;
  InlinedMap m(tiny_options());
  workload::populate(m, kKeys);

  // C is read-only: values must be untouched after a burst.
  {
    auto worker = apps::make_ycsb_worker(m, apps::YcsbMix::kC, kKeys, 1)(0);
    for (int i = 0; i < 20000; ++i) worker();
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      CHECK(m.get(k).value_or(0) == k);
    }
  }
  // F is RMW-only: the total increment count must equal the op count
  // (update() may not lose writes), and no key may vanish or appear.
  {
    constexpr std::uint64_t kOps = 30000;
    auto worker = apps::make_ycsb_worker(m, apps::YcsbMix::kF, kKeys, 2)(0);
    for (std::uint64_t i = 0; i < kOps; ++i) worker();
    std::uint64_t total_increment = 0;
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      const auto v = m.get(k);
      CHECK(v.has_value());
      total_increment += *v - k;
    }
    CHECK(total_increment == kOps);
    CHECK(m.approx_size() == static_cast<std::int64_t>(kKeys));
  }
  // A mixes puts in: running it must not change the key population.
  {
    auto worker = apps::make_ycsb_worker(m, apps::YcsbMix::kA, kKeys, 3)(0);
    for (int i = 0; i < 20000; ++i) worker();
    CHECK(m.approx_size() == static_cast<std::int64_t>(kKeys));
  }
}

void test_hashjoin() {
  std::puts("test_hashjoin");
  const auto rel = apps::make_workload_a(5000, 40000, 7);
  CHECK(rel.build.size() == 5000);
  CHECK(rel.probe.size() == 40000);
  // Build keys are a permutation of 1..5000.
  {
    std::vector<bool> seen(5001, false);
    for (const std::uint64_t k : rel.build) {
      CHECK(k >= 1 && k <= 5000 && !seen[k]);
      seen[k] = true;
    }
  }
  const std::uint64_t expect = apps::join_reference(rel);

  InlinedMap m(tiny_options());
  apps::join_build(m, rel, 0, rel.build.size());
  CHECK(m.approx_size() == static_cast<std::int64_t>(rel.build.size()));
  CHECK(apps::join_probe(m, rel, 0, rel.probe.size()) == expect);
  CHECK(apps::join_probe_batched(m, rel, 0, rel.probe.size()) == expect);
  // Split ranges must compose to the same checksum (the bench stripes).
  CHECK(apps::join_probe(m, rel, 0, 1000) +
            apps::join_probe_batched(m, rel, 1000, rel.probe.size()) ==
        expect);
  // Deterministic generator: same seed, same relations.
  const auto rel2 = apps::make_workload_a(5000, 40000, 7);
  CHECK(rel2.build == rel.build && rel2.probe == rel.probe);
}

void test_tatp() {
  std::puts("test_tatp");
  apps::Tatp tatp(
      apps::Tatp::Config{.subscribers = 2000, .initial_bins = 4096});
  Xoshiro256 rng(splitmix64(11));
  apps::Tatp::Counters c;
  constexpr std::uint64_t kTxns = 20000;
  for (std::uint64_t i = 0; i < kTxns; ++i) tatp.run_one(rng, c);
  CHECK(c.committed + c.aborted == kTxns);
  // The mix is read-mostly and most reads hit: commits must dominate, but
  // TATP's business failures guarantee a nonzero abort share.
  CHECK(c.committed > kTxns / 2);
  CHECK(c.aborted > 0);
  // Every subscriber row exists (GET_SUBSCRIBER_DATA never misses).
  CHECK(tatp.subscriber_table().approx_size() == 2000);
}

void test_smallbank_conservation() {
  std::puts("test_smallbank_conservation");
  constexpr std::uint64_t kAccounts = 1000;
  constexpr std::int64_t kInit = 10000;
  apps::Smallbank bank(apps::Smallbank::Config{.accounts = kAccounts,
                                               .initial_bins = 2048,
                                               .populate_threads = 2,
                                               .initial_balance = kInit});
  CHECK(bank.total_balance() ==
        static_cast<std::int64_t>(kAccounts) * kInit * 2);

  // Multi-threaded run: per-account RMWs are atomic, so the global
  // invariant must hold exactly after the threads join.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kTxnsPerThread = 25000;
  std::vector<apps::Smallbank::Counters> counters(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&bank, &counters, t] {
      Xoshiro256 rng(splitmix64(100 + t));
      for (std::uint64_t i = 0; i < kTxnsPerThread; ++i) {
        bank.run_one(rng, counters[t]);
      }
    });
  }
  for (auto& t : ts) t.join();
  std::int64_t net = 0;
  std::uint64_t committed = 0, aborted = 0;
  for (const auto& c : counters) {
    net += c.net_deposited;
    committed += c.committed;
    aborted += c.aborted;
  }
  CHECK(committed + aborted == kThreads * kTxnsPerThread);
  CHECK(committed > 0);
  CHECK(bank.total_balance() ==
        static_cast<std::int64_t>(kAccounts) * kInit * 2 + net);
}

void test_latency_mode() {
  std::puts("test_latency_mode");
  InlinedMap m(tiny_options());
  constexpr std::uint64_t kKeys = 2000;
  workload::populate(m, kKeys);
  const auto r = workload::run_for(
      {.threads = 2, .seconds = 0.05, .measure_latency = true},
      [&m](int tid) {
        return [&m, gen = UniformGenerator(kKeys, splitmix64(tid + 1))]()
                   mutable -> std::uint64_t {
          m.get(gen.next() + 1);
          return 1;
        };
      });
  CHECK(r.total_ops > 0);
  CHECK(r.avg_latency_ns > 0);
  CHECK(r.avg_latency_ns == r.avg_latency_ns);  // not NaN
  CHECK(r.p50_ns > 0);
  CHECK(r.p99_ns >= r.p50_ns);
  // A cache-resident Get can't plausibly take a millisecond on average.
  CHECK(r.avg_latency_ns < 1e6);
}

void test_populate_wrapper() {
  std::puts("test_populate_wrapper");
  // Above the parallel threshold: contents must match the serial contract.
  constexpr std::uint64_t kKeys = 70000;
  InlinedMap m(Options{.initial_bins = 1 << 16});
  workload::populate(m, kKeys);
  CHECK(m.approx_size() == static_cast<std::int64_t>(kKeys));
  CHECK(!m.get(0).has_value());
  for (std::uint64_t k = 1; k <= kKeys; k += 997) {
    CHECK(m.get(k).value_or(0) == k);
  }
  CHECK(m.get(kKeys).value_or(0) == kKeys);
  CHECK(!m.get(kKeys + 1).has_value());
}

}  // namespace

int main() {
  test_update_rmw();
  test_hashset();
  test_lock_manager();
  test_ycsb();
  test_hashjoin();
  test_tatp();
  test_smallbank_conservation();
  test_latency_mode();
  test_populate_wrapper();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", g_failures);
    return 1;
  }
  std::puts("all apps tests passed");
  return 0;
}
