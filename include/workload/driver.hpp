// Timed multi-thread run loop shared by every figure bench.
//
// run_for spawns N pinned workers, releases them together, lets them hammer
// the map for a wall-clock interval, and reports aggregate Mreq/s. The
// worker factory is called once per thread (with the thread id) and returns
// a closure; each closure invocation performs a small burst of requests and
// returns how many it completed, so the stop flag is polled at op (or
// batch) granularity.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/latency.hpp"
#include "common/perf_counters.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"

namespace dlht::workload {

struct RunSpec {
  int threads = 1;
  double seconds = 0.3;
  bool pin = true;
  /// Closed-loop latency mode (Fig. 15): time every worker invocation and
  /// fill RunResult's avg/p50/p99 fields. Benches that want per-op numbers
  /// should issue one request per invocation (or divide by the op count).
  bool measure_latency = false;
  /// Open a per-thread perf_event group (cycles, LLC/dTLB/node misses, ...)
  /// around each worker's timed loop and merge the totals into
  /// RunResult::counters. Degrades to an all-unavailable CounterTotals
  /// where perf_event_open is forbidden; never fails the run.
  bool counters = false;
  /// Thread placement override. nullptr = the process-wide default plan
  /// (DLHT_PIN / compact over the scheduler's allowed CPUs). Ignored when
  /// pin is false.
  const PinPlan* plan = nullptr;
};

struct RunResult {
  std::uint64_t total_ops = 0;
  double elapsed_sec = 0;
  double mreqs_per_sec = 0;
  // Filled only when RunSpec::measure_latency is set; per worker-call ns
  // merged across threads. avg is exact over every call; the percentiles
  // come from per-thread reservoirs (32K samples each).
  double avg_latency_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  /// Filled only when RunSpec::counters is set: per-thread perf counters
  /// summed across workers (availability intersected). Check
  /// counters.any_available() before trusting the values.
  CounterTotals counters;
};

template <class WorkerFactory>
RunResult run_for(const RunSpec& spec, WorkerFactory&& make_worker) {
  const int n = spec.threads > 0 ? spec.threads : 1;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(n), 0);
  std::vector<LatencyReservoir> lat;
  if (spec.measure_latency) {
    lat.reserve(static_cast<std::size_t>(n));
    for (int tid = 0; tid < n; ++tid) {
      lat.emplace_back(static_cast<std::uint64_t>(tid));
    }
  }
  std::vector<CounterTotals> perthread_counters(
      spec.counters ? static_cast<std::size_t>(n) : 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    threads.emplace_back([&, tid] {
      if (spec.pin) {
        // Placement comes from the plan (cpuset-aware, policy-ordered),
        // never from a raw tid % hardware_threads() — a cgroup-restricted
        // runner must not pin onto a CPU it cannot run on.
        (spec.plan != nullptr ? *spec.plan : default_pin_plan())
            .pin(static_cast<std::size_t>(tid));
      }
      auto body = make_worker(tid);
      // Counters must be opened on the worker thread itself (the fds
      // count the opening thread) and only around the timed region.
      std::unique_ptr<PerfCounters> pc;
      if (spec.counters) pc = std::make_unique<PerfCounters>();
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (pc) pc->start();
      std::uint64_t done = 0;
      if (spec.measure_latency) {
        LatencyReservoir& rec = lat[static_cast<std::size_t>(tid)];
        while (!stop.load(std::memory_order_relaxed)) {
          const auto a = std::chrono::steady_clock::now();
          done += body();
          const auto b = std::chrono::steady_clock::now();
          rec.add(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                  .count()));
        }
      } else {
        while (!stop.load(std::memory_order_relaxed)) done += body();
      }
      if (pc) {
        pc->stop();
        perthread_counters[static_cast<std::size_t>(tid)] = pc->read();
      }
      ops[static_cast<std::size_t>(tid)] = done;
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.seconds));
  stop.store(true, std::memory_order_relaxed);
  const auto t1 = std::chrono::steady_clock::now();
  for (auto& t : threads) t.join();

  RunResult r;
  for (const std::uint64_t c : ops) r.total_ops += c;
  r.elapsed_sec = std::chrono::duration<double>(t1 - t0).count();
  if (r.elapsed_sec > 0) {
    r.mreqs_per_sec =
        static_cast<double>(r.total_ops) / r.elapsed_sec / 1e6;
  }
  if (spec.measure_latency) {
    const MergedLatency m = merge_latency(lat);
    r.avg_latency_ns = m.avg_ns();
    r.p50_ns = m.q1_ns;
    r.p99_ns = m.q2_ns;
  }
  if (spec.counters) r.counters = merge_counters(perthread_counters);
  return r;
}

/// Run each worker body exactly once to completion (no stop flag) and
/// return the elapsed wall-clock seconds. This is the population/growth
/// phase primitive: fig07-style benches time how long N threads take to
/// build an index that resizes underneath them.
template <class WorkerFactory>
double run_once(int threads, WorkerFactory&& make_worker, bool pin = true) {
  const int n = threads > 0 ? threads : 1;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    pool.emplace_back([&, tid] {
      if (pin) default_pin_plan().pin(static_cast<std::size_t>(tid));
      auto body = make_worker(tid);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body();
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Multi-thread population of keys 1..keys (value = key): the growth phase
/// that drives online resizing before (or during) a timed mix. Each thread
/// inserts a contiguous stripe so the final contents are deterministic.
template <class M>
void populate_parallel(M& m, std::uint64_t keys, int threads) {
  const int n = threads > 0 ? threads : 1;
  run_once(n, [&m, keys, n](int tid) {
    return [&m, keys, n, tid] {
      const std::uint64_t per = (keys + static_cast<std::uint64_t>(n) - 1) /
                                static_cast<std::uint64_t>(n);
      const std::uint64_t lo = 1 + static_cast<std::uint64_t>(tid) * per;
      std::uint64_t hi = lo + per - 1;
      if (hi > keys) hi = keys;
      for (std::uint64_t k = lo; k <= hi; ++k) m.insert(k, k);
    };
  });
}

/// Prepopulate a map with keys 1..keys (value = key): the convenience
/// wrapper every bench calls. Key 0 is left free so workloads can use
/// `gen.next() + 1` and baselines can reserve 0 as empty. Large populations
/// stripe across up to 8 threads via populate_parallel; small ones stay
/// single-threaded (not worth the spawns, and identical contents either
/// way).
template <class M>
void populate(M& m, std::uint64_t keys) {
  const unsigned hw = hardware_threads();
  int t = static_cast<int>(hw < 8u ? hw : 8u);
  if (keys < 65536) t = 1;
  populate_parallel(m, keys, t);
}

}  // namespace dlht::workload
