// read_dram: the paper's headline regime. 16M keys in a bucket array of
// 512 MiB (plus a 64 MiB link pool), five times the 105 MiB L3 of the
// reference host, read by 4 closed-loop threads. Each round is one
// get_batch of 24 keys and 24 scalar gets; keys are uniform and 10% of
// lookups are for absent keys. Nothing writes, so the probe engine and the
// prefetch pipeline do almost all the work and a change to the write path
// or to resizing should not move this workload.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kKeys = std::uint64_t{1} << 24;
constexpr std::size_t kBins = std::size_t{1} << 23;  // 67% full at kKeys
constexpr std::size_t kBatch = 24;
constexpr std::size_t kRound = 2 * kBatch;
// Per-thread lookup stream, replayed in a loop. 4M lookups per thread
// touch far more than the L3, so replaying does not warm the cache.
constexpr std::size_t kStream = std::size_t{1} << 22;
constexpr std::size_t kStreamLen = kStream - kStream % kRound;
constexpr unsigned kAbsentPercent = 10;
constexpr int kSetups = 3;

using dlht::DLHT;

dlht::Options table_options() {
  dlht::Options o;
  o.initial_bins = kBins;
  return o;
}

/// Key index i < kKeys is present; kKeys <= i is absent.
std::vector<std::uint32_t> make_stream(std::uint64_t seed, unsigned t) {
  dlht::Xoshiro256 rng(dlht::splitmix64(seed * 31 + t));
  std::vector<std::uint32_t> s(kStreamLen);
  for (std::uint32_t& e : s) {
    const bool absent = rng.next_below(100) < kAbsentPercent;
    e = static_cast<std::uint32_t>(rng.next_below(kKeys) +
                                   (absent ? kKeys : 0));
  }
  return s;
}

/// Width of the windows a timed phase is cut into; the first window is
/// the warm-up and is not reported.
constexpr std::uint64_t kWindowNs = 250'000'000;

/// One thread's correct ops and scalar Get latencies in one window.
struct Window {
  Histogram get;
  std::uint64_t ops = 0;
};

struct Tally {
  /// One per window of the phase, plus one for rounds that started after
  /// its end. Sized before the clock starts.
  std::vector<Window> win;
  Histogram batch;
  std::uint64_t ops = 0;
  std::uint64_t bad = 0;
  std::uint64_t end_ns = 0;
};

inline bool reply_ok(std::uint64_t idx, std::uint64_t key, bool hit,
                     std::uint64_t value) {
  if (idx >= kKeys) return !hit;
  return hit && value == value_of(key, 0);
}

template <bool kTrace>
void read_loop(const DLHT& table, const KeySpace& ks,
               const std::vector<std::uint32_t>& stream, const Windows& clock,
               const std::atomic<bool>& stop, Tally& out, ThreadTrace* tr) {
  std::uint64_t keys[kBatch];
  DLHT::Reply reps[kBatch];
  std::size_t pos = 0;
  for (std::uint64_t round = 0; !stop.load(std::memory_order_relaxed);
       ++round) {
    if constexpr (kTrace) tr->begin(SpanName::kRound, round, now_ns());
    for (std::size_t j = 0; j < kBatch; ++j) keys[j] = ks.key(stream[pos + j]);
    std::uint64_t t0 = now_ns();
    Window& win = out.win[clock.index(t0)];
    if constexpr (kTrace) tr->begin(SpanName::kGetBatch, round, t0);
    table.get_batch(keys, reps, kBatch);
    std::uint64_t t1 = now_ns();
    if constexpr (kTrace) tr->end(t1);
    out.batch.add(t1 - t0);
    std::uint64_t bad = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      bad += !reply_ok(stream[pos + j], keys[j],
                       reps[j].status == dlht::Status::kOk, reps[j].value);
    }
    for (std::size_t j = kBatch; j < kRound; ++j) {
      const std::uint64_t idx = stream[pos + j];
      const std::uint64_t k = ks.key(idx);
      t0 = now_ns();
      if constexpr (kTrace) tr->begin(SpanName::kGet, round, t0);
      const std::optional<std::uint64_t> v = table.get(k);
      t1 = now_ns();
      if constexpr (kTrace) tr->end(t1);
      win.get.add(t1 - t0);
      bad += !reply_ok(idx, k, v.has_value(), v.value_or(0));
    }
    if constexpr (kTrace) tr->end(now_ns());
    out.ops += kRound;
    out.bad += bad;
    win.ops += kRound - bad;
    pos += kRound;
    if (pos == kStreamLen) pos = 0;
  }
  out.end_ns = now_ns();
}

struct Phase {
  std::vector<Tally> tallies;
  /// Per window after the warm-up, over all threads: correct ops, the
  /// seconds of CPU the host gave, and scalar Get latencies.
  std::vector<double> win_ops, win_cpu_s;
  std::vector<Histogram> win_get;
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t bad = 0;
};

/// Run the readers for `seconds`, cut into windows of kWindowNs. A timer
/// thread starts the clock once every reader is ready, reads the host's
/// steal counter at each window boundary and stops the readers at the end.
template <bool kTrace>
Phase timed_phase(const DLHT& table, const KeySpace& ks,
                  const std::vector<std::vector<std::uint32_t>>& streams,
                  double seconds, std::vector<ThreadTrace>* traces) {
  const std::size_t windows = std::max<std::size_t>(
      2, static_cast<std::size_t>(seconds * 1e9 / kWindowNs + 0.5));
  Phase p;
  p.tallies.resize(kThreads);
  for (Tally& t : p.tallies) t.win.resize(windows + 1);
  std::atomic<bool> stop{false}, go{false};
  std::atomic<unsigned> ready{0};
  Windows clock(0, kWindowNs, windows);
  std::thread timer([&] {
    while (ready.load() < kThreads) std::this_thread::yield();
    clock = Windows(now_ns(), kWindowNs, windows);
    go.store(true, std::memory_order_release);
    for (std::size_t b = 0; b <= windows; ++b) {
      sleep_until_ns(clock.boundary(b));
      clock.sample(now_ns());
    }
    stop.store(true);
  });
  run_threads(kThreads, [&](unsigned t) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    read_loop<kTrace>(table, ks, streams[t], clock, stop, p.tallies[t],
                      kTrace ? &(*traces)[t] : nullptr);
  });
  timer.join();
  const std::uint64_t t0 = clock.boundary(0);
  std::uint64_t end = t0;
  for (const Tally& tl : p.tallies) {
    end = std::max(end, tl.end_ns);
    p.ops += tl.ops;
    p.bad += tl.bad;
  }
  // Wall time of the whole phase minus the steal accrued across it.
  double cpu = 0;
  for (std::size_t w = 0; w < windows; ++w) cpu += clock.cpu_seconds(w);
  p.seconds = cpu + static_cast<double>(end - clock.boundary(windows)) * 1e-9;
  for (std::size_t w = 1; w < windows; ++w) {
    double ops = 0;
    Histogram get;
    for (const Tally& tl : p.tallies) {
      ops += static_cast<double>(tl.win[w].ops);
      get.merge(tl.win[w].get);
    }
    p.win_ops.push_back(ops);
    p.win_cpu_s.push_back(clock.cpu_seconds(w));
    p.win_get.push_back(get);
  }
  return p;
}

/// Build the table: construct it at its final size and insert every key
/// from 4 threads. Returns the table; failed inserts go into `bad`.
std::unique_ptr<DLHT> populate(const KeySpace& ks, std::uint64_t* bad) {
  auto table = std::make_unique<DLHT>(table_options());
  std::atomic<std::uint64_t> failed{0};
  run_threads(kThreads, [&](unsigned t) {
    std::uint64_t f = 0;
    for (std::uint64_t i = t; i < kKeys; i += kThreads) {
      const std::uint64_t k = ks.key(i);
      f += !table->insert(k, value_of(k, 0));
    }
    failed += f;
  });
  *bad += failed.load();
  return table;
}

}  // namespace

int run_read_dram(const RunArgs& a, Report& r) {
  const KeySpace ks(a.seed);

  const std::uint64_t g0 = now_ns();
  std::vector<std::vector<std::uint32_t>> streams;
  for (unsigned t = 0; t < kThreads; ++t) {
    streams.push_back(make_stream(a.seed, t));
  }
  r.config("generate_s", seconds_since(g0));

  // Set-up is repeated and its median reported, so that one slow set-up
  // does not decide the comparison.
  std::vector<double> setups;
  std::unique_ptr<DLHT> table;
  std::uint64_t populate_bad = 0;
  for (int s = 0; s < kSetups; ++s) {
    table.reset();
    const Stopwatch sw;
    table = populate(ks, &populate_bad);
    setups.push_back(sw.seconds());
  }
  r.add_checks(kKeys * kSetups, populate_bad);
  record_table_stats(r, "table_start", *table);

  const std::uint64_t epoch0 = table->epoch().global_epoch();
  Phase untraced, traced;
  std::vector<ThreadTrace> traces;
  if (a.trace) {
    // Half the time untraced, half traced: the gap between the two is the
    // tracing overhead.
    untraced = timed_phase<false>(*table, ks, streams, a.seconds / 2, nullptr);
    for (unsigned t = 0; t < kThreads; ++t) traces.emplace_back(1 << 14);
    traced = timed_phase<true>(*table, ks, streams, a.seconds / 2, &traces);
    r.add_checks(traced.ops, traced.bad);
  } else {
    untraced = timed_phase<false>(*table, ks, streams, a.seconds, nullptr);
  }
  r.add_checks(untraced.ops, untraced.bad);
  const std::uint64_t epoch1 = table->epoch().global_epoch();

  // End-of-run audit: the table still holds exactly the populated keys.
  std::uint64_t seen = 0, wrong = 0;
  table->for_each([&](std::uint64_t k, std::uint64_t v) {
    ++seen;
    wrong += !value_names_key(v, k) || version_of(v) != 0;
  });
  r.invariant(seen == kKeys, "for_each count == populated keys");
  r.invariant(wrong == 0, "every stored value names its key");
  r.invariant(table->approx_size() == static_cast<std::int64_t>(kKeys),
              "approx_size() == populated keys");
  record_table_stats(r, "table_end", *table);

  // Throughput and the Get median are medians over the windows after the
  // warm-up; the tails are taken over all of them together.
  Histogram get, batch;
  for (const Histogram& h : untraced.win_get) get.merge(h);
  for (const Tally& t : untraced.tallies) batch.merge(t.batch);
  r.gated("throughput_mops",
          median_rate(untraced.win_ops, untraced.win_cpu_s) * 1e-6, "Mops/s");
  r.gated("get_p50_us", median_window_quantile(untraced.win_get, 0.50), "us",
          1e-3);
  r.extra("get_p99_us", get.quantile(0.99), "us", 1e-3);
  r.gated("setup_s", median(setups), "s");
  r.gated("peak_rss_mib", rss_mib("VmHWM"), "MiB");
  r.extra("batch_p50_us", batch.quantile(0.50), "us", 1e-3);
  r.extra("batch_p99_us", batch.quantile(0.99), "us", 1e-3);
  r.extra("fail_ratio", fail_ratio(r.failed, r.attempted), "ratio");
  r.config("timed_seconds", untraced.seconds);
  r.config("window_seconds", kWindowNs * 1e-9);
  r.config("windows_reported", static_cast<double>(untraced.win_ops.size()));
  r.config("keys", static_cast<double>(kKeys));
  r.config("threads", kThreads);
  r.config("loop", "closed");

  if (a.trace) {
    record_table_layers(r, *table, ks, kKeys, kKeys, a.seed);
    const SpanTotals gb = sum_totals(traces, SpanName::kGetBatch);
    const SpanTotals g = sum_totals(traces, SpanName::kGet);
    const SpanTotals round = sum_totals(traces, SpanName::kRound);
    r.layer("dlht.get_batch_ns_per_key",
            static_cast<double>(gb.total_ns) /
                static_cast<double>(gb.count * kBatch));
    r.layer("dlht.get_ns",
            static_cast<double>(g.total_ns) / static_cast<double>(g.count));
    r.layer("bench.self_ns_per_op", static_cast<double>(round.self_ns) /
                                        static_cast<double>(traced.ops));
    r.layer("workload.populate_s", median(setups));
    r.layer("epoch.advances", static_cast<double>(epoch1 - epoch0));
    const double before = rss_mib("VmRSS");
    table->epoch().quiesce();
    r.layer("epoch.reclaimed_mib", before - rss_mib("VmRSS"));
    const double ns_untraced =
        untraced.seconds / static_cast<double>(untraced.ops);
    const double ns_traced = traced.seconds / static_cast<double>(traced.ops);
    r.layer("bench.trace_overhead_frac", ns_traced / ns_untraced - 1.0);
    write_trace(a.trace_path, traces);
  }
  return 0;
}

}  // namespace perfbench
