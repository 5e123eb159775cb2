// churn_resize: writes beside reads in one table, across live resizes.
// A cycle starts from 2M stable keys in a table sized for them (1M bins,
// 64 MiB, within the 105 MiB L3) with min_load_factor set so that
// shrinks can happen. 4 closed-loop threads then run a fixed, seeded
// sequence in two phases:
//  - grow: Gets of stable keys, Inserts and Puts of each thread's own
//    fresh keys, and Gets of those own keys; the table grows from 2M to
//    6.4M keys, which crosses two grows (1M -> 2M -> 4M bins);
//  - drain: Gets of stable keys, Erases of every own key, and Gets that
//    must now miss; the table falls back to 2M keys, which crosses one
//    shrink (4M -> 2M bins).
// Every 24 consecutive ops alternate between scalar calls and one
// execute_batch call. Migration, helping writers, migrated-bit redirects
// and epoch reclamation are all on the hot path. The work of a cycle is
// fixed, so every cycle performs the same resizes; a run repeats cycles,
// each on a freshly populated table, until its time is used.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kStable = 2'000'000;
constexpr std::size_t kBins = std::size_t{1} << 20;  // 64% full at kStable
constexpr std::uint64_t kFresh = 1'100'000;           // per thread
// Grows start above 0.9 x slots: at 2.83M keys (1M -> 2M bins) and 5.66M
// (2M -> 4M bins); the peak is 6.4M. A shrink (4M -> 2M bins) starts once
// the keys fall to half the smaller table's grow trigger, 2.83M, which
// leaves 830K erases to finish it: its shadow must be allocated and
// migrated before the drain ends, or the cycle would count no shrink.
constexpr double kMaxLoadFactor = 0.9;
constexpr double kMinLoadFactor = 0.25;
constexpr std::size_t kBatch = 24;
constexpr std::uint64_t kPutLag = 2 * kBatch;

using dlht::DLHT;
using dlht::OpType;
using dlht::Status;

dlht::Options table_options() {
  dlht::Options o;
  o.initial_bins = kBins;
  o.max_load_factor = kMaxLoadFactor;
  o.min_load_factor = kMinLoadFactor;
  return o;
}

/// One pregenerated op: kind in the top 3 bits, key index below. Own-key
/// indices count from 0 within the thread's fresh range.
enum Kind : std::uint32_t {
  kGetStable,
  kGetOwnPut,   // own key after its Put: must hit with version 2
  kGetOwnGone,  // own key after its Erase: must miss
  kInsert,      // own fresh key: must be new (version 1)
  kPut,         // own key after its Insert: must overwrite (version 2)
  kErase,       // own key after its Put: must return version 2
};
constexpr int kIndexBits = 29;
constexpr std::uint32_t encode(Kind k, std::uint64_t i) {
  return (static_cast<std::uint32_t>(k) << kIndexBits) |
         static_cast<std::uint32_t>(i);
}
constexpr Kind kind_of(std::uint32_t e) {
  return static_cast<Kind>(e >> kIndexBits);
}
constexpr std::uint64_t index_of(std::uint32_t e) {
  return e & ((1u << kIndexBits) - 1);
}

struct Sequences {
  std::vector<std::uint32_t> grow, drain;
};

Sequences make_sequences(std::uint64_t seed, unsigned t) {
  dlht::Xoshiro256 rng(dlht::splitmix64(seed * 131 + t));
  Sequences s;
  s.grow.reserve(4 * (kFresh + kPutLag));
  for (std::uint64_t j = 0; j < kFresh + kPutLag; ++j) {
    if (j < kFresh) s.grow.push_back(encode(kInsert, j));
    s.grow.push_back(encode(kGetStable, rng.next_below(kStable)));
    if (j >= kPutLag) {
      s.grow.push_back(encode(kPut, j - kPutLag));
      s.grow.push_back(encode(kGetOwnPut, j - kPutLag));
    }
  }
  s.drain.reserve(3 * kFresh);
  for (std::uint64_t j = 0; j < kFresh; ++j) {
    s.drain.push_back(encode(kErase, j));
    s.drain.push_back(encode(kGetStable, rng.next_below(kStable)));
    s.drain.push_back(encode(kGetOwnGone, j));
  }
  return s;
}

struct Tally {
  Histogram get, write, batch;
  std::uint64_t batched = 0;  // requests sent through execute_batch
  std::uint64_t ops = 0;
  std::uint64_t bad = 0;
};

class Worker {
 public:
  Worker(DLHT& table, const KeySpace& ks, unsigned t)
      : table_(table), ks_(ks), fresh_base_(kStable + t * kFresh) {}

  std::uint64_t key(std::uint32_t e) const {
    const Kind k = kind_of(e);
    return ks_.key(index_of(e) + (k == kGetStable ? 0 : fresh_base_));
  }

  /// Run `seq`: chunks of kBatch ops alternate between scalar calls and
  /// one execute_batch.
  template <bool kTrace>
  void run(const std::vector<std::uint32_t>& seq, Tally& out,
           ThreadTrace* tr) {
    DLHT::Request reqs[kBatch];
    DLHT::Reply reps[kBatch];
    std::uint64_t chunk = 0;
    for (std::size_t base = 0; base < seq.size(); base += kBatch, ++chunk) {
      const std::size_t n = std::min(kBatch, seq.size() - base);
      if constexpr (kTrace) tr->begin(SpanName::kRound, chunk, now_ns());
      if (chunk % 2 == 0) {
        for (std::size_t j = 0; j < n; ++j) {
          scalar<kTrace>(seq[base + j], chunk, out, tr);
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          reqs[j] = request(seq[base + j]);
        }
        const std::uint64_t t0 = now_ns();
        if constexpr (kTrace) tr->begin(SpanName::kExecuteBatch, chunk, t0);
        table_.execute_batch(reqs, reps, n);
        const std::uint64_t t1 = now_ns();
        if constexpr (kTrace) tr->end(t1);
        out.batch.add(t1 - t0);
        out.batched += n;
        for (std::size_t j = 0; j < n; ++j) {
          out.bad += !batch_ok(seq[base + j], reqs[j].key, reps[j]);
        }
      }
      if constexpr (kTrace) tr->end(now_ns());
      out.ops += n;
    }
  }

 private:
  DLHT::Request request(std::uint32_t e) const {
    const std::uint64_t k = key(e);
    switch (kind_of(e)) {
      case kInsert: return {OpType::kInsert, k, value_of(k, 1), 0};
      case kPut: return {OpType::kPut, k, value_of(k, 2), 0};
      case kErase: return {OpType::kDelete, k, 0, 0};
      default: return {OpType::kGet, k, 0, 0};
    }
  }

  static bool batch_ok(std::uint32_t e, std::uint64_t k,
                       const DLHT::Reply& rp) {
    switch (kind_of(e)) {
      case kGetStable:
        return rp.status == Status::kOk && rp.value == value_of(k, 0);
      case kGetOwnPut:
        return rp.status == Status::kOk && rp.value == value_of(k, 2);
      case kGetOwnGone: return rp.status == Status::kNotFound;
      case kInsert: return rp.status == Status::kOk;
      case kPut: return rp.status == Status::kExists;
      case kErase:
        return rp.status == Status::kOk && rp.value == value_of(k, 2);
    }
    return false;
  }

  template <bool kTrace>
  void scalar(std::uint32_t e, std::uint64_t chunk, Tally& out,
              ThreadTrace* tr) {
    const std::uint64_t k = key(e);
    const Kind kind = kind_of(e);
    static constexpr SpanName kSpan[] = {SpanName::kGet,    SpanName::kGet,
                                         SpanName::kGet,    SpanName::kInsert,
                                         SpanName::kPut,    SpanName::kErase};
    const std::uint64_t t0 = now_ns();
    if constexpr (kTrace) tr->begin(kSpan[kind], chunk, t0);
    bool ok = false;
    switch (kind) {
      case kGetStable:
      case kGetOwnPut:
      case kGetOwnGone: {
        const std::optional<std::uint64_t> v = table_.get(k);
        ok = kind == kGetOwnGone
                 ? !v.has_value()
                 : v == value_of(k, kind == kGetStable ? 0 : 2);
        break;
      }
      case kInsert: ok = table_.insert(k, value_of(k, 1)); break;
      case kPut: ok = table_.put(k, value_of(k, 2)); break;
      case kErase: ok = table_.extract(k) == value_of(k, 2); break;
    }
    const std::uint64_t t1 = now_ns();
    if constexpr (kTrace) tr->end(t1);
    (kind <= kGetOwnGone ? out.get : out.write).add(t1 - t0);
    out.bad += !ok;
  }

  DLHT& table_;
  const KeySpace& ks_;
  std::uint64_t fresh_base_;
};

struct Cycle {
  double setup_s = 0;
  double timed_s = 0;
  double mops = 0;  // correct ops per second over the grow and drain phases
  std::uint64_t resizes = 0, shrinks = 0, epoch_advances = 0;
};

/// One cycle: populate a fresh table, then the grow and drain phases.
template <bool kTrace>
Cycle run_cycle(const KeySpace& ks, const std::vector<Sequences>& seqs,
                std::vector<Tally>& tallies, std::vector<ThreadTrace>* traces,
                std::unique_ptr<DLHT>& table, Report& r, bool record_start) {
  Cycle c;
  table.reset();
  const Stopwatch setup;
  table = std::make_unique<DLHT>(table_options());
  std::atomic<std::uint64_t> populate_bad{0};
  run_threads(kThreads, [&](unsigned t) {
    std::uint64_t bad = 0;
    for (std::uint64_t i = t; i < kStable; i += kThreads) {
      const std::uint64_t k = ks.key(i);
      bad += !table->insert(k, value_of(k, 0));
    }
    populate_bad += bad;
  });
  r.add_checks(kStable, populate_bad.load());
  c.setup_s = setup.seconds();
  if (record_start) record_table_stats(r, "table_start", *table);

  const std::uint64_t epoch0 = table->epoch().global_epoch();
  std::optional<Stopwatch> phase;
  std::barrier sync(kThreads, [&]() noexcept { phase.emplace(); });
  std::barrier done(kThreads,
                    [&]() noexcept { c.timed_s += phase->seconds(); });
  run_threads(kThreads, [&](unsigned t) {
    Worker w(*table, ks, t);
    ThreadTrace* tr = kTrace ? &(*traces)[t] : nullptr;
    sync.arrive_and_wait();
    w.run<kTrace>(seqs[t].grow, tallies[t], tr);
    done.arrive_and_wait();
    sync.arrive_and_wait();
    w.run<kTrace>(seqs[t].drain, tallies[t], tr);
    done.arrive_and_wait();
  });
  c.resizes = table->resizes_completed();
  c.shrinks = table->shrinks_completed();
  c.epoch_advances = table->epoch().global_epoch() - epoch0;

  // End of cycle: exactly the stable keys remain, with their values.
  std::uint64_t seen = 0, wrong = 0;
  table->for_each([&](std::uint64_t k, std::uint64_t v) {
    ++seen;
    wrong += v != value_of(k, 0);
  });
  r.invariant(seen == kStable, "for_each count == stable keys");
  r.invariant(wrong == 0, "every remaining value is its stable value");
  r.invariant(table->approx_size() == static_cast<std::int64_t>(kStable),
              "approx_size() == stable keys");
  return c;
}

struct Phase {
  std::vector<Cycle> cycles;
  std::vector<Tally> tallies = std::vector<Tally>(kThreads);
  double timed_s = 0;
  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const Tally& t : tallies) n += t.ops;
    return n;
  }
  std::uint64_t bad() const {
    std::uint64_t n = 0;
    for (const Tally& t : tallies) n += t.bad;
    return n;
  }
};

template <bool kTrace>
void run_phase(Phase& p, double seconds, const KeySpace& ks,
               const std::vector<Sequences>& seqs,
               std::vector<ThreadTrace>* traces, std::unique_ptr<DLHT>& table,
               Report& r) {
  do {
    const std::uint64_t before = p.ops() - p.bad();
    Cycle c = run_cycle<kTrace>(ks, seqs, p.tallies, traces, table, r,
                                !kTrace && p.cycles.empty());
    c.mops = static_cast<double>(p.ops() - p.bad() - before) / c.timed_s * 1e-6;
    p.timed_s += c.timed_s;
    p.cycles.push_back(c);
  } while (p.timed_s < seconds);
}

}  // namespace

int run_churn_resize(const RunArgs& a, Report& r) {
  const KeySpace ks(a.seed);
  const std::uint64_t g0 = now_ns();
  std::vector<Sequences> seqs;
  for (unsigned t = 0; t < kThreads; ++t) {
    seqs.push_back(make_sequences(a.seed, t));
  }
  const double generate_s = seconds_since(g0);

  std::unique_ptr<DLHT> table;
  Phase untraced, traced;
  std::vector<ThreadTrace> traces;
  if (a.trace) {
    run_phase<false>(untraced, a.seconds / 2, ks, seqs, nullptr, table, r);
    for (unsigned t = 0; t < kThreads; ++t) traces.emplace_back(1 << 14);
    run_phase<true>(traced, a.seconds / 2, ks, seqs, &traces, table, r);
    r.add_checks(traced.ops(), traced.bad());
  } else {
    run_phase<false>(untraced, a.seconds, ks, seqs, nullptr, table, r);
  }
  r.add_checks(untraced.ops(), untraced.bad());
  record_table_stats(r, "table_end", *table);

  std::vector<double> setups;
  std::string counts;
  for (const Phase* p : {&untraced, &traced}) {
    for (const Cycle& c : p->cycles) {
      setups.push_back(c.setup_s);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%llu/%llu@%.3f ",
                    static_cast<unsigned long long>(c.resizes),
                    static_cast<unsigned long long>(c.shrinks), c.mops);
      counts += buf;
    }
  }
  Histogram get, write, batch;
  for (const Tally& t : untraced.tallies) {
    get.merge(t.get);
    write.merge(t.write);
    batch.merge(t.batch);
  }
  // Every cycle does the same work; the median cycle is the run's figure,
  // so one cycle slowed by the host does not decide it.
  std::vector<double> cycle_mops;
  for (const Cycle& c : untraced.cycles) cycle_mops.push_back(c.mops);
  r.gated("throughput_mops", median(cycle_mops), "Mops/s");
  r.gated("get_p50_us", get.quantile(0.50), "us", 1e-3);
  r.extra("get_p99_us", get.quantile(0.99), "us", 1e-3);
  r.gated("setup_s", median(setups), "s");
  r.gated("peak_rss_mib", rss_mib("VmHWM"), "MiB");
  r.extra("write_p50_us", write.quantile(0.50), "us", 1e-3);
  r.extra("write_p99_us", write.quantile(0.99), "us", 1e-3);
  r.extra("batch_p50_us", batch.quantile(0.50), "us", 1e-3);
  r.extra("batch_p99_us", batch.quantile(0.99), "us", 1e-3);
  r.extra("fail_ratio", fail_ratio(r.failed, r.attempted), "ratio");
  r.config("generate_s", generate_s);
  r.config("timed_seconds", untraced.timed_s);
  r.config("cycles", static_cast<double>(untraced.cycles.size()));
  r.config("grows/shrinks@mops_per_cycle", counts);
  r.config("stable_keys", static_cast<double>(kStable));
  r.config("fresh_keys_per_thread", static_cast<double>(kFresh));
  r.config("min_load_factor", kMinLoadFactor);
  r.config("max_load_factor", kMaxLoadFactor);
  r.config("threads", kThreads);
  r.config("loop", "closed, fixed work per cycle");

  if (a.trace) {
    const Cycle& last = traced.cycles.back();
    record_table_layers(r, *table, ks, kStable, kStable, a.seed);
    const auto mean_ns = [&](SpanName n) {
      const SpanTotals s = sum_totals(traces, n);
      return static_cast<double>(s.total_ns) / static_cast<double>(s.count);
    };
    const SpanTotals eb = sum_totals(traces, SpanName::kExecuteBatch);
    r.layer("dlht.get_ns", mean_ns(SpanName::kGet));
    std::uint64_t batched = 0;
    for (const Tally& t : traced.tallies) batched += t.batched;
    r.layer("dlht.execute_batch_ns_per_req",
            static_cast<double>(eb.total_ns) / static_cast<double>(batched));
    r.layer("dlht.insert_ns", mean_ns(SpanName::kInsert));
    r.layer("dlht.put_ns", mean_ns(SpanName::kPut));
    r.layer("dlht.erase_ns", mean_ns(SpanName::kErase));
    std::uint64_t slow = eb.over_100us;
    for (const SpanName n : {SpanName::kInsert, SpanName::kPut,
                             SpanName::kErase}) {
      slow += sum_totals(traces, n).over_100us;
    }
    r.layer("dlht.slow_writes", static_cast<double>(slow));
    r.layer("dlht.resizes", static_cast<double>(last.resizes));
    r.layer("dlht.shrinks", static_cast<double>(last.shrinks));
    r.layer("epoch.advances", static_cast<double>(last.epoch_advances));
    const double before = rss_mib("VmRSS");
    table->epoch().quiesce();
    r.layer("epoch.reclaimed_mib", before - rss_mib("VmRSS"));
    r.layer("bench.self_ns_per_op",
            static_cast<double>(sum_totals(traces, SpanName::kRound).self_ns) /
                static_cast<double>(traced.ops()));
    std::vector<double> populates;
    for (const Cycle& c : traced.cycles) populates.push_back(c.setup_s);
    r.layer("workload.populate_s", median(populates));
    const double ns_untraced =
        untraced.timed_s / static_cast<double>(untraced.ops());
    const double ns_traced = traced.timed_s / static_cast<double>(traced.ops());
    r.layer("bench.trace_overhead_frac", ns_traced / ns_untraced - 1.0);
    write_trace(a.trace_path, traces);
  }
  return 0;
}

}  // namespace perfbench
