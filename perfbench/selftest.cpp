// Known-answer tests for the benchmark's own arithmetic (stats.hpp,
// trace.hpp). Exit 0 when every answer matches.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what);
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void percentiles() {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  const Histogram::Quantile p50 = h.quantile(0.50), p99 = h.quantile(0.99);
  expect(p50.value == 50 && p50.n == 100 && p50.beyond == 50, "p50 of 1..100");
  expect(p99.value == 99 && p99.n == 100 && p99.beyond == 1, "p99 of 1..100");
  expect(h.quantile(1.0).value == 100 && h.quantile(1.0).beyond == 0,
         "p100 of 1..100");

  // 1000 samples: p99 is rank 990 and leaves 10 beyond it.
  Histogram k;
  for (std::uint64_t v = 0; v < 1000; ++v) k.add(v < 990 ? 10 : 20);
  const Histogram::Quantile q = k.quantile(0.99);
  expect(q.value == 10 && q.n == 1000 && q.beyond == 10, "p99 rank 990");
  expect(k.quantile(0.991).value == 20, "p99.1 crosses into the tail");

  // Above 128 a bucket spans 1/64 of its lower bound; a single sample is
  // reported at the middle of its bucket, within the bucket's width.
  Histogram w;
  w.add(100'000);
  const std::size_t i = Histogram::index(100'000);
  expect(Histogram::lower(i) <= 100'000 &&
             100'000 < Histogram::lower(i) + Histogram::width(i),
         "bucket holds its value");
  expect(Histogram::width(i) * 64 <= Histogram::lower(i) * 2,
         "bucket width <= 1/32 of its bound");
  expect(near(w.quantile(0.5).value, 100'000, Histogram::width(i)),
         "single sample within its bucket");
  expect(Histogram::index(~std::uint64_t{0}) == Histogram::kBuckets - 1,
         "largest value lands in the last bucket");

  // Windowed p99: windows with tails 10, 20 and a 5000 stall -> median 20.
  std::vector<Histogram> win(4);
  for (std::uint64_t v = 0; v < 100; ++v) {
    win[0].add(v < 99 ? 1 : 10);
    win[1].add(v < 99 ? 1 : 20);
    win[2].add(v < 99 ? 1 : 5000);
  }
  const Histogram::Quantile mw = median_window_quantile(win, 1.0);
  expect(mw.value == 20 && mw.n == 300 && mw.beyond == 0,
         "median of window maxima skips the empty window");
  expect(median_window_quantile(win, 0.5).value == 1, "median of medians");

  Histogram a, b;
  a.add(5);
  b.add(7);
  a.merge(b);
  expect(a.count() == 2 && a.quantile(1.0).value == 7, "merge");
  expect(Histogram{}.quantile(0.5).n == 0, "empty histogram");
}

void self_time() {
  // parent [0,100] with children [10,30] and [40,60]: self 60.
  ThreadTrace t(16);
  t.begin(SpanName::kRound, 7, 0);
  t.begin(SpanName::kGet, 7, 10);
  t.end(30);
  t.begin(SpanName::kGetBatch, 7, 40);
  t.end(60);
  t.end(100);
  const SpanTotals& r = t.totals(SpanName::kRound);
  expect(r.count == 1 && r.total_ns == 100 && r.self_ns == 60,
         "round self time = 100 - 20 - 20");
  expect(t.totals(SpanName::kGet).self_ns == 20, "leaf self time = duration");
  expect(t.kept().size() == 3, "three spans kept");
  const Span& child = t.kept()[0];
  const Span& parent = t.kept()[2];
  expect(child.parent == parent.id && parent.parent == Span::kNoParent &&
             child.request == 7,
         "parent links and request id");

  // Nested two deep: grandchild time is charged to the child, not twice.
  ThreadTrace n(0);
  n.begin(SpanName::kRound, 0, 0);
  n.begin(SpanName::kExecuteBatch, 0, 0);
  n.begin(SpanName::kPut, 0, 10);
  n.end(200'000);
  n.end(250'000);
  n.end(300'000);
  expect(n.totals(SpanName::kRound).self_ns == 50'000, "outer self time");
  expect(n.totals(SpanName::kExecuteBatch).self_ns == 50'010,
         "middle self time");
  expect(n.totals(SpanName::kPut).over_100us == 1 &&
             n.totals(SpanName::kRound).over_100us == 1,
         "slow spans counted");
  expect(n.kept().empty(), "keep 0 stores nothing");

  ThreadTrace o(4);
  o.record(SpanName::kRequest, 1, 0, 50);
  o.record(SpanName::kRequest, 2, 10, 40);  // overlaps the first
  expect(o.totals(SpanName::kRequest).total_ns == 80 &&
             o.totals(SpanName::kRequest).self_ns == 80,
         "overlapping recorded spans keep their own durations");
}

void lateness() {
  // The generator stalled: the second request was due at 10 but went out
  // at 25. Its latency counts from 10, its round trip from 25.
  const RequestTiming late{10, 25, 30};
  expect(late.latency() == 20 && late.rtt() == 5 && late.lag() == 15,
         "late send");
  const RequestTiming on_time{0, 0, 5};
  expect(on_time.latency() == 5 && on_time.rtt() == 5 && on_time.lag() == 0,
         "on-time send");
}

void max_rate() {
  expect(!backlog_growing({0, 1, 0, 2, 1, 0, 3, 1}, 64), "flat backlog");
  expect(backlog_growing({0, 10, 100, 200, 400, 600, 800, 1000}, 64),
         "growing backlog");
  expect(!backlog_growing({100, 100, 100, 100, 150, 150, 250, 250}, 64),
         "within twice the start plus slack");
  expect(!backlog_growing({5, 5, 5}, 64), "fewer than four samples");

  std::vector<LadderStep> steps = {
      {0.1, 0.1, 40, false, 0},
      {0.2, 0.2, 60, false, 0},
      {0.4, 0.39, 900, false, 0},
      {0.8, 0.6, 5000, true, 0},
  };
  expect(highest_passing_step(steps, 1000) == 2, "p99 limit 1000 us");
  expect(highest_passing_step(steps, 500) == 1, "p99 limit 500 us");
  steps[2].backlog_grew = true;
  expect(highest_passing_step(steps, 1000) == 1, "growing backlog fails");
  steps[1].failed = 1;
  expect(highest_passing_step(steps, 1000) == 0, "a failed request fails");
  expect(highest_passing_step(steps, 10) == -1, "nothing passes");
}

void window_rates() {
  // Rates 100, 50 (a stall), 100 and 120 ops per CPU second; the last
  // window lost half its width to steal. The window given no time is
  // skipped, and the median of four rates averages the middle two.
  expect(median_rate({100, 50, 100, 60, 7}, {1, 1, 1, 0.5, 0}) == 100,
         "median of window rates, steal-corrected");
  expect(median_rate({10, 20, 90}, {1, 1, 1}) == 20, "odd count");
  expect(median_rate({}, {}) == 0 && median_rate({5}, {0}) == 0,
         "no window with time");
}

void fail_ratios() {
  expect(fail_ratio(0, 1000) == 0.0, "no failures");
  expect(fail_ratio(3, 1000) == 0.003, "3 of 1000");
  expect(fail_ratio(0, 0) == 1.0, "nothing attempted");
}

}  // namespace

int main() {
  percentiles();
  self_time();
  lateness();
  max_rate();
  window_rates();
  fail_ratios();
  std::printf("selftest: %s (%d failed)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
