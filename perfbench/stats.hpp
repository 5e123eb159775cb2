// The benchmark's own arithmetic: latency percentiles with their sample
// counts, span self time, open-loop request timing, the max-rate step rule
// and fail_ratio. Nothing here touches the clock or the OS, so selftest.cpp
// checks every function against hand-computed answers.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Log-linear latency histogram. Values below 128 ns are counted exactly;
/// above that each power of two is split into 64 buckets, so a bucket is at
/// most 1/64 of its lower bound wide. Merging is exact, which a sampled
/// reservoir is not, and memory stays fixed however long a run lasts.
class Histogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kLinear = 2 * kSub;
  static constexpr std::size_t kBuckets = kLinear + (63 - kSubBits) * kSub;

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }

  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= kSubBits + 1
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return kLinear + static_cast<std::size_t>(e - kSubBits - 1) * kSub +
           static_cast<std::size_t>(sub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kLinear) return i;
    const std::size_t k = i - kLinear;
    return (kSub + k % kSub) << (k / kSub + 1);
  }
  static std::uint64_t width(std::size_t i) {
    return i < kLinear ? 1 : std::uint64_t{1} << ((i - kLinear) / kSub + 1);
  }

  /// A percentile and the sample counts behind it: `n` samples in all, of
  /// which `beyond` lie above the percentile's rank.
  struct Quantile {
    double value = 0;
    std::uint64_t n = 0;
    std::uint64_t beyond = 0;
  };

  /// Nearest-rank q-quantile: the sample of rank ceil(q * n). Exact below
  /// 128; in wider buckets the rank is interpolated linearly between the
  /// bucket's bounds, so the result moves with the data instead of
  /// snapping to a bucket edge.
  Quantile quantile(double q) const {
    Quantile out;
    out.n = n_;
    if (n_ == 0) return out;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n_) - 1e-9));
    if (rank < 1) rank = 1;
    if (rank > n_) rank = n_;
    out.beyond = n_ - rank;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (cum + c < rank) {
        cum += c;
        continue;
      }
      out.value = static_cast<double>(lower(i));
      if (width(i) > 1) {
        out.value += static_cast<double>(width(i)) *
                     (static_cast<double>(rank - cum) - 0.5) /
                     static_cast<double>(c);
      }
      return out;
    }
    return out;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

/// The median over consecutive time windows of each window's q-quantile,
/// with the sample counts of all windows together. One stall of a few
/// milliseconds moves a single window's tail, not the run's figure, so
/// the value tracks the program rather than one hiccup of the host.
inline Histogram::Quantile median_window_quantile(
    const std::vector<Histogram>& windows, double q) {
  Histogram::Quantile out;
  std::vector<double> vals;
  for (const Histogram& w : windows) {
    if (w.count() == 0) continue;
    const Histogram::Quantile wq = w.quantile(q);
    vals.push_back(wq.value);
    out.n += wq.n;
    out.beyond += wq.beyond;
  }
  if (vals.empty()) return out;
  std::sort(vals.begin(), vals.end());
  const std::size_t m = vals.size() / 2;
  out.value = vals.size() % 2 == 1 ? vals[m] : 0.5 * (vals[m - 1] + vals[m]);
  return out;
}

/// The median over consecutive time windows of work per second of CPU:
/// window i completed ops[i] operations and gave the program seconds[i]
/// of CPU time (its width minus the steal the host took in it). Windows
/// that gave no time are skipped; 0 when none is left.
inline double median_rate(const std::vector<double>& ops,
                          const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < ops.size() && i < seconds.size(); ++i) {
    if (seconds[i] > 0) rates.push_back(ops[i] / seconds[i]);
  }
  if (rates.empty()) return 0;
  std::sort(rates.begin(), rates.end());
  const std::size_t m = rates.size() / 2;
  return rates.size() % 2 == 1 ? rates[m] : 0.5 * (rates[m - 1] + rates[m]);
}

/// One open-loop request: when the schedule said to send it, when the
/// generator actually sent it, and when its reply arrived (all ns on one
/// clock). Latency counts from the intended time, so a stall also charges
/// the requests queued behind it; the round trip counts from the actual
/// send; the lag is how late the generator ran.
struct RequestTiming {
  std::uint64_t intended = 0;
  std::uint64_t sent = 0;
  std::uint64_t replied = 0;

  std::uint64_t latency() const { return replied - intended; }
  std::uint64_t rtt() const { return replied - sent; }
  std::uint64_t lag() const { return sent > intended ? sent - intended : 0; }
};

/// Outstanding requests sampled at a fixed interval across one ladder step
/// grow when the mean of the last quarter of samples exceeds twice the
/// mean of the first quarter plus `slack` requests. A server that keeps up
/// holds a flat backlog; one that does not accumulates it linearly.
inline bool backlog_growing(const std::vector<std::uint64_t>& samples,
                            double slack) {
  const std::size_t q = samples.size() / 4;
  if (q == 0) return false;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += static_cast<double>(samples[i]);
    last += static_cast<double>(samples[samples.size() - q + i]);
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > 2 * first + slack;
}

/// One step of the offered-rate ladder, as measured.
struct LadderStep {
  double offered_mops = 0;
  double achieved_mops = 0;  // replies received / step duration
  double p99_us = 0;         // over every request of the step
  bool backlog_grew = false;
  std::uint64_t failed = 0;  // wrong or missing replies in the step
};

/// The max-rate rule: a step passes when its p99 meets the limit, its
/// backlog did not grow and none of its requests failed. Returns the index
/// of the highest passing step, or -1 when none passes.
inline int highest_passing_step(const std::vector<LadderStep>& steps,
                                double p99_limit_us) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const LadderStep& s = steps[i];
    if (s.p99_us <= p99_limit_us && !s.backlog_grew && s.failed == 0) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Failed operations as a share of those attempted; a run that attempted
/// nothing has failed outright.
inline double fail_ratio(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
