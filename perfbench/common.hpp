// Shared plumbing for the three workloads: the clock, seeded keys and
// self-describing values, thread placement, process memory, and the
// report every run prints.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Time the host has taken from this machine's CPUs since boot (the steal
/// column of /proc/stat), in seconds per CPU. 0 on a dedicated machine.
double steal_seconds();

/// Elapsed seconds of CPU the machine was actually given: wall time minus
/// the steal time accrued meanwhile. On a shared virtual machine other
/// tenants take 2-25% of every CPU, varying minute to minute; timing
/// closed-loop work on all CPUs against this clock measures the program
/// instead of the neighbours. On a dedicated machine it is wall time.
class Stopwatch {
 public:
  Stopwatch() : t0_(now_ns()), steal0_(steal_seconds()) {}
  double seconds() const {
    return seconds_since(t0_) - (steal_seconds() - steal0_);
  }

 private:
  std::uint64_t t0_;
  double steal0_;
};

/// Sleep until now_ns() reads at least t.
void sleep_until_ns(std::uint64_t t);

/// A timed phase cut into consecutive windows of equal width, with the
/// host's steal counter read at every window boundary by the one thread
/// that calls sample(). Throughput and latency are taken per window and
/// their median reported: a burst of interference from other tenants
/// moves a few windows, not the run's figure.
class Windows {
 public:
  Windows(std::uint64_t t0, std::uint64_t width_ns, std::size_t count)
      : t0_(t0), width_(width_ns), steal_(count + 1, 0.0) {}
  std::size_t count() const { return steal_.size() - 1; }
  std::uint64_t boundary(std::size_t b) const { return t0_ + b * width_; }
  /// The window holding time t: 0 before the first, count() past the last.
  std::size_t index(std::uint64_t t) const {
    if (t < t0_) return 0;
    const std::uint64_t w = (t - t0_) / width_;
    return w < count() ? static_cast<std::size_t>(w) : count();
  }
  /// Read the steal counter for each boundary `now` has passed and that
  /// has not been read yet.
  void sample(std::uint64_t now) {
    while (read_ < steal_.size() && now >= boundary(read_)) {
      steal_[read_++] = steal_seconds();
    }
  }
  /// Seconds of CPU window w gave the program: its width minus the steal
  /// accrued between its boundaries; 0 when they were not both read.
  double cpu_seconds(std::size_t w) const {
    if (w + 1 >= read_) return 0;
    return static_cast<double>(width_) * 1e-9 - (steal_[w + 1] - steal_[w]);
  }

 private:
  std::uint64_t t0_;
  std::uint64_t width_;
  std::vector<double> steal_;
  std::size_t read_ = 0;
};

/// The key space of one run. Key i is fmix64(base + i): fmix64 is a
/// bijection, so distinct indices give distinct keys, and a key costs no
/// memory access to produce. base depends on the seed and is nonzero and
/// below 2^62, so base + i neither wraps nor reaches fmix64's fixed point 0.
struct KeySpace {
  std::uint64_t base;
  explicit KeySpace(std::uint64_t seed)
      : base((dlht::splitmix64(seed ^ 0x5eedull) >> 2) | 1) {}
  std::uint64_t key(std::uint64_t i) const { return dlht::fmix64(base + i); }
};

/// Every value the benchmark writes names its key: the top 32 bits are a
/// hash of the key, the low 32 bits a version chosen by the writer. Any
/// hit can therefore be checked without a reference table.
inline std::uint64_t value_of(std::uint64_t key, std::uint32_t version) {
  return (dlht::splitmix64(key) & 0xFFFFFFFF00000000ull) | version;
}
inline bool value_names_key(std::uint64_t value, std::uint64_t key) {
  return (value & 0xFFFFFFFF00000000ull) ==
         (dlht::splitmix64(key) & 0xFFFFFFFF00000000ull);
}
inline std::uint32_t version_of(std::uint64_t value) {
  return static_cast<std::uint32_t>(value);
}

/// Pin the calling thread to one CPU (modulo the CPUs online).
void pin_to_cpu(unsigned cpu);

/// Run fn(t) on n threads, thread t pinned to CPU t, and join them all.
template <class F>
void run_threads(unsigned n, F&& fn) {
  std::vector<std::thread> ts;
  ts.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    ts.emplace_back([&fn, t] {
      pin_to_cpu(t);
      fn(t);
    });
  }
  for (std::thread& th : ts) th.join();
}

/// Median of a non-empty list of samples.
double median(std::vector<double> v);

/// Peak (VmHWM) or current (VmRSS) resident memory of this process, MiB.
double rss_mib(const char* field);

unsigned online_cpus();
/// The L3 size the kernel reports for CPU 0, in KiB (0 when unknown).
std::uint64_t l3_kib();
/// The type of the filesystem holding `dir` ("tmpfs", "ext4", ...; the
/// magic number in hex when unnamed here; "missing" when statfs fails).
std::string fs_type(const std::string& dir);

/// What one run of one workload produced: the gated end-to-end metrics,
/// the workload's other end-to-end figures, the per-layer figures, the
/// configuration, and the correctness tally.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    bool has_count = false;
    std::uint64_t n = 0;
    std::uint64_t beyond = 0;
  };

  /// An end-to-end metric listed in BENCHMARK.json (every workload
  /// reports each of them).
  void gated(const std::string& name, double value, const std::string& unit);
  void gated(const std::string& name, const Histogram::Quantile& q,
             const std::string& unit, double scale);
  /// An end-to-end metric that only this workload has.
  void extra(const std::string& name, double value, const std::string& unit);
  void extra(const std::string& name, const Histogram::Quantile& q,
             const std::string& unit, double scale);
  /// A per-layer metric (must be one of kLayerMetrics).
  void layer(const std::string& name, double value);
  void layer(const std::string& name, const Histogram::Quantile& q,
             double scale);
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, double value);

  /// Count one checked output. `ok` false is a failure.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add_checks(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  /// A check that fails the run however many outputs passed (a lost key,
  /// a count mismatch). Printed with `what`.
  void invariant(bool ok, const std::string& what);

  /// Print every metric and the configuration, write them to `path` as
  /// JSON, and print the result line last.
  void emit(bool trace, const std::string& path) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool invariants_ok = true;

 private:
  std::vector<Metric> gated_, extra_, layer_;
  std::vector<std::pair<std::string, std::string>> config_;
};

/// The per-layer metrics every traced run reports, with units. A workload
/// that does not exercise a layer reports its metrics as 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

}  // namespace perfbench
