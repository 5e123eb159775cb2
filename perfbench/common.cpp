#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <pthread.h>
#include <sys/vfs.h>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

const std::vector<LayerMetric> kLayerMetrics = {
    {"probe.candidates_per_hit", "count"},
    {"probe.candidates_per_miss", "count"},
    {"dlht.get_batch_ns_per_key", "ns"},
    {"dlht.get_ns", "ns"},
    {"dlht.links_per_bin", "ratio"},
    {"dlht.execute_batch_ns_per_req", "ns"},
    {"dlht.insert_ns", "ns"},
    {"dlht.put_ns", "ns"},
    {"dlht.erase_ns", "ns"},
    {"dlht.slow_writes", "count"},
    {"dlht.resizes", "count"},
    {"dlht.shrinks", "count"},
    {"dlht.index_bytes_per_key", "B"},
    {"dlht.bins_reclaimed", "count"},
    {"epoch.advances", "count"},
    {"epoch.reclaimed_mib", "MiB"},
    {"durability.records_per_fsync", "count"},
    {"durability.wal_bytes_per_write", "B"},
    {"workload.populate_s", "s"},
    {"durability.open_s", "s"},
    {"server.start_s", "s"},
    {"durability.recover_s", "s"},
    {"server.ops_per_flush", "count"},
    {"server.flush_busy_frac", "ratio"},
    {"server.flush_p50_us", "us"},
    {"server.flush_p99_us", "us"},
    {"client.rtt_p50_us", "us"},
    {"client.rtt_p99_us", "us"},
    {"client.sync_rtt_p50_us", "us"},
    {"client.backlog_max", "count"},
    {"client.send_lag_p99_us", "us"},
    {"bench.self_ns_per_op", "ns"},
    {"bench.trace_overhead_frac", "ratio"},
};

void pin_to_cpu(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % online_cpus(), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double rss_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double steal_seconds() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (unsigned long long& x : v) in >> x;
  if (!in || cpu != "cpu") return 0;
  static const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(v[7]) / hz / online_cpus();
}

void sleep_until_ns(std::uint64_t t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::uint64_t l3_kib() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s)) return 0;
  std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  if (!s.empty() && s.back() == 'M') v *= 1024;
  return v;
}

std::string fs_type(const std::string& dir) {
  struct statfs sf;
  if (::statfs(dir.c_str(), &sf) != 0) return "missing";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(sf.f_type));
  return buf;
}

namespace {

Report::Metric make(const std::string& name, double value,
                    const std::string& unit) {
  Report::Metric m;
  m.name = name;
  m.value = std::isfinite(value) ? value : 0.0;
  m.unit = unit;
  return m;
}

Report::Metric make(const std::string& name, const Histogram::Quantile& q,
                    const std::string& unit, double scale) {
  Report::Metric m = make(name, q.value * scale, unit);
  m.has_count = true;
  m.n = q.n;
  m.beyond = q.beyond;
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_metric(const char* kind, const Report::Metric& m) {
  std::printf("%-6s %-34s %14.6f %-7s", kind, m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.has_count) {
    std::printf(" (n=%llu, %llu beyond)%s",
                static_cast<unsigned long long>(m.n),
                static_cast<unsigned long long>(m.beyond),
                m.beyond < 10 ? " THIN" : "");
  }
  std::printf("\n");
}

std::string metrics_json(const std::vector<Report::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit);
    if (ms[i].has_count) {
      out += ", \"n\": " + std::to_string(ms[i].n) +
             ", \"beyond\": " + std::to_string(ms[i].beyond);
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace

void Report::gated(const std::string& name, double value,
                   const std::string& unit) {
  gated_.push_back(make(name, value, unit));
}
void Report::gated(const std::string& name, const Histogram::Quantile& q,
                   const std::string& unit, double scale) {
  gated_.push_back(make(name, q, unit, scale));
}
void Report::extra(const std::string& name, double value,
                   const std::string& unit) {
  extra_.push_back(make(name, value, unit));
}
void Report::extra(const std::string& name, const Histogram::Quantile& q,
                   const std::string& unit, double scale) {
  extra_.push_back(make(name, q, unit, scale));
}

void Report::layer(const std::string& name, double value) {
  for (const LayerMetric& lm : kLayerMetrics) {
    if (name == lm.name) {
      layer_.push_back(make(name, value, lm.unit));
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
  std::abort();
}
void Report::layer(const std::string& name, const Histogram::Quantile& q,
                   double scale) {
  layer(name, q.value * scale);
  layer_.back().has_count = true;
  layer_.back().n = q.n;
  layer_.back().beyond = q.beyond;
}

void Report::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, json_string(value));
}
void Report::config(const std::string& key, double value) {
  config_.emplace_back(key, json_number(value));
}

void Report::invariant(bool ok, const std::string& what) {
  check(ok);
  if (!ok) {
    invariants_ok = false;
    std::printf("FAILED check: %s\n", what.c_str());
  }
}

void Report::emit(bool trace, const std::string& path) const {
  for (const auto& [k, v] : config_) {
    std::printf("config %-32s %s\n", k.c_str(), v.c_str());
  }
  for (const Metric& m : gated_) print_metric("e2e", m);
  for (const Metric& m : extra_) print_metric("e2e+", m);
  // Layers the workload did not exercise read 0.
  std::vector<Metric> layers;
  if (trace) {
    for (const LayerMetric& lm : kLayerMetrics) {
      Metric m = make(lm.name, 0.0, lm.unit);
      for (const Metric& got : layer_) {
        if (got.name == lm.name) m = got;
      }
      layers.push_back(m);
      print_metric("layer", m);
    }
  }
  const bool correct = failed == 0 && invariants_ok && attempted > 0;
  std::printf("checks attempted=%llu failed=%llu fail_ratio=%.9g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              fail_ratio(failed, attempted));

  std::string cfg = "{";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i != 0) cfg += ", ";
    cfg += json_string(config_[i].first) + ": " + config_[i].second;
  }
  cfg += "}";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"config\": %s, \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"end_to_end\": %s, \"workload_only\": "
                 "%s, \"per_layer\": %s}\n",
                 cfg.c_str(), correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed),
                 metrics_json(gated_).c_str(), metrics_json(extra_).c_str(),
                 metrics_json(layers).c_str());
    std::fclose(f);
  }

  // The result line: value and unit only.
  const std::vector<Metric>& out = trace ? layers : gated_;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != 0) line += ", ";
    line += json_string(out[i].name) + ": {\"value\": " +
            json_number(out[i].value) + ", \"unit\": " +
            json_string(out[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
