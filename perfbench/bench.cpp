// perfbench: one run of one workload of the DLHT benchmark.
//
//   perfbench --workload read_dram|churn_resize|kv_durable --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Prints the configuration and every metric with its unit, then, as the
// last line, the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer ones traced.
// DIR receives the run's report (config + all metrics) and, traced, its
// spans. Exit 2: bad arguments; 3: the WAL directory is not tmpfs;
// 4: set-up failed.
#include <sched.h>
#include <sys/mount.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

const char* probe_name(dlht::ProbeStrategy p) {
  switch (p) {
    case dlht::ProbeStrategy::kSwar: return "swar";
    case dlht::ProbeStrategy::kAvx2: return "avx2";
    case dlht::ProbeStrategy::kAvx512: return "avx512";
    case dlht::ProbeStrategy::kAuto: break;
  }
  return "auto";
}

}  // namespace

void record_table_stats(Report& r, const std::string& prefix,
                        const dlht::DLHT& t) {
  const dlht::DLHT::Stats s = t.stats();
  r.config(prefix + ".bins", static_cast<double>(s.bins));
  r.config(prefix + ".links_used", static_cast<double>(s.links_used));
  r.config(prefix + ".links_capacity", static_cast<double>(s.links_capacity));
  r.config(prefix + ".bins_reclaimed", static_cast<double>(s.bins_reclaimed));
  r.config(prefix + ".size", static_cast<double>(t.approx_size()));
  r.config(prefix + ".probe_strategy", probe_name(t.probe_strategy()));
}

void record_table_layers(Report& r, const dlht::DLHT& t, const KeySpace& ks,
                         std::uint64_t present, std::uint64_t absent_from,
                         std::uint64_t seed) {
  constexpr int kSample = 1 << 16;
  dlht::Xoshiro256 rng(dlht::splitmix64(seed ^ 0xca7d1da7e5ull));
  std::uint64_t hit = 0, miss = 0;
  for (int i = 0; i < kSample; ++i) {
    hit += t.debug_probe_candidates(ks.key(rng.next_below(present)));
    miss += t.debug_probe_candidates(
        ks.key(absent_from + rng.next_below(std::uint64_t{1} << 24)));
  }
  r.layer("probe.candidates_per_hit", static_cast<double>(hit) / kSample);
  r.layer("probe.candidates_per_miss", static_cast<double>(miss) / kSample);
  const dlht::DLHT::Stats s = t.stats();
  r.layer("dlht.links_per_bin", static_cast<double>(s.links_used) /
                                    static_cast<double>(s.bins));
  r.layer("dlht.index_bytes_per_key",
          static_cast<double>((s.bins + s.links_capacity) *
                              sizeof(dlht::Bucket)) /
              static_cast<double>(t.approx_size()));
  r.layer("dlht.bins_reclaimed", static_cast<double>(s.bins_reclaimed));
}

namespace {

bool write_file(const char* path, const std::string& s) {
  std::ofstream f(path);
  return static_cast<bool>(f << s);
}

/// Give the WAL directory a private tmpfs: a fresh mount namespace, so the
/// mount is seen by this process only and disappears with it, and nothing
/// is written outside the directory. Needs CAP_SYS_ADMIN, or failing that
/// an unprivileged user namespace. Must run before any thread starts.
void mount_private_tmpfs(const std::string& dir) {
  if (fs_type(dir) == "tmpfs") return;
  if (::unshare(CLONE_NEWNS) != 0) {
    const std::string uid = std::to_string(::getuid());
    const std::string gid = std::to_string(::getgid());
    if (::unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) return;
    write_file("/proc/self/setgroups", "deny");
    write_file("/proc/self/uid_map", "0 " + uid + " 1");
    write_file("/proc/self/gid_map", "0 " + gid + " 1");
  }
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return;
  }
  ::mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
          "size=2g,mode=0700");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read_dram|churn_resize|kv_durable "
               "--seed N --seconds S --trace 0|1 --out DIR\n");
  return kExitUsage;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out;
  RunArgs a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      a.trace = v == "1";
    } else if (k == "--out") {
      out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || out.empty()) return usage();
  if (workload != "read_dram" && workload != "churn_resize" &&
      workload != "kv_durable") {
    return usage();
  }
  // A socket whose peer has gone must fail its write, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  ::mkdir(out.c_str(), 0755);
  const std::string stem =
      out + "/" + workload + "-seed" + std::to_string(a.seed) + "-trace" +
      (a.trace ? "1" : "0");
  a.trace_path = stem + ".spans.csv";
  a.wal_dir = out + "/wal";
  a.socket = out + "/kv.sock";
  if (workload == "kv_durable") {
    ::mkdir(a.wal_dir.c_str(), 0700);
    mount_private_tmpfs(a.wal_dir);
  }

  Report r;
  r.config("workload", workload);
  r.config("seed", static_cast<double>(a.seed));
  r.config("seconds", a.seconds);
  r.config("trace", a.trace ? 1.0 : 0.0);
  r.config("nproc", online_cpus());
  r.config("l3_kib", static_cast<double>(l3_kib()));
  const Stopwatch run;
  const double steal0 = steal_seconds();
  int rc = 0;
  if (workload == "read_dram") {
    rc = run_read_dram(a, r);
  } else if (workload == "churn_resize") {
    rc = run_churn_resize(a, r);
  } else {
    rc = run_kv_durable(a, r);
  }
  if (rc != 0) return rc;
  const double stolen = steal_seconds() - steal0;
  r.config("host_steal_share", stolen / (run.seconds() + stolen));
  r.emit(a.trace, stem + ".json");
  return 0;
}
