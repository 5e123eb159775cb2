// Shared scaffolding for the per-figure benchmark binaries.
//
// Every bench prints paper-style rows:
//     <figure>, <series>, <x>, <value>, <unit>
// plus a human-readable header, and accepts a common set of flags:
//     --keys N           prepopulated keys        (default: env DLHT_BENCH_KEYS or 1M)
//     --threads-list a,b threads to sweep         (default: 1,2,4 capped at 4x hw)
//     --ms M             milliseconds per point   (default: 300)
//     --json PATH        additionally write a machine-readable summary
//                        ({fig, config, ops_per_sec, p50/p99_ns, rows}) to
//                        PATH when the binary exits — the perf-trajectory
//                        record scripts/bench_json.sh collects in CI
//     --probe ENGINE     probe engine for every table the bench builds:
//                        auto|swar|avx2|avx512 (default auto; also the
//                        DLHT_PROBE env knob — the flag wins). Requesting
//                        an engine this host cannot run is a hard error,
//                        never a silent fallback: mislabeled trajectory
//                        numbers are worse than no numbers. The resolved
//                        engine is recorded in the JSON config tag.
//     --counters         open per-thread perf counters (cycles, LLC/dTLB/
//                        node misses, task clock, faults) around every
//                        timed region and attach a counters{...} object to
//                        the matching trajectory row (also: DLHT_COUNTERS
//                        env knob). Hosts that forbid perf_event_open get
//                        zeroed values with "unavailable": true — the key
//                        is always present so CI can grep for it.
//     --map a,b,...      restrict a comparison bench to the named designs
//                        (also: DLHT_BENCH_MAPS env knob; the flag wins).
//                        Names: dlht clht growt folly dramhit mica cuckoo
//                        leapfrog locked rh mm. Unknown names refuse
//                        with exit 2 (same contract as --probe: a typo
//                        silently dropping a series mislabels the
//                        trajectory). Empty/unset = every design the
//                        binary hosts. The selection lands in the JSON
//                        config tag ("maps=..."), so filtered rows are
//                        never diffed against full-field rows.
// The defaults are sized for a small VM. DLHT_BENCH_SCALE picks a profile:
//     smoke    ctest-sized (16K keys, 25 ms points)
//     default  1M keys, 300 ms points (unset = this)
//     paper    the paper's configuration: 100M keys, 2 s points (fig19:
//              1M TATP subscribers / 10M Smallbank accounts). Before
//              allocating, paper-profile benches probe available memory
//              and refuse with a typed exit-2 message when the working
//              set cannot fit — a refusal is diagnosable, an OOM kill is
//              not. Explicit --keys/--ms (or DLHT_BENCH_KEYS/MS) override
//              the profile's populations; the profile name still lands in
//              the JSON config tag ("scale=..."), so bench_diff.py never
//              compares paper rows against smoke rows.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/perf_counters.hpp"
#include "common/topology.hpp"
#include "dlht/dlht.hpp"
#include "dlht/durability.hpp"
#include "workload/driver.hpp"

namespace dlht::bench {

/// Monotonic nanoseconds, for benches that bucket throughput over time.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Paper default geometry, shared by the figure benches and micro_ops:
/// bins ~ 2/3 of keys (67M bins for 100M keys), link buckets bins/8.
///
/// Two env knobs apply to every bench-constructed table:
///   DLHT_GROWTH_FACTOR   0 (adaptive 8/4/2 policy), 2, 4, 8 — shadow-table
///                        size multiplier (Options::growth_factor).
///   DLHT_ABLATION        comma list of features to disable: nofp
///                        (fingerprints), nolink (link chains), noinplace
///                        (in-place updates). Any other token refuses with
///                        exit 2; see ablations() below. The SWAR-only
///                        probe is DLHT_PROBE=swar.
///   DLHT_PROBE           probe engine (auto|swar|avx2|avx512); see
///                        requested_probe() below.
///   DLHT_NUMA            bucket/link-pool placement: first_touch
///                        (default), interleave, node:<id>; see
///                        apply_numa_env() below.
/// Overlay the DLHT_GROWTH_FACTOR / DLHT_ABLATION env knobs onto `o`.
/// dlht_options() applies this automatically; benches that build Options
/// by hand (fig07/fig08's growth tables, tab01's occupancy study) call it
/// so the knobs work everywhere REPRODUCING.md says they do.
/// Parse a probe-engine name, refusing loudly (exit 2) both unknown names
/// and engines this host cannot execute. Refusal beats the core's silent
/// degrade-to-SWAR here because a bench run that *labels* itself avx2 must
/// actually have run avx2 — the trajectory JSON is only comparable if the
/// config tag tells the truth.
inline ProbeStrategy parse_probe_or_die(const char* s, const char* origin) {
  ProbeStrategy req;
  if (std::strcmp(s, "auto") == 0) {
    req = ProbeStrategy::kAuto;
  } else if (std::strcmp(s, "swar") == 0) {
    req = ProbeStrategy::kSwar;
  } else if (std::strcmp(s, "avx2") == 0) {
    req = ProbeStrategy::kAvx2;
  } else if (std::strcmp(s, "avx512") == 0) {
    req = ProbeStrategy::kAvx512;
  } else {
    std::fprintf(stderr,
                 "bench: unknown probe engine '%s' (from %s); expected "
                 "auto|swar|avx2|avx512\n",
                 s, origin);
    std::exit(2);
  }
  if (!probe::host_supports(req)) {
    std::fprintf(stderr,
                 "bench: probe engine '%s' requested via %s, but this host "
                 "cannot execute it — refusing to run (numbers would be "
                 "silently mislabeled). Use '--probe auto' for runtime "
                 "dispatch.\n",
                 s, origin);
    std::exit(2);
  }
  return req;
}

/// The probe engine every bench-built table requests: the --probe flag
/// (parse_args) wins over the DLHT_PROBE env knob; default kAuto.
inline ProbeStrategy& requested_probe() {
  static ProbeStrategy s = [] {
    const char* env = std::getenv("DLHT_PROBE");
    return env != nullptr ? parse_probe_or_die(env, "DLHT_PROBE")
                          : ProbeStrategy::kAuto;
  }();
  return s;
}

/// Parse a DLHT_NUMA placement spec onto `o`, refusing unknown specs with
/// exit 2 (same contract as parse_probe_or_die: a run whose placement knob
/// was silently ignored produces mislabeled numbers). Valid specs:
/// first_touch | interleave | node:<id>. Whether the policy can actually
/// bind on this host is the table's business — it degrades gracefully and
/// counts stats().numa_fallback — but a *malformed* spec is operator error.
inline void apply_numa_env(Options& o) {
  const char* env = std::getenv("DLHT_NUMA");
  if (env == nullptr) return;
  if (std::strcmp(env, "first_touch") == 0) {
    o.numa_policy = NumaPolicy::kFirstTouch;
  } else if (std::strcmp(env, "interleave") == 0) {
    o.numa_policy = NumaPolicy::kInterleave;
  } else if (std::strncmp(env, "node:", 5) == 0) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(env + 5, &end, 10);
    if (end == env + 5 || *end != '\0') {
      std::fprintf(stderr,
                   "bench: bad DLHT_NUMA node id in '%s'; expected "
                   "node:<integer>\n",
                   env);
      std::exit(2);
    }
    o.numa_policy = NumaPolicy::kNodeLocal;
    o.numa_node = static_cast<unsigned>(n);
  } else {
    std::fprintf(stderr,
                 "bench: unknown DLHT_NUMA policy '%s'; expected "
                 "first_touch|interleave|node:<id>\n",
                 env);
    std::exit(2);
  }
}

/// Split a comma list into its non-empty items.
inline std::vector<std::string> split_list(const char* s) {
  std::vector<std::string> out;
  while (s != nullptr && *s != '\0') {
    const char* comma = std::strchr(s, ',');
    std::string item =
        comma != nullptr ? std::string(s, comma) : std::string(s);
    if (!item.empty()) out.push_back(std::move(item));
    if (comma == nullptr) break;
    s = comma + 1;
  }
  return out;
}

/// The DLHT_ABLATION tokens, parsed once. Only nofp, nolink and noinplace
/// are accepted; anything else refuses with exit 2 (the
/// parse_probe_or_die contract: a misspelled ablation would otherwise run
/// the full design under an ablation label).
struct Ablations {
  bool nofp = false;
  bool nolink = false;
  bool noinplace = false;
};

inline const Ablations& ablations() {
  static const Ablations a = [] {
    Ablations r;
    for (const std::string& t : split_list(std::getenv("DLHT_ABLATION"))) {
      if (t == "nofp") {
        r.nofp = true;
      } else if (t == "nolink") {
        r.nolink = true;
      } else if (t == "noinplace") {
        r.noinplace = true;
      } else {
        std::fprintf(stderr,
                     "bench: unknown DLHT_ABLATION token '%s'; expected a "
                     "comma list of: nofp nolink noinplace\n",
                     t.c_str());
        std::exit(2);
      }
    }
    return r;
  }();
  return a;
}

inline Options apply_env_knobs(Options o) {
  o.probe_strategy = requested_probe();
  apply_numa_env(o);
  if (const char* env = std::getenv("DLHT_GROWTH_FACTOR")) {
    char* end = nullptr;
    const auto f = std::strtoull(env, &end, 10);
    if (end != env) o.growth_factor = f;  // non-numeric: keep the default
  }
  if (const char* env = std::getenv("DLHT_MIN_LOAD_FACTOR")) {
    char* end = nullptr;
    const double f = std::strtod(env, &end);
    if (end != env && f >= 0.0) o.min_load_factor = f;
  }
  if (ablations().nofp) o.ablation.fingerprints = false;
  if (ablations().nolink) o.ablation.link_chains = false;
  if (ablations().noinplace) o.ablation.inplace_updates = false;
  return o;
}

/// Durable-tier directory for benches that persist (fig_recovery):
/// DLHT_WAL_DIR, with a per-bench default under /tmp.
inline std::string wal_dir_or(const char* fallback) {
  if (const char* env = std::getenv("DLHT_WAL_DIR")) return env;
  return fallback;
}

/// Durable-tier options for `dir` with the group-commit env knobs applied:
/// DLHT_WAL_FSYNC_OPS (records per shard-local fsync) and
/// DLHT_WAL_COMMIT_US (committer interval, 0 = no committer thread).
inline DurabilityOptions durability_options(std::string dir) {
  DurabilityOptions d;
  d.dir = std::move(dir);
  if (const char* env = std::getenv("DLHT_WAL_FSYNC_OPS")) {
    char* end = nullptr;
    const auto f = std::strtoull(env, &end, 10);
    if (end != env) d.wal_fsync_interval_ops = f;
  }
  if (const char* env = std::getenv("DLHT_WAL_COMMIT_US")) {
    char* end = nullptr;
    const auto f = std::strtoull(env, &end, 10);
    if (end != env) d.wal_group_commit_us = static_cast<std::uint32_t>(f);
  }
  return d;
}

// --------------------------------------------------------- scale profiles
//
// DLHT_BENCH_SCALE picks the population/duration profile (see the header
// comment). The profile only seeds Args defaults — explicit --keys/--ms
// and the DLHT_BENCH_KEYS/MS env knobs still win — but its name is always
// recorded in the JSON config tag, so trajectory points from different
// profiles are never compared (bench_diff.py skips on config mismatch).

enum class BenchScale { kSmoke, kDefault, kPaper };

inline BenchScale parse_scale_or_die(const char* s, const char* origin) {
  if (std::strcmp(s, "smoke") == 0) return BenchScale::kSmoke;
  if (std::strcmp(s, "default") == 0) return BenchScale::kDefault;
  if (std::strcmp(s, "paper") == 0) return BenchScale::kPaper;
  std::fprintf(stderr,
               "bench: unknown scale profile '%s' (from %s); expected "
               "smoke|default|paper\n",
               s, origin);
  std::exit(2);
}

inline BenchScale bench_scale() {
  static BenchScale s = [] {
    const char* env = std::getenv("DLHT_BENCH_SCALE");
    return env != nullptr ? parse_scale_or_die(env, "DLHT_BENCH_SCALE")
                          : BenchScale::kDefault;
  }();
  return s;
}

inline const char* scale_name(BenchScale s) {
  switch (s) {
    case BenchScale::kSmoke: return "smoke";
    case BenchScale::kPaper: return "paper";
    default: return "default";
  }
}

inline bool paper_scale() { return bench_scale() == BenchScale::kPaper; }

/// Paper-profile OLTP populations (§5: 1M TATP subscribers, 10M Smallbank
/// accounts). At other scales fig19 derives them from --keys.
inline constexpr std::uint64_t kPaperKeys = 100'000'000;
inline constexpr std::uint64_t kPaperSubscribers = 1'000'000;
inline constexpr std::uint64_t kPaperAccounts = 10'000'000;

/// Bytes of memory a bench may plan to touch right now. /proc/meminfo's
/// MemAvailable is the kernel's own "allocatable without swapping"
/// estimate; hosts without it fall back to free physical pages. The
/// DLHT_MEM_AVAILABLE_MB override exists so the refusal path is testable
/// deterministically on any machine (see scale_refuse_oom in CMakeLists).
inline std::uint64_t available_memory_bytes() {
  if (const char* env = std::getenv("DLHT_MEM_AVAILABLE_MB")) {
    return std::strtoull(env, nullptr, 10) * (std::uint64_t{1} << 20);
  }
  if (std::FILE* f = std::fopen("/proc/meminfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      std::uint64_t kib = 0;
      if (std::sscanf(line, "MemAvailable: %llu kB",
                      reinterpret_cast<unsigned long long*>(&kib)) == 1) {
        std::fclose(f);
        return kib * 1024;
      }
    }
    std::fclose(f);
  }
  const long pages = ::sysconf(_SC_AVPHYS_PAGES);
  const long psize = ::sysconf(_SC_PAGESIZE);
  if (pages > 0 && psize > 0) {
    return static_cast<std::uint64_t>(pages) *
           static_cast<std::uint64_t>(psize);
  }
  return 0;  // unknown: the guard will refuse rather than guess
}

/// RSS guardrail for the paper profile: refuse (typed message, exit 2)
/// when the bench's estimated peak working set does not fit in available
/// memory. A refusal names the shortfall and is greppable in CI logs; the
/// alternative — the OOM killer SIGKILLing mid-populate — looks like an
/// infrastructure flake and poisons the trajectory. No-op outside the
/// paper profile: small-scale runs never allocated enough to need it.
inline void require_memory_or_die(const char* fig,
                                  std::uint64_t bytes_needed) {
  if (!paper_scale()) return;
  const std::uint64_t avail = available_memory_bytes();
  // 10% headroom: the estimate covers the tables, not the allocator's
  // slop, the key streams, or the rest of the process.
  const std::uint64_t needed = bytes_needed + bytes_needed / 10;
  if (avail >= needed) return;
  std::fprintf(stderr,
               "bench: DLHT_BENCH_SCALE=paper needs ~%llu MiB for %s but "
               "only ~%llu MiB are available — refusing to run (exit 2) "
               "instead of being OOM-killed. Use a bigger box, or override "
               "--keys to shrink the population.\n",
               static_cast<unsigned long long>(needed >> 20), fig,
               static_cast<unsigned long long>(avail >> 20));
  std::exit(2);
}

inline Options dlht_options(std::uint64_t keys) {
  Options o;
  o.initial_bins = static_cast<std::size_t>(keys * 2 / 3 + 64);
  o.link_ratio = 0.125;
  return apply_env_knobs(o);
}

/// Every design name --map / DLHT_BENCH_MAPS accepts. One list for every
/// comparison bench: a name a binary does not host simply selects nothing
/// there, but a *misspelled* name is refused everywhere (exit 2).
inline constexpr const char* kMapNames[] = {
    "dlht",   "clht",     "growt",  "folly", "dramhit", "mica",
    "cuckoo", "leapfrog", "locked", "rh",    "mm",
};

inline std::vector<std::string> parse_map_list_or_die(const char* s,
                                                      const char* origin) {
  std::vector<std::string> out = split_list(s);
  for (const std::string& name : out) {
    bool known = false;
    for (const char* n : kMapNames) known = known || name == n;
    if (!known) {
      std::fprintf(stderr,
                   "bench: unknown map '%s' (from %s); expected a comma "
                   "list of: dlht clht growt folly dramhit mica cuckoo "
                   "leapfrog locked rh mm\n",
                   name.c_str(), origin);
      std::exit(2);
    }
  }
  return out;
}

struct Args {
  std::uint64_t keys = 1u << 20;
  std::vector<int> threads_list;
  double ms = 300;
  bool counters = false;
  std::vector<std::string> maps;  // empty = every design the bench hosts

  double seconds() const { return ms / 1000.0; }

  /// Should this bench run the series block for design `name`?
  bool map_enabled(const char* name) const {
    if (maps.empty()) return true;
    for (const std::string& m : maps) {
      if (m == name) return true;
    }
    return false;
  }
};

/// True when --counters / DLHT_COUNTERS asked for per-region perf counters.
/// Mutable so parse_args can set it from the flag.
inline bool& counters_enabled() {
  static bool b = std::getenv("DLHT_COUNTERS") != nullptr;
  return b;
}

/// The counters stash: run_tput (and any bench timing its own region)
/// deposits the merged totals here; the *next* json_note_row attaches them
/// to its row object and clears the stash, so each trajectory row carries
/// the counters of the region it reports.
inline std::string& pending_counters_json() {
  static std::string s;
  return s;
}

inline void note_counters(const CounterTotals& t) {
  if (!counters_enabled()) return;
  pending_counters_json() = t.to_json();
  std::string line = "# counters:";
  for (unsigned i = 0; i < kNumCounters; ++i) {
    line += ' ';
    line += counter_name(i);
    line += '=';
    line += t.is_available(i) ? std::to_string(t.v[i]) : std::string("n/a");
  }
  std::printf("%s\n", line.c_str());
}

// ------------------------------------------------------------- JSON sink
//
// `--json PATH` (or DLHT_BENCH_JSON=PATH) records every print_row() call
// and writes one JSON object per run at exit:
//   {"fig": ..., "config": "keys=... ms=... threads=...",
//    "ops_per_sec": <max throughput row, ops/s>,
//    "p50_ns": <last p50 row or null>, "p99_ns": <last p99 row or null>,
//    "rows": [{"series","x","value","unit"}, ...]}
// ops_per_sec is the best M*/s row (Mreq/s, Minserts/s, Mtxn/s, ...)
// scaled to ops/s — the single scalar the perf-trajectory CI tracks;
// p50/p99 come from "ns" rows whose series names the percentile (fig15's
// Get/p99 style). Everything else rides along in rows[] for offline diffs.

struct JsonSink {
  std::string path;    // empty = disabled
  std::string fig;
  std::string config;
  double ops_per_sec = 0.0;
  double p50_ns = -1.0;  // <0 = never seen, serialized as null
  double p99_ns = -1.0;
  std::string rows;  // pre-serialized, comma-joined row objects
};

inline JsonSink& json_sink() {
  static JsonSink s;
  return s;
}

inline std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // rows never need them
    out.push_back(c);
  }
  return out;
}

/// Serialize the sink to the JSON document --json promises.
inline std::string render_json() {
  JsonSink& s = json_sink();
  std::string out = "{\"fig\": \"" + json_escape(s.fig) + "\", \"config\": \"" +
                    json_escape(s.config) + "\",\n";
  char num[64];
  std::snprintf(num, sizeof num, " \"ops_per_sec\": %.1f,\n", s.ops_per_sec);
  out += num;
  if (s.p50_ns >= 0) {
    std::snprintf(num, sizeof num, " \"p50_ns\": %.1f,\n", s.p50_ns);
    out += num;
  } else {
    out += " \"p50_ns\": null,\n";
  }
  if (s.p99_ns >= 0) {
    std::snprintf(num, sizeof num, " \"p99_ns\": %.1f,\n", s.p99_ns);
    out += num;
  } else {
    out += " \"p99_ns\": null,\n";
  }
  out += " \"rows\": [" + s.rows + "]}\n";
  return out;
}

inline void flush_json() {
  JsonSink& s = json_sink();
  if (s.path.empty()) return;
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write --json file %s\n",
                 s.path.c_str());
    return;
  }
  const std::string doc = render_json();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

// The SIGTERM/SIGINT flush may not call fopen/fprintf/malloc (a signal
// landing while a bench thread holds the stdio or heap lock would
// deadlock, hanging CI instead of dying). So the sink re-renders the full
// document after every row *in normal context* into one of two fixed
// buffers and publishes {buffer, length} as a single atomic word; the
// handler only open(2)/write(2)/close(2)s the published snapshot — all
// async-signal-safe — then re-raises. A row arriving concurrently with
// the handler can at worst publish the older buffer's torn bytes, which
// costs one trailing row, never a hang.

inline constexpr std::size_t kJsonSnapshotCap = std::size_t{1} << 18;

struct JsonSignalState {
  char path[512] = {};  // copied at install; std::string is off-limits in a handler
  char buf[2][kJsonSnapshotCap];
  std::atomic<std::uint64_t> published{0};  // (buffer index << 32) | length
};

inline JsonSignalState& json_signal_state() {
  static JsonSignalState st;
  return st;
}

/// Re-render and publish the signal-handler snapshot (normal context only).
/// A document over the fixed capacity keeps the last snapshot that fit.
inline void json_update_signal_snapshot() {
  JsonSignalState& st = json_signal_state();
  const std::string doc = render_json();
  if (doc.size() > kJsonSnapshotCap) return;
  const std::uint64_t prev = st.published.load(std::memory_order_relaxed);
  const std::uint32_t idx = (static_cast<std::uint32_t>(prev >> 32) ^ 1u) & 1u;
  std::memcpy(st.buf[idx], doc.data(), doc.size());
  st.published.store((static_cast<std::uint64_t>(idx) << 32) | doc.size(),
                     std::memory_order_release);
}

/// SIGTERM/SIGINT handler installed by parse_args when the sink is armed:
/// write the pre-rendered snapshot, then die by the original signal.
inline void flush_json_and_reraise(int sig) {
  JsonSignalState& st = json_signal_state();
  const std::uint64_t pub = st.published.load(std::memory_order_acquire);
  const std::size_t len = static_cast<std::uint32_t>(pub);
  if (len != 0 && st.path[0] != '\0') {
    const int fd = ::open(st.path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const char* p = st.buf[(pub >> 32) & 1];
      std::size_t off = 0;
      while (off < len) {
        const ssize_t w = ::write(fd, p + off, len - off);
        if (w <= 0) break;
        off += static_cast<std::size_t>(w);
      }
      ::close(fd);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

inline void json_note_row(const std::string& series, double x, double value,
                          const char* unit) {
  JsonSink& s = json_sink();
  if (s.path.empty()) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s{\"series\": \"%s\", \"x\": %g, \"value\": %g, "
                "\"unit\": \"%s\"",
                s.rows.empty() ? "" : ",\n          ",
                json_escape(series).c_str(), x, value,
                json_escape(unit).c_str());
  s.rows += buf;
  std::string& pc = pending_counters_json();
  if (!pc.empty()) {
    s.rows += ", \"counters\": ";
    s.rows += pc;
    pc.clear();
  }
  s.rows += "}";
  const std::size_t ul = std::strlen(unit);
  if (unit[0] == 'M' && ul >= 2 && std::strcmp(unit + ul - 2, "/s") == 0) {
    const double ops = value * 1e6;
    if (ops > s.ops_per_sec) s.ops_per_sec = ops;
  }
  if (std::strcmp(unit, "ns") == 0) {
    if (series.find("p50") != std::string::npos) s.p50_ns = value;
    if (series.find("p99") != std::string::npos) s.p99_ns = value;
  }
  json_update_signal_snapshot();
}

/// Resolve a --json / DLHT_BENCH_JSON spec to a concrete file path. A spec
/// naming a directory (trailing '/' or an existing dir) gets a per-binary
/// default filename, BENCH_<basename(argv0)>.json — so multi-binary runs
/// (the KV server sweep starts a server and a client that both link this
/// sink) can share one DLHT_BENCH_JSON=dir/ without clobbering each other,
/// which a single shared literal path silently did.
inline std::string resolve_json_path(const std::string& spec,
                                     const char* argv0) {
  if (spec.empty()) return spec;
  bool is_dir = spec.back() == '/';
  if (!is_dir) {
    struct stat st{};
    is_dir = ::stat(spec.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
  }
  if (!is_dir) return spec;
  const char* base = argv0 != nullptr ? std::strrchr(argv0, '/') : nullptr;
  base = base != nullptr ? base + 1 : (argv0 != nullptr ? argv0 : "bench");
  std::string out = spec;
  if (out.back() != '/') out.push_back('/');
  out += "BENCH_";
  out += base;
  out += ".json";
  return out;
}

inline std::vector<int> default_threads() {
  const int hw = static_cast<int>(hardware_threads());
  // Sweep up to 4x the hardware threads (oversubscription shows the
  // batching cliff), with 8 as the floor so small VMs still sweep.
  const int cap = 4 * hw > 8 ? 4 * hw : 8;
  std::vector<int> ts;
  for (int t = 1; t <= cap; t *= 2) ts.push_back(t);
  return ts;
}

inline std::vector<int> parse_thread_list(const char* s) {
  std::vector<int> ts;
  while (s != nullptr && *s != '\0') {
    const int t = std::atoi(s);
    if (t > 0) ts.push_back(t);  // drop typos instead of running 0 threads
    const char* comma = std::strchr(s, ',');
    if (comma == nullptr) break;
    s = comma + 1;
  }
  return ts;
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  // Scale profile first: it only seeds the defaults, so the explicit
  // knobs below (env, then flags) keep their precedence.
  switch (bench_scale()) {
    case BenchScale::kSmoke:
      a.keys = 16384;
      a.ms = 25;
      break;
    case BenchScale::kPaper:
      a.keys = kPaperKeys;
      a.ms = 2000;
      break;
    case BenchScale::kDefault:
      break;
  }
  if (const char* env = std::getenv("DLHT_BENCH_KEYS")) {
    a.keys = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("DLHT_BENCH_MS")) {
    a.ms = std::strtod(env, nullptr);
  }
  if (const char* env = std::getenv("DLHT_BENCH_MAPS")) {
    a.maps = parse_map_list_or_die(env, "DLHT_BENCH_MAPS");
  }
  a.threads_list = default_threads();
  if (const char* env = std::getenv("DLHT_BENCH_THREADS")) {
    auto ts = parse_thread_list(env);
    if (!ts.empty()) a.threads_list = std::move(ts);
  }
  if (const char* env = std::getenv("DLHT_BENCH_JSON")) {
    json_sink().path = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--keys") {
      a.keys = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--ms") {
      a.ms = std::strtod(next(), nullptr);
    } else if (arg == "--json") {
      json_sink().path = next();
    } else if (arg == "--threads-list") {
      auto ts = parse_thread_list(next());
      if (!ts.empty()) a.threads_list = std::move(ts);  // never leave it empty
    } else if (arg == "--probe") {
      requested_probe() = parse_probe_or_die(next(), "--probe");
    } else if (arg == "--map") {
      a.maps = parse_map_list_or_die(next(), "--map");
    } else if (arg == "--counters") {
      a.counters = true;
      counters_enabled() = true;
    }
  }
  a.counters = counters_enabled();  // env knob and flag agree either way
  if (!json_sink().path.empty()) {
    json_sink().path =
        resolve_json_path(json_sink().path, argc > 0 ? argv[0] : nullptr);
    std::string cfg = "keys=" + std::to_string(a.keys) +
                      " ms=" + std::to_string(a.ms) + " threads=";
    for (std::size_t i = 0; i < a.threads_list.size(); ++i) {
      if (i != 0) cfg += ',';
      cfg += std::to_string(a.threads_list[i]);
    }
    // Tag the trajectory point with the probe engine the tables will
    // actually dispatch (never "auto"): bench_diff.py skips comparisons
    // whose configs differ, so points from different engines are never
    // silently compared against each other.
    cfg += " probe=";
    cfg += probe::name(DLHT::resolved_probe(apply_env_knobs(Options{})));
    // ...and with the scale profile and any --map selection: paper-scale
    // rows must never be diffed against smoke rows, and a filtered field
    // changes what ops_per_sec (max over series) even means.
    cfg += " scale=";
    cfg += scale_name(bench_scale());
    if (!a.maps.empty()) {
      cfg += " maps=";
      for (std::size_t i = 0; i < a.maps.size(); ++i) {
        if (i != 0) cfg += ',';
        cfg += a.maps[i];
      }
    }
    json_sink().config = std::move(cfg);
    std::atexit(flush_json);  // written however the bench exits normally
    // A killed run (CI cancellation, the kill-and-recover harness, ^C)
    // still emits its partial trajectory: the handler writes the snapshot
    // pre-rendered by every print_row (see json_update_signal_snapshot —
    // no stdio/malloc in the handler), then re-raises with the default
    // action so the exit status stays "killed by signal".
    JsonSignalState& st = json_signal_state();
    const std::string& path = json_sink().path;
    if (path.size() < sizeof st.path) {
      std::memcpy(st.path, path.c_str(), path.size() + 1);
      json_update_signal_snapshot();  // valid (row-less) doc from instant 0
      std::signal(SIGTERM, flush_json_and_reraise);
      std::signal(SIGINT, flush_json_and_reraise);
    }
  }
  return a;
}

/// One-line, self-labeling record of the dispatched probe engine and what
/// the host could run — printed by the benches whose numbers depend on it.
inline void print_probe_engine() {
  std::printf("# probe engine: %s (host supports: swar%s%s)\n",
              probe::name(DLHT::resolved_probe(apply_env_knobs(Options{}))),
              probe::host_supports(ProbeStrategy::kAvx2) ? ",avx2" : "",
              probe::host_supports(ProbeStrategy::kAvx512) ? ",avx512" : "");
}

inline void print_header(const char* figure, const char* description) {
  json_sink().fig = figure;
  if (!json_sink().path.empty()) json_update_signal_snapshot();
  std::printf("# %s — %s\n", figure, description);
  std::printf("# machine: %u hardware threads\n", hardware_threads());
  std::printf("%-18s %-26s %12s %14s  %s\n", "figure", "series", "x", "value",
              "unit");
}

inline void print_row(const char* figure, const std::string& series, double x,
                      double value, const char* unit) {
  std::printf("%-18s %-26s %12g %14.3f  %s\n", figure, series.c_str(), x,
              value, unit);
  std::fflush(stdout);
  json_note_row(series, x, value, unit);
}

/// Shape assertion: prints PASS/WARN so bench output doubles as a smoke
/// check that the paper's qualitative claim holds on this machine.
inline void check_shape(const char* claim, bool holds) {
  std::printf("# shape %-4s: %s\n", holds ? "PASS" : "WARN", claim);
}

/// Paired measurement for a shape check, on the calling thread. A
/// shared-CPU host has +-15% interference noise at the tens-of-milliseconds
/// scale, so back-to-back timed trials compare different interference eras
/// and the ratio under test moves by more than the effect. Instead the
/// workers take turns in ~2 ms slices across the whole window (after one
/// untimed warm-up round): a noise burst lands on every side nearly
/// equally. Each call of a worker does some ops and returns how many; the
/// clock is read once per 8 calls, so timing overhead stays equal and
/// small for every side. Returns Mops/s per worker: total ops / total
/// in-slice time, over at least 0.1 s of slices per worker.
inline std::vector<double> interleaved_mops(
    std::vector<std::function<std::size_t()>>& workers, double seconds_each) {
  using clk = std::chrono::steady_clock;
  constexpr double kSliceSecs = 0.002;
  const int rounds = std::max(
      1, static_cast<int>(std::max(seconds_each, 0.1) / kSliceSecs));
  std::vector<double> ops(workers.size(), 0.0);
  std::vector<double> secs(workers.size(), 0.0);
  for (int r = -1; r < rounds; ++r) {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      std::size_t done = 0;
      const auto t0 = clk::now();
      auto t1 = t0;
      do {
        for (int k = 0; k < 8; ++k) done += workers[i]();
        t1 = clk::now();
      } while (std::chrono::duration<double>(t1 - t0).count() < kSliceSecs);
      if (r < 0) continue;
      ops[i] += static_cast<double>(done);
      secs[i] += std::chrono::duration<double>(t1 - t0).count();
    }
  }
  std::vector<double> mops(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    mops[i] = ops[i] / secs[i] / 1e6;
  }
  return mops;
}

}  // namespace dlht::bench
