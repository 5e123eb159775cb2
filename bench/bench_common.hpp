// Shared scaffolding for the per-figure benchmark binaries.
//
// Every bench prints paper-style rows:
//     <figure>, <series>, <x>, <value>, <unit>
// plus a human-readable header, and accepts a common set of flags:
//     --keys N           prepopulated keys        (default: 1M)
//     --threads-list a,b threads to sweep         (default: 1,2,4,... up to
//                                                  max(4x hw, 8))
//     --ms M             milliseconds per point   (default: 300)
//     --json PATH        additionally write a machine-readable summary
//                        ({fig, config, ops_per_sec, p50/p99_ns, rows}) to
//                        PATH when the binary exits — the perf-trajectory
//                        record scripts/bench_json.sh collects in CI
//     --probe ENGINE     probe engine for every table the bench builds:
//                        auto|swar|avx2|avx512 (default auto). Requesting
//                        an engine this host cannot run is a hard error,
//                        never a silent fallback: mislabeled trajectory
//                        numbers are worse than no numbers. The resolved
//                        engine is recorded in the JSON config tag.
//     --counters         open per-thread perf counters (cycles, LLC/dTLB/
//                        node misses, task clock, faults) around every
//                        timed region and attach a counters{...} object to
//                        the matching trajectory row. Hosts that forbid
//                        perf_event_open get zeroed values with
//                        "unavailable": true — the key is always present so
//                        CI can grep for it.
//     --map a,b,...      restrict a comparison bench to the named designs
//                        (the kDesigns registry below). Unknown names refuse
//                        with exit 2 (same contract as --probe: a typo
//                        silently dropping a series mislabels the
//                        trajectory). Unset = every design the binary
//                        hosts. The selection lands in the JSON config tag
//                        ("maps=..."), so filtered rows are never diffed
//                        against full-field rows.
// A --keys, --ms or --threads-list value that does not parse in full, or
// a count below 1, refuses with exit 2 as well: a typo read as 0 would run
// a 0-key table or a 0 ms point under the label of the one asked for. So
// does any other argument: a misspelled flag would run the defaults under
// the label of the run asked for.
// The defaults are sized for a small VM. DLHT_BENCH_SCALE picks a profile:
//     smoke    ctest-sized (16K keys, 25 ms points)
//     default  1M keys, 300 ms points (unset = this)
//     paper    the paper's configuration: 100M keys, 2 s points (fig19:
//              1M TATP subscribers / 10M Smallbank accounts). Before
//              allocating, paper-profile benches probe available memory
//              and refuse with a typed exit-2 message when the working
//              set cannot fit — a refusal is diagnosable, an OOM kill is
//              not. Explicit --keys/--ms override the profile's
//              populations; the profile name still lands in the JSON
//              config tag ("scale=..."), so bench_diff.py never compares
//              paper rows against smoke rows.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "baselines/baselines.hpp"
#include "common/perf_counters.hpp"
#include "common/topology.hpp"
#include "dlht/dlht.hpp"
#include "workload/driver.hpp"

namespace dlht::bench {

/// Monotonic nanoseconds, for benches that bucket throughput over time.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A flag's integer value: a decimal that parses in full and lies in
/// [lo, hi]. Anything else refuses with exit 2, naming the flag.
inline std::uint64_t parse_uint_or_die(const char* flag, const char* s,
                                       std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(s, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "bad %s value '%s': expected an integer in [%llu, %llu]\n",
                 flag, s, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
  }
  return v;
}

/// Parse a probe-engine name, refusing loudly (exit 2) both unknown names
/// and engines this host cannot execute. Refusal beats the core's silent
/// degrade-to-SWAR here because a bench run that *labels* itself avx2 must
/// actually have run avx2 — the trajectory JSON is only comparable if the
/// config tag tells the truth.
inline ProbeStrategy parse_probe_or_die(const char* s) {
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
                 "bench: unknown probe engine '%s'; expected "
                 "auto|swar|avx2|avx512\n",
                 s);
    std::exit(2);
  }
  if (!probe::host_supports(req)) {
    std::fprintf(stderr,
                 "bench: probe engine '%s' requested, but this host "
                 "cannot execute it — refusing to run (numbers would be "
                 "silently mislabeled). Use '--probe auto' for runtime "
                 "dispatch.\n",
                 s);
    std::exit(2);
  }
  return req;
}

/// The probe engine every bench-built table requests: --probe (parse_args),
/// default kAuto.
inline ProbeStrategy& requested_probe() {
  static ProbeStrategy s = ProbeStrategy::kAuto;
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

/// The DLHT_ABLATION tokens, parsed once: a comma list of features to
/// disable, nofp (fingerprints), nolink (link chains) and noinplace
/// (in-place updates). Anything else refuses with exit 2 (the
/// parse_probe_or_die contract: a misspelled ablation would otherwise run
/// the full design under an ablation label). The SWAR-only probe is
/// --probe swar.
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

/// Overlay the bench-wide table knobs onto `o`: the --probe engine, the
/// DLHT_NUMA placement and the DLHT_ABLATION toggles. dlht_options()
/// applies this automatically; benches that build Options by hand
/// (fig07/fig08's growth tables, tab01's occupancy study, fig19's OLTP
/// tables, ablation_design's sweeps) call it so the knobs work everywhere
/// REPRODUCING.md says they do.
inline Options apply_env_knobs(Options o) {
  o.probe_strategy = requested_probe();
  apply_numa_env(o);
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

// --------------------------------------------------------- scale profiles
//
// DLHT_BENCH_SCALE picks the population/duration profile (see the header
// comment). The profile only seeds Args defaults — explicit --keys/--ms
// still win — but its name is always recorded in the JSON config tag, so
// trajectory points from different profiles are never compared
// (bench_diff.py skips on config mismatch).

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

/// Paper default geometry, shared by the figure benches and micro_ops:
/// bins ~ 2/3 of keys (67M bins for 100M keys), link buckets bins/8.
inline Options dlht_options(std::uint64_t keys) {
  Options o;
  o.initial_bins = static_cast<std::size_t>(keys * 2 / 3 + 64);
  o.link_ratio = 0.125;
  return apply_env_knobs(o);
}

/// Batch size of every batched worker the comparison benches run.
inline constexpr std::size_t kDefaultBatch = 24;

/// One design --map can select: its --map name, the series label the
/// comparison figures print, its Get batch size (kDefaultBatch where the
/// design has a batched Get, else 1), its table sized for `keys` keys in
/// the design's comfort zone (docs/BENCHMARKING.md, fairness rule 2), and
/// that table's rough peak bytes, which the paper profile's RSS guard
/// checks before the first allocation (the guard adds headroom on top).
template <class M>
struct Design {
  const char* name;
  const char* label;
  std::size_t get_batch;
  M (*make)(std::uint64_t keys);
  std::uint64_t (*footprint)(std::uint64_t keys);
};

/// Every design --map accepts, and the one place each is built. Labels
/// follow Table 3; the paper's TBB has no stand-in (a locked map under that
/// name would only rerun Locked). A name a bench does not host selects
/// nothing there, but a misspelled name is refused everywhere (exit 2).
inline constexpr std::tuple kDesigns{
    Design<DLHT>{"dlht", "DLHT", kDefaultBatch,
                 [](std::uint64_t k) { return DLHT(dlht_options(k)); },
                 [](std::uint64_t k) {
                   const std::uint64_t bins = k * 2 / 3 + 64;  // dlht_options
                   return bins * 64 + bins / 8 * 64;
                 }},
    // 3 slots per bin: ~1/3 occupancy headroom.
    Design<baselines::ClhtLike<>>{
        "clht", "CLHT", 1,
        [](std::uint64_t k) { return baselines::ClhtLike<>(k); },
        [](std::uint64_t k) { return ceil_pow2(k) * 64 + k * 16; }},
    // 8x cells: clear of GrowT's 30 % resize trigger.
    Design<baselines::GrowtLike<>>{
        "growt", "GrowT", 1,
        [](std::uint64_t k) { return baselines::GrowtLike<>(k * 8); },
        [](std::uint64_t k) { return ceil_pow2(k * 8) * 16; }},
    Design<baselines::FollyLike<>>{
        "folly", "Folly", 1,
        [](std::uint64_t k) { return baselines::FollyLike<>(k * 4); },
        [](std::uint64_t k) { return ceil_pow2(k * 4) * 16; }},
    Design<baselines::DramhitLike<>>{
        "dramhit", "DRAMHiT", kDefaultBatch,
        [](std::uint64_t k) { return baselines::DramhitLike<>(k * 4); },
        [](std::uint64_t k) { return ceil_pow2(k * 4) * 16; }},
    // Per index bucket: 8 entries of 8 B, and 8 store items of 16 B.
    Design<baselines::MicaLike<>>{
        "mica", "MICA", kDefaultBatch,
        [](std::uint64_t k) { return baselines::MicaLike<>(k / 4 + 16); },
        [](std::uint64_t k) { return ceil_pow2(k / 4 + 16) * 192; }},
    Design<baselines::CuckooLike<>>{
        "cuckoo", "Cuckoo", 1,
        [](std::uint64_t k) { return baselines::CuckooLike<>(k * 2); },
        [](std::uint64_t k) { return ceil_pow2(k * 2) * 32; }},
    Design<baselines::LeapfrogLike<>>{
        "leapfrog", "Leapfrog", 1,
        [](std::uint64_t k) { return baselines::LeapfrogLike<>(k * 4); },
        [](std::uint64_t k) { return ceil_pow2(k * 4) * 16; }},
    Design<baselines::Locked<>>{
        "locked", "Locked", 1,
        [](std::uint64_t k) { return baselines::Locked<>(k); },
        [](std::uint64_t k) { return k * 64; }},
    // 2x slots: Robin Hood at 50 % load.
    Design<baselines::RobinHoodMap<>>{
        "rh", "RobinHood", kDefaultBatch,
        [](std::uint64_t k) { return baselines::RobinHoodMap<>(k * 2); },
        [](std::uint64_t k) {
          return (ceil_pow2(k * 2) + baselines::RobinHoodMap<>::kMaxProbe) *
                 24;
        }},
    // One expected node per bucket.
    Design<baselines::MagedMichaelMap<>>{
        "mm", "MagedMichael", kDefaultBatch,
        [](std::uint64_t k) { return baselines::MagedMichaelMap<>(k); },
        [](std::uint64_t k) { return ceil_pow2(k) * 8 + k * 48; }},
};

/// Run f(design) for every kDesigns entry, in registry order.
template <class F>
void for_each_design(F&& f) {
  std::apply([&f](const auto&... d) { (f(d), ...); }, kDesigns);
}

inline std::vector<std::string> parse_map_list_or_die(const char* s) {
  std::vector<std::string> out = split_list(s);
  for (const std::string& name : out) {
    bool known = false;
    std::string names;
    for_each_design([&](const auto& d) {
      known = known || name == d.name;
      names += ' ';
      names += d.name;
    });
    if (!known) {
      std::fprintf(stderr,
                   "bench: unknown map '%s'; expected a comma list of:%s\n",
                   name.c_str(), names.c_str());
      std::exit(2);
    }
  }
  return out;
}

struct Args {
  std::uint64_t keys = 1u << 20;
  std::vector<int> threads_list;
  double ms = 300;
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

/// True when --counters asked for per-region perf counters. Mutable so
/// parse_args can set it from the flag.
inline bool& counters_enabled() {
  static bool b = false;
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
// `--json PATH` records every print_row() call and writes one JSON object
// per run at exit:
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

/// --threads-list's value: a comma list of thread counts, each >= 1.
inline std::vector<int> parse_thread_list_or_die(const char* s) {
  std::vector<int> ts;
  for (;;) {
    const char* comma = std::strchr(s, ',');
    const std::string item =
        comma != nullptr ? std::string(s, comma) : std::string(s);
    ts.push_back(static_cast<int>(
        parse_uint_or_die("--threads-list", item.c_str(), 1, INT_MAX)));
    if (comma == nullptr) return ts;
    s = comma + 1;
  }
}

/// --ms's value: a finite number of milliseconds above 0.
inline double parse_ms_or_die(const char* s) {
  char* end = nullptr;
  const double ms = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(ms > 0) || !std::isfinite(ms)) {
    std::fprintf(stderr,
                 "bad --ms value '%s': expected a number of milliseconds "
                 "above 0\n",
                 s);
    std::exit(2);
  }
  return ms;
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  // Scale profile first: it only seeds the defaults the flags override.
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
  a.threads_list = default_threads();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--keys") {
      a.keys = parse_uint_or_die("--keys", next(), 1, UINT64_MAX);
    } else if (arg == "--ms") {
      a.ms = parse_ms_or_die(next());
    } else if (arg == "--json") {
      json_sink().path = next();
    } else if (arg == "--threads-list") {
      a.threads_list = parse_thread_list_or_die(next());
    } else if (arg == "--probe") {
      requested_probe() = parse_probe_or_die(next());
    } else if (arg == "--map") {
      a.maps = parse_map_list_or_die(next());
    } else if (arg == "--counters") {
      counters_enabled() = true;
    } else {
      std::fprintf(stderr, "bench: unknown flag '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
  if (!json_sink().path.empty()) {
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
