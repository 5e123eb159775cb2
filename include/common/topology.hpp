// Hardware topology + thread placement: the memory-awareness layer.
//
// The paper's numbers depend on threads staying put and on the bucket array
// living near the threads that probe it. This header owns everything the
// repo knows about the machine:
//
//   * Topology — nodes / cpus / hyperthread siblings, parsed from sysfs
//     (/sys/devices/system/{node,cpu}). The root is injectable via
//     DLHT_SYSFS_ROOT so tests can construct any machine shape; a host with
//     no sysfs at all degrades to a synthesized single-node topology built
//     from the scheduler's allowed-CPU set.
//   * PinPlan — a deterministic thread->cpu map built from a policy spec
//     (compact | scatter | node:N | explicit cpu list | none), replacing the
//     old naive `tid % hardware_threads()` round-robin. Plans derive from
//     sched_getaffinity first, so pinning inside a cgroup-restricted cpuset
//     (CI runners) never lands on a forbidden CPU.
//   * numa_bind_region — mbind(2) behind a capability probe, used by the
//     core's bucket/link allocation path (Options::numa_policy). On a
//     single-node host (or when the kernel refuses) it reports failure and
//     the caller counts a numa_fallback instead of aborting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace dlht {

inline unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n != 0 ? n : 1;
}

/// Pin the calling thread to one CPU. Best-effort: returns false (and the
/// thread keeps floating) on non-Linux hosts or if affinity is restricted.
inline bool pin_thread(unsigned cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % CPU_SETSIZE, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

/// CPUs the scheduler will actually let this process run on — the cpuset a
/// cgroup-restricted CI runner grants, not the machine's full complement.
/// Every pin plan derives from this set, so a plan can never place a thread
/// on a CPU where pthread_setaffinity_np silently fails and the thread
/// floats. Falls back to 0..hardware_threads-1 where the call is
/// unavailable.
inline std::vector<int> allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    if (!out.empty()) return out;
  }
#endif
  std::vector<int> out;
  for (unsigned c = 0; c < hardware_threads(); ++c) {
    out.push_back(static_cast<int>(c));
  }
  return out;
}

/// Parse a sysfs cpulist ("0-3,8,10-11") into sorted cpu ids. Unparsable
/// fragments are skipped — sysfs is trusted input, and a partial read beats
/// refusing the whole machine.
inline std::vector<int> parse_cpulist(const std::string& s) {
  std::vector<int> out;
  const char* p = s.c_str();
  while (*p != '\0') {
    if (*p < '0' || *p > '9') {
      ++p;
      continue;
    }
    char* end = nullptr;
    const long lo = std::strtol(p, &end, 10);
    long hi = lo;
    if (*end == '-' && end[1] >= '0' && end[1] <= '9') {
      hi = std::strtol(end + 1, &end, 10);
    }
    for (long c = lo; c <= hi; ++c) out.push_back(static_cast<int>(c));
    p = end;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace topo_detail {

inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return std::nullopt;
  std::string s((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  return s;
}

/// Directory entries named <prefix><digits>, returning the sorted indices
/// (e.g. "node" over /sys/devices/system/node -> {0, 1}). Ignores names
/// like "cpufreq" whose suffix is not purely numeric.
inline std::vector<int> indexed_entries(const std::string& dir,
                                        const char* prefix) {
  std::vector<int> out;
#if defined(__linux__)
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  const std::size_t plen = std::strlen(prefix);
  while (struct dirent* e = ::readdir(d)) {
    if (std::strncmp(e->d_name, prefix, plen) != 0) continue;
    const char* suffix = e->d_name + plen;
    if (*suffix == '\0') continue;
    bool digits = true;
    for (const char* q = suffix; *q != '\0'; ++q) {
      if (*q < '0' || *q > '9') {
        digits = false;
        break;
      }
    }
    if (digits) out.push_back(std::atoi(suffix));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
#else
  (void)dir;
  (void)prefix;
#endif
  return out;
}

}  // namespace topo_detail

/// The machine model: every cpu with its NUMA node and physical core.
/// Hyperthread siblings are cpus sharing (node, core). Parsed from a sysfs
/// tree; DLHT_SYSFS_ROOT points parsing at a fake tree so tests can build
/// any topology on any host.
struct Topology {
  struct Cpu {
    int id = 0;
    int node = 0;
    int core = 0;  // physical core id (unique within a node)
  };
  std::vector<Cpu> cpus;    // sorted by id
  std::vector<int> nodes;   // sorted node ids actually populated
  /// True when no sysfs was readable and the topology was synthesized as
  /// one node holding the scheduler's allowed CPUs.
  bool synthesized = false;

  int node_count() const { return static_cast<int>(nodes.size()); }

  std::vector<int> cpus_of_node(int node) const {
    std::vector<int> out;
    for (const Cpu& c : cpus) {
      if (c.node == node) out.push_back(c.id);
    }
    return out;
  }

  /// The sysfs root topology parsing reads: DLHT_SYSFS_ROOT, else /sys.
  static std::string sysfs_root() {
    if (const char* env = std::getenv("DLHT_SYSFS_ROOT")) return env;
    return "/sys";
  }

  static Topology from_sysfs(const std::string& root = sysfs_root()) {
    Topology t;
    const std::string node_dir = root + "/devices/system/node";
    const std::string cpu_dir = root + "/devices/system/cpu";

    // Node membership from node<N>/cpulist.
    std::vector<std::pair<int, int>> node_of;  // (cpu, node), first wins
    for (const int n : topo_detail::indexed_entries(node_dir, "node")) {
      const auto cl = topo_detail::read_file(
          node_dir + "/node" + std::to_string(n) + "/cpulist");
      if (!cl) continue;
      for (const int c : parse_cpulist(*cl)) node_of.emplace_back(c, n);
    }

    // CPU universe: the online list when present, else the cpu<N> dirs,
    // else whatever the node lists named. Holes in the numbering (offlined
    // or never-populated cpus) simply never appear.
    std::vector<int> ids;
    if (const auto online = topo_detail::read_file(cpu_dir + "/online")) {
      ids = parse_cpulist(*online);
    }
    if (ids.empty()) ids = topo_detail::indexed_entries(cpu_dir, "cpu");
    if (ids.empty()) {
      for (const auto& [c, n] : node_of) ids.push_back(c);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    if (ids.empty()) {
      // No sysfs at all (non-Linux, chroot, fake root pointing nowhere):
      // synthesize one node over the allowed set so callers always get a
      // usable plan.
      t.synthesized = true;
      for (const int c : allowed_cpus()) t.cpus.push_back(Cpu{c, 0, c});
      t.nodes = {0};
      return t;
    }

    const int default_node = node_of.empty() ? 0 : node_of.front().second;
    for (const int id : ids) {
      Cpu c;
      c.id = id;
      c.node = default_node;
      for (const auto& [cpu, n] : node_of) {
        if (cpu == id) {
          c.node = n;
          break;
        }
      }
      c.core = id;  // no sibling info: every cpu its own core
      if (const auto core = topo_detail::read_file(
              cpu_dir + "/cpu" + std::to_string(id) + "/topology/core_id")) {
        char* end = nullptr;
        const long v = std::strtol(core->c_str(), &end, 10);
        if (end != core->c_str()) c.core = static_cast<int>(v);
      }
      t.cpus.push_back(c);
    }
    for (const Cpu& c : t.cpus) t.nodes.push_back(c.node);
    std::sort(t.nodes.begin(), t.nodes.end());
    t.nodes.erase(std::unique(t.nodes.begin(), t.nodes.end()), t.nodes.end());
    return t;
  }
};

/// Node ids of the *real* machine (always /sys, never DLHT_SYSFS_ROOT):
/// the capability probe for mbind. A fake test topology can describe four
/// nodes, but memory can only be placed on nodes the kernel has.
inline const std::vector<int>& real_node_ids() {
  static const std::vector<int> ids = [] {
    std::vector<int> out =
        topo_detail::indexed_entries("/sys/devices/system/node", "node");
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return ids;
}

inline int real_node_count() {
  return static_cast<int>(real_node_ids().size());
}

// ---------------------------------------------------------------- placement

/// Memory-placement policy for the core's bucket/link arrays
/// (Options::numa_policy). kFirstTouch is the kernel default — pages land
/// on the node of the thread that first writes them: for arrays of 2 MiB
/// or more, the populating or migrating writer; smaller arrays are
/// populated when mapped, by the allocating thread. The other two need
/// >= 2 real nodes and a working mbind; otherwise the allocation proceeds
/// unplaced and stats().numa_fallback counts it.
enum class NumaPolicy : std::uint8_t {
  kFirstTouch = 0,
  kInterleave = 1,  // round-robin pages across all real nodes
  kNodeLocal = 2,   // bind to one node (Options::numa_node)
};

/// Apply `policy` to [p, p+bytes) via mbind(2). Returns true when the
/// placement is in force (kFirstTouch trivially is). False = caller should
/// count a numa_fallback: single real node, unknown target node, non-Linux,
/// or the kernel refused. Called before the region is touched, so every
/// page faults in under the requested policy.
inline bool numa_bind_region(void* p, std::size_t bytes, NumaPolicy policy,
                             unsigned node) {
  if (policy == NumaPolicy::kFirstTouch) return true;
#if defined(__linux__) && defined(SYS_mbind)
  if (real_node_count() < 2) return false;
  constexpr unsigned long kMaxNodes = 1024;
  unsigned long mask[kMaxNodes / (8 * sizeof(unsigned long))] = {};
  auto set_node = [&mask](unsigned long n) {
    mask[n / (8 * sizeof(unsigned long))] |=
        1ul << (n % (8 * sizeof(unsigned long)));
  };
  // numaif.h values (the header ships with libnuma, which this repo does
  // not depend on): MPOL_BIND = 2, MPOL_INTERLEAVE = 3.
  int mode;
  if (policy == NumaPolicy::kInterleave) {
    mode = 3;
    for (const int n : real_node_ids()) {
      if (n >= 0 && static_cast<unsigned long>(n) < kMaxNodes) {
        set_node(static_cast<unsigned long>(n));
      }
    }
  } else {
    mode = 2;
    const auto& ids = real_node_ids();
    if (std::find(ids.begin(), ids.end(), static_cast<int>(node)) ==
        ids.end()) {
      return false;  // bogus target node: fall back, don't bind garbage
    }
    set_node(node);
  }
  // mbind wants page-aligned bounds; a caller's region may not be. Shrink
  // to the contained page range — sub-page remainders are too small to
  // matter for placement.
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return false;
  const std::uintptr_t lo =
      (reinterpret_cast<std::uintptr_t>(p) + static_cast<std::uintptr_t>(page) -
       1) &
      ~(static_cast<std::uintptr_t>(page) - 1);
  const std::uintptr_t hi =
      (reinterpret_cast<std::uintptr_t>(p) + bytes) &
      ~(static_cast<std::uintptr_t>(page) - 1);
  if (hi <= lo) return true;  // too small to span a page: nothing to place
  return ::syscall(SYS_mbind, reinterpret_cast<void*>(lo), hi - lo, mode,
                   mask, kMaxNodes, 0) == 0;
#else
  (void)p;
  (void)bytes;
  (void)node;
  return false;
#endif
}

// ----------------------------------------------------------------- pin plan

/// A deterministic thread-index -> cpu map. Threads beyond the cpu list
/// wrap (oversubscription sweeps still pin). An empty list means "do not
/// pin" (the `none` policy, or an empty allowed set).
struct PinPlan {
  std::string policy = "compact";
  std::vector<int> cpus;

  bool active() const { return !cpus.empty(); }
  int cpu_for(std::size_t i) const {
    return cpus.empty() ? -1 : cpus[i % cpus.size()];
  }
  /// Pin the calling thread to the plan's cpu for slot `i`. Best-effort.
  bool pin(std::size_t i) const {
    if (cpus.empty()) return false;
    return pin_thread(static_cast<unsigned>(cpus[i % cpus.size()]));
  }
};

namespace topo_detail {

/// Rank of a cpu among the cpus of its (node, core) group — 0 for the
/// first hyperthread of each physical core, 1 for its sibling, ...
inline int sibling_rank(const Topology& t, const Topology::Cpu& c) {
  int rank = 0;
  for (const Topology::Cpu& o : t.cpus) {
    if (o.node == c.node && o.core == c.core && o.id < c.id) ++rank;
  }
  return rank;
}

}  // namespace topo_detail

/// Build a plan from a policy spec over a topology.
///
///   compact       fill node by node; hyperthread siblings adjacent
///                 (node, core, cpu order) — minimizes cross-node traffic.
///   scatter       round-robin across nodes, physical cores before
///                 siblings within each node — maximizes cache/bandwidth
///                 per thread.
///   node:N        only the cpus of node N (compact order within it).
///   0,2,4-7       explicit cpu list, used verbatim in the given order.
///   none          empty plan: threads float.
///
/// `allowed` filters the policy orders (pass the sched_getaffinity set so
/// plans respect cgroup cpusets; nullptr = no filter, used by tests over
/// fake topologies). Explicit lists are the operator's override and are
/// not filtered. On error returns an inactive plan and sets *err to a
/// typed "DLHT_PIN: ..." message.
inline PinPlan build_pin_plan(const Topology& topo, const std::string& spec,
                              const std::vector<int>* allowed,
                              std::string* err) {
  PinPlan plan;
  plan.policy = spec.empty() ? "compact" : spec;
  auto fail = [&](const std::string& msg) {
    if (err != nullptr) *err = "DLHT_PIN: " + msg;
    plan.cpus.clear();
    return plan;
  };

  if (plan.policy == "none") {
    plan.cpus.clear();
    return plan;
  }

  // Explicit cpu list?
  if (!plan.policy.empty() && plan.policy[0] >= '0' && plan.policy[0] <= '9') {
    const char* p = plan.policy.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const long lo = std::strtol(p, &end, 10);
      if (end == p) return fail("unparsable cpu list '" + plan.policy + "'");
      long hi = lo;
      if (*end == '-') {
        const char* q = end + 1;
        hi = std::strtol(q, &end, 10);
        if (end == q || hi < lo) {
          return fail("unparsable cpu range in '" + plan.policy + "'");
        }
      }
      if (lo < 0 || hi >= CPU_SETSIZE) {
        return fail("cpu out of range in '" + plan.policy + "'");
      }
      for (long c = lo; c <= hi; ++c) {
        plan.cpus.push_back(static_cast<int>(c));
      }
      if (*end == ',') {
        p = end + 1;
        if (*p == '\0') return fail("trailing comma in '" + plan.policy + "'");
      } else if (*end == '\0') {
        p = end;
      } else {
        return fail("unparsable cpu list '" + plan.policy + "'");
      }
    }
    if (plan.cpus.empty()) return fail("empty cpu list");
    return plan;
  }

  std::vector<Topology::Cpu> ordered = topo.cpus;
  if (plan.policy == "compact") {
    std::sort(ordered.begin(), ordered.end(),
              [](const Topology::Cpu& a, const Topology::Cpu& b) {
                return std::tie(a.node, a.core, a.id) <
                       std::tie(b.node, b.core, b.id);
              });
    for (const auto& c : ordered) plan.cpus.push_back(c.id);
  } else if (plan.policy == "scatter") {
    // Per-node orders with physical cores first, then one cpu per node per
    // round until every list drains.
    std::vector<std::vector<int>> per_node;
    for (const int n : topo.nodes) {
      std::vector<Topology::Cpu> nc;
      for (const auto& c : topo.cpus) {
        if (c.node == n) nc.push_back(c);
      }
      std::sort(nc.begin(), nc.end(),
                [&topo](const Topology::Cpu& a, const Topology::Cpu& b) {
                  return std::tuple(topo_detail::sibling_rank(topo, a), a.core,
                                    a.id) <
                         std::tuple(topo_detail::sibling_rank(topo, b), b.core,
                                    b.id);
                });
      per_node.emplace_back();
      for (const auto& c : nc) per_node.back().push_back(c.id);
    }
    for (std::size_t round = 0;; ++round) {
      bool any = false;
      for (const auto& list : per_node) {
        if (round < list.size()) {
          plan.cpus.push_back(list[round]);
          any = true;
        }
      }
      if (!any) break;
    }
  } else if (plan.policy.rfind("node:", 0) == 0) {
    char* end = nullptr;
    const char* num = plan.policy.c_str() + 5;
    const long n = std::strtol(num, &end, 10);
    if (end == num || *end != '\0' || n < 0) {
      return fail("unparsable node in '" + plan.policy + "'");
    }
    if (std::find(topo.nodes.begin(), topo.nodes.end(),
                  static_cast<int>(n)) == topo.nodes.end()) {
      return fail("node " + std::to_string(n) + " does not exist (topology has " +
                  std::to_string(topo.node_count()) + " node(s))");
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Topology::Cpu& a, const Topology::Cpu& b) {
                return std::tie(a.core, a.id) < std::tie(b.core, b.id);
              });
    for (const auto& c : ordered) {
      if (c.node == static_cast<int>(n)) plan.cpus.push_back(c.id);
    }
  } else {
    return fail("unknown policy '" + plan.policy +
                "' (expected compact|scatter|none|node:<id>|<cpu list like "
                "0,2,4-7>)");
  }

  if (allowed != nullptr) {
    std::vector<int> filtered;
    for (const int c : plan.cpus) {
      if (std::find(allowed->begin(), allowed->end(), c) != allowed->end()) {
        filtered.push_back(c);
      }
    }
    // An empty intersection means the topology's cpu ids are fiction on
    // this host (a fake DLHT_SYSFS_ROOT tree): keep the topology order and
    // let pin_thread fail best-effort rather than silently not pinning.
    if (!filtered.empty()) plan.cpus = std::move(filtered);
  }
  if (plan.cpus.empty()) {
    return fail("policy '" + plan.policy + "' selected no cpus");
  }
  return plan;
}

/// allowed_cpus(), computed once: plans are rebuilt per run_for call and
/// the affinity set cannot change under us in any supported configuration.
inline const std::vector<int>& allowed_cpus_cached() {
  static const std::vector<int> a = allowed_cpus();
  return a;
}

/// The process-wide plan spec: DLHT_PIN, defaulting to compact (which over
/// the allowed set reproduces the old round-robin behavior on flat
/// machines). On a bad spec the plan comes back inactive and *err carries
/// the typed message.
inline PinPlan pin_plan_from_env(std::string* err) {
  const char* spec = std::getenv("DLHT_PIN");
  return build_pin_plan(Topology::from_sysfs(), spec != nullptr ? spec : "",
                        &allowed_cpus_cached(), err);
}

/// pin_plan_from_env, but a bad DLHT_PIN is a typed fatal error (exit 2):
/// a bench or driver run that *labels* itself pinned must actually be
/// pinned the way the spec says — same refusal contract as --probe.
inline PinPlan pin_plan_from_env_or_die() {
  std::string err;
  PinPlan plan = pin_plan_from_env(&err);
  if (!err.empty()) {
    std::fprintf(stderr, "dlht: %s\n", err.c_str());
    std::exit(2);
  }
  return plan;
}

/// The cached process-wide plan the workload driver pins by. First use
/// validates DLHT_PIN (exit 2 on a bad spec).
inline const PinPlan& default_pin_plan() {
  static const PinPlan plan = pin_plan_from_env_or_die();
  return plan;
}

}  // namespace dlht
