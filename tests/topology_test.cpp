// Topology / PinPlan tests: fake sysfs trees prove the parser and every
// placement policy deterministically, on any host. No framework (same
// contract as dlht_test: print, count failures, nonzero exit on any).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/topology.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

using namespace dlht;

std::string vec_str(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

#define CHECK_VEC(got, ...)                                                  \
  do {                                                                       \
    const std::vector<int> want{__VA_ARGS__};                                \
    if ((got) != want) {                                                     \
      std::fprintf(stderr, "FAIL %s:%d: %s == %s, want %s\n", __FILE__,      \
                   __LINE__, #got, vec_str(got).c_str(),                     \
                   vec_str(want).c_str());                                   \
      ++g_failures;                                                          \
    }                                                                        \
  } while (0)

// ------------------------------------------------------- fake sysfs builder

void mkdirs(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty()) ::mkdir(cur.c_str(), 0755);
      if (i < path.size()) cur += '/';
    } else {
      cur += path[i];
    }
  }
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

/// One fake machine: a sysfs root holding node<N>/cpulist entries, the
/// cpu/online list, and per-cpu core_id files. core_ids may be empty (every
/// cpu then defaults to its own physical core). The tree is removed when
/// the FakeSysfs goes out of scope.
struct FakeSysfs {
  std::string root;

  explicit FakeSysfs(const std::string& name) {
    root = "/tmp/dlht_topo_" + std::to_string(::getpid()) + "_" + name;
    mkdirs(root + "/devices/system/node");
    mkdirs(root + "/devices/system/cpu");
  }
  ~FakeSysfs() {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
  FakeSysfs(const FakeSysfs&) = delete;
  FakeSysfs& operator=(const FakeSysfs&) = delete;

  void node(int n, const std::string& cpulist) {
    const std::string dir =
        root + "/devices/system/node/node" + std::to_string(n);
    mkdirs(dir);
    write_file(dir + "/cpulist", cpulist + "\n");
  }

  void online(const std::string& cpulist) {
    write_file(root + "/devices/system/cpu/online", cpulist + "\n");
  }

  void core_id(int cpu, int core) {
    const std::string dir =
        root + "/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology";
    mkdirs(dir);
    write_file(dir + "/core_id", std::to_string(core) + "\n");
  }
};

std::vector<int> plan_cpus(const Topology& t, const std::string& spec) {
  std::string err;
  const PinPlan p = build_pin_plan(t, spec, nullptr, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "FAIL plan '%s': %s\n", spec.c_str(), err.c_str());
    ++g_failures;
  }
  return p.cpus;
}

// ------------------------------------------------------------------- tests

void test_parse_cpulist() {
  std::puts("test_parse_cpulist");
  CHECK_VEC(parse_cpulist("0-3,8,10-11"), 0, 1, 2, 3, 8, 10, 11);
  CHECK_VEC(parse_cpulist("5"), 5);
  CHECK_VEC(parse_cpulist("0,0,1-1"), 0, 1);  // duplicates collapse
  CHECK(parse_cpulist("").empty());
  CHECK(parse_cpulist("\n").empty());
}

void test_one_node() {
  std::puts("test_one_node");
  FakeSysfs fs("one");
  fs.node(0, "0-3");
  fs.online("0-3");
  const Topology t = Topology::from_sysfs(fs.root);
  CHECK(!t.synthesized);
  CHECK(t.node_count() == 1);
  CHECK(t.cpus.size() == 4);
  CHECK_VEC(t.cpus_of_node(0), 0, 1, 2, 3);
  CHECK_VEC(plan_cpus(t, "compact"), 0, 1, 2, 3);
  CHECK_VEC(plan_cpus(t, "scatter"), 0, 1, 2, 3);
  CHECK_VEC(plan_cpus(t, "node:0"), 0, 1, 2, 3);
}

void test_two_nodes() {
  std::puts("test_two_nodes");
  FakeSysfs fs("two");
  fs.node(0, "0-3");
  fs.node(1, "4-7");
  fs.online("0-7");
  const Topology t = Topology::from_sysfs(fs.root);
  CHECK(t.node_count() == 2);
  CHECK_VEC(t.cpus_of_node(1), 4, 5, 6, 7);
  CHECK_VEC(plan_cpus(t, "compact"), 0, 1, 2, 3, 4, 5, 6, 7);
  // Scatter alternates nodes: one cpu from each per round.
  CHECK_VEC(plan_cpus(t, "scatter"), 0, 4, 1, 5, 2, 6, 3, 7);
  CHECK_VEC(plan_cpus(t, "node:1"), 4, 5, 6, 7);
  // Unknown node is a typed error, not a silent empty plan.
  std::string err;
  const PinPlan bad = build_pin_plan(t, "node:9", nullptr, &err);
  CHECK(!bad.active());
  CHECK(err.find("DLHT_PIN") != std::string::npos);
  CHECK(err.find("node 9") != std::string::npos);
}

void test_four_nodes_asymmetric() {
  std::puts("test_four_nodes_asymmetric");
  FakeSysfs fs("four");
  fs.node(0, "0-1");
  fs.node(1, "2-5");
  fs.node(2, "6");
  fs.node(3, "7-9");
  fs.online("0-9");
  const Topology t = Topology::from_sysfs(fs.root);
  CHECK(t.node_count() == 4);
  CHECK(t.cpus.size() == 10);
  CHECK_VEC(plan_cpus(t, "compact"), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9);
  // Round-robin across four unequal nodes; drained nodes drop out.
  CHECK_VEC(plan_cpus(t, "scatter"), 0, 2, 6, 7, 1, 3, 8, 4, 9, 5);
  CHECK_VEC(plan_cpus(t, "node:2"), 6);
  CHECK_VEC(plan_cpus(t, "node:3"), 7, 8, 9);
}

void test_hyperthread_siblings() {
  std::puts("test_hyperthread_siblings");
  // 4 physical cores, 2 threads each: cpus 0-3 are the first threads,
  // 4-7 their siblings (the common x86 enumeration).
  FakeSysfs fs("ht");
  fs.node(0, "0-7");
  fs.online("0-7");
  for (int c = 0; c < 8; ++c) fs.core_id(c, c % 4);
  const Topology t = Topology::from_sysfs(fs.root);
  CHECK(t.node_count() == 1);
  // Compact keeps siblings adjacent (fill core by core)...
  CHECK_VEC(plan_cpus(t, "compact"), 0, 4, 1, 5, 2, 6, 3, 7);
  // ...scatter spreads across physical cores before touching siblings.
  CHECK_VEC(plan_cpus(t, "scatter"), 0, 1, 2, 3, 4, 5, 6, 7);
}

void test_holes_in_numbering() {
  std::puts("test_holes_in_numbering");
  FakeSysfs fs("holes");
  fs.node(0, "0,2");
  fs.node(1, "5-6");
  fs.online("0,2,5-6");
  const Topology t = Topology::from_sysfs(fs.root);
  CHECK(t.cpus.size() == 4);
  CHECK_VEC(plan_cpus(t, "compact"), 0, 2, 5, 6);
  CHECK_VEC(plan_cpus(t, "scatter"), 0, 5, 2, 6);
}

void test_plan_determinism() {
  std::puts("test_plan_determinism");
  FakeSysfs fs("det");
  fs.node(0, "0-3");
  fs.node(1, "4-7");
  fs.online("0-7");
  const Topology t = Topology::from_sysfs(fs.root);
  for (const char* spec : {"compact", "scatter", "node:0", "0,2,4-7"}) {
    std::string e1, e2;
    const PinPlan a = build_pin_plan(t, spec, nullptr, &e1);
    const PinPlan b = build_pin_plan(t, spec, nullptr, &e2);
    CHECK(a.cpus == b.cpus);
    CHECK(e1.empty() && e2.empty());
  }
}

void test_explicit_list_round_trip() {
  std::puts("test_explicit_list_round_trip");
  const Topology t = Topology::from_sysfs("/nonexistent-sysfs");
  CHECK_VEC(plan_cpus(t, "0,2,4-7"), 0, 2, 4, 5, 6, 7);
  // Explicit lists are the operator's override: an allowed set must NOT
  // filter them (pinning outside the cpuset fails loudly at pin time).
  const std::vector<int> allowed{0, 1};
  std::string err;
  const PinPlan p = build_pin_plan(t, "2,3", &allowed, &err);
  CHECK(err.empty());
  CHECK_VEC(p.cpus, 2, 3);
  // Wrap semantics: slot i maps to cpus[i % size].
  CHECK(p.cpu_for(0) == 2);
  CHECK(p.cpu_for(5) == 3);
}

void test_bad_specs() {
  std::puts("test_bad_specs");
  const Topology t = Topology::from_sysfs("/nonexistent-sysfs");
  for (const char* spec :
       {"bogus", "node:", "node:x", "7-3", "1,,2", "1,", "999999"}) {
    std::string err;
    const PinPlan p = build_pin_plan(t, spec, nullptr, &err);
    if (p.active() || err.empty()) {
      std::fprintf(stderr, "FAIL spec '%s' should be a typed error\n", spec);
      ++g_failures;
      continue;
    }
    CHECK(err.rfind("DLHT_PIN:", 0) == 0);
  }
}

void test_synthesized_fallback() {
  std::puts("test_synthesized_fallback");
  const Topology t = Topology::from_sysfs("/nonexistent-sysfs");
  CHECK(t.synthesized);
  CHECK(t.node_count() == 1);
  CHECK(t.cpus.size() == allowed_cpus().size());
  // Even the fallback yields an active compact plan: pinning always works.
  CHECK(!plan_cpus(t, "compact").empty());
}

void test_sysfs_root_env() {
  std::puts("test_sysfs_root_env");
  FakeSysfs fs("env");
  fs.node(0, "0-1");
  fs.node(1, "2-3");
  fs.online("0-3");
  ::setenv("DLHT_SYSFS_ROOT", fs.root.c_str(), 1);
  const Topology t = Topology::from_sysfs();  // default root = the env knob
  ::unsetenv("DLHT_SYSFS_ROOT");
  CHECK(t.node_count() == 2);
  CHECK(t.cpus.size() == 4);
}

void test_allowed_filter() {
  std::puts("test_allowed_filter");
  FakeSysfs fs("allowed");
  fs.node(0, "0-3");
  fs.node(1, "4-7");
  fs.online("0-7");
  const Topology t = Topology::from_sysfs(fs.root);
  // A cgroup cpuset of {1,2,5} must shrink every policy order to it.
  const std::vector<int> allowed{1, 2, 5};
  std::string err;
  CHECK_VEC(build_pin_plan(t, "compact", &allowed, &err).cpus, 1, 2, 5);
  CHECK_VEC(build_pin_plan(t, "scatter", &allowed, &err).cpus, 1, 5, 2);
  CHECK_VEC(build_pin_plan(t, "node:1", &allowed, &err).cpus, 5);
  // Empty intersection (fake topology vs real cpuset): keep the topology
  // order rather than refusing — pin_thread degrades best-effort.
  const std::vector<int> disjoint{100, 101};
  const PinPlan p = build_pin_plan(t, "compact", &disjoint, &err);
  CHECK(err.empty());
  CHECK_VEC(p.cpus, 0, 1, 2, 3, 4, 5, 6, 7);
}

void test_env_plan_and_real_host() {
  std::puts("test_env_plan_and_real_host");
  // The process default (no DLHT_PIN) is an active compact plan over the
  // allowed set on every Linux host.
  ::unsetenv("DLHT_PIN");
  std::string err;
  const PinPlan def = pin_plan_from_env(&err);
  CHECK(err.empty());
  CHECK(def.active());
  for (const int c : def.cpus) {
    const auto& a = allowed_cpus_cached();
    CHECK(std::find(a.begin(), a.end(), c) != a.end());
  }
  // "none" deactivates pinning without being an error.
  ::setenv("DLHT_PIN", "none", 1);
  const PinPlan none = pin_plan_from_env(&err);
  CHECK(err.empty());
  CHECK(!none.active());
  ::unsetenv("DLHT_PIN");
  // The real machine parses to something sane.
  const Topology real = Topology::from_sysfs("/sys");
  CHECK(real.node_count() >= 1);
  CHECK(!real.cpus.empty());
  CHECK(real.node_count() == real_node_count() || real.synthesized);
}

void test_numa_bind_capability() {
  std::puts("test_numa_bind_capability");
  // first_touch always "succeeds" (it is the kernel default)...
  alignas(4096) static char buf[8192];
  CHECK(numa_bind_region(buf, sizeof buf, NumaPolicy::kFirstTouch, 0));
  // ...and the bound policies degrade honestly on a single-node host.
  const bool bound =
      numa_bind_region(buf, sizeof buf, NumaPolicy::kInterleave, 0);
  if (real_node_count() < 2) CHECK(!bound);
  // A bogus target node can never bind, regardless of host shape.
  CHECK(!numa_bind_region(buf, sizeof buf, NumaPolicy::kNodeLocal, 100001u));
  // Sub-page regions are a placement no-op, reported as success.
  CHECK(numa_bind_region(buf + 1, 16, NumaPolicy::kInterleave, 0) ||
        real_node_count() < 2);
}

}  // namespace

int main() {
  test_parse_cpulist();
  test_one_node();
  test_two_nodes();
  test_four_nodes_asymmetric();
  test_hyperthread_siblings();
  test_holes_in_numbering();
  test_plan_determinism();
  test_explicit_list_round_trip();
  test_bad_specs();
  test_synthesized_fallback();
  test_sysfs_root_env();
  test_allowed_filter();
  test_env_plan_and_real_host();
  test_numa_bind_capability();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all tests passed");
  return 0;
}
