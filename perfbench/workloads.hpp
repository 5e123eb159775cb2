// The three workloads. Each builds its inputs from the seed before any
// clock starts, measures for the requested time, checks every output into
// the Report, and returns 0 or a typed refusal code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "dlht/dlht.hpp"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string wal_dir;  // kv_durable only: a tmpfs directory
  std::string socket;   // kv_durable only: unix socket path
  std::string trace_path;
};

/// Exit codes besides 0.
inline constexpr int kExitUsage = 2;
inline constexpr int kExitNotTmpfs = 3;
inline constexpr int kExitSetup = 4;

int run_read_dram(const RunArgs& a, Report& r);
int run_churn_resize(const RunArgs& a, Report& r);
int run_kv_durable(const RunArgs& a, Report& r);

/// Table geometry into the report's configuration, under `prefix`.
void record_table_stats(Report& r, const std::string& prefix,
                        const dlht::DLHT& t);

/// The per-layer metrics every DLHT table has: probe candidates over a
/// sample of `sample` present and as many absent keys (key indices below
/// `present` are in the table, from `absent_from` on they are not),
/// geometry from stats(), and bytes of index per live key.
void record_table_layers(Report& r, const dlht::DLHT& t, const KeySpace& ks,
                         std::uint64_t present, std::uint64_t absent_from,
                         std::uint64_t seed);

/// Write every thread's stored spans as CSV.
template <class Traces>
void write_trace(const std::string& path, const Traces& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,span,parent,name,request,start_ns,end_ns\n");
  unsigned t = 0;
  for (const ThreadTrace& tr : traces) tr.write_csv(f, t++);
  std::fclose(f);
}

}  // namespace perfbench
