// §5.3.2: remote memory (CXL).
//
// The paper pins DLHT's memory on the remote socket, doubling load-to-use
// latency, and shows prefetch-batched DLHT at 2.9x DLHT-NoBatch. On a host
// with two or more NUMA nodes this binary runs that setup for real; the
// local rows are its same-node reference. A one-node host has no remote
// memory to measure, so it prints the local rows only. That batching hides
// memory latency is measured where the latency is real: DLHT against
// DLHT-NoBatch on DRAM-resident tables (fig12, fig14) and perfbench
// read_dram's batched against scalar Get cost.
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  args.keys = std::min<std::uint64_t>(args.keys, 1u << 20);
  const int threads = args.threads_list.back();
  const double secs = args.seconds();
  print_header("fig_cxl", "Get throughput with remote (cross-node) memory");

  InlinedMap m(dlht_options(args.keys));
  workload::populate(m, args.keys);
  print_row("fig_cxl", "local/DLHT", threads,
            get_tput(m, args.keys, threads, secs, kDefaultBatch), "Mreq/s");
  print_row("fig_cxl", "local/DLHT-NoBatch", threads,
            get_tput(m, args.keys, threads, secs, 1), "Mreq/s");

  // Cross-node mode (the paper's §5.3.2 setup): bind the table's
  // bucket/link memory on the *last* node, pin the worker threads on the
  // *first*, and measure the batched/unbatched pair over remote loads.
  if (real_node_count() >= 2) {
    const std::vector<int>& nodes = real_node_ids();
    const int local_node = nodes.front();
    const int remote_node = nodes.back();
    std::string pin_err;
    const PinPlan local_plan =
        build_pin_plan(Topology::from_sysfs("/sys"),
                       "node:" + std::to_string(local_node),
                       &allowed_cpus_cached(), &pin_err);
    if (!pin_err.empty() || !local_plan.active()) {
      std::printf("# xnode skip: cannot pin node-local (%s)\n",
                  pin_err.c_str());
      return 0;
    }
    Options xo = dlht_options(args.keys);
    xo.numa_policy = NumaPolicy::kNodeLocal;
    xo.numa_node = static_cast<unsigned>(remote_node);
    InlinedMap xm(xo);
    workload::populate(xm, args.keys);
    if (xm.stats().numa_fallback > 0) {
      std::printf("# xnode note: mbind fell back %llu time(s); rows may "
                  "measure local memory\n",
                  static_cast<unsigned long long>(xm.stats().numa_fallback));
    }
    std::printf("# xnode: memory on node %d, threads on node %d\n",
                remote_node, local_node);
    workload::RunSpec xspec{.threads = threads, .seconds = secs};
    xspec.counters = counters_enabled();
    xspec.plan = &local_plan;
    const auto xb = workload::run_for(
        xspec, workload::make_get_batch_worker(xm, args.keys, kDefaultBatch, 7));
    if (xspec.counters) note_counters(xb.counters);
    print_row("fig_cxl", "xnode/DLHT", threads, xb.mreqs_per_sec, "Mreq/s");
    const auto xs = workload::run_for(
        xspec, workload::make_get_worker(xm, args.keys, 7));
    if (xspec.counters) note_counters(xs.counters);
    print_row("fig_cxl", "xnode/DLHT-NoBatch", threads, xs.mreqs_per_sec,
              "Mreq/s");
    check_shape("batching hides real cross-node latency",
                xb.mreqs_per_sec > xs.mreqs_per_sec);
  } else {
    std::printf("# xnode skip: single NUMA node host\n");
  }
  return 0;
}
