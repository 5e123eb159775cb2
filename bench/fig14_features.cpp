// Figure 14: the cost (and worth) of each design feature, measured by
// ablation — run the same workloads with one feature disabled at a time
// via Options::Ablation (plus the batching toggle, which is a call-site
// choice):
//
//   Default        everything on (the paper's design)
//   NoFingerprints probes compare full keys in every valid slot
//   NoLinkChains   bounded one-line index: chain-full inserts fail
//   NoInplace      puts republish through the two-phase shadow path
//   NoSimdProbe    batched probes forced onto the portable SWAR engine
//                  (probe_strategy = kSwar, the DLHT_PROBE=swar table)
//   NoBatch        scalar Gets instead of the prefetch pipeline
//
// Each config reports Get and PutHeavy throughput; NoLinkChains also
// reports how much of the key set it could hold at all (the capacity the
// chains buy). The Options toggles are reachable in every bench via
// DLHT_ABLATION=nofp,nolink,noinplace and the SWAR engine via
// DLHT_PROBE=swar. The timing shape checks compare Default with each
// ablation in interleaved slices (bench::interleaved_mops), so host drift
// hits both sides alike.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

namespace {

std::unique_ptr<InlinedMap> populated(const Options& opts,
                                      std::uint64_t keys) {
  auto m = std::make_unique<InlinedMap>(opts);
  workload::populate(*m, keys);
  return m;
}

/// Share of the key set the table could hold.
double populated_pct(const InlinedMap& m, std::uint64_t keys) {
  return 100.0 * static_cast<double>(m.approx_size()) /
         static_cast<double>(keys);
}

void bench_config(const char* name, const Args& args, InlinedMap& m,
                  bool batched) {
  const std::uint64_t keys = args.keys;
  const int threads = args.threads_list.back();
  const double secs = args.seconds();

  const double get =
      batched ? run_tput(threads, secs,
                         workload::make_get_batch_worker(m, keys,
                                                         kDefaultBatch, 7))
              : run_tput(threads, secs, workload::make_get_worker(m, keys, 7));
  print_row("fig14", std::string(name) + "/Get", 0, get, "Mreq/s");

  const double putheavy = run_tput(
      threads, secs, workload::make_putheavy_worker(m, keys, 9));
  print_row("fig14", std::string(name) + "/PutHeavy", 0, putheavy, "Mreq/s");
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  args.keys = std::min<std::uint64_t>(args.keys, 1u << 20);
  const std::uint64_t keys = args.keys;
  print_header("fig14", "feature ablations (one disabled at a time)");

  const Options base = dlht_options(keys);
  Options nofp = base;
  nofp.ablation.fingerprints = false;
  Options nolink = base;
  nolink.ablation.link_chains = false;
  Options noip = base;
  noip.ablation.inplace_updates = false;
  Options nosimd = base;
  nosimd.probe_strategy = ProbeStrategy::kSwar;

  // Tables the paired shape checks below reuse stay alive.
  const auto def_map = populated(base, keys);
  const auto nofp_map = populated(nofp, keys);
  const auto noip_map = populated(noip, keys);
  const auto nosimd_map = populated(nosimd, keys);

  bench_config("Default", args, *def_map, true);
  bench_config("NoFingerprints", args, *nofp_map, true);
  double nolink_pct = 0;
  {
    const auto nolink_map = populated(nolink, keys);
    bench_config("NoLinkChains", args, *nolink_map, true);
    nolink_pct = populated_pct(*nolink_map, keys);
  }
  print_row("fig14", "NoLinkChains/populated", 0, nolink_pct, "%");
  bench_config("NoInplace", args, *noip_map, true);
  bench_config("NoSimdProbe", args, *nosimd_map, true);
  bench_config("NoBatch", args, *def_map, false);

  // Paired per-op costs, one thread: Default's batched Gets against each
  // Get ablation, and Default's PutHeavy against shadow-write puts.
  std::vector<std::function<std::size_t()>> gets = {
      workload::make_get_batch_worker(*def_map, keys, kDefaultBatch, 7)(0),
      workload::make_get_batch_worker(*nofp_map, keys, kDefaultBatch, 7)(0),
      workload::make_get_batch_worker(*nosimd_map, keys, kDefaultBatch, 7)(0),
      workload::make_get_worker(*def_map, keys, 7)(0)};
  const std::vector<double> get = interleaved_mops(gets, args.seconds());
  std::vector<std::function<std::size_t()>> puts = {
      workload::make_putheavy_worker(*def_map, keys, 9)(0),
      workload::make_putheavy_worker(*noip_map, keys, 9)(0)};
  const std::vector<double> put = interleaved_mops(puts, args.seconds());
  std::printf("# paired slices (Mreq/s): Get default %.2f nofp %.2f nosimd "
              "%.2f nobatch %.2f; PutHeavy default %.2f noinplace %.2f\n",
              get[0], get[1], get[2], get[3], put[0], put[1]);

  // The deterministic claims: chains buy capacity (a bounded index cannot
  // hold the whole key set), and in-place updates are cheaper than the
  // three-lock shadow republish. The rest are cache-sensitive: report them
  // as warnings at smoke scale.
  check_shape("link chains buy capacity (full population needs them)",
              populated_pct(*def_map, keys) > 99.9 && nolink_pct < 99.9);
  check_shape("in-place updates beat shadow-write puts", put[0] > put[1]);
  check_shape("fingerprints speed up probes", get[0] > get[1]);
  // Equal when the host dispatches SWAR anyway (no SIMD to ablate).
  check_shape("SIMD probe >= SWAR probe on batched Gets",
              get[0] >= get[2] * 0.95);
  check_shape("batched Gets beat scalar (DRAM-resident tables)",
              get[0] > get[3]);
  return 0;
}
