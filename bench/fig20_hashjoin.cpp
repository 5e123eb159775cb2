// Figure 20: non-partitioned hash join (workload A of Lutz et al.) vs
// threads: throughput = (|R| + |S|) / runtime.
//
// Paper shape: batched probing reaches ~2.2x the unbatched join; throughput
// scales with threads. Paper sizes: |R| = 2^27, |S| = 2^31; scaled here
// (|S| = 16 |R| preserved).
#include <atomic>

#include "apps/hashjoin.hpp"
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

namespace {

double run_join(const apps::JoinRelations& rel, int threads, bool batched,
                std::uint64_t expect) {
  InlinedMap m(Options{
      .initial_bins = rel.build.size() * 2 / 3 + 64,
      .link_ratio = 0.125});
  std::atomic<std::uint64_t> acc{0};
  const double secs = workload::run_once(threads, [&](int tid) {
    return [&, tid]() {
      const std::size_t bper = rel.build.size() / threads;
      const std::size_t blo = tid * bper;
      const std::size_t bhi =
          tid == threads - 1 ? rel.build.size() : blo + bper;
      apps::join_build(m, rel, blo, bhi);
      // No barrier between build and probe per thread: workload A probes
      // only keys guaranteed built? No — probe needs the FULL build. Use a
      // simple spin barrier via atomic counter.
      static std::atomic<int> built{0};
      static std::atomic<int> generation{0};
      const int gen = generation.load();
      if (built.fetch_add(1) + 1 == threads) {
        built.store(0);
        generation.fetch_add(1);
      } else {
        while (generation.load() == gen) cpu_relax();
      }
      const std::size_t pper = rel.probe.size() / threads;
      const std::size_t plo = tid * pper;
      const std::size_t phi =
          tid == threads - 1 ? rel.probe.size() : plo + pper;
      acc.fetch_add(batched ? apps::join_probe_batched(m, rel, plo, phi)
                            : apps::join_probe(m, rel, plo, phi));
    };
  });
  if (acc.load() != expect) std::printf("# WARN: join checksum mismatch\n");
  return static_cast<double>(rel.build.size() + rel.probe.size()) / secs / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  print_header("fig20", "non-partitioned hash join (workload A)");

  const std::size_t build = static_cast<std::size_t>(
      std::min<std::uint64_t>(args.keys / 4, 1u << 22));
  const auto rel = apps::make_workload_a(build, build * 16);
  const std::uint64_t expect = apps::join_reference(rel);

  double batched_peak = 0, nobatch_peak = 0;
  for (const int t : args.threads_list) {
    const double v = run_join(rel, t, true, expect);
    batched_peak = std::max(batched_peak, v);
    print_row("fig20", "DLHT", t, v, "Mtuples/s");
  }
  for (const int t : args.threads_list) {
    const double v = run_join(rel, t, false, expect);
    nobatch_peak = std::max(nobatch_peak, v);
    print_row("fig20", "DLHT-NoBatch", t, v, "Mtuples/s");
  }

  check_shape("batched probe beats unbatched", batched_peak > nobatch_peak);
  return 0;
}
