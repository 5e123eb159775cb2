// Map construction + generic measurement helpers shared by the comparison
// benches (Figs. 1, 3, 4, 5, 6, 7).
//
// Naming follows Table 3: DLHT (batched), DLHT-NoBatch, CLHT, GrowT, Folly,
// DRAMHiT, MICA, Cuckoo, Leapfrog. The paper's TBB has no stand-in: a
// locked map under that name would only rerun Locked. Baselines are sized
// so the prepopulated working set fits their design's comfort zone (open
// addressing gets 4x capacity; growt needs headroom over its 30 % trigger).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "dlht/dlht.hpp"
#include "workload/driver.hpp"
#include "workload/mixes.hpp"

namespace dlht::bench {

// dlht_options (the paper's default table geometry) lives in
// bench_common.hpp so micro_ops' shape check measures the same
// configuration as the figure benches.

template <class WorkerFactory>
double run_tput(int threads, double seconds, WorkerFactory&& wf) {
  workload::RunSpec spec{.threads = threads, .seconds = seconds};
  spec.counters = counters_enabled();
  const auto r = workload::run_for(spec, std::forward<WorkerFactory>(wf));
  if (spec.counters) note_counters(r.counters);
  return r.mreqs_per_sec;
}

/// Measure the Get workload for one map. batch > 1 engages each design's
/// own prefetch-batching mechanism where one exists.
template <class M>
double get_tput(M& m, std::uint64_t keys, int threads, double seconds,
                std::size_t batch) {
  if (batch > 1) {
    if constexpr (workload::DlhtLikeMap<M>) {
      return run_tput(threads, seconds,
                      workload::make_get_batch_worker(m, keys, batch, 7));
    } else if constexpr (requires { M::Op::kFind; }) {
      // DRAMHiT-style reordering batch.
      using Rq = typename M::Request;
      using Rp = typename M::Reply;
      return run_tput(threads, seconds, [&m, keys, batch](int tid) {
        return [&m, keys, batch,
                gen = UniformGenerator(keys, splitmix64(7 + tid)),
                reqs = std::vector<Rq>(batch),
                reps = std::vector<Rp>(batch)]() mutable {
          for (std::size_t i = 0; i < batch; ++i) {
            reqs[i] = Rq{M::Op::kFind, gen.next() + 1, 0};
          }
          m.execute_batch(reqs.data(), reps.data(), batch);
          return batch;
        };
      });
    } else if constexpr (requires(M& x, const std::uint64_t* k,
                                  baselines::Lookup* o) {
                           x.get_batch(k, o, std::size_t{1});
                         }) {
      // MICA-style two-stage prefetch batch.
      return run_tput(threads, seconds, [&m, keys, batch](int tid) {
        return [&m, keys, batch,
                gen = UniformGenerator(keys, splitmix64(7 + tid)),
                ks = std::vector<std::uint64_t>(batch),
                out = std::vector<baselines::Lookup>(batch)]() mutable {
          for (std::size_t i = 0; i < batch; ++i) ks[i] = gen.next() + 1;
          m.get_batch(ks.data(), out.data(), batch);
          return batch;
        };
      });
    }
  }
  return run_tput(threads, seconds, workload::make_get_worker(m, keys, 7));
}

/// Measure the InsDel workload for one map.
template <class M>
double insdel_tput(M& m, std::uint64_t prepopulated, int threads,
                   double seconds, std::size_t batch) {
  if constexpr (workload::DlhtLikeMap<M>) {
    if (batch > 1) {
      return run_tput(
          threads, seconds,
          workload::make_insdel_batch_worker(m, prepopulated, threads, batch));
    }
  }
  return run_tput(threads, seconds,
                  workload::make_insdel_worker(m, prepopulated, threads));
}

/// Measure the PutHeavy workload (50 % Get / 50 % Put).
template <class M>
double putheavy_tput(M& m, std::uint64_t keys, int threads, double seconds,
                     std::size_t batch) {
  if constexpr (workload::DlhtLikeMap<M>) {
    if (batch > 1) {
      return run_tput(threads, seconds,
                      workload::make_putheavy_batch_worker(m, keys, batch, 9));
    }
  }
  return run_tput(threads, seconds,
                  workload::make_putheavy_worker(m, keys, 9));
}

inline constexpr std::size_t kDefaultBatch = 24;

/// Rough peak-RSS estimate (bytes) for the table a comparison bench builds
/// for design `name` at population `keys`. The formulas mirror the
/// constructor arguments the fig01/fig03 blocks actually pass (GrowT gets
/// keys*8 cells, open addressing keys*4, Robin Hood keys*2, ...), so the
/// paper profile's RSS guard can refuse *before* the first allocation.
/// Deliberately conservative-but-rough: the guard adds headroom on top.
inline std::uint64_t map_footprint_bytes(const std::string& name,
                                         std::uint64_t keys) {
  const auto p2 = [](std::uint64_t x) {
    return static_cast<std::uint64_t>(
        ceil_pow2(static_cast<std::size_t>(x)));
  };
  if (name == "dlht") {
    const std::uint64_t bins = keys * 2 / 3 + 64;  // dlht_options geometry
    return bins * 64 + bins / 8 * 64;
  }
  if (name == "clht") return p2(keys) * 64 + keys * 16;
  if (name == "growt") return p2(keys * 8) * 16;
  if (name == "folly" || name == "dramhit" || name == "leapfrog") {
    return p2(keys * 4) * 16;
  }
  if (name == "mica") return p2(keys / 4 + 16) * 64 + keys * 32;
  if (name == "cuckoo") return p2(keys * 2) * 32;
  if (name == "locked") return keys * 64;
  if (name == "rh") {
    return (p2(keys * 2) + baselines::RobinHoodMap<>::kMaxProbe) * 24;
  }
  if (name == "mm") return p2(keys) * 8 + keys * 48;
  return keys * 64;
}

/// The paper-profile guard for a comparison bench: the blocks run one at a
/// time (each table is destroyed before the next is built), so the peak is
/// the *largest enabled* design, not the sum.
inline void guard_comparison_rss(const Args& args, const char* fig) {
  std::uint64_t peak = 0;
  for (const char* name : kMapNames) {
    if (!args.map_enabled(name)) continue;
    const std::uint64_t b = map_footprint_bytes(name, args.keys);
    if (b > peak) peak = b;
  }
  require_memory_or_die(fig, peak);
}

}  // namespace dlht::bench
