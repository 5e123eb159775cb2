// Measurement helpers shared by the benches, and run_designs, which builds
// the comparison figures' opponents (Figs. 1, 3, 5, 6, 16) from the
// kDesigns registry in bench_common.hpp.
#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
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

/// A bench's own list of kDesigns names.
using DesignNames = std::initializer_list<const char*>;

/// Run f(design, table) for each design of `names` that --map enables, in
/// list order: a fresh table sized for `keys` keys holding keys
/// 1..`populate`. Each table is destroyed before the next is built.
template <class F>
void run_designs(const Args& args, DesignNames names, std::uint64_t keys,
                 std::uint64_t populate, F&& f) {
  for (const char* name : names) {
    if (!args.map_enabled(name)) continue;
    for_each_design([&](const auto& d) {
      if (std::string_view(d.name) != name) return;
      auto m = d.make(keys);
      if (populate != 0) workload::populate(m, populate);
      f(d, m);
    });
  }
}

/// The paper-profile guard for a bench that builds the designs of `names`
/// at --keys one at a time (run_designs), so the peak is the largest
/// enabled design, not the sum.
inline void guard_comparison_rss(const Args& args, const char* fig,
                                 DesignNames names) {
  std::uint64_t peak = 0;
  for (const char* name : names) {
    if (!args.map_enabled(name)) continue;
    for_each_design([&](const auto& d) {
      if (std::string_view(d.name) == name) {
        peak = std::max(peak, d.footprint(args.keys));
      }
    });
  }
  require_memory_or_die(fig, peak);
}

}  // namespace dlht::bench
