// Design-choice ablations: the knobs the paper fixes by design, swept to
// show WHY those values were chosen.
//
//   A. Chaining. Two real axes:
//      (1) Provisioned link pool (Options::link_ratio, bins/2 ... bins/32).
//          The resize trigger is a load factor over the *main* slots, so
//          the key count at the first resize is the same for every ratio —
//          what the ratio changes is how many provisioned slots sit in the
//          allocation when it fires: a generous pool means resizing at a
//          lower occupancy of allocated memory (§5.1.5's tradeoff).
//      (2) Chain load (bins per key): denser tables push more keys into
//          link chains, so Gets touch more cache lines. This, not the pool
//          size, is what bounds accesses-per-Get.
//   B. Resize chunk size (Options::resize_chunk_bins, 256 ... 64K bins per
//      claim): tiny chunks maximize helper parallelism but pay a cursor
//      FAA per chunk; huge chunks serialize the migration tail.
//   C. Growth factor (Options::growth_factor): the adaptive 8/4/2 policy
//      (0) vs flat x2/x4/x8 — population time from a tiny table including
//      every repeated migration, and how many migrations each policy runs.
#include <algorithm>
#include <string>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  args.keys = std::min<std::uint64_t>(args.keys, 1u << 20);
  const int threads = args.threads_list.back();
  const double secs = args.seconds();
  print_header("ablation",
               "design-choice ablations (chaining, chunks, growth)");

  // --- A1: provisioned link pool — same trigger key count every time, so
  // the occupancy of *allocated* slots at the first resize falls as the
  // pool grows. Totals come from the table's own stats (pre-insert
  // provisioning), not a re-derivation of its sizing rules.
  constexpr std::size_t kOccBins = 1 << 14;
  double occ_widest = 0, occ_narrowest = 0;
  for (const double ratio : {0.5, 0.25, 0.125, 0.0625, 0.03125}) {
    Options o;
    o.initial_bins = kOccBins;
    o.link_ratio = ratio;
    InlinedMap m(apply_env_knobs(o));
    const auto st0 = m.stats();
    const std::size_t total =
        (st0.bins + st0.links_capacity) * kSlotsPerBucket;
    std::uint64_t k = 0;
    while (m.resizes_completed() == 0) {
      ++k;
      m.insert(k, k);
    }
    const double occ =
        100.0 * static_cast<double>(k) / static_cast<double>(total);
    print_row("ablation", "chaining/occupancy-at-resize", ratio * 100, occ,
              "%");
    if (ratio == 0.5) occ_widest = occ;
    if (ratio == 0.03125) occ_narrowest = occ;
  }

  // --- A2: chain load — fix the key count, shrink the main array, and
  // watch keys spill into link chains (links_used rises) while Gets pay
  // the extra cache lines per probe. max_load_factor is lifted so the
  // dense points exist at all instead of resizing away.
  double get_sparse = 0, get_dense = 0;
  for (const double bins_per_key : {1.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0}) {
    Options o = dlht_options(args.keys);
    o.initial_bins =
        static_cast<std::size_t>(static_cast<double>(args.keys) *
                                 bins_per_key) + 64;
    o.max_load_factor = 1e9;
    InlinedMap m(o);
    workload::populate(m, args.keys);
    const auto st = m.stats();
    print_row("ablation", "chain-load/link-buckets-used", bins_per_key,
              static_cast<double>(st.links_used), "buckets");
    const double g = get_tput(m, args.keys, threads, secs, kDefaultBatch);
    print_row("ablation", "chain-load/get-tput", bins_per_key, g, "Mreq/s");
    if (bins_per_key == 1.0) get_sparse = g;
    if (bins_per_key == 1.0 / 6.0) get_dense = g;
  }

  // --- B: resize chunk size — wall time of one forced full migration
  // while the other threads hammer inserts (and so become helpers).
  for (const std::size_t chunk : {256u, 1024u, 4096u, 16384u, 65536u}) {
    Options o = dlht_options(args.keys);
    o.resize_chunk_bins = chunk;
    InlinedMap m(o);
    workload::populate(m, args.keys);
    const std::uint64_t before = m.resizes_completed();
    const double migrate_secs = workload::run_once(threads, [&m, before,
                                                             threads](int tid) {
      return [&m, before, threads, tid] {
        if (tid == 0) {
          m.grow_now();
        } else {
          std::uint64_t i = 0;
          while (m.resizes_completed() == before) {
            const std::uint64_t k = (std::uint64_t{1} << 40) +
                                    static_cast<std::uint64_t>(tid) * 1000000 +
                                    (i++ % 1000000);
            m.insert(k, k);
            m.erase(k);
          }
        }
        (void)threads;
      };
    });
    print_row("ablation", "resize-chunk/migration-time",
              static_cast<double>(chunk), migrate_secs * 1000, "ms");
  }

  // --- C: growth factor — build from 1024 bins to args.keys entries;
  // smaller factors migrate logarithmically more often on the way up.
  std::uint64_t resizes_x2 = 0, resizes_x8 = 0;
  for (const std::size_t factor : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    Options o;
    o.initial_bins = 1024;
    o.growth_factor = factor;
    InlinedMap m(apply_env_knobs(o));
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t k = 1; k <= args.keys; ++k) m.insert(k, k);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    const std::string name =
        factor == 0 ? std::string("growth/policy-842")
                    : "growth/flat-x" + std::to_string(factor);
    print_row("ablation", name, static_cast<double>(factor),
              static_cast<double>(args.keys) / s / 1e6, "Minserts/s");
    print_row("ablation", name + "/migrations", static_cast<double>(factor),
              static_cast<double>(m.resizes_completed()), "count");
    if (factor == 2) resizes_x2 = m.resizes_completed();
    if (factor == 8) resizes_x8 = m.resizes_completed();
  }

  std::puts(
      "# ablation notes: generous link pools lower allocated-slot occupancy"
      " at resize; chain load (bins per key), not pool size, bounds"
      " accesses per Get; chunk sizes sit on a flat curve until the tail"
      " serializes; small growth factors migrate log(N) times more often.");
  check_shape("narrower link pools raise allocated-slot occupancy at resize",
              occ_narrowest > occ_widest);
  check_shape("denser tables chain more and Gets pay for it",
              get_dense < get_sparse);
  check_shape("x8 growth reaches size in fewer migrations than x2",
              resizes_x8 < resizes_x2);
  return 0;
}
