// Table 1 + §5.1.5: the feature matrix (static, from the design) and the
// measured occupancy-until-resize study.
//
// Occupancy protocol (§5.1.5): populate a growing index until its resize
// condition first fires; occupancy = live keys / total slots at that
// moment. DLHT resizes by load-factor policy (0.75 of the main slots) and
// its link chains keep absorbing collisions until then, so it reaches
// 55-80 % (paper: 63-72 % with link buckets = bins/5). CLHT "resizes" the
// first time any bin overflows its three slots — single-digit occupancy.
// GrowT-style open addressing resizes at its 30 % fill policy by
// construction.
#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  (void)args;
  print_header("tab01", "feature matrix + occupancy until resize");

  std::puts(
      "# design    | addressing | lock-free ops | deletes-free-slots | "
      "resize             | prefetch | inline");
  std::puts(
      "# DLHT      | closed     | yes           | yes                | "
      "parallel,non-block | yes      | yes");
  std::puts(
      "# CLHT      | closed     | yes           | yes                | "
      "serial,blocking    | no       | yes");
  std::puts(
      "# GrowT     | open       | yes           | tombstone          | "
      "parallel,blocking  | no       | yes");
  std::puts(
      "# Folly     | open       | yes           | tombstone,never    | "
      "none               | no       | yes");
  std::puts(
      "# DRAMHiT   | open       | upsert-only   | tombstone,never    | "
      "none               | yes      | yes");
  std::puts(
      "# MICA      | closed     | lock-based    | yes                | "
      "none               | yes      | no");
  std::puts(
      "# RobinHood | open       | lock-based    | backward-shift     | "
      "none               | yes      | yes");
  std::puts(
      "# MagedM.   | chained    | yes           | yes                | "
      "none               | heads    | no");

  constexpr std::size_t kBins = 1 << 14;

  // --- DLHT occupancy, link_ratio = 1/5 as in §5.1.5. Keys inserted until
  // the first shadow migration completes, counted against every slot the
  // original generation owned (main + link pool).
  {
    Options o;
    o.initial_bins = kBins;
    o.link_ratio = 0.2;
    InlinedMap m(apply_env_knobs(o));
    // Slot total of the generation being filled, read from the table
    // itself (main bins + provisioned link pool) before any insert.
    const auto st0 = m.stats();
    const std::size_t total =
        (st0.bins + st0.links_capacity) * kSlotsPerBucket;
    std::uint64_t k = 0;
    while (m.resizes_completed() == 0) {
      ++k;
      m.insert(k, k);
    }
    const double occ = static_cast<double>(k) / static_cast<double>(total);
    print_row("tab01", "DLHT/occupancy", 0, occ * 100.0, "%");
    check_shape("DLHT occupancy in the paper's 55-80% band",
                occ > 0.55 && occ < 0.80);
  }

  // --- CLHT-like: resizes() counts the first bin overflow.
  {
    baselines::ClhtLike<> m(kBins);
    const std::size_t total = kBins * 3;
    std::uint64_t k = 0;
    while (m.resizes() == 0) {
      ++k;
      m.insert(k, k);
    }
    const double occ = static_cast<double>(k) / static_cast<double>(total);
    print_row("tab01", "CLHT/occupancy", 0, occ * 100.0, "%");
    check_shape("CLHT occupancy collapses (< 35%)", occ < 0.35);
  }

  // --- GrowT: resizes at its 30 % fill policy by construction.
  {
    baselines::GrowtLike<> m(kBins, 0.30);
    std::uint64_t k = 0;
    while (m.migrations() == 0) {
      ++k;
      m.insert(k, k);
    }
    const double occ = static_cast<double>(k) / static_cast<double>(kBins);
    print_row("tab01", "GrowT/occupancy", 0, occ * 100.0, "%");
    check_shape("GrowT resizes at ~30% fill", occ > 0.25 && occ < 0.40);
  }

  // --- Robin Hood: no resize at all — it refuses (kFull) once an insert
  // would push any probe distance past its bound. Occupancy at the first
  // refusal is the analogue of occupancy-until-resize: displacement
  // ordering keeps probe runs short, so a 512-slot bound on a 2^14 table
  // carries it well past the tombstoning designs before the first kFull.
  {
    baselines::RobinHoodMap<> m(kBins);
    const std::size_t total = kBins + baselines::RobinHoodMap<>::kMaxProbe;
    std::uint64_t k = 0;
    std::uint64_t live = 0;
    while (m.full_rejects() == 0 && k < total) {
      ++k;
      if (m.insert(k, k)) ++live;
    }
    const double occ = static_cast<double>(live) / static_cast<double>(total);
    print_row("tab01", "RobinHood/occupancy", 0, occ * 100.0, "%");
    check_shape("RobinHood sustains > 50% before first kFull", occ > 0.50);
  }
  return 0;
}
