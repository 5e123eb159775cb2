// fig_recovery: the durable tier's cost model (not a paper figure — this
// reproduction's durability extension).
//
// Four numbers a KV-node operator needs:
//   1. WAL-on ingest throughput, scalar, in batches of 24 (one
//      execute_batch each) and from 4 writer threads on disjoint key
//      ranges (a thread logs into its own thread's WAL shard), and
//      write amplification (WAL bytes per logical byte ingested),
//   2. checkpoint cost (snapshot MB/s while the table serves),
//   3. cold recovery from a snapshot + WAL suffix (keys/s back to serving),
//   4. cold recovery from WAL replay alone (the no-checkpoint worst case);
//      each recovery also prints its split from DurableDLHT::Stats: the
//      key partitions its replay ran on and the time of its validation
//      and replay passes.
//
// DLHT_WAL_DIR picks the durable directory (a tmpfs vs a real disk is the
// whole story for 1 and 2); group commit runs at DurabilityOptions'
// defaults. Enforced shape: recovery restores every key.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "dlht/durability.hpp"

using namespace dlht;
using namespace dlht::bench;

namespace {

constexpr std::uint64_t val_of(std::uint64_t k) {
  return (k * 2654435761ull) | 1ull;
}

// Logical payload per op for the write-amplification ratio: 8B key + 8B
// value, the table's fixed record.
constexpr double kLogicalBytes = 16.0;

/// Where a recovery's time went, from DurableDLHT::Stats: the key
/// partitions its replay ran on, and its validation and replay passes.
void print_recovery_split(const std::string& series, std::uint64_t keys,
                          const DurableDLHT::Stats& s) {
  const double x = static_cast<double>(keys);
  print_row("fig_recovery", series + "/partitions", x,
            static_cast<double>(s.recovery_partitions), "threads");
  print_row("fig_recovery", series + "/validate", x,
            static_cast<double>(s.recovery_validate_ns) / 1e6, "ms");
  print_row("fig_recovery", series + "/replay", x,
            static_cast<double>(s.recovery_replay_ns) / 1e6, "ms");
}

void remove_tree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const std::uint64_t suffix = keys / 4;
  print_header("fig_recovery",
               "durable tier: ingest, write amp, checkpoint, recovery");

  const std::string base =
      wal_dir_or("/tmp") + "/dlht_fig_recovery." + std::to_string(::getpid());
  const std::string dir_snap = base + ".snap";
  const std::string dir_wal = base + ".walonly";
  const std::string dir_batch = base + ".batch";
  const std::string dir_4w = base + ".4w";
  remove_tree(dir_snap);
  remove_tree(dir_wal);
  remove_tree(dir_batch);
  remove_tree(dir_4w);

  Options o = dlht_options(keys);
  double ingest_mops = 0, walonly_recover_mkeys = 0;

  // --- 1. ingest with the WAL on + write amplification ------------------
  std::uint64_t wal_bytes = 0, snapshot_bytes = 0;
  {
    DurableDLHT db(o, DurabilityOptions{dir_snap});
    if (db.open() != Status::kOk) {
      std::fprintf(stderr, "fig_recovery: cannot open %s\n", dir_snap.c_str());
      return 1;
    }
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t k = 1; k <= keys; ++k) db.put(k, val_of(k));
    db.wal_sync();
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    ingest_mops = static_cast<double>(keys) / secs / 1e6;
    wal_bytes = db.stats().wal_bytes;
    print_row("fig_recovery", "Ingest-WAL/tput", static_cast<double>(keys),
              ingest_mops, "Mops/s");
    print_row("fig_recovery", "WAL/write-amp", static_cast<double>(keys),
              static_cast<double>(wal_bytes) /
                  (static_cast<double>(keys) * kLogicalBytes),
              "x");

    // --- 2. checkpoint cost --------------------------------------------
    const std::uint64_t c0 = now_ns();
    const Status cs = db.checkpoint();
    const double csecs = static_cast<double>(now_ns() - c0) / 1e9;
    snapshot_bytes = db.stats().snapshot_bytes;
    check_shape("checkpoint succeeds", cs == Status::kOk);
    print_row("fig_recovery", "Checkpoint/time", static_cast<double>(keys),
              csecs * 1e3, "ms");
    print_row("fig_recovery", "Checkpoint/stream",
              static_cast<double>(keys),
              static_cast<double>(snapshot_bytes) / csecs / 1e6, "MB/s");

    // --- post-checkpoint suffix for the replay half of recovery --------
    for (std::uint64_t k = keys + 1; k <= keys + suffix; ++k) {
      db.put(k, val_of(k));
    }
    db.wal_sync();
  }

  // --- 1b. the same ingest through execute_batch, 24 puts per call -------
  {
    DurableDLHT db(o, DurabilityOptions{dir_batch});
    if (db.open() != Status::kOk) return 1;
    constexpr std::size_t kBatch = 24;
    DurableDLHT::Request reqs[kBatch];
    DurableDLHT::Reply reps[kBatch];
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t k = 1; k <= keys; k += kBatch) {
      const std::size_t n = std::min<std::uint64_t>(kBatch, keys + 1 - k);
      for (std::size_t j = 0; j < n; ++j) {
        reqs[j] = {OpType::kPut, k + j, val_of(k + j), 0};
      }
      db.execute_batch(reqs, reps, n);
    }
    db.wal_sync();
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    print_row("fig_recovery", "Ingest-WAL-batch24/tput",
              static_cast<double>(keys),
              static_cast<double>(keys) / secs / 1e6, "Mops/s");
  }
  remove_tree(dir_batch);

  // --- 1c. the same puts from 4 threads, each on its own key range -------
  {
    DurableDLHT db(o, DurabilityOptions{dir_4w});
    if (db.open() != Status::kOk) return 1;
    constexpr std::uint64_t kWriters = 4;
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> writers;
    for (std::uint64_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&db, keys, w] {
        const std::uint64_t end = keys * (w + 1) / kWriters;
        for (std::uint64_t k = keys * w / kWriters + 1; k <= end; ++k) {
          db.put(k, val_of(k));
        }
      });
    }
    for (std::thread& t : writers) t.join();
    db.wal_sync();
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    print_row("fig_recovery", "Ingest-WAL-4w/tput", static_cast<double>(keys),
              static_cast<double>(keys) / secs / 1e6, "Mops/s");
  }
  remove_tree(dir_4w);

  // --- 3. recovery: snapshot + WAL suffix ------------------------------
  {
    const std::uint64_t t0 = now_ns();
    DurableDLHT db(o, DurabilityOptions{dir_snap});
    if (db.open() != Status::kOk) return 1;
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    const auto s = db.stats();
    const std::uint64_t total = keys + suffix;
    print_row("fig_recovery", "Recover-snap+wal/time",
              static_cast<double>(total), secs * 1e3, "ms");
    print_row("fig_recovery", "Recover-snap+wal/rate",
              static_cast<double>(total),
              static_cast<double>(total) / secs / 1e6, "Mkeys/s");
    print_row("fig_recovery", "Recover-snap+wal/replayed",
              static_cast<double>(total),
              static_cast<double>(s.replayed_records), "records");
    print_recovery_split("Recover-snap+wal", total, s);
    check_shape("recovery loaded a snapshot", s.recovered_snapshot_lsn > 0);
    check_shape("WAL replay covered the post-snapshot suffix",
                s.replayed_records >= suffix);
    bool all_present = db.approx_size() == static_cast<std::int64_t>(total);
    for (std::uint64_t k = 1; k <= total && all_present; ++k) {
      all_present = db.get(k).value_or(0) == val_of(k);
    }
    check_shape("recovery restores every key", all_present);
  }
  remove_tree(dir_snap);

  // --- 4. recovery: WAL replay only (never checkpointed) ---------------
  {
    DurableDLHT db(o, DurabilityOptions{dir_wal});
    if (db.open() != Status::kOk) return 1;
    for (std::uint64_t k = 1; k <= suffix; ++k) db.put(k, val_of(k));
    db.wal_sync();
  }
  {
    const std::uint64_t t0 = now_ns();
    DurableDLHT db(o, DurabilityOptions{dir_wal});
    if (db.open() != Status::kOk) return 1;
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    walonly_recover_mkeys = static_cast<double>(suffix) / secs / 1e6;
    print_row("fig_recovery", "Recover-wal-only/time",
              static_cast<double>(suffix), secs * 1e3, "ms");
    print_row("fig_recovery", "Recover-wal-only/rate",
              static_cast<double>(suffix), walonly_recover_mkeys, "Mkeys/s");
    print_recovery_split("Recover-wal-only", suffix, db.stats());
    bool all_present = db.approx_size() == static_cast<std::int64_t>(suffix);
    for (std::uint64_t k = 1; k <= suffix && all_present; ++k) {
      all_present = db.get(k).value_or(0) == val_of(k);
    }
    check_shape("WAL-only recovery restores every key", all_present);
  }
  remove_tree(dir_wal);

  check_shape("write amplification >= 1 (a WAL never writes less than data)",
              static_cast<double>(wal_bytes) >=
                  static_cast<double>(keys) * kLogicalBytes);
  return 0;
}
