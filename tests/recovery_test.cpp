// Crash-recovery matrix for the durable tier (include/dlht/durability.hpp):
// clean snapshot round trips, WAL-only and snapshot+suffix recovery, torn
// tails, bit-flipped CRCs (tail and mid-file), fail-at-Nth-sync degrade to
// memory mode, RMW logging, checkpoint GC, the batched write path (batch ==
// scalar, in-batch fsync failure, batched writers beside checkpoints),
// thread-owned WAL shards (one key sequence split across two shards,
// per-key order across racing shards, one writer fills one shard, a no-op
// logs nothing), streamed recovery (LSN merge across segments, the task
// runner of its parallel passes, a partitioned replay equal to a serial
// one, a read error in either pass, a replay under a low descriptor limit,
// a corrupt newest snapshot, a memory bound for the log and for the
// snapshot), a resize that fails mid-batch, CRC32C known answers, a fuzz
// pass over the WAL and snapshot decoders (random bytes + every
// truncation; run under ASan/UBSan in CI), the streaming WalReader
// checked against wal_decode, the streamed snapshot cut around its chunk
// frames and buffer fills, a snapshot footer count or chunk length that
// must be refused, and the WAL shard lock (mutual exclusion, try_lock,
// waiters that park instead of spinning). The SIGKILL-mid-churn variant
// lives in kill_recover_test.sh.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "dlht/durability.hpp"

namespace dlht {

/// Opens a DurableDLHT with its recovery replay on a chosen number of key
/// partitions (open() uses one per CPU the process may run on).
struct RecoveryTestHook {
  static Status open(DurableDLHT& db, std::size_t partitions) {
    return db.open_on(partitions);
  }
};

}  // namespace dlht

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

using namespace dlht;

constexpr std::uint64_t val_of(std::uint64_t k) { return (k << 8) | 0x5au; }

Options small_options() {
  Options o;
  o.initial_bins = 512;  // recovery replays across live resizes
  return o;
}

DurabilityOptions wal(const std::string& dir, unsigned shards = 4,
                      FaultSpec* faults = nullptr) {
  DurabilityOptions d{dir, shards, faults};
  d.wal_fsync_interval_ops = 8;
  d.wal_group_commit_us = 0;  // deterministic: no background committer
  return d;
}

// ------------------------------------------------------------ tmp dirs

std::string make_dir() {
  char tmpl[] = "/tmp/dlht_recovery_XXXXXX";
  const char* d = mkdtemp(tmpl);
  CHECK(d != nullptr);
  return d != nullptr ? d : "/tmp/dlht_recovery_fallback";
}

void remove_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::vector<std::string> files_starting(const std::string& dir,
                                        const char* prefix) {
  std::vector<std::string> out;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.' &&
          std::strncmp(e->d_name, prefix, std::strlen(prefix)) == 0) {
        out.push_back(dir + "/" + e->d_name);
      }
    }
    ::closedir(d);
  }
  return out;
}

std::vector<std::string> wal_files(const std::string& dir) {
  return files_starting(dir, "wal-");
}

// A WAL file that holds records. A writer thread logs into its own shard
// only, so after a single-thread run the other shards' files are empty.
std::string wal_file_with_records(const std::string& dir) {
  for (const std::string& f : wal_files(dir)) {
    struct stat st {};
    if (::stat(f.c_str(), &st) == 0 && st.st_size > 0) return f;
  }
  CHECK(!"no WAL file holds records");
  return dir + "/wal-0.log";
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::vector<std::uint8_t> buf;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CHECK(f != nullptr);
  if (f == nullptr) return buf;
  std::uint8_t chunk[4096];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof chunk, f)) > 0;) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return buf;
}

void write_bytes(const std::string& path, const std::uint8_t* p,
                 std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CHECK(f != nullptr);
  if (f == nullptr) return;
  if (n > 0) CHECK(std::fwrite(p, 1, n, f) == n);  // p may be null at n 0
  std::fclose(f);
}

// XOR one byte of a file in place.
void flip_byte(const std::string& path, long offset, int mask) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  CHECK(f != nullptr);
  if (f == nullptr) return;
  std::fseek(f, offset, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(c ^ mask, f);
  std::fclose(f);
}

// Every file of a directory, by name, with its bytes.
std::map<std::string, std::vector<std::uint8_t>> dir_contents(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const std::string& f : files_starting(dir, "")) out[f] = slurp(f);
  return out;
}

// Audit: the recovered table holds exactly `expect` (key -> value), with
// zero lost, zero duplicated, zero unexpected keys.
void audit_exact(DurableDLHT& db,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& expect,
                 const char* what) {
  std::unordered_map<std::uint64_t, int> seen;
  bool values_ok = true;
  db.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++seen[k];
    auto it = expect.find(k);
    if (it == expect.end() || it->second != v) values_ok = false;
  });
  bool dup_free = true, none_lost = true;
  for (const auto& [k, n] : seen) {
    if (n != 1) dup_free = false;
  }
  for (const auto& [k, v] : expect) {
    if (!seen.count(k)) none_lost = false;
  }
  if (!values_ok || !dup_free || !none_lost ||
      seen.size() != expect.size()) {
    std::fprintf(stderr, "FAIL audit(%s): %zu seen vs %zu expected\n", what,
                 seen.size(), expect.size());
    ++g_failures;
  }
  CHECK(db.approx_size() == static_cast<std::int64_t>(expect.size()));
}

// ------------------------------------------------------------ the matrix

void clean_snapshot_roundtrip() {
  std::puts("clean_snapshot_roundtrip");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 5000; ++k) {
      CHECK(db.put(k, val_of(k)) == Status::kOk);
      expect[k] = val_of(k);
    }
    for (std::uint64_t k = 1; k <= 1000; ++k) {  // deletes must persist too
      CHECK(db.erase(k) == Status::kOk);
      expect.erase(k);
    }
    CHECK(db.checkpoint() == Status::kOk);
    const auto s = db.stats();
    CHECK(s.snapshots_written == 1);
    CHECK(s.io_errors == 0);
    CHECK(!s.degraded);
  }
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    const auto s = db.stats();
    CHECK(s.recovered_snapshot_lsn > 0);
    audit_exact(db, expect, "clean_snapshot_roundtrip");
  }
  remove_dir(dir);
}

void wal_only_recovery() {
  std::puts("wal_only_recovery");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 3000; ++k) {
      CHECK(db.insert(k, val_of(k)) == Status::kOk);
      expect[k] = val_of(k);
    }
    CHECK(db.insert(7, 1) == Status::kExists);  // no-op replays as no-op
    CHECK(db.erase(123456789) == Status::kNotFound);
    CHECK(db.wal_sync() == Status::kOk);
  }
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    const auto s = db.stats();
    CHECK(s.recovered_snapshot_lsn == 0);  // never checkpointed
    CHECK(s.replayed_records >= 3000);
    audit_exact(db, expect, "wal_only_recovery");
  }
  remove_dir(dir);
}

void snapshot_plus_wal_suffix() {
  std::puts("snapshot_plus_wal_suffix");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 4000; ++k) {
      db.put(k, val_of(k));
      expect[k] = val_of(k);
    }
    CHECK(db.checkpoint() == Status::kOk);
    // Post-snapshot suffix: fresh keys, overwrites, deletes.
    for (std::uint64_t k = 4001; k <= 6000; ++k) {
      db.put(k, val_of(k));
      expect[k] = val_of(k);
    }
    for (std::uint64_t k = 1; k <= 500; ++k) {
      db.put(k, val_of(k) + 7);
      expect[k] = val_of(k) + 7;
    }
    for (std::uint64_t k = 2000; k < 2500; ++k) {
      db.erase(k);
      expect.erase(k);
    }
    CHECK(db.wal_sync() == Status::kOk);
  }
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    const auto s = db.stats();
    CHECK(s.recovered_snapshot_lsn >= 4000);
    CHECK(s.replayed_records >= 3000);  // the whole post-snapshot suffix
    audit_exact(db, expect, "snapshot_plus_wal_suffix");
  }
  remove_dir(dir);
}

void rmw_update_logged() {
  std::puts("rmw_update_logged");
  const std::string dir = make_dir();
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    db.insert(42, 100);
    Status io = Status::kOk;
    const auto v = db.update(42, [](std::uint64_t x) { return x + 5; }, &io);
    CHECK(v.has_value() && *v == 105);
    CHECK(io == Status::kOk);
    CHECK(!db.update(999, [](std::uint64_t x) { return x; }).has_value());
    CHECK(db.wal_sync() == Status::kOk);
  }
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    CHECK(db.get(42).value_or(0) == 105);  // the RMW *result* was replayed
    CHECK(!db.get(999).has_value());
  }
  remove_dir(dir);
}

// SIGKILL signature: a partial record at the end of one shard file. The
// tail is truncated on recovery; every complete record survives.
void torn_tail_truncated() {
  std::puts("torn_tail_truncated");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 2000; ++k) {
      db.put(k, val_of(k));
      expect[k] = val_of(k);
    }
    CHECK(db.wal_sync() == Status::kOk);
  }
  // Tear: 13 garbage bytes after the last complete record.
  const std::string log = wal_file_with_records(dir);
  {
    std::FILE* f = std::fopen(log.c_str(), "ab");
    CHECK(f != nullptr);
    const unsigned char junk[13] = {0xaa, 0xbb, 0xcc};
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    audit_exact(db, expect, "torn_tail_truncated");
    // The tail is gone from disk too: the file decodes clean again.
    const auto buf = slurp(log);
    CHECK(buf.size() % kWalRecordBytes == 0);
    CHECK(wal_decode(buf.data(), buf.size()).tail == WalTail::kClean);
    // A torn tail is the expected crash signature, not an error.
    const auto s = db.stats();
    CHECK(s.io_errors == 0);
    CHECK(s.wal_corrupt_tails == 0);
    CHECK(::access((log + ".corrupt").c_str(), F_OK) != 0);
  }
  remove_dir(dir);
}

// Bit flip in the final record of one shard: recovery must reject exactly
// that record (and truncate it away), keeping everything before it.
void bad_crc_tail_rejected() {
  std::puts("bad_crc_tail_rejected");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 2000; ++k) {
      db.insert(k, val_of(k));
      expect[k] = val_of(k);
    }
    CHECK(db.wal_sync() == Status::kOk);
  }
  const std::string log = wal_file_with_records(dir);
  auto buf = slurp(log);
  CHECK(buf.size() >= kWalRecordBytes);
  // Identify the key the final record carries, then corrupt its value byte.
  const auto before = wal_decode(buf.data(), buf.size());
  CHECK(before.tail == WalTail::kClean);
  CHECK(!before.records.empty());
  const WalRecord last = before.records.back();
  {
    std::FILE* f = std::fopen(log.c_str(), "rb+");
    CHECK(f != nullptr);
    std::fseek(f, static_cast<long>(buf.size() - kWalRecordBytes + 24), SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  expect.erase(last.key);  // the op the corrupt record carried is lost
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    audit_exact(db, expect, "bad_crc_tail_rejected");
    CHECK(!db.get(last.key).has_value());
    // Unlike a torn tail, a CRC-corrupt one is surfaced in stats and the
    // discarded bytes are preserved beside the log for inspection.
    const auto s = db.stats();
    CHECK(s.io_errors >= 1);
    CHECK(s.wal_corrupt_tails == 1);
    CHECK(s.wal_discarded_bytes == kWalRecordBytes);
    const auto kept = slurp(log + ".corrupt");
    CHECK(kept.size() == kWalRecordBytes);
  }
  remove_dir(dir);
}

// Bit flip in the middle of a shard file: nothing past the corruption in
// that shard is trusted; other shards are untouched.
void mid_file_corruption_stops_replay() {
  std::puts("mid_file_corruption_stops_replay");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 2000; ++k) {
      db.insert(k, val_of(k));
      expect[k] = val_of(k);
    }
    CHECK(db.wal_sync() == Status::kOk);
  }
  const std::string log = wal_file_with_records(dir);
  auto buf = slurp(log);
  const auto before = wal_decode(buf.data(), buf.size());
  CHECK(before.records.size() >= 10);
  const std::size_t cut = before.records.size() / 2;
  for (std::size_t i = cut; i < before.records.size(); ++i) {
    expect.erase(before.records[i].key);  // dropped with the bad suffix
  }
  {
    std::FILE* f = std::fopen(log.c_str(), "rb+");
    CHECK(f != nullptr);
    std::fseek(f, static_cast<long>(cut * kWalRecordBytes + 16), SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x80, f);
    std::fclose(f);
  }
  const std::size_t total = buf.size();
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    audit_exact(db, expect, "mid_file_corruption_stops_replay");
    // The untrusted suffix was truncated away — but counted and kept.
    const auto after = slurp(log);
    CHECK(after.size() == cut * kWalRecordBytes);
    const auto s = db.stats();
    CHECK(s.wal_corrupt_tails == 1);
    CHECK(s.wal_discarded_bytes == total - cut * kWalRecordBytes);
    const auto kept = slurp(log + ".corrupt");
    CHECK(kept.size() == total - cut * kWalRecordBytes);
  }
  remove_dir(dir);
}

// Each corrupt tail of a log appends its discarded bytes to <log>.corrupt,
// so a second rot event on the same log keeps the first one's copy.
void corrupt_tails_accumulate() {
  std::puts("corrupt_tails_accumulate");
  const std::string dir = make_dir();
  const std::string log = dir + "/wal-0.log";  // the only shard
  std::vector<std::uint8_t> kept;
  for (std::uint64_t round = 0; round < 2; ++round) {
    {
      DurableDLHT db(small_options(), wal(dir, 1));
      CHECK(db.open() == Status::kOk);
      for (std::uint64_t k = 1; k <= 100; ++k) {
        CHECK(db.put(100 * round + k, val_of(k)) == Status::kOk);
      }
      CHECK(db.wal_sync() == Status::kOk);
    }
    const long last = static_cast<long>(slurp(log).size() - kWalRecordBytes);
    flip_byte(log, last + 24, 0x01);  // the final record's value
    const auto buf = slurp(log);
    kept.insert(kept.end(), buf.begin() + last, buf.end());
    DurableDLHT db(small_options(), wal(dir, 1));
    CHECK(db.open() == Status::kOk);
    CHECK(db.stats().wal_corrupt_tails == 1);
    CHECK(slurp(log + ".corrupt") == kept);
  }
  remove_dir(dir);
}

// fail-at-Nth-sync: the op that observes the failure reports kIOError, the
// tier degrades to memory-only (no abort), and the counters surface it.
void fail_at_nth_sync_degrades() {
  std::puts("fail_at_nth_sync_degrades");
  const std::string dir = make_dir();
  FaultSpec faults;
  faults.fail_sync_at = 1;  // the very first fsync fails, and all after
  DurabilityOptions d = wal(dir, 4, &faults);
  d.wal_fsync_interval_ops = 4;
  DurableDLHT db(small_options(), d);
  CHECK(db.open() == Status::kOk);
  bool saw_io_error = false;
  for (std::uint64_t k = 1; k <= 100; ++k) {
    const Status st = db.put(k, val_of(k));
    if (st == Status::kIOError) {
      CHECK(!saw_io_error);  // reported exactly once, on first observation
      saw_io_error = true;
    } else {
      CHECK(st == Status::kOk);
    }
  }
  CHECK(saw_io_error);
  CHECK(db.degraded());
  const auto s = db.stats();
  CHECK(s.io_errors >= 1);
  CHECK(s.degraded);
  // Memory mode still serves everything.
  for (std::uint64_t k = 1; k <= 100; ++k) {
    CHECK(db.get(k).value_or(0) == val_of(k));
  }
  CHECK(db.wal_sync() == Status::kIOError);   // still degraded, still no abort
  CHECK(db.checkpoint() == Status::kIOError);
  remove_dir(dir);
}

// Injected torn/flipped writes mid-stream: the writer sees the failure and
// degrades; a later (fault-free) recovery truncates the damage and keeps
// every record before it — nothing duplicated, nothing invented.
void injected_write_faults_recover() {
  for (const bool flip : {false, true}) {
    std::printf("injected_write_faults_recover(%s)\n", flip ? "flip" : "torn");
    const std::string dir = make_dir();
    FaultSpec faults;
    if (flip) {
      faults.flip_write_at = 9;
    } else {
      faults.torn_write_at = 9;
    }
    DurabilityOptions d = wal(dir, 2, &faults);
    d.wal_fsync_interval_ops = 4;  // flush every 4 records: write #9 is mid-run
    std::uint64_t committed = 0;
    {
      DurableDLHT db(small_options(), d);
      CHECK(db.open() == Status::kOk);
      for (std::uint64_t k = 1; k <= 400; ++k) {
        db.put(k, val_of(k));
        if (db.wal_sync() == Status::kOk) {
          committed = k;
        } else {
          break;  // fault hit: everything <= committed is durable
        }
      }
      CHECK(db.degraded());
      CHECK(committed > 0);
      CHECK(db.stats().io_errors >= 1);
    }
    {
      DurableDLHT db(small_options(), wal(dir));
      CHECK(db.open() == Status::kOk);
      // Zero lost committed: every synced key is back with its value.
      for (std::uint64_t k = 1; k <= committed; ++k) {
        CHECK(db.get(k).value_or(0) == val_of(k));
      }
      // Zero duplicates, no invented keys, values intact.
      std::unordered_map<std::uint64_t, int> seen;
      db.for_each([&](std::uint64_t k, std::uint64_t v) {
        ++seen[k];
        CHECK(k >= 1 && k <= 400);
        CHECK(v == val_of(k));
      });
      for (const auto& [k, n] : seen) CHECK(n == 1);
      CHECK(seen.size() >= committed);
    }
    remove_dir(dir);
  }
}

// Checkpoint GC: old snapshots and frozen segments disappear; repeated
// checkpoint/reopen cycles stay consistent.
void checkpoint_gc_and_cycles() {
  std::puts("checkpoint_gc_and_cycles");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  for (int cycle = 0; cycle < 3; ++cycle) {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 1000; ++k) {
      const std::uint64_t key = k + 1000u * static_cast<std::uint64_t>(cycle);
      db.put(key, val_of(key));
      expect[key] = val_of(key);
    }
    CHECK(db.checkpoint() == Status::kOk);
    audit_exact(db, expect, "checkpoint_gc_and_cycles");
  }
  // One snapshot file, no frozen segments left behind.
  int snapshots = 0, frozen = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n.rfind("snapshot-", 0) == 0) ++snapshots;
      if (n.size() > 4 && n.compare(n.size() - 4, 4, ".old") == 0) ++frozen;
    }
    ::closedir(d);
  }
  CHECK(snapshots == 1);
  CHECK(frozen == 0);
  remove_dir(dir);
}

// Regression: frozen-segment names must never collide across restarts.
// A crash mid-checkpoint (here: the snapshot fsync fails after the WAL was
// rotated) leaves wal-0.log.R.old holding committed records no snapshot
// covers. The next run's rotation counter restarts at 0, so only the
// rotation's existence probe keeps its first checkpoint from renaming the
// live log over that segment — a second mid-checkpoint crash would then
// lose generation 1 silently.
void checkpoint_crash_keeps_frozen_generations() {
  std::puts("checkpoint_crash_keeps_frozen_generations");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  DurabilityOptions dopts = wal(dir, 1);
  dopts.wal_fsync_interval_ops = 1u << 20;  // only explicit syncs hit the disk
  auto run_generation = [&](std::uint64_t lo, std::uint64_t hi) {
    FaultSpec faults;
    DurabilityOptions faulty = dopts;
    faulty.faults = &faults;
    DurableDLHT db(small_options(), faulty);
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = lo; k <= hi; ++k) {
      db.put(k, val_of(k));
      expect[k] = val_of(k);
    }
    CHECK(db.wal_sync() == Status::kOk);
    // Crash mid-checkpoint: the shard rotation sync succeeds, the
    // snapshot's own fsync fails — the frozen segment is now the only
    // durable copy of this generation.
    faults.fail_sync_at = faults.syncs.load(std::memory_order_relaxed) + 2;
    CHECK(db.checkpoint() == Status::kIOError);
    CHECK(db.degraded());
  };
  run_generation(1, 300);
  run_generation(301, 600);  // must freeze beside generation 1, not over it
  {  // both frozen generations are on disk under distinct names
    int frozen = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string n = e->d_name;
        if (n.size() > 4 && n.compare(n.size() - 4, 4, ".old") == 0) ++frozen;
      }
      ::closedir(d);
    }
    CHECK(frozen == 2);
  }
  {
    DurableDLHT db(small_options(), dopts);
    CHECK(db.open() == Status::kOk);
    audit_exact(db, expect, "checkpoint_crash_keeps_frozen_generations");
    // A finally-successful checkpoint GCs every frozen generation.
    CHECK(db.checkpoint() == Status::kOk);
  }
  {
    DurableDLHT db(small_options(), dopts);
    CHECK(db.open() == Status::kOk);
    CHECK(db.stats().recovered_snapshot_lsn > 0);
    audit_exact(db, expect, "checkpoint_crash_keeps_frozen_generations/gc");
    int frozen = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string n = e->d_name;
        if (n.size() > 4 && n.compare(n.size() - 4, 4, ".old") == 0) ++frozen;
      }
      ::closedir(d);
    }
    CHECK(frozen == 0);
  }
  remove_dir(dir);
}

template <class F>
void on_wal_shard(unsigned shard, unsigned shards, F&& f);

// Reopening a directory with fewer wal_shards than it was written with:
// open() replays the excess shard logs and leaves them as they are, and
// the next successful checkpoint deletes them, so they are not re-read
// forever.
void fewer_shards_fold_orphan_logs() {
  std::puts("fewer_shards_fold_orphan_logs");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir, 8));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 2000; ++k) {
      db.put(k, val_of(k));
      expect[k] = val_of(k);
    }
    on_wal_shard(5, 8, [&] {  // an orphan at 2 shards holds records too
      for (std::uint64_t k = 2001; k <= 2100; ++k) {
        db.put(k, val_of(k));
        expect[k] = val_of(k);
      }
    });
    CHECK(db.wal_sync() == Status::kOk);
  }
  std::map<std::string, std::vector<std::uint8_t>> orphans;
  for (unsigned shard = 2; shard < 8; ++shard) {
    const std::string log = dir + "/wal-" + std::to_string(shard) + ".log";
    orphans[log] = slurp(log);
  }
  CHECK(orphans[dir + "/wal-5.log"].size() >= 100 * kWalRecordBytes);
  {
    DurableDLHT db(small_options(), wal(dir, 2));
    CHECK(db.open() == Status::kOk);
    audit_exact(db, expect, "fewer_shards_fold_orphan_logs");
    for (const auto& [log, bytes] : orphans) {  // open() renames nothing
      CHECK(::access(log.c_str(), F_OK) == 0 && slurp(log) == bytes);
    }
    CHECK(db.checkpoint() == Status::kOk);
  }
  // Only the two live logs remain; every orphan (and frozen segment) is
  // gone, and the data survives the shard-count change.
  int live = 0, stale = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n.compare(0, 4, "wal-") != 0) continue;
      if (n == "wal-0.log" || n == "wal-1.log") {
        ++live;
      } else {
        ++stale;
      }
    }
    ::closedir(d);
  }
  CHECK(live == 2);
  CHECK(stale == 0);
  {
    DurableDLHT db(small_options(), wal(dir, 2));
    CHECK(db.open() == Status::kOk);
    audit_exact(db, expect, "fewer_shards_fold_orphan_logs/reopen");
  }
  remove_dir(dir);
}

void in_memory_mode() {
  std::puts("in_memory_mode");
  DurableDLHT db(small_options(), {});  // empty dir: durability off
  CHECK(db.open() == Status::kOk);
  CHECK(db.put(1, 2) == Status::kOk);
  CHECK(db.get(1).value_or(0) == 2);
  CHECK(db.wal_sync() == Status::kOk);
  CHECK(!db.degraded());
  CHECK(db.stats().records_logged == 0);
}

// Run f on a thread whose WAL shard, at `shards` shards, is `shard`. A new
// thread draws the smallest free thread index, so threads that draw another
// shard stay alive, holding their index, until one draws this shard.
template <class F>
void on_wal_shard(unsigned shard, unsigned shards, F&& f) {
  std::atomic<bool> release{false};
  std::vector<std::thread> held;
  bool ran = false;
  for (unsigned spawned = 0; !ran && spawned < 4 * shards; ++spawned) {
    std::atomic<int> verdict{0};  // 1: f ran there, 2: another shard
    std::thread t([&] {
      if ((this_thread_index() & (shards - 1)) == shard) {
        f();
        verdict.store(1);
        return;
      }
      verdict.store(2);
      while (!release.load()) std::this_thread::yield();
    });
    while (verdict.load() == 0) std::this_thread::yield();
    ran = verdict.load() == 1;
    if (ran) {
      t.join();
    } else {
      held.push_back(std::move(t));
    }
  }
  CHECK(ran);
  release.store(true);
  for (std::thread& t : held) t.join();
}

// ------------------------------------------------ batched write path

using Request = DurableDLHT::Request;
using Reply = DurableDLHT::Reply;
using Table = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Table table_of(const DurableDLHT& db) {
  Table t;
  db.for_each([&](std::uint64_t k, std::uint64_t v) { t.emplace_back(k, v); });
  std::sort(t.begin(), t.end());
  return t;
}

// The scalar reference: each op through the tier's scalar API.
Reply scalar_call(DurableDLHT& db, const Request& rq) {
  Reply rp;
  switch (rq.op) {
    case OpType::kGet: {
      const auto v = db.get(rq.key);
      rp.status = v ? Status::kOk : Status::kNotFound;
      rp.value = v.value_or(0);
      break;
    }
    case OpType::kPut: rp.status = db.put(rq.key, rq.value); break;
    case OpType::kInsert: rp.status = db.insert(rq.key, rq.value); break;
    case OpType::kDelete: rp.status = db.erase(rq.key); break;
  }
  return rp;
}

// The same op stream issued as scalar calls and as execute_batch calls of
// random sizes (some past the 64-request grouping chunk) gives identical
// replies, an identical table, and an identical table after a reopen.
void batch_matches_scalar() {
  std::puts("batch_matches_scalar");
  const std::string dir_s = make_dir();
  const std::string dir_b = make_dir();
  Xoshiro256 rng(splitmix64(0xba7c4));
  std::vector<Request> ops(6000);
  for (Request& rq : ops) {
    rq = {static_cast<OpType>(rng.next_below(4)), 1 + rng.next_below(300),
          rng() | 1, 0};
  }
  // Reference semantics for the replies.
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  {
    DurableDLHT s(small_options(), wal(dir_s));
    DurableDLHT b(small_options(), wal(dir_b));
    CHECK(s.open() == Status::kOk);
    CHECK(b.open() == Status::kOk);
    std::vector<Reply> rb(ops.size());
    for (std::size_t i = 0; i < ops.size();) {
      const std::size_t n = std::min<std::size_t>(1 + rng.next_below(100),
                                                  ops.size() - i);
      b.execute_batch(&ops[i], &rb[i], n);
      i += n;
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Request& rq = ops[i];
      const Reply rs = scalar_call(s, rq);
      const bool present = model.count(rq.key) != 0;
      Status want = Status::kOk;
      switch (rq.op) {
        case OpType::kGet:
          want = present ? Status::kOk : Status::kNotFound;
          break;
        case OpType::kPut: model[rq.key] = rq.value; break;
        case OpType::kInsert:
          want = present ? Status::kExists : Status::kOk;
          if (!present) model[rq.key] = rq.value;
          break;
        case OpType::kDelete:
          want = present ? Status::kOk : Status::kNotFound;
          model.erase(rq.key);
          break;
      }
      const bool get_hit = rq.op == OpType::kGet && want == Status::kOk;
      if (rs.status != want || rb[i].status != want ||
          (get_hit &&
           (rs.value != rb[i].value || rs.value != model.at(rq.key)))) {
        ++mismatches;
      }
    }
    CHECK(mismatches == 0);
    CHECK(table_of(s) == table_of(b));
    CHECK(s.stats().records_logged == b.stats().records_logged);
  }
  DurableDLHT s(small_options(), wal(dir_s));
  DurableDLHT b(small_options(), wal(dir_b));
  CHECK(s.open() == Status::kOk);
  CHECK(b.open() == Status::kOk);
  CHECK(table_of(s) == table_of(b));
  audit_exact(b, model, "batch_matches_scalar/reopen");
  remove_dir(dir_s);
  remove_dir(dir_b);
}

// One key sequence, written from two threads on different WAL shards: for
// 16 keys, the thread on shard 0 sends insert, get, put, get, delete as one
// batch (interleaved across keys, so it spans two 64-request chunks), then
// the thread on shard 1 sends get, insert. Every key answers like the
// scalar sequence, each shard's file holds exactly its thread's records,
// and the table is exact before and after a reopen, which must merge the
// two files by LSN: replaying shard 1's inserts before shard 0's deletes
// would lose every key.
void same_key_sequence_across_shards() {
  std::puts("same_key_sequence_across_shards");
  const std::string dir = make_dir();
  constexpr std::uint64_t kKeys = 16;
  constexpr std::size_t kSplit = 5;  // steps before it go to shard 0
  const OpType seq[] = {OpType::kInsert, OpType::kGet,    OpType::kPut,
                        OpType::kGet,    OpType::kDelete, OpType::kGet,
                        OpType::kInsert};
  const auto value = [](std::size_t step, std::uint64_t k) {
    return val_of(k) + step;
  };
  std::vector<Request> reqs;
  for (std::size_t step = 0; step < std::size(seq); ++step) {
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      reqs.push_back({seq[step], k, value(step, k), reqs.size()});
    }
  }
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    std::vector<Reply> reps(reqs.size());
    const std::size_t split = kSplit * kKeys;
    on_wal_shard(0, 4, [&] {
      db.execute_batch(reqs.data(), reps.data(), split);
    });
    on_wal_shard(1, 4, [&] {
      db.execute_batch(reqs.data() + split, reps.data() + split,
                       reqs.size() - split);
    });
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::size_t step = i / kKeys;
      const std::uint64_t k = reqs[i].key;
      CHECK(reps[i].user == i);
      switch (step) {
        case 1:  // get after insert
          CHECK(reps[i].status == Status::kOk && reps[i].value == value(0, k));
          break;
        case 3:  // get after put
          CHECK(reps[i].status == Status::kOk && reps[i].value == value(2, k));
          break;
        case 5:  // get after delete
          CHECK(reps[i].status == Status::kNotFound);
          break;
        default:  // insert, put, delete, insert all succeed
          CHECK(reps[i].status == Status::kOk);
          break;
      }
    }
    for (std::uint64_t k = 1; k <= kKeys; ++k) expect[k] = value(6, k);
    audit_exact(db, expect, "same_key_sequence_across_shards");
  }
  // Shard 0 logged insert, put and delete per key; shard 1 one insert.
  CHECK(slurp(dir + "/wal-0.log").size() == 3 * kKeys * kWalRecordBytes);
  CHECK(slurp(dir + "/wal-1.log").size() == kKeys * kWalRecordBytes);
  DurableDLHT db(small_options(), wal(dir));
  CHECK(db.open() == Status::kOk);
  CHECK(db.stats().replayed_records == 4 * kKeys);
  audit_exact(db, expect, "same_key_sequence_across_shards/reopen");
  remove_dir(dir);
}

// A failing fsync inside a batch: the chunk whose records reached the fsync
// interval answers kIOError on all its mutations (its Get answers
// normally), every mutation keeps its table effect, and the tier degrades.
void failsync_inside_batch() {
  std::puts("failsync_inside_batch");
  const std::string dir = make_dir();
  FaultSpec faults;
  faults.fail_sync_at = 1;
  DurabilityOptions d = wal(dir, 4, &faults);
  d.wal_fsync_interval_ops = 4;
  DurableDLHT db(small_options(), d);
  CHECK(db.open() == Status::kOk);
  // One chunk: seven mutations pass the interval, the Get reads a key
  // while it is absent.
  const std::vector<Request> reqs = {
      {OpType::kPut, 1, 11, 0},    {OpType::kPut, 2, 1, 1},
      {OpType::kPut, 3, 12, 2},    {OpType::kGet, 4, 0, 3},
      {OpType::kPut, 5, 2, 4},     {OpType::kInsert, 6, 3, 5},
      {OpType::kPut, 7, 13, 6},    {OpType::kPut, 8, 4, 7},
  };
  std::vector<Reply> reps(reqs.size());
  db.execute_batch(reqs.data(), reps.data(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].op == OpType::kGet) {
      CHECK(reps[i].status == Status::kNotFound);
    } else {
      CHECK(reps[i].status == Status::kIOError);
      CHECK(db.get(reqs[i].key).value_or(0) == reqs[i].value);
    }
  }
  CHECK(db.degraded());
  CHECK(db.stats().io_errors == 1);
  remove_dir(dir);
}

// Batched writers beside a checkpoint() loop. checkpoint()'s LSN barrier
// holds every WAL shard mutex at once; a barrier that could pass an LSN
// still unapplied would let a snapshot miss an op whose record is then
// skipped on replay. Writers run through every checkpoint, mostly
// inserting fresh keys (so each op decides its key's final state), with
// group-commit fsyncs landing between a group's LSN assignment and its
// apply. Close, reopen, and the table is exactly the writers' final state.
void batched_writers_beside_checkpoints() {
  for (const unsigned threads : {2u, 4u}) {
    std::printf("batched_writers_beside_checkpoints(%u)\n", threads);
    const std::string dir = make_dir();
    DurabilityOptions d = wal(dir);
    d.wal_fsync_interval_ops = 64;
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> models(
        threads);
    std::atomic<unsigned> started{0};
    std::atomic<bool> stop{false};
    {
      DurableDLHT db(small_options(), d);
      CHECK(db.open() == Status::kOk);
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          Xoshiro256 rng(splitmix64(0xc0ffee + t));
          auto& model = models[t];
          const std::uint64_t base = static_cast<std::uint64_t>(t + 1) << 32;
          std::uint64_t fresh = 0;
          std::vector<Request> reqs(24);
          std::vector<Reply> reps(24);
          for (bool first = true; !stop.load(); first = false) {
            for (Request& rq : reqs) {
              const bool insert_fresh = fresh == 0 || rng.next_below(2) == 0;
              const std::uint64_t k =
                  base + (insert_fresh ? fresh++ : rng.next_below(fresh));
              const OpType op = insert_fresh
                                    ? OpType::kInsert
                                    : static_cast<OpType>(rng.next_below(4));
              rq = {op, k, rng() | 1, 0};
              switch (op) {
                case OpType::kGet: break;
                case OpType::kPut: model[k] = rq.value; break;
                case OpType::kInsert: model.emplace(k, rq.value); break;
                case OpType::kDelete: model.erase(k); break;
              }
            }
            db.execute_batch(reqs.data(), reps.data(), reqs.size());
            if (first) started.fetch_add(1);
          }
        });
      }
      while (started.load() != threads) std::this_thread::yield();
      for (int c = 0; c < 6; ++c) CHECK(db.checkpoint() == Status::kOk);
      stop.store(true);
      for (auto& th : pool) th.join();
    }
    std::unordered_map<std::uint64_t, std::uint64_t> expect;
    for (const auto& m : models) expect.insert(m.begin(), m.end());
    DurableDLHT db(small_options(), d);
    CHECK(db.open() == Status::kOk);
    CHECK(db.stats().recovered_snapshot_lsn > 0);
    audit_exact(db, expect, "batched_writers_beside_checkpoints");
    remove_dir(dir);
  }
}

// Per-key order across WAL shards. Writers on distinct shards race puts,
// deletes and inserts, scalar and in batches of up to 64, over 64 shared
// keys until the main thread stops them, so each key's records spread over
// every shard file. Replay orders records by LSN alone, which recovers the
// table only if each key's LSN order is its apply order: each reopen must
// find the table as it stood at the previous close, key for key. Three
// close/reopen cycles per thread count.
void racing_shards_keep_key_order() {
  for (const unsigned threads : {2u, 4u}) {
    std::printf("racing_shards_keep_key_order(%u)\n", threads);
    const std::string dir = make_dir();
    DurabilityOptions d = wal(dir);
    d.wal_fsync_interval_ops = 1u << 16;  // close() flushes the log
    Table at_close;
    for (int cycle = 0; cycle < 3; ++cycle) {
      DurableDLHT db(small_options(), d);
      CHECK(db.open() == Status::kOk);
      CHECK(table_of(db) == at_close);
      std::vector<unsigned> shard(threads);
      std::atomic<unsigned> ready{0};
      std::atomic<std::uint64_t> rounds{0};
      std::atomic<bool> stop{false};
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          shard[t] = this_thread_index() & 3;
          ready.fetch_add(1);
          while (ready.load() != threads) std::this_thread::yield();
          Xoshiro256 rng(splitmix64(0x5eed0 + 16 * cycle + t));
          constexpr OpType kOps[] = {OpType::kPut, OpType::kDelete,
                                     OpType::kInsert};
          Request reqs[64];
          Reply reps[64];
          while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t n = 1 + rng.next_below(64);
            for (std::size_t j = 0; j < n; ++j) {
              reqs[j] = {kOps[rng.next_below(3)], 1 + rng.next_below(64),
                         rng() | 1, 0};
            }
            if (n == 1) {
              scalar_call(db, reqs[0]);
            } else {
              db.execute_batch(reqs, reps, n);
            }
            rounds.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      const auto t0 = std::chrono::steady_clock::now();
      while (rounds.load() < 2000 * threads ||
             std::chrono::steady_clock::now() - t0 <
                 std::chrono::milliseconds(50)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      stop.store(true);
      for (auto& th : pool) th.join();
      std::sort(shard.begin(), shard.end());
      CHECK(std::adjacent_find(shard.begin(), shard.end()) == shard.end());
      at_close = table_of(db);
    }
    DurableDLHT db(small_options(), d);
    CHECK(db.open() == Status::kOk);
    CHECK(table_of(db) == at_close);
    remove_dir(dir);
  }
}

// A WAL shard belongs to writer threads: after a run by one thread, only
// that thread's shard file holds records, whichever keys it wrote.
void single_writer_fills_one_shard() {
  std::puts("single_writer_fills_one_shard");
  const std::string dir = make_dir();
  constexpr std::uint64_t kKeys = 1000;
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= kKeys; ++k) db.put(k, val_of(k));
    CHECK(db.wal_sync() == Status::kOk);
  }
  const std::string mine =
      dir + "/wal-" + std::to_string(this_thread_index() & 3) + ".log";
  const auto files = wal_files(dir);
  CHECK(files.size() == 4);
  for (const std::string& f : files) {
    const std::size_t bytes = slurp(f).size();
    CHECK(bytes == (f == mine ? kKeys * kWalRecordBytes : 0));
  }
  remove_dir(dir);
}

// A request that changes nothing logs nothing and draws no LSN: an insert
// of a present key or a delete of an absent one, scalar or batched.
void no_change_logs_nothing() {
  std::puts("no_change_logs_nothing");
  const std::string dir = make_dir();
  {
    DurableDLHT db(small_options(), wal(dir));
    CHECK(db.open() == Status::kOk);
    CHECK(db.insert(1, 10) == Status::kOk);
    const auto before = db.stats();
    CHECK(before.records_logged == 1 && before.lsn == 1);
    CHECK(db.insert(1, 11) == Status::kExists);
    CHECK(db.erase(2) == Status::kNotFound);
    const Request reqs[] = {{OpType::kInsert, 1, 12, 0},
                            {OpType::kDelete, 3, 0, 1},
                            {OpType::kGet, 1, 0, 2}};
    Reply reps[std::size(reqs)];
    db.execute_batch(reqs, reps, std::size(reqs));
    CHECK(reps[0].status == Status::kExists);
    CHECK(reps[1].status == Status::kNotFound);
    CHECK(reps[2].status == Status::kOk && reps[2].value == 10);
    const auto after = db.stats();
    CHECK(after.records_logged == 1 && after.lsn == 1);
    CHECK(db.wal_sync() == Status::kOk);
  }
  std::size_t bytes = 0;
  for (const std::string& f : wal_files(dir)) bytes += slurp(f).size();
  CHECK(bytes == kWalRecordBytes);
  DurableDLHT db(small_options(), wal(dir));
  CHECK(db.open() == Status::kOk);
  CHECK(db.stats().replayed_records == 1);
  CHECK(db.get(1).value_or(0) == 10);
  remove_dir(dir);
}

// ------------------------------------------------------ streamed recovery

// One key's records alternate between two files: runs with 8, 2, 8 and 2
// WAL shards log the key's put, put, delete and insert from two threads on
// different shards. The 8-shard runs write from a thread whose shard has
// no live log at 2 shards, so the 2-shard opens replay that log and leave
// it as it is; the 2-shard runs write to a live log. Only an LSN-ordered
// merge of the two files recovers the final value; replaying the files
// one after another, in either order, does not.
void merge_orders_alternating_segments() {
  std::puts("merge_orders_alternating_segments");
  const std::string dir = make_dir();
  constexpr std::uint64_t key = 1;
  constexpr unsigned kOrphanShard = 2;  // live at 8 shards, not at 2
  {
    DurableDLHT db(small_options(), wal(dir, 8));
    CHECK(db.open() == Status::kOk);
    on_wal_shard(kOrphanShard, 8,
                 [&] { CHECK(db.put(key, 1) == Status::kOk); });
  }
  {
    DurableDLHT db(small_options(), wal(dir, 2));
    CHECK(db.open() == Status::kOk);
    CHECK(db.put(key, 2) == Status::kOk);
  }
  {
    DurableDLHT db(small_options(), wal(dir, 8));
    CHECK(db.open() == Status::kOk);
    CHECK(db.get(key).value_or(0) == 2);
    on_wal_shard(kOrphanShard, 8,
                 [&] { CHECK(db.erase(key) == Status::kOk); });
  }
  {
    DurableDLHT db(small_options(), wal(dir, 2));
    CHECK(db.open() == Status::kOk);
    CHECK(db.insert(key, 4) == Status::kOk);
  }
  std::size_t files = 0, records = 0;  // the key's records, and their files
  for (const std::string& f : wal_files(dir)) {
    const auto buf = slurp(f);
    const auto d = wal_decode(buf.data(), buf.size());
    const auto n =
        std::count_if(d.records.begin(), d.records.end(),
                      [&](const WalRecord& r) { return r.key == key; });
    files += n > 0;
    records += static_cast<std::size_t>(n);
  }
  CHECK(files == 2 && records == 4);
  DurableDLHT db(small_options(), wal(dir, 2));
  CHECK(db.open() == Status::kOk);
  CHECK(db.stats().replayed_records == 4);
  CHECK(db.get(key).value_or(0) == 4);
  remove_dir(dir);
}

// The partitioned replay recovers what a serial one does. Four threads on
// distinct WAL shards race put/delete/insert chains over 64 shared keys,
// so each key's records span every shard file. Two checkpoints run while
// they write, so each snapshot is fuzzy: it holds writes whose records
// follow its barrier and replay again on top of it. Writes go on after
// the second. The directory is then reopened on one key partition and on
// four, through RecoveryTestHook so that four run on any host, and both
// tables must equal the table at close. Only a replay that merges each
// partition's segments by LSN passes: applying them one after another
// leaves keys with the last value of the wrong shard.
void partitioned_replay_matches_serial() {
  std::puts("partitioned_replay_matches_serial");
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kRounds = 1000;  // per writer, between events
  const std::string dir = make_dir();
  DurabilityOptions d = wal(dir);
  d.wal_fsync_interval_ops = 1u << 16;  // close() flushes the log
  Table at_close;
  {
    DurableDLHT db(small_options(), d);
    CHECK(db.open() == Status::kOk);
    std::vector<unsigned> shard(kThreads);
    std::atomic<unsigned> ready{0};
    std::atomic<std::uint64_t> rounds{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        shard[t] = this_thread_index() & 3;
        ready.fetch_add(1);
        while (ready.load() != kThreads) std::this_thread::yield();
        Xoshiro256 rng(splitmix64(0x9a27 + t));
        constexpr OpType kOps[] = {OpType::kPut, OpType::kDelete,
                                   OpType::kInsert};
        Request reqs[64];
        Reply reps[64];
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t n = 1 + rng.next_below(64);
          for (std::size_t j = 0; j < n; ++j) {
            reqs[j] = {kOps[rng.next_below(3)], 1 + rng.next_below(64),
                       rng() | 1, 0};
          }
          db.execute_batch(reqs, reps, n);
          rounds.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    const auto run_for = [&](std::uint64_t n) {
      const std::uint64_t until = rounds.load() + n;
      while (rounds.load() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    for (int c = 0; c < 2; ++c) {
      run_for(kThreads * kRounds);
      CHECK(db.checkpoint() == Status::kOk);
    }
    run_for(kThreads * kRounds);
    stop.store(true);
    for (auto& th : pool) th.join();
    std::sort(shard.begin(), shard.end());
    CHECK(std::adjacent_find(shard.begin(), shard.end()) == shard.end());
    CHECK(db.stats().snapshots_written == 2);
    at_close = table_of(db);
  }
  std::uint64_t replayed = 0;
  for (const std::size_t parts : {1u, 4u}) {
    std::printf("  replay on %zu partition(s)\n", parts);
    DurableDLHT db(small_options(), d);
    CHECK(RecoveryTestHook::open(db, parts) == Status::kOk);
    const auto s = db.stats();
    CHECK(s.recovered_snapshot_lsn > 0);
    CHECK(s.recovery_partitions == parts);
    CHECK(s.replayed_records > 0);
    CHECK(replayed == 0 || s.replayed_records == replayed);
    replayed = s.replayed_records;
    CHECK(table_of(db) == at_close);
  }
  remove_dir(dir);
}

// A log segment that cannot be read in full fails open() with kIOError,
// whether the read error hits the validation pass or the replay pass (which
// has by then applied the first chunk's records). The tier degrades, so it
// never checkpoints: the log stays whole on disk and a later open recovers
// every record.
void unreadable_segment_fails_open() {
  std::puts("unreadable_segment_fails_open");
  const std::string dir = make_dir();
  constexpr std::uint64_t kRecords = 5000;  // > 2 read chunks in one file
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), wal(dir, 1));
    CHECK(db.open() == Status::kOk);
    std::vector<Request> reqs(100);
    std::vector<Reply> reps(reqs.size());
    for (std::uint64_t k = 1; k <= kRecords; k += reqs.size()) {
      for (std::size_t j = 0; j < reqs.size(); ++j) {
        reqs[j] = {OpType::kPut, k + j, val_of(k + j), 0};
        expect[k + j] = val_of(k + j);
      }
      db.execute_batch(reqs.data(), reps.data(), reqs.size());
    }
  }
  const auto files = wal_files(dir);
  CHECK(files.size() == 1);
  // Read 1 is the validation pass, read 2 the replay pass.
  for (const std::uint64_t at : {1, 2}) {
    std::printf("  read error in %s pass\n",
                at == 1 ? "validation" : "replay");
    FaultSpec faults;
    faults.fail_read_at = at;
    DurableDLHT db(small_options(), wal(dir, 1, &faults));
    CHECK(db.open() == Status::kIOError);
    CHECK(db.degraded());
    CHECK(db.stats().io_errors == 1);
    CHECK(db.approx_size() < static_cast<std::int64_t>(kRecords));
    CHECK(db.put(kRecords + 1, 1) == Status::kOk);  // memory-only
    CHECK(db.checkpoint() == Status::kIOError);
    CHECK(slurp(files[0]).size() == kRecords * kWalRecordBytes);
  }
  CHECK(wal_files(dir).size() == 1);
  DurableDLHT db(small_options(), wal(dir, 1));
  CHECK(db.open() == Status::kOk);
  CHECK(db.stats().replayed_records == kRecords);
  audit_exact(db, expect, "unreadable_segment_fails_open");
  remove_dir(dir);
}

// A segment the validation pass cannot read fails open() with kIOError and
// changes no file, but the degraded tier still serves the snapshot: only
// the records past it are missing.
void unreadable_segment_keeps_snapshot() {
  std::puts("unreadable_segment_keeps_snapshot");
  const std::string dir = make_dir();
  std::unordered_map<std::uint64_t, std::uint64_t> snapped;
  {
    DurableDLHT db(small_options(), wal(dir, 1));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 110; ++k) {
      if (k == 101) CHECK(db.checkpoint() == Status::kOk);
      CHECK(db.put(k, val_of(k)) == Status::kOk);
      if (k <= 100) snapped[k] = val_of(k);
    }
    CHECK(db.wal_sync() == Status::kOk);
  }
  const auto files = dir_contents(dir);
  CHECK(files.size() == 2);  // the snapshot and wal-0.log's 10 records
  FaultSpec faults;
  faults.fail_read_at = 1;  // the validation pass's first read
  {
    DurableDLHT db(small_options(), wal(dir, 1, &faults));
    CHECK(db.open() == Status::kIOError);
    CHECK(db.degraded());
    CHECK(db.stats().io_errors == 1);
    audit_exact(db, snapped, "unreadable_segment_keeps_snapshot");
  }
  CHECK(dir_contents(dir) == files);
  remove_dir(dir);
}

// A replay partition holds a descriptor for each file it reads, so a
// replay on P partitions holds up to P x files at once; open() caps P so
// that this stays under half the soft RLIMIT_NOFILE. Writers on all 8 WAL
// shards, a checkpoint, then more writes on all 8 leave 9 files to replay.
// A forked child lowers its limit to 24 and reopens the directory on the
// 4 partitions it asks for through RecoveryTestHook: it must answer kOk,
// replay on at most 24 / 2 / 9 = 1 partition, and hold the table at close.
void replay_fits_descriptor_limit() {
  std::puts("replay_fits_descriptor_limit");
  const std::string dir = make_dir();
  constexpr unsigned kShards = 8;
  Table at_close;
  {
    DurableDLHT db(small_options(), wal(dir, kShards));
    CHECK(db.open() == Status::kOk);
    std::uint64_t key = 0;
    const auto write_every_shard = [&] {
      for (unsigned shard = 0; shard < kShards; ++shard) {
        on_wal_shard(shard, kShards, [&] {
          for (int i = 0; i < 100; ++i, ++key) db.put(key, val_of(key));
        });
      }
    };
    write_every_shard();
    CHECK(db.checkpoint() == Status::kOk);
    write_every_shard();
    CHECK(db.wal_sync() == Status::kOk);
    at_close = table_of(db);
  }
  CHECK(wal_files(dir).size() == kShards);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    struct rlimit fds;
    if (::getrlimit(RLIMIT_NOFILE, &fds) != 0) ::_exit(10);
    fds.rlim_cur = 24;
    if (::setrlimit(RLIMIT_NOFILE, &fds) != 0) ::_exit(11);
    DurableDLHT db(small_options(), wal(dir, kShards));
    if (RecoveryTestHook::open(db, 4) != Status::kOk) ::_exit(12);
    if (db.stats().recovery_partitions != 1) ::_exit(13);
    if (table_of(db) != at_close) ::_exit(14);
    ::_exit(0);
  }
  int status = 0;
  CHECK(pid > 0 && ::waitpid(pid, &status, 0) == pid);
  if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    std::fprintf(stderr,
                 "FAIL replay under a descriptor limit: child %s %d (want "
                 "exit 0)\n",
                 WIFEXITED(status) ? "exited" : "killed by signal",
                 WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status));
    ++g_failures;
  }
  remove_dir(dir);
}

// Only the newest snapshot is read. One flipped byte in one of its chunks
// fails open() with kIOError, degraded, and open() changes no file: every
// snapshot and log stays byte-identical, and the tier refuses to
// checkpoint. Case (a) has that snapshot alone. In case (b) a second
// checkpoint deleted the first snapshot and the frozen segments between
// the two barriers, and the first snapshot is put back beside the rotted
// second one, as a crash between the checkpoint's segment and snapshot
// deletes leaves it: falling back to it would lose those 1000 keys. With
// the byte restored, a reopen recovers every key.
void corrupt_newest_snapshot_fails_open() {
  for (const bool second : {false, true}) {
    std::printf("corrupt_newest_snapshot_fails_open(%s)\n",
                second ? "older snapshot beside it" : "only snapshot");
    const std::string dir = make_dir();
    std::unordered_map<std::uint64_t, std::uint64_t> expect;
    std::string older;
    std::vector<std::uint8_t> older_bytes;
    {
      DurableDLHT db(small_options(), wal(dir));
      CHECK(db.open() == Status::kOk);
      std::uint64_t k = 1;
      const auto put_n = [&](std::uint64_t n) {
        for (const std::uint64_t end = k + n; k < end; ++k) {
          CHECK(db.put(k, val_of(k)) == Status::kOk);
          expect[k] = val_of(k);
        }
      };
      put_n(1000);
      CHECK(db.checkpoint() == Status::kOk);
      if (second) {
        const auto snaps = files_starting(dir, "snapshot-");
        CHECK(snaps.size() == 1);
        if (!snaps.empty()) older = snaps[0];
        older_bytes = slurp(older);
        put_n(1000);
        CHECK(db.checkpoint() == Status::kOk);
      }
      put_n(10);
      CHECK(db.wal_sync() == Status::kOk);
    }
    if (second) write_bytes(older, older_bytes.data(), older_bytes.size());
    std::string newest;
    for (const std::string& f : files_starting(dir, "snapshot-")) {
      if (f != older) newest = f;
    }
    CHECK(!newest.empty());
    constexpr long kInChunk = 32 + 8 + 10;  // header, chunk frame, entry 0
    flip_byte(newest, kInChunk, 0x20);
    const auto files = dir_contents(dir);
    CHECK(files.size() == (second ? 2u : 1u) + 4u);  // snapshots, 4 logs
    {
      DurableDLHT db(small_options(), wal(dir));
      CHECK(db.open() == Status::kIOError);
      CHECK(db.degraded());
      CHECK(db.stats().io_errors == 1);
      CHECK(db.checkpoint() == Status::kIOError);
      CHECK(dir_contents(dir) == files);
    }
    CHECK(dir_contents(dir) == files);
    flip_byte(newest, kInChunk, 0x20);
    {
      DurableDLHT db(small_options(), wal(dir));
      CHECK(db.open() == Status::kOk);
      CHECK(!db.degraded());
      audit_exact(db, expect, "corrupt_newest_snapshot_fails_open");
    }
    remove_dir(dir);
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// A "<field>: N kB" line of /proc/self/status, in bytes; 0 if unreadable.
std::uint64_t status_bytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char fmt[32];
  std::snprintf(fmt, sizeof fmt, "%s: %%llu kB", field);
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, fmt, &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

/// This process's peak resident set (VmHWM), in bytes; 0 if unreadable.
std::uint64_t peak_rss_bytes() { return status_bytes("VmHWM"); }

/// Reset VmHWM to the current RSS (Linux clear_refs "5").
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Recovery memory beyond the table is O(files x chunk), not O(log): a log
// of 2M+ puts over 64 keys (so the table stays tiny) replays while the
// process's peak RSS grows by less than a quarter of the log's size. The
// snapshot streams like a segment: recovering 2M keys from a snapshot
// alone grows peak RSS by at most a quarter of the snapshot's size more
// than recovering them from a WAL-only directory; a copy of its entries
// (16 B a key, against 24 B on disk) would take two thirds of it. The
// bounds hold in optimized, unsanitized builds; sanitizer builds recover
// less and check only what they recover.
void recovery_memory_is_bounded() {
  std::puts("recovery_memory_is_bounded");
  const bool bound = kOptimized && !kSanitized;
  const std::uint64_t records =
      bound ? (std::uint64_t{1} << 21) + 4096 : std::uint64_t{1} << 17;
  const std::string dir = make_dir();
  DurabilityOptions d = wal(dir);
  d.wal_fsync_interval_ops = 1u << 16;
  std::unordered_map<std::uint64_t, std::uint64_t> expect;
  {
    DurableDLHT db(small_options(), d);
    CHECK(db.open() == Status::kOk);
    std::vector<Request> reqs(64);
    std::vector<Reply> reps(64);
    for (std::uint64_t i = 0; i < records; i += reqs.size()) {
      for (std::size_t j = 0; j < reqs.size(); ++j) {
        reqs[j] = {OpType::kPut, 1 + j, i + j + 1, 0};
        expect[1 + j] = i + j + 1;
      }
      db.execute_batch(reqs.data(), reps.data(), reqs.size());
    }
  }
  std::uint64_t wal_bytes = 0;
  for (const std::string& f : wal_files(dir)) {
    struct stat st {};
    if (::stat(f.c_str(), &st) == 0) {
      wal_bytes += static_cast<std::uint64_t>(st.st_size);
    }
  }
  CHECK(wal_bytes == records * kWalRecordBytes);
  DurableDLHT db(small_options(), d);
  const bool reset = reset_peak_rss();
  const std::uint64_t before = peak_rss_bytes();
  CHECK(db.open() == Status::kOk);
  const std::uint64_t after = peak_rss_bytes();
  CHECK(db.stats().replayed_records == records);
  audit_exact(db, expect, "recovery_memory_is_bounded");
  std::printf("  wal %.1f MiB, peak RSS grew %.1f MiB during open()\n",
              static_cast<double>(wal_bytes) / (1 << 20),
              static_cast<double>(after - before) / (1 << 20));
  if (bound && reset && before != 0) {
    CHECK(after - before < wal_bytes / 4);
  } else {
    std::puts("  memory bound not checked (sanitized/debug build or no "
              "clear_refs)");
  }
  remove_dir(dir);

  // The table is sized for the keys, so no resize holds two tables at the
  // peak and the two growths differ by what recovery holds beside the table.
  const std::uint64_t keys = bound ? std::uint64_t{1} << 21 : 1u << 16;
  Options sized;
  sized.initial_bins = keys / 2;
  const std::string dir2 = make_dir();
  DurabilityOptions d2 = wal(dir2);
  d2.wal_fsync_interval_ops = 1u << 16;
  {
    DurableDLHT db(sized, d2);
    CHECK(db.open() == Status::kOk);
    std::vector<Request> reqs(64);
    std::vector<Reply> reps(64);
    for (std::uint64_t k = 1; k <= keys; k += reqs.size()) {
      for (std::size_t j = 0; j < reqs.size(); ++j) {
        reqs[j] = {OpType::kPut, k + j, val_of(k + j), 0};
      }
      db.execute_batch(reqs.data(), reps.data(), reqs.size());
    }
  }
  std::uint64_t growth[2] = {0, 0};  // WAL-only, then snapshot alone
  bool measured = bound;
  std::uint64_t snapshot_bytes = 0;
  for (const int snap : {0, 1}) {
    DurableDLHT db(sized, d2);
    measured &= reset_peak_rss();
    const std::uint64_t start = peak_rss_bytes();
    CHECK(db.open() == Status::kOk);
    growth[snap] = peak_rss_bytes() - start;
    measured &= start != 0;
    const auto s = db.stats();
    CHECK(s.replayed_records == (snap ? 0 : keys));
    std::uint64_t right = 0, seen = 0;
    db.for_each([&](std::uint64_t k, std::uint64_t v) {
      ++seen;
      right += k >= 1 && k <= keys && v == val_of(k);
    });
    CHECK(seen == keys && right == keys);
    if (snap == 0) {
      CHECK(db.checkpoint() == Status::kOk);
      snapshot_bytes = db.stats().snapshot_bytes;
    } else {
      CHECK(s.recovered_snapshot_lsn == keys);
    }
  }
  std::printf("  %llu keys: peak RSS grew %.1f MiB from the WAL, %.1f MiB "
              "from a %.1f MiB snapshot\n",
              static_cast<unsigned long long>(keys),
              static_cast<double>(growth[0]) / (1 << 20),
              static_cast<double>(growth[1]) / (1 << 20),
              static_cast<double>(snapshot_bytes) / (1 << 20));
  if (measured) CHECK(growth[1] <= growth[0] + snapshot_bytes / 4);
  remove_dir(dir2);
}

// A resize whose table mapping fails throws std::bad_alloc out of a batch
// mid-chunk, after the chunk's first requests were applied and logged. The
// shard buffer must keep exactly their records: a zero frame left for a
// request that never ran would end the file's trusted prefix at reopen and
// drop every later record, synced ones included. A forked child lowers its
// soft address-space limit below a grown table's mapping, inserts in
// batches of 64, offset so that the every-256-inserts resize check lands
// mid-chunk, until a batch throws; then it restores the limit, writes on
// (through a resize that now succeeds), syncs, closes and reopens. The
// recovered table must equal the table at close. Sanitized builds skip it:
// their shadow memory does not fit the cap.
void resize_failure_mid_batch_keeps_log() {
  std::puts("resize_failure_mid_batch_keeps_log");
  if (kSanitized) {
    std::puts("  skip (sanitized build)");
    return;
  }
  const std::string dir = make_dir();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    Options o;
    o.initial_bins = std::size_t{1} << 15;  // a grow maps over 16 MiB
    o.link_ratio = 0.5;  // chunk0 holds every link bucket the fill needs
    DurabilityOptions d = wal(dir);
    d.wal_fsync_interval_ops = 1u << 16;
    Table at_close;
    {
      DurableDLHT db(o, d);
      if (db.open() != Status::kOk) ::_exit(10);
      struct rlimit old;
      if (::getrlimit(RLIMIT_AS, &old) != 0) ::_exit(11);
      const std::uint64_t vm = status_bytes("VmSize");
      struct rlimit cap = old;
      cap.rlim_cur = vm + (std::uint64_t{1} << 20);
      if (vm == 0 || ::setrlimit(RLIMIT_AS, &cap) != 0) ::_exit(12);
      ::alarm(10);
      std::uint64_t next = 1;
      std::vector<Request> reqs(64);
      std::vector<Reply> reps(64);
      const auto insert_batch = [&](std::size_t n) {
        for (std::size_t j = 0; j < n; ++j, ++next) {
          reqs[j] = {OpType::kInsert, next, val_of(next), 0};
        }
        db.execute_batch(reqs.data(), reps.data(), n);
      };
      insert_batch(10);
      bool threw = false;
      while (!threw && next < (std::uint64_t{1} << 18)) {
        try {
          insert_batch(64);
        } catch (const std::bad_alloc&) {
          threw = true;
        }
      }
      if (!threw) ::_exit(13);
      // The chunk's first insert ran and was logged; its last never ran.
      if (!db.get(reqs[0].key) || db.get(reqs[63].key)) ::_exit(14);
      if (::setrlimit(RLIMIT_AS, &old) != 0) ::_exit(15);
      for (int i = 0; i < 8; ++i) insert_batch(64);
      for (std::uint64_t k = 1; k <= 64; ++k) {
        if (db.put(k, k + 1) != Status::kOk) ::_exit(16);
        if (db.erase(k + 64) != Status::kOk) ::_exit(17);
      }
      if (db.wal_sync() != Status::kOk) ::_exit(18);
      at_close = table_of(db);
    }
    DurableDLHT db(o, d);
    if (db.open() != Status::kOk) ::_exit(19);
    if (db.stats().wal_corrupt_tails != 0) ::_exit(20);
    if (table_of(db) != at_close) ::_exit(21);
    ::_exit(0);
  }
  int status = 0;
  CHECK(pid > 0 && ::waitpid(pid, &status, 0) == pid);
  if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    std::fprintf(stderr,
                 "FAIL resize failure mid-batch: child %s %d (want exit 0)\n",
                 WIFEXITED(status) ? "exited" : "killed by signal",
                 WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status));
    ++g_failures;
  }
  remove_dir(dir);
}

// ----------------------------------------------------------------- CRC32C

// The standard CRC-32C check value, and the hardware path equal to the
// table-driven one for every length 0-64 at every start offset 0-7, so
// each of its 8-, 4- and 1-byte steps runs at every alignment.
void crc32c_known_answers() {
  std::puts("crc32c_known_answers");
  CHECK(crc32c("123456789", 9) == 0xE3069283u);
#if DLHT_PROBE_X86_SIMD
  if (__builtin_cpu_supports("sse4.2") == 0) {
    std::puts("  no SSE4.2: hardware path not checked");
    return;
  }
  Xoshiro256 rng(splitmix64(0xc3c32c));
  unsigned char buf[72];
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  int mismatches = 0;
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 64; ++n) {
      mismatches += detail_crc::crc_hw(buf + off, n, ~0u) !=
                    detail_crc::crc_table(buf + off, n, ~0u);
    }
  }
  CHECK(mismatches == 0);
#endif
}

// --------------------------------------------------------------- fuzzing

// What stream_snapshot yields from a file: whether it ended at a valid
// footer, and every entry it passed on.
std::pair<bool, Table> read_snapshot(const std::string& path) {
  Table entries;
  const auto lsn = stream_snapshot(
      path, [&](auto k, auto v) { entries.emplace_back(k, v); });
  return {lsn.has_value(), entries};
}

// The decoders are total functions: arbitrary bytes, arbitrary
// truncations, no UB (this test runs under ASan/UBSan in scripts/ci.sh).
void fuzz_wal_and_snapshot_decoders() {
  std::puts("fuzz_wal_and_snapshot_decoders");
  Xoshiro256 rng(splitmix64(0xfadedbeef));
  const std::string scratch = make_dir();
  const std::string file = scratch + "/snapshot";

  // Random buffers of every size class.
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = rng.next_below(257);
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    const auto d = wal_decode(buf.data(), buf.size());
    CHECK(d.valid_bytes <= buf.size());
    CHECK(d.valid_bytes % kWalRecordBytes == 0);
    CHECK(d.records.size() * kWalRecordBytes == d.valid_bytes);
    write_bytes(file, buf.data(), buf.size());
    read_snapshot(file);  // any result is fine; no crash is the test
  }

  // A real log, truncated at every offset: the decoder keeps exactly the
  // whole records and flags the rest as torn.
  std::vector<std::uint8_t> log;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    WalRecord r;
    r.lsn = i;
    r.op = WalOp::kPut;
    r.key = i * 11;
    r.value = i * 13;
    std::uint8_t frame[kWalRecordBytes];
    wal_encode(r, frame);
    log.insert(log.end(), frame, frame + kWalRecordBytes);
  }
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    const auto d = wal_decode(log.data(), cut);
    CHECK(d.records.size() == cut / kWalRecordBytes);
    CHECK(d.tail ==
          (cut % kWalRecordBytes == 0 ? WalTail::kClean : WalTail::kTorn));
    for (std::size_t i = 0; i < d.records.size(); ++i) {
      CHECK(d.records[i].lsn == i + 1);
      CHECK(d.records[i].key == (i + 1) * 11);
    }
  }

  // Every single-bit flip in a two-record log is caught.
  std::vector<std::uint8_t> two(log.begin(),
                                log.begin() + 2 * kWalRecordBytes);
  for (std::size_t bit = 0; bit < two.size() * 8; ++bit) {
    auto mut = two;
    mut[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto d = wal_decode(mut.data(), mut.size());
    CHECK(d.records.size() < 2 || d.tail == WalTail::kClean);
    // A flip in record 0 must not surface record 0.
    if (bit < kWalRecordBytes * 8) CHECK(d.records.empty());
  }

  // Snapshot round trip through a byte buffer, then truncations of it.
  {
    const std::string dir = make_dir();
    {
      DurableDLHT db(small_options(), wal(dir));
      CHECK(db.open() == Status::kOk);
      for (std::uint64_t k = 1; k <= 500; ++k) db.put(k, val_of(k));
      CHECK(db.checkpoint() == Status::kOk);
    }
    std::string snap_path;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        if (std::strncmp(e->d_name, "snapshot-", 9) == 0) {
          snap_path = dir + "/" + e->d_name;
        }
      }
      ::closedir(d);
    }
    CHECK(!snap_path.empty());
    const auto buf = slurp(snap_path);
    const auto [complete, entries] = read_snapshot(snap_path);
    CHECK(complete);
    CHECK(entries.size() == 500);
    for (std::size_t cut = 0; cut < buf.size(); cut += 7) {
      write_bytes(file, buf.data(), cut);
      CHECK(!read_snapshot(file).first);  // truncation never validates
    }
    remove_dir(dir);
  }
  remove_dir(scratch);
}

// WalReader (what recovery runs) yields exactly what wal_decode (the
// reference) yields over the same bytes: records, tail kind and trusted
// prefix. Driven by random buffers, mutated and truncated real logs, and
// logs longer than WalReader::kChunkBytes cut, flipped or LSN-swapped
// around the chunk boundaries its refill crosses.
bool reader_matches_decode(const std::string& path, const std::uint8_t* p,
                           std::size_t n) {
  const WalDecodeResult want = wal_decode(p, n);
  WalReader reader(path);
  std::vector<WalRecord> got;
  for (WalRecord r; reader.next(&r);) got.push_back(r);
  bool same = reader.ok() && reader.tail() == want.tail &&
              reader.valid_bytes() == want.valid_bytes &&
              got.size() == want.records.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    const WalRecord& a = got[i];
    const WalRecord& b = want.records[i];
    same = a.lsn == b.lsn && a.op == b.op && a.key == b.key &&
           a.value == b.value;
  }
  return same;
}

std::vector<std::uint8_t> encode_log(std::size_t records, Xoshiro256& rng) {
  std::vector<std::uint8_t> log(records * kWalRecordBytes);
  std::uint64_t lsn = 0;
  for (std::size_t i = 0; i < records; ++i) {
    WalRecord r;
    lsn += 1 + rng.next_below(3);
    r.lsn = lsn;
    r.op = static_cast<WalOp>(1 + rng.next_below(3));
    r.key = rng();
    r.value = r.op == WalOp::kDelete ? 0 : rng();
    wal_encode(r, log.data() + i * kWalRecordBytes);
  }
  return log;
}

void wal_reader_matches_wal_decode() {
  std::puts("wal_reader_matches_wal_decode");
  const std::string dir = make_dir();
  const std::string path = dir + "/wal-0.log";
  Xoshiro256 rng(splitmix64(0x5eade7));
  int mismatches = 0;

  // Random buffers of every size class.
  for (int round = 0; round < 1000; ++round) {
    std::vector<std::uint8_t> buf(rng.next_below(257));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    write_bytes(path, buf.data(), buf.size());
    mismatches += !reader_matches_decode(path, buf.data(), buf.size());
  }

  // Real logs with a few random byte changes, cut at a random length.
  for (int round = 0; round < 1000; ++round) {
    auto log = encode_log(1 + rng.next_below(80), rng);
    for (std::uint64_t m = rng.next_below(3); m > 0; --m) {
      log[rng.next_below(log.size())] = static_cast<std::uint8_t>(rng());
    }
    log.resize(rng.next_below(log.size() + 1));
    write_bytes(path, log.data(), log.size());
    mismatches += !reader_matches_decode(path, log.data(), log.size());
  }

  // A log spanning three chunks, cut at every offset within two records of
  // each chunk boundary (longest cut first, so one file truncates down).
  constexpr std::size_t kChunk = WalReader::kChunkBytes;
  const auto log = encode_log(2 * kChunk / kWalRecordBytes + 5, rng);
  write_bytes(path, log.data(), log.size());
  mismatches += !reader_matches_decode(path, log.data(), log.size());
  for (std::size_t boundary : {2 * kChunk, kChunk}) {
    for (std::size_t cut = boundary + 2 * kWalRecordBytes;
         cut + 2 * kWalRecordBytes >= boundary; --cut) {
      CHECK(::truncate(path.c_str(), static_cast<off_t>(cut)) == 0);
      mismatches += !reader_matches_decode(path, log.data(), cut);
    }
  }

  // A flipped byte or an LSN step back in the records on either side of
  // the first chunk boundary.
  const std::size_t last = kChunk / kWalRecordBytes - 1;  // ends chunk 1
  for (std::size_t rec = last - 1; rec <= last + 2; ++rec) {
    auto flipped = log;
    flipped[rec * kWalRecordBytes + 20] ^= 0x04;
    write_bytes(path, flipped.data(), flipped.size());
    mismatches += !reader_matches_decode(path, flipped.data(), flipped.size());

    auto swapped = log;  // records rec and rec+1 trade places
    std::swap_ranges(swapped.begin() + rec * kWalRecordBytes,
                     swapped.begin() + (rec + 1) * kWalRecordBytes,
                     swapped.begin() + (rec + 1) * kWalRecordBytes);
    write_bytes(path, swapped.data(), swapped.size());
    CHECK(wal_decode(swapped.data(), swapped.size()).tail ==
          WalTail::kCorrupt);
    mismatches += !reader_matches_decode(path, swapped.data(), swapped.size());
  }
  CHECK(mismatches == 0);
  remove_dir(dir);
}

// The snapshot of a table of 8192 keys spans four chunks of at most 2560
// entries. stream_snapshot yields exactly that table from the whole file,
// and no cut of the file validates: not at any offset within two entries
// of a frame (each chunk header and the footer), nor of the end of a
// buffer fill (64 KiB past the file's start or past a frame).
void snapshot_cuts_never_validate() {
  std::puts("snapshot_cuts_never_validate");
  const std::string dir = make_dir();
  Table table;
  {
    DurableDLHT db(small_options(), wal(dir, 1));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 8192; ++k) {
      CHECK(db.put(k, val_of(k)) == Status::kOk);
    }
    CHECK(db.checkpoint() == Status::kOk);
    table = table_of(db);
  }
  const auto snaps = files_starting(dir, "snapshot-");
  CHECK(snaps.size() == 1);
  if (snaps.size() != 1) return;
  const auto bytes = slurp(snaps[0]);
  auto [complete, entries] = read_snapshot(snaps[0]);
  std::sort(entries.begin(), entries.end());
  CHECK(complete);
  CHECK(entries == table);

  std::vector<std::size_t> marks = {ChunkReader::kChunkBytes};
  std::size_t frames = 0;
  for (std::size_t off = 32; off + 8 <= bytes.size();) {
    ++frames;
    marks.push_back(off);
    marks.push_back(off + ChunkReader::kChunkBytes);
    std::uint32_t len;
    std::memcpy(&len, bytes.data() + off, 4);
    if (len == 0) break;  // the footer
    off += 8 + len;
  }
  CHECK(frames == 5);  // four chunks and the footer
  constexpr std::size_t kNear = 2 * kSnapshotEntryBytes;
  std::set<std::size_t, std::greater<>> cuts;  // longest first
  for (const std::size_t m : marks) {
    for (std::size_t c = m - kNear; c <= m + kNear; ++c) {
      if (c < bytes.size()) cuts.insert(c);
    }
  }
  const std::string cut_path = dir + "/cut";
  write_bytes(cut_path, bytes.data(), bytes.size());
  int validated = 0;
  for (const std::size_t cut : cuts) {
    CHECK(::truncate(cut_path.c_str(), static_cast<off_t>(cut)) == 0);
    validated += read_snapshot(cut_path).first;
  }
  std::printf("  %zu cuts\n", cuts.size());
  CHECK(validated == 0);
  remove_dir(dir);
}

// A footer whose count is one off, with its CRC recomputed, never
// validates. Nor does a chunk whose header claims more bytes than the
// reader's buffer holds, though its payload holds whole entries under a
// matching CRC; the largest chunk the buffer holds, built the same way,
// validates.
void snapshot_bad_frames_refused() {
  std::puts("snapshot_bad_frames_refused");
  const std::string dir = make_dir();
  {
    DurableDLHT db(small_options(), wal(dir, 1));
    CHECK(db.open() == Status::kOk);
    for (std::uint64_t k = 1; k <= 100; ++k) db.put(k, val_of(k));
    CHECK(db.checkpoint() == Status::kOk);
  }
  const auto snaps = files_starting(dir, "snapshot-");
  CHECK(snaps.size() == 1);
  if (snaps.size() != 1) return;
  const auto bytes = slurp(snaps[0]);
  const std::string path = dir + "/edited";
  const auto validates = [&](const std::vector<std::uint8_t>& b) {
    write_bytes(path, b.data(), b.size());
    return read_snapshot(path).first;
  };
  CHECK(validates(bytes));
  const std::size_t count_at = bytes.size() - 12;  // [count u64][crc u32]
  for (const std::uint64_t count : {99u, 101u}) {
    auto b = bytes;
    std::memcpy(b.data() + count_at, &count, 8);
    const std::uint32_t crc = crc32c(&count, 8);
    std::memcpy(b.data() + count_at + 8, &crc, 4);
    CHECK(!validates(b));
  }

  const auto put = [](std::vector<std::uint8_t>& b, const void* p,
                      std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    b.insert(b.end(), c, c + n);
  };
  // The real header, one chunk of `n` entries, and a footer counting them.
  const auto one_chunk = [&](std::uint64_t n) {
    std::vector<std::uint8_t> payload;
    for (std::uint64_t k = 1; k <= n; ++k) {
      const std::uint32_t kv_len = 8;
      const std::uint64_t v = val_of(k);
      put(payload, &kv_len, 4);
      put(payload, &kv_len, 4);
      put(payload, &k, 8);
      put(payload, &v, 8);
    }
    std::vector<std::uint8_t> b(bytes.begin(), bytes.begin() + 32);
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = crc32c(payload.data(), payload.size());
    put(b, &len, 4);
    put(b, &crc, 4);
    put(b, payload.data(), payload.size());
    const std::uint32_t zero = 0;
    const std::uint32_t fcrc = crc32c(&n, 8);
    put(b, &zero, 4);
    put(b, &zero, 4);
    put(b, &n, 8);
    put(b, &fcrc, 4);
    return b;
  };
  constexpr std::uint64_t kFits =
      (ChunkReader::kChunkBytes - 8) / kSnapshotEntryBytes;
  CHECK(validates(one_chunk(kFits)));
  CHECK(!validates(one_chunk(kFits + 1)));
  remove_dir(dir);
}

// ------------------------------------------------------- recovery threads

// detail_wal::run_tasks, which runs recovery's two passes: every task runs
// exactly once, the calling thread runs task 0, one task or none starts no
// thread, and a task's exception reaches the caller once every thread has
// stopped.
void run_tasks_contract() {
  std::puts("run_tasks_contract");
  const std::thread::id me = std::this_thread::get_id();
  for (const std::size_t threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> ran(37);
    std::vector<std::thread::id> by(ran.size());
    detail_wal::run_tasks(ran.size(), threads, [&](std::size_t i) {
      ran[i].fetch_add(1);
      by[i] = std::this_thread::get_id();
    });
    for (const std::atomic<int>& r : ran) CHECK(r.load() == 1);
    CHECK(by[0] == me);
    if (threads == 1) {
      CHECK(std::count(by.begin(), by.end(), me) ==
            static_cast<std::ptrdiff_t>(by.size()));
    }
  }
  std::thread::id only;
  detail_wal::run_tasks(1, 4, [&](std::size_t) {
    only = std::this_thread::get_id();
  });
  CHECK(only == me);
  int none = 0;
  detail_wal::run_tasks(0, 4, [&](std::size_t) { ++none; });
  CHECK(none == 0);
  std::atomic<int> running{0};
  bool caught = false;
  try {
    detail_wal::run_tasks(4, 4, [&](std::size_t i) {
      running.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 20 : 1));
      running.fetch_sub(1);
      if (i == 2) throw std::runtime_error("task 2");
    });
  } catch (const std::runtime_error& e) {
    caught = std::strcmp(e.what(), "task 2") == 0;
  }
  CHECK(caught);
  CHECK(running.load() == 0);
}

// ------------------------------------------------------------ shard lock

// Mutual exclusion: 8 threads increment a plain counter under the lock.
void shard_lock_counts_exactly() {
  std::puts("shard_lock_counts_exactly");
  constexpr int kThreads = 8, kRounds = 100000;
  detail_wal::ShardLock lock;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::lock_guard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  CHECK(counter == std::uint64_t{kThreads} * kRounds);
}

void shard_lock_try_lock() {
  std::puts("shard_lock_try_lock");
  detail_wal::ShardLock lock;
  std::atomic<int> stage{0};
  std::thread holder([&] {
    lock.lock();
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
    lock.unlock();
  });
  while (stage.load() != 1) std::this_thread::yield();
  CHECK(!lock.try_lock());
  stage.store(2);
  holder.join();
  CHECK(lock.try_lock());
  lock.unlock();
}

double thread_cpu_s() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Waiters park: 4 threads wait while the holder sleeps 20 ms under the
// lock. Each must take the lock within 1 s of the release, and together
// they must burn under a tenth of the 4 x 20 ms they waited; a lock that
// only spins burns all of it, and one whose unlock never wakes a parked
// waiter leaves them asleep (the case then exits instead of hanging).
void shard_lock_waiters_park() {
  std::puts("shard_lock_waiters_park");
  constexpr int kWaiters = 4;
  constexpr auto kHold = std::chrono::milliseconds(20);
  using Clock = std::chrono::steady_clock;
  detail_wal::ShardLock lock;
  std::atomic<int> arrived{0}, acquired{0};
  std::atomic<double> cpu_s{0};
  lock.lock();
  std::vector<std::thread> ts;
  for (int t = 0; t < kWaiters; ++t) {
    ts.emplace_back([&] {
      const double c0 = thread_cpu_s();
      arrived.fetch_add(1);
      lock.lock();
      cpu_s.fetch_add(thread_cpu_s() - c0);
      lock.unlock();
      acquired.fetch_add(1);
    });
  }
  while (arrived.load() != kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(kHold);
  const Clock::time_point released = Clock::now();
  lock.unlock();
  while (acquired.load() != kWaiters) {
    if (Clock::now() - released > std::chrono::seconds(1)) {
      std::fprintf(stderr,
                   "FAIL %s:%d: %d of %d waiters took the lock within 1 s\n",
                   __FILE__, __LINE__, acquired.load(), kWaiters);
      std::fflush(stderr);
      std::_Exit(1);  // the others may sleep forever: fail, do not hang
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : ts) t.join();
  const double budget_s =
      0.1 * kWaiters * std::chrono::duration<double>(kHold).count();
  std::printf("  waiters' CPU time %.3f ms (limit %.1f ms)\n",
              cpu_s.load() * 1e3, budget_s * 1e3);
  CHECK(cpu_s.load() < budget_s);
}

}  // namespace

int main() {
  // The shard lock first: a lock that loses a wake-up would hang the
  // multi-writer cases below, while shard_lock_waiters_park exits.
  shard_lock_try_lock();
  shard_lock_waiters_park();
  shard_lock_counts_exactly();
  clean_snapshot_roundtrip();
  wal_only_recovery();
  snapshot_plus_wal_suffix();
  rmw_update_logged();
  torn_tail_truncated();
  bad_crc_tail_rejected();
  mid_file_corruption_stops_replay();
  corrupt_tails_accumulate();
  fail_at_nth_sync_degrades();
  injected_write_faults_recover();
  checkpoint_gc_and_cycles();
  checkpoint_crash_keeps_frozen_generations();
  fewer_shards_fold_orphan_logs();
  in_memory_mode();
  batch_matches_scalar();
  same_key_sequence_across_shards();
  failsync_inside_batch();
  batched_writers_beside_checkpoints();
  racing_shards_keep_key_order();
  single_writer_fills_one_shard();
  no_change_logs_nothing();
  merge_orders_alternating_segments();
  run_tasks_contract();
  partitioned_replay_matches_serial();
  unreadable_segment_fails_open();
  unreadable_segment_keeps_snapshot();
  replay_fits_descriptor_limit();
  corrupt_newest_snapshot_fails_open();
  recovery_memory_is_bounded();
  resize_failure_mid_batch_keeps_log();
  crc32c_known_answers();
  fuzz_wal_and_snapshot_decoders();
  wal_reader_matches_wal_decode();
  snapshot_cuts_never_validate();
  snapshot_bad_frames_refused();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all recovery tests passed");
  return 0;
}
