// Kill-and-recover harness binary (driven by tests/kill_recover_test.sh):
//
//   kill_recover_writer --run DIR    churn Put/Delete/upsert traffic through
//                                    a DurableDLHT in DIR, group-committing
//                                    and recording a durable progress file
//                                    after every successful wal_sync, until
//                                    SIGKILLed (or a 30 s safety cap).
//   kill_recover_writer --audit DIR  recover DIR into a fresh tier and audit
//                                    zero lost committed keys and zero
//                                    duplicates against the progress file.
//
// DLHT_FAULT=torn:N|flip:N|failsync:N (run side only, N >= 1) injects
// corruption via the FaultyFile wrapper; the commit protocol must hold
// under every mode. Any other DLHT_FAULT value refuses with exit 2 before
// DIR is opened.
//
// Commit protocol: thread t publishes applied[t] = i once every op for
// indices <= i has RETURNED (so its record sits in a shard buffer or on
// disk). A committer snapshots applied[] BEFORE wal_sync(); on kOk those
// watermarks are durable by the group-commit contract, and only then are
// they written to DIR/progress (tmp + fsync + rename, so the auditor never
// sees a torn progress file). Committed keys are never deleted — deletes
// churn on scratch keys — so "lost committed key" is unambiguous.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "dlht/durability.hpp"

namespace {

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kBatch = 64;       // ops between commit attempts
constexpr std::uint64_t kScratchBit = 1ull << 62;

std::uint64_t key_of(unsigned t, std::uint64_t i) {
  return (static_cast<std::uint64_t>(t + 1) << 48) | i;
}

std::uint64_t val_of(std::uint64_t key) { return dlht::splitmix64(key) | 1u; }

dlht::Options writer_options() {
  dlht::Options o;
  o.initial_bins = 4096;  // small: churn drives live resizes under the WAL
  return o;
}

// ------------------------------------------------------------- run side

/// DLHT_FAULT's fault: exactly torn:N, flip:N or failsync:N with N >= 1;
/// unset injects nothing. Anything else refuses with exit 2, so a typo in
/// the harness's modes cannot run the no-fault path under a fault label.
void parse_fault_env_or_die(dlht::FaultSpec* out) {
  const char* s = std::getenv("DLHT_FAULT");
  if (s == nullptr) return;
  const char* colon = std::strchr(s, ':');
  const std::string mode = colon != nullptr ? std::string(s, colon) : "";
  std::uint64_t* at = mode == "torn"       ? &out->torn_write_at
                      : mode == "flip"     ? &out->flip_write_at
                      : mode == "failsync" ? &out->fail_sync_at
                                           : nullptr;
  bool ok = at != nullptr && std::isdigit(static_cast<unsigned char>(colon[1]));
  if (ok) {
    char* end = nullptr;
    errno = 0;
    *at = std::strtoull(colon + 1, &end, 10);
    ok = *end == '\0' && errno != ERANGE && *at >= 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "kill_recover_writer: bad DLHT_FAULT '%s': expected "
                 "torn:N, flip:N or failsync:N with N >= 1\n",
                 s);
    std::exit(2);
  }
}

std::atomic<std::uint64_t> g_applied[kThreads];

struct Committer {
  dlht::DurableDLHT* db;
  std::string path;
  std::mutex mu;

  // Snapshot applied[] first, sync, then persist the watermarks: everything
  // the file claims was covered by a successful group commit.
  bool commit() {
    std::lock_guard<std::mutex> g(mu);
    std::uint64_t w[kThreads];
    for (unsigned t = 0; t < kThreads; ++t) {
      w[t] = g_applied[t].load(std::memory_order_acquire);
    }
    if (db->wal_sync() != dlht::Status::kOk) return false;
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) return false;
    char line[64];
    for (unsigned t = 0; t < kThreads; ++t) {
      const int n =
          std::snprintf(line, sizeof line, "%u %" PRIu64 "\n", t, w[t]);
      if (::write(fd, line, static_cast<std::size_t>(n)) != n) {
        ::close(fd);
        return false;
      }
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      return false;
    }
    ::close(fd);
    return ::rename(tmp.c_str(), path.c_str()) == 0;
  }
};

void writer_thread(dlht::DurableDLHT* db, Committer* committer, unsigned t,
                   std::uint64_t first) {
  for (std::uint64_t i = first; i < (1ull << 40); ++i) {
    const std::uint64_t k = key_of(t, i);
    db->put(k, val_of(k));
    // Delete churn on scratch keys only (put then erase); committed keys
    // are write-once so the audit can demand their presence outright.
    const std::uint64_t sk = k | kScratchBit;
    db->put(sk, val_of(sk));
    db->erase(sk);
    // Idempotent re-upsert of an older key: replay-order coverage without
    // changing any audited value.
    if (i % 16 == 0 && i > 1) {
      const std::uint64_t old = key_of(t, i / 2);
      db->put(old, val_of(old));
    }
    g_applied[t].store(i, std::memory_order_release);
    if (i % kBatch == 0) committer->commit();
  }
}

int run(const std::string& dir) {
  dlht::FaultSpec faults;
  parse_fault_env_or_die(&faults);
  const bool injecting = faults.torn_write_at != 0 ||
                         faults.flip_write_at != 0 || faults.fail_sync_at != 0;

  dlht::DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.faults = injecting ? &faults : nullptr;
  dlht::DurableDLHT db(writer_options(), dopts);
  if (db.open() != dlht::Status::kOk) {
    std::fprintf(stderr, "run: open(%s) failed\n", dir.c_str());
    return 1;
  }

  // Resume from a previous kill cycle against the same dir: start each
  // thread past its committed watermark (and never publish a lower one),
  // so a later audit demands the union of every cycle's committed keys —
  // this is what catches cross-restart loss, e.g. a checkpoint renaming a
  // live log over a frozen segment from the previous run.
  std::uint64_t start[kThreads] = {};
  if (std::FILE* f = std::fopen((dir + "/progress").c_str(), "r")) {
    unsigned t;
    std::uint64_t w;
    while (std::fscanf(f, "%u %" SCNu64, &t, &w) == 2) {
      if (t < kThreads) start[t] = w;
    }
    std::fclose(f);
  }
  for (unsigned t = 0; t < kThreads; ++t) {
    g_applied[t].store(start[t], std::memory_order_release);
  }

  Committer committer{&db, dir + "/progress", {}};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back(writer_thread, &db, &committer, t, start[t] + 1);
  }
  // Background checkpoints: SIGKILL lands before/during/after snapshot
  // writes and WAL rotations depending on timing.
  std::thread snapshotter([&db] {
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      db.checkpoint();
    }
  });
  snapshotter.detach();
  // Safety cap so a missed kill cannot hang CI; the harness SIGKILLs long
  // before this fires.
  std::this_thread::sleep_for(std::chrono::seconds(30));
  std::_Exit(0);
}

// ----------------------------------------------------------- audit side

int audit(const std::string& dir) {
  int failures = 0;
  std::uint64_t committed[kThreads] = {};
  if (std::FILE* f = std::fopen((dir + "/progress").c_str(), "r")) {
    unsigned t;
    std::uint64_t w;
    while (std::fscanf(f, "%u %" SCNu64, &t, &w) == 2) {
      if (t < kThreads) committed[t] = w;
    }
    std::fclose(f);
  }  // no progress file: the writer died before its first commit — fine

  dlht::DurableDLHT db(writer_options(), {dir});
  if (db.open() != dlht::Status::kOk) {
    std::fprintf(stderr, "audit: open(%s) failed\n", dir.c_str());
    return 1;
  }
  const auto s = db.stats();

  // Zero lost committed: every watermark-covered key, exact value.
  std::uint64_t committed_total = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    committed_total += committed[t];
    for (std::uint64_t i = 1; i <= committed[t]; ++i) {
      const std::uint64_t k = key_of(t, i);
      const auto v = db.get(k);
      if (!v.has_value() || *v != val_of(k)) {
        if (failures < 10) {
          std::fprintf(stderr,
                       "audit: LOST committed key t=%u i=%" PRIu64 "\n", t, i);
        }
        ++failures;
      }
    }
  }

  // Zero duplicates, no invented keys, no misencoded values. Keys past the
  // watermark may or may not have survived; scratch keys may survive when
  // their delete missed the durable prefix — both are legal, but every
  // surviving key must be well-formed and carry its exact value.
  std::unordered_map<std::uint64_t, int> seen;
  db.for_each([&](std::uint64_t k, std::uint64_t v) {
    if (++seen[k] > 1) {
      std::fprintf(stderr, "audit: DUPLICATE key %#" PRIx64 "\n", k);
      ++failures;
    }
    const unsigned t =
        static_cast<unsigned>(((k & ~kScratchBit) >> 48) - 1);
    const std::uint64_t i = k & ((1ull << 48) - 1);
    if (t >= kThreads || i == 0 || v != val_of(k)) {
      std::fprintf(stderr, "audit: BAD entry %#" PRIx64 " -> %#" PRIx64 "\n",
                   k, v);
      ++failures;
    }
  });

  if (failures != 0) {
    std::fprintf(stderr, "audit: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("AUDIT OK committed=%" PRIu64 " live=%zu snapshot_lsn=%" PRIu64
              " replayed=%" PRIu64 "\n",
              committed_total, seen.size(), s.recovered_snapshot_lsn,
              s.replayed_records);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--run") == 0) return run(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "--audit") == 0) return audit(argv[2]);
  std::fprintf(stderr, "usage: %s --run DIR | --audit DIR\n", argv[0]);
  return 2;
}
