// Kill-and-recover harness: one crash workload and one checker for the
// durable tier and the KV node.
//
//   kill_recover_writer --run DIR [--connect SPEC]
//       Churn Put/Delete/upsert traffic and record a durable progress file
//       after every successful sync: alone, through a DurableDLHT in DIR
//       that it checkpoints after its first commit and then every 100 ms,
//       until SIGKILLed (tests/kill_recover_test.sh); with --connect,
//       through a `dlht_server --durable DIR` listening on SPEC, until
//       every connection has seen the server die (tests/kv_loopback_test.sh
//       SIGKILLs it), then exit 0. A 30 s cap bounds both.
//   kill_recover_writer --audit DIR
//       Recover DIR and audit zero lost committed keys and zero duplicates
//       against the progress file.
//
// DLHT_FAULT=torn:N|flip:N|failsync:N (N >= 1) corrupts the in-process
// writer's files through the FaultyFile wrapper; the commit protocol must
// hold under every mode. Any other value, any value with --connect, and a
// SPEC that is not unix:PATH or HOST:PORT refuse with exit 2 before DIR is
// opened or a server connected.
//
// Commit protocol: 4 writer threads send their ops through execute_batch,
// kRun keys' ops per batch, and thread t publishes applied[t] = i once a
// batch covering indices <= i has returned with no kIOError reply (so every
// record sits in a shard buffer or on disk). The committer snapshots
// applied[] BEFORE it syncs (wal_sync() in process, a Sync frame on its own
// connection with --connect); on kOk those watermarks are durable by the
// group-commit contract, and only then are they written to DIR/progress
// (tmp + fsync + rename, so the auditor never sees a torn progress file).
// Committed keys are never deleted — deletes churn on scratch keys — so
// "lost committed key" is unambiguous.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "dlht/durability.hpp"
#include "server/client.hpp"

namespace {

using dlht::OpType;
using dlht::Status;
using dlht::server::KvClient;
/// Where a writer's batches go and how the committer syncs: a DurableDLHT
/// in process, KvClient connections with --connect.
using Send = std::function<void(const dlht::DLHT::Request*,
                                dlht::DLHT::Reply*, std::size_t)>;
using Sync = std::function<Status()>;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kRun = 8;  // committed keys per batch
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

// -------------------------------------------------------- progress file

/// Read the committed watermarks in DIR/progress into `w`. With no file
/// yet (the writer died before its first commit) `w` stays as it is.
void read_progress(const std::string& dir, std::uint64_t (&w)[kThreads]) {
  std::FILE* f = std::fopen((dir + "/progress").c_str(), "r");
  if (f == nullptr) return;
  unsigned t = 0;
  std::uint64_t v = 0;
  while (std::fscanf(f, "%u %" SCNu64, &t, &v) == 2) {
    if (t < kThreads) w[t] = v;
  }
  std::fclose(f);
}

/// Replace DIR/progress with `w`: tmp + fsync + rename. A step that fails
/// leaves the previous file, whose lower watermarks are still committed.
void write_progress(const std::string& dir,
                    const std::uint64_t (&w)[kThreads]) {
  const std::string path = dir + "/progress";
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return;
  char line[64];
  bool ok = true;
  for (unsigned t = 0; t < kThreads && ok; ++t) {
    const int n = std::snprintf(line, sizeof line, "%u %" PRIu64 "\n", t, w[t]);
    ok = ::write(fd, line, static_cast<std::size_t>(n)) == n;
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (ok) ::rename(tmp.c_str(), path.c_str());
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

/// Writer t's batches from index `first` up to `end`. It stops at the
/// first batch with a kIOError reply: the server died, or the tier degraded
/// and no later sync can succeed.
void writer_loop(const Send& send, unsigned t, std::uint64_t first,
                 std::uint64_t end = 1ull << 40) {
  std::vector<dlht::DLHT::Request> reqs;
  std::vector<dlht::DLHT::Reply> reps;
  for (std::uint64_t i = first; i < end; i += kRun) {
    reqs.clear();
    for (std::uint64_t j = i; j < i + kRun; ++j) {
      const std::uint64_t k = key_of(t, j);
      // Delete churn on scratch keys only (put then erase); committed keys
      // are write-once so the audit can demand their presence outright.
      const std::uint64_t sk = k | kScratchBit;
      reqs.push_back({OpType::kPut, k, val_of(k), 0});
      reqs.push_back({OpType::kPut, sk, val_of(sk), 0});
      reqs.push_back({OpType::kDelete, sk, 0, 0});
      // Idempotent re-upsert of an older key: replay-order coverage
      // without changing any audited value.
      if (j % 16 == 0 && j > 1) {
        const std::uint64_t old = key_of(t, j / 2);
        reqs.push_back({OpType::kPut, old, val_of(old), 0});
      }
    }
    reps.resize(reqs.size());
    send(reqs.data(), reps.data(), reqs.size());
    for (const auto& r : reps) {
      if (r.status == Status::kIOError) return;
    }
    g_applied[t].store(i + kRun - 1, std::memory_order_release);
  }
}

/// One commit: snapshot applied[] BEFORE `sync()`, so that a kOk sync
/// makes durable every op the snapshot covers, and only then persist the
/// snapshot. False when the sync fails, after which nothing more can
/// commit.
bool commit(const std::string& dir, const Sync& sync) {
  std::uint64_t w[kThreads] = {};
  for (unsigned t = 0; t < kThreads; ++t) {
    w[t] = g_applied[t].load(std::memory_order_acquire);
  }
  if (sync() != Status::kOk) return false;
  write_progress(dir, w);
  return true;
}

/// The committer thread: a commit every 1 ms until a sync fails.
void commit_loop(const std::string& dir, const Sync& sync) {
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (commit(dir, sync));
}

int run(const std::string& dir, const std::string& connect) {
  dlht::FaultSpec faults;
  parse_fault_env_or_die(&faults);
  const bool injecting = faults.torn_write_at != 0 ||
                         faults.flip_write_at != 0 || faults.fail_sync_at != 0;
  if (injecting && !connect.empty()) {
    std::fprintf(stderr,
                 "kill_recover_writer: DLHT_FAULT needs the in-process "
                 "--run: with --connect the server writes DIR\n");
    return 2;
  }

  // Resume from a previous kill cycle against the same dir: start each
  // thread past its committed watermark (and never publish a lower one),
  // so a later audit demands the union of every cycle's committed keys —
  // this is what catches cross-restart loss, e.g. a checkpoint renaming a
  // live log over a frozen segment from the previous run.
  std::uint64_t start[kThreads] = {};
  read_progress(dir, start);
  for (unsigned t = 0; t < kThreads; ++t) {
    g_applied[t].store(start[t], std::memory_order_release);
  }

  // The harness SIGKILLs this process or, with --connect, the server, and
  // then every thread ends at its first failed reply or sync. This cap
  // keeps a missed kill from hanging CI.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    std::_Exit(0);
  }).detach();

  Send send[kThreads];
  Sync sync;
  std::unique_ptr<dlht::DurableDLHT> db;
  std::vector<std::unique_ptr<KvClient>> conns;
  if (connect.empty()) {
    dlht::DurabilityOptions dopts;
    dopts.dir = dir;
    dopts.faults = injecting ? &faults : nullptr;
    db = std::make_unique<dlht::DurableDLHT>(writer_options(), dopts);
    if (db->open() != Status::kOk) {
      std::fprintf(stderr, "run: open(%s) failed\n", dir.c_str());
      return 1;
    }
    for (Send& s : send) s = [&db](auto... a) { db->execute_batch(a...); };
    sync = [&db] { return db->wal_sync(); };
  } else {
    // One connection per writer, then the committer's.
    for (unsigned c = 0; c <= kThreads; ++c) {
      conns.push_back(std::make_unique<KvClient>());
      if (!conns.back()->connect(connect)) return 1;
    }
    for (unsigned t = 0; t < kThreads; ++t) {
      send[t] = [c = conns[t].get()](auto... a) { c->execute_batch(a...); };
    }
    sync = [c = conns[kThreads].get()] { return c->sync(); };
  }

  // The run starts on this thread: writer t's first batch for every t, one
  // commit and, in process, a checkpoint. Only then does writer t go on
  // from its second batch on a thread of its own, beside the committer.
  // The start takes 7 syncs, and 6 appends plus one per 60 KiB of
  // snapshot, so kill_recover_test.sh's DLHT_FAULT indices land past a
  // commit and a snapshot however fast DIR's filesystem syncs.
  for (unsigned t = 0; t < kThreads; ++t) {
    writer_loop(send[t], t, start[t] + 1, start[t] + 1 + kRun);
  }
  commit(dir, sync);
  std::vector<std::thread> threads;
  if (db != nullptr) {
    db->checkpoint();
    // A checkpoint every 100 ms: SIGKILL lands before/during/after snapshot
    // writes and WAL rotations depending on timing. The loop never ends;
    // the join below waits for the kill.
    threads.emplace_back([&db] {
      while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        db->checkpoint();
      }
    });
  }
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&send, &start, t] {
      writer_loop(send[t], t, start[t] + 1 + kRun);
    });
  }
  threads.emplace_back([&dir, &sync] { commit_loop(dir, sync); });
  for (std::thread& th : threads) th.join();
  std::_Exit(0);
}

// ----------------------------------------------------------- audit side

int audit(const std::string& dir) {
  int failures = 0;
  std::uint64_t committed[kThreads] = {};
  read_progress(dir, committed);

  dlht::DurableDLHT db(writer_options(), {dir});
  if (db.open() != Status::kOk) {
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
  const std::string mode = argc >= 3 ? argv[1] : "";
  if (argc == 3 && mode == "--audit") return audit(argv[2]);
  if (mode == "--run" && argc == 3) return run(argv[2], "");
  if (mode == "--run" && argc == 5 && std::strcmp(argv[3], "--connect") == 0) {
    return run(argv[2],
               dlht::server::endpoint_flag_or_die("--connect", argv[4]));
  }
  std::fprintf(stderr, "usage: %s --run DIR [--connect SPEC] | --audit DIR\n",
               argv[0]);
  return 2;
}
