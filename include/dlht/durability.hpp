// Durable tier for DLHT: epoch-consistent snapshots + a per-shard
// write-ahead log with group commit, crash-recovery replay, and a
// fault-injection file layer so recovery is tested against injected
// corruption, not just clean shutdowns.
//
// Design:
//  * WAL. Mutations append fixed 32-byte records [crc|op|lsn|key|value] to
//    one of wal_shards log files. A WAL shard belongs to writer threads,
//    not to keys: a thread logs into shard this_thread_index() &
//    (wal_shards - 1). Writes go through execute_batch (scalar mutations
//    are a batch of one), in chunks of up to 64 requests: a chunk with a
//    mutation takes its thread's shard lock once and applies through one
//    DLHT::execute_batch call whose log callback draws each change's LSN
//    (one fetch_add on the shared counter) and encodes its record inside
//    the key's home-bucket critical section, just before the store that
//    publishes the change. The bucket lock serializes a key's writes, so a
//    key's LSN order is its apply order, wherever its records land; only
//    the shard lock's holder appends to a shard, and it draws increasing
//    LSNs, so each shard file is strictly LSN-ordered. A request that
//    changes nothing (an insert of a present key, a delete of an absent
//    one, kFull) logs nothing. A writer that finds the shard lock held
//    spins for a bounded budget (~10 µs), then parks until the holder's
//    unlock wakes it (detail_wal::ShardLock). A record is flushed+fsynced
//    by group commit: once a shard has
//    DurabilityOptions::wal_fsync_interval_ops records pending (checked
//    after the core call returns, with no bucket locked), or a background
//    committer thread notices a record older than
//    DurabilityOptions::wal_group_commit_us, one fsync covers the whole
//    batch. Group commit still writes and fsyncs under the shard lock, so
//    that shard's writers wait out the fsync (parked, past the spin
//    budget). wal_sync() forces durability explicitly — an op is
//    *committed* only once a sync covering it has succeeded.
//  * Snapshot. checkpoint() rotates the WAL segments, takes an LSN barrier
//    (all ops with lsn <= L are applied: it holds every shard lock while
//    it reads the LSN counter), then streams DLHT::for_each into
//    snapshot-<L>.dlht: a CRC32C-framed header, [klen|vlen|key|value]
//    entries in CRC-framed chunks, a count footer, fsync, and an atomic
//    rename into place. The snapshot is fuzzy (taken under concurrent
//    writers); fuzziness converges because the loader applies entries as
//    upserts and the whole WAL suffix with lsn > L replays on top in LSN
//    order.
//  * Directory. Each file has one rule: recovery reads, validates and
//    trims; only a successful checkpoint() deletes. It deletes every
//    snapshot but the one it wrote, and every wal-* file but the live
//    logs of the current wal_shards and the .corrupt copies: frozen
//    segments (wal-N.log.R.old) and the logs of shards beyond wal_shards
//    hold only records its barrier covers. Its rotation renames a live log
//    to the first R whose name is free, so it never renames over a frozen
//    segment that a crashed checkpoint left.
//  * Recovery. open() reads the newest snapshot-<L>.dlht (an older one is no
//    fallback: the checkpoint that wrote the newer one may have deleted the
//    frozen segments between the two barriers) and every wal-* file but the
//    .corrupt copies, each through one ChunkReader, in two passes on P
//    threads (the CPUs the process may run on). The validation pass reads up
//    to P files at a time, the snapshot to its footer and each segment to the
//    end of its trusted prefix. A snapshot that does not validate fails
//    open() with kIOError before any file changes; else the calling thread
//    truncates invalid tails. The replay pass runs P key partitions: each
//    streams the snapshot for its own keys' entries, then k-way merges every
//    segment's prefix by LSN and applies its own keys' records past the
//    snapshot, so every key sees the order a serial replay gives it. Memory
//    beyond the table is O(P x files x chunk), however long the log or large
//    the snapshot; P is capped so that P x files descriptors stay under half
//    the soft RLIMIT_NOFILE. A *torn* tail (a partial final record — the
//    SIGKILL signature) is silently dropped; a *corrupt* tail (a full record
//    failing its CRC — possible media rot over committed data) is also
//    dropped but counted in stats (io_errors, wal_corrupt_tails,
//    wal_discarded_bytes) and its bytes are appended to <log>.corrupt. A file
//    that cannot be read in full fails open() with kIOError; the tier then
//    never logs or checkpoints, so the files stay on disk for the next open.
//    It holds the snapshot alone when the validation pass found the error,
//    part of the table when the replay pass did.
//    Committed ops (those a successful wal_sync() covered) are never lost.
//    Each shard keeps its own durable prefix, so after a crash an unsynced
//    earlier write on one shard can be lost while a later write on another
//    shard, which that shard's group commit made durable, survives.
//  * Failure policy. No abort() on disk failure: the first op that
//    observes a WAL write/sync error returns Status::kIOError, the tier
//    degrades to memory-only mode, and stats() surfaces io_errors +
//    degraded so the caller can alarm instead of crashing.
//  * FaultyFile. Every file the tier writes can be wrapped by a fault
//    injector (short/torn writes, bit-flipped records, fail-at-Nth-sync)
//    driven by a FaultSpec — tests/recovery_test.cpp runs the crash-point
//    matrix and tests/kill_recover_test.sh SIGKILLs a live writer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/topology.hpp"
#include "dlht/dlht.hpp"

namespace dlht {

// ---------------------------------------------------------------- CRC32C
//
// Castagnoli CRC (the checksum every record and snapshot frame carries).
// Hardware SSE4.2 path dispatched at runtime (cpuid once, function-level
// target attribute — the build no longer assumes -march=native), with a
// table-driven fallback for hosts and ISAs without it. Both produce the
// standard reflected CRC-32C.

namespace detail_crc {

constexpr std::uint32_t kPoly = 0x82f63b78u;

struct Table {
  std::uint32_t v[256];
  constexpr Table() : v() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      v[i] = c;
    }
  }
};
inline constexpr Table kTable{};

#if DLHT_PROBE_X86_SIMD
__attribute__((target("sse4.2"))) inline std::uint32_t crc_hw(
    const unsigned char* p, std::size_t n, std::uint32_t c) {
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = static_cast<std::uint32_t>(_mm_crc32_u64(c, w));
    p += 8;
    n -= 8;
  }
  if (n >= 4) {  // a WAL record's 28 checked bytes end here
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    c = _mm_crc32_u32(c, w);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return c;
}
#endif

inline std::uint32_t crc_table(const unsigned char* p, std::size_t n,
                               std::uint32_t c) {
  while (n > 0) {
    c = kTable.v[(c ^ *p++) & 0xffu] ^ (c >> 8);
    --n;
  }
  return c;
}

}  // namespace detail_crc

inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t c = ~seed;
#if DLHT_PROBE_X86_SIMD
  static const bool hw = __builtin_cpu_supports("sse4.2") != 0;
  if (hw) return ~detail_crc::crc_hw(p, n, c);
#endif
  return ~detail_crc::crc_table(p, n, c);
}

/// The T stored at p, which need not be aligned.
template <class T>
T load_as(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// ------------------------------------------------------- fault injection

/// Knobs for the FaultyFile wrapper. Counters are shared across every file
/// the owning tier opens, so "the Nth write" means the Nth write the whole
/// tier performs — tests aim a fault at a specific record by counting.
/// All triggers are 1-based; 0 disables.
struct FaultSpec {
  /// Nth append persists only its first half, then the file goes dead
  /// (simulates a crash mid-write: the torn record is the file's tail).
  std::uint64_t torn_write_at = 0;
  /// Nth append lands with one flipped bit (its CRC no longer matches),
  /// then the file goes dead — the recovery-must-reject-bad-CRC case.
  std::uint64_t flip_write_at = 0;
  /// Nth sync — and every later one — reports failure without writing
  /// anything further. Data already appended stays, but nothing new
  /// becomes durable (the degrade-to-memory case).
  std::uint64_t fail_sync_at = 0;
  /// Nth WAL segment read hits a read error after its first chunk, as a
  /// failing disk would. Recovery's validation reads come first, one per
  /// segment; then the replay pass reads each segment it replays once per
  /// key partition, so one (partition, segment) read fails. Snapshot reads
  /// are not counted.
  std::uint64_t fail_read_at = 0;

  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> syncs{0};
  std::atomic<std::uint64_t> reads{0};
};

/// Minimal append-only file the durable tier writes through, so the fault
/// injector can sit between the tier and the kernel.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual bool append(const void* p, std::size_t n) = 0;
  virtual bool sync() = 0;
};

class PosixWritableFile final : public WritableFile {
 public:
  static std::unique_ptr<PosixWritableFile> open(const std::string& path,
                                                 bool truncate) {
    const int flags = O_CREAT | O_WRONLY | O_APPEND | (truncate ? O_TRUNC : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return nullptr;
    return std::unique_ptr<PosixWritableFile>(new PosixWritableFile(fd));
  }

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool append(const void* p, std::size_t n) override {
    const auto* c = static_cast<const char*>(p);
    while (n > 0) {
      const ssize_t w = ::write(fd_, c, n);
      if (w < 0) return false;
      c += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  }

  bool sync() override { return ::fdatasync(fd_) == 0; }

 private:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// Fault-injecting wrapper: forwards to the wrapped file until a FaultSpec
/// trigger fires, then produces exactly the corruption the spec asks for
/// and reports failure so the tier's degrade path runs.
class FaultyFile final : public WritableFile {
 public:
  FaultyFile(std::unique_ptr<WritableFile> base, FaultSpec* spec)
      : base_(std::move(base)), spec_(spec) {}

  bool append(const void* p, std::size_t n) override {
    if (dead_) return false;
    const std::uint64_t i =
        spec_->writes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (spec_->torn_write_at != 0 && i == spec_->torn_write_at) {
      base_->append(p, n / 2);  // half a record, then the "machine dies"
      base_->sync();
      dead_ = true;
      return false;
    }
    if (spec_->flip_write_at != 0 && i == spec_->flip_write_at) {
      std::vector<unsigned char> buf(static_cast<const unsigned char*>(p),
                                     static_cast<const unsigned char*>(p) + n);
      buf[n / 2] ^= 0x10;  // payload no longer matches its CRC
      base_->append(buf.data(), n);
      base_->sync();
      dead_ = true;
      return false;
    }
    return base_->append(p, n);
  }

  bool sync() override {
    if (dead_) return false;
    const std::uint64_t i =
        spec_->syncs.fetch_add(1, std::memory_order_relaxed) + 1;
    if (spec_->fail_sync_at != 0 && i >= spec_->fail_sync_at) return false;
    return base_->sync();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultSpec* spec_;
  bool dead_ = false;
};

// ------------------------------------------------------- WAL record codec
//
// Fixed 32-byte frames so a torn tail is detectable by length alone:
//   [ 0.. 3]  CRC32C over bytes 4..31
//   [ 4    ]  op (1 = put/upsert, 2 = insert-if-absent, 3 = delete)
//   [ 5.. 7]  zero
//   [ 8..15]  LSN (strictly increasing within one shard file)
//   [16..23]  key
//   [24..31]  value (zero for deletes)

enum class WalOp : std::uint8_t { kPut = 1, kInsert = 2, kDelete = 3 };

struct WalRecord {
  std::uint64_t lsn = 0;
  WalOp op = WalOp::kPut;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

inline constexpr std::size_t kWalRecordBytes = 32;

inline void wal_encode(const WalRecord& r, std::uint8_t out[kWalRecordBytes]) {
  std::memset(out, 0, kWalRecordBytes);
  out[4] = static_cast<std::uint8_t>(r.op);
  std::memcpy(out + 8, &r.lsn, 8);
  std::memcpy(out + 16, &r.key, 8);
  std::memcpy(out + 24, &r.value, 8);
  const std::uint32_t crc = crc32c(out + 4, kWalRecordBytes - 4);
  std::memcpy(out, &crc, 4);
}

/// What the end of a decoded log looked like. kTorn (a partial final
/// record) is the expected crash signature and is truncated on recovery;
/// kCorrupt (a full record whose CRC or framing is wrong) also ends the
/// trusted prefix — nothing after it is replayed.
enum class WalTail { kClean, kTorn, kCorrupt };

struct WalDecodeResult {
  std::vector<WalRecord> records;
  std::size_t valid_bytes = 0;  // trusted prefix; truncate the file to this
  WalTail tail = WalTail::kClean;
};

/// Validate one full frame that follows a record with LSN `prev_lsn` (0
/// at the start of a file): CRC, op byte, zero padding, and an LSN above
/// prev_lsn, since shard files are strictly LSN-ordered. False means the
/// frame is corrupt and ends the file's trusted prefix.
inline bool wal_decode_record(const std::uint8_t* rec, std::uint64_t prev_lsn,
                              WalRecord* out) {
  std::uint32_t crc;
  std::memcpy(&crc, rec, 4);
  if (crc != crc32c(rec + 4, kWalRecordBytes - 4)) return false;
  const std::uint8_t op = rec[4];
  if (op < 1 || op > 3 || rec[5] != 0 || rec[6] != 0 || rec[7] != 0) {
    return false;
  }
  out->op = static_cast<WalOp>(op);
  std::memcpy(&out->lsn, rec + 8, 8);
  std::memcpy(&out->key, rec + 16, 8);
  std::memcpy(&out->value, rec + 24, 8);
  return out->lsn > prev_lsn;
}

/// Decode an arbitrary byte buffer as a shard log. Total function: any
/// input (random bytes, truncations, bit flips) yields a result without
/// UB — the fuzz test in tests/recovery_test.cpp runs this under
/// ASan/UBSan on random strings.
inline WalDecodeResult wal_decode(const std::uint8_t* p, std::size_t n) {
  WalDecodeResult out;
  std::size_t off = 0;
  while (n - off >= kWalRecordBytes) {
    WalRecord r;
    const std::uint64_t prev =
        out.records.empty() ? 0 : out.records.back().lsn;
    if (!wal_decode_record(p + off, prev, &r)) {
      out.tail = WalTail::kCorrupt;
      return out;
    }
    out.records.push_back(r);
    off += kWalRecordBytes;
    out.valid_bytes = off;
  }
  if (off < n) out.tail = WalTail::kTorn;
  return out;
}

/// A file read front to back through one fixed-size buffer, so memory is
/// O(chunk) however long the file is: every file recovery validates or
/// replays is read through one.
class ChunkReader {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// `faults` (may be null) counts this read toward FaultSpec::fail_read_at.
  explicit ChunkReader(const std::string& path, FaultSpec* faults = nullptr)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    inject_read_error_ =
        faults != nullptr && faults->fail_read_at != 0 &&
        faults->reads.fetch_add(1, std::memory_order_relaxed) + 1 ==
            faults->fail_read_at;
  }
  ~ChunkReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  /// False when the file could not be opened or a read failed: nothing
  /// read from it describes the whole file then.
  bool ok() const { return fd_ >= 0 && !read_error_; }

  /// Consume the next n bytes and point at them, in place until the next
  /// call; null, consuming nothing, when fewer are left to read (buffered()
  /// then counts them) or n exceeds the buffer.
  const std::uint8_t* take(std::size_t n) {
    if (len_ - off_ < n) refill();
    if (len_ - off_ < n) return nullptr;
    off_ += n;
    return buf_.data() + off_ - n;
  }
  std::size_t buffered() const { return len_ - off_; }

 private:
  void refill() {
    if (fd_ < 0 || read_error_) return;
    if (inject_read_error_ && !buf_.empty()) {  // past the first chunk
      read_error_ = true;
      return;
    }
    if (buf_.empty()) buf_.resize(kChunkBytes);
    std::memmove(buf_.data(), buf_.data() + off_, len_ - off_);
    len_ -= off_;
    off_ = 0;
    while (len_ < buf_.size()) {
      const ssize_t got = ::read(fd_, buf_.data() + len_, buf_.size() - len_);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        read_error_ = got < 0;
        break;
      }
      len_ += static_cast<std::size_t>(got);
    }
  }

  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0, len_ = 0;
  bool read_error_ = false;
  bool inject_read_error_ = false;
};

/// Streaming counterpart of wal_decode over a log file: the same
/// per-record rules over a ChunkReader. next() yields records until the
/// end of the trusted prefix; tail() and valid_bytes() then describe what
/// ended it, exactly as wal_decode would over the whole file.
class WalReader : public ChunkReader {
 public:
  using ChunkReader::ChunkReader;

  bool next(WalRecord* r) {
    if (done_) return false;
    const std::uint8_t* rec = take(kWalRecordBytes);
    if (rec == nullptr || !wal_decode_record(rec, prev_lsn_, r)) {
      done_ = true;
      tail_ = rec != nullptr      ? WalTail::kCorrupt
              : buffered() > 0 ? WalTail::kTorn
                               : WalTail::kClean;
      return false;
    }
    prev_lsn_ = r->lsn;
    valid_bytes_ += kWalRecordBytes;
    return true;
  }

  WalTail tail() const { return tail_; }
  std::uint64_t valid_bytes() const { return valid_bytes_; }

 private:
  std::uint64_t prev_lsn_ = 0;
  std::uint64_t valid_bytes_ = 0;
  WalTail tail_ = WalTail::kClean;
  bool done_ = false;
};

// ------------------------------------------------------- snapshot format
//
// snapshot-<lsn>.dlht, written to a .tmp and renamed into place:
//   header (32B): [magic 8][version 4][flags 4][lsn 8][crc 4][pad 4]
//                 crc = CRC32C over the first 24 bytes
//   chunks:       [len u32][crc u32][payload], payload = repeated
//                 [klen u32][vlen u32][key bytes][value bytes]
//                 (klen = vlen = 8 for the u64 table)
//   footer:       a len==0 chunk header, then [count u64][crc u32]
// Recovery reads the whole file through before it applies any entry, so a
// corrupt snapshot never half-loads.

inline constexpr std::uint64_t kSnapshotMagic = 0x31504e5354484c44ull;  // DLHTSNP1
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::size_t kSnapshotChunkTarget = 60 * 1024;
inline constexpr std::size_t kSnapshotEntryBytes = 24;
static_assert(8 + kSnapshotChunkTarget + kSnapshotEntryBytes <=
              ChunkReader::kChunkBytes);  // a framed chunk fits the buffer

/// Stream the snapshot at `path` into f(key, value), checking its header
/// first and each chunk's frame (a length the buffer holds, and its CRC)
/// before f sees any of the chunk's entries. Answers the header's LSN only
/// at a valid footer whose count matches the entries f saw.
template <class F>
std::optional<std::uint64_t> stream_snapshot(const std::string& path, F&& f) {
  ChunkReader in(path);
  const std::uint8_t* p = in.take(32);
  if (p == nullptr || load_as<std::uint64_t>(p) != kSnapshotMagic ||
      load_as<std::uint32_t>(p + 8) != kSnapshotVersion ||
      load_as<std::uint32_t>(p + 24) != crc32c(p, 24)) {
    return std::nullopt;
  }
  const std::uint64_t lsn = load_as<std::uint64_t>(p + 16);
  for (std::uint64_t count = 0;;) {
    if ((p = in.take(8)) == nullptr) return std::nullopt;
    const std::uint32_t len = load_as<std::uint32_t>(p);
    const std::uint32_t crc = load_as<std::uint32_t>(p + 4);
    if (len == 0) {  // footer: [count u64][crc u32]
      p = in.take(12);
      if (p == nullptr || load_as<std::uint32_t>(p + 8) != crc32c(p, 8) ||
          load_as<std::uint64_t>(p) != count) {
        return std::nullopt;
      }
      return lsn;
    }
    p = len % kSnapshotEntryBytes == 0 ? in.take(len) : nullptr;
    if (p == nullptr || crc != crc32c(p, len)) return std::nullopt;
    for (const std::uint8_t* e = p; e < p + len; e += kSnapshotEntryBytes) {
      if (load_as<std::uint32_t>(e) != 8 ||
          load_as<std::uint32_t>(e + 4) != 8) {
        return std::nullopt;
      }
      f(load_as<std::uint64_t>(e + 8), load_as<std::uint64_t>(e + 16));
      ++count;
    }
  }
}

// ------------------------------------------------------------ WAL shard

namespace detail_wal {

/// The lock of one WAL shard (a Lockable, so std::lock_guard,
/// std::unique_lock and std::try_to_lock work on it). A writer that finds
/// it held spins for kSpinRounds cpu_relax() rounds, then parks on the lock
/// word with std::atomic::wait; unlock() calls notify_one() only when a
/// waiter may have parked, so an uncontended lock/unlock pair is two atomic
/// instructions and no system call. Spinning alone would not do: group
/// commit still writes and fsyncs under this lock, and a waiter must not
/// burn a CPU through a disk sync.
///
/// The word is 0 (free), 1 (held) or 2 (held, and a waiter may be parked),
/// mutex 3 of Drepper's "Futexes Are Tricky". A parking waiter sets 2
/// before it sleeps, and every waiter that wakes sets 2 again whether it
/// takes the lock or sleeps once more, so the lock cannot be released
/// silently while another waiter sleeps.
class ShardLock {
 public:
  void lock() {
    if (!try_lock()) lock_contended();
  }

  bool try_lock() {
    int free = kFree;
    return word_.compare_exchange_strong(free, kHeld, std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void unlock() {
    if (word_.exchange(kFree, std::memory_order_release) == kParked) {
      word_.notify_one();
    }
  }

 private:
  static constexpr int kFree = 0, kHeld = 1, kParked = 2;
  /// About 10 µs of spinning where one pause takes ~18 ns (the 4-vCPU
  /// Xeon this was measured on): longer than a park and wake-up there
  /// (~2 µs, half a futex ping-pong round trip) and than several holds
  /// without I/O (~0.6 µs each), and far below one ext4 fsync (~140 µs),
  /// which a holder may be running. Where a pause takes ~10 cycles it is
  /// still ~1.5 µs, above one such hold. Budgets from 128 to 2048 rounds
  /// ran kv_durable's 1M-key set-up within noise of each other there.
  static constexpr int kSpinRounds = 512;

  void lock_contended() {
    for (int i = 0; i < kSpinRounds; ++i) {
      cpu_relax();
      int c = word_.load(std::memory_order_relaxed);
      if (c == kFree &&
          word_.compare_exchange_weak(c, kHeld, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
    while (word_.exchange(kParked, std::memory_order_acquire) != kFree) {
      word_.wait(kParked, std::memory_order_relaxed);
    }
  }

  std::atomic<int> word_{kFree};
};

/// Add n to a counter that only the shard lock's holder writes: a relaxed
/// load and store, not a locked read-modify-write, and still race-free for
/// DurableDLHT::stats(), which reads it without the lock.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// One shard of the log: a lock-serialized append buffer over an
/// append-only file, written by the threads that map to it. DurableDLHT
/// draws each record's LSN and encodes it while it holds `mu`, so file
/// order and LSN order are the same order. A shard has cache lines of its
/// own: with one writer per shard, a neighbour's writes must not migrate
/// its lines.
struct alignas(64) Shard {
  ShardLock mu;
  std::string path;
  std::unique_ptr<WritableFile> file;
  std::vector<std::uint8_t> buf;      // encoded records not yet write()n
  std::size_t pending_ops = 0;        // records since the last good sync
  std::uint64_t oldest_pending_ns = 0;
  std::uint64_t rotations = 0;
  // Written under mu (with bump), summed by DurableDLHT::stats() without it.
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> syncs{0};

  /// Flush the buffer and fsync. True on success.
  bool sync_locked() {
    if (file == nullptr) return false;
    if (!buf.empty()) {
      if (!file->append(buf.data(), buf.size())) return false;
      bump(bytes, buf.size());
      buf.clear();
    }
    if (!file->sync()) return false;
    bump(syncs, 1);
    pending_ops = 0;
    oldest_pending_ns = 0;
    return true;
  }
};

inline std::uint64_t wall_ns() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Run task(i) for every i < n on up to `threads` threads, the calling
/// thread among them: it runs task 0, then every thread claims the next
/// task left. Starts no thread when n <= 1, and makes do with fewer when
/// one cannot start. The first exception a task throws is rethrown here,
/// once every thread has stopped; tasks not yet claimed then never run.
template <class Task>
void run_tasks(std::size_t n, std::size_t threads, const Task& task) {
  std::atomic<std::size_t> next{1};
  std::mutex mu;
  std::exception_ptr error;
  const auto run = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      std::lock_guard g(mu);
      if (!error) error = std::current_exception();
      next.store(n, std::memory_order_relaxed);
    }
  };
  const auto claim = [&] {
    for (std::size_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      run(i);
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < std::min(n, threads); ++t) {
    try {
      helpers.emplace_back(claim);
    } catch (const std::system_error&) {
      break;  // the threads already running claim every task
    }
  }
  if (n > 0) run(0);
  claim();
  for (std::thread& h : helpers) h.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail_wal

// ---------------------------------------------------------- durable tier

struct DurabilityOptions {
  /// Directory holding snapshot-<lsn>.dlht and wal-<shard>.log. Created if
  /// absent. Empty string = durability disabled (pure in-memory tier that
  /// still answers the API, with degraded() == false and nothing logged).
  std::string dir;
  /// Log shards (rounded up to a power of two). A WAL shard belongs to
  /// writer threads, not keys: a thread logs into shard
  /// this_thread_index() & (wal_shards - 1), so threads with distinct
  /// indices below wal_shards never share a shard lock. More shards = fewer
  /// writers per shard lock and more files to fsync per wal_sync().
  unsigned wal_shards = 4;
  /// Non-null: wrap every file in a FaultyFile driven by this spec.
  FaultSpec* faults = nullptr;
  /// Group commit: a WAL shard fsyncs once it has buffered this many
  /// records since its last sync, so one fsync amortizes over a batch of
  /// writers. wal_sync() forces one regardless.
  std::size_t wal_fsync_interval_ops = 64;
  /// Time half of group commit: the background committer thread flushes
  /// any WAL shard whose oldest buffered record has waited this long, so a
  /// trickle of writes still becomes durable without filling the ops
  /// interval. 0 disables the committer thread (explicit wal_sync() only).
  std::uint32_t wal_group_commit_us = 500;
};

/// DLHT + durability. All table reads pass straight through to the core;
/// mutations log to the calling thread's WAL shard from inside the core's
/// bucket critical section. See the file header for the full contract.
///
/// Concurrent same-key writers serialize through the key's home-bucket
/// lock, and each draws its LSN under it, so recovery replays each key's
/// records in the order they were applied. After a crash each WAL shard
/// keeps its own durable prefix, so the recovered table need not match
/// any prefix of the LSN order: an unsynced earlier write on one shard can
/// be lost while a later write on another shard survives.
class DurableDLHT {
 public:
  using Request = DLHT::Request;
  using Reply = DLHT::Reply;

  DurableDLHT(const Options& o, DurabilityOptions d)
      : dopts_(std::move(d)), core_(o) {
    unsigned s = 1;
    while (s < dopts_.wal_shards) s <<= 1;
    shards_.resize(s);
    for (auto& sh : shards_) sh = std::make_unique<detail_wal::Shard>();
  }

  ~DurableDLHT() { close(); }

  DurableDLHT(const DurableDLHT&) = delete;
  DurableDLHT& operator=(const DurableDLHT&) = delete;

  /// Create/attach the durable directory: load the newest snapshot, replay
  /// the WAL suffix past it, truncate invalid tails, open the shard logs
  /// for append, and start the group-commit thread. Call once, before any
  /// mutation. kOk on success (including a fresh empty dir); kIOError when
  /// the directory cannot be used, the newest snapshot does not validate
  /// or a file cannot be read in full. The tier then serves memory-only
  /// and never logs or checkpoints, so the files on disk stay as they are.
  /// Its table is empty after a bad snapshot, holds the snapshot alone
  /// after a segment the validation pass could not read, and may hold part
  /// of the files after a read error mid-replay. Recovery replays on one
  /// key partition per CPU the process may run on (see recover()).
  Status open() {
    return open_on(std::max<std::size_t>(allowed_cpus_cached().size(), 1));
  }

  /// Stop the committer and flush whatever the WAL still buffers. Safe to
  /// call twice; the destructor calls it.
  void close() {
    if (committer_.joinable()) {
      stop_.store(true, std::memory_order_release);
      committer_.join();
    }
    if (opened_ && !dopts_.dir.empty()) wal_sync();
    opened_ = false;
  }

  // ------------------------------------------------------------- reads

  std::optional<std::uint64_t> get(std::uint64_t key) const {
    return core_.get(key);
  }
  void get_batch(const std::uint64_t* keys, Reply* out, std::size_t n) const {
    core_.get_batch(keys, out, n);
  }

  // --------------------------------------------------------- mutations
  //
  // Each returns the table outcome, except that a mutation whose chunk
  // first observes a WAL failure returns kIOError (its table effect still
  // happened); from then on the tier is degraded() and memory-only.

  Status put(std::uint64_t key, std::uint64_t value) {
    return execute_one(OpType::kPut, key, value);
  }

  Status insert(std::uint64_t key, std::uint64_t value) {
    return execute_one(OpType::kInsert, key, value);
  }

  Status erase(std::uint64_t key) {
    return execute_one(OpType::kDelete, key, 0);
  }

  /// Batched mixed ops, the tier's write path, applied in request order
  /// in chunks of kGroupChunk requests. A chunk with a mutation holds the
  /// calling thread's WAL shard lock across one DLHT::execute_batch call,
  /// which logs each change it makes from inside the key's bucket critical
  /// section (see the file header); then group commit decides, with no
  /// bucket locked, whether the shard flushes. A chunk of Gets skips the
  /// lock: reads never need the log. reps[i] answers reqs[i] as the scalar
  /// call would: a Put answers kOk whether or not it overwrote, and if a
  /// chunk's flush fails its mutations answer kIOError (their table effect
  /// stands; the tier degrades).
  void execute_batch(const Request* reqs, Reply* reps, std::size_t n) {
    if (!logging()) {
      core_.execute_batch(reqs, reps, n);
    } else {
      for (std::size_t base = 0; base < n; base += kGroupChunk) {
        log_chunk(reqs + base, reps + base, std::min(kGroupChunk, n - base));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i].op == OpType::kPut && reps[i].status == Status::kExists) {
        reps[i].status = Status::kOk;  // the core's "overwrote"
      }
    }
  }

  /// RMW mirror of DLHT::update(): the *result* value is logged as a put
  /// (replay cannot re-run `f`, so it must not). Absent key = no write,
  /// nothing logged. `io_out`, when non-null, receives kIOError/kOk for
  /// the logging side.
  template <class F>
  std::optional<std::uint64_t> update(std::uint64_t key, F&& f,
                                      Status* io_out = nullptr) {
    std::optional<std::uint64_t> out;
    const Status io = logged(1, [&](const auto& log) {
      out = core_.update(key, std::forward<F>(f), log);
    });
    if (io_out != nullptr) *io_out = io;
    return out;
  }

  // -------------------------------------------------------- durability

  /// Force group commit now on every shard: on kOk, every op that returned
  /// before this call is durable (the harness's commit point).
  Status wal_sync() {
    if (!logging()) return degraded() ? Status::kIOError : Status::kOk;
    bool ok = true;
    for (auto& shp : shards_) {
      detail_wal::Shard& sh = *shp;
      std::lock_guard g(sh.mu);
      if (sh.pending_ops == 0 && sh.buf.empty()) continue;
      ok &= sh.sync_locked();
    }
    if (!ok) return fail_io();
    return Status::kOk;
  }

  /// Snapshot + WAL rotation + garbage collection:
  ///  1. sync and rotate every shard segment (frozen segments now hold
  ///     only records that the upcoming barrier covers),
  ///  2. LSN barrier L (every shard lock held at once: all lsn <= L
  ///     applied),
  ///  3. stream the table into snapshot-<L>.dlht.tmp, fsync, rename,
  ///  4. delete every other snapshot file and every log file but the live
  ///     shard logs and the .corrupt copies (all hold only lsn <= L: the
  ///     segments just rotated by construction, any other log because its
  ///     records were replayed before this process's first op).
  /// On any IO failure the old snapshot and logs stay authoritative.
  Status checkpoint() {
    if (!logging()) return degraded() ? Status::kIOError : Status::kOk;
    std::lock_guard<std::mutex> cg(checkpoint_mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      detail_wal::Shard& sh = *shards_[i];
      std::lock_guard g(sh.mu);
      if (!sh.sync_locked()) return fail_io();
      // The counter restarts at 0 every open, while a crashed checkpoint's
      // frozen segments stay on disk until a checkpoint succeeds. Renaming
      // over one would drop committed records no snapshot covers, so the
      // existence probe skips every taken name.
      std::string old;
      do {
        old = sh.path + "." + std::to_string(sh.rotations++) + ".old";
      } while (::access(old.c_str(), F_OK) == 0);
      if (::rename(sh.path.c_str(), old.c_str()) != 0 && errno != ENOENT) {
        return fail_io();
      }
      sh.file = open_file(sh.path, /*truncate=*/true);
      if (sh.file == nullptr) return fail_io();
    }
    std::uint64_t barrier;
    {
      // Every LSN is assigned and applied inside its shard's critical
      // section, so with every shard lock held none is between the two:
      // all lsn <= barrier are applied.
      std::vector<std::unique_lock<detail_wal::ShardLock>> all;
      all.reserve(shards_.size());
      for (auto& sh : shards_) all.emplace_back(sh->mu);
      barrier = lsn_.load(std::memory_order_relaxed);
    }
    const Status st = write_snapshot(barrier);
    if (st != Status::kOk) return st;
    gc_files(barrier);
    return Status::kOk;
  }

  // ------------------------------------------------------------- stats

  struct Stats {
    DLHT::Stats core;
    std::uint64_t lsn = 0;
    std::uint64_t records_logged = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t snapshots_written = 0;
    /// Disk failures observed (appends/syncs/snapshot writes). Nonzero
    /// with degraded set means the tier kept serving from memory.
    std::uint64_t io_errors = 0;
    bool degraded = false;
    /// What recovery found at open(): the snapshot LSN it loaded (0 =
    /// none) and how many WAL records it replayed past it.
    std::uint64_t recovered_snapshot_lsn = 0;
    std::uint64_t replayed_records = 0;
    /// How open()'s recovery spent its time: the key partitions its replay
    /// pass ran on (0 when there was no file to replay), and the wall time
    /// of its validation pass and of its replay pass (both read the
    /// snapshot as well as the log).
    std::uint64_t recovery_partitions = 0;
    std::uint64_t recovery_validate_ns = 0;
    std::uint64_t recovery_replay_ns = 0;
    /// Corrupt — not merely torn — WAL tails found at open(), and the
    /// bytes they discarded from the trusted prefix. A torn tail is the
    /// expected SIGKILL signature and counts nowhere; a corrupt one means
    /// committed records may have rotted on disk, so it also bumps
    /// io_errors and the discarded suffix is preserved as <log>.corrupt
    /// for inspection instead of being silently destroyed.
    std::uint64_t wal_corrupt_tails = 0;
    std::uint64_t wal_discarded_bytes = 0;
  };

  Stats stats() const {
    Stats s;
    s.core = core_.stats();
    s.lsn = lsn_.load(std::memory_order_relaxed);
    for (const auto& sh : shards_) {
      s.records_logged += sh->records.load(std::memory_order_relaxed);
      s.wal_bytes += sh->bytes.load(std::memory_order_relaxed);
      s.syncs += sh->syncs.load(std::memory_order_relaxed);
    }
    s.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
    s.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
    s.io_errors = io_errors_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    s.recovered_snapshot_lsn = recovered_snapshot_lsn_;
    s.replayed_records = replayed_records_;
    s.recovery_partitions = recovery_partitions_;
    s.recovery_validate_ns = recovery_validate_ns_;
    s.recovery_replay_ns = recovery_replay_ns_;
    s.wal_corrupt_tails = wal_corrupt_tails_;
    s.wal_discarded_bytes = wal_discarded_bytes_;
    return s;
  }

  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  std::int64_t approx_size() const { return core_.approx_size(); }
  DLHT& core() { return core_; }
  const DLHT& core() const { return core_; }

  template <class F>
  void for_each(F&& f) const {
    core_.for_each(std::forward<F>(f));
  }

 private:
  /// Most requests execute_batch groups at a time, and recovery's replay
  /// batch size.
  static constexpr std::size_t kGroupChunk = 64;

  bool logging() const {
    return opened_ && !dopts_.dir.empty() &&
           !degraded_.load(std::memory_order_acquire);
  }

  Status fail_io() {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    degraded_.store(true, std::memory_order_release);
    return Status::kIOError;
  }

  std::string shard_path(std::size_t i) const {
    return dopts_.dir + "/wal-" + std::to_string(i) + ".log";
  }

  std::unique_ptr<WritableFile> open_file(const std::string& path,
                                          bool truncate) {
    std::unique_ptr<WritableFile> f = PosixWritableFile::open(path, truncate);
    if (f != nullptr && dopts_.faults != nullptr) {
      f = std::make_unique<FaultyFile>(std::move(f), dopts_.faults);
    }
    return f;
  }

  Status execute_one(OpType op, std::uint64_t key, std::uint64_t value) {
    const Request rq{op, key, value, 0};
    Reply rp;
    execute_batch(&rq, &rp, 1);
    return rp.status;
  }

  /// Run one chunk of a logging batch. A chunk with no mutation skips the
  /// shard lock; otherwise one flush failure answers all its mutations.
  void log_chunk(const Request* reqs, Reply* reps, std::size_t n) {
    std::size_t mutations = 0;
    for (std::size_t i = 0; i < n; ++i) {
      mutations += reqs[i].op != OpType::kGet;
    }
    if (mutations == 0) {
      core_.execute_batch(reqs, reps, n);
      return;
    }
    const Status io = logged(mutations, [&](const auto& log) {
      core_.execute_batch(reqs, reps, n, log);
    });
    if (io == Status::kOk) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i].op != OpType::kGet) reps[i].status = io;
    }
  }

  /// Run `apply(log)`, one core call that makes at most `changes` changes,
  /// under the calling thread's WAL shard lock. `log` appends each change's
  /// whole record to the shard buffer, with an LSN drawn as it runs, and
  /// counts it; then group commit fsyncs the shard once
  /// wal_fsync_interval_ops records are pending. The buffer is reserved
  /// for every change and the clock read before the core call, so nothing
  /// allocates or reads the clock under a bucket lock. Returns kIOError
  /// when the flush failed (the tier degrades); the table changes stand
  /// regardless. When the core throws (a resize whose mapping fails), the
  /// records of the changes it made stay pending and the exception
  /// propagates.
  template <class Apply>
  Status logged(std::size_t changes, Apply&& apply) {
    if (logging()) {
      detail_wal::Shard& sh =
          *shards_[this_thread_index() & (shards_.size() - 1)];
      std::lock_guard g(sh.mu);
      if (logging()) {
        const std::size_t need = sh.buf.size() + changes * kWalRecordBytes;
        if (need > sh.buf.capacity()) {
          sh.buf.reserve(std::max(need, 2 * sh.buf.capacity()));
        }
        if (sh.pending_ops == 0) sh.oldest_pending_ns = detail_wal::wall_ns();
        apply([&](OpType op, std::uint64_t key, std::uint64_t value) {
          WalRecord r;
          r.lsn = lsn_.fetch_add(1, std::memory_order_relaxed) + 1;
          r.op = op == OpType::kInsert   ? WalOp::kInsert
                 : op == OpType::kDelete ? WalOp::kDelete
                                         : WalOp::kPut;
          r.key = key;
          r.value = value;
          std::uint8_t frame[kWalRecordBytes];
          wal_encode(r, frame);
          sh.buf.insert(sh.buf.end(), frame, frame + kWalRecordBytes);
          detail_wal::bump(sh.records, 1);
          ++sh.pending_ops;
        });
        if (sh.pending_ops >=
                std::max<std::size_t>(dopts_.wal_fsync_interval_ops, 1) &&
            !sh.sync_locked()) {
          return fail_io();
        }
        return Status::kOk;
      }
    }
    apply(DLHT::NoLog{});
    return Status::kOk;
  }

  void committer_loop() {
    const std::uint64_t interval_ns =
        static_cast<std::uint64_t>(dopts_.wal_group_commit_us) * 1000ull;
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(dopts_.wal_group_commit_us));
      if (!logging()) continue;
      const std::uint64_t now = detail_wal::wall_ns();
      for (auto& shp : shards_) {
        detail_wal::Shard& sh = *shp;
        std::unique_lock g(sh.mu, std::try_to_lock);
        if (!g.owns_lock()) continue;  // a writer is active; it will sync
        if (sh.pending_ops == 0) continue;
        if (now - sh.oldest_pending_ns < interval_ns) continue;
        if (!sh.sync_locked()) {
          fail_io();  // degrade; writers see kIOError-free memory mode
        }
      }
    }
  }

  // ----------------------------------------------------------- snapshot

  Status write_snapshot(std::uint64_t barrier) {
    const std::string final_path = dopts_.dir + "/snapshot-" +
                                   std::to_string(barrier) + ".dlht";
    const std::string tmp = final_path + ".tmp";
    std::unique_ptr<WritableFile> f = open_file(tmp, /*truncate=*/true);
    if (f == nullptr) return fail_io();

    std::uint8_t header[32] = {};
    std::memcpy(header, &kSnapshotMagic, 8);
    std::memcpy(header + 8, &kSnapshotVersion, 4);
    std::memcpy(header + 16, &barrier, 8);
    const std::uint32_t hcrc = crc32c(header, 24);
    std::memcpy(header + 24, &hcrc, 4);

    bool ok = f->append(header, sizeof header);
    std::uint64_t bytes = sizeof header;
    std::uint64_t count = 0;
    std::vector<std::uint8_t> chunk;
    chunk.reserve(kSnapshotChunkTarget + 64);
    auto flush_chunk = [&]() {
      if (chunk.empty() || !ok) return;
      std::uint8_t frame[8];
      const std::uint32_t len = static_cast<std::uint32_t>(chunk.size());
      const std::uint32_t crc = crc32c(chunk.data(), chunk.size());
      std::memcpy(frame, &len, 4);
      std::memcpy(frame + 4, &crc, 4);
      ok = ok && f->append(frame, 8) && f->append(chunk.data(), chunk.size());
      bytes += 8 + chunk.size();
      chunk.clear();
    };
    core_.for_each([&](std::uint64_t k, std::uint64_t v) {
      if (!ok) return;
      std::uint8_t e[kSnapshotEntryBytes];
      const std::uint32_t kl = 8, vl = 8;
      std::memcpy(e, &kl, 4);
      std::memcpy(e + 4, &vl, 4);
      std::memcpy(e + 8, &k, 8);
      std::memcpy(e + 16, &v, 8);
      chunk.insert(chunk.end(), e, e + sizeof e);
      ++count;
      if (chunk.size() >= kSnapshotChunkTarget) flush_chunk();
    });
    flush_chunk();
    // Footer: empty-chunk sentinel, then the authoritative entry count.
    std::uint8_t footer[20] = {};
    std::memcpy(footer + 8, &count, 8);
    const std::uint32_t fcrc = crc32c(footer + 8, 8);
    std::memcpy(footer + 16, &fcrc, 4);
    ok = ok && f->append(footer, sizeof footer) && f->sync();
    bytes += sizeof footer;
    f.reset();
    if (!ok) {
      ::unlink(tmp.c_str());
      return fail_io();
    }
    if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      return fail_io();
    }
    sync_dir();
    snapshot_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
    return Status::kOk;
  }

  void sync_dir() {
    const int fd = ::open(dopts_.dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }

  /// Delete every snapshot file but snapshot-<barrier>.dlht (older
  /// snapshots, a crashed checkpoint's .tmp) and every log file but the
  /// live shard logs and the .corrupt copies. Only legal right after that
  /// snapshot succeeded: a frozen segment holds only records its barrier
  /// covers (this checkpoint rotated it, or open() replayed it before this
  /// process's first op), and so does the log of a shard beyond
  /// wal_shards, which open() replayed and nothing has written since.
  void gc_files(std::uint64_t barrier) {
    const std::string keep = "snapshot-" + std::to_string(barrier) + ".dlht";
    for (const std::string& name : list_dir()) {
      const std::string path = dopts_.dir + "/" + name;
      const bool live =
          std::any_of(shards_.begin(), shards_.end(),
                      [&](const auto& sh) { return sh->path == path; });
      if ((name.starts_with("snapshot-") && name != keep) ||
          (name.starts_with("wal-") && !name.ends_with(".corrupt") && !live)) {
        ::unlink(path.c_str());
      }
    }
  }

  std::vector<std::string> list_dir() const {
    std::vector<std::string> out;
    DIR* d = ::opendir(dopts_.dir.c_str());
    if (d == nullptr) return out;
    while (struct dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') out.emplace_back(e->d_name);
    }
    ::closedir(d);
    return out;
  }

  static bool parse_snapshot_name(const std::string& name,
                                  std::uint64_t* lsn) {
    unsigned long long v = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "snapshot-%llu.dlht%n", &v, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      *lsn = v;
      return true;
    }
    return false;
  }

  // ----------------------------------------------------------- recovery

  /// Append the untrusted suffix of a corrupt log (every byte past its
  /// trusted prefix) to <log>.corrupt in chunks before the log is
  /// truncated, so every media-rot event on that log leaves evidence an
  /// operator can inspect. Writes straight through POSIX (never the fault
  /// injector — this is the diagnostic path, not the durability path);
  /// best-effort.
  static void preserve_corrupt_suffix(const std::string& path,
                                      std::uint64_t valid_bytes) {
    const int in = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (in < 0) return;
    auto out = PosixWritableFile::open(path + ".corrupt", /*truncate=*/false);
    if (out != nullptr &&
        ::lseek(in, static_cast<off_t>(valid_bytes), SEEK_SET) >= 0) {
      std::vector<std::uint8_t> chunk(ChunkReader::kChunkBytes);
      for (;;) {
        const ssize_t got = ::read(in, chunk.data(), chunk.size());
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0 ||
            !out->append(chunk.data(), static_cast<std::size_t>(got))) {
          break;
        }
      }
      out->sync();
    }
    ::close(in);
  }

  /// open() with recovery's replay pass on `parts` key partitions.
  /// RecoveryTestHook reaches it, so a test can replay a directory on one
  /// partition and on several on any host.
  Status open_on(std::size_t parts) {
    if (opened_) return Status::kOk;
    if (dopts_.dir.empty()) {
      opened_ = true;  // explicitly in-memory: nothing to recover or log
      return Status::kOk;
    }
    if (::mkdir(dopts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return fail_io();
    }
    if (!recover(parts)) return fail_io();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      auto& sh = *shards_[i];
      sh.path = shard_path(i);
      sh.file = open_file(sh.path, /*truncate=*/false);
      if (sh.file == nullptr) return fail_io();
    }
    opened_ = true;
    if (dopts_.wal_group_commit_us > 0) {
      committer_ = std::thread([this] {
        // Park the group committer on the *last* plan slot so it shares a
        // CPU with the highest-numbered worker rather than fighting worker
        // 0 (every bench/server spawns workers from slot 0 upward). A bad
        // DLHT_PIN spec is the frontend's problem to report; here we just
        // fall back to an unpinned committer.
        std::string err;
        const PinPlan plan = pin_plan_from_env(&err);
        if (err.empty() && plan.active()) {
          plan.pin(plan.cpus.size() - 1);
        }
        committer_loop();
      });
    }
    return Status::kOk;
  }

  friend struct RecoveryTestHook;

  /// Load the snapshot and replay the log on `parts` key partitions. False
  /// when the newest snapshot does not validate (nothing applies) or a file
  /// could not be read in full (when the validation pass finds it, only
  /// the snapshot applies); either way, a failure found before the replay
  /// pass changes no file.
  bool recover(std::size_t parts) {
    // Draw this thread's index before any helper starts. A new thread
    // takes the smallest free index, which picks its WAL shard: helpers
    // that drew first would push this thread's index up, and threads
    // started later could then share its shard.
    this_thread_index();
    // Only the newest snapshot counts. An older one is no fallback: the
    // checkpoint that wrote the newer one may have deleted the frozen
    // segments between their barriers.
    std::string snapshot;  // its path, empty when there is none
    std::uint64_t snap_lsn = 0;
    std::vector<std::string> logs;
    for (const std::string& n : list_dir()) {
      std::uint64_t lsn;
      if (parse_snapshot_name(n, &lsn) &&
          (snapshot.empty() || lsn > snap_lsn)) {
        snapshot = dopts_.dir + "/" + n;
        snap_lsn = lsn;
      }
      // Preserved corrupt suffixes are diagnostics, never replayed.
      if (n.starts_with("wal-") && !n.ends_with(".corrupt")) logs.push_back(n);
    }

    // Validation pass, up to `parts` files at a time: the snapshot to its
    // footer, and each log file (live log, frozen segment or the log of a
    // shard beyond wal_shards) for its trusted prefix, tail and highest
    // LSN. Then, once every file has been read in full, this thread
    // truncates the invalid tails, so the replay pass sees clean prefixes.
    const std::uint64_t validate_start = detail_wal::wall_ns();
    struct Scan {
      bool ok = false;
      WalTail tail = WalTail::kClean;
      std::uint64_t valid_bytes = 0;
      std::uint64_t max_lsn = 0;
    };
    std::vector<Scan> scans(logs.size());
    bool snap_ok = true;
    detail_wal::run_tasks(logs.size() + 1, parts, [&](std::size_t i) {
      if (i > 0) {
        WalReader reader(dopts_.dir + "/" + logs[i - 1], dopts_.faults);
        std::uint64_t max_lsn = 0;
        for (WalRecord r; reader.next(&r);) max_lsn = r.lsn;
        scans[i - 1] = {reader.ok(), reader.tail(), reader.valid_bytes(),
                        max_lsn};
      } else if (!snapshot.empty()) {
        snap_ok = stream_snapshot(snapshot, [](auto, auto) {}) == snap_lsn;
      }
    });
    if (!snap_ok) return false;
    recovered_snapshot_lsn_ = snap_lsn;
    // An unreadable segment's trusted prefix and highest LSN are unknown,
    // so it can be neither truncated nor replayed (nor left out): then no
    // log is touched and only the snapshot applies.
    const bool readable = std::all_of(scans.begin(), scans.end(),
                                      [](const Scan& s) { return s.ok; });
    std::vector<Segment> replay;
    std::uint64_t max_lsn = snap_lsn;
    for (std::size_t i = 0; readable && i < logs.size(); ++i) {
      const Scan& s = scans[i];
      const std::string path = dopts_.dir + "/" + logs[i];
      if (s.tail != WalTail::kClean) {
        if (s.tail == WalTail::kCorrupt) {
          // A full record failed its CRC: committed data may have rotted.
          // Unlike a torn tail this is not a crash signature, so surface
          // it (io_errors + corrupt-tail counters) and keep the discarded
          // suffix beside the log instead of silently destroying it.
          struct stat st {};
          const std::uint64_t size =
              ::stat(path.c_str(), &st) == 0
                  ? static_cast<std::uint64_t>(st.st_size)
                  : s.valid_bytes;
          preserve_corrupt_suffix(path, s.valid_bytes);
          io_errors_.fetch_add(1, std::memory_order_relaxed);
          wal_corrupt_tails_ += 1;
          wal_discarded_bytes_ += size - s.valid_bytes;
        }
        // Truncate to the trusted prefix so the next generation of
        // appends starts from a valid frame boundary.
        ::truncate(path.c_str(), static_cast<off_t>(s.valid_bytes));
      }
      max_lsn = std::max(max_lsn, s.max_lsn);
      if (s.max_lsn > snap_lsn) replay.push_back({path, s.valid_bytes});
    }
    recovery_validate_ns_ = detail_wal::wall_ns() - validate_start;

    // Replay pass, on `parts` threads unless there is no file to replay.
    // A partition holds a descriptor for each file it reads, so P x files
    // stays under half the soft RLIMIT_NOFILE, whatever the CPU count.
    const std::uint64_t replay_start = detail_wal::wall_ns();
    const std::size_t files = replay.size() + !snapshot.empty();
    struct rlimit fds {};
    if (files > 0 && ::getrlimit(RLIMIT_NOFILE, &fds) == 0) {
      parts = std::clamp<std::size_t>(fds.rlim_cur / 2 / files, 1, parts);
    }
    const std::size_t runs = files == 0 ? 0 : parts;
    std::vector<Replayed> done(runs);
    detail_wal::run_tasks(runs, runs, [&](std::size_t p) {
      done[p] = replay_partition(p, parts, snapshot, snap_lsn, replay);
    });
    bool whole = readable;
    replayed_records_ = 0;
    for (const Replayed& d : done) {
      replayed_records_ += d.records;
      whole &= d.whole;
    }
    recovery_partitions_ = runs;
    recovery_replay_ns_ = detail_wal::wall_ns() - replay_start;
    if (!whole) return false;
    lsn_.store(max_lsn, std::memory_order_relaxed);
    return true;
  }

  /// A log segment the replay pass reads: its trusted prefix ends at
  /// valid_bytes (found, and truncated to, by the validation pass).
  struct Segment {
    std::string path;
    std::uint64_t valid_bytes;
  };

  /// What one replay partition did: the log records it applied, and
  /// whether it read every file as far as the validation pass did.
  struct Replayed {
    std::uint64_t records = 0;
    bool whole = true;
  };

  /// The replay partition of `key` among `parts`: a range of the low 16
  /// bits of its table hash. Those bits are also the low bits of its bin,
  /// so in a table of 2^16 bins or more each partition owns whole runs of
  /// bins, and no two partitions write one bucket.
  static std::size_t partition_of(std::uint64_t key, std::size_t parts) {
    const std::uint64_t low = DLHT::Hasher{}(key) & 0xffffu;
    return static_cast<std::size_t>((low * parts) >> 16);
  }

  /// Replay pass of key partition `part`: its keys' snapshot entries in
  /// stream order, then its keys' records past the snapshot from a k-way
  /// merge of every segment by LSN, each read in chunks up to its
  /// validated prefix. Files are strictly LSN-ordered and
  /// DLHT::execute_batch keeps request order, so each key ends as a
  /// serial replay leaves it. `whole` is false when a file ended short of
  /// what the validation pass read (it could not be reopened, or a read
  /// failed): the partition's keys past that point were not applied.
  Replayed replay_partition(std::size_t part, std::size_t parts,
                            const std::string& snapshot, std::uint64_t snap_lsn,
                            const std::vector<Segment>& segments) {
    Request batch[kGroupChunk];
    Reply replies[kGroupChunk];
    std::size_t pending = 0;
    const auto add = [&](OpType op, std::uint64_t key, std::uint64_t value) {
      batch[pending++] = Request{op, key, value, 0};
      if (pending == kGroupChunk) {
        core_.execute_batch(batch, replies, pending);
        pending = 0;
      }
    };
    Replayed out;
    if (!snapshot.empty()) {
      out.whole = stream_snapshot(snapshot, [&](auto k, auto v) {
                    if (partition_of(k, parts) == part) add(OpType::kPut, k, v);
                  }).has_value();
    }
    struct Head {
      WalRecord rec;
      std::size_t segment;
    };
    const auto later = [](const Head& a, const Head& b) {
      return a.rec.lsn > b.rec.lsn;
    };
    std::vector<std::unique_ptr<WalReader>> readers;
    std::vector<Head> heap;
    // The next record of segment i that the partition applies. The others
    // never enter the merge: the order among the partition's own records
    // is all its keys need.
    const auto next = [&](std::size_t i, WalRecord* r) {
      while (readers[i]->next(r)) {
        if (r->lsn > snap_lsn && partition_of(r->key, parts) == part) {
          return true;
        }
      }
      out.whole &= readers[i]->ok() &&
                   readers[i]->valid_bytes() == segments[i].valid_bytes;
      return false;
    };
    for (const Segment& seg : segments) {
      readers.push_back(std::make_unique<WalReader>(seg.path, dopts_.faults));
      Head h{{}, readers.size() - 1};
      if (next(h.segment, &h.rec)) heap.push_back(h);
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Head& h = heap.back();
      add(h.rec.op == WalOp::kInsert   ? OpType::kInsert
          : h.rec.op == WalOp::kDelete ? OpType::kDelete
                                       : OpType::kPut,
          h.rec.key, h.rec.value);
      ++out.records;
      if (next(h.segment, &h.rec)) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    }
    core_.execute_batch(batch, replies, pending);
    return out;
  }

  DurabilityOptions dopts_;
  DLHT core_;

  bool opened_ = false;
  std::vector<std::unique_ptr<detail_wal::Shard>> shards_;
  std::mutex checkpoint_mu_;
  /// Highest LSN assigned. Drawn only inside a shard's critical section,
  /// which is what makes checkpoint()'s all-shards barrier exact. Every
  /// logged write bumps it, so it has a cache line to itself, apart from
  /// the fields above and below that every write only reads.
  alignas(64) std::atomic<std::uint64_t> lsn_{0};

  alignas(64) std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> io_errors_{0};
  std::atomic<std::uint64_t> snapshot_bytes_{0};
  std::atomic<std::uint64_t> snapshots_written_{0};
  std::uint64_t recovered_snapshot_lsn_ = 0;
  std::uint64_t replayed_records_ = 0;
  std::uint64_t recovery_partitions_ = 0;
  std::uint64_t recovery_validate_ns_ = 0;
  std::uint64_t recovery_replay_ns_ = 0;
  std::uint64_t wal_corrupt_tails_ = 0;
  std::uint64_t wal_discarded_bytes_ = 0;

  std::thread committer_;
  std::atomic<bool> stop_{false};
};

}  // namespace dlht
