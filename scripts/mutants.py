#!/usr/bin/env python3
"""Mutation check: every listed mutant must be killed by the tests named for it.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py --self-test

A mutant is an exact search/replace in one file plus the ctest names that
must fail once it is applied. The script copies the source tree (tracked
and untracked files that git does not ignore) into a temporary directory
and first checks that each mutant's search text occurs exactly once in its
file. It then configures one Release build there, builds only the targets
the mutants' tests run (read from the build's CTestTestfile.cmake), and
runs those tests on the unmutated copy, which must pass. Then, for each
mutant in turn, it applies the replacement, rebuilds those targets, runs
the mutant's tests one by one and restores the file. A mutant survives
when any of its tests passes.

Exits 1 when a mutant survives, no longer applies (its search text occurs
zero times or more than once, because the code moved: update the mutant,
do not drop it), does not build, names a test ctest does not know, or when
an unmutated test fails. The temporary directory (under TMPDIR, if set) is
removed afterwards; the tree the script sits in is never written.
"""

import argparse
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST_TIMEOUT_S = 600
JOBS = min(4, os.cpu_count() or 1)

Mutant = collections.namedtuple("Mutant", "name why file search replace tests")

CORE = "include/dlht/dlht.hpp"
DURABILITY = "include/dlht/durability.hpp"
EPOCH = "include/dlht/epoch.hpp"
PROBE = "include/dlht/probe.hpp"

MUTANTS = [
    Mutant(
        name="snapshot_fallback",
        why="recovery reads an invalid newest snapshot as no snapshot and "
            "replays the log alone",
        file=DURABILITY,
        search="    if (!snap_ok) return false;\n",
        replace="""    if (!snap_ok) {
      snapshot.clear();
      snap_lsn = 0;
    }
""",
        tests=["recovery_test"],
    ),
    Mutant(
        name="gc_deletes_only_old",
        why="the checkpoint's GC deletes only frozen segments, so the logs "
            "of shards beyond wal_shards are replayed forever",
        file=DURABILITY,
        search='(name.starts_with("wal-") && !name.ends_with(".corrupt") && !live)',
        replace='(name.starts_with("wal-") && name.ends_with(".old"))',
        tests=["recovery_test"],
    ),
    Mutant(
        name="rotation_without_probe",
        why="a checkpoint renames the live log over a frozen segment a "
            "crashed checkpoint left",
        file=DURABILITY,
        search="} while (::access(old.c_str(), F_OK) == 0);",
        replace="} while (false);",
        tests=["recovery_test"],
    ),
    Mutant(
        name="corrupt_copy_truncates",
        why="a second corrupt tail on a log overwrites the .corrupt copy "
            "of the first",
        file=DURABILITY,
        search='PosixWritableFile::open(path + ".corrupt", /*truncate=*/false)',
        replace='PosixWritableFile::open(path + ".corrupt", /*truncate=*/true)',
        tests=["recovery_test"],
    ),
    Mutant(
        name="unreadable_drops_snapshot",
        why="a segment the validation pass cannot read leaves the degraded "
            "tier without the snapshot it read",
        file=DURABILITY,
        search="    for (std::size_t i = 0; readable && i < logs.size(); ++i) {",
        replace="    if (!readable) return false;\n"
                "    for (std::size_t i = 0; i < logs.size(); ++i) {",
        tests=["recovery_test"],
    ),
    Mutant(
        name="torn_tail_clean",
        why="a partial final record reads as a clean end, so recovery "
            "leaves it in the log and appends after it",
        file=DURABILITY,
        search="buffered() > 0 ? WalTail::kTorn",
        replace="buffered() > 0 ? WalTail::kClean",
        tests=["recovery_test"],
    ),
    Mutant(
        name="replay_trusts_short_segment",
        why="the replay pass drops its whole-segment check, so a read error "
            "mid-replay loses the rest of the segment while open() answers "
            "kOk",
        file=DURABILITY,
        search="""      out.whole &= readers[i]->ok() &&
                   readers[i]->valid_bytes() == segments[i].valid_bytes;
""",
        replace="",
        tests=["recovery_test"],
    ),
    Mutant(
        name="validation_ignores_unreadable",
        why="the validation pass takes a segment it could not read in full "
            "for a readable one",
        file=DURABILITY,
        search="scans[i - 1] = {reader.ok(), reader.tail(),",
        replace="scans[i - 1] = {true, reader.tail(),",
        tests=["recovery_test"],
    ),
    Mutant(
        name="lsn_chain_dropped",
        why="WalReader does not carry the previous record's LSN to the "
            "next, so an LSN that steps back passes",
        file=DURABILITY,
        search="    prev_lsn_ = r->lsn;\n",
        replace="",
        tests=["recovery_test"],
    ),
    Mutant(
        name="heap_by_segment",
        why="a replay partition merges its segments by segment index "
            "instead of LSN, applying them one after another",
        file=DURABILITY,
        search="      return a.rec.lsn > b.rec.lsn;",
        replace="      return a.segment > b.segment;",
        tests=["recovery_test"],
    ),
    Mutant(
        name="snapshot_chunk_crc_skipped",
        why="stream_snapshot passes on a chunk's entries without checking "
            "its CRC",
        file=DURABILITY,
        search="if (p == nullptr || crc != crc32c(p, len)) return std::nullopt;",
        replace="if (p == nullptr) return std::nullopt;",
        tests=["recovery_test"],
    ),
    Mutant(
        name="snapshot_footer_count_ignored",
        why="a snapshot counts as complete at any footer with a valid CRC, "
            "whatever entry count it holds",
        file=DURABILITY,
        search="load_as<std::uint64_t>(p) != count",
        replace="false",
        tests=["recovery_test"],
    ),
    Mutant(
        name="crc_word_step",
        why="the hardware CRC32C's 4-byte step checksums the wrong word",
        file=DURABILITY,
        search="c = _mm_crc32_u32(c, w);",
        replace="c = _mm_crc32_u32(c, w ^ 1u);",
        tests=["recovery_test"],
    ),
    Mutant(
        name="shard_lock_spins",
        why="a WAL shard lock waiter spins through the holder's fsync "
            "instead of parking",
        file=DURABILITY,
        search="      word_.wait(kParked, std::memory_order_relaxed);",
        replace="      cpu_relax();",
        tests=["recovery_test"],
    ),
    Mutant(
        name="shard_unlock_no_wake",
        why="unlocking a WAL shard lock wakes no parked waiter",
        file=DURABILITY,
        search="      word_.notify_one();\n",
        replace="",
        tests=["recovery_test"],
    ),
    Mutant(
        name="lsn_range_before_core",
        why="a logged call draws one LSN range before the core call, so "
            "two shards' writes to one key can take LSNs in the opposite "
            "order to the one they applied in",
        file=DURABILITY,
        search="""        apply([&](OpType op, std::uint64_t key, std::uint64_t value) {
          WalRecord r;
          r.lsn = lsn_.fetch_add(1, std::memory_order_relaxed) + 1;
""",
        replace="""        std::uint64_t next_lsn =
            lsn_.fetch_add(changes, std::memory_order_relaxed);
        apply([&](OpType op, std::uint64_t key, std::uint64_t value) {
          WalRecord r;
          r.lsn = ++next_lsn;
""",
        tests=["recovery_test"],
    ),
    Mutant(
        name="lsn_blocks_per_thread",
        why="each thread draws LSNs from its own block of 64, so LSN order "
            "across threads is not the order their writes applied in",
        file=DURABILITY,
        search="          r.lsn = lsn_.fetch_add(1, std::memory_order_relaxed) + 1;\n",
        replace="""          thread_local std::uint64_t block_next = 0, block_end = 0;
          if (block_next == block_end) {
            block_next = lsn_.fetch_add(64, std::memory_order_relaxed);
            block_end = block_next + 64;
          }
          r.lsn = ++block_next;
""",
        tests=["recovery_test"],
    ),
    Mutant(
        name="replay_reads_all_then_sorts",
        why="a replay partition reads all of its records into memory and "
            "sorts them instead of merging the segments' streams",
        file=DURABILITY,
        search="""      if (next(h.segment, &h.rec)) heap.push_back(h);
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
""",
        replace="""      while (next(h.segment, &h.rec)) heap.push_back(h);
    }
    std::sort(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
""",
        tests=["recovery_test"],
    ),
    Mutant(
        name="wal_records_never_written",
        why="a WAL shard's sync drops its buffered records instead of "
            "appending them, so only snapshots reach the disk",
        file=DURABILITY,
        search="      if (!file->append(buf.data(), buf.size())) return false;\n",
        replace="",
        tests=["kill_recover", "kv_loopback"],
    ),
    Mutant(
        name="guard_page_dropped",
        why="a bucket array ends without its PROT_NONE guard page, so a "
            "write past it lands in whatever is mapped next",
        file=CORE,
        search="  ::mprotect(base + span, page, PROT_NONE);\n",
        replace="",
        tests=["dlht_test"],
    ),
    Mutant(
        name="vector_sweep_ignores_migrated",
        why="the SIMD Get sweep sends only locked lanes to the scalar walk, "
            "so a lane whose bucket migrated reads the drained table",
        file=CORE,
        search="if (__builtin_expect((v1 & (hdr::kLockBit | hdr::kMigratedBit)) != 0,",
        replace="if (__builtin_expect((v1 & hdr::kLockBit) != 0,",
        tests=["dlht_test"],
    ),
    Mutant(
        name="chunk_tail_redirect_miss",
        why="the batched Get's scalar tail answers a lane whose bucket "
            "migrated mid-pipeline as a miss",
        file=CORE,
        search="""          // A resize started mid-pipeline: resolve this key scalar-style.
          get_on(t, hash_(k), k, rp);
""",
        replace="""          rp.status = Status::kNotFound;
          rp.value = 0;
""",
        tests=["dlht_test"],
    ),
    Mutant(
        name="link_alloc_uncaught",
        why="a user write whose link pool cannot grow throws out of the "
            "table with its bin still locked",
        file=CORE,
        search="""    std::uint32_t idx;
    try {
      idx = t->alloc_link();
    } catch (const std::bad_alloc&) {
      if (force_chain) throw;
      unlock_bucket(home, hh);  // never leave the bin locked
      return Status::kFull;
    }
""",
        replace="    const std::uint32_t idx = t->alloc_link();\n",
        tests=["dlht_test"],
    ),
    Mutant(
        name="migrate_shadow_as_valid",
        why="a migration copies a reserved (shadow) slot into the new "
            "table as valid, so Gets see it before commit_shadow",
        file=CORE,
        search="/*upsert=*/false, st, NoLog{}, /*force_chain=*/true);",
        replace="/*upsert=*/false, SlotState::kValid, NoLog{}, "
                "/*force_chain=*/true);",
        tests=["dlht_test"],
    ),
    Mutant(
        name="empty_slot_home_only",
        why="an insert looks for an empty slot in the home bucket only, so "
            "slots freed in link buckets are never reused",
        file=CORE,
        search="      if (s.empty.b == nullptr) {\n",
        replace="      if (s.empty.b == nullptr && b == home) {\n",
        tests=["dlht_test"],
    ),
    Mutant(
        name="update_edits_shadow",
        why="update() edits a shadow-reserved slot that Gets cannot read "
            "yet",
        file=CORE,
        search="""    edit_pinned<probe::valid_slots>(
        hash_(key), key, [&](Slot& slot, int, std::uint64_t bh) {""",
        replace="""    edit_pinned<probe::occupied_slots>(
        hash_(key), key, [&](Slot& slot, int, std::uint64_t bh) {""",
        tests=["dlht_test"],
    ),
    Mutant(
        name="publish_skips_link_header",
        why="a write to a link bucket never stores that bucket's new "
            "header, so the slot it filled or freed keeps its old state",
        file=CORE,
        search="""    S::store_release(&b->header, hdr::bump_version(nh));
    if (append_to != nullptr) {""",
        replace="    if (append_to != nullptr) {",
        tests=["dlht_test"],
    ),
    Mutant(
        name="grow_chunk_stale_slot",
        why="a demand-grown link chunk's first bucket starts with a stale "
            "valid slot",
        file=CORE,
        search="""      grow_chunks_[n].store(detail::map_buckets(kGrowChunkBuckets, numa_),
                            std::memory_order_release);
""",
        replace="""      Bucket* chunk = detail::map_buckets(kGrowChunkBuckets, numa_);
      chunk[0].header = hdr::with_slot_state(0, 1, SlotState::kValid);
      grow_chunks_[n].store(chunk, std::memory_order_release);
""",
        tests=["dlht_test"],
    ),
    Mutant(
        name="huge_array_early",
        why="a bucket array of 2 MiB or more is placed 64 B before its "
            "guard page instead of ending at it",
        file=CORE,
        search="  return reinterpret_cast<Bucket*>(base + span - bytes);",
        replace="  return reinterpret_cast<Bucket*>(base + span - bytes - "
                "(huge ? 64 : 0));",
        tests=["dlht_test"],
    ),
    Mutant(
        name="reclaim_drained_noop",
        why="writers' checkpoints never advance the epoch, so a drained "
            "table generation waits for the next resize to be freed",
        file=CORE,
        search="""    if (drained_in_limbo_.load(std::memory_order_relaxed) != 0) {
      epoch_.quiesce();
    }
""",
        replace="",
        tests=["epoch_test"],
    ),
    Mutant(
        name="advance_first_segment_only",
        why="try_advance scans only the first epoch slot segment, so a "
            "pinned thread with a high index does not hold the epoch back",
        file=EPOCH,
        search="""    for_each_slot([&](Slot& s) {
      const std::uint64_t p = s.pin.epoch.load(std::memory_order_seq_cst);
      straggler |= p != 0 && p != e;
    });
""",
        replace="""    Slot* seg = dir_[0].load(std::memory_order_seq_cst);
    for (std::size_t i = 0; seg != nullptr && i < kSegment0; ++i) {
      const std::uint64_t p = seg[i].pin.epoch.load(std::memory_order_seq_cst);
      straggler |= p != 0 && p != e;
    }
""",
        tests=["epoch_test"],
    ),
    Mutant(
        name="thread_index_lifo",
        why="a new thread gets the most recently freed index, not the "
            "smallest free one, so epoch segments stay as many as the "
            "most threads ever alive",
        file=EPOCH,
        search="""      std::pop_heap(self.free_.begin(), self.free_.end(), std::greater<>());
      const unsigned idx = self.free_.back();
      self.free_.pop_back();
      return idx;
    }
    return self.next_++;
  }

  static void release(unsigned idx) {
    auto& self = instance();
    std::lock_guard<std::mutex> g(self.mu_);
    self.free_.push_back(idx);
    std::push_heap(self.free_.begin(), self.free_.end(), std::greater<>());
""",
        replace="""      const unsigned idx = self.free_.back();
      self.free_.pop_back();
      return idx;
    }
    return self.next_++;
  }

  static void release(unsigned idx) {
    auto& self = instance();
    std::lock_guard<std::mutex> g(self.mu_);
    self.free_.push_back(idx);
""",
        tests=["epoch_test"],
    ),
    Mutant(
        name="fp_match_drops_guard",
        why="the SWAR fingerprint matcher loses its & ~x term and flags "
            "about half of the non-matching slots as candidates",
        file=PROBE,
        search="  return (x - 0x010101u) & ~x & kSlotMask;",
        replace="  return (x - 0x010101u) & kSlotMask;",
        tests=["probe_equivalence_test"],
    ),
    Mutant(
        name="occupied_drops_state3",
        why="occupied_slots does not count a slot in state 3 (which no "
            "writer stores) as occupied",
        file=PROBE,
        search="  return detail::spread_states((st | (st >> 1)) & 0x15u);",
        replace="  return detail::spread_states((st ^ (st >> 1)) & 0x15u);",
        tests=["probe_equivalence_test"],
    ),
    Mutant(
        name="mica_batch_first_tag_only",
        why="MICA's batched Get follows only the first index entry whose "
            "tag matches and misses a key that a later entry holds",
        file="include/baselines/baselines.hpp",
        search="""        } else if (const auto v = get(keys[cb + j])) {
          // The first tag match holds another key: scan on, as get() does.
          lk.found = true;
          lk.value = *v;
        }
""",
        replace="        }\n",
        tests=["baseline_equivalence_test"],
    ),
]


class MutantError(Exception):
    pass


def fail(msg):
    print("mutants: " + msg, file=sys.stderr)
    sys.exit(1)


def apply_mutant(text, m):
    """`text` with m's search text replaced; MutantError unless it occurs
    exactly once."""
    n = text.count(m.search)
    if n != 1:
        raise MutantError("%s: search text occurs %d times in %s (want 1)"
                          % (m.name, n, m.file))
    return text.replace(m.search, m.replace)


def run(cmd, cwd=None, quiet=False):
    out = subprocess.DEVNULL if quiet else None
    return subprocess.run(cmd, cwd=cwd, stdout=out, stderr=out).returncode


# ------------------------------------------------------------ the copy

def copy_tree(src):
    """Copy the tree's tracked and unignored files into src."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout
    for rel in sorted(set(filter(None, listing.decode().split("\0")))):
        path = os.path.join(ROOT, rel)
        if not os.path.isfile(path):
            continue  # deleted in the working tree
        dest = os.path.join(src, rel)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copy2(path, dest)


def test_targets(build):
    """ctest name -> the build targets its command runs: every argument (or
    NAME=value's value) that is a path inside the build directory, read
    from the add_test lines CMake writes to CTestTestfile.cmake (ctest
    itself leaves out commands whose executable is not built yet)."""
    with open(os.path.join(build, "CTestTestfile.cmake")) as f:
        lines = f.read().splitlines()
    prefix = os.path.realpath(build) + os.sep
    out = {}
    for line in lines:
        m = re.match(r"add_test\((\S+) (.*)\)$", line)
        if m is None:
            continue
        targets = set()
        for arg in re.findall(r'"((?:[^"\\]|\\.)*)"', m.group(2)):
            path = os.path.realpath(arg.split("=", 1)[-1])
            if path.startswith(prefix):
                targets.add(os.path.basename(path))
        out[m.group(1)] = sorted(targets)
    return out


def build_targets(build, targets):
    return run(["cmake", "--build", build, "-j", str(JOBS), "--target"]
               + sorted(targets), quiet=True) == 0


def test_passes(build, name):
    return run(["ctest", "--test-dir", build, "-R", "^%s$" % name,
                "--timeout", str(TEST_TIMEOUT_S)], quiet=True) == 0


# ---------------------------------------------------------------- check

def check(work):
    src = os.path.join(work, "src")
    build = os.path.join(work, "build")
    copy_tree(src)
    originals = {}
    errors = []
    for m in MUTANTS:
        path = os.path.join(src, m.file)
        if m.file not in originals:
            with open(path, encoding="utf-8", newline="") as f:
                originals[m.file] = f.read()
        try:
            apply_mutant(originals[m.file], m)
        except MutantError as e:
            errors.append(str(e))
    if errors:
        fail("mutants that no longer apply (update them, do not drop them):\n  "
             + "\n  ".join(errors))

    if run(["cmake", "-B", build, "-S", src, "-DCMAKE_BUILD_TYPE=Release"],
           quiet=True) != 0:
        fail("cmake configure failed in " + src)
    targets = test_targets(build)
    unknown = sorted({t for m in MUTANTS for t in m.tests} - set(targets))
    if unknown:
        fail("tests ctest does not know: " + ", ".join(unknown))
    needed = sorted({x for m in MUTANTS for t in m.tests for x in targets[t]})
    print("unmutated: building %s" % " ".join(needed), flush=True)
    if not build_targets(build, needed):
        fail("the unmutated tree does not build")
    for t in sorted({t for m in MUTANTS for t in m.tests}):
        if not test_passes(build, t):
            fail("%s fails on the unmutated tree, so it can kill nothing" % t)

    survivors = []
    for m in MUTANTS:
        path = os.path.join(src, m.file)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(apply_mutant(originals[m.file], m))
        try:
            if not build_targets(build,
                                 {x for t in m.tests for x in targets[t]}):
                errors.append("%s: the mutated tree does not build" % m.name)
                print("%-26s DOES NOT BUILD" % m.name, flush=True)
                continue
            passed = [t for t in m.tests if test_passes(build, t)]
        finally:
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(originals[m.file])
        if passed:
            survivors.append(m.name)
            print("%-26s SURVIVED (%s passed): %s"
                  % (m.name, ", ".join(passed), m.why), flush=True)
        else:
            print("%-26s killed by %s" % (m.name, ", ".join(m.tests)),
                  flush=True)
    if errors or survivors:
        fail("%d survived, %d broken:\n  %s"
             % (len(survivors), len(errors), "\n  ".join(survivors + errors)))
    print("mutants: all %d killed" % len(MUTANTS))


# ------------------------------------------------------------ self-test

def self_test():
    m = Mutant("m", "", "f", "needle", "pin", ["t"])
    assert apply_mutant("a needle b", m) == "a pin b"
    for text in ("a b", "needle needle"):
        try:
            apply_mutant(text, m)
        except MutantError:
            continue
        raise AssertionError("applied where the search text occurs %d times"
                             % text.count("needle"))
    names = [x.name for x in MUTANTS]
    assert len(names) == len(set(names)), "duplicate mutant names"
    for x in MUTANTS:
        assert x.search != x.replace and x.tests, x.name
    print("mutants self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check the search/replace rule and the list")
    a = ap.parse_args()
    if a.self_test:
        self_test()
        return
    work = tempfile.mkdtemp(prefix="dlht-mutants-")
    try:
        check(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
