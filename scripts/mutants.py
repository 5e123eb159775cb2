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

DURABILITY = "include/dlht/durability.hpp"

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
