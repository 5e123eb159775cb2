#!/usr/bin/env bash
# SIGKILL-mid-churn recovery harness. For every fault mode: start the
# kill_recover_writer churning against a fresh durable dir, SIGKILL it mid
# write, audit with a clean process — zero lost committed keys, zero
# duplicates (see kill_recover_writer.cpp for the commit protocol), more
# committed keys than the cycle before and a recovered snapshot — then kill
# and audit the SAME dir a second time. The writer resumes past the
# committed watermarks, so cycle 2's audit demands the union of both
# cycles and catches cross-restart loss (e.g. a checkpoint of the second
# run clobbering a frozen WAL segment the first run left behind).
#
#   KRW=/path/to/kill_recover_writer  (required) writer/auditor binary
#   KR_REPEAT=N                       (default 1) full passes over all modes
#   KR_CHURN_SECS=S                   (default 0.8) churn window before kill
set -u

KRW="${KRW:?set KRW to the kill_recover_writer binary}"
REPEAT="${KR_REPEAT:-1}"
CHURN="${KR_CHURN_SECS:-0.8}"

# Fault triggers land mid-churn, past the writer's start (a batch per
# writer, a commit and a checkpoint: 7 syncs, and 6 appends plus one per
# 60 KiB of snapshot). The checks below fail a cycle whose fault lands
# before its first commit or checkpoint.
MODES="none torn:900 flip:900 failsync:40"

for rep in $(seq 1 "$REPEAT"); do
  for mode in $MODES; do
    dir="$(mktemp -d /tmp/dlht_kill_recover.XXXXXX)"
    committed_before=0
    for cycle in 1 2; do
      if [ "$mode" = "none" ]; then
        unset DLHT_FAULT || true
      else
        export DLHT_FAULT="$mode"
      fi
      "$KRW" --run "$dir" &
      pid=$!
      sleep "$CHURN"
      kill -9 "$pid" 2>/dev/null
      wait "$pid" 2>/dev/null
      status=$?
      unset DLHT_FAULT || true
      # 137 is death by SIGKILL. A writer that ended on its own (a refused
      # DLHT_FAULT exits 2) churned nothing for the audit to check.
      if [ "$status" -ne 137 ]; then
        echo "kill_recover FAIL: rep=$rep mode=$mode cycle=$cycle writer exited with status $status before the kill"
        exit 1
      fi
      if ! audit="$("$KRW" --audit "$dir")"; then
        echo "kill_recover FAIL: rep=$rep mode=$mode cycle=$cycle dir=$dir (kept for inspection)"
        exit 1
      fi
      echo "$audit"
      # Each cycle must commit keys of its own: a committer that never got
      # a sync through would pass every audit vacuously.
      committed="$(echo "$audit" | sed -n 's/.* committed=\([0-9]*\) .*/\1/p')"
      if [ "${committed:-0}" -le "$committed_before" ]; then
        echo "kill_recover FAIL: rep=$rep mode=$mode cycle=$cycle committed nothing (committed=${committed:-?}, before=$committed_before)"
        exit 1
      fi
      committed_before="$committed"
      # Recovery must start from a snapshot, so the damaged log is replayed
      # past one.
      if echo "$audit" | grep -q " snapshot_lsn=0 "; then
        echo "kill_recover FAIL: rep=$rep mode=$mode cycle=$cycle recovered no snapshot"
        exit 1
      fi
    done
    rm -rf "$dir"
  done
done
echo "kill_recover OK: $REPEAT pass(es) x modes [$MODES] x 2 kill cycles"
