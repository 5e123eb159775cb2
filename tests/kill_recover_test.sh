#!/usr/bin/env bash
# SIGKILL-mid-churn recovery harness. For every fault mode: start the
# kill_recover_writer churning against a fresh durable dir, SIGKILL it mid
# write, audit with a clean process — zero lost committed keys, zero
# duplicates (see kill_recover_writer.cpp for the commit protocol) — then
# kill and audit the SAME dir a second time. The writer resumes past the
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

# Fault triggers land mid-churn: the writer pushes hundreds of appends and
# dozens of syncs per second, so these fire well inside the kill window.
MODES="none torn:900 flip:900 failsync:40"

for rep in $(seq 1 "$REPEAT"); do
  for mode in $MODES; do
    dir="$(mktemp -d /tmp/dlht_kill_recover.XXXXXX)"
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
      if ! "$KRW" --audit "$dir"; then
        echo "kill_recover FAIL: rep=$rep mode=$mode cycle=$cycle dir=$dir (kept for inspection)"
        exit 1
      fi
    done
    rm -rf "$dir"
  done
done
echo "kill_recover OK: $REPEAT pass(es) x modes [$MODES] x 2 kill cycles"
