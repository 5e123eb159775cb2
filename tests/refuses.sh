#!/usr/bin/env bash
# Refusal check: run a command and pass only when it exits with status 2,
# the typed refusal the benches and dlht_server give for a bad knob or
# flag. Any other status fails, a crash or an unrelated error exit
# included (CTest's WILL_FAIL would pass both).
#   bash tests/refuses.sh <command> [args...]
"$@"
status=$?
if [ "$status" -ne 2 ]; then
  echo "refuses.sh: expected exit 2, got $status: $*" >&2
  exit 1
fi
