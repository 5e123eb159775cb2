#!/usr/bin/env bash
# End-to-end loopback test for the KV server front end.
#
#   SERVER=/path/to/dlht_server   (required)
#   CLIENT=/path/to/kv_client     (required)
#   KRW=/path/to/kill_recover_writer  (required for the durable section)
#   SKIP_RATIO=1    skip the batched-vs-unbatched throughput assertion
#                   (sanitizer builds: numbers are meaningless under ASan/
#                   TSan, correctness audits still run in full)
#   KR_CYCLES=N     kill-and-recover cycles against one durable dir (def 2)
#   KV_KEYS / KV_MS / KV_THREADS   workload size knobs for the sweep
#
# Sections:
#   1. Batched server (default --batch) on a unix socket: mixed
#      Get/PutHeavy/InsDel sweep, closed-loop p50/p99, then the client's
#      zero-lost / zero-dup shutdown audit (client exit status). Once the
#      client is gone the shards must park: the server may use at most 10
#      clock ticks of CPU in 1 s (a shard that never stops polling uses
#      about 100).
#   2. The same sweep against the batched server of section 1 and against
#      --batch 1 (the unbatched baseline: one table call and one reply
#      write per op), three runs each, alternating; asserts
#      median(batched) >= 1.5x median(unbatched). Host steal can halve a
#      single 250 ms run, so a single pair of runs is not a stable check.
#   3. memcached-text shim smoke over TCP (set/get/delete/quit via
#      /dev/tcp), skipped if this bash lacks /dev/tcp.
#   4. --durable mode: kill_recover_writer --run DIR --connect SPEC sends
#      its churn and commit protocol over the wire, the SERVER is
#      SIGKILLed mid-churn, the writer must exit 0 once its connections
#      see it die, and kill_recover_writer --audit must find zero lost
#      committed keys and zero duplicates, and more committed keys than
#      the cycle before — KR_CYCLES times against the same dir, so cycle
#      N+1 audits the union of all cycles.
set -u

SERVER="${SERVER:?set SERVER to the dlht_server binary}"
CLIENT="${CLIENT:?set CLIENT to the kv_client binary}"
KRW="${KRW:?set KRW to the kill_recover_writer binary}"
SKIP_RATIO="${SKIP_RATIO:-0}"
KR_CYCLES="${KR_CYCLES:-2}"
KEYS="${KV_KEYS:-8192}"
MS="${KV_MS:-250}"
THREADS="${KV_THREADS:-1,2}"

workdir="$(mktemp -d /tmp/dlht_kv_loopback.XXXXXX)"
server_pid=""

cleanup() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "kv_loopback FAIL: $1"
  exit 1
}

# Start $SERVER unpinned with the given extra args, wait for its ready line.
start_server() {
  : > "$workdir/server.log"
  DLHT_PIN=none "$SERVER" --listen "$1" --keys "$KEYS" "${@:2}" \
    > "$workdir/server.log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    grep -q "ready" "$workdir/server.log" && return 0
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  cat "$workdir/server.log"
  fail "server did not become ready"
}

stop_server() {
  kill "$server_pid" 2>/dev/null
  wait "$server_pid" 2>/dev/null
  server_pid=""
}

# utime + stime of process $1 in clock ticks (/proc/PID/stat fields 14-15;
# the comm field may hold spaces, so count from its closing parenthesis).
cpu_ticks() {
  local stat
  stat="$(cat "/proc/$1/stat")" || return 1
  set -- ${stat##*) }
  echo $(( ${12} + ${13} ))
}

tput_of() {
  # Max "mixed/tput" row value (col 4) from a client log.
  awk '$2 == "mixed/tput" { if ($4 > v) v = $4 } END { print v + 0 }' "$1"
}

median() {
  printf '%s\n' "$@" | sort -g |
    awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

sock="unix:$workdir/kv.sock"

# ---- 1. batched server: sweep + audit ---------------------------------
start_server "$sock" --threads 2
if ! "$CLIENT" --connect "$sock" --keys "$KEYS" --ms "$MS" \
     --threads-list "$THREADS" --batch 32 > "$workdir/batched.log" 2>&1; then
  cat "$workdir/batched.log"
  fail "batched run / audit failed"
fi
sleep 0.2
idle0="$(cpu_ticks "$server_pid")" || fail "cannot read server CPU time"
sleep 1
idle1="$(cpu_ticks "$server_pid")" || fail "cannot read server CPU time"
idle=$(( idle1 - idle0 ))
echo "kv_loopback: idle server used $idle clock ticks in 1 s"
[ "$idle" -le 10 ] || fail "idle server used $idle clock ticks in 1 s (> 10)"
stop_server
grep -q "rtt/p50" "$workdir/batched.log" || fail "no p50 row emitted"
grep -Eq "nan|inf" "$workdir/batched.log" && fail "non-finite latency"

# ---- 2. batched vs unbatched throughput, median of three each --------
# One sweep against a server started with the given extra args; its log
# goes to $1.
sweep() {
  local log="$1"
  shift
  start_server "$sock" --threads 2 "$@"
  if ! "$CLIENT" --connect "$sock" --keys "$KEYS" --ms "$MS" \
       --threads-list "$THREADS" --batch 32 > "$log" 2>&1; then
    cat "$log"
    fail "sweep against server ${*:-(batched)} / audit failed"
  fi
  stop_server
}

if [ "$SKIP_RATIO" != "1" ]; then
  batched_runs=()
  unbatched_runs=()
  for round in 1 2 3; do
    sweep "$workdir/batched.$round.log"
    batched_runs+=("$(tput_of "$workdir/batched.$round.log")")
    sweep "$workdir/unbatched.$round.log" --batch 1
    unbatched_runs+=("$(tput_of "$workdir/unbatched.$round.log")")
  done
  batched="$(median "${batched_runs[@]}")"
  unbatched="$(median "${unbatched_runs[@]}")"
  echo "kv_loopback: batched runs ${batched_runs[*]} Mreq/s," \
       "unbatched runs ${unbatched_runs[*]} Mreq/s"
  echo "kv_loopback: median batched=$batched Mreq/s unbatched=$unbatched Mreq/s"
  awk -v b="$batched" -v u="$unbatched" \
      'BEGIN { exit !(u > 0 && b >= 1.5 * u) }' ||
    fail "median batched ($batched) < 1.5x median unbatched ($unbatched)"
fi

# ---- 3. memcached-text shim smoke (TCP) -------------------------------
port=$(( 20000 + ($$ % 10000) ))
start_server "127.0.0.1:$port" --threads 1
if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'set 5 0 0 3\r\nabc\r\nget 5\r\ndelete 5\r\nget 5\r\nquit\r\n' >&3
  text="$(timeout 10 cat <&3 | tr -d '\0\r')"
  exec 3<&- 3>&-
  echo "$text" | grep -q "STORED" || fail "text shim: no STORED"
  echo "$text" | grep -q "VALUE 5 0 8" || fail "text shim: no VALUE"
  echo "$text" | grep -q "DELETED" || fail "text shim: no DELETED"
  echo "$text" | grep -q "END" || fail "text shim: no END"
else
  echo "kv_loopback: /dev/tcp unavailable, text shim smoke skipped"
fi
stop_server

# ---- 4. durable mode: kill-and-recover over the network ----------------
waldir="$workdir/wal"
mkdir -p "$waldir"
committed_before=0
for cycle in $(seq 1 "$KR_CYCLES"); do
  start_server "$sock" --threads 2 --batch 16 \
    --durable "$waldir" --checkpoint-ms 100
  "$KRW" --run "$waldir" --connect "$sock" > "$workdir/kr.log" 2>&1 &
  writer_pid=$!
  sleep 0.8
  kill -9 "$server_pid" 2>/dev/null
  wait "$server_pid" 2>/dev/null
  server_pid=""
  rm -f "$workdir/kv.sock"
  if ! wait "$writer_pid"; then
    cat "$workdir/kr.log"
    fail "kill_recover_writer failed or did not survive server death (cycle $cycle)"
  fi
  if ! audit="$("$KRW" --audit "$waldir")"; then
    fail "durable audit failed (cycle $cycle)"
  fi
  echo "$audit"
  # A cycle whose Sync never succeeded would pass the audit vacuously.
  committed="$(echo "$audit" | sed -n 's/.* committed=\([0-9]*\) .*/\1/p')"
  if [ "${committed:-0}" -le "$committed_before" ]; then
    fail "durable cycle $cycle committed nothing (committed=${committed:-?}, before=$committed_before)"
  fi
  committed_before="$committed"
done

echo "kv_loopback OK: keys=$KEYS threads=$THREADS ratio_skipped=$SKIP_RATIO kr_cycles=$KR_CYCLES"
