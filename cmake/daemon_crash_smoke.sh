#!/usr/bin/env bash
# Crash-recovery smoke (ctest): the ISSUE 9 headline invariant. Kill the
# daemon mid-sweep — both deterministically (HCSIM_FAULT=job.abort:5) and
# with a raw SIGKILL — restart it, and demand the final sweep CSV be
# byte-identical to an uninterrupted in-process run. Also asserts the
# journal actually carries the recovery: after the crash, a rerun against
# the restarted daemon must be served from journals, computing nothing.
# Usage: daemon_crash_smoke.sh <hcsimd> <hcsim_sweep> <work_dir>
set -euo pipefail

DAEMON=$1
SWEEP=$2
WORK_DIR=$3

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
SOCK="$WORK_DIR/hcsimd.sock"
DPID=""
trap '[ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null || true' EXIT

start_daemon() {  # start_daemon <log> [env VAR=VAL ...]
  local log=$1; shift
  rm -f "$SOCK"
  env "$@" "$DAEMON" --socket "$SOCK" --threads 2 \
    --journal-dir "$WORK_DIR/daemon_journal" 2> "$log" &
  DPID=$!
  for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && return 0
    sleep 0.05
  done
  echo "hcsimd never came up" >&2
  cat "$log" >&2
  return 1
}

# Ground truth: the smoke grid, in-process, no journals.
"$SWEEP" smoke --len 3000 --quiet --csv "$WORK_DIR/clean.csv" > /dev/null

# --- deterministic crash: abort() after the 5th fresh simulation ------------
start_daemon "$WORK_DIR/crash1.log" HCSIM_FAULT=job.abort:5

"$SWEEP" smoke --len 3000 --quiet --csv "$WORK_DIR/crash.csv" \
  --connect "$SOCK" --journal-dir "$WORK_DIR/client_a" \
  --retry 3 --retry-backoff-ms 10 2> "$WORK_DIR/crash.err" > /dev/null
cmp "$WORK_DIR/clean.csv" "$WORK_DIR/crash.csv"
# The daemon must actually have died from the injected abort, and the client
# must have noticed (reconnect attempts and/or local fallback in the summary).
wait "$DPID" && { echo "daemon survived job.abort" >&2; exit 1; }
DPID=""
grep -q "fault tolerance:" "$WORK_DIR/crash.err"
# The client must have seen the crash and finished the remainder itself.
grep -q "connection lost" "$WORK_DIR/crash.err"
grep -Eq "[1-9][0-9]* computed locally" "$WORK_DIR/crash.err"

# --- restart: the daemon journal must carry everything it finished ----------
start_daemon "$WORK_DIR/restart.log"

"$SWEEP" smoke --len 3000 --quiet --csv "$WORK_DIR/recovered.csv" \
  --connect "$SOCK" --journal-dir "$WORK_DIR/client_b" \
  --retry 3 --retry-backoff-ms 10 2> "$WORK_DIR/recovered.err" > /dev/null
cmp "$WORK_DIR/clean.csv" "$WORK_DIR/recovered.csv"
grep -q " 0 computed locally" "$WORK_DIR/recovered.err"
# At least one job must have been a journal hit somewhere (daemon recovered
# the pre-crash work from disk).
grep -Eq "[1-9][0-9]* from daemon journal" "$WORK_DIR/recovered.err"

# A rerun with the now-warm client journal touches no sockets at all.
"$SWEEP" smoke --len 3000 --quiet --csv "$WORK_DIR/rerun.csv" \
  --connect "$SOCK" --journal-dir "$WORK_DIR/client_b" \
  2> "$WORK_DIR/rerun.err" > /dev/null
cmp "$WORK_DIR/clean.csv" "$WORK_DIR/rerun.csv"
grep -q " 0 connect attempt(s)" "$WORK_DIR/rerun.err"

"$SWEEP" --connect "$SOCK" --shutdown
wait "$DPID" || { echo "clean daemon exited nonzero" >&2; cat "$WORK_DIR/restart.log" >&2; exit 1; }
DPID=""

# --- raw SIGKILL mid-sweep ---------------------------------------------------
# No fault injection: start a sweep against a live daemon and SIGKILL the
# daemon while the sweep runs. Whatever the timing — before, during, or
# after the batch — the client must finish with exit 0 and the same bytes.
start_daemon "$WORK_DIR/kill.log"

"$SWEEP" smoke --len 3000 --quiet --csv "$WORK_DIR/killed.csv" \
  --connect "$SOCK" --journal-dir "$WORK_DIR/client_c" \
  --retry 2 --retry-backoff-ms 10 2> "$WORK_DIR/killed.err" > /dev/null &
SWEEP_PID=$!
sleep 0.2
kill -9 "$DPID" 2>/dev/null || true
wait "$SWEEP_PID" || {
  echo "sweep failed after daemon SIGKILL" >&2
  cat "$WORK_DIR/killed.err" >&2
  exit 1
}
wait "$DPID" 2>/dev/null || true
DPID=""
cmp "$WORK_DIR/clean.csv" "$WORK_DIR/killed.csv"

echo "daemon crash smoke OK"
