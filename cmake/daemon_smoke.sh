#!/usr/bin/env bash
# Daemon smoke (ctest): start hcsimd on a scratch socket, drive it with
# hcsim_sweep --connect, and demand the fig06 grid's CSV be byte-identical
# to the in-process run. Also covers the sweep CLI contract: --list prints
# the registry, unknown sweep names and a zero sample warm-up in
# fault-tolerant mode exit 2 with a diagnostic, and --connect --shutdown
# stops the daemon.
# Usage: daemon_smoke.sh <hcsimd> <hcsim_sweep> <work_dir>
set -euo pipefail

DAEMON=$1
SWEEP=$2
WORK_DIR=$3

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
SOCK="$WORK_DIR/hcsimd.sock"

# --- CLI contract (no daemon needed) -----------------------------------------
"$SWEEP" --list | grep -q "^fig06 "
"$SWEEP" list | grep -q "^smoke "

set +e
"$SWEEP" no_such_sweep --quiet 2> "$WORK_DIR/unknown.err"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "unknown sweep: expected exit 2, got $rc" >&2
  exit 1
fi
grep -q "unknown sweep 'no_such_sweep'" "$WORK_DIR/unknown.err"

set +e
"$SWEEP" fig06 --shutdown --quiet 2> "$WORK_DIR/shutdown.err"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "--shutdown without --connect: expected exit 2, got $rc" >&2
  exit 1
fi

# --connect to a socket nobody listens on: the fault-tolerant client retries,
# then falls back to in-process execution (exit 0). With --no-fallback the
# transport failure is surfaced as exit 3. Neither may hang.
"$SWEEP" smoke --quiet --connect "$WORK_DIR/nope.sock" --retry 2 \
  --retry-backoff-ms 10 2> "$WORK_DIR/fallback.err" > /dev/null
grep -q "daemon unreachable; computing" "$WORK_DIR/fallback.err"

set +e
"$SWEEP" smoke --quiet --connect "$WORK_DIR/nope.sock" --no-fallback --retry 2 \
  --retry-backoff-ms 10 2> "$WORK_DIR/refused.err"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "--connect dead socket with --no-fallback: expected exit 3, got $rc" >&2
  exit 1
fi
grep -q "fallback disabled" "$WORK_DIR/refused.err"

# A zero warm-up is "no warm-up" in-process but "the default" in a job
# request, so fault-tolerant mode refuses it (flag or environment) with
# exit 2 instead of writing different rows.
for mode in flag env; do
  set +e
  if [ "$mode" = flag ]; then
    "$SWEEP" smoke --quiet --len 90000 --sample-warmup 0 --sample-measure 4000 \
      --sample-period 40000 --journal-dir "$WORK_DIR/j0" 2> "$WORK_DIR/warmup0.err"
  else
    HCSIM_SAMPLE_WARMUP=0 HCSIM_SAMPLE_MEASURE=4000 "$SWEEP" smoke --quiet \
      --len 90000 --connect "$WORK_DIR/nope.sock" 2> "$WORK_DIR/warmup0.err"
  fi
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "zero sample warm-up ($mode) in fault-tolerant mode: expected exit 2, got $rc" >&2
    exit 1
  fi
  grep -q "sample-warmup 0" "$WORK_DIR/warmup0.err"
done

# --- daemon round trip --------------------------------------------------------
"$DAEMON" --socket "$SOCK" --threads 2 2> "$WORK_DIR/hcsimd.log" &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

for _ in $(seq 1 200); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "hcsimd never came up" >&2; cat "$WORK_DIR/hcsimd.log" >&2; exit 1; }

# ISSUE 7 acceptance: the fig06 grid over --connect, byte-identical CSV.
"$SWEEP" fig06 --len 6000 --quiet --csv "$WORK_DIR/local.csv" > /dev/null
"$SWEEP" fig06 --len 6000 --quiet --csv "$WORK_DIR/remote.csv" --connect "$SOCK" > /dev/null
cmp "$WORK_DIR/local.csv" "$WORK_DIR/remote.csv"

# A second request on the warm daemon (cached traces) must agree too.
"$SWEEP" fig06 --len 6000 --quiet --csv "$WORK_DIR/remote2.csv" --connect "$SOCK" > /dev/null
cmp "$WORK_DIR/local.csv" "$WORK_DIR/remote2.csv"

"$SWEEP" --connect "$SOCK" --shutdown
wait "$DPID"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "hcsimd exited with $rc" >&2
  cat "$WORK_DIR/hcsimd.log" >&2
  exit 1
fi
[ ! -e "$SOCK" ] || { echo "socket not unlinked on shutdown" >&2; exit 1; }

echo "daemon smoke OK"
