#!/usr/bin/env bash
# End-to-end server integration test, registered with CTest as
# `server_integration` and run in CI under ASan/UBSan and TSan.
#
# Contract: one `ictm serve` daemon, five `ictm client` sessions
# running in parallel over mixed topologies and thread counts — every
# client's estimates.ictmb and priors.ictmb must be byte-identical to
# the `ictm stream` run of the same trace, and the daemon must shut
# down cleanly on SIGTERM having served all five.
#
# usage: test_server_integration.sh <path-to-ictm>
set -u

BIN=${1:?usage: test_server_integration.sh <path-to-ictm>}
WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT
FAILURES=0

fail() {
  echo "FAIL: $*"
  FAILURES=$((FAILURES + 1))
}

# Per-session workload: trace geometry, topology spec, thread count.
# Two sessions share abilene11 so the server's topology cache serves
# hits as well as misses; session e has no canned topology of its
# size, so `auto` must resolve to the same ring for client and stream.
NAMES=(a b c d e)
NODES=(11 11 8 9 6)
TOPOS=(auto auto ring:8:2 grid:3x3 auto)
THREADS=(1 4 2 4 1)
BINS=20
WINDOW=4

# Traces + single-process baselines.
for i in "${!NAMES[@]}"; do
  name=${NAMES[$i]}
  "$BIN" synthesize "$WORK/tm_$name.csv" "${NODES[$i]}" $BINS 0.25 $((7 + i)) \
    >/dev/null || fail "synthesize $name"
  "$BIN" stream "$WORK/tm_$name.csv" --topology "${TOPOS[$i]}" \
    --threads 2 --window $WINDOW --out "$WORK/baseline_$name" \
    >/dev/null || fail "stream baseline $name"
done

# Daemon; the "listening on" line is the readiness signal.
SOCK="unix:$WORK/server.sock"
"$BIN" serve --listen "$SOCK" --checkpoint-dir "$WORK/ckpt" \
  >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/server.log" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if ! grep -q "listening on" "$WORK/server.log"; then
  cat "$WORK/server.log"
  echo "FAIL: server never became ready"
  exit 1
fi

# All clients in parallel.
CLIENT_PIDS=()
for i in "${!NAMES[@]}"; do
  name=${NAMES[$i]}
  "$BIN" client "$WORK/tm_$name.csv" --connect "$SOCK" \
    --topology "${TOPOS[$i]}" --threads "${THREADS[$i]}" --window $WINDOW \
    --session "job-$name" --out "$WORK/client_$name" \
    >"$WORK/client_$name.log" 2>&1 &
  CLIENT_PIDS+=($!)
done
for i in "${!NAMES[@]}"; do
  if ! wait "${CLIENT_PIDS[$i]}"; then
    cat "$WORK/client_${NAMES[$i]}.log"
    fail "client ${NAMES[$i]} exited non-zero"
  fi
done

# Byte-identity against the stream baselines.
for i in "${!NAMES[@]}"; do
  name=${NAMES[$i]}
  for kind in estimates priors; do
    if ! cmp -s "$WORK/baseline_$name/$kind.ictmb" \
               "$WORK/client_$name/$kind.ictmb"; then
      fail "client $name: $kind.ictmb differs from ictm stream"
    else
      echo "ok (bit-identical): client $name $kind.ictmb"
    fi
  done
done

# Graceful shutdown with the session/cache accounting line.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=
grep -q "served ${#NAMES[@]} session(s)" "$WORK/server.log" ||
  fail "server log lacks 'served ${#NAMES[@]} session(s)': $(tail -2 "$WORK/server.log")"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES server integration check(s) failed"
  exit 1
fi
echo "all server integration checks passed"
