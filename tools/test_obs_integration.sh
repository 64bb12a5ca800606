#!/usr/bin/env bash
# End-to-end observability test, registered with CTest as
# `obs_integration` and run in CI.
#
# Contract: instrumentation must be invisible to results — an `ictm
# stream` run with --trace-out/--metrics-out produces byte-identical
# estimates and priors to a plain run — and the artifacts themselves
# must be sound: the trace validates as Chrome trace_event JSON
# (tools/check_trace.py) and shows every timed stage of a bin, from the
# chunk read through the six solver stages, a trace long enough to be
# written out in several batches still holds every bin once, the
# metrics snapshot is JSON with the v1 schema marker, `ictm client
# --stats` returns a name-sorted counter dump from a live server, and
# `ictm serve --stats-interval` emits periodic summary lines plus
# shutdown totals.
#
# usage: test_obs_integration.sh <path-to-ictm> [<path-to-check-trace.py>]
set -u

BIN=${1:?usage: test_obs_integration.sh <path-to-ictm> [check_trace.py]}
CHECK_TRACE=${2:-$(dirname "$0")/check_trace.py}
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

NODES=9
BINS=24
WINDOW=4

"$BIN" synthesize "$WORK/tm.csv" $NODES $BINS 0.25 7 >/dev/null ||
  fail "synthesize"
"$BIN" convert "$WORK/tm.csv" "$WORK/tm.ictmb" --chunk 8 >/dev/null ||
  fail "convert"

# Plain run vs instrumented run: the estimates and priors must not
# care whether the registry and tracer were watching (nor whether the
# bins came from the CSV or its ictmb twin).
"$BIN" stream "$WORK/tm.csv" --topology grid:3x3 --threads 2 \
  --window $WINDOW --out "$WORK/plain" >/dev/null ||
  fail "plain stream run"
"$BIN" stream "$WORK/tm.ictmb" --topology grid:3x3 --threads 2 \
  --window $WINDOW --out "$WORK/traced" \
  --trace-out "$WORK/stream.trace.json" \
  --metrics-out "$WORK/stream.metrics.json" >/dev/null ||
  fail "instrumented stream run"
for kind in estimates priors; do
  if ! cmp -s "$WORK/plain/$kind.ictmb" "$WORK/traced/$kind.ictmb"; then
    fail "instrumented run: $kind.ictmb differs from plain run"
  else
    echo "ok (bit-identical): $kind.ictmb with tracing+metrics on"
  fi
done

# The artifacts themselves.
REQUIRED=()
for name in push solve chunk_read chunk_write residual gram factor \
    substitute pushback ipf; do
  REQUIRED+=(--require-name "$name")
done
python3 "$CHECK_TRACE" "$WORK/stream.trace.json" --min-events 10 \
  "${REQUIRED[@]}" ||
  fail "stream trace is not well-formed or lacks a timed stage"
grep -q '"ictm-metrics-v1"' "$WORK/stream.metrics.json" ||
  fail "stream metrics snapshot lacks the v1 schema marker"
grep -q '"stream.bins_pushed"' "$WORK/stream.metrics.json" ||
  fail "stream metrics snapshot lacks stream.bins_pushed"

# A long traced run: each of the four workers' buffers fills and is
# written out three or more times (every 4096 events), interleaved with
# the others, before Stop() writes the rest, and the file must still
# validate and hold every bin's solve once.
LONG_BINS=8000
"$BIN" synthesize "$WORK/long.csv" $NODES $LONG_BINS 0.25 11 >/dev/null ||
  fail "synthesize the long series"
"$BIN" stream "$WORK/long.csv" --topology grid:3x3 --threads 4 \
  --window 0 --trace-out "$WORK/long.trace.json" >/dev/null ||
  fail "long traced stream run"
python3 "$CHECK_TRACE" "$WORK/long.trace.json" \
  --min-events $((7 * LONG_BINS)) --require-name solve ||
  fail "long stream trace is not well-formed"
SOLVES=$(grep -o '"name":"solve"' "$WORK/long.trace.json" | wc -l)
[ "$SOLVES" -eq "$LONG_BINS" ] ||
  fail "long stream trace holds $SOLVES solve events, not $LONG_BINS"

# Server: periodic stats line, STATS probe, shutdown totals, snapshot.
SOCK="unix:$WORK/server.sock"
"$BIN" serve --listen "$SOCK" --stats-interval 1 \
  --trace-out "$WORK/serve.trace.json" \
  --metrics-out "$WORK/serve.metrics.json" \
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

"$BIN" client "$WORK/tm.csv" --connect "$SOCK" --topology grid:3x3 \
  --threads 2 --window $WINDOW --out "$WORK/client" \
  >"$WORK/client.log" 2>&1 || {
  cat "$WORK/client.log"
  fail "client session exited non-zero"
}
for kind in estimates priors; do
  cmp -s "$WORK/plain/$kind.ictmb" "$WORK/client/$kind.ictmb" ||
    fail "served $kind.ictmb differs from local stream run"
done

# STATS probe: name-sorted "name value" lines including the session
# counter the run above just incremented.
"$BIN" client --stats --connect "$SOCK" >"$WORK/stats.txt" 2>&1 ||
  fail "ictm client --stats exited non-zero"
grep -q "^server\.sessions_opened 1$" "$WORK/stats.txt" ||
  fail "stats dump lacks 'server.sessions_opened 1': \
$(grep server.sessions "$WORK/stats.txt" || echo missing)"
if ! LC_ALL=C sort -c "$WORK/stats.txt" 2>/dev/null; then
  fail "stats dump is not name-sorted"
fi

# The periodic summary (interval 1 s — give it time for one tick).
for _ in $(seq 1 50); do
  grep -q "^stats: " "$WORK/server.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "^stats: " "$WORK/server.log" ||
  fail "server log lacks a periodic 'stats:' line after >5s at interval 1"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=
# Two accepted connections: the streaming session and the STATS probe.
grep -q "served 2 session(s)" "$WORK/server.log" ||
  fail "server log lacks 'served 2 session(s)'"
grep -q "^totals: " "$WORK/server.log" ||
  fail "server log lacks the shutdown 'totals:' accounting line"
grep -q '"ictm-metrics-v1"' "$WORK/serve.metrics.json" ||
  fail "serve metrics snapshot (SIGTERM dump) missing or lacks schema"
python3 "$CHECK_TRACE" "$WORK/serve.trace.json" --min-events 10 ||
  fail "serve trace (written on SIGTERM) is not well-formed"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES observability check(s) failed"
  exit 1
fi
echo "all observability checks passed"
