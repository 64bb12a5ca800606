#!/usr/bin/env bash
# End-to-end server integration test, registered with CTest as
# `server_integration` and run in CI under ASan/UBSan and TSan.
#
# Contract: one `ictm serve` daemon, six `ictm client` sessions
# running in parallel over mixed topologies, thread counts and input
# formats — every client's estimates.ictmb and priors.ictmb must be
# byte-identical to the `ictm stream` run of the same trace.  Then a
# client whose ictmb input is damaged mid-trace must exit 1 with the
# `--resume --have N` hint, and the retry on the CSV form of the trace
# must finish the session: the frames of both runs concatenate into
# the `ictm stream` output.  The daemon must shut down cleanly on
# SIGTERM having served all eight sessions.
#
# Stop contract: once a daemon prints its readiness line, every one of
# its threads blocks SIGINT and SIGTERM, and either signal ends it with
# exit 0 and its summary however soon it arrives — checked on 20 more
# daemons, each signalled the moment its readiness line is read.
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

# Per-session workload: trace geometry, topology spec, thread count,
# client input format.  Three sessions share abilene11 so the server's
# topology cache serves hits as well as misses; session e has no
# canned topology of its size, so `auto` must resolve to the same ring
# for client and stream; session f streams the ictmb form of its trace.
NAMES=(a b c d e f)
NODES=(11 11 8 9 6 11)
TOPOS=(auto auto ring:8:2 grid:3x3 auto auto)
THREADS=(1 4 2 4 1 2)
FORMATS=(csv csv csv csv csv ictmb)
BINS=20
WINDOW=4

# Traces + single-process baselines.
for i in "${!NAMES[@]}"; do
  name=${NAMES[$i]}
  "$BIN" synthesize "$WORK/tm_$name.csv" "${NODES[$i]}" $BINS 0.25 $((7 + i)) \
    >/dev/null || fail "synthesize $name"
  "$BIN" convert "$WORK/tm_$name.csv" "$WORK/tm_$name.ictmb" >/dev/null ||
    fail "convert $name"
  "$BIN" stream "$WORK/tm_$name.csv" --topology "${TOPOS[$i]}" \
    --threads 2 --window $WINDOW --out "$WORK/baseline_$name" \
    >/dev/null || fail "stream baseline $name"
done

# Daemon; the "listening on" line is the readiness signal.
SOCK="unix:$WORK/server.sock"
"$BIN" serve --listen "$SOCK" --checkpoint-dir "$WORK/ckpt" \
  --checkpoint-every 4 >"$WORK/server.log" 2>&1 &
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

# Every thread blocks SIGINT (bit 1) and SIGTERM (bit 14) in SigBlk,
# but for the one asleep in sigwaitinfo: for the length of that wait
# the kernel clears the waited-for signals from the sleeper's SigBlk
# (the mask itself is kept aside), so its wchan is checked instead.
CHECKED=0
WAITING=0
UNBLOCKED=0
for task in /proc/"$SERVER_PID"/task/*; do
  blk=$(sed -n 's/^SigBlk:[[:space:]]*//p' "$task/status" 2>/dev/null)
  [ -n "$blk" ] || continue  # the thread has exited
  CHECKED=$((CHECKED + 1))
  [ $((0x$blk & 0x4002)) -eq $((0x4002)) ] && continue
  wchan=$(cat "$task/wchan" 2>/dev/null)
  if [ "${wchan#do_sigtimedwait}" != "$wchan" ]; then
    WAITING=$((WAITING + 1))
  else
    UNBLOCKED=$((UNBLOCKED + 1))
    fail "daemon thread ${task##*/} ($(cat "$task/comm" 2>/dev/null), in ${wchan:-?}) does not block SIGINT and SIGTERM: SigBlk $blk"
  fi
done
if [ "$CHECKED" -eq 0 ]; then
  fail "no daemon thread found under /proc/$SERVER_PID/task"
elif [ "$UNBLOCKED" -eq 0 ]; then
  echo "ok (SigBlk has 0x4002): $CHECKED daemon thread(s), $WAITING of them in sigwaitinfo"
fi

# All clients in parallel.
CLIENT_PIDS=()
for i in "${!NAMES[@]}"; do
  name=${NAMES[$i]}
  "$BIN" client "$WORK/tm_$name.${FORMATS[$i]}" --connect "$SOCK" \
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

# Resume after a damaged input.  At n = 50 the socket buffers, not the
# trace, bound how far the client runs ahead of the server, so the
# first run usually ends with frames in hand and the retry skips
# forward through the CSV to the server's checkpoint.
R_NODES=50
R_BINS=40
"$BIN" synthesize "$WORK/tm_r.csv" $R_NODES $R_BINS 0.25 13 >/dev/null ||
  fail "synthesize r"
"$BIN" convert "$WORK/tm_r.csv" "$WORK/tm_r.ictmb" --chunk 4 >/dev/null ||
  fail "convert r"
"$BIN" stream "$WORK/tm_r.csv" --window $WINDOW --out "$WORK/baseline_r" \
  >/dev/null 2>&1 || fail "stream baseline r"
# Flip one payload byte of chunk 9 (bins 36-39).  Layout: a 40-byte
# header, then raw v2 chunks of a 20-byte frame header, 4 bins and a
# 4-byte CRC.
python3 -c '
import sys
path, n = sys.argv[1], int(sys.argv[2])
offset = 40 + 9 * (20 + 4 * n * n * 8 + 4) + 20 + 8
with open(path, "r+b") as f:
    f.seek(offset)
    byte = f.read(1)[0]
    f.seek(offset)
    f.write(bytes([byte ^ 0xFF]))
' "$WORK/tm_r.ictmb" $R_NODES || fail "corrupt r"
"$BIN" client "$WORK/tm_r.ictmb" --connect "$SOCK" --threads 1 --queue 1 \
  --window $WINDOW --session job-r --out "$WORK/first" \
  >"$WORK/first.log" 2>&1
rc=$?
HAVE=$(sed -n 's/.*--resume --have \([0-9]*\) to continue.*/\1/p' \
  "$WORK/first.log")
if [ "$rc" -ne 1 ] || [ -z "$HAVE" ]; then
  cat "$WORK/first.log"
  fail "damaged input: exit $rc, want 1 with a --resume --have N hint"
else
  echo "ok (exit 1, --have $HAVE): client on a damaged ictmb"
  if "$BIN" client "$WORK/tm_r.csv" --connect "$SOCK" --threads 1 \
      --queue 1 --window $WINDOW --session job-r --resume --have "$HAVE" \
      --out "$WORK/second" >"$WORK/second.log" 2>&1; then
    grep -h "resumed from bin" "$WORK/second.log"
  else
    cat "$WORK/second.log"
    fail "resumed client r exited non-zero"
  fi
  # First N frames of the failed run, then the retry's: compared as CSV
  # bodies (a zero-frame ictmb has no CSV form, hence the guard).
  for kind in estimates priors; do
    "$BIN" convert "$WORK/baseline_r/$kind.ictmb" "$WORK/base_$kind.csv" \
      >/dev/null
    "$BIN" convert "$WORK/second/$kind.ictmb" "$WORK/second_$kind.csv" \
      >/dev/null
    : >"$WORK/joined_$kind.csv"
    if [ "$HAVE" -gt 0 ]; then
      "$BIN" convert "$WORK/first/$kind.ictmb" "$WORK/first_$kind.csv" \
        >/dev/null
      tail -n +2 "$WORK/first_$kind.csv" >>"$WORK/joined_$kind.csv"
    fi
    tail -n +2 "$WORK/second_$kind.csv" >>"$WORK/joined_$kind.csv"
    if tail -n +2 "$WORK/base_$kind.csv" |
        cmp -s - "$WORK/joined_$kind.csv"; then
      echo "ok (bit-identical): resumed client r $kind"
    else
      fail "resumed client r: $kind differ from ictm stream"
    fi
  done
fi
SESSIONS=$((${#NAMES[@]} + 2))

# Graceful shutdown with the session/cache accounting line.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=
grep -q "served $SESSIONS session(s)" "$WORK/server.log" ||
  fail "server log lacks 'served $SESSIONS session(s)': $(tail -2 "$WORK/server.log")"

# A stop signal right after the readiness line.  The daemon writes into
# a FIFO so the signal follows the line at once, with no polling delay.
# A non-interactive shell starts background jobs with SIGINT ignored;
# the daemon keeps it blocked, so it is queued all the same.
EARLY_OK=0
for k in $(seq 1 20); do
  sig=TERM
  [ $((k % 2)) -eq 0 ] && sig=INT
  fifo="$WORK/early_$k.fifo"
  mkfifo "$fifo"
  "$BIN" serve --listen "unix:$WORK/early_$k.sock" >"$fifo" 2>&1 &
  SERVER_PID=$!
  exec 3<"$fifo"
  IFS= read -r first <&3
  kill -s "$sig" "$SERVER_PID"
  rest=$(timeout 30 cat <&3) || kill -KILL "$SERVER_PID"
  exec 3<&-
  wait "$SERVER_PID"
  rc=$?
  SERVER_PID=
  if [ "$rc" -ne 0 ] || [ "${first#listening on}" = "$first" ] ||
      ! printf '%s\n' "$rest" | grep -q "^served 0 session(s)"; then
    fail "daemon $k, SIG$sig right after '$first': exit $rc (want 0), output: $rest"
  else
    EARLY_OK=$((EARLY_OK + 1))
  fi
done
[ "$EARLY_OK" -eq 20 ] &&
  echo "ok (exit 0, served line): 20 daemons stopped right after readiness"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES server integration check(s) failed"
  exit 1
fi
echo "all server integration checks passed"
