#!/usr/bin/env bash
# CLI option-validation test, registered with CTest as `cli_usage`.
#
# Contract (docs/CLI.md "Exit codes"): bad option *values* — an
# unknown --codec, a non-numeric --threads — are usage errors: the
# command exits 2 before doing any work and prints a one-line usage
# hint on stderr.  Retired flags and subcommands (--solver, `serve
# --queue`, `topo convert`) are unknown, so they exit 2 too.  The
# printed improvement must have the right sign, a failed `stream`
# run leaves no --out files behind, and a trace bin holding a NaN cell
# stops `stream` naming the bin and the cell, and stops `convert` to
# CSV without leaving a partial CSV.  A file that cannot be written
# completely exits 1 in every subcommand, yet a FIFO, a device or a
# symlink the output named is never unlinked, and an output that
# names the input (or, for --metrics-out and --trace-out, any other
# file of the command) is refused before the input is touched.  A
# command that fails leaves no trace file.
#
# Devices are only ever reached through a symlink in the work dir, and
# a FIFO gets its reader before ictm opens it.
#
# usage: test_cli_usage.sh <path-to-ictm>
set -u

BIN=${1:?usage: test_cli_usage.sh <path-to-ictm>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# expect_usage_error <args...>: exit code 2 + a usage hint on stderr.
# Bounded by `timeout`: a `serve` that accepted its flags would run
# until killed.
expect_usage_error() {
  local err rc
  err=$(timeout 30 "$BIN" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: ictm $* exited $rc (want 2)"
    FAILURES=$((FAILURES + 1))
  elif ! printf '%s' "$err" | grep -qi "usage"; then
    echo "FAIL: ictm $* printed no usage hint: $err"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok (exit 2): ictm $*"
  fi
}

# expect_ok <args...>: exit code 0.
expect_ok() {
  if ! "$BIN" "$@" >/dev/null 2>&1; then
    echo "FAIL: ictm $* exited $? (want 0)"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok (exit 0): ictm $*"
  fi
}

# A tiny TM so estimate/stream have real input to reach flag handling.
expect_ok synthesize "$WORK/tm.csv" 6 3 0.25 1

# --solver is retired: every command that took it now refuses it.
expect_usage_error estimate "$WORK/tm.csv" --solver dense
expect_usage_error stream "$WORK/tm.csv" --solver dense
expect_usage_error run fig2_example --solver dense
expect_usage_error client "$WORK/tm.csv" --connect "unix:$WORK/s.sock" --solver dense

# `topo convert` is retired; `topo gen <spec> --out FILE` writes the
# same bytes.
expect_usage_error topo convert geant22 "$WORK/geant.ictp"

# `serve --queue` is retired: sessions have no output frame queue.
expect_usage_error serve --queue 4 --listen "unix:$WORK/s.sock"

# Non-numeric / out-of-range numeric option values: exit 2.
expect_usage_error estimate "$WORK/tm.csv" ring:6:2 abc
expect_usage_error stream "$WORK/tm.csv" --threads abc
expect_usage_error stream "$WORK/tm.csv" --queue 0
expect_usage_error stream "$WORK/tm.csv" --window -3
expect_usage_error stream "$WORK/tm.csv" --f not-a-number
expect_usage_error run fig2_example --threads abc
expect_usage_error run fig2_example --seed -1
expect_usage_error synthesize "$WORK/x.csv" 6 3 0.25 -1
expect_usage_error synthesize "$WORK/x.csv" 6.9 3
expect_usage_error synthesize "$WORK/x.csv" 6 -3
expect_usage_error synthesize "$WORK/x.csv" abc
expect_usage_error prior "$WORK/tm.csv" abc
expect_usage_error fmeasure abc

# Unknown flags keep exiting 2 (pre-existing contract).
expect_usage_error estimate "$WORK/tm.csv" --frobnicate
expect_usage_error stream "$WORK/tm.csv" --frobnicate

# Unknown --codec values are rejected on every writer surface, and
# repack enforces the same usage contract as the other subcommands.
expect_usage_error stream "$WORK/tm.csv" --codec bogus
expect_usage_error convert "$WORK/tm.csv" "$WORK/tm.ictmb" --codec bogus
expect_usage_error client "$WORK/tm.csv" --connect "unix:$WORK/s.sock" --codec bogus
expect_usage_error repack
expect_usage_error repack "$WORK/tm.ictmb"
expect_usage_error repack "$WORK/in.ictmb" "$WORK/out.ictmb" --codec bogus
expect_usage_error repack "$WORK/in.ictmb" "$WORK/out.ictmb" --chunk abc
expect_usage_error repack "$WORK/in.ictmb" "$WORK/out.ictmb" --threads abc
expect_usage_error repack "$WORK/in.ictmb" "$WORK/out.ictmb" --frobnicate

# The serve/client surfaces enforce the same option contract — in
# particular the `--queue 0` class of bug is a usage error on every
# surface that has a queue.
expect_usage_error serve
expect_usage_error serve --listen "bogus:spec"
expect_usage_error serve --listen "unix:$WORK/s.sock" --cache 0
expect_usage_error serve --listen "unix:$WORK/s.sock" --checkpoint-every 0
expect_usage_error serve --listen "unix:$WORK/s.sock" --frobnicate
expect_usage_error client "$WORK/tm.csv"
expect_usage_error client "$WORK/tm.csv" --connect "bogus:spec"
expect_usage_error client "$WORK/tm.csv" --connect "unix:$WORK/s.sock" --queue 0
expect_usage_error client "$WORK/tm.csv" --connect "unix:$WORK/s.sock" --resume
expect_usage_error client "$WORK/tm.csv" --connect "unix:$WORK/s.sock" --threads abc
expect_usage_error client "$WORK/tm.csv" --connect "unix:$WORK/s.sock" --frobnicate

# The printed improvement is 100·(1 − mean estimate error / mean prior
# error), so its sign is the sign of (prior − estimate).  On this trace
# a mean of per-bin percentages printed a negative improvement for an
# estimate better than its prior.
expect_ok synthesize "$WORK/s50.csv" 50 12 0.25 7
line=$("$BIN" stream "$WORK/s50.csv" --topology hierarchy:50 --seed 1 \
  --threads 1 --window 1 2>/dev/null | grep 'streaming estimate')
read -r est prior pct < <(printf '%s\n' "$line" | sed -E \
  's/.*estimate ([0-9.]+) vs IC prior ([0-9.]+) \(improvement (-?[0-9.]+)%\).*/\1 \2 \3/')
if awk -v e="${est:-x}" -v p="${prior:-x}" -v i="${pct:-x}" \
    'BEGIN { exit !(e ~ /^[0-9.]+$/ && (p - e) * i > 0) }'; then
  echo "ok (sign): $line"
else
  echo "FAIL: improvement sign does not match prior - estimate: $line"
  FAILURES=$((FAILURES + 1))
fi

# A failed `stream --out` run exits 1 and deletes both outputs: a
# sealed partial trace would read back as a complete, shorter one.
# 11 nodes in 8-bin raw chunks: a 40-byte header, then 7768-byte
# frames (20 header bytes, 7744 payload bytes, a 4-byte CRC), so the
# byte flipped below lies inside chunk 2's payload.
expect_ok synthesize "$WORK/s11.csv" 11 40 0.25 3
expect_ok convert "$WORK/s11.csv" "$WORK/s11.ictmb" --chunk 8
offset=$((40 + 2 * 7768 + 20 + 100))
byte=$(od -An -tu1 -j "$offset" -N1 "$WORK/s11.ictmb" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 255)))" |
  dd of="$WORK/s11.ictmb" bs=1 seek="$offset" count=1 conv=notrunc 2>/dev/null
"$BIN" stream "$WORK/s11.ictmb" --out "$WORK/failed" >/dev/null 2>&1
rc=$?
left=$(ls "$WORK/failed" 2>/dev/null | tr '\n' ' ')
if [ "$rc" -eq 1 ] && [ -z "$left" ]; then
  echo "ok (exit 1, no output): ictm stream <damaged> --out DIR"
else
  echo "FAIL: stream over a damaged chunk exited $rc (want 1) and left [$left] (want none)"
  FAILURES=$((FAILURES + 1))
fi

# The reader refuses a bin holding a NaN cell under a valid CRC, as
# the CSV reader does: `ictm stream` exits 1 naming the bin and the
# cell.  Cell 5 of bin 11 (chunk 1, its fourth bin) becomes a NaN and
# the frame's CRC-32 (over codec tag, raw length and payload; zlib's
# polynomial) is re-sealed.
expect_ok convert "$WORK/s11.csv" "$WORK/nan.ictmb" --chunk 8
python3 - "$WORK/nan.ictmb" <<'PY'
import struct, sys, zlib
path = sys.argv[1]
b = bytearray(open(path, "rb").read())
frame = 40 + 7768
payload = frame + 20
cell = payload + (3 * 121 + 5) * 8
b[cell:cell + 8] = struct.pack("<d", float("nan"))
crc = zlib.crc32(bytes(b[frame + 8:payload + 7744]))
b[payload + 7744:payload + 7748] = struct.pack("<I", crc)
open(path, "wb").write(b)
PY
err=$("$BIN" stream "$WORK/nan.ictmb" 2>&1 >/dev/null)
rc=$?
if [ "$rc" -eq 1 ] && printf '%s' "$err" | grep -q "ictmb: bin 11 cell 5 is NaN"; then
  echo "ok (exit 1, names bin and cell): ictm stream <NaN cell>"
else
  echo "FAIL: stream over a NaN cell exited $rc (want 1) with: $err"
  FAILURES=$((FAILURES + 1))
fi

# Converting that trace to CSV stops at bin 11 too.  The CSV header
# already claimed all 40 bins, so the partial CSV must be deleted.
"$BIN" convert "$WORK/nan.ictmb" "$WORK/nan.csv" >/dev/null 2>&1
rc=$?
if [ "$rc" -eq 1 ] && [ ! -e "$WORK/nan.csv" ]; then
  echo "ok (exit 1, no output): ictm convert <NaN cell> out.csv"
else
  echo "FAIL: convert of a NaN cell to CSV exited $rc (want 1) and left $(ls "$WORK/nan.csv" 2>/dev/null || echo nothing) (want nothing)"
  FAILURES=$((FAILURES + 1))
fi

# A failed convert into a FIFO (reader attached) or through a symlink
# exits 1 and leaves the FIFO or the symlink where it was.
mkfifo "$WORK/fifo.csv"
cat "$WORK/fifo.csv" >/dev/null &
reader=$!
timeout 60 "$BIN" convert "$WORK/nan.ictmb" "$WORK/fifo.csv" >/dev/null 2>&1
rc=$?
kill "$reader" 2>/dev/null
wait "$reader" 2>/dev/null
if [ "$rc" -eq 1 ] && [ -p "$WORK/fifo.csv" ]; then
  echo "ok (exit 1, FIFO kept): ictm convert <NaN cell> FIFO"
else
  echo "FAIL: convert of a NaN cell into a FIFO exited $rc (want 1); FIFO $([ -p "$WORK/fifo.csv" ] && echo kept || echo unlinked)"
  FAILURES=$((FAILURES + 1))
fi
echo "user data" > "$WORK/target.csv"
ln -s "$WORK/target.csv" "$WORK/link.csv"
"$BIN" convert "$WORK/nan.ictmb" "$WORK/link.csv" >/dev/null 2>&1
rc=$?
if [ "$rc" -eq 1 ] && [ -L "$WORK/link.csv" ]; then
  echo "ok (exit 1, symlink kept): ictm convert <NaN cell> SYMLINK"
else
  echo "FAIL: convert of a NaN cell through a symlink exited $rc (want 1); symlink $([ -L "$WORK/link.csv" ] && echo kept || echo unlinked)"
  FAILURES=$((FAILURES + 1))
fi

# expect_full_device_error <link> <args...>: the command writes through
# <link>, a symlink to /dev/full, so every flush fails with ENOSPC.  It
# must exit 1, and both the symlink and the device must survive.
expect_full_device_error() {
  local link=$1 rc
  shift
  ln -s /dev/full "$link"
  "$BIN" "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -eq 1 ] && [ -L "$link" ] && [ -c /dev/full ]; then
    echo "ok (exit 1, symlink kept): ictm $*"
  else
    echo "FAIL: ictm $* into a /dev/full symlink exited $rc (want 1); symlink $([ -L "$link" ] && echo kept || echo unlinked)"
    FAILURES=$((FAILURES + 1))
  fi
}

if [ -c /dev/full ] && [ -w /dev/full ]; then
  expect_full_device_error "$WORK/full.csv" synthesize "$WORK/full.csv" 6 3
  mkdir "$WORK/runout"
  expect_full_device_error "$WORK/runout/fig2_example.json" \
    run fig2_example --tiny --out "$WORK/runout"
  expect_full_device_error "$WORK/full-metrics.json" \
    estimate "$WORK/tm.csv" --metrics-out "$WORK/full-metrics.json"
  expect_full_device_error "$WORK/full-trace.json" \
    estimate "$WORK/tm.csv" --trace-out "$WORK/full-trace.json"
  expect_full_device_error "$WORK/full.ictp" \
    topo gen geant22 --out "$WORK/full.ictp"
  # The trace is written last, so a failed metrics write leaves none.
  expect_full_device_error "$WORK/full-metrics2.json" \
    estimate "$WORK/tm.csv" --trace-out "$WORK/unwritten.trace.json" \
    --metrics-out "$WORK/full-metrics2.json"
  if [ -e "$WORK/unwritten.trace.json" ]; then
    echo "FAIL: a failed --metrics-out write left the --trace-out file"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok (no trace file): failed --metrics-out with --trace-out"
  fi
else
  echo "skip: /dev/full is not a writable device"
fi

# expect_input_kept <file> <args...>: an output of the command names
# <file>, one of its inputs or another of its outputs, so it must exit
# 1 before opening anything and leave <file> as it was: the same bytes,
# or still absent.
expect_input_kept() {
  local file=$1 rc kept
  shift
  rm -f "$WORK/saved"
  [ -e "$file" ] && cp "$file" "$WORK/saved"
  "$BIN" "$@" >/dev/null 2>&1
  rc=$?
  if [ -e "$WORK/saved" ]; then
    cmp -s "$file" "$WORK/saved" && kept=yes
  else
    [ -e "$file" ] || kept=yes
  fi
  if [ "$rc" -eq 1 ] && [ -n "${kept:-}" ]; then
    echo "ok (exit 1, $(basename "$file") untouched): ictm $*"
  else
    echo "FAIL: ictm $* exited $rc (want 1) and $([ -e "$WORK/saved" ] && echo changed || echo created) $file"
    FAILURES=$((FAILURES + 1))
  fi
}

expect_ok convert "$WORK/tm.csv" "$WORK/self.ictmb"
expect_input_kept "$WORK/tm.csv" convert "$WORK/tm.csv" "$WORK/tm.csv"
expect_input_kept "$WORK/self.ictmb" \
  convert "$WORK/self.ictmb" "$WORK/self.ictmb"
expect_input_kept "$WORK/self.ictmb" \
  repack "$WORK/self.ictmb" "$WORK/./self.ictmb"
mkdir "$WORK/selfout"
cp "$WORK/self.ictmb" "$WORK/selfout/estimates.ictmb"
expect_input_kept "$WORK/selfout/estimates.ictmb" \
  stream "$WORK/selfout/estimates.ictmb" --out "$WORK/selfout"

# --metrics-out and --trace-out are refused, before anything is read or
# opened, when they name one of the command's inputs (the TM input, a
# topology file), the other of the two, or one of the command's own
# outputs, whether or not that file exists yet.  Each case gets its own
# copy of the file it names.
for copy in obs1.csv obs2.csv; do cp "$WORK/tm.csv" "$WORK/$copy"; done
cp "$WORK/self.ictmb" "$WORK/obs3.ictmb"
expect_input_kept "$WORK/obs1.csv" \
  estimate "$WORK/obs1.csv" --metrics-out "$WORK/obs1.csv"
expect_input_kept "$WORK/obs2.csv" \
  estimate "$WORK/obs2.csv" --trace-out "$WORK/./obs2.csv"
expect_input_kept "$WORK/obs3.ictmb" \
  stream "$WORK/obs3.ictmb" --metrics-out "$WORK/obs3.ictmb"
expect_ok topo gen ring:6:2 --out "$WORK/ring6a.ictp"
expect_ok topo gen ring:6:2 --out "$WORK/ring6b.ictp"
expect_input_kept "$WORK/ring6a.ictp" \
  estimate "$WORK/tm.csv" "$WORK/ring6a.ictp" --trace-out "$WORK/ring6a.ictp"
expect_input_kept "$WORK/ring6b.ictp" \
  stream "$WORK/tm.csv" --topology "$WORK/ring6b.ictp" \
  --metrics-out "$WORK/ring6b.ictp"
expect_input_kept "$WORK/both.json" \
  estimate "$WORK/tm.csv" --trace-out "$WORK/both.json" \
  --metrics-out "$WORK/both.json"
expect_ok stream "$WORK/tm.csv" --out "$WORK/streamout"
expect_input_kept "$WORK/streamout/estimates.ictmb" \
  stream "$WORK/tm.csv" --out "$WORK/streamout" \
  --metrics-out "$WORK/streamout/estimates.ictmb"
mkdir "$WORK/newout"
expect_input_kept "$WORK/newout/priors.ictmb" \
  stream "$WORK/tm.csv" --out "$WORK/newout" \
  --trace-out "$WORK/newout/../newout/priors.ictmb"
expect_input_kept "$WORK/runout2/fig2_example.json" \
  run fig2_example --tiny --out "$WORK/runout2" \
  --metrics-out "$WORK/runout2/fig2_example.json"
expect_ok run fig2_example --tiny --out "$WORK/runout3"
expect_input_kept "$WORK/runout3/manifest.json" \
  run fig2_example --tiny --out "$WORK/runout3" \
  --trace-out "$WORK/runout3/manifest.json"

# A command that fails leaves no trace file.
expect_input_kept "$WORK/failed.trace.json" \
  estimate "$WORK/nosuch.csv" --trace-out "$WORK/failed.trace.json"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI usage check(s) failed"
  exit 1
fi
echo "all CLI usage checks passed"
