#!/usr/bin/env python3
"""Validates a Chrome trace_event JSON file produced by --trace-out.

Checks (all pure stdlib, so the gate runs anywhere Python 3 runs):
  - the file parses as JSON and is an object with a "traceEvents" list
  - every event is an object carrying name/cat/ph/pid/tid/ts
  - every event is a complete event ('X') with a non-negative
    numeric dur
  - ts/dur are non-negative numbers (fractional microseconds),
    pid/tid non-negative integers
  - at least `--min-events` events are present (default 1), so an
    accidentally-empty trace fails the smoke test that produced it
  - every `--require-name` names at least one event, so a run can
    demand the stages it should have traced

Usage: check_trace.py FILE [--min-events N] [--require-name NAME]...
Exit code 0 when the trace is well-formed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

def check(path: str, min_events: int, required: list[str]) -> int:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: not readable JSON: {e}")
        return 1

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        print(f"{path}: top level must be an object with 'traceEvents'")
        return 1
    events = doc["traceEvents"]
    if not isinstance(events, list):
        print(f"{path}: 'traceEvents' must be a list")
        return 1

    errors = 0

    def bad(i: int, why: str) -> None:
        nonlocal errors
        errors += 1
        if errors <= 10:
            print(f"{path}: traceEvents[{i}]: {why}")

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            bad(i, "event is not an object")
            continue
        for key in ("name", "cat", "ph", "pid", "tid", "ts"):
            if key not in ev:
                bad(i, f"missing '{key}'")
        ph = ev.get("ph")
        if ph != "X":
            bad(i, f"unexpected phase {ph!r} (obs::Span only writes X)")
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            bad(i, f"'X' event needs a non-negative numeric dur, got "
                   f"{dur!r}")
        ts = ev.get("ts")
        if "ts" in ev and (not isinstance(ts, (int, float)) or ts < 0):
            bad(i, f"'ts' must be a non-negative number, got {ts!r}")
        for key in ("pid", "tid"):
            v = ev.get(key)
            if key in ev and (not isinstance(v, int) or v < 0):
                bad(i, f"'{key}' must be a non-negative integer, got {v!r}")

    if len(events) < min_events:
        print(f"{path}: {len(events)} event(s), expected >= {min_events}")
        errors += 1
    names = {ev.get("name") for ev in events if isinstance(ev, dict)}
    for name in required:
        if name not in names:
            print(f"{path}: no event named {name!r}")
            errors += 1

    if errors:
        print(f"{path}: {errors} problem(s)")
        return 1
    print(f"{path}: well-formed ({len(events)} event(s))")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="trace JSON file to validate")
    parser.add_argument("--min-events", type=int, default=1,
                        help="fail unless at least N events are present")
    parser.add_argument("--require-name", action="append", default=[],
                        metavar="NAME",
                        help="fail unless an event is named NAME "
                             "(repeatable)")
    args = parser.parse_args()
    return check(args.file, args.min_events, args.require_name)


if __name__ == "__main__":
    sys.exit(main())
