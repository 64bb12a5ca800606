#!/usr/bin/env python3
"""ictm determinism lint — static enforcement of the repo's correctness
contracts (see docs/ARCHITECTURE.md, "Correctness tooling").

The library guarantees bit-identical estimates for any thread count
and queue capacity.  The dynamic tests can only prove that for the
schedules they happen to see; this lint statically rejects the
constructs that break the contract in ways a lucky schedule hides:

  ICTM-D001  iteration over std::unordered_{map,set} — hash-order
             iteration makes results depend on pointer values / library
             version.  Lookups (find/count/operator[]) stay legal.
  ICTM-D002  wall-clock / ambient-entropy reads (rand, srand, time,
             clock, gettimeofday, std::random_device, *_clock::now,
             clock_gettime) — results must be pure functions of inputs.
             One clock is sanctioned: obs::Now(), allowlisted at its
             single definition site (src/obs/now.cpp).  Stage timings
             go through obs::Span, run-level timings (the scenario
             notes channel) through obs::Now(); neither feeds a result.
  ICTM-D003  float-typed storage in estimation paths (src/core,
             src/linalg, src/server, src/stream, src/timeseries,
             src/traffic) —
             fp32 accumulation changes results across compilers and
             vector widths; accumulate in double.
  ICTM-D004  static mutable locals / globals ("static T x;" without
             const/constexpr/thread_local) — shared mutable state in
             code called from parallel regions is a race and an
             ordering dependence.  One idiom is sanctioned: a static
             reference to a registry-owned obs metric
             ("static obs::Counter& c = obs::GetCounter(...)") — the
             referent is atomic, order-independent (u64 accumulation
             commutes) and never feeds results.
  ICTM-D005  banned C functions (sprintf, strcpy, strcat, gets, atoi,
             atof, atol, strtok, ...) and the std::sto* parsers (stoi,
             stoul, stod, ...), which accept trailing junk and throw
             untyped exceptions — use snprintf and the strict strtod /
             std::from_chars parsers, which reject the whole token.
  ICTM-D006  raw std::ofstream / std::fstream outside
             src/common/output_file.cpp — a raw stream reports success
             after a short write unless its caller flushes, closes and
             checks, and leaves a partial file behind on failure; write
             through ictm::OutputFile, which commits the whole file or
             removes it.

No compiler dependency: pure stdlib regex over comment- and
string-stripped sources, so the gate runs anywhere Python 3 runs.

Usage:
  ictm_lint.py [--root DIR]              # scan DIR/src with the allowlist
  ictm_lint.py [--root DIR] --self-test  # fixtures + clean src/ scan
  ictm_lint.py FILE...                   # scan specific files, no allowlist

Allowlist: tools/lint_allow.txt, one entry per line:
  RULE | path/from/root | line substring | justification
Every entry must match at least one finding — stale entries fail the
run, so the file cannot rot.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

RULES = {
    "ICTM-D001": "iteration over unordered container (hash order is "
                 "nondeterministic); use std::map/std::set or sorted keys",
    "ICTM-D002": "wall-clock / ambient-entropy read in result-producing "
                 "code; route timings through obs::Now / obs::Span",
    "ICTM-D003": "float-typed storage in an estimation path; accumulate "
                 "in double",
    "ICTM-D004": "static mutable local/global; shared mutable state "
                 "breaks thread-count determinism",
    "ICTM-D005": "banned C function or std::sto* parser; use snprintf / "
                 "the strict strtod- or from_chars-based parsers",
    "ICTM-D006": "raw output file stream; write through ictm::OutputFile "
                 "(common/output_file.hpp), which commits the whole file "
                 "or removes it",
}

# The one file allowed to hold an output file stream (ICTM-D006).
OUTPUT_FILE_SOURCE = "src/common/output_file.cpp"

# Directories (relative to the repo root) whose floating-point code is
# part of the estimation contract — ICTM-D003 applies only there.
ESTIMATION_DIRS = (
    "src/core", "src/linalg", "src/server", "src/stream", "src/timeseries",
    "src/traffic",
)

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*[;({=]")
RANGE_FOR = re.compile(r"for\s*\([^;:()]*:\s*\*?(?P<name>[A-Za-z_]\w*)\s*\)")
# `.end()` alone is the find() sentinel compare and stays legal;
# iteration always needs a begin.
BEGIN_CALL = re.compile(
    r"(?P<name>[A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(")

# The lookbehind excludes identifier characters and `.` (member calls
# like parser.time() are project code) but NOT `:`, so both the std::
# and the bare C spellings are caught.
NONDET_CALL = re.compile(
    r"(?:(?<![\w.])(?:rand|srand|drand48|lrand48|time|clock|gettimeofday|"
    r"clock_gettime|timespec_get)\s*\()"
    r"|std::random_device"
    r"|(?:steady|system|high_resolution)_clock\s*::\s*now")

FLOAT_TOKEN = re.compile(r"(?<!\w)float(?!\w)")

STATIC_DECL = re.compile(r"^\s*static\s+(?!const\b|constexpr\b|thread_local\b)")

# Sanctioned D004 idiom: a function-local static reference binding a
# registry-owned metric ("static obs::Counter& c = ...").  The referent
# lives in the obs registry either way; the static merely caches the
# name lookup.  Accumulation is atomic-u64 and commutes, and metrics
# never feed estimation results.
OBS_METRIC_REF = re.compile(
    r"^\s*static\s+(?:ictm::)?obs::(?:Counter|Gauge|Histogram)\s*&")

BANNED_CALL = re.compile(
    r"(?<![\w.])(?:sprintf|vsprintf|strcpy|strncpy|strcat|strncat|gets|"
    r"atoi|atol|atoll|atof|strtok|"
    r"stoi|stol|stoll|stoul|stoull|stof|stod|stold)\s*\(")

OUTPUT_STREAM = re.compile(r"\bstd::(?:basic_|w)?o?fstream\b")


class Finding(NamedTuple):
    path: str       # repo-relative path
    line: int       # 1-based
    rule: str
    text: str       # stripped source line the rule fired on


def strip_comments_and_strings(src: str) -> str:
    """Blanks comments and string/char literal contents, preserving the
    line structure so findings keep their line numbers."""
    out: List[str] = []
    i, n = 0, len(src)
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string literal R"delim( ... )delim"
                if out and out[-1] == "R" and (len(out) < 2 or not out[-2].isalnum()):
                    m = re.match(r'"([^\s()\\]{0,16})\(', src[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        mode = "raw"
                        out.append('"')
                        i += 1
                        continue
                mode = "string"
                out.append('"')
                i += 1
            elif c == "'":
                mode = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"')
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # raw
            if src.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                mode = "code"
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def scan_file(path: str, rel: str, estimation_path: Optional[bool] = None
              ) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read()
    src = strip_comments_and_strings(raw)
    lines = src.split("\n")
    if estimation_path is None:
        norm = rel.replace(os.sep, "/")
        estimation_path = any(norm.startswith(d + "/") or norm == d
                              for d in ESTIMATION_DIRS)

    raw_streams_allowed = rel.replace(os.sep, "/") == OUTPUT_FILE_SOURCE
    findings: List[Finding] = []

    def hit(lineno: int, rule: str) -> None:
        findings.append(Finding(rel, lineno + 1, rule,
                                lines[lineno].strip()))

    # D001: collect unordered-container variable names, then flag
    # iteration over them.  Declarations themselves are legal.
    unordered_names = {m.group("name") for m in UNORDERED_DECL.finditer(src)}
    for idx, line in enumerate(lines):
        if unordered_names:
            for m in RANGE_FOR.finditer(line):
                if m.group("name") in unordered_names:
                    hit(idx, "ICTM-D001")
            for m in BEGIN_CALL.finditer(line):
                if m.group("name") in unordered_names:
                    hit(idx, "ICTM-D001")
        if NONDET_CALL.search(line):
            hit(idx, "ICTM-D002")
        if estimation_path and FLOAT_TOKEN.search(line):
            hit(idx, "ICTM-D003")
        # D004: a static declaration that is not const/constexpr/
        # thread_local and is not a function (heuristic: functions have
        # a parameter list on the declaration line).
        if (STATIC_DECL.search(line) and "(" not in line
                and not OBS_METRIC_REF.search(line)):
            hit(idx, "ICTM-D004")
        if BANNED_CALL.search(line):
            hit(idx, "ICTM-D005")
        if not raw_streams_allowed and OUTPUT_STREAM.search(line):
            hit(idx, "ICTM-D006")
    return findings


class AllowEntry(NamedTuple):
    rule: str
    path: str
    substring: str
    justification: str
    lineno: int


def load_allowlist(path: str) -> List[AllowEntry]:
    entries: List[AllowEntry] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 4 or not all(parts):
                raise SystemExit(
                    f"{path}:{lineno}: malformed allowlist entry — need "
                    "'RULE | path | substring | justification'")
            rule, rel, substring, justification = parts
            if rule not in RULES:
                raise SystemExit(f"{path}:{lineno}: unknown rule {rule}")
            entries.append(AllowEntry(rule, rel, substring, justification,
                                      lineno))
    return entries


def apply_allowlist(findings: List[Finding], entries: List[AllowEntry],
                    allow_path: str) -> Tuple[List[Finding], List[str]]:
    used = [False] * len(entries)
    kept: List[Finding] = []
    for f in findings:
        suppressed = False
        for i, e in enumerate(entries):
            if (e.rule == f.rule and e.path == f.path
                    and e.substring in f.text):
                used[i] = True
                suppressed = True
        if not suppressed:
            kept.append(f)
    stale = [f"{allow_path}:{e.lineno}: stale allowlist entry "
             f"(matches nothing): {e.rule} | {e.path} | {e.substring}"
             for i, e in enumerate(entries) if not used[i]]
    return kept, stale


def collect_sources(root: str) -> List[str]:
    out: List[str] = []
    for base in ("src",):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, base)):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".h")):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def report(findings: List[Finding]) -> None:
    for f in findings:
        print(f"{f.path}:{f.line}: {f.rule}: {RULES[f.rule]}")
        print(f"    {f.text}")


def run_scan(root: str) -> int:
    allow_path = os.path.join(root, "tools", "lint_allow.txt")
    entries = load_allowlist(allow_path)
    findings: List[Finding] = []
    for path in collect_sources(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        findings.extend(scan_file(path, rel))
    findings, stale = apply_allowlist(findings, entries,
                                      os.path.relpath(allow_path, root))
    report(findings)
    for s in stale:
        print(s)
    if findings or stale:
        print(f"ictm_lint: {len(findings)} violation(s), "
              f"{len(stale)} stale allowlist entr(y/ies)")
        return 1
    print("ictm_lint: clean")
    return 0


FIXTURE_RE = re.compile(r"^violate_(d\d{3})_[a-z0-9_]+\.cpp$")
CLEAN_FIXTURE_RE = re.compile(r"^clean_[a-z0-9_]+\.cpp$")
# A violating fixture ends every line that must fire with a
# "// ICTM-DNNN" comment; exactly those lines must fire, so a rule that
# stops matching one spelling fails the self-test.
MARKER_RE = re.compile(r"^\s*[^\s/].*//\s*ICTM-D\d{3}")


def marked_lines(path: str) -> List[int]:
    with open(path, "r", encoding="utf-8") as f:
        return [i for i, line in enumerate(f, 1) if MARKER_RE.search(line)]


def run_self_test(root: str) -> int:
    """Proves every rule is live (each fixture fires exactly its rule on
    exactly its marked lines, the clean fixture fires nothing), then
    requires a clean src/."""
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"ictm_lint: missing fixture dir {fixture_dir}")
        return 1
    failures = 0
    seen_rules = set()
    for name in sorted(os.listdir(fixture_dir)):
        path = os.path.join(fixture_dir, name)
        rel = "tests/lint_fixtures/" + name
        if name == "clean.cpp" or CLEAN_FIXTURE_RE.match(name):
            findings = scan_file(path, rel, estimation_path=True)
            if findings:
                print(f"FAIL {rel}: expected no findings, got:")
                report(findings)
                failures += 1
            else:
                print(f"ok   {rel}: no findings")
            continue
        m = FIXTURE_RE.match(name)
        if not m:
            print(f"FAIL {rel}: unrecognized fixture name "
                  "(want violate_dNNN_<desc>.cpp or clean[_<desc>].cpp)")
            failures += 1
            continue
        expected = "ICTM-" + m.group(1).upper()
        findings = scan_file(path, rel, estimation_path=True)
        fired = {f.rule for f in findings}
        fired_lines = sorted({f.line for f in findings})
        marked = marked_lines(path)
        if not findings:
            print(f"FAIL {rel}: rule {expected} did not fire")
            failures += 1
        elif fired != {expected}:
            print(f"FAIL {rel}: expected only {expected}, got {sorted(fired)}:")
            report(findings)
            failures += 1
        elif fired_lines != marked:
            print(f"FAIL {rel}: {expected} fired on lines {fired_lines}, "
                  f"marked lines are {marked}")
            failures += 1
        else:
            print(f"ok   {rel}: {expected} fired {len(findings)} time(s)")
            seen_rules.add(expected)
    missing = set(RULES) - seen_rules
    if missing:
        print(f"FAIL: rules without a firing fixture: {sorted(missing)}")
        failures += 1
    print()
    status = run_scan(root)
    return 1 if failures else status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify fixtures fire, then scan src/")
    parser.add_argument("files", nargs="*",
                        help="specific files to scan (no allowlist)")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test(args.root)
    if args.files:
        findings: List[Finding] = []
        for path in args.files:
            findings.extend(scan_file(path, path, estimation_path=True))
        report(findings)
        return 1 if findings else 0
    return run_scan(args.root)


if __name__ == "__main__":
    sys.exit(main())
