#!/usr/bin/env python3
"""End-to-end benchmark of the IC-prior estimation pipeline.

Usage (from the repository root):

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--bins B]

Steps, each in its own process:
  1. build   the library, the `ictm` CLI and the harness from source
             (CMake, Release) into .bench_build/e2ebench;
  2. inputs  synthesize the workload's traffic from --seed and write it
             as ictmb (prints the file's SHA-256, so two commits can be
             shown to replay identical bytes);
  3. run     the timed harness; it checks every output and reports the
             end-to-end metrics (--trace 0) or the per-layer metrics of
             a traced run (--trace 1).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
check passed.  --bins overrides the input length (the self-test uses
tiny inputs).  README.md lists the workloads and the metric catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT, where every step runs
HARNESS_TIMEOUT_S = 170


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Runs one step in its own process group, so a timeout also stops
    any daemon the step started."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{os.path.basename(argv[0])} timed out after {timeout:.0f} s")
    return subprocess.CompletedProcess(argv, proc.returncode, out, None)


def build() -> str:
    for need in ("src/stream/online.hpp", "tools/ictm_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} not found: run from a full checkout")
    bdir = os.path.join(BUILD, "e2ebench")
    for argv in (["cmake", "-S", HERE, "-B", bdir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", bdir, "-j", "4"]):
        if subprocess.run(argv, cwd=ROOT, stdout=sys.stderr).returncode:
            die("build failed: " + " ".join(argv))
    return bdir


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(os.path.join(ROOT, path), "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest() -> str:
    """Digest of everything the measured binaries are built from."""
    h = hashlib.sha256()
    paths = ["tools/ictm_cli.cpp"]
    for base in ("src", "e2ebench"):
        for d, _, files in os.walk(os.path.join(ROOT, base)):
            paths += [os.path.relpath(os.path.join(d, f), ROOT)
                      for f in files]
    for p in sorted(paths):
        h.update(p.encode() + b"\0" + sha256(p).encode())
    return h.hexdigest()


def check_cross_run(workload: str, seed: int, bins: str, counters: dict,
                    failures: list[str]) -> None:
    """Deterministic registry counters must repeat exactly across runs of
    the same sources and seed; the first run records them."""
    path = os.path.join(ROOT, BUILD, "deterministic",
                        f"{workload}-{seed}-{bins}.json")
    record = {"sources": source_digest(), "counters": counters}
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
        if previous.get("sources") == record["sources"]:
            for name in sorted(set(previous["counters"]) | set(counters)):
                a = previous["counters"].get(name)
                b = counters.get(name)
                if a != b:
                    failures.append(f"determinism.cross_run: {name} = {b}, "
                                    f"an earlier run had {a}")
            return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bins", type=int, default=None,
                        help="input length override (default: the "
                             "workload's own)")
    parser.add_argument("--segment-bins", type=int, default=None,
                        help="synthesis segment length override (0 = one "
                             "segment)")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build()
    harness = os.path.join(bdir, "e2e_harness")
    bins = (f"{args.bins or 'default'}"
            + ("" if args.segment_bins is None else f"s{args.segment_bins}"))
    inputs = os.path.join(BUILD, "inputs")
    os.makedirs(os.path.join(ROOT, inputs), exist_ok=True)
    trace_in = os.path.join(inputs, f"{args.workload}-{args.seed}-{bins}.ictmb")
    gen = [harness, "gen", "--workload", args.workload, "--seed",
           str(args.seed), "--out", trace_in]
    if args.bins:
        gen += ["--bins", str(args.bins)]
    segment_args = ([] if args.segment_bins is None
                    else ["--segment-bins", str(args.segment_bins)])
    step = run_step(gen + segment_args, HARNESS_TIMEOUT_S)
    if step.returncode:
        die("input generation failed")
    print(step.stdout.strip())
    print(f"input {trace_in} sha256 {sha256(trace_in)}")

    work = os.path.join(BUILD, "work", args.workload)
    step = run_step([harness, "run", "--workload", args.workload,
                     "--input", trace_in, "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--ictm",
                     os.path.join(bdir, "ictm"), "--work", work]
                    + segment_args, HARNESS_TIMEOUT_S)
    lines = step.stdout.strip().splitlines()
    if step.returncode or not lines:
        die(f"harness failed (exit {step.returncode})")
    result = json.loads(lines[-1])

    failures = list(result["check_failures"])
    check_cross_run(args.workload, args.seed, bins, result["deterministic"],
                    failures)
    if args.trace:
        trace_file = os.path.join(work, "trace.json")
        check = subprocess.run([sys.executable, "tools/check_trace.py",
                                trace_file], cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        print(check.stdout.strip())
        if check.returncode:
            failures.append("trace: tools/check_trace.py rejected "
                            + trace_file)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            failures.append(f"metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    extras = {k: v for k, v in measured.items() if k not in metrics}
    for name, value in sorted(extras.items()):
        print(f"  {name:<34} {value:>16.6g}")
    print(f"  {'failed_frac':<34} {failed / max(attempted, 1):>16.6g} "
          f"fraction ({failed} of {attempted} bins)")
    for failure in failures:
        print(f"CHECK FAILED {failure}")

    correct = not failures and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
