#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark harness.

Runs every workload in BENCHMARK.json on a tiny input, untraced and
traced, and asserts that each run passes all of its checks and emits
every declared metric with its declared unit.  Run from the repository
root:

  python3 e2ebench/selftest.py

Exit code 0 when every run passed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Tiny inputs: whole segments, so every workload keeps its shape.
TINY_BINS = {"replay_h200": 24, "serve_geant22": 400}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            argv = [sys.executable, "e2ebench/run.py", "--workload", name,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--bins", str(TINY_BINS[name])]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            label = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                print(proc.stdout)
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: checks failed")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(f"{label}: metric names differ from "
                                "BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"] or not isinstance(
                        value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: bad metric {m['name']}: {got}")
                elif not trace and value <= 0:
                    problems.append(f"{label}: {m['name']} is not positive")
            print(f"ok   {label}: {result['attempted']} bins")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
