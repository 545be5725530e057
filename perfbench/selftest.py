#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. With ``--corrupt-reference`` every workload must report failures
   (fail_ratio > 0) and exit 1, so the output checks really compare.
2. Two traced runs with one seed must report identical work counts: every
   per-layer metric that is not a time (``*_ms``) or the tracing overhead.
   Both runs must also pass every output check.
Exits 0 when both hold for every workload, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads as W

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run(workload: str, *flags: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def main() -> int:
    ok = True
    for workload in W.WORKLOADS:
        code, res = run(workload, "--seconds", "0.1", "--trace", "0", "--corrupt-reference")
        detected = code == 1 and res.get("failed", 0) > 0 and not res.get("correct", True)
        print(f"{workload}: corrupted reference -> exit {code}, failed {res.get('failed')}"
              f" of {res.get('attempted')}: {'PASS' if detected else 'FAIL'}")
        ok &= detected

        runs = [run(workload, "--seconds", "1", "--trace", "1") for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in res["metrics"].items()
             if not k.endswith("_ms") and k != "trace.overhead_ratio"}
            for _, res in runs
        ]
        clean = all(code == 0 and res["correct"] for code, res in runs)
        same = counts[0] == counts[1]
        print(f"{workload}: two traced runs, {len(counts[0])} counts identical: {same}, "
              f"outputs correct: {clean}: {'PASS' if same and clean else 'FAIL'}")
        ok &= same and clean
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
