#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny problem sizes (~1 min).

Usage, from the repository root::

    python3 perfbench/smoke.py

Runs every workload untraced and traced at ``--size tiny`` and fails
unless each run exits 0, prints the four-key result line with every
catalogue metric under its unit, and passes its correctness checks.  It
also checks that ``BENCHMARK.json`` is the catalogue's rendering and
that run.py refuses to run, without printing a result, from a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import catalog  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(workload: str, trace: int, errors: list) -> None:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{where}: checks failed {result}\n{proc.stderr}")
    expected = ({n: u for n, u, _ in catalog.PER_LAYER} if trace else
                {n: u for n, u, _, _ in catalog.END_TO_END})
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics/units differ from the catalogue: "
                      f"{sorted(set(got.items()) ^ set(expected.items()))}")
    print(f"ok  {where}: {result['attempted']} checked", flush=True)


def check_bare_directory(errors: list) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("table1_mesh", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("run.py ran without the repro sources: "
                      f"exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print("ok  bare directory refused", flush=True)


def main() -> int:
    errors: list = []
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != catalog.benchmark_json():
        errors.append("BENCHMARK.json differs from perfbench/catalog.py")
    missing = [n for n, _, _ in catalog.PER_LAYER
               if n not in catalog.LAYER_MAP]
    if missing:
        errors.append(f"per-layer metrics without a LAYER_MAP entry: "
                      f"{missing}")
    for workload, _ in catalog.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, errors)
    check_bare_directory(errors)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
