"""Smoke test of the benchmark itself, on tiny inputs.

Usage (from the repository root):  python3 perfbench/smoke.py

Runs every workload with and without tracing on the tiny size ladder and
checks that each run answers every query correctly and reports exactly the
metrics BENCHMARK.json names.  Then runs the benchmark in a directory that
holds only BENCHMARK.json and this directory, where it must fail without
printing a result.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench" / "bare"


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode} "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            names = {m["name"] for m in spec[key]}
            if not result["correct"] or result["failed"] or set(result["metrics"]) != names:
                problems.append(f"{workload} trace {trace}: {lines[-1][:300]}")
            print(f"{workload} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, BARE / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    proc = run(BARE, spec["workloads"][0]["name"], 0)
    shutil.rmtree(BARE)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark ran without the program's sources")
    print("without sources: exit", proc.returncode)
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
