"""Self-test of the sweep benchmark on tiny configs.

    python3 sweepbench/smoke.py

Runs every workload with --smoke (50-event configs), untraced and traced,
and checks that the last output line is the result object with exactly the
metrics BENCHMARK.json declares, that each metric is also printed by name
with its unit, and that the run is correct. Then copies only BENCHMARK.json
and this directory to a scratch directory and checks that the benchmark
fails there without printing a result. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "sweepbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _check(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {lines[-1][:200]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics {got} != declared {units}")
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in units.items():
        if (name, unit) not in printed:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    return problems


def _check_bare() -> list[str]:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "sweepbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(bare, "indep", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += _check(spec, workload, trace)
    problems += _check_bare()
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
