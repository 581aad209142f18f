"""Quick self-check of the benchmark: one cheap item per workload.

Usage (from the repository root):  python3 perfbench/selfcheck.py

Runs ``run.py --quick`` for every workload in BENCHMARK.json, untraced and
traced, and checks that the result line has exactly the contract's keys,
that every end-to-end (untraced) or per-layer (traced) metric is printed by
name with the unit BENCHMARK.json gives, and that fail_frac is 0.  Exits 1
and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, declared: list[dict]) -> list[str]:
    where = f"{workload} trace={trace}"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"{where}: failed={result.get('failed')} correct={result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    if not any(line.startswith(f"{workload} fail_frac 0 ") for line in lines):
        problems.append(f"{where}: fail_frac is not printed as 0")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        problems.append(f"{where}: metric names/units differ: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, unit in want.items():
        if not any(line.startswith(f"{workload} {name} ") and f" {unit} " in line
                   for line in lines[:-1]):
            problems.append(f"{where}: {name} not printed with unit {unit}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} value {m.get('value')!r} is not a number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems += check_run(workload, trace, declared)
    for problem in problems:
        print(problem)
    print("selfcheck", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
