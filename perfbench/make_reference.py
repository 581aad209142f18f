"""Write reference.json: the exact expected output of every benchmark item.

Usage (from the repository root):  python3 perfbench/make_reference.py

Each item is run once and must pass the library's cross-checks before its
exit code, output digest and key integers are recorded.  Regenerate only
when a change to latlab alters its output on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    reference: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        entries = reference.setdefault(workload, {})
        for item in workloads.corpus(workload, workloads.DEFAULT_SEED):
            code, text = workloads.execute(item)
            entry = workloads.record(item, code, text)
            problem = workloads.cross_check(item, code, entry["keys"])
            if problem is not None:
                print(f"{workload} {item.key}: {problem}", file=sys.stderr)
                return 1
            entries[item.key] = entry
            print(f"{workload:9s} {item.key}: exit {code} {entry['sha256'][:16]}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
