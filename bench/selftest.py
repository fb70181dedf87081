#!/usr/bin/env python3
"""Self-test of the benchmark.

Run it from the root of a checkout:

    python3 bench/selftest.py

First it runs every workload at its smallest size on one seed, untraced
and traced, and requires each run to pass its checks and to print exactly
the metrics that BENCHMARK.json names, with their units.  Then it runs the
whole benchmark once at full size on HELD_OUT_SEED, a seed that was not
used while the benchmark was developed.  Exits 0 when every run passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL_SEED = 7
HELD_OUT_SEED = 424242
TIMEOUT_S = 180


def run(spec: dict, workload: str, seed: int, seconds: int, trace: int, size: str) -> tuple[list[str], str]:
    """Run the benchmark command once; return the problems found and a summary."""
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--size", size,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"], ""
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks failed: {lines[-1][:300]}")
    expected = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(expected):
        problems.append(
            f"missing {sorted(set(expected) - set(printed))}, unexpected {sorted(set(printed) - set(expected))}"
        )
    for name, entry in printed.items():
        if name in expected and entry.get("unit") != expected[name]["unit"]:
            problems.append(f"{name} has unit {entry.get('unit')!r}, BENCHMARK.json says {expected[name]['unit']!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name} is not a number: {entry.get('value')!r}")
        elif not trace and entry["value"] == 0:
            problems.append(f"end-to-end metric {name} is 0")
    return problems, " ".join(lines[:-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plan = [(w["name"], SMALL_SEED, 1, trace, "small") for w in spec["workloads"] for trace in (0, 1)]
    plan += [(w["name"], HELD_OUT_SEED, spec["run_seconds"], 0, "full") for w in spec["workloads"]]
    failed = 0
    for workload, seed, seconds, trace, size in plan:
        problems, summary = run(spec, workload, seed, seconds, trace, size)
        status = "FAIL" if problems else "ok"
        print(f"{status} {workload} seed={seed} trace={trace} size={size}: {summary}")
        for problem in problems:
            print(f"    {problem}")
        failed += bool(problems)
    print(f"{len(plan) - failed} of {len(plan)} runs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
