#!/usr/bin/env python3
"""Print one digest per algorithm over a wide grid of instances, to show a change moved no answer.

    python3 tools/exactness.py

The instances are the (8, 3) corpus, the fixtures in ``tests/data/hard/``
and a seeded grid: every matroid kind and function kind at (n, rank) =
(16, 5), (30, 8), (60, 12), (48, 24), (120, 12) and (200, 16), seeds 0-2.
Each algorithm solves each instance through ``solve(..., seed=0)`` on a
fresh ``build``.  For each algorithm the script prints the instance count
and one SHA-256 over every run's label, solution, ``float.hex(value)``,
value queries and independence queries, in that order.  Two commits that
print the same six lines gave the same solutions, values and counts on
every instance.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from submod import (  # noqa: E402
    ALGORITHMS,
    FUNCTION_KINDS,
    MATROID_KINDS,
    build,
    enumerate_small_instances,
    load,
    random_instance,
    solve,
)

SHAPES = ((16, 5), (30, 8), (60, 12), (48, 24), (120, 12), (200, 16))
SEEDS = range(3)


def instances():
    yield from enumerate_small_instances(8, 3)
    yield from map(load, sorted((ROOT / "tests" / "data" / "hard").glob("*.json")))
    for matroid_kind in MATROID_KINDS:
        for function_kind in FUNCTION_KINDS:
            for n, rank in SHAPES:
                for seed in SEEDS:
                    yield random_instance(seed, n, matroid_kind, function_kind, rank=rank)


def main() -> int:
    digests = {algorithm: hashlib.sha256() for algorithm in ALGORITHMS}
    count = 0
    for instance in instances():
        count += 1
        for algorithm, digest in digests.items():
            f, m = build(instance)
            report = solve(f, m, algorithm, seed=0)
            record = (instance.label, report.solution, report.value.hex(),
                      report.counts.value_queries, report.counts.independence_queries)
            digest.update(repr(record).encode() + b"\n")
    for algorithm, digest in digests.items():
        print(f"{algorithm:8} {count} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
