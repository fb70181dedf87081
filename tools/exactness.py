#!/usr/bin/env python3
"""Print one digest per algorithm over a wide grid of instances, to show a change moved no answer.

    python3 tools/exactness.py          # print the six digests
    python3 tools/exactness.py --check  # also exit 1 unless they equal PINNED

The instances are the (8, 3) corpus, the fixtures in ``tests/data/hard/``
and a seeded grid: every matroid kind and function kind at (n, rank) =
(16, 5), (30, 8), (60, 12), (48, 24), (120, 12) and (200, 16), seeds 0-2.
Each algorithm solves each instance through ``solve(..., seed=0)`` on a
fresh ``build``.  For each algorithm the script prints the instance count
and one SHA-256 over every run's label, solution, ``float.hex(value)``,
value queries and independence queries, in that order.  Two commits that
print the same six lines gave the same solutions, values and counts on
every instance.  ``PINNED`` holds the lines this script printed when it
was last pinned; with ``--check`` it marks each line that differs and
exits 1 on any difference.  Only a change that means to move an answer or
a count re-pins them, and says so.
"""

from __future__ import annotations

import argparse
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
PINNED = {
    "greedy": "611 fb5221632ce18d99d26c1132b3ef1ab3693d2c923d13696ab51b73ef4b8522bf",
    "split": "611 b2fa92b96db4b86192a552d0d0c88c74d46b50f900adc08782762798dfb7a758",
    "rrgreedy": "611 d76288007aff5e7c9354f77ba6341015a37e5b4c839708b8ff169e693d420cf5",
    "rpgreedy": "611 c28160946c6f88437626719b34b0a871c9c922d89d6c49984ddab7784565b7cd",
    "msg": "611 123abbea86852596fee588012212a4a353cface786e4923591faf3c4732fcc1a",
    "msg-det": "611 b975b5249ebf8a4adad6b6b8d21d8daff1f9915e891b43e2b1ae1dd34a7a82db",
}


def instances():
    yield from enumerate_small_instances(8, 3)
    yield from map(load, sorted((ROOT / "tests" / "data" / "hard").glob("*.json")))
    for matroid_kind in MATROID_KINDS:
        for function_kind in FUNCTION_KINDS:
            for n, rank in SHAPES:
                for seed in SEEDS:
                    yield random_instance(seed, n, matroid_kind, function_kind, rank=rank)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print one digest per algorithm over a wide instance grid.")
    parser.add_argument("--check", action="store_true", help="exit 1 unless every digest equals its pinned one")
    check = parser.parse_args(argv).check
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
    moved = []
    for algorithm, digest in digests.items():
        line = f"{count} {digest.hexdigest()}"
        mark = ""
        if check and line != PINNED[algorithm]:
            moved.append(algorithm)
            mark = f"  MOVED, pinned {PINNED[algorithm]}"
        print(f"{algorithm:8} {line}{mark}")
    if moved:
        print(f"moved: {', '.join(moved)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
