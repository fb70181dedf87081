#!/usr/bin/env python3
"""Print two digests per algorithm over a wide grid of instances, to show a change moved no answer.

    python3 tools/exactness.py          # print the twelve digests
    python3 tools/exactness.py --check  # also exit 1 unless they equal PINNED

The instances are the (8, 3) corpus, the fixtures in ``tests/data/hard/``
and a seeded grid: every matroid kind and function kind at (n, rank) =
(16, 5), (30, 8), (60, 12), (48, 24), (120, 12) and (200, 16), seeds 0-2.
Each algorithm solves each instance through ``solve(..., seed=0)`` on a
fresh ``build``.  For each algorithm the script prints two lines, each
with the instance count and one SHA-256 over every run in order: the
``answers`` line over each run's label, solution and ``float.hex(value)``,
and the ``counts`` line over each run's value queries and independence
queries.  Two commits that print the same answers lines gave the same
solutions and values on every instance; the same counts lines, the same
counts.  So a change that only saves queries moves counts lines and
leaves every answers line.  ``PINNED`` holds the lines this script
printed when it was last pinned; with ``--check`` it marks each line that
differs and exits 1 on any difference.  Only a change that means to move
an answer or a count re-pins the lines it moves, and says so.
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
PINNED = {  # algorithm: (answers line, counts line)
    "greedy": (
        "611 afa4f560f28d373ce6ff93c47c55fc87214b437f4a96d2c7489ff4075b0a967c",
        "611 a63b7ce4c6a318fa8b1c2b6972e52576862ff6f6b4fbe61722259e8ac4e130e3",
    ),
    "split": (
        "611 6948b635663e6ada29723a3d158c0c775ec2e649c7c2daff227a7727ddc4d7bb",
        "611 1925910eba9e56e9c145cc9323a30763125ff4b751dd0956b0bb647523e34713",
    ),
    "rrgreedy": (
        "611 951063cea236617af5ba3f8159a6f4859875be160e158c09151820c2f2df1ea5",
        "611 a467a1ac6022540b919a37febf1dbf33964cc2be8028e16f1f6727c3af93ab5a",
    ),
    "rpgreedy": (
        "611 aa9ac0f3ea92c8a2e68275e9c026548ce40d062234dcc4f0b341786a3b873407",
        "611 edaf7b780bd8bafa0e1bd934868f16fd53947bab66416c9b1c7d4561ebd629c8",
    ),
    "msg": (
        "611 fa7091a972aee284fa4799f2b248e7d2f19b85c83386352b02196bf2441ea26f",
        "611 c2bf5fb85b05f02709c5ac0cb7778876c7ac04ef51fdd2dc6aec6183c029bd91",
    ),
    "msg-det": (
        "611 47ebaa26640e3cbac33b8ff2b11203ca4d1c32ba65f9aa3afdcc98e83be01d52",
        "611 ba5974d536945714771dddbd10c12d0ece4af9d2f9dd60e940d405fd23342e80",
    ),
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
    digests = {algorithm: (hashlib.sha256(), hashlib.sha256()) for algorithm in ALGORITHMS}
    count = 0
    for instance in instances():
        count += 1
        for algorithm, (answers, counts) in digests.items():
            f, m = build(instance)
            report = solve(f, m, algorithm, seed=0)
            answers.update(repr((instance.label, report.solution, report.value.hex())).encode() + b"\n")
            counts.update(repr((report.counts.value_queries, report.counts.independence_queries)).encode() + b"\n")
    moved = []
    for algorithm, pair in digests.items():
        for kind, digest, pinned in zip(("answers", "counts"), pair, PINNED[algorithm]):
            line = f"{count} {digest.hexdigest()}"
            mark = ""
            if check and line != pinned:
                moved.append(f"{algorithm} {kind}")
                mark = f"  MOVED, pinned {pinned}"
            print(f"{algorithm:8} {kind:7} {line}{mark}")
    if moved:
        print(f"moved: {', '.join(moved)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
