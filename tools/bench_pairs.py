#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and write one JSON file.

    python3 tools/bench_pairs.py --parent REV --change REV --seed 3131 --seconds 10 \
        --pairs uniform-dense=10,graphic-modular=5 --out BENCH.json

Each commit is exported with ``git archive`` into its own temporary
directory, so only committed files run.  Every run is one process,
``python3 bench/run.py --workload W --seed S --seconds T --trace 0``,
started after the last one ended.  The parent runs first on odd pairs and
the change on even pairs.  The file holds every run's end-to-end metrics
and, per workload and side, the median and quartiles of each metric, and
for each metric the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BETTER = {  # each end-to-end metric's better direction, "lower" or "higher"
    metric["name"]: metric["better"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def export(rev: str, into: Path) -> str:
    """Unpack the tree of ``rev`` into ``into``; return its full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{workload} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    """Per workload: each side's median and quartiles of every metric, and the pairs the change won."""
    result: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {(run["pair"], run["side"]): run["metrics"] for run in mine}
        pairs = sorted({run["pair"] for run in mine})
        entry: dict = {"pairs": len(pairs), "metrics": {}}
        for name in mine[0]["metrics"]:
            stats = {}
            for side in ("parent", "change"):
                values = [by_pair[pair, side][name]["value"] for pair in pairs]
                quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
                q1, median, q3 = quartiles
                stats[side] = {"median": median, "q1": q1, "q3": q3}
            better = {"lower": -1, "higher": 1}.get(BETTER.get(name, ""), 0)
            stats["change_won"] = sum(
                better * (by_pair[pair, "change"][name]["value"] - by_pair[pair, "parent"][name]["value"]) > 0
                for pair in pairs
            )
            entry["metrics"][name] = stats
        result[workload] = entry
    return result



def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", required=True, help="WORKLOAD=PAIRS,... in the order they run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    plan = [(workload, int(count)) for workload, _, count in (item.partition("=") for item in args.pairs.split(","))]

    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        commits = {"parent": export(args.parent, Path(parent_dir)), "change": export(args.change, Path(change_dir))}
        checkouts = {"parent": Path(parent_dir), "change": Path(change_dir)}
        runs = []
        for workload, count in plan:
            for pair in range(1, count + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    report = run_once(checkouts[side], workload, args.seed, args.seconds)
                    runs.append({"workload": workload, "side": side, "pair": pair, "correct": report["correct"],
                                 "attempted": report["attempted"], "failed": report["failed"],
                                 "metrics": report["metrics"]})
                    print(workload, pair, side, f"tasks_per_s={report['metrics']['tasks_per_s']['value']:.2f}",
                          file=sys.stderr)

    document = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": f"one process per run, one after another; {platform.system()}, Python {platform.python_version()}",
        "order": "the workloads in --pairs order; parent first on odd pairs and change first on even pairs",
        "summary": summary(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
