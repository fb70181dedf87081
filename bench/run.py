#!/usr/bin/env python3
"""Benchmark of the submod package: msg-det on three instance shapes and the
verification suite.

Run it from the root of a checkout:

    python3 bench/run.py --workload coverage-partition --seed 1 --seconds 25 --trace 0

The benchmark imports ``submod`` from the checkout's ``src`` directory,
builds every input from ``--seed``, and runs one task after another in a
single process (a closed loop with one client) for ``--seconds`` seconds,
never stopping before every instance of the batch has run once.  A task is
one ``solve(f, m, "msg-det")`` call on a solve workload and one full
``check_instance`` on ``verify-suite``.  Every output is checked afterwards
against fresh oracles built from the same instance.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every task runs twice, untraced
and then traced (see ``tracing.py``), and the JSON object holds the
per-layer metrics.  The traced run also writes its spans as JSON lines to
``bench/out/``.  README.md defines every metric.

Exit codes: 0 every check passed; 1 a check failed (the JSON line says
``"correct": false``); 2 bad arguments or the package cannot be imported
from this checkout (no JSON line).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPAN_DIR = BENCH_DIR / "out"

_clock = time.perf_counter

SETUP_REPEATS = 5
# Every reported time is scaled to a machine on which reference() takes
# REFERENCE_S, its median duration on the development machine; see SpeedProbe.
REFERENCE_S = 0.024
PROBE_EVERY_S = 0.25
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples beyond it
GUARANTEE = 0.5008
TOLERANCE = 1e-9
PACKAGE_MODULES = ("core", "instances", "matching", "algorithms", "testkit", "cli")

# Instance shapes.  "small" is the smallest size, used by selftest.py only.
WORKLOADS = {
    "coverage-partition": {
        "matroid": "partition",
        "function": "coverage",
        "full": {"n": 120, "k": 12, "batch": 32},
        "small": {"n": 16, "k": 4, "batch": 2},
    },
    "graphic-modular": {
        "matroid": "graphic",
        "function": "modular",
        "full": {"n": 120, "k": 12, "batch": 32},
        "small": {"n": 16, "k": 4, "batch": 2},
    },
    "uniform-dense": {
        "matroid": "uniform",
        "function": "modular",
        "full": {"n": 48, "k": 24, "batch": 16},
        "small": {"n": 8, "k": 4, "batch": 2},
    },
    "verify-suite": {
        "full": {"max_n": 8, "max_k": 3},
        "small": {"max_n": 4, "max_k": 2},
    },
}


_LOOKUP = {i: (i * 2654435761) % 100003 for i in range(60000)}
_KEYS = [(i * 40503) % 60000 for i in range(20000)]


def reference() -> int:
    """Fixed pure-Python work that times the machine, not the package.

    It builds and sorts small tuples and sets and looks up a dict large
    enough to leave the CPU caches, like the package's own inner loops.  It
    runs with the garbage collector off so that the size of the package's
    heap does not change its duration.
    """
    table: dict[tuple, int] = {}
    total = 0
    gc.disable()
    try:
        for i in range(3000):
            key = tuple(sorted({(i * 7919 + j * 31) % 997 for j in range(6)}))
            table[key] = table.get(key, 0) + len(key)
            total += key[-1] - key[0]
        for k in _KEYS:
            total += _LOOKUP[k] & 7
    finally:
        gc.enable()
    return total


class SpeedProbe:
    """Times reference() between tasks to follow the machine's speed.

    On a shared machine the same solve can take a third longer in one run
    than in another a minute later, while CPU time stays equal to wall
    time, so raw wall times spread too widely to compare two commits.  Each measured
    interval is scaled by REFERENCE_S over the mean of the reference()
    samples taken just before and just after it.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = _clock()
        reference()
        end = _clock()
        self.ends.append(end)
        self.durations.append(end - start)

    def due(self) -> None:
        if not self.ends or _clock() - self.ends[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float) -> float:
        """Scale for an interval that started at ``start``; needs a sample on each side."""
        after = bisect.bisect_right(self.ends, start)
        around = (self.durations[after - 1] + self.durations[after]) / 2.0
        return REFERENCE_S / around


def load_package() -> dict:
    """Import submod afresh from this checkout and return its modules by name."""
    for name in [m for m in sys.modules if m == "submod" or m.startswith("submod.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"submod.{name}") for name in PACKAGE_MODULES}
    origin = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"submod was imported from {origin}, not from this checkout")
    return modules


def prepare(workload: str, shape: dict, seed: int) -> tuple:
    """Import the package, generate the inputs and build the oracles."""
    modules = load_package()
    instances_module = modules["instances"]
    if workload == "verify-suite":
        instances = list(instances_module.enumerate_small_instances(shape["max_n"], shape["max_k"]))
        random.Random(seed).shuffle(instances)
        return modules, instances, None
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    instances = [
        instances_module.random_instance(
            rng.randrange(2**32), shape["n"], spec["matroid"], spec["function"], rank=shape["k"]
        )
        for _ in range(shape["batch"])
    ]
    return modules, instances, [instances_module.build(instance) for instance in instances]


class Runner:
    """Runs one task on one instance and returns everything a check needs."""

    def __init__(self, workload: str, modules: dict, instances: list, oracles: list | None):
        self.suite = workload == "verify-suite"
        self.modules = modules
        self.instances = instances
        self.oracles = oracles
        if self.suite:
            # check_instance builds its own oracles; keep them to read their query counters.
            self.built: list = []
            cli = modules["cli"]
            build = cli.build

            def capture(instance):
                pair = build(instance)
                self.built.append(pair)
                return pair

            cli.build = capture

    def run(self, index: int) -> dict:
        if self.suite:
            self.built.clear()
            rows, violations = self.modules["cli"].check_instance(self.instances[index])
            counts = self.built[0][0].counts
            msgdet = [row for row in rows if row["algorithm"] == "msg-det"]
            return {
                "rows": rows,
                "violations": violations,
                "value": msgdet[0]["value"],
                "opt": msgdet[0]["opt"],
                "value_queries": counts.value_queries,
                "independence_queries": counts.independence_queries,
            }
        f, matroid = self.oracles[index]
        report = self.modules["algorithms"].solve(f, matroid, "msg-det")
        return {
            "solution": report.solution,
            "value": report.value,
            "value_queries": report.counts.value_queries,
            "independence_queries": report.counts.independence_queries,
        }


class Task(NamedTuple):
    index: int  # position of the instance in the batch
    start: float
    seconds: float
    error: str | None  # why the task failed while it ran, if it did


def attempt(runner: Runner, index: int) -> tuple[Task, dict | None]:
    """Run one task; a task that raises is recorded as failed, not fatal."""
    start = _clock()
    try:
        result, error = runner.run(index), None
    except Exception:  # noqa: BLE001 - any exception fails the task
        result, error = None, traceback.format_exc().strip().splitlines()[-1]
    return Task(index, start, _clock() - start, error), result


def reference_optimum(instance) -> float:
    """The exact optimum of a modular instance, or a certified upper bound on a coverage one.

    Computed from the instance document alone, without the package's oracles.
    """
    matroid, function = instance.matroid, instance.function
    if function.kind == "modular":
        weights = function.weights
        if matroid.kind == "uniform":
            return float(sum(sorted(weights, reverse=True)[: matroid.k]))
        if matroid.kind == "graphic":  # Kruskal: a maximum-weight spanning forest
            parent = list(range(matroid.num_vertices))

            def root(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            total = 0.0
            for u in sorted(range(instance.n), key=lambda u: -weights[u]):
                a, b = (root(v) for v in matroid.edges[u])
                if a != b:
                    parent[a] = b
                    total += weights[u]
            return total
    if function.kind == "coverage" and matroid.kind == "partition":
        # Coverage is subadditive: a base is worth at most the best singletons
        # its parts allow, and at most everything any element covers.
        universe = function.universe_weights
        single = [sum(universe[item] for item in set(cover)) for cover in function.covers]
        best = sum(
            sum(sorted((single[u] for u in part), reverse=True)[:cap])
            for part, cap in zip(matroid.parts, matroid.capacities)
        )
        reachable = set().union(*map(set, function.covers))
        return float(min(best, sum(universe[item] for item in reachable)))
    raise ValueError(f"no reference optimum for {matroid.kind}/{function.kind}")


def check_solve(modules: dict, instance, result: dict) -> tuple[list[str], float]:
    """Check one msg-det output on fresh oracles; return problems and value / optimum."""
    f, matroid = modules["instances"].build(instance)
    problems = []
    if not modules["core"].is_base(matroid, result["solution"]):
        problems.append("returned a non-base")
    fresh = f(result["solution"])
    if fresh != result["value"]:
        problems.append(f"reported value {result['value']} but a fresh evaluation gives {fresh}")
    optimum = reference_optimum(instance)
    if result["value"] > optimum + TOLERANCE:
        problems.append(f"value {result['value']} exceeds the optimum {optimum}")
    return problems, result["value"] / optimum


def check_suite(result: dict) -> tuple[list[str], float]:
    """Check one check_instance outcome; return problems and the msg-det ratio."""
    problems = [f"{v['check']}: {v['detail']}" for v in result["violations"]]
    ratio = result["value"] / result["opt"] if result["opt"] > 0 else 1.0
    if ratio < GUARANTEE:
        problems.append(f"msg-det ratio {ratio} below {GUARANTEE}")
    return problems, ratio


def check_records(workload: str, modules: dict, instances: list, run: dict) -> dict:
    """Check every task; return per-task failures and the exact per-batch figures."""
    first = run["first"]
    verdict: dict[int, list[str]] = {}
    ratios = {}
    for index, result in sorted(first.items()):
        if workload == "verify-suite":
            verdict[index], ratios[index] = check_suite(result)
        else:
            verdict[index], ratios[index] = check_solve(modules, instances[index], result)
    failures = []
    for number, task in enumerate(run["records"]):
        if task.error is not None:
            failures.append((number, task.error))
        elif verdict[task.index]:
            failures.append((number, "; ".join(verdict[task.index])))
    batch = [first[index] for index in sorted(first)]
    return {
        "failures": failures,
        "value_queries": sum(r["value_queries"] for r in batch),
        "independence_queries": sum(r["independence_queries"] for r in batch),
        "value_mean": statistics.fmean(r["value"] for r in batch) if batch else 0.0,
        "opt_ratio_min": min(ratios.values()) if ratios else 0.0,
        "violations": sum(len(r.get("violations", ())) for r in batch),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile of ``times`` with TAIL_SAMPLES samples beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[-TAIL_SAMPLES - 1], 100.0 * (len(ordered) - TAIL_SAMPLES) / len(ordered)


def measure(runner: Runner, seconds: float, full_pass: bool, probe: SpeedProbe, tracer=None) -> dict:
    """Run tasks over the batch in order until ``seconds`` have passed.

    Only the first result for each instance is kept; every later run of the
    instance, and with a tracer its traced twin, must reproduce it exactly.
    """
    batch = len(runner.instances)
    first: dict[int, dict] = {}
    records, traced_s = [], []
    totals = {"untraced": [0, 0, 0.0], "traced": [0, 0, 0.0]}  # queries and value sums
    start = _clock()
    number = 0
    while number < 1 or _clock() - start < seconds or (full_pass and number < batch):
        probe.due()
        index = number % batch
        task, result = attempt(runner, index)
        error = task.error
        if result is not None and first.setdefault(index, result) != result:
            error = "differs from an earlier run of the same instance"
        if tracer is not None:
            oracles = None if runner.suite else runner.oracles[index]
            tracer.install(number, oracles)
            try:
                shadow, shadow_result = attempt(runner, index)
            finally:
                tracer.uninstall()
            traced_s.append(shadow.seconds)
            if shadow.error is not None:
                error = error or f"traced run raised {shadow.error}"
            elif shadow_result != result:
                error = error or "traced and untraced runs disagree"
            for label, outcome in (("untraced", result), ("traced", shadow_result)):
                if outcome is not None:
                    sums = totals[label]
                    sums[0] += outcome["value_queries"]
                    sums[1] += outcome["independence_queries"]
                    sums[2] += outcome["value"]
        records.append(task._replace(error=error))
        number += 1
    probe.sample()
    return {"records": records, "first": first, "traced_s": traced_s, "totals": totals}


def timings(setups: list[tuple[float, float]], records: list[Task], ok: int, scale) -> dict:
    """The timing metrics, each interval multiplied by ``scale(its start)``."""
    setup = [seconds * scale(start) for start, seconds in setups]
    times = [task.seconds * scale(task.start) for task in records]
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": statistics.median(setup),
        "tasks_per_s": ok / sum(times),
        "task_s.p50": statistics.median(times),
        "task_s.tail": tail_s,
        "tail_pct": tail_pct,
    }


def end_to_end(
    workload: str, shape: dict, modules: dict, instances: list, setups: list, run: dict, probe: SpeedProbe
) -> tuple:
    records = run["records"]
    checked = check_records(workload, modules, instances, run)
    failed = len({task for task, _problem in checked["failures"]})
    ok = max(len(records) - failed, 0)
    scaled = timings(setups, records, ok, probe.scale)
    raw = timings(setups, records, ok, lambda _start: 1.0)
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "tasks_per_s": (scaled["tasks_per_s"], "1/s"),
        "task_s.p50": (scaled["task_s.p50"], "s"),
        "task_s.tail": (scaled["task_s.tail"], "s"),
        "value_queries": (checked["value_queries"], "count"),
        "independence_queries": (checked["independence_queries"], "count"),
        "value_mean": (checked["value_mean"], "value"),
        "opt_ratio.min": (checked["opt_ratio_min"], "ratio"),
        "ok_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"workload {workload} {shape}: {len(instances)} instances, {len(records)} tasks "
        f"({len(records) / len(instances):.2f} passes)",
        f"task_s.tail is p{scaled['tail_pct']:.1f} of {len(records)} tasks",
        f"reference() median {statistics.median(probe.durations):.6f} s; unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items() if name != "tail_pct"),
    ]
    if workload == "verify-suite":
        lines.append(f"corpus: {len(instances)} instances, {checked['violations']} violations")
    else:
        fit = checked["value_queries"] / (len(instances) * shape["n"] * shape["k"] ** 2)
        lines.append(f"value_queries / (n k^2) per solve: {fit:.4f}")
    return metrics, checked["failures"], lines


def per_layer(workload: str, seed: int, modules: dict, instances: list, run: dict, tracer) -> tuple:
    failures = check_records(workload, modules, instances, run)["failures"]
    totals = run["totals"]
    if totals["traced"][:2] != [tracer.count["instances.value"], tracer.count["instances.indep"]]:
        failures.append((None, "oracle evaluator calls differ from the counted queries"))
    failures.extend((None, error) for error in tracer.errors)
    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(span_path)
    untraced_s = sum(task.seconds for task in run["records"])
    metrics = tracer.metrics(len(run["traced_s"]), sum(run["traced_s"]), untraced_s)
    shares = ", ".join(f"{layer} {share:.1%}" for layer, share in tracer.layer_shares().items())
    lines = [
        f"workload {workload}: {len(run['traced_s'])} traced tasks, tracing overhead "
        f"{metrics['trace.overhead_ratio'][0]:.2f}x",
        f"self-time shares: {shares}",
        "value_queries, independence_queries and value sums over these tasks: "
        f"untraced {totals['untraced']}, traced {totals['traced']}",
        f"{len(tracer.spans)} spans written to {span_path.relative_to(BENCH_DIR.parent)}",
    ]
    return metrics, failures, lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark msg-det and the verification suite.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    shape = WORKLOADS[args.workload][args.size]
    probe = SpeedProbe()
    setups = []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            probe.sample()
            started = _clock()
            modules, instances, oracles = prepare(args.workload, shape, args.seed)
            setups.append((started, _clock() - started))
    except ImportError as exc:
        print(f"error: cannot import submod from {SRC}: {exc}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, modules, instances, oracles)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(modules)
        run = measure(runner, args.seconds, full_pass=False, probe=probe, tracer=tracer)
        metrics, failures, lines = per_layer(args.workload, args.seed, modules, instances, run, tracer)
    else:
        run = measure(runner, args.seconds, full_pass=True, probe=probe)
        metrics, failures, lines = end_to_end(args.workload, shape, modules, instances, setups, run, probe)
    for line in lines:
        print(line)
    for task, problem in failures[:20]:
        print(f"FAILED task {task}: {problem}", file=sys.stderr)
    # A failure that belongs to no single task (task None) counts as one more failed task.
    failed_tasks = {task for task, _problem in failures}
    result = {
        "correct": not failures,
        "attempted": len(run["records"]),
        "failed": min(len(failed_tasks), len(run["records"])),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
