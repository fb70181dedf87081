"""Span tracer for the benchmark's traced runs.

The tracer times calls into the package's layers from outside the
package.  It replaces the module attributes that callers look up at call
time with timing wrappers and puts the originals back afterwards.  For
example, ``split_and_grow_deterministic`` finds ``split`` in the globals
of ``submod.algorithms``, so wrapping ``submod.algorithms.split`` times
every split that the solver makes.  The package source never changes.

Three kinds of wrapper are used:

* span wrappers record one span per call (name, start, end, parent span,
  task id) and charge the call's self time to the layer that defines the
  function;
* leaf wrappers time the oracle boundary (``SetFunction.__call__``,
  ``Matroid.is_independent`` and the root evaluators that ``build``
  returns) without recording a span per call, because a single solve makes
  tens of thousands of them;
* count wrappers only count calls.

The root evaluators are wrapped on the oracle objects themselves:
``marginal_function`` and ``contract`` call the parent's evaluator
directly, so a wrapper on ``SetFunction.__call__`` alone would miss most
of the oracle work.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute) pairs that get a span per call.  The span is named
# after the binding that was called; its self time goes to the layer whose
# module defines the function.
SPAN_BINDINGS = (
    ("algorithms", "solve"),
    ("cli", "check_instance"),
    ("cli", "solve"),
    ("cli", "split"),
    ("cli", "rp_greedy"),
    ("cli", "brute_force_opt"),
    ("cli", "rr_greedy_exact_expectation"),
    ("cli", "split_partition_witness"),
    ("cli", "validate_monotone_submodular"),
    ("cli", "validate_matroid_axioms"),
    ("cli", "bases_within"),
    ("algorithms", "split_and_grow_deterministic"),
    ("algorithms", "split"),
    ("algorithms", "rp_greedy"),
    ("algorithms", "rr_greedy"),
    ("algorithms", "max_weight_perfect_matching"),
    ("testkit", "marginal_table"),
    ("testkit", "max_weight_base"),
)

# (module, attribute, counter) bindings that are only counted.
COUNT_BINDINGS = (
    ("core", "canonical", "core.canonical.calls"),
    ("algorithms", "canonical", "core.canonical.calls"),
    ("testkit", "canonical", "core.canonical.calls"),
    ("algorithms", "marginal_function", "core.marginal_function.calls"),
    ("algorithms", "contract", "core.contract.calls"),
    ("testkit", "contract", "core.contract.calls"),
    ("algorithms", "is_base", "algorithms.is_base.calls"),
    ("algorithms", "max_weight_base", "algorithms.max_weight_base.calls"),
    ("testkit", "max_weight_base", "algorithms.max_weight_base.calls"),
)

PHASES = ("split", "grow_a", "grow_b", "select")

TESTKIT_FUNCTIONS = (
    "brute_force_opt",
    "rr_greedy_exact_expectation",
    "split_partition_witness",
    "validate_monotone_submodular",
    "validate_matroid_axioms",
)

# Per-layer metric units; every value is a mean per traced task unless the
# unit says otherwise.
UNITS = {
    "calls": "count/task",
    "entries": "count/task",
    "edges": "count/task",
    "infeasible": "count/task",
    "bases_enumerated": "count/task",
    "value_queries": "count/task",
    "independence_queries": "count/task",
    "busy_s": "s/task",
    "self_s": "s/task",
    "overhead_s": "s/task",
}


class Tracer:
    """Records spans and per-layer counters while it is installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.count: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.phase: defaultdict = defaultdict(float)
        self.errors: list[str] = []
        self.task: int | None = None
        self._open: list[list] = []  # [span id, start, covered by children]
        self._leaf_depth = 0
        self._msgdet: list[dict] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self._t0 = _clock()
        self._wrappers = self._make_wrappers()

    # -- installation -------------------------------------------------

    def _make_wrappers(self) -> list[tuple]:
        mods = self.modules
        wrapped: dict[tuple, object] = {}

        def wrap(owner, attr, make) -> None:
            key = (owner, attr)
            wrapped[key] = make(wrapped.get(key, getattr(owner, attr)))

        # Spans go on first, so a span always wraps the package function itself.
        for module, attr in SPAN_BINDINGS:
            wrap(mods[module], attr, lambda fn, name=f"{module}.{attr}": self._span(name, fn))
        for module, attr, counter in COUNT_BINDINGS:
            wrap(mods[module], attr, lambda fn, counter=counter: self._counted(counter, fn))
        for module in ("algorithms", "testkit"):
            wrap(mods[module], "marginal_table", self._table_entries)
        wrap(mods["testkit"], "iter_bases", lambda fn: self._yields("testkit.bases_enumerated", fn))
        core = mods["core"]
        wrap(core.SetFunction, "__call__", self._core_leaf)
        wrap(core.Matroid, "is_independent", self._core_leaf)
        wrap(mods["cli"], "build", self._building)
        return [(owner, attr, wrapper) for (owner, attr), wrapper in wrapped.items()]

    def install(self, task: int, oracles: tuple | None = None) -> None:
        """Patch every binding; ``oracles`` are root oracles built outside the package."""
        self.task = task
        for owner, attr, wrapper in self._wrappers:
            self._patch(owner, attr, wrapper)
        if oracles is not None:
            self._wrap_root(*oracles, patch=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.task = None

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_root(self, f, matroid, patch: bool) -> None:
        set_value = self._patch if patch else setattr
        set_value(f, "_evaluate", self._instance_leaf("instances.value", f._evaluate))
        set_value(matroid, "_is_independent", self._instance_leaf("instances.indep", matroid._is_independent))

    # -- wrappers -----------------------------------------------------

    def _span(self, name: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        before, after = self._span_hooks(name)

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, _clock(), 0.0]
            self._open.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if name == "algorithms.max_weight_perfect_matching" and isinstance(
                    exc, self.modules["matching"].InfeasibleMatchingError
                ):
                    self.count["matching.infeasible"] += 1
                raise
            finally:
                end = _clock()
                self._open.pop()
                start = frame[1]
                duration = end - start
                self_s = duration - frame[2]
                if self._open:
                    self._open[-1][2] += duration
                self.layer_self[layer] += self_s
                self.busy[name] += duration
                self.count[name] += 1
                self.spans.append((span_id, name, layer, self.task, parent, start, end, self_s))
                if after:
                    after(state, result, end)

        return wrapper

    def _span_hooks(self, name: str):
        """Extra bookkeeping for the phase and matching metrics: (before, after) hooks."""
        if name == "algorithms.split_and_grow_deterministic":
            return self._msgdet_enter, self._msgdet_exit
        if name in ("algorithms.split", "algorithms.rp_greedy"):
            return None, self._phase_mark
        if name == "algorithms.max_weight_perfect_matching":
            return self._matching_shape, None
        return None, None

    def _counted(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.count[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _table_entries(self, fn):
        def wrapper(*args, **kwargs):
            table = fn(*args, **kwargs)
            self.count["algorithms.marginal_table.entries"] += len(table)
            return table

        return wrapper

    def _yields(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count[counter] += 1
                yield item

        return wrapper

    def _core_leaf(self, fn):
        def wrapper(*args, **kwargs):
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                self._leaf_depth -= 1
                self.busy["core.leaf"] += duration
                if self._open:
                    self._open[-1][2] += duration

        return wrapper

    def _instance_leaf(self, name: str, fn):
        def wrapper(members):
            start = _clock()
            try:
                return fn(members)
            finally:
                duration = _clock() - start
                self.count[name] += 1
                self.busy[name] += duration
                if self._leaf_depth:
                    self.busy["core.leaf.instances"] += duration
                elif self._open:
                    self._open[-1][2] += duration

        return wrapper

    def _building(self, fn):
        def wrapper(*args, **kwargs):
            f, matroid = fn(*args, **kwargs)
            self._wrap_root(f, matroid, patch=False)
            return f, matroid

        return wrapper

    # -- per-phase bookkeeping ------------------------------------------

    def _snapshot(self, frame: dict, when: float) -> tuple:
        return (when, frame["f"].counts.value_queries, frame["m"].counts.independence_queries)

    def _msgdet_enter(self, args):
        f, matroid = args[0], args[1]
        frame = {"f": f, "m": matroid, "n": f.n, "k": matroid.rank}
        frame["marks"] = [self._snapshot(frame, _clock())]
        self._msgdet.append(frame)
        return frame

    def _phase_mark(self, _state, _result, end: float) -> None:
        if self._msgdet:
            frame = self._msgdet[-1]
            frame["marks"].append(self._snapshot(frame, end))

    def _msgdet_exit(self, frame, report, end: float) -> None:
        self._msgdet.pop()
        marks = frame["marks"] + [self._snapshot(frame, end)]
        if report is None:
            return
        if len(marks) != len(PHASES) + 1:
            self.errors.append(f"task {self.task}: msg-det made {len(marks) - 2} phase calls, expected 3")
            return
        totals = [0, 0]
        for phase, (t0, v0, i0), (t1, v1, i1) in zip(PHASES, marks, marks[1:]):
            self.phase[f"{phase}.busy_s"] += t1 - t0
            self.phase[f"{phase}.value_queries"] += v1 - v0
            self.phase[f"{phase}.independence_queries"] += i1 - i0
            totals[0] += v1 - v0
            totals[1] += i1 - i0
        reported = [report.counts.value_queries, report.counts.independence_queries]
        if totals != reported:
            self.errors.append(f"task {self.task}: phase queries sum to {totals}, RunReport says {reported}")
        self.count["msgdet.runs"] += 1
        self.phase["value_fit"] += report.counts.value_queries / (frame["n"] * frame["k"] ** 2)

    def _matching_shape(self, args):
        graph = args[0]
        self.count["matching.edges"] += len(graph.edges)
        self.count["matching.k"] += graph.left_size

    # -- results --------------------------------------------------------

    def metrics(self, tasks: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics as (value, unit), mostly means per traced task."""
        per = 1.0 / max(tasks, 1)
        count, busy = self.count, self.busy
        values: dict[str, float] = {
            "instances.value.calls": count["instances.value"] * per,
            "instances.value.busy_s": busy["instances.value"] * per,
            "instances.indep.calls": count["instances.indep"] * per,
            "instances.indep.busy_s": busy["instances.indep"] * per,
            "core.overhead_s": (busy["core.leaf"] - busy["core.leaf.instances"]) * per,
            "core.canonical.calls": count["core.canonical.calls"] * per,
            "core.marginal_function.calls": count["core.marginal_function.calls"] * per,
            "core.contract.calls": count["core.contract.calls"] * per,
        }
        for phase in PHASES:
            for part in ("busy_s", "value_queries", "independence_queries"):
                values[f"algorithms.{phase}.{part}"] = self.phase[f"{phase}.{part}"] * per
        # rp_greedy makes one is_base call to check its residue; the rest are edge tests.
        rp_calls = count["algorithms.rp_greedy"] + count["cli.rp_greedy"]
        edge_tests = count["algorithms.is_base.calls"] - rp_calls
        values.update(
            {
                "algorithms.marginal_table.entries": count["algorithms.marginal_table.entries"] * per,
                "algorithms.max_weight_base.calls": count["algorithms.max_weight_base.calls"] * per,
                "algorithms.is_base.calls": count["algorithms.is_base.calls"] * per,
                "algorithms.edge_yield": count["matching.edges"] / edge_tests if edge_tests > 0 else 0.0,
                "algorithms.value_fit": self.phase["value_fit"] / count["msgdet.runs"]
                if count["msgdet.runs"]
                else 0.0,
                "algorithms.self_s": self.layer_self["algorithms"] * per,
                "matching.calls": count["algorithms.max_weight_perfect_matching"] * per,
                "matching.busy_s": busy["algorithms.max_weight_perfect_matching"] * per,
                "matching.edges": count["matching.edges"] * per,
                "matching.k.mean": count["matching.k"] / count["algorithms.max_weight_perfect_matching"]
                if count["algorithms.max_weight_perfect_matching"]
                else 0.0,
                "matching.infeasible": count["matching.infeasible"] * per,
            }
        )
        for name in TESTKIT_FUNCTIONS:
            values[f"testkit.{name}.busy_s"] = busy[f"cli.{name}"] * per
            values[f"testkit.{name}.calls"] = count[f"cli.{name}"] * per
        values["testkit.bases_enumerated"] = count["testkit.bases_enumerated"] * per
        values["testkit.self_s"] = self.layer_self["testkit"] * per
        values["cli.check_instance.self_s"] = self.layer_self["cli"] * per
        for name in ("solve", "split", "rp_greedy"):
            values[f"cli.{name}.calls"] = count[f"cli.{name}"] * per
            values[f"cli.{name}.busy_s"] = busy[f"cli.{name}"] * per
        values["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s > 0 else 0.0
        return {name: (value, _unit(name)) for name, value in values.items()}

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer as a share of all traced time."""
        seconds = {
            "instances": self.busy["instances.value"] + self.busy["instances.indep"],
            "core": self.busy["core.leaf"] - self.busy["core.leaf.instances"],
        }
        for layer, self_s in self.layer_self.items():
            seconds[layer] = seconds.get(layer, 0.0) + self_s
        total = sum(seconds.values())
        return {layer: s / total for layer, s in sorted(seconds.items())} if total > 0 else {}

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, layer, task, parent, start, end, self_s in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "layer": layer,
                    "task": task,
                    "parent": parent,
                    "start": start - self._t0,
                    "end": end - self._t0,
                    "self": self_s,
                }
                handle.write(json.dumps(record) + "\n")


def _unit(name: str) -> str:
    if name in ("algorithms.edge_yield", "algorithms.value_fit", "trace.overhead_ratio"):
        return "ratio"
    if name == "matching.k.mean":
        return "count"
    return UNITS[name.rsplit(".", 1)[-1]]
