"""Instance family tests: builders, serialization, generators, validators."""

import itertools
import json
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import submod.instances as instances
from submod import (
    ALGORITHMS,
    DEFAULT_X,
    FUNCTION_KINDS,
    MATROID_KINDS,
    FunctionSpec,
    Instance,
    InstanceFormatError,
    Matroid,
    MatroidSpec,
    SetFunction,
    build,
    canonical,
    cli,
    contract,
    enumerate_small_instances,
    iter_bases,
    load,
    marginal_function,
    random_instance,
    save,
    solve,
    validate_matroid_axioms,
    validate_monotone_submodular,
)
from submod.instances import GROW_MIN_N

TRIANGLE = Instance(
    n=3,
    matroid=MatroidSpec(kind="graphic", num_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
    function=FunctionSpec(kind="coverage", universe_weights=(1, 1, 1), covers=((0, 1), (1, 2), (2,))),
    label="tri",
)

UNIFORM2 = '{"kind":"uniform","k":2}'
MODULAR2 = '{"kind":"modular","weights":[1,2]}'
HUGE = "1" + "0" * 400  # an integer too large for a float


class TestBuild:
    def test_uniform_modular(self):
        f, m = build(
            Instance(
                n=2,
                matroid=MatroidSpec(kind="uniform", k=2),
                function=FunctionSpec(kind="modular", weights=(2, 1)),
            )
        )
        assert f((0, 1)) == 3.0
        assert m.is_independent((0, 1))

    def test_graphic_triangle(self):
        f, m = build(TRIANGLE)
        assert m.rank == 2
        assert not m.is_independent((0, 1, 2))
        for pair in itertools.combinations(range(3), 2):
            assert m.is_independent(pair)

    def test_coverage_union(self):
        covers = ((0, 1), (1, 2), (2,))
        f, _ = build(
            Instance(
                n=3,
                matroid=MatroidSpec(kind="uniform", k=2),
                function=FunctionSpec(kind="coverage", universe_weights=(1, 1, 1), covers=covers),
            )
        )
        assert f((0, 1)) == 3.0
        assert f((0, 2)) == 3.0
        assert f((1, 2)) == 2.0

    def test_weighted_coverage(self):
        f, _ = build(
            Instance(
                n=2,
                matroid=MatroidSpec(kind="uniform", k=1),
                function=FunctionSpec(
                    kind="weighted_coverage", universe_weights=(5, 3), covers=((0,), (0, 1))
                ),
            )
        )
        assert f((0,)) == 5.0
        assert f((1,)) == 8.0

    def test_concave_of_modular(self):
        f, _ = build(
            Instance(
                n=2,
                matroid=MatroidSpec(kind="uniform", k=2),
                function=FunctionSpec(kind="concave_of_modular", weights=(9, 16), exponent=0.5),
            )
        )
        assert f((0,)) == 3.0
        assert f((0, 1)) == 5.0

    def test_self_loop_edge_is_dependent(self):
        _, m = build(
            Instance(
                n=2,
                matroid=MatroidSpec(kind="graphic", num_vertices=2, edges=((0, 0), (0, 1))),
                function=FunctionSpec(kind="modular", weights=(1, 1)),
            )
        )
        assert not m.is_independent((0,))
        assert m.is_independent((1,))
        assert m.rank == 1

    def test_zero_capacity_part_makes_loops(self):
        _, m = build(
            Instance(
                n=3,
                matroid=MatroidSpec(kind="partition", parts=((0,), (1, 2)), capacities=(0, 2)),
                function=FunctionSpec(kind="modular", weights=(1, 1, 1)),
            )
        )
        assert not m.is_independent((0,))
        assert m.rank == 2
        assert list(iter_bases(m)) == [(1, 2)]

    def test_inconsistent_spec_rejected(self):
        bad = Instance(
            n=3,
            matroid=MatroidSpec(kind="partition", parts=((0, 1), (2,)), capacities=(1,)),
            function=FunctionSpec(kind="modular", weights=(1, 1, 1)),
        )
        with pytest.raises(InstanceFormatError, match="capacities"):
            build(bad)

    @pytest.mark.parametrize(
        "function",
        [
            FunctionSpec(kind="modular", weights=(10**400, 1, 0)),
            FunctionSpec(kind="modular", weights=(1e308, 1e308, 0)),
            FunctionSpec(kind="modular", weights=(sys.float_info.max, 0.5, sys.float_info.max)),
            FunctionSpec(kind="concave_of_modular", weights=(1, 10**400, 0), exponent=0.5),
            FunctionSpec(kind="weighted_coverage", universe_weights=(1e308, 1e308), covers=((0,), (1,), (0,))),
            FunctionSpec(kind="weighted_coverage", universe_weights=(2, 10**400), covers=((0,), (0,), (0,))),
        ],
    )
    def test_weight_total_beyond_a_float_rejected(self, function):
        instance = Instance(n=3, matroid=MatroidSpec(kind="uniform", k=2), function=function)
        field = "function.weights" if function.weights else "function.universe_weights"
        with pytest.raises(InstanceFormatError, match=re.escape(f"{field} must sum to a finite float")):
            instance.validate()

    @pytest.mark.parametrize(
        "function",
        [
            FunctionSpec(kind="modular", weights=(1e308, 7e307, 0)),
            FunctionSpec(kind="modular", weights=(sys.float_info.max, 0, 1)),
            FunctionSpec(kind="modular", weights=(2**1000, 2**1000, 1)),
            FunctionSpec(kind="weighted_coverage", universe_weights=(1e308, 7e307), covers=((0,), (1,), (0, 1))),
        ],
    )
    def test_largest_representable_totals_accepted(self, function):
        f, _m = build(Instance(n=3, matroid=MatroidSpec(kind="uniform", k=3), function=function))
        values = [f(subset) for r in range(4) for subset in itertools.combinations(range(3), r)]
        assert all(value != float("inf") for value in values)

    def test_graphic_rank_matches_components(self):
        # two components: a triangle and one disjoint edge
        inst = Instance(
            n=4,
            matroid=MatroidSpec(
                kind="graphic", num_vertices=5, edges=((0, 1), (1, 2), (0, 2), (3, 4))
            ),
            function=FunctionSpec(kind="modular", weights=(1,) * 4),
        )
        _, m = build(inst)
        assert m.rank == 5 - 2
        # cross-check against the largest independent set found by enumeration
        assert max(len(b) for b in iter_bases(m)) == m.rank

    def test_isolated_vertices_cost_nothing(self):
        # One list over 10**6 vertices costs 8 MB; the oracle may span only
        # the three touched vertices, so building it and answering a few
        # hundred queries must peak far below that.
        function = FunctionSpec(kind="modular", weights=(3, 1, 2))
        subsets = [members for size in range(4) for members in itertools.combinations(range(3), size)]
        reports = []
        for matroid in (
            MatroidSpec(kind="graphic", num_vertices=10**6, edges=((500_000, 999_999), (999_999, 7), (7, 500_000))),
            MatroidSpec(kind="graphic", num_vertices=3, edges=((0, 1), (1, 2), (2, 0))),
        ):
            tracemalloc.start()
            try:
                f, m = build(Instance(n=3, matroid=matroid, function=function))
                answers = [m.is_independent(members) for _ in range(50) for members in subsets]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, peak
            report = solve(f, m, "msg-det")
            reports.append((m.rank, answers, report.solution, report.value, report.counts))
        assert reports[0] == reports[1]


def forest_reference(edges, members):
    """No self-loop, and |S| == |V(S)| - components(S), components found by a plain DFS."""
    chosen = [edges[u] for u in members]
    if any(a == b for a, b in chosen):
        return False
    adjacent: dict[int, list[int]] = {}
    for a, b in chosen:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    seen: set[int] = set()
    components = 0
    for start in adjacent:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(chosen) == len(adjacent) - components


def independence_reference(spec, members):
    """Independence read off the spec: at most k ids, no part over its capacity, or a forest of edges."""
    if spec.kind == "uniform":
        return len(members) <= spec.k
    if spec.kind == "partition":
        return all(sum(u in part for u in members) <= cap for part, cap in zip(spec.parts, spec.capacities))
    return forest_reference(spec.edges, members)


def reverse_path(length):
    """A path listed from its far end, closed into a cycle: merges build one deep tree."""
    return tuple((v, v + 1) for v in reversed(range(length))) + ((length, 0),)


SMALL_GRAPHS = {
    "loops-and-parallels": (3, ((0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (0, 2), (2, 1))),
    "isolated-vertices": (9, ((1, 5), (5, 6), (6, 1), (3, 6), (8, 3))),
    "star": (8, tuple((0, v) for v in range(1, 8)) + ((2, 5), (7, 7))),
    "reverse-path": (12, reverse_path(11)),
    "two-components": (7, ((0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (3, 3))),
}


class TestGraphicKernel:
    """The flat union-find oracle against a component count, on every subset."""

    @staticmethod
    def built(num_vertices, edges):
        n = len(edges)
        spec = MatroidSpec(kind="graphic", num_vertices=num_vertices, edges=edges)
        return spec, build(Instance(n=n, matroid=spec, function=FunctionSpec(kind="modular", weights=(1,) * n)))[1]

    @pytest.mark.parametrize("graph", SMALL_GRAPHS.values(), ids=SMALL_GRAPHS.keys())
    def test_independence_matches_reference(self, graph):
        num_vertices, edges = graph
        _, m = self.built(num_vertices, edges)
        for size in range(len(edges) + 1):
            for members in itertools.combinations(range(len(edges)), size):
                assert m.is_independent(members) is forest_reference(edges, members), members

    @pytest.mark.parametrize("graph", SMALL_GRAPHS.values(), ids=SMALL_GRAPHS.keys())
    def test_rank_is_largest_independent_subset(self, graph):
        num_vertices, edges = graph
        spec, m = self.built(num_vertices, edges)
        largest = max(
            size
            for size in range(len(edges) + 1)
            for members in itertools.combinations(range(len(edges)), size)
            if forest_reference(edges, members)
        )
        assert spec.rank(len(edges)) == m.rank == largest

    @pytest.mark.parametrize("graph", SMALL_GRAPHS.values(), ids=SMALL_GRAPHS.keys())
    def test_exchange_hook_matches_reference(self, graph):
        """``exchange`` declines every dependent set, and each ``swap`` is the reference on the swapped set."""
        num_vertices, edges = graph
        _, m = self.built(num_vertices, edges)
        exchange = m._is_independent.exchange
        ids = range(len(edges))
        for size in range(len(edges) + 1):
            for base in itertools.combinations(ids, size):
                swap = exchange(base)
                if not forest_reference(edges, base):
                    assert swap is None, base
                    continue
                assert swap is not None, base
                for add in (None, *(u for u in ids if u not in base)):
                    for drop in (None, *base):
                        swapped = {*base, add} - {drop, None}
                        assert swap(add, drop) is forest_reference(edges, swapped), (base, add, drop)


class TestUniformAndPartitionKernels:
    """The uniform and partition oracles against the spec, on every subset of every enumerated matroid."""

    @pytest.mark.parametrize("kind", ["uniform", "partition"])
    def test_independence_matches_reference(self, kind):
        matroids = {}  # n and catalog label -> one instance of that matroid
        for instance in enumerate_small_instances(8, 3):
            if instance.matroid.kind == kind:
                matroids.setdefault(instance.label.rsplit("-", 1)[0], instance)
        if kind == "partition":
            assert "n8-part02" in matroids  # a zero-capacity part, so element 0 is a loop
        for instance in matroids.values():
            _, m = build(instance)
            for size in range(instance.n + 1):
                for members in itertools.combinations(range(instance.n), size):
                    verdict = independence_reference(instance.matroid, members)
                    assert m.is_independent(members) is verdict, (instance.label, members)


def sum_reference(weights, members):
    """The members' weights added left to right, lowest id first, by one ``sum``.

    ``sum`` rather than a ``+=`` loop: the two agree up to Python 3.11, and
    from 3.12 on ``sum`` compensates float rounding, which the kernel inherits.
    """
    return sum([weights[u] for u in sorted(members)])


class TestModularKernel:
    """Modular and concave-of-modular oracles give the bitwise-same float as the reference."""

    @pytest.mark.parametrize(
        "weights",
        [
            (0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1),
            (1, 0.1, 2, 0.2, 3, 0.3, 0),
            (7, 0, 3, 10, 1, 1, 5),
            (0.3, 0.2, 0.1, 1e-17, 1e17, 0.7, 0.1),
        ],
        ids=["fractional", "mixed", "integer", "far-apart"],
    )
    @pytest.mark.parametrize("kind", ["modular", "concave_of_modular"])
    def test_every_subset_matches_reference(self, kind, weights):
        n = len(weights)
        exponent = 0.5 if kind == "concave_of_modular" else None
        f, _ = build(
            Instance(
                n=n,
                matroid=MatroidSpec(kind="uniform", k=n),
                function=FunctionSpec(kind=kind, weights=weights, exponent=exponent),
            )
        )
        for size in range(n + 1):
            for members in itertools.combinations(range(n), size):
                value = f(members)
                expected = float(sum_reference(weights, members))
                if kind == "concave_of_modular":
                    expected **= exponent
                assert type(value) is float
                assert value == expected, members


INTEGER = (7, 0, 3, 10, 1, 1, 5)
NEAR_2_53 = (2**53, 1, 1, 3, 2**52 - 1, 2**53 - 1, 2)  # exact sums round once, at the end
FRACTIONAL = (0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1)
MIXED = (1, 0.1, 2, 0.2, 3, 0.3, 0)
HOOK_COVERS = ((0, 1), (1, 2), (2, 3, 4), (4,), (), (0, 4), (3, 1))


class TestExtendHook:
    """Where a value kernel offers ``extend``, each entry of ``extend(anchored)(ids, offset)`` is its own float.

    The entry for u is the kernel's float for anchored + (u,), less ``offset``.
    """

    @staticmethod
    def evaluator(kind, weights):
        n = len(HOOK_COVERS)
        if kind in ("coverage", "weighted_coverage"):
            function = FunctionSpec(kind=kind, universe_weights=weights[:5], covers=HOOK_COVERS)
        else:
            exponent = 0.5 if kind == "concave_of_modular" else None
            function = FunctionSpec(kind=kind, weights=weights, exponent=exponent)
        f, _ = build(Instance(n=n, matroid=MatroidSpec(kind="uniform", k=n), function=function))
        return f._evaluate

    @pytest.mark.parametrize(
        "kind, weights",
        [
            pytest.param(kind, weights, id=f"{kind}-{name}")
            for kinds, named in (
                (("modular", "concave_of_modular"), {"integer": INTEGER, "near-2**53": NEAR_2_53}),
                (
                    ("coverage", "weighted_coverage"),
                    {"unit": (1,) * 7, "float-unit": (1.0,) * 7, "integer": INTEGER, "fractional": FRACTIONAL,
                     "mixed": MIXED},
                ),
            )
            for kind in kinds
            for name, weights in named.items()
        ],
    )
    def test_every_entry_is_the_kernel_float(self, kind, weights):
        evaluate = self.evaluator(kind, weights)
        n = len(weights)
        rng = random.Random(f"{kind}-{weights}")
        anchors = [(), tuple(range(n))] + [
            tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))) for _ in range(40)
        ]
        for anchored in anchors:
            marginals = evaluate.extend(anchored)
            row = tuple(rng.sample(range(n), n))
            row += row[:3]  # anchored ids are among these, and the repeats
            for offset in (0, 0.1, evaluate(anchored)):
                table = marginals(row, offset)
                assert list(table) == list(dict.fromkeys(row))
                for u in row:
                    kernel = evaluate(tuple(sorted({*anchored, u}))) - offset
                    assert table[u].hex() == kernel.hex(), (anchored, u, offset)
                assert marginals((), offset) == {}

    @pytest.mark.parametrize("weights", [FRACTIONAL, MIXED, (1.0,) * 7], ids=["fractional", "mixed", "float-ones"])
    @pytest.mark.parametrize("kind", ["modular", "concave_of_modular"])
    def test_no_hook_unless_every_weight_is_an_int(self, kind, weights):
        assert not hasattr(self.evaluator(kind, weights), "extend")


def count_full_rows(call):
    """Return ``call()`` and the number of full rows a kernel answered during it (calls of a ``row``)."""
    rows = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "row" and frame.f_code.co_filename == instances.__file__:
            rows.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, len(rows)


def growing_evaluator(kind, weights, n=GROW_MIN_N + 12, seed=0):
    """A built value kernel on n ids: modular with these weights, or coverage of these item weights."""
    if kind == "modular":
        function = FunctionSpec(kind="modular", weights=weights[:n])
    else:
        rng = random.Random(seed)
        m = len(weights)
        # 0 to 3 items per element, one of them sometimes twice, so covers overlap
        covers = tuple(tuple(rng.choices(range(m), k=rng.randint(0, 3))) for _ in range(n))
        function = FunctionSpec(kind=kind, universe_weights=weights, covers=covers)
    f, _ = build(Instance(n=n, matroid=MatroidSpec(kind="uniform", k=n), function=function))
    return f._evaluate


def as_hex(table):
    return [(u, x.hex()) for u, x in table.items()]


DIGITS = tuple(random.Random(1).randint(0, 9) for _ in range(80))
GROWING = {
    "unit-coverage": ("coverage", (1,) * 40),
    "int-coverage": ("weighted_coverage", DIGITS[:40]),
    "int-modular": ("modular", DIGITS),
    # 60 weights whose total, 2**53 - 1, is the largest that grows
    "near-limit-modular": ("modular", (2**52, 2**51, 2**50) + DIGITS[3:59] + (2**50 - 1 - sum(DIGITS[3:59]),)),
}


def ids_less(*gone):
    """The ids below GROW_MIN_N less ``gone``, in order."""
    return tuple(v for v in range(GROW_MIN_N) if v not in gone)


# Steps after which a grown view's first row cannot be derived, and that row's
# ids; a tuple step asks a row, an id step grows the view by that id.
DECLINED = {
    "no-parent-row": ((ids_less(), 3, 5), ids_less(3, 5)),  # no row asked between two one-id steps
    "absent-id": ((ids_less(7), 7), ids_less(7)),  # the parent's last row never asked about the id
    "repeated-id": (((12, 10, 12), 12), (10, 12)),  # the parent's last row asked for the id twice
}


class TestGrowHook:
    """``grow(u)`` on the rows of an exact kernel: a derived row is bitwise the full row of anchored + (u,)."""

    @pytest.mark.parametrize("name", GROWING)
    def test_derived_entries_are_the_full_rows(self, name):
        evaluate = growing_evaluator(*GROWING[name])
        n = GROW_MIN_N + 12
        rng = random.Random(name)
        for trial in range(6):
            anchored = () if trial == 0 else canonical(rng.sample(range(n), rng.randint(1, 4)))
            ids = tuple(rng.sample(range(n), rng.randint(n // 2, n)))  # any order, anchored ids included
            offset = 0 if trial == 0 else evaluate(anchored)  # a root's row is offset by the int 0
            marginals = evaluate.extend(anchored)
            marginals(ids, offset)
            for _ in range(10):
                u = rng.choice(ids)
                ids = tuple(v for v in ids if v != u)
                anchored = canonical(anchored + (u,))
                offset = evaluate(anchored)
                marginals = marginals.grow(u)
                table, full = count_full_rows(lambda: marginals(ids, offset))
                assert full == 0, "derived"
                assert as_hex(table) == as_hex(evaluate.extend(anchored)(ids, offset))
                assert as_hex(table) == [(v, (evaluate(canonical(anchored + (v,))) - offset).hex()) for v in ids]

    @pytest.mark.parametrize("name", ["unit-coverage", "int-modular"])
    def test_other_rows_are_answered_in_full(self, name):
        evaluate = growing_evaluator(*GROWING[name])
        n = GROW_MIN_N + 12
        ids = tuple(range(n))
        u = 7
        less = ids[:u] + ids[u + 1:]
        right = evaluate((u,))
        asked = {
            "ids less u, reordered": (less[::-1], right),
            "ids less u and another": (less[1:], right),
            "ids with u": (ids, right),
            "ids less u, one repeated": (less + less[:1], right),
        }
        for case, (row, offset) in asked.items():
            marginals = evaluate.extend(())
            marginals(ids, 0)
            grown = marginals.grow(u)
            table, full = count_full_rows(lambda: grown(row, offset))
            assert full == 1, case
            assert as_hex(table) == as_hex(evaluate.extend((u,))(row, offset)), case
            assert grown(less, right) == evaluate.extend((u,))(less, right)  # only the first row may derive

    def test_the_caller_may_change_its_row(self):
        evaluate = growing_evaluator(*GROWING["unit-coverage"])
        ids = tuple(range(GROW_MIN_N + 12))
        marginals = evaluate.extend(())
        marginals(ids, 0).update({v: -1.0 for v in ids if v != 7})  # every entry the grown row keeps
        less = ids[:7] + ids[8:]
        assert marginals.grow(7)(less, evaluate((7,))) == evaluate.extend((7,))(less, evaluate((7,)))

    @pytest.mark.parametrize("case", DECLINED)
    @pytest.mark.parametrize("name", ["unit-coverage", "int-coverage", "int-modular"])
    def test_a_grown_view_without_a_derivable_parent_row_answers_in_full(self, name, case):
        """``derive`` declines, and the grown view's first row is the row a fresh view of its anchor answers."""
        steps, last = DECLINED[case]
        evaluate = growing_evaluator(*GROWING[name], n=GROW_MIN_N)
        view = SetFunction(GROW_MIN_N, evaluate)
        for step in steps:
            if isinstance(step, tuple):
                view.singleton_table(step)
            else:
                view = marginal_function(view, (step,))
        assert view._row is not None  # the view's row function comes from its parent's grow
        fresh = marginal_function(SetFunction(GROW_MIN_N, evaluate), view.anchored)
        answered = []
        for asking in (view, fresh):
            start = asking.counts.value_queries
            table, full = count_full_rows(lambda: asking.singleton_table(last))
            answered.append((asking.counts.value_queries - start, full, as_hex(table)))
        assert answered[0] == answered[1]  # billed alike, answered in full, bitwise equal

    @pytest.mark.parametrize(
        "kind, weights, n",
        [
            pytest.param("concave_of_modular", DIGITS, GROW_MIN_N, id="concave"),
            pytest.param("weighted_coverage", (0.5,) * 40, GROW_MIN_N, id="fractional-coverage"),
            pytest.param("weighted_coverage", (1, 2.0) * 20, GROW_MIN_N, id="mixed-coverage"),
            pytest.param("modular", (2**53 - 1, 1) + (0,) * 58, GROW_MIN_N, id="modular-total-2**53"),
            pytest.param("weighted_coverage", (2**52, 2**52) + (0,) * 38, GROW_MIN_N, id="coverage-total-2**53"),
            pytest.param("coverage", (1,) * 40, GROW_MIN_N - 1, id="unit-coverage-below-GROW_MIN_N"),
            pytest.param("modular", DIGITS, GROW_MIN_N - 1, id="modular-below-GROW_MIN_N"),
        ],
    )
    def test_no_grow_unless_exact_and_large_enough(self, kind, weights, n):
        if kind == "concave_of_modular":
            function = FunctionSpec(kind=kind, weights=weights[:n], exponent=0.5)
            f, _ = build(Instance(n=n, matroid=MatroidSpec(kind="uniform", k=n), function=function))
            evaluate = f._evaluate
        else:
            evaluate = growing_evaluator(kind, weights, n=n)
        marginals = evaluate.extend((1, 2))
        assert not hasattr(marginals, "grow")
        ids = tuple(range(n))
        assert as_hex(marginals(ids, 0.5)) == [(u, (evaluate(canonical((1, 2, u))) - 0.5).hex()) for u in ids]

    def test_exact_kernels_at_the_limits_grow(self):
        assert hasattr(growing_evaluator("coverage", (1,) * 40, n=GROW_MIN_N).extend(()), "grow")
        assert hasattr(growing_evaluator("modular", (2**53 - 2, 1) + (0,) * 58).extend(()), "grow")


def scanning():
    """Whether a ``Matroid.greedy_scan`` is on the call stack: a swap built now answers a scan's offers."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not Matroid.greedy_scan.__code__:
        frame = frame.f_back
    return frame is not None


def guarded_build(instance, asked):
    """``build``, with each kernel hook wrapped to assert the contract ``build``'s docstring states.

    Every row's offset is bitwise the kernel's value of its anchor, every
    ``exchange`` base is canonical, and every ``swap`` adds None or an id
    outside its base and drops None or an id inside it.  ``asked`` counts
    the rows, the ``exchange`` calls and, as ``offer``, the swaps that
    answer a greedy scan.
    """
    f, m = build(instance)
    evaluate, independent = f._evaluate, m._is_independent
    extend, exchange = evaluate.extend, independent.exchange

    def guarded_rows(marginals, anchored):
        def guarded_marginals(ids, offset):
            asked["row"] += 1
            assert float(offset).hex() == evaluate(anchored).hex(), (anchored, offset)
            return marginals(ids, offset)

        if hasattr(marginals, "grow"):
            guarded_marginals.grow = lambda u: guarded_rows(marginals.grow(u), canonical(anchored + (u,)))
        return guarded_marginals

    def guarded_exchange(base):
        asked["exchange"] += 1
        assert base == canonical(base), base
        swap = exchange(base)
        if swap is None:
            return None
        offers = scanning()

        def guarded_swap(add, drop):
            asked["offer"] += offers
            assert add is None or add not in base, (base, add)
            assert drop is None or drop in base, (base, drop)
            return swap(add, drop)

        return guarded_swap

    evaluate.extend = lambda anchored: guarded_rows(extend(anchored), anchored)
    independent.exchange = guarded_exchange
    return f, m


class TestHookContract:
    """Core asks ``build``'s hooks only within their narrowed contract.

    The hooks answer no offset other than the anchor's value and no swap
    that adds a member or drops a non-member, and they decline a dependent
    exchange base; core's checks and per-call forms keep such inputs away.
    If core ever asks outside the contract, these runs fail.
    """

    @pytest.mark.parametrize("function_kind", FUNCTION_KINDS)
    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_every_algorithm_asks_within_the_contract(self, matroid_kind, function_kind):
        instance = random_instance(5, GROW_MIN_N, matroid_kind, function_kind, rank=6)
        asked = Counter()
        f, m = guarded_build(instance, asked)
        plain_f, plain_m = build(instance)
        for algorithm in ALGORITHMS:
            report = solve(f, m, algorithm, x=DEFAULT_X, seed=0)
            plain = solve(plain_f, plain_m, algorithm, x=DEFAULT_X, seed=0)
            assert (report.solution, report.value, report.counts) == (plain.solution, plain.value, plain.counts)
        assert asked["row"] and asked["exchange"] and asked["offer"], asked

    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_the_primitives_ask_within_the_contract_down_to_rank_0(self, matroid_kind):
        instance = random_instance(5, GROW_MIN_N, matroid_kind, "coverage", rank=6)
        asked = Counter()
        f, m = guarded_build(instance, asked)
        plain_f, plain_m = build(instance)
        base = m.greedy_scan(m.ground)
        assert base == plain_m.greedy_scan(plain_m.ground)
        for i in range(len(base) + 1):  # the last contraction leaves rank 0
            anchored = base[:i]
            view, plain = contract(m, anchored), contract(plain_m, anchored)
            order = view.ground[::-1]
            kept = view.greedy_scan(order)
            assert kept == plain.greedy_scan(order) and len(kept) == view.rank
            test, plain_test = view.exchange_test(kept), plain.exchange_test(kept)
            assert [test(u, v) for u in order for v in (None, *kept)] == [
                plain_test(u, v) for u in order for v in (None, *kept)
            ]
            row = marginal_function(f, anchored).singleton_table(order)
            assert as_hex(row) == as_hex(marginal_function(plain_f, anchored).singleton_table(order))
        assert f.counts == plain_f.counts
        assert asked["row"] and asked["exchange"] and asked["offer"], asked

    def test_check_instance_asks_within_the_contract(self, monkeypatch):
        asked = Counter()
        monkeypatch.setattr(cli, "build", lambda instance: guarded_build(instance, asked))
        for instance in itertools.islice(enumerate_small_instances(8, 3), 0, None, 8):
            _, violations = cli.check_instance(instance)
            assert violations == [], instance.label
        assert asked["row"] and asked["exchange"] and asked["offer"], asked

def coverage_reference(universe_weights, covers, members):
    """Add the weight of every covered item, lowest item first."""
    total = 0.0
    for item in sorted(set().union(*(covers[u] for u in members))):
        total += universe_weights[item]
    return total


class TestCoverageEvaluator:
    """The coverage oracle must give the bitwise-same float as the reference."""

    @staticmethod
    def check_every_subset(universe_weights, covers):
        n = len(covers)
        f, _ = build(
            Instance(
                n=n,
                matroid=MatroidSpec(kind="uniform", k=n),
                function=FunctionSpec(
                    kind="weighted_coverage", universe_weights=universe_weights, covers=covers
                ),
            )
        )
        for size in range(n + 1):
            for members in itertools.combinations(range(n), size):
                value = f(members)
                assert type(value) is float
                assert value == coverage_reference(universe_weights, covers, members), members
        return f

    COVERS = ((0, 1), (1, 2), (2, 3, 4), (4,), ())

    @pytest.mark.parametrize(
        "universe_weights",
        [
            (1, 1, 1, 1, 1),
            (1.0, 1.0, 1.0, 1.0, 1.0),
            (1, 1.0, 1, 1.0, 1),
            (5, 3, 0, 7, 2),
            (2, 2, 2, 2, 2),
            (0.1, 0.2, 0.3, 0.7, 1e-17),
        ],
        ids=["unit-int", "unit-float", "unit-mixed", "integer", "constant-2", "fractional"],
    )
    def test_matches_reference(self, universe_weights):
        self.check_every_subset(universe_weights, self.COVERS)

    def test_fractional_sum_keeps_ascending_order(self):
        f = self.check_every_subset((0.1, 0.2, 0.3), ((2,), (0,), (1,)))
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        assert f((0, 1, 2)) == 0.1 + 0.2 + 0.3

    def test_constant_weight_other_than_one_is_summed(self):
        # Ten additions of 0.1 are not 10 * 0.1, so the count shortcut
        # must be reserved for weights equal to 1.
        f = self.check_every_subset((0.1,) * 10, (tuple(range(5)), tuple(range(5, 10))))
        assert f((0, 1)) == sum([0.1] * 10) != 10 * 0.1

    @pytest.mark.parametrize(
        "universe_weights",
        [(1,) * 140, tuple(0.1 * (1 + item % 7) for item in range(140))],
        ids=["unit", "fractional"],
    )
    def test_items_above_bit_63(self, universe_weights):
        covers = ((0, 63, 64), (64, 65, 129), (130, 139), (1, 127, 128, 139), (70,), ())
        self.check_every_subset(universe_weights, covers)

    @pytest.mark.parametrize("universe_weights", [(1, 1, 1), (0.25, 3, 0.1)])
    def test_repeated_id_in_a_cover_counts_once(self, universe_weights):
        self.check_every_subset(universe_weights, ((0, 0, 2, 0), (2, 1, 1)))

    @pytest.mark.parametrize("universe_weights", [(1, 1), (1.5, 2)])
    def test_empty_set_is_float_zero(self, universe_weights):
        f = self.check_every_subset(universe_weights, ((0,), (0, 1)))
        value = f(())
        assert value == 0.0 and type(value) is float


class TestSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tri.json"
        save(TRIANGLE, path)
        assert load(path) == TRIANGLE

    def test_round_trip_partition(self, tmp_path):
        inst = Instance(
            n=4,
            matroid=MatroidSpec(kind="partition", parts=((0, 1), (2, 3)), capacities=(1, 2)),
            function=FunctionSpec(kind="concave_of_modular", weights=(1, 2, 3, 4), exponent=0.5),
            label="p",
        )
        path = tmp_path / "p.json"
        save(inst, path)
        assert load(path) == inst

    def test_documented_wire_format(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(
            '{"n":3,"label":"tri","matroid":{"kind":"graphic","num_vertices":3,'
            '"edges":[[0,1],[1,2],[0,2]]},"function":{"kind":"coverage",'
            '"universe_weights":[1,1,1],"covers":[[0,1],[1,2],[2]]}}'
        )
        assert load(path) == TRIANGLE

    def test_empty_covers_is_the_zero_function(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(
            '{"n":2,"matroid":{"kind":"uniform","k":1},'
            '"function":{"kind":"coverage","universe_weights":[1],"covers":[[],[]]}}'
        )
        f, _ = build(load(path))
        assert f((0, 1)) == 0.0

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n":1,"matroid":{"kind":"laminar"},"function":{"kind":"modular","weights":[1]}}')
        with pytest.raises(InstanceFormatError, match="laminar"):
            load(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,\n  "matroid": }')
        with pytest.raises(InstanceFormatError, match="line 2"):
            load(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"n":2,"matroid":{"kind":"uniform"},"function":{"kind":"modular","weights":[1,1]}}')
        with pytest.raises(InstanceFormatError, match="matroid.k"):
            load(path)

    @pytest.mark.parametrize(
        "matroid, function, field",
        [
            pytest.param('{"kind":"uniform","k":1.5}', MODULAR2, "matroid.k", id="float-k"),
            pytest.param('{"kind":"uniform","k":true}', MODULAR2, "matroid.k", id="bool-k"),
            pytest.param(UNIFORM2, '{"kind":"modular","weights":[1,NaN]}', "function.weights", id="nan-weight"),
            pytest.param(UNIFORM2, '{"kind":"modular","weights":[1,"a"]}', "function.weights", id="str-weight"),
            pytest.param(UNIFORM2, '{"kind":"modular","weights":[1,false]}', "function.weights", id="bool-weight"),
            pytest.param(UNIFORM2, '{"kind":"modular","weights":5}', "function.weights", id="scalar-weights"),
            pytest.param(
                UNIFORM2,
                '{"kind":"concave_of_modular","weights":[1,2],"exponent":"0.5"}',
                "function.exponent",
                id="str-exponent",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[0],[1]],"capacities":[1.0,1]}',
                MODULAR2,
                "matroid.capacities",
                id="float-capacity",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[0],[1.0]],"capacities":[1,1]}',
                MODULAR2,
                "matroid.parts",
                id="float-part-element",
            ),
            pytest.param(
                '{"kind":"partition","parts":[0,1],"capacities":[1,1]}', MODULAR2, "matroid.parts", id="flat-parts"
            ),
            pytest.param(
                '{"kind":"graphic","num_vertices":"3","edges":[[0,1],[1,2]]}',
                MODULAR2,
                "matroid.num_vertices",
                id="str-num-vertices",
            ),
            pytest.param(
                '{"kind":"graphic","num_vertices":3,"edges":[[0,true],[1,2]]}',
                MODULAR2,
                "matroid.edges",
                id="bool-vertex",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"coverage","universe_weights":[1,Infinity],"covers":[[0],[1]]}',
                "function.universe_weights",
                id="inf-universe-weight",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"coverage","universe_weights":[1,1],"covers":[[0],[0.0]]}',
                "function.covers",
                id="float-cover-item",
            ),
            pytest.param("[]", MODULAR2, "matroid must be a JSON object", id="list-matroid"),
        ],
    )
    def test_wrongly_typed_field_rejected(self, tmp_path, matroid, function, field):
        path = tmp_path / "typed.json"
        path.write_text(f'{{"n":2,"matroid":{matroid},"function":{function}}}')
        with pytest.raises(InstanceFormatError, match=field):
            load(path)

    # One document per rule that well-typed fields can still break; each
    # message names the field and tells the rules apart.
    @pytest.mark.parametrize(
        "matroid, function, message",
        [
            pytest.param(
                '{"kind":"partition","parts":[[0,1],[]],"capacities":[1,0]}',
                MODULAR2,
                "matroid.parts[1] is empty",
                id="empty-part",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[0],[2]],"capacities":[1,1]}',
                MODULAR2,
                "matroid.parts[1] contains out-of-range element 2",
                id="out-of-range-part-element",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[0,1],[1]],"capacities":[1,1]}',
                MODULAR2,
                "matroid.parts lists element 1 in two parts",
                id="element-in-two-parts",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[1]],"capacities":[1]}',
                MODULAR2,
                "matroid.parts must cover every element exactly once",
                id="parts-miss-an-element",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[0],[1]],"capacities":[1,2]}',
                MODULAR2,
                "matroid.capacities[1]=2 outside [0, 1]",
                id="capacity-above-part-size",
            ),
            pytest.param(
                '{"kind":"partition","parts":[[0],[1]],"capacities":[0,0]}',
                MODULAR2,
                "matroid.capacities must sum to at least 1",
                id="zero-total-capacity",
            ),
            pytest.param(
                '{"kind":"graphic","num_vertices":3,"edges":[[0,1]]}',
                MODULAR2,
                "matroid.edges must list 2 edges, got 1",
                id="edge-count",
            ),
            pytest.param(
                '{"kind":"graphic","num_vertices":3,"edges":[[0,1],[1,3]]}',
                MODULAR2,
                "matroid.edges[1]=(1, 3) is not a valid vertex pair",
                id="vertex-out-of-range",
            ),
            pytest.param(
                '{"kind":"graphic","num_vertices":3,"edges":[[0,1,2],[1,2]]}',
                MODULAR2,
                "matroid.edges[0]=(0, 1, 2) is not a valid vertex pair",
                id="edge-of-three-vertices",
            ),
            pytest.param(
                '{"kind":"graphic","num_vertices":2,"edges":[[0,0],[1,1]]}',
                MODULAR2,
                "matroid.edges must hold an edge that is not a self-loop",
                id="only-self-loops",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"modular","weights":[1]}',
                "function.weights must list 2 values, got 1",
                id="weight-count",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"coverage","universe_weights":[1,1],"covers":[[0]]}',
                "function.covers must list 2 subsets, got 1",
                id="cover-count",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"modular","weights":[1,-1]}',
                "function.weights must be non-negative",
                id="negative-weight",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"weighted_coverage","universe_weights":[2,-1],"covers":[[0],[1]]}',
                "function.universe_weights must be non-negative",
                id="negative-universe-weight",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"coverage","universe_weights":[1,1],"covers":[[0],[0,2]]}',
                "function.covers[1] references unknown universe item 2",
                id="unknown-universe-item",
            ),
            pytest.param(
                UNIFORM2,
                f'{{"kind":"modular","weights":[{HUGE},1]}}',
                "function.weights must sum to a finite float",
                id="int-weight-too-large",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"modular","weights":[1e308,1e308]}',
                "function.weights must sum to a finite float",
                id="weight-total-overflows",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"concave_of_modular","weights":[1e308,1e308],"exponent":0.5}',
                "function.weights must sum to a finite float",
                id="concave-weight-total-overflows",
            ),
            pytest.param(
                UNIFORM2,
                f'{{"kind":"coverage","universe_weights":[1,{HUGE}],"covers":[[0],[1]]}}',
                "function.universe_weights must sum to a finite float",
                id="int-universe-weight-too-large",
            ),
            pytest.param(
                UNIFORM2,
                '{"kind":"weighted_coverage","universe_weights":[1e308,1e308],"covers":[[0],[1]]}',
                "function.universe_weights must sum to a finite float",
                id="universe-weight-total-overflows",
            ),
        ],
    )
    def test_inconsistent_field_rejected(self, tmp_path, matroid, function, message):
        path = tmp_path / "rule.json"
        path.write_text(f'{{"n":2,"matroid":{matroid},"function":{function}}}')
        with pytest.raises(InstanceFormatError, match=re.escape(message)):
            load(path)


MATROID_KIND_NAMES = ("uniform", "partition", "graphic")
FUNCTION_KIND_NAMES = ("modular", "coverage", "weighted_coverage", "concave_of_modular")

DOCUMENT_SETTINGS = settings(
    max_examples=15,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

WEIGHTS = st.one_of(
    st.integers(0, 10), st.floats(0, 10, allow_nan=False, allow_infinity=False)
)


@st.composite
def valid_instances(draw, matroid_kind, function_kind):
    n = draw(st.integers(1, 5))
    if matroid_kind == "uniform":
        matroid = MatroidSpec(kind="uniform", k=draw(st.integers(1, n)))
    elif matroid_kind == "partition":
        group_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        parts = tuple(
            tuple(u for u in range(n) if group_of[u] == g) for g in sorted(set(group_of))
        )
        # the first part has positive capacity, so the rank is at least 1
        capacities = tuple(
            draw(st.integers(1 if i == 0 else 0, len(part))) for i, part in enumerate(parts)
        )
        matroid = MatroidSpec(kind="partition", parts=parts, capacities=capacities)
    else:
        num_vertices = draw(st.integers(2, 4))
        vertex = st.integers(0, num_vertices - 1)
        first = draw(st.tuples(vertex, vertex).filter(lambda edge: edge[0] != edge[1]))
        rest = draw(st.lists(st.tuples(vertex, vertex), min_size=n - 1, max_size=n - 1))
        matroid = MatroidSpec(kind="graphic", num_vertices=num_vertices, edges=(first, *rest))
    if function_kind in ("modular", "concave_of_modular"):
        weights = tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
        exponent = None
        if function_kind == "concave_of_modular":
            exponent = draw(st.one_of(st.just(1), st.floats(0, 1, exclude_min=True)))
        function = FunctionSpec(kind=function_kind, weights=weights, exponent=exponent)
    else:
        m = draw(st.integers(0, 4))
        cover = st.lists(st.integers(0, m - 1), max_size=3) if m else st.just([])
        function = FunctionSpec(
            kind=function_kind,
            universe_weights=tuple(draw(st.lists(WEIGHTS, min_size=m, max_size=m))),
            covers=tuple(tuple(draw(cover)) for _ in range(n)),
        )
    instance = Instance(n=n, matroid=matroid, function=function, label=draw(st.text(max_size=6)))
    instance.validate()
    return instance


# The type a valid document holds at each position, by field name.
LEAF_TYPE = {
    "k": "int",
    "num_vertices": "int",
    "capacities": "int",
    "parts": "int",
    "edges": "int",
    "covers": "int",
    "weights": "real",
    "universe_weights": "real",
    "exponent": "real",
}
MISSING = object()
WRONG_VALUES = {
    "int": [MISSING, None, True, "1", 1.5, float("nan"), float("inf"), {}, []],
    "real": [MISSING, None, False, "1", float("nan"), float("inf"), float("-inf"), {}, []],
    "list": [MISSING, None, True, "x", 1.5, 3, float("nan"), {}],
    "object": [MISSING, None, True, "x", 1.5, []],
    "kind": [MISSING, None, False, 3, [], {}, "laminar"],
    "label": [None, True, 1.5, 3, [], {}],  # a missing label means ""
}


def document_slots(doc):
    """Every (container, key, expected type) position of a valid document."""
    yield doc, "n", "int"
    yield doc, "label", "label"
    for spec in ("matroid", "function"):
        yield doc, spec, "object"
        yield doc[spec], "kind", "kind"
        for field, value in doc[spec].items():
            if field == "kind":
                continue
            leaf = LEAF_TYPE[field]
            if not isinstance(value, list):
                yield doc[spec], field, leaf
                continue
            yield doc[spec], field, "list"
            for i, entry in enumerate(value):
                if isinstance(entry, list):
                    yield value, i, "list"
                    for j in range(len(entry)):
                        yield entry, j, leaf
                else:
                    yield value, i, leaf


@pytest.mark.parametrize("function_kind", FUNCTION_KIND_NAMES)
@pytest.mark.parametrize("matroid_kind", MATROID_KIND_NAMES)
class TestInstanceDocument:
    """Properties of the instance file format over every matroid x function kind."""

    @DOCUMENT_SETTINGS
    @given(data=st.data())
    def test_save_load_round_trip(self, tmp_path, matroid_kind, function_kind, data):
        instance = data.draw(valid_instances(matroid_kind, function_kind))
        path = tmp_path / "inst.json"
        save(instance, path)
        text = path.read_bytes()
        loaded = load(path)
        assert loaded == instance
        save(loaded, path)
        assert path.read_bytes() == text

    def test_one_wrong_field_is_a_format_error(self, tmp_path, matroid_kind, function_kind):
        path = tmp_path / "inst.json"
        accepted = []
        for seed, n, rank in ((0, 3, 2), (1, 5, 3)):
            save(random_instance(seed, n, matroid_kind, function_kind, rank=rank), path)
            text = path.read_text()
            for index, (container, key, expected) in enumerate(document_slots(json.loads(text))):
                for value in WRONG_VALUES[expected]:
                    if value is MISSING and not isinstance(container, dict):
                        continue
                    doc = json.loads(text)
                    target = list(document_slots(doc))[index][0]  # the same slot in a fresh copy
                    if value is MISSING:
                        del target[key]
                    else:
                        target[key] = value
                    path.write_text(json.dumps(doc))
                    try:
                        load(path)
                    except InstanceFormatError:
                        continue
                    accepted.append((seed, index, key, value))
        assert accepted == []


GOLDEN_DOCUMENTS = [
    (
        Instance(
            n=3,
            matroid=MatroidSpec(kind="partition", parts=((0, 2), (1,)), capacities=(1, 1)),
            function=FunctionSpec(
                kind="weighted_coverage", universe_weights=(5, 0.5), covers=((0, 1), (), (1,))
            ),
            label="golden-partition",
        ),
        """{
  "function": {
    "covers": [
      [
        0,
        1
      ],
      [],
      [
        1
      ]
    ],
    "kind": "weighted_coverage",
    "universe_weights": [
      5,
      0.5
    ]
  },
  "label": "golden-partition",
  "matroid": {
    "capacities": [
      1,
      1
    ],
    "kind": "partition",
    "parts": [
      [
        0,
        2
      ],
      [
        1
      ]
    ]
  },
  "n": 3
}
""",
    ),
    (
        Instance(
            n=2,
            matroid=MatroidSpec(kind="graphic", num_vertices=3, edges=((0, 1), (2, 2))),
            function=FunctionSpec(kind="concave_of_modular", weights=(1, 2.5), exponent=0.5),
            label="golden-graphic",
        ),
        """{
  "function": {
    "exponent": 0.5,
    "kind": "concave_of_modular",
    "weights": [
      1,
      2.5
    ]
  },
  "label": "golden-graphic",
  "matroid": {
    "edges": [
      [
        0,
        1
      ],
      [
        2,
        2
      ]
    ],
    "kind": "graphic",
    "num_vertices": 3
  },
  "n": 2
}
""",
    ),
]


@pytest.mark.parametrize("instance, text", GOLDEN_DOCUMENTS, ids=["partition", "graphic"])
def test_saved_text_is_golden(tmp_path, instance, text):
    path = tmp_path / "golden.json"
    save(instance, path)
    assert path.read_text(encoding="utf-8") == text


class TestEnumeration:
    def test_non_empty_and_rank_at_least_two(self):
        got = list(enumerate_small_instances(4, 2))
        assert got
        assert all(inst.rank >= 2 for inst in got)

    def test_deterministic(self):
        first = list(enumerate_small_instances(5, 3))
        second = list(enumerate_small_instances(5, 3))
        assert first == second

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_small_instances(11, 3))
        with pytest.raises(ValueError):
            list(enumerate_small_instances(8, 5))

    def test_rank_one_budget_is_empty(self):
        assert list(enumerate_small_instances(6, 1)) == []

    def test_families_validate(self):
        for inst in enumerate_small_instances(5, 3):
            f, m = build(inst)
            assert validate_monotone_submodular(f).ok, inst.label
            assert validate_matroid_axioms(m).ok, inst.label

    def test_full_suite_size_is_several_hundred(self):
        assert len(list(enumerate_small_instances(8, 3))) >= 200

    def test_catalog_round_trips(self, tmp_path):
        path = tmp_path / "inst.json"
        for inst in enumerate_small_instances(6, 3):
            save(inst, path)
            assert load(path) == inst


class TestRandomInstance:
    def test_reproducible(self):
        assert random_instance(7, 8) == random_instance(7, 8)

    def test_minimum_size(self):
        inst = random_instance(3, 2)
        assert inst.rank <= 2
        inst.validate()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(("uniform", "partition", "graphic")),
    )
    def test_axioms_hold(self, seed, kind):
        inst = random_instance(seed, 8, matroid_kind=kind)
        _, m = build(inst)
        assert validate_matroid_axioms(m).ok

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(("modular", "coverage", "weighted_coverage", "concave_of_modular")),
    )
    def test_functions_valid(self, seed, kind):
        inst = random_instance(seed, 7, function_kind=kind)
        f, _ = build(inst)
        assert validate_monotone_submodular(f).ok

    def test_infeasible_rank_rejected(self):
        with pytest.raises(ValueError):
            random_instance(0, 3, rank=5)
        with pytest.raises(ValueError):
            random_instance(0, 1)
