"""The solvers against the spec-level reference in ``submod.reference``, bit for bit.

The reference builds every table and candidate base afresh from root
oracle calls, finds each edge by brute force and matches on a dense
matrix, so none of the solvers' shortcuts (greedy run as the split
sweep at p = 1, derived rows, reused bases, the shared opening column,
self-pair rounds, kept answers and tables, the matcher's first epoch) is
in it.  Any shortcut that changed a decision shows here as a different
solution or value.  A hypothesis test adds random small documents of
every kind to the fixed sources.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from submod import (
    DEFAULT_X,
    FUNCTION_KINDS,
    MATROID_KINDS,
    FunctionSpec,
    Instance,
    MatroidSpec,
    SplitResult,
    bases_within,
    build,
    canonical,
    contract,
    enumerate_small_instances,
    iter_bases,
    load,
    marginal_function,
    parameters,
    random_instance,
    rp_greedy,
    rp_greedy_each,
    solve,
    split,
    splits,
)
from submod.algorithms import split_bias
from submod.cli import BASE_ENUM_LIMIT, SPLIT_BETA_GRID, SPLIT_P_GRID
from submod.instances import GROW_MIN_N
from submod.reference import (
    reference_greedy,
    reference_msg,
    reference_msg_det,
    reference_rp_greedy,
    reference_rr_greedy,
    reference_split,
)

P = parameters(DEFAULT_X).p
HARD = sorted((Path(__file__).parent / "data" / "hard").glob("*.json"))

SOURCES = {
    "corpus": lambda: enumerate_small_instances(8, 3),
    "hard": lambda: map(load, HARD),
    "grid": lambda: (
        random_instance(seed, n, matroid_kind, function_kind, rank=rank)
        for matroid_kind in MATROID_KINDS
        for function_kind in FUNCTION_KINDS
        for n, rank in ((16, 5), (30, 8))
        for seed in range(2)
    ),
    # exact kernels on GROW_MIN_N ids, whose rows derive from the last one
    "derived-rows": lambda: (
        random_instance(seed, GROW_MIN_N, matroid_kind, function_kind, rank=8)
        for matroid_kind in MATROID_KINDS
        for function_kind in ("modular", "coverage")
        for seed in range(1)
    ),
}


def assert_solve_equals_reference(f, m):
    chosen = reference_greedy(f, m)
    report = solve(f, m, "greedy")
    assert (report.solution, report.value.hex()) == (chosen, f._evaluate(chosen).hex())

    a, b = reference_split(f, m, P)
    assert split(f, m, P) == SplitResult(a, b)
    report = solve(f, m, "split")
    assert (report.solution, report.value.hex()) == (canonical(a + b), f._evaluate(canonical(a + b)).hex())

    grown = reference_rp_greedy(f, m, next(iter_bases(m)))  # the lexicographically first base
    report = solve(f, m, "rpgreedy")
    assert (report.solution, report.value.hex()) == (grown, f._evaluate(grown).hex())

    solution, value = reference_msg_det(f, m, P)
    report = solve(f, m, "msg-det")
    assert (report.solution, report.value.hex()) == (solution, value.hex())
    k = m.rank
    assert report.counts.value_queries <= (f.n + 1) * (k * k + k + 1) + k + 2


def assert_seeded_solvers_equal_reference(f, m):
    for seed in (0, 1):
        chosen = reference_rr_greedy(f, m, seed)
        report = solve(f, m, "rrgreedy", seed=seed)
        assert (report.solution, report.value.hex()) == (chosen, f._evaluate(chosen).hex())

        solution, value = reference_msg(f, m, P, seed)
        report = solve(f, m, "msg", seed=seed)
        assert (report.solution, report.value.hex()) == (solution, value.hex())


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_solve_equals_the_reference(source):
    count = 0
    for instance in SOURCES[source]():
        f, m = build(instance)
        assert_solve_equals_reference(f, m)
        count += 1
    assert count == {"corpus": 392, "hard": 3, "grid": 48, "derived-rows": 6}[source]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_seeded_solvers_equal_the_reference(source):
    for instance in SOURCES[source]():
        assert_seeded_solvers_equal_reference(*build(instance))


# the suite's p values, the solvers' bias, and repeats of 0, 0.5 and 1
BATCH_PS = (*SPLIT_P_GRID, *(split_bias(beta)[0] for beta in SPLIT_BETA_GRID), P, 1.0, 0.5, 0.0)


def assert_batches_equal_single_runs(instance):
    """splits and rp_greedy_each return what split and rp_greedy return, one p or one residue at a time."""
    f, m = build(instance)
    batch = splits(f, m, BATCH_PS)
    assert [*batch] == [*dict.fromkeys(BATCH_PS)]
    for p in BATCH_PS:
        assert batch[p] == split(*build(instance), p)
    bases = bases_within(m, BASE_ENUM_LIMIT)
    if bases is not None:
        assert rp_greedy_each(f, m, bases) == [rp_greedy(*build(instance), residue) for residue in bases]
    return bases is not None


@pytest.mark.parametrize("source", ["corpus", "hard"])
def test_batches_equal_single_runs(source):
    enumerated = [assert_batches_equal_single_runs(instance) for instance in SOURCES[source]()]
    assert sum(enumerated) == {"corpus": 329, "hard": 0}[source]  # every hard fixture has more than 20 bases


def test_an_empty_batch_asks_nothing():
    f, m = build(random_instance(2, 10, "graphic", "coverage", rank=4))
    assert splits(f, m, ()) == {}
    assert rp_greedy_each(f, m, ()) == []
    assert (f.counts.value_queries, m.counts.independence_queries) == (0, 0)


@pytest.mark.parametrize("bad", [-0.25, 1.5, float("nan")])
def test_a_batch_with_a_bias_out_of_range_raises_before_asking(bad):
    f, m = build(random_instance(2, 10, "graphic", "coverage", rank=4))
    with pytest.raises(ValueError, match="p must lie in"):
        splits(f, m, (0.5, 1.0, bad))
    assert (f.counts.value_queries, m.counts.independence_queries) == (0, 0)


def test_a_batch_with_a_residue_that_is_no_base_is_refused():
    f, m = build(random_instance(1, 10, "partition", "modular", rank=3))
    base = next(iter_bases(m))
    with pytest.raises(ValueError, match="residue argument must be a base of the matroid"):
        rp_greedy_each(f, m, [base, base[:2]])


@st.composite
def documents(draw):
    """A valid instance on at most 8 ids: every matroid kind and function kind.

    Partitions may hold zero-capacity parts, graphs self-loops and parallel
    edges; weights are all integers or all fractional, and a concave
    exponent lies in (0, 1].
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(MATROID_KINDS))
    if kind == "uniform":
        matroid = MatroidSpec(kind=kind, k=draw(st.integers(1, n)))
    elif kind == "partition":
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        parts = tuple(tuple(u for u in range(n) if labels[u] == label) for label in sorted(set(labels)))
        capacities = tuple(draw(st.integers(0, len(part))) for part in parts)
        matroid = MatroidSpec(kind=kind, parts=parts, capacities=capacities)
    else:
        vertices = draw(st.integers(2, 5))
        vertex = st.integers(0, vertices - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n))
        matroid = MatroidSpec(kind=kind, num_vertices=vertices, edges=tuple(edges))
    assume(matroid.rank(n) >= 1)

    weight = st.floats(0, 20) if draw(st.booleans()) else st.integers(0, 20)
    kind = draw(st.sampled_from(FUNCTION_KINDS))
    if kind in ("modular", "concave_of_modular"):
        weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
        exponent = draw(st.floats(0, 1, exclude_min=True)) if kind == "concave_of_modular" else None
        function = FunctionSpec(kind=kind, weights=weights, exponent=exponent)
    else:
        items = draw(st.integers(1, 6))
        universe = (1,) * items if kind == "coverage" else draw(st.lists(weight, min_size=items, max_size=items))
        covers = draw(st.lists(st.lists(st.integers(0, items - 1), max_size=3), min_size=n, max_size=n))
        function = FunctionSpec(
            kind=kind, universe_weights=tuple(universe), covers=tuple(map(tuple, covers))
        )
    return Instance(n=n, matroid=matroid, function=function)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents())
def test_random_documents_equal_the_reference(instance):
    f, m = build(instance)
    assert_solve_equals_reference(f, m)
    assert_seeded_solvers_equal_reference(f, m)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents())
def test_random_documents_batch_as_single_runs(instance):
    assert_batches_equal_single_runs(instance)


def test_the_reference_bills_nothing_and_asks_only_the_root_kernels():
    f, m = build(random_instance(3, 16, "graphic", "weighted_coverage", rank=5))
    asked = []
    evaluate, independent = f._evaluate, m._is_independent
    f._evaluate = lambda members: asked.append(members) or evaluate(members)  # drops the kernels' hooks
    m._is_independent = lambda members: asked.append(members) or independent(members)
    solution, _value = reference_msg_det(f, m, P)
    assert (f.counts.value_queries, f.counts.independence_queries) == (0, 0)
    assert asked and all(members == canonical(members) for members in asked)
    assert solution == solve(f, m, "msg-det").solution


def test_a_residue_that_is_no_base_is_refused():
    f, m = build(random_instance(1, 10, "partition", "modular", rank=3))
    base = next(iter_bases(m))
    for residue, anchor in ((base[:2], ()), (base, base[:1]), (base[1:], base[1:2])):
        with pytest.raises(ValueError, match="residue argument must be a base of the matroid"):
            reference_rp_greedy(f, m, residue, anchor)
    grown = rp_greedy(marginal_function(f, base[:1]), contract(m, base[:1]), base[1:])
    assert reference_rp_greedy(f, m, base[1:], base[:1]) == grown
