"""The solvers against the spec-level reference in ``submod.reference``, bit for bit.

The reference builds every table and candidate base afresh from root
oracle calls, finds each edge by brute force and matches on a dense
matrix, so none of the solvers' shortcuts (greedy run as the split
sweep at p = 1, derived rows, reused bases, the shared opening column,
self-pair rounds, kept answers and tables, the matcher's first epoch) is
in it.  Any shortcut that changed a decision shows here as a different
solution or value.
"""

from pathlib import Path

import pytest

from submod import (
    DEFAULT_X,
    FUNCTION_KINDS,
    MATROID_KINDS,
    SplitResult,
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
    solve,
    split,
)
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
        f, m = build(instance)
        for seed in (0, 1):
            chosen = reference_rr_greedy(f, m, seed)
            report = solve(f, m, "rrgreedy", seed=seed)
            assert (report.solution, report.value.hex()) == (chosen, f._evaluate(chosen).hex())

            solution, value = reference_msg(f, m, P, seed)
            report = solve(f, m, "msg", seed=seed)
            assert (report.solution, report.value.hex()) == (solution, value.hex())


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
