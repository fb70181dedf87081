"""Acceptance suite: every headline guarantee checked end to end.

Each test covers one acceptance criterion and prints one pass line on
success (visible with ``pytest -s`` or ``-rP``).  Criteria 2-6 and 9 are
verdicts of ``submod.cli.check_instance``, the checks ``submod suite``
runs: the shared fixture calls it once on every instance of the small
corpus and on every hard fixture in ``tests/data/hard``, and each of
those criteria asserts that its checks report nothing.  The planted-fault tests show that every check can fire.
"""

import dataclasses
import inspect
import math
import random
import re
from pathlib import Path

import pytest

from submod import (
    ExpectationTree,
    InfeasibleMatchingError,
    SplitResult,
    ValidationReport,
    WeightedBipartiteGraph,
    bases_within,
    brute_force_opt,
    brute_force_perfect_matching,
    build,
    enumerate_small_instances,
    exchange_bijection,
    load,
    max_weight_base,
    max_weight_perfect_matching,
    parameters,
    random_instance,
    rr_greedy,
    rr_greedy_exact_expectation,
    verify_exchange_bijection,
)
from submod import cli
from submod.cli import measure_complexity

# The check_instance checks behind each criterion.
CRITERION_CHECKS = {
    2: ("deterministic-guarantee",),
    3: ("split-weighted-average",),
    4: ("split-disjoint", "split-union-base"),
    5: (
        "expectation-probabilities",
        "expected-value-half",
        "expected-value-curve",
        "expected-composite-bound",
    ),
    6: ("parallel-greedy-half", "parallel-greedy-composite"),
    9: ("completion-partition",),
}


HARD = Path(__file__).parent / "data" / "hard"


@pytest.fixture(scope="session")
def verdicts():
    """(instance, rows, violations) of check_instance on every corpus instance and every hard fixture."""
    corpus = [*enumerate_small_instances(8, 3), *map(load, sorted(HARD.glob("*.json")))]
    return [(instance, *cli.check_instance(instance)) for instance in corpus]


def assert_criterion_holds(verdicts, criterion, claim):
    checks = CRITERION_CHECKS[criterion]
    found = [v for _, _, violations in verdicts for v in violations if v["check"] in checks]
    assert found == []
    print(f"PASS criterion {criterion}: {claim} on all {len(verdicts)} instances ({', '.join(checks)})")


def test_criterion_1_closed_form_parameters():
    params = parameters(0.9)
    assert params.bound > 0.5008
    assert abs(params.bound - 0.500870) <= 1e-4
    assert 0.2 <= params.beta <= 0.8
    assert abs(params.beta - 0.3548) <= 1e-4
    print(
        f"PASS criterion 1: parameters(0.9) -> bound {params.bound:.6f} > 0.5008, "
        f"beta {params.beta:.6f} in [1/5, 4/5]"
    )


def test_criterion_2_deterministic_guarantee_on_corpus(verdicts):
    assert len(verdicts) >= 200  # several hundred instances
    assert all(instance.rank >= 2 for instance, _, _ in verdicts)
    ratios = [row["ratio"] for _, rows, _ in verdicts for row in rows if row["algorithm"] == "msg-det"]
    assert_criterion_holds(
        verdicts, 2, f"msg-det >= 0.5008 * OPT (exact; min ratio {min(ratios):.6f})"
    )


def test_criterion_3_split_weighted_average_bound(verdicts):
    assert_criterion_holds(verdicts, 3, f"split weighted-average bound over beta grid {cli.SPLIT_BETA_GRID}")


def test_criterion_4_split_disjoint_union_base(verdicts):
    assert_criterion_holds(
        verdicts, 4, f"split halves disjoint with a base as union over p grid {cli.SPLIT_P_GRID}"
    )


def test_criterion_5_exact_expectation_bounds(verdicts):
    assert_criterion_holds(verdicts, 5, "exact expectation bounds of the randomized grower")
    # deterministic pick of Monte-Carlo subjects: small, genuinely random trees
    sampled = []
    for instance, _, _ in verdicts:
        if instance.n > 5:
            continue
        f, matroid = build(instance)
        expected, tree = rr_greedy_exact_expectation(f, matroid)
        if max(l.value for l in tree.leaves) > min(l.value for l in tree.leaves):
            sampled.append((instance, f, matroid, expected))
            if len(sampled) == 10:
                break
    assert len(sampled) == 10

    for instance, f, matroid, expected in sampled:
        samples = [f(rr_greedy(f, matroid, seed)) for seed in range(10_000)]
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        stderr = math.sqrt(variance / len(samples))
        assert abs(mean - expected) <= 5.0 * stderr + 1e-9, (
            f"{instance.label}: mean {mean} vs exact {expected} (stderr {stderr})"
        )
    print(
        f"PASS criterion 5: Monte-Carlo mean within 5 standard errors of the exact "
        f"expectation on {len(sampled)} instances x 10^4 seeds"
    )


def test_criterion_6_parallel_greedy_bounds(verdicts):
    assert_criterion_holds(verdicts, 6, f"parallel greedy half and composite bounds (x grid {cli.RP_X_GRID})")


def test_criterion_7_matching_equals_brute_force():
    rng = random.Random(20260810)
    dense = sparse = infeasible = 0
    for trial in range(200):
        k = rng.randint(1, 7)
        density = 1.0 if trial % 2 == 0 else 0.5
        graph = WeightedBipartiteGraph(k)
        for left in range(k):
            for right in range(k):
                if rng.random() < density:
                    graph.add_edge(left, right, float(rng.randint(0, 20)))
        try:
            expected = brute_force_perfect_matching(graph)
        except InfeasibleMatchingError:
            with pytest.raises(InfeasibleMatchingError):
                max_weight_perfect_matching(graph)
            infeasible += 1
            continue
        result = max_weight_perfect_matching(graph)
        assert result.total_weight == expected.total_weight
        assert sorted(left for _, left, _, _ in result.pairs) == list(range(k))
        stored = {(left, right): weight for left, right, weight, _ in graph.edges}
        for right, left, _, weight in result.pairs:
            assert stored[left, right] == weight
        if density == 1.0:
            dense += 1
        else:
            sparse += 1
    assert dense and sparse and infeasible
    print(
        f"PASS criterion 7: matching matched brute force on 200 graphs "
        f"({dense} dense, {sparse} sparse feasible, {infeasible} infeasible detected identically)"
    )


def test_criterion_8_exchange_mapping_witnesses():
    rng = random.Random(20260811)
    verified = 0
    while verified < 100:
        kind = "graphic" if verified % 2 == 0 else "partition"
        instance = random_instance(rng.randrange(10**6), rng.randint(4, 10), matroid_kind=kind)
        _, matroid = build(instance)
        weights = [rng.randint(0, 10) for _ in range(instance.n)]
        heaviest = max_weight_base(matroid, weights)
        other = rng.choice(bases_within(matroid, 100_000))
        witness = exchange_bijection(heaviest, other, weights, matroid)
        assert verify_exchange_bijection(witness, heaviest, other, weights, matroid), (
            f"{instance.label}: witness failed verification"
        )
        verified += 1
    print("PASS criterion 8: exchange mapping built and verified on 100 random base pairs")


def test_criterion_9_completion_partition_witnesses(verdicts):
    assert_criterion_holds(verdicts, 9, "completion partition witness found for every split output")


def test_criterion_10_query_scaling():
    rows = measure_complexity([20, 40, 80], [4, 8], 3)
    cells: dict[tuple[int, int], list[float]] = {}
    for row in rows:
        assert "skipped" not in row
        cells.setdefault((row["n"], row["k"]), []).append(row["value_fit"])
    means = {cell: sum(fits) / len(fits) for cell, fits in cells.items()}
    assert len(means) == 6
    spread = max(means.values()) / min(means.values())
    assert spread < 2.0, f"fitted constants vary by {spread}x: {means}"
    print(
        f"PASS criterion 10: value queries / (n k^2) spread {spread:.3f}x "
        f"across the grid (cells: { {c: round(v, 3) for c, v in sorted(means.items())} })"
    )


def test_corpus_has_zero_violations(verdicts):
    assert [v for _, _, violations in verdicts for v in violations] == []


def test_hard_fixture_cover9_partition(verdicts):
    """Five solvers stop at 9 of OPT 14 (ratio 0.643) on this instance; rpgreedy reaches 14."""
    instance = load(HARD / "cover9-partition.json")
    opt, _ = brute_force_opt(*build(instance))
    rows, violations = next((rows, violations) for checked, rows, violations in verdicts if checked == instance)
    assert opt == 14
    assert {row["algorithm"]: row["value"] for row in rows} == {
        "greedy": 9,
        "split": 9,
        "rrgreedy": 9,
        "rpgreedy": 14,
        "msg": 9,
        "msg-det": 9,
    }
    assert violations == []


def test_hard_fixture_cover10_partition(verdicts):
    """Five solvers stop at 24 of OPT 40 (ratio 0.600) on this instance; rpgreedy reaches 40."""
    instance = load(HARD / "cover10-partition.json")
    opt, solution = brute_force_opt(*build(instance))
    rows, violations = next((rows, violations) for checked, rows, violations in verdicts if checked == instance)
    assert (opt, solution) == (40, (1, 3, 6, 9))
    assert {row["algorithm"]: row["value"] for row in rows} == {
        "greedy": 24,
        "split": 24,
        "rrgreedy": 24,
        "rpgreedy": 40,
        "msg": 24,
        "msg-det": 24,
    }
    assert violations == []


def test_hard_fixture_cover9_graphic(verdicts):
    """Greedy and rpgreedy reach OPT 44; split, rrgreedy, msg and msg-det stop at 34 (ratio 0.773)."""
    instance = load(HARD / "cover9-graphic.json")
    opt, solution = brute_force_opt(*build(instance))
    rows, violations = next((rows, violations) for checked, rows, violations in verdicts if checked == instance)
    assert (opt, solution) == (44, (0, 4, 8))
    assert {row["algorithm"]: row["value"] for row in rows} == {
        "greedy": 44,
        "split": 34,
        "rrgreedy": 34,
        "rpgreedy": 44,
        "msg": 34,
        "msg-det": 34,
    }
    assert violations == []


def _report_with(**changes):
    return lambda real: lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), **changes)


def _returning(value):
    return lambda real: lambda *args: value


EMPTY_HALVES = ("split", _returning(SplitResult((), ())))
ZERO_EXPECTATION = ("rr_greedy_exact_expectation", _returning((0.0, ExpectationTree((), (0.0,) * 3))))
EMPTY_OUTPUT = ("rp_greedy", _returning(()))
FAILED_VALIDATION = _returning(ValidationReport(False, ("planted",)))

# check name -> (the submod.cli binding to replace, plant made from the real binding),
# each planted on a clean rank-2 instance
PLANTS = {
    "deterministic-guarantee": ("solve", _report_with(value=0.0)),
    "split-weighted-average": EMPTY_HALVES,
    "split-disjoint": ("split", _returning(SplitResult((0,), (0,)))),
    "split-union-base": EMPTY_HALVES,
    "expectation-probabilities": ZERO_EXPECTATION,
    "expected-value-half": ZERO_EXPECTATION,
    "expected-value-curve": ZERO_EXPECTATION,
    "expected-composite-bound": ZERO_EXPECTATION,
    "parallel-greedy-half": EMPTY_OUTPUT,
    "parallel-greedy-composite": EMPTY_OUTPUT,
    "completion-partition": EMPTY_HALVES,
    "solution-is-base": ("solve", _report_with(solution=())),
    "value-below-opt": ("solve", _report_with(value=math.inf)),
    "monotone-submodular": ("validate_monotone_submodular", FAILED_VALIDATION),
    "matroid-axioms": ("validate_matroid_axioms", FAILED_VALIDATION),
}


def test_every_check_has_a_plant():
    emitted = set(re.findall(r'violate\(\s*"([a-z-]+)"', inspect.getsource(cli.check_instance)))
    assert set(PLANTS) == emitted
    assert {check for checks in CRITERION_CHECKS.values() for check in checks} <= emitted


@pytest.mark.parametrize("check", PLANTS)
def test_planted_fault_fires(check, monkeypatch):
    binding, plant = PLANTS[check]
    monkeypatch.setattr(cli, binding, plant(getattr(cli, binding)))
    subject = next(i for i in enumerate_small_instances(4, 2) if i.label == "n4-unif2-covc")
    _, violations = cli.check_instance(subject)
    assert check in {v["check"] for v in violations}


@pytest.mark.parametrize("check", ["monotone-submodular", "matroid-axioms"])
def test_validation_plant_fires_on_the_n9_fixture(check, monkeypatch):
    """check_instance runs both validators up to their own limit, n <= 10, so past the corpus' n <= 8."""
    binding, plant = PLANTS[check]
    monkeypatch.setattr(cli, binding, plant(getattr(cli, binding)))
    _, violations = cli.check_instance(load(HARD / "cover9-partition.json"))
    assert check in {v["check"] for v in violations}
