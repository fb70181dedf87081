"""Tests for the brute-force oracles and exhaustive validators."""

import math
import random
from pathlib import Path

import pytest

from submod import (
    TOLERANCE,
    BudgetExceededError,
    FunctionSpec,
    Instance,
    InternalInvariantError,
    Matroid,
    MatroidSpec,
    SetFunction,
    ValidationReport,
    bases_within,
    brute_force_opt,
    build,
    contract,
    enumerate_small_instances,
    exchange_bijection,
    iter_bases,
    load,
    max_weight_base,
    random_instance,
    rr_greedy,
    rr_greedy_exact_expectation,
    split,
    split_partition_witness,
    validate_matroid_axioms,
    validate_monotone_submodular,
    verify_exchange_bijection,
)


def make(n, matroid, function):
    return build(Instance(n=n, matroid=matroid, function=function))


def uniform(k):
    return MatroidSpec(kind="uniform", k=k)


def modular(*weights):
    return FunctionSpec(kind="modular", weights=tuple(weights))


def coverage(*covers):
    m = 1 + max((item for cover in covers for item in cover), default=0)
    return FunctionSpec(kind="coverage", universe_weights=(1,) * m, covers=tuple(tuple(c) for c in covers))


class TestBaseEnumeration:
    def test_lexicographic_order(self):
        _, m = make(4, uniform(2), modular(1, 1, 1, 1))
        assert list(iter_bases(m)) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_bases_within_limit(self):
        _, m = make(4, uniform(2), modular(1, 1, 1, 1))
        assert bases_within(m, 6) is not None
        assert bases_within(m, 5) is None


class TestBruteForceOpt:
    def test_coverage_triple(self):
        f, m = make(3, uniform(2), coverage((0, 1), (1, 2), (2,)))
        assert brute_force_opt(f, m) == (3.0, (0, 1))

    def test_zero_function_first_base(self):
        f, m = make(3, uniform(2), coverage((), (), ()))
        assert brute_force_opt(f, m) == (0.0, (0, 1))

    def test_modular(self):
        f, m = make(3, uniform(2), modular(5, 1, 3))
        assert brute_force_opt(f, m) == (8.0, (0, 2))

    def test_budget_error(self):
        f, m = make(4, uniform(2), modular(1, 1, 1, 1))
        with pytest.raises(BudgetExceededError):
            brute_force_opt(f, m, max_bases=5)

    def test_relabeling_permutes_witness_and_keeps_value(self):
        f, m = make(3, uniform(2), modular(5, 1, 3))
        value, witness = brute_force_opt(f, m)
        # relabel: new id i holds old element sigma[i]
        sigma = (2, 0, 1)
        f2, m2 = make(3, uniform(2), modular(3, 5, 1))
        value2, witness2 = brute_force_opt(f2, m2)
        assert value2 == value
        inverse = {old: new for new, old in enumerate(sigma)}
        assert tuple(sorted(inverse[u] for u in witness)) == witness2


class TestExactExpectation:
    def test_two_branch_tree(self):
        f, m = make(
            3,
            MatroidSpec(kind="partition", parts=((0, 1), (2,)), capacities=(1, 1)),
            coverage((0,), (0, 1), (1,)),
        )
        expected, tree = rr_greedy_exact_expectation(f, m)
        assert expected == 2.0
        assert {leaf.members for leaf in tree.leaves} == {(1, 2), (0, 2)}

    def test_unique_base_single_leaf(self):
        f, m = make(2, uniform(2), modular(4, 9))
        expected, tree = rr_greedy_exact_expectation(f, m)
        assert expected == 13.0
        assert len(tree.leaves) == 1

    def test_leaf_probabilities_sum_to_one(self):
        for inst in list(enumerate_small_instances(5, 3))[::5]:
            f, m = build(inst)
            _, tree = rr_greedy_exact_expectation(f, m)
            assert sum(leaf.probability for leaf in tree.leaves) == pytest.approx(1.0, abs=1e-12)
            assert all(len(leaf.members) == m.rank for leaf in tree.leaves)

    def test_budget_error(self):
        f, m = make(4, uniform(3), modular(1, 2, 3, 4))
        with pytest.raises(BudgetExceededError):
            rr_greedy_exact_expectation(f, m, max_leaves=2)

    def test_sampling_agrees_with_enumeration(self):
        f, m = make(5, uniform(2), coverage((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
        expected, _ = rr_greedy_exact_expectation(f, m)
        samples = [f(rr_greedy(f, m, seed)) for seed in range(3000)]
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        stderr = math.sqrt(variance / len(samples))
        assert abs(mean - expected) <= 5 * stderr + 1e-9


class TestExchangeBijection:
    def test_identity_mapping(self):
        f, m = make(3, uniform(2), modular(3, 2, 1))
        witness = exchange_bijection((0, 1), (0, 1), [3, 2, 1], m)
        assert witness.pairs == ((0, 0), (1, 1))

    def test_forced_swap(self):
        _, m = make(2, uniform(1), modular(3, 1))
        witness = exchange_bijection((0,), (1,), [3, 1], m)
        assert witness.pairs == ((0, 1),)

    def test_triangle(self):
        _, m = make(
            3,
            MatroidSpec(kind="graphic", num_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
            modular(3, 2, 1),
        )
        witness = exchange_bijection((0, 1), (1, 2), [3, 2, 1], m)
        assert verify_exchange_bijection(witness, (0, 1), (1, 2), [3, 2, 1], m)
        assert witness.mapping()[1] == 1  # shared element maps to itself

    def test_non_maximum_first_base_rejected(self):
        _, m = make(2, uniform(1), modular(3, 1))
        with pytest.raises(ValueError):
            exchange_bijection((1,), (0,), [3, 1], m)

    def test_random_pairs_verify(self):
        rng = random.Random(99)
        for trial in range(30):
            kind = "graphic" if trial % 2 else "partition"
            inst = random_instance(rng.randrange(10**6), rng.randint(4, 8), matroid_kind=kind)
            _, m = build(inst)
            weights = [rng.randint(0, 10) for _ in range(inst.n)]
            first = max_weight_base(m, weights)
            second = rng.choice(bases_within(m, 10_000))
            witness = exchange_bijection(first, second, weights, m)
            assert verify_exchange_bijection(witness, first, second, weights, m)

    def test_verifier_rejects_broken_witness(self):
        from submod import BijectionWitness

        _, m = make(3, uniform(2), modular(3, 2, 1))
        bad = BijectionWitness(pairs=((0, 1), (1, 0)))
        # weights make the mapped partner heavier than its source
        assert not verify_exchange_bijection(bad, (0, 1), (0, 1), [1, 5, 0], m)


class TestSplitPartitionWitness:
    def test_documented_search_order(self):
        f, m = make(3, uniform(2), modular(1, 1, 1))
        t_a, t_b = split_partition_witness((0,), (1,), (0, 2), f, m)
        assert (t_a, t_b) == ((2,), (0,))

    def test_whole_base_as_target(self):
        f, m = make(4, uniform(2), coverage((0, 1), (1, 2), (2, 3), (3, 0)))
        result = split(f, m, 0.5)
        target = tuple(sorted(set(result.a) | set(result.b)))
        t_a, t_b = split_partition_witness(result.a, result.b, target, f, m)
        assert set(t_a) | set(t_b) == set(target)
        assert not set(t_a) & set(t_b)

    def test_postconditions_on_suite(self):
        from submod import is_base

        for inst in list(enumerate_small_instances(5, 3))[::4]:
            f, m = build(inst)
            opt, opt_base = brute_force_opt(f, m)
            result = split(f, m, 0.5)
            t_a, t_b = split_partition_witness(result.a, result.b, opt_base, f, m)
            grown_a = set(result.a) | set(t_a)
            grown_b = set(result.b) | set(t_b)
            assert is_base(m, grown_a) and is_base(m, grown_b)
            assert f(result.a) + f(grown_a) >= f(opt_base) - 1e-9
            assert f(result.b) + f(grown_b) >= f(opt_base) - 1e-9

    def test_rejects_non_base_inputs(self):
        f, m = make(3, uniform(2), modular(1, 1, 1))
        with pytest.raises(ValueError):
            split_partition_witness((0,), (1, 2), (0, 1), f, m)  # union too large
        with pytest.raises(ValueError):
            split_partition_witness((0,), (1,), (0,), f, m)  # target not a base


class TestValidators:
    def test_modular_passes(self):
        f, _ = make(4, uniform(2), modular(1, 2, 3, 4))
        report = validate_monotone_submodular(f)
        assert report.ok and report.violations == ()

    def test_coverage_passes(self):
        f, _ = make(4, uniform(2), coverage((0, 1), (1, 2), (2, 3), (3, 0)))
        assert validate_monotone_submodular(f).ok

    def test_squared_cardinality_fails(self):
        f = SetFunction(4, lambda s: float(len(s)) ** 2)
        report = validate_monotone_submodular(f)
        assert not report.ok
        assert any("submodularity" in v for v in report.violations)

    def test_non_monotone_detected(self):
        f = SetFunction(3, lambda s: float(len(s) % 2))
        report = validate_monotone_submodular(f)
        assert any("monotonicity" in v for v in report.violations)

    def test_matroid_families_pass(self):
        for inst in list(enumerate_small_instances(6, 3))[::6]:
            _, m = build(inst)
            assert validate_matroid_axioms(m).ok, inst.label

    def test_exchange_violation_detected(self):
        from submod import Matroid

        # {0} cannot grow toward {1, 2}: the exchange axiom fails
        ok_sets = {(), (0,), (1,), (2,), (1, 2)}
        fake = Matroid(3, lambda s: s in ok_sets, rank=2)
        report = validate_matroid_axioms(fake)
        assert not report.ok
        assert any("exchange" in v for v in report.violations)

    def test_downward_closure_violation_detected(self):
        from submod import Matroid

        ok_sets = {(), (0, 1)}  # missing the singletons below (0, 1)
        fake = Matroid(2, lambda s: s in ok_sets, rank=2)
        report = validate_matroid_axioms(fake)
        assert any("downward closure" in v for v in report.violations)

    def test_size_guard(self):
        f = SetFunction(11, lambda s: float(len(s)))
        with pytest.raises(ValueError):
            validate_monotone_submodular(f)


def fake_matroid(n, independent_sets, rank):
    return Matroid(n, lambda s: s in independent_sets, rank=rank)


class TestValidatorMessages:
    def test_function_messages_name_the_local_step(self):
        parity = validate_monotone_submodular(SetFunction(3, lambda s: float(len(s) % 2)))
        assert parity.violations[0] == "monotonicity: f((0,)) > f((0, 1))"
        squared = validate_monotone_submodular(SetFunction(3, lambda s: float(len(s)) ** 2))
        assert squared.violations[0] == "submodularity: marginal of 0 grows from () to (1,)"

    def test_matroid_messages_name_ids_of_a_contraction(self):
        # contracting 0 leaves ground (1, 2, 3), where (1,) cannot grow toward (2, 3)
        with_zero = {(0,), (0, 1), (0, 2), (0, 3), (0, 2, 3)}
        residual = contract(fake_matroid(4, with_zero, rank=3), (0,))
        assert residual.ground == (1, 2, 3)
        report = validate_matroid_axioms(residual)
        assert report.violations == ("exchange: (1,) cannot grow into (2, 3)",)


def _mask_members(mask):
    return tuple(u for u in range(mask.bit_length()) if mask >> u & 1)


def full_monotone_submodular(f):
    """Reference: f(S) <= f(T) and f(u|S) >= f(u|T) for every S subset of T and u outside T, O(3^n n)."""
    size = f.n
    values = [f(_mask_members(mask)) for mask in range(1 << size)]
    violations = []
    for t_mask in range(1 << size):
        outside = [u for u in range(size) if not t_mask & (1 << u)]
        sub = t_mask
        while True:
            if values[sub] > values[t_mask] + TOLERANCE:
                violations.append(f"monotonicity: f({_mask_members(sub)}) > f({_mask_members(t_mask)})")
            for u in outside:
                bit = 1 << u
                if values[sub | bit] - values[sub] < values[t_mask | bit] - values[t_mask] - TOLERANCE:
                    violations.append(f"submodularity: marginal of {u} grows")
            if sub == 0:
                break
            sub = (sub - 1) & t_mask
    return ValidationReport(ok=not violations, violations=tuple(violations))


def full_matroid_axioms(matroid):
    """Reference: non-emptiness, downward closure, and exchange between independent sets of all sizes."""
    ground = matroid.ground
    size = len(ground)

    def ids(mask):
        return tuple(ground[i] for i in range(size) if mask >> i & 1)

    independent = [matroid.is_independent(ids(mask)) for mask in range(1 << size)]
    violations = [] if independent[0] else ["non-emptiness: the empty set is dependent"]
    masks = [mask for mask in range(1 << size) if independent[mask]]
    for mask in masks:
        for i in range(size):
            if mask >> i & 1 and not independent[mask ^ (1 << i)]:
                violations.append(f"downward closure: {ids(mask ^ (1 << i))} inside {ids(mask)}")
    for s_mask in masks:
        for t_mask in masks:
            if bin(t_mask).count("1") > bin(s_mask).count("1") and not any(
                t_mask >> i & 1 and not s_mask >> i & 1 and independent[s_mask | 1 << i] for i in range(size)
            ):
                violations.append(f"exchange: {ids(s_mask)} cannot grow into {ids(t_mask)}")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def logged(oracle, attribute):
    """The oracle with its root kernel wrapped to log every set it is asked about."""
    log = []
    kernel = getattr(oracle, attribute)

    def wrapper(members):
        log.append(members)
        return kernel(members)

    setattr(oracle, attribute, wrapper)
    return oracle, log


HARD = Path(__file__).parent / "data" / "hard"


class TestLocalFormsMatchFullForms:
    """The local-form validators agree with the full forms they replaced.

    The full forms (above) check every S subset of T and every pair of
    independent sets; the local forms check single steps with a per-step
    tolerance of TOLERANCE / n.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return [*enumerate_small_instances(8, 3), *map(load, sorted(HARD.glob("*.json")))]

    def test_equal_verdicts_and_oracle_calls_on_the_corpus(self, corpus):
        assert any(instance.n == 9 for instance in corpus)  # a hard fixture past the corpus' n <= 8
        for instance in corpus:
            for pick, attribute, billed, local, full in (
                (0, "_evaluate", "value_queries", validate_monotone_submodular, full_monotone_submodular),
                (1, "_is_independent", "independence_queries", validate_matroid_axioms, full_matroid_axioms),
            ):
                seen = []
                for validate in (local, full):
                    oracle, log = logged(build(instance)[pick], attribute)
                    seen.append((validate(oracle).ok, getattr(oracle.counts, billed), log))
                assert seen[0] == seen[1], (instance.label, local.__name__)
                assert seen[0][0] and seen[0][1] == len(seen[0][2]) == 1 << instance.n

    @pytest.mark.parametrize(
        "n, evaluate",
        [
            (4, lambda s: float(len(s)) ** 2),
            (3, lambda s: float(len(s) % 2)),
            (3, lambda s: 10.0 - 5e-10 * len(s)),
            (5, lambda s: 10.0 - 5e-10 * len(s)),
            (8, lambda s: 10.0 - 5e-10 * len(s)),
            # a dip at each single element, and a bonus for each pair, first to last
            *((4, lambda s, w=w: len(s) - 1.5 * (w in s)) for w in range(4)),
            *(
                (4, lambda s, u=u, v=v: len(s) + (u in s and v in s))
                for u in range(4)
                for v in range(u + 1, 4)
            ),
        ],
        ids=["squared", "parity", "drift3", "drift5", "drift8"]
        + [f"dip{w}" for w in range(4)]
        + [f"bonus{u}{v}" for u in range(4) for v in range(u + 1, 4)],
    )
    def test_local_form_fails_where_the_full_form_fails(self, n, evaluate):
        full = full_monotone_submodular(SetFunction(n, evaluate))
        local = validate_monotone_submodular(SetFunction(n, evaluate))
        assert not full.ok
        assert not local.ok
        kinds = {violation.split(":")[0] for violation in full.violations}
        assert {violation.split(":")[0] for violation in local.violations} == kinds

    @pytest.mark.parametrize(
        "matroid",
        [
            fake_matroid(3, {(), (0,), (1,), (2,), (1, 2)}, rank=2),
            fake_matroid(2, {(), (0, 1)}, rank=2),
            fake_matroid(3, {(0,), (1,)}, rank=1),
            contract(fake_matroid(4, {(0,), (0, 1), (0, 2), (0, 3), (0, 2, 3)}, rank=3), (0,)),
            # closed downward; (0,) cannot grow toward (1, 2, 3) nor any of its pairs
            fake_matroid(4, {(), (0,), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}, rank=3),
        ],
        ids=["exchange", "downward", "empty-dependent", "contracted", "closed"],
    )
    def test_matroid_faults_fail_both_forms(self, matroid):
        full = full_matroid_axioms(matroid)
        local = validate_matroid_axioms(matroid)
        assert not full.ok
        assert not local.ok
