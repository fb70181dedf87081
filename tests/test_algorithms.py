"""Solver tests: parameter chain, greedy variants, split, grow, dispatch."""

import hashlib
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

import submod.algorithms as algorithms
from submod import (
    ALGORITHMS,
    FUNCTION_KINDS,
    MATROID_KINDS,
    FunctionSpec,
    Instance,
    InternalInvariantError,
    Matroid,
    MatroidSpec,
    SetFunction,
    WeightedBipartiteGraph,
    brute_force_opt,
    build,
    canonical,
    contract,
    enumerate_small_instances,
    gain_curve,
    is_base,
    load,
    marginal_function,
    marginal_table,
    max_weight_base,
    max_weight_perfect_matching,
    parameters,
    random_instance,
    rp_greedy,
    rr_greedy,
    rr_greedy_exact_expectation,
    solve,
    split,
    split_and_grow,
    split_and_grow_deterministic,
)

from submod.instances import GROW_MIN_N

from oracle_logs import logged_evaluator, logged_independence


def make(n, matroid, function, **kwargs):
    return build(Instance(n=n, matroid=matroid, function=function, **kwargs))


def uniform(k):
    return MatroidSpec(kind="uniform", k=k)


def modular(*weights):
    return FunctionSpec(kind="modular", weights=tuple(weights))


def coverage(*covers):
    m = 1 + max((item for cover in covers for item in cover), default=0)
    return FunctionSpec(kind="coverage", universe_weights=(1,) * m, covers=tuple(tuple(c) for c in covers))


CHAIN = coverage((0, 1), (1, 2), (2,))  # e0 and e1 overlap on item 1, e2 is nested in e1


class TestParameters:
    def test_default_mixing_point(self):
        params = parameters(0.9)
        assert params.g_x == pytest.approx(0.495, abs=1e-12)
        assert params.beta == pytest.approx(0.354839, abs=1e-6)
        assert params.p == pytest.approx(0.425822, abs=1e-6)
        assert params.bound == pytest.approx(0.500870, abs=1e-6)
        assert params.bound > 0.5008

    def test_zero_mixing_point(self):
        params = parameters(0.0)
        assert params.beta == 0.5
        assert params.p == 0.5
        assert params.bound == pytest.approx((1 + 4 * (2 / 3) * 0.5) / 5, abs=1e-12)

    def test_one_rejected(self):
        with pytest.raises(ValueError):
            parameters(1.0)
        with pytest.raises(ValueError):
            parameters(-0.1)

    def test_beta_stays_admissible_across_the_range(self):
        for i in range(100):
            params = parameters(i / 100)
            assert 0.2 <= params.beta <= 0.8

    def test_gain_curve(self):
        assert gain_curve(1.0) == 0.5
        assert gain_curve(0.0) == 0.0
        assert gain_curve(0.9) == pytest.approx(0.495)


class TestMaxWeightBase:
    def test_uniform(self):
        _, m = make(3, uniform(2), modular(5, 1, 3))
        assert max_weight_base(m, [5, 1, 3]) == (0, 2)

    def test_equal_weights_lexicographic(self):
        _, m = make(4, uniform(2), modular(1, 1, 1, 1))
        assert max_weight_base(m, [1, 1, 1, 1]) == (0, 1)

    def test_partition(self):
        _, m = make(
            3,
            MatroidSpec(kind="partition", parts=((0, 1), (2,)), capacities=(1, 1)),
            modular(2, 3, 1),
        )
        assert max_weight_base(m, [2, 3, 1]) == (1, 2)

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ((1, 1, 1, 1, 1, 1), (0, 2, 4)),
            ((-0.0, 0.0, -0.0, 0.0, 0.0, -0.0), (0, 2, 4)),
            ((0.3, 0.1 + 0.2, 0.3, 0.1 + 0.2, 0.3, 0.3), (1, 3, 4)),
            ((2, 2.0, 0.1 + 0.2, 0.3, 2, 0.3), (0, 2, 4)),
        ],
        ids=["equal", "signed-zeros", "near-tie", "mixed"],
    )
    def test_ties_keep_the_negated_weight_order(self, weights, expected):
        """Ties go to the smallest id, as sorting by (-w, u) would; this relies on ``ground`` being ascending."""

        def negated_weight_base(matroid, weight):
            chosen = []
            for u in sorted(matroid.ground, key=lambda u: (-weight[u], u)):
                if len(chosen) < matroid.rank and matroid.is_independent(chosen + [u]):
                    chosen.append(u)
            return tuple(sorted(chosen))

        parts = MatroidSpec(kind="partition", parts=((0, 1), (2, 3), (4, 5)), capacities=(1, 1, 1))
        _, m = make(6, parts, modular(*[1] * 6))
        for matroid in (m, make(6, uniform(3), modular(*[1] * 6))[1]):
            for given in (list(weights), dict(enumerate(weights))):
                assert max_weight_base(matroid, given) == negated_weight_base(matroid, given)
        assert max_weight_base(m, list(weights)) == expected
        # a contraction's ground skips ids but stays ascending
        residual = contract(m, (expected[0],))
        remaining = {u: weights[u] for u in residual.ground}
        assert max_weight_base(residual, remaining) == negated_weight_base(residual, remaining) == expected[1:]


class TestClassicalGreedy:
    def test_modular_optimal(self):
        f, m = make(3, uniform(2), modular(5, 1, 3))
        got = solve(f, m, "greedy").solution
        opt, _ = brute_force_opt(f, m)
        assert got == (0, 2)
        assert f(got) == opt

    def test_zero_function_gives_first_base(self):
        f, m = make(3, uniform(2), coverage((), (), ()))
        assert solve(f, m, "greedy").solution == (0, 1)

    def test_coverage_trace(self):
        f, m = make(3, uniform(2), CHAIN)
        got = solve(f, m, "greedy").solution
        assert got == (0, 1)
        assert f(got) == 3.0

    @pytest.mark.parametrize(
        "evaluate, expected",
        [
            (lambda s: math.nan if 2 in s else float(len(s)), (0, 1, 2)),
            (lambda s: -float(sum(s)), (0, 1, 2)),
            (lambda s: math.inf if 4 in s else float(len(s)), (0, 1, 4)),
        ],
        ids=["nan", "negative", "infinite"],
    )
    def test_outside_the_monotone_contract_gives_a_base(self, evaluate, expected):
        """A NaN, negative or infinite marginal may route a pick to the second half; the union is still a base."""
        f = SetFunction(5, evaluate)
        m = Matroid(5, lambda s: len(s) <= 3, 3)
        half = split(f, m, 1.0)
        assert solve(f, m, "greedy").solution == canonical(half.a + half.b) == expected
        assert is_base(m, expected)


class TestSplit:
    def test_ties_route_to_first_half(self):
        f, m = make(2, uniform(2), modular(2, 1))
        result = split(f, m, 0.5)
        assert result.a == (0, 1) and result.b == ()

    def test_zero_bias_routes_to_second_half(self):
        f, m = make(2, uniform(2), modular(2, 1))
        result = split(f, m, 0.0)
        assert result.a == () and result.b == (0, 1)

    def test_coverage_trace(self):
        f, m = make(3, uniform(2), CHAIN)
        result = split(f, m, 0.5)
        assert result.a == (0,) and result.b == (1,)

    def test_bias_out_of_range(self):
        f, m = make(2, uniform(2), modular(1, 1))
        with pytest.raises(ValueError):
            split(f, m, 1.5)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.425822, 0.5, 0.75, 1.0])
    def test_disjoint_union_is_base(self, p):
        from submod import is_base

        for inst in enumerate_small_instances(5, 3):
            f, m = build(inst)
            result = split(f, m, p)
            assert not set(result.a) & set(result.b)
            assert is_base(m, set(result.a) | set(result.b))

    def test_loop_elements_never_picked(self):
        f, m = make(
            3,
            MatroidSpec(kind="partition", parts=((0,), (1, 2)), capacities=(0, 2)),
            modular(9, 1, 1),
        )
        result = split(f, m, 1.0)
        assert 0 not in set(result.a) | set(result.b)


class TestRRGreedy:
    def test_forced_single_candidate(self):
        f, m = make(3, uniform(1), modular(1, 5, 2))
        for seed in range(5):
            assert rr_greedy(f, m, seed) == (1,)

    def test_unique_base(self):
        f, m = make(2, uniform(2), modular(3, 4))
        for seed in range(5):
            assert rr_greedy(f, m, seed) == (0, 1)

    def test_seed_reproducible(self):
        f, m = make(6, uniform(3), coverage((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
        assert rr_greedy(f, m, 123) == rr_greedy(f, m, 123)

    def test_two_branch_expectation(self):
        f, m = make(
            3,
            MatroidSpec(kind="partition", parts=((0, 1), (2,)), capacities=(1, 1)),
            coverage((0,), (0, 1), (1,)),
        )
        expected, tree = rr_greedy_exact_expectation(f, m)
        assert expected == 2.0
        assert len(tree.leaves) == 2


class TestSplitTables:
    """split asks a half's table only in the first round, for both halves at once, and in each round after it gained."""

    @staticmethod
    def shapes():
        yield from enumerate_small_instances(6, 3)
        for matroid_kind in MATROID_KINDS:
            for seed in range(2):
                yield random_instance(seed, 20, matroid_kind, "weighted_coverage", rank=6)
                yield random_instance(seed, GROW_MIN_N, matroid_kind, "modular", rank=8)

    def test_only_the_half_that_gained_is_asked_again(self, monkeypatch):
        tables, unions = [], []  # (anchor, size) of each table asked, and the union of the halves each round
        real_table, real_pool = SetFunction.singleton_table, algorithms._feasible_pool
        monkeypatch.setattr(
            SetFunction, "singleton_table",
            lambda view, ids: tables.append((view.anchored, len(ids))) or real_table(view, ids),
        )
        monkeypatch.setattr(
            algorithms, "_feasible_pool", lambda m, used, ids: unions.append(set(used)) or real_pool(m, used, ids)
        )
        kept = 0  # rounds that kept a half's table
        for instance in self.shapes():
            f, m = build(instance)
            tables.clear()
            unions.clear()
            half = split(f, m, 0.425822)
            unions.append(set(half.a + half.b))
            routed = [(after - before).pop() for before, after in zip(unions, unions[1:])]
            expected = [()]  # both halves are empty: one table
            for done, u in enumerate(routed[:-1], 1):
                side = half.a if u in half.a else half.b
                expected.append(canonical(x for x in routed[:done] if x in side))
            assert [anchor for anchor, _size in tables] == expected, instance
            assert f.counts.value_queries == sum(size + 1 for _anchor, size in tables)  # each table and its offset
            kept += len(routed) - 1
        assert kept > 400  # 450


class TestRPGreedy:
    def test_single_column_upgrade(self):
        f, m = make(3, uniform(1), modular(1, 5, 2))
        assert rp_greedy(f, m, (2,)) == (1,)

    def test_unique_base(self):
        f, m = make(2, uniform(2), modular(3, 4))
        assert rp_greedy(f, m, (0, 1)) == (0, 1)

    def test_residue_must_be_base(self):
        f, m = make(3, uniform(2), modular(1, 1, 1))
        with pytest.raises(ValueError):
            rp_greedy(f, m, (0,))

    def test_rank_zero_view(self):
        """A fully contracted view has the one base (); rp_greedy and both split-and-grow solvers return it."""
        for matroid in (uniform(2), MatroidSpec(kind="graphic", num_vertices=3, edges=((0, 1), (1, 1), (1, 2)))):
            f, m = make(3, matroid, modular(1, 5, 2))
            base = max_weight_base(m, [1, 5, 2])
            g, m0 = marginal_function(f, base), contract(m, base)
            assert m0.rank == 0
            assert rp_greedy(g, m0, ()) == ()
            assert split_and_grow(g, m0).solution == ()
            assert split_and_grow_deterministic(g, m0).solution == ()


class TestSplitAndGrow:
    def test_unique_base(self):
        f, m = make(2, uniform(2), modular(3, 4))
        report = split_and_grow(f, m, x=0.9, rng_seed=0)
        assert report.solution == (0, 1)

    def test_coverage_reaches_optimum(self):
        f, m = make(3, uniform(2), CHAIN)
        for seed in range(10):
            report = split_and_grow(f, m, x=0.9, rng_seed=seed)
            assert report.value == 3.0

    def test_mean_over_seeds_beats_half(self):
        checked = 0
        for inst in enumerate_small_instances(4, 3):
            f, m = build(inst)
            opt, _ = brute_force_opt(f, m)
            total = sum(split_and_grow(f, m, rng_seed=seed).value for seed in range(100))
            assert total / 100 >= 0.5 * opt - 1e-9, inst.label
            checked += 1
        assert checked > 0

    def test_rank_one(self):
        f, m = make(3, uniform(1), modular(1, 5, 2))
        report = split_and_grow(f, m, x=0.5, rng_seed=4)
        assert (report.solution, report.value) == ((1,), 5.0)
        assert (report.algorithm, report.parameters, report.seed) == ("msg", parameters(0.5), 4)
        assert report.counts.value_queries > 0 and report.counts.independence_queries > 0
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\)"):
            split_and_grow(f, m, x=1.5)

    def test_same_seed_reproduces(self):
        f, m = make(6, uniform(3), coverage((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
        first = split_and_grow(f, m, rng_seed=5)
        second = split_and_grow(f, m, rng_seed=5)
        assert first.solution == second.solution
        assert first.counts.value_queries == second.counts.value_queries


class TestSplitAndGrowDeterministic:
    def test_unique_base(self):
        f, m = make(2, uniform(2), modular(3, 4))
        assert split_and_grow_deterministic(f, m).solution == (0, 1)

    def test_rank_one(self):
        f, m = make(3, uniform(1), modular(1, 5, 2))
        report = split_and_grow_deterministic(f, m, x=0.5)
        assert (report.solution, report.value) == ((1,), 5.0)
        assert (report.algorithm, report.parameters, report.seed) == ("msg-det", parameters(0.5), None)
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\)"):
            split_and_grow_deterministic(f, m, x=1.5)

    def test_repeat_runs_identical_apart_from_elapsed(self):
        f, m = make(6, uniform(3), coverage((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
        first = split_and_grow_deterministic(f, m).to_dict()
        second = split_and_grow_deterministic(f, m).to_dict()
        first.pop("elapsed")
        second.pop("elapsed")
        assert first == second

    def test_positive_scaling_leaves_output_unchanged(self):
        for inst in list(enumerate_small_instances(5, 3))[::7]:
            f, m = build(inst)
            reference = split_and_grow_deterministic(f, m).solution
            greedy_reference = solve(f, m, "greedy").solution
            split_reference = split(f, m, 0.425822)
            for factor in (2.0, 3.0, 0.5):
                scaled = SetFunction(f.n, lambda s, c=factor: c * f._evaluate(s), counts=f.counts)
                assert split_and_grow_deterministic(scaled, m).solution == reference
                assert solve(scaled, m, "greedy").solution == greedy_reference
                assert split(scaled, m, 0.425822) == split_reference

    # Exact reports pinned from an earlier version of the solver: a refactor
    # must reproduce them, query counts included.  The counts were re-pinned
    # when split's first round shared its one table, when the exchange round
    # stopped asking a set twice, when the solvers stopped asking what the
    # matroid axioms answer (a reused order's base, the copies' shared
    # opening round, the shrinking pool), and when a grown copy began to
    # reuse its base less the gain whenever no gain rose and the base's gains
    # held, and to contract by its gain without a check; the solutions,
    # values and value counts never moved.  Both counts were re-pinned when
    # split stopped asking again the table of the half that did not gain,
    # and rp_greedy began to build its opening round as one column for
    # every copy and to keep every answer of a call, so that no set, a
    # copy's own set included, is asked twice; the solutions and values
    # did not move.  The independence counts were re-pinned when the
    # grown copies' greedy scans began to read and fill the call's store
    # of answers that the edge tests keep, so a scan asks no set the call
    # has asked; the solutions, values and value counts did not move.
    @pytest.mark.parametrize(
        "cell, solution, value, value_queries, independence_queries",
        [
            ((3, 12, "partition", "coverage", 3), (0, 1, 8), 6.0, 112, 42),
            ((5, 12, "graphic", "modular", 4), (0, 3, 4, 11), 31.0, 190, 50),
            ((11, 10, "uniform", "concave_of_modular", 3), (1, 4, 5), 5.291502622129181, 74, 36),
            ((13, 14, "partition", "weighted_coverage", 4), (0, 1, 2, 11), 44.0, 137, 60),
            ((17, 20, "uniform", "modular", 8), (0, 1, 6, 11, 12, 14, 16, 18), 64.0, 1124, 145),
            ((19, 16, "uniform", "weighted_coverage", 5), (3, 4, 7, 8, 13), 61.0, 220, 90),
            ((23, 14, "graphic", "concave_of_modular", 5), (3, 4, 6, 7, 12), 6.4031242374328485, 181, 67),
            (
                (29, 48, "uniform", "modular", 24),
                (0, 3, 4, 7, 9, 10, 14, 18, 20, 21, 22, 24, 27, 28, 29, 30, 32, 33, 36, 39, 40, 44, 45, 47),
                205.0,
                21400,
                905,
            ),
            (
                (31, 40, "partition", "coverage", 12),
                (4, 5, 8, 9, 15, 16, 17, 19, 22, 28, 29, 39),
                23.0,
                2924,
                944,
            ),
        ],
    )
    def test_pinned_reports(self, cell, solution, value, value_queries, independence_queries):
        seed, n, matroid_kind, function_kind, rank = cell
        f, m = build(random_instance(seed, n, matroid_kind, function_kind, rank=rank))
        report = solve(f, m, "msg-det")
        assert report.solution == solution
        assert report.value == value
        assert report.counts.value_queries == value_queries
        assert report.counts.independence_queries == independence_queries


class TestSolve:
    def test_rank_one_exhaustive(self):
        f, m = make(3, uniform(1), modular(1, 5, 2))
        for algorithm in ("greedy", "split", "rrgreedy", "rpgreedy", "msg", "msg-det"):
            report = solve(f, m, algorithm)
            assert report.solution == (1,)
            assert report.value == 5.0

    def test_dispatch_matches_direct_call(self):
        f, m = make(3, uniform(2), CHAIN)
        via_solve = solve(f, m, "msg-det", x=0.9)
        direct = split_and_grow_deterministic(f, m, x=0.9)
        assert via_solve.solution == direct.solution
        assert via_solve.value == direct.value

    def test_unknown_algorithm(self):
        f, m = make(2, uniform(2), modular(1, 1))
        with pytest.raises(ValueError, match="foo"):
            solve(f, m, "foo")

    def test_split_solution_is_the_assembled_base(self):
        from submod import is_base

        f, m = make(3, uniform(2), CHAIN)
        report = solve(f, m, "split")
        assert is_base(m, report.solution)

    def test_solution_is_base_and_value_rechecked(self):
        from submod import is_base

        for inst in list(enumerate_small_instances(4, 3))[::5]:
            f, m = build(inst)
            for algorithm in ("greedy", "split", "rrgreedy", "rpgreedy", "msg", "msg-det"):
                report = solve(f, m, algorithm)
                assert is_base(m, report.solution), (inst.label, algorithm)
                assert report.value == f(report.solution)

    def test_counts_are_per_run_deltas(self):
        f, m = make(4, uniform(2), modular(4, 3, 2, 1))
        first = solve(f, m, "greedy")
        second = solve(f, m, "greedy")
        assert first.counts.value_queries == second.counts.value_queries
        assert first.counts.independence_queries == second.counts.independence_queries

    @pytest.mark.parametrize("algorithm", ["split", "msg", "msg-det"])
    def test_reported_bias_is_the_bias_used(self, monkeypatch, algorithm):
        f, m = make(3, uniform(2), CHAIN)
        used = []

        def recording_split(f, matroid, p):
            used.append(p)
            return split(f, matroid, p)

        monkeypatch.setattr(algorithms, "split", recording_split)
        for x in (0.0, 0.5, 0.9):
            report = solve(f, m, algorithm, x=x)
            assert report.parameters == parameters(x)
            assert used.pop() == parameters(x).p and used == []
        with pytest.raises(TypeError):
            solve(f, m, algorithm, p=0.3)


def rank_one_instance(rng, matroid_kind, function_kind, fractional_weights):
    """A random rank-1 instance: zero-capacity parts, graphic self-loops and weight ties included."""
    n = rng.choice((2, 3, 5, 7, GROW_MIN_N))
    if matroid_kind == "uniform":
        matroid = uniform(1)
    elif matroid_kind == "partition":
        ids = list(range(n))
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 4))))
        parts = tuple(tuple(sorted(ids[a:b])) for a, b in zip([0, *cuts], [*cuts, n]))
        capacities = [0] * len(parts)
        capacities[rng.randrange(len(parts))] = 1
        matroid = MatroidSpec(kind="partition", parts=parts, capacities=tuple(capacities))
    else:  # every edge is a self-loop or parallel to (0, 1)
        edges = [rng.choice(((0, 1), (1, 0), (0, 0), (1, 1), (2, 2))) for _ in range(n)]
        edges[rng.randrange(n)] = (0, 1)
        matroid = MatroidSpec(kind="graphic", num_vertices=3, edges=tuple(edges))

    def draw():
        return rng.randint(0, 6) / 3 if fractional_weights else rng.randint(0, 3)

    if function_kind in ("modular", "concave_of_modular"):
        exponent = 0.5 if function_kind == "concave_of_modular" else None
        function = FunctionSpec(kind=function_kind, weights=tuple(draw() for _ in range(n)), exponent=exponent)
    else:
        items = rng.randint(1, 4)
        weights = tuple(draw() for _ in range(items)) if function_kind == "weighted_coverage" else (1,) * items
        covers = tuple(tuple(sorted(rng.sample(range(items), rng.randint(0, items)))) for _ in range(n))
        function = FunctionSpec(kind=function_kind, universe_weights=weights, covers=covers)
    return Instance(n=n, matroid=matroid, function=function)


class TestRankOne:
    """Greedy is exact when every base is one element, so every solver returns the optimum's witness."""

    @pytest.mark.parametrize("function_kind", FUNCTION_KINDS)
    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_every_algorithm_returns_the_brute_force_witness(self, matroid_kind, function_kind):
        rng = random.Random(f"rank-one-{matroid_kind}-{function_kind}")
        for trial in range(24):
            instance = rank_one_instance(rng, matroid_kind, function_kind, fractional_weights=trial % 2 == 1)
            f, m = build(instance)
            assert m.rank == 1
            opt_value, witness = brute_force_opt(f, m)  # the smallest id of the largest value
            for algorithm in ALGORITHMS:
                report = solve(f, m, algorithm)
                assert (report.solution, report.value) == (witness, opt_value), (instance, algorithm)
            for report in (split_and_grow(f, m, rng_seed=trial), split_and_grow_deterministic(f, m)):
                assert (report.solution, report.value) == (witness, opt_value), (instance, report.algorithm)


class TestAccounting:
    """One counted query is one kernel answer (a root kernel call or one hook answer), on every path."""

    @pytest.mark.parametrize("function_kind", FUNCTION_KINDS)
    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_counted_queries_are_root_calls(self, matroid_kind, function_kind):
        for hooked in (False, True):
            hook_answers = [0, 0]  # value and independence answers a hook gave
            for seed, n, rank in ((1, 9, 1), (2, 10, 3), (3, 12, 4)):
                f, m = build(random_instance(seed, n, matroid_kind, function_kind, rank=rank))
                value_log, indep_log = [], []  # by_hook of every answer of each kernel
                f._evaluate = logged_evaluator(f._evaluate, lambda _, by_hook: value_log.append(by_hook), hooked)
                m._is_independent = logged_independence(
                    m._is_independent, lambda _, by_hook: indep_log.append(by_hook), hooked
                )
                for algorithm in ALGORITHMS:
                    before = (len(value_log), len(indep_log))
                    report = solve(f, m, algorithm, seed=seed)
                    answered = (len(value_log) - before[0], len(indep_log) - before[1])
                    counted = (report.counts.value_queries, report.counts.independence_queries)
                    assert answered == counted, (algorithm, hooked)
                assert (len(value_log), len(indep_log)) == (f.counts.value_queries, f.counts.independence_queries)
                hook_answers[0] += sum(value_log)
                hook_answers[1] += sum(indep_log)
            # each kernel's hooks answer exactly when they are offered
            assert (hook_answers[0] > 0, hook_answers[1] > 0) == (hooked, hooked)


def root_call_digest(instance, seed=1, hooked=False):
    """sha256 of every root oracle answer's (kind, members), in order, and each algorithm's result."""
    f, m = build(instance)
    digest = hashlib.sha256()

    def logger(kind):
        return lambda members, _: digest.update(repr((kind, members)).encode())

    f._evaluate = logged_evaluator(f._evaluate, logger("value"), hooked)
    m._is_independent = logged_independence(m._is_independent, logger("indep"), hooked)
    for algorithm in ALGORITHMS:
        report = solve(f, m, algorithm, seed=seed)
        digest.update(repr((algorithm, report.solution, report.value)).encode())
    return digest.hexdigest()


class TestRootCallLog:
    """Every algorithm asks the root oracles the same questions, in the same order, as the pinned version.

    The digests were recorded before the oracle kernels and the work around
    each call were rewritten; a change that keeps them removes only work
    that no oracle sees.  They were re-recorded when split's first round
    shared its one table, when the exchange round began to offer candidates
    by gain and to ask each set once, and when the solvers stopped asking
    what the matroid axioms answer: a grown copy that reuses its scan order
    reuses its base, rp_greedy's copies share their opening round, and the
    feasible pool of split and greedy only shrinks; and when a grown copy
    began to reuse its base less the gain whenever no gain rose and the
    base's own gains held, and stopped asking about its handed matroid's
    anchor and about each contraction by its gain; and when split stopped
    asking again the table of the half that did not gain (the half that did
    is asked through its view grown by its new id, so an exact kernel's
    rows derive from the last one), and rp_greedy began to build its
    opening round as one column for every copy and to keep every answer of
    a call, so that it asks no set twice; and when the grown copies' greedy
    scans began to share that store of answers, so that no scan of a grower
    call asks a set the call has asked, bar the opening own question.  Each
    cell runs twice:
    with plain wrappers, which answer every query by a kernel call, and
    with the kernels' hooks (the value kernel's ``extend`` and its rows'
    ``grow``, whose derived rows run in the cells on at least GROW_MIN_N
    ids, and the independence kernel's ``exchange``, which answers the swaps
    and the scans' offers), each of whose answers is for the same set as
    that call.
    """

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ((1, 20, "graphic", "modular", 6), "87dbf62aa59b713e2e583b380390316e220597f9fc57908b7c6da0b115c431dd"),
            ((2, 16, "uniform", "modular", 8), "e0d9f25fc8c644127d22c045b5b34ba5a6654aafe5423e427e9e7743d9b42117"),
            ((3, 20, "partition", "coverage", 6), "400e9a6caa18146490c6962e05a56740fcd3d0270307e00828b334a4d19a83d6"),
            (
                (4, 16, "graphic", "concave_of_modular", 5),
                "f15d350abbf7cc585069d18ad5a65c933a8a7ddf9714dc6af9f56bdd3f569582",
            ),
            (
                (5, 20, "partition", "weighted_coverage", 6),
                "e8664512c841aa33a4b39be81e29c108761991514af0ca2d1f0fad423cac0fae",
            ),
            # the benchmark's uniform-dense and coverage-partition shapes
            (
                (100, 48, "uniform", "modular", 24),
                "f2d50dff378b89f74c0d39c1ceebb86385d79b4b9724a89a6db044b644886465",
            ),
            (
                (101, 120, "partition", "coverage", 12),
                "c481d337586a76a02b068eaf52c647b072e6531c4ded07ea9b9747d7871fc4bb",
            ),
        ],
        ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None,
    )
    def test_pinned_root_call_log(self, cell, expected):
        seed, n, matroid_kind, function_kind, rank = cell
        instance = random_instance(seed, n, matroid_kind, function_kind, rank=rank)
        assert root_call_digest(instance) == expected
        assert root_call_digest(instance, hooked=True) == expected


FRACTIONS = (0.1, 0.2, 0.3)


def fractional(instance, rng):
    """The instance with every weight redrawn from FRACTIONS, so sums round and marginals tie."""
    spec = instance.function
    if spec.kind == "weighted_coverage":
        spec = replace(spec, universe_weights=tuple(rng.choice(FRACTIONS) for _ in spec.universe_weights))
    else:
        spec = replace(spec, weights=tuple(rng.choice(FRACTIONS) for _ in spec.weights))
    return replace(instance, function=spec)


def full_scan_exchange_graphs(f, matroid, residue):
    """rp_greedy's exchange graph of every round, built by testing every (u, v) pair.

    Asserts on the way that a candidate still in its copy's residue gets no
    edge but v = u, the case rp_greedy tests alone.
    """
    base = canonical(residue)
    k = matroid.rank
    left_of = {v: idx for idx, v in enumerate(base)}
    solutions = [() for _ in range(k)]
    residues = [set(base) for _ in range(k)]
    rounds = []
    for _ in range(k):
        graph = WeightedBipartiteGraph(k)
        for j in range(k):
            gains = marginal_table(f, solutions[j], contract(matroid, solutions[j]).ground)
            for u in max_weight_base(contract(matroid, solutions[j]), gains):
                for v in sorted(residues[j]):
                    swapped = set(solutions[j]) | {u} | (residues[j] - {v})
                    if gains[u] >= gains[v] and is_base(matroid, swapped):
                        assert u not in residues[j] or v == u, (j, u, v)
                        graph.add_edge(left_of[v], j, gains[u], payload=u)
        rounds.append(graph.edges)
        for right, left, gained, _weight in max_weight_perfect_matching(graph).pairs:
            solutions[right] = canonical(solutions[right] + (gained,))
            residues[right].remove(base[left])
    return rounds


class TestFloatTies:
    """Fractional weights make marginals round and tie; the exchange graph must not care."""

    @pytest.mark.parametrize("function_kind", ["weighted_coverage", "modular", "concave_of_modular"])
    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition", "graphic"])
    def test_exchange_graph_equals_full_scan(self, monkeypatch, matroid_kind, function_kind):
        seen = []
        grown = []

        def recording_matcher(graph):
            seen.append(graph.edges)
            return max_weight_perfect_matching(graph)

        def checked_rp_greedy(f, matroid, residue):
            expected = full_scan_exchange_graphs(f, matroid, residue)
            seen.clear()
            result = rp_greedy(f, matroid, residue)
            assert seen == expected
            grown.append(result)
            return result

        monkeypatch.setattr(algorithms, "max_weight_perfect_matching", recording_matcher)
        monkeypatch.setattr(algorithms, "rp_greedy", checked_rp_greedy)
        rng = random.Random(f"{matroid_kind}-{function_kind}")
        for seed in range(6):
            instance = fractional(random_instance(seed, 12, matroid_kind, function_kind, rank=5), rng)
            f, m = build(instance)
            for algorithm in ("rpgreedy", "msg-det"):
                report = solve(f, m, algorithm)
                assert is_base(m, report.solution), (seed, algorithm)
                assert report.value == f(report.solution)
        assert len(grown) == 6 * 3  # one rp_greedy per rpgreedy run, two per msg-det run

    @pytest.mark.parametrize("function_kind", ["coverage", "modular"])
    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition", "graphic"])
    def test_integer_weight_graph_equals_full_scan(self, monkeypatch, matroid_kind, function_kind):
        """Unit coverage and integer modular weights tie exactly; every round's graph is the full scan's."""
        seen = []
        grown = []

        def recording_matcher(graph):
            seen.append(graph.edges)
            return max_weight_perfect_matching(graph)

        def checked_rp_greedy(f, matroid, residue):
            expected = full_scan_exchange_graphs(f, matroid, residue)
            seen.clear()
            grown.append(rp_greedy(f, matroid, residue))
            assert seen == expected
            return grown[-1]

        monkeypatch.setattr(algorithms, "max_weight_perfect_matching", recording_matcher)
        monkeypatch.setattr(algorithms, "rp_greedy", checked_rp_greedy)
        for seed in range(3):
            f, m = build(random_instance(seed, 20, matroid_kind, function_kind, rank=8))
            for algorithm in ("rpgreedy", "msg-det"):
                report = solve(f, m, algorithm)
                assert is_base(m, report.solution), (seed, algorithm)
        assert len(grown) == 3 * 3


def round_logs(monkeypatch):
    """Log the kernel sets each exchange test asks, one log per ``exchange_test`` call.

    Returns ``(rounds, asking)``.  ``rounds`` gains ``(own, log)`` per call:
    ``own`` is the set the tests start from (kept plus the view's anchor)
    and ``log`` the sets the kernel answers while one of them runs.
    ``asking`` holds the log of the test now running, for the kernel's
    logging wrapper to append to.
    """
    rounds, asking = [], []
    real = Matroid.exchange_test

    def exchange_test(matroid, kept):
        kept = list(kept)
        log = []
        rounds.append((canonical(kept + list(matroid.anchored)), log))
        test = real(matroid, kept)

        def logged_test(u, v=None):
            asking.append(log)
            try:
                return test(u, v)
            finally:
                asking.pop()

        return logged_test

    monkeypatch.setattr(Matroid, "exchange_test", exchange_test)
    return rounds, asking


def grower_corpus():
    """The (8, 3) corpus, the hard fixtures and fractional-weight cells of every matroid kind."""
    rng = random.Random(22)
    fractions = [
        fractional(random_instance(seed, 12, matroid_kind, function_kind, rank=5), rng)
        for matroid_kind in MATROID_KINDS
        for function_kind in ("weighted_coverage", "modular")
        for seed in range(3)
    ]
    hard = sorted((Path(__file__).parent / "data" / "hard").glob("*.json"))
    assert len(hard) == 3
    return [*enumerate_small_instances(8, 3), *map(load, hard), *fractions]


def logged_grower_calls(monkeypatch, name, algorithms_run, hooked, asking=()):
    """Solve the grower corpus by ``algorithms_run``; return the kernel sets each call of grower ``name`` asked.

    Every kernel answer, a scan's offer, an edge test or a plain call, is
    logged as the set it is for, anchor included; the wrapper also appends
    it to ``asking[-1]`` while an edge test runs.
    """
    log, calls = [], []
    real = getattr(algorithms, name)

    def recording(*args):
        first = len(log)
        try:
            return real(*args)
        finally:
            calls.append(log[first:])

    monkeypatch.setattr(algorithms, name, recording)

    def record(members, _by_hook):
        log.append(members)
        if asking:
            asking[-1].append(members)

    for instance in grower_corpus():
        f, m = build(instance)
        m._is_independent = logged_independence(m._is_independent, record, hooked)
        for algorithm in algorithms_run:
            solve(f, m, algorithm, seed=3)
    return calls


class TestExchangeRound:
    """An rp_greedy call's scans and edge tests ask about each set once, bar the opening own question."""

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_no_set_is_asked_twice(self, monkeypatch, hooked):
        """No set is asked twice across a whole call, over all its rounds, copies, scans and edge tests.

        The call first checks its residue, the copies' opening own set.  A
        copy's own set, its solution + residue, is asked by the edge tests
        at most once per call: in the opening round, whose one column
        serves every copy.  After that it is known: each copy's new own set
        is the swap its matched edge passed, or its last one unchanged by a
        self pair.  That opening question is asked even when the opening
        scan's last offer, the opening base, already answered it, so it is
        the one set a call may ask twice after its residue check.
        """
        rounds, asking = round_logs(monkeypatch)
        edge_calls = []  # (first, end) of each rp_greedy call's exchange tests in rounds
        real_rp_greedy = algorithms.rp_greedy

        def recording_rp_greedy(f, matroid, residue):
            first = len(rounds)
            try:
                return real_rp_greedy(f, matroid, residue)
            finally:
                edge_calls.append((first, len(rounds)))

        monkeypatch.setattr(algorithms, "rp_greedy", recording_rp_greedy)
        calls = logged_grower_calls(monkeypatch, "rp_greedy", ("rpgreedy", "msg-det"), hooked, asking)
        assert len(calls) == len(edge_calls) == 3 * (392 + 3 + 18)
        owned = repeated = 0  # calls whose edge tests asked a copy's own set, and calls that asked it twice
        for (first, end), (residue_check, *asked) in zip(edge_calls, calls):
            edge_asked = [members for _own, log in rounds[first:end] for members in log]
            assert len(set(edge_asked)) == len(edge_asked), rounds[first]
            own_asks = sum(log.count(own) for own, log in rounds[first:end])
            assert own_asks <= 1, rounds[first]
            owned += own_asks
            twice = [members for members in set(asked) if asked.count(members) > 1]
            assert twice in ([], [residue_check]) and asked.count(residue_check) <= 2, residue_check
            repeated += bool(twice)
        assert owned > 0 and repeated > 0

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_a_random_run_asks_no_set_twice(self, monkeypatch, hooked):
        """rr_greedy's scans, over all its rounds, ask about each set once."""
        calls = logged_grower_calls(monkeypatch, "rr_greedy", ("rrgreedy", "msg"), hooked)
        assert len(calls) == 3 * (392 + 3 + 18)
        for asked in calls:
            assert len(set(asked)) == len(asked), asked

    @staticmethod
    def lie_after_the_residue_check(monkeypatch, honest_offers):
        """Once the residue is checked, every full-size set reads dependent, the copies' own sets too.

        The kernel's ``exchange`` denies every swap with a drop and the base
        itself.  With ``honest_offers`` it answers an add-only swap, a greedy
        scan's offer, as the kernel does; otherwise it denies those too.
        """
        real_is_base = algorithms.is_base

        def checked_then_lying(matroid, elements):
            checked = real_is_base(matroid, elements)
            kernel = matroid.root._is_independent

            def lying(members):
                return len(members) < matroid.rank and kernel(members)

            def lying_exchange(base):
                swap = kernel.exchange(base)
                if swap is None:
                    return None
                return lambda add, drop: honest_offers and drop is None and add is not None and swap(add, None)

            lying.exchange = lying_exchange
            matroid.root._is_independent = lying
            return checked

        monkeypatch.setattr(algorithms, "is_base", checked_then_lying)

    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition", "graphic"])
    def test_a_kernel_that_denies_every_swap_breaks_the_matching(self, monkeypatch, matroid_kind):
        """The residue is the first round's candidate base, so self pairs alone would match every copy.

        The greedy scans' offers stay honest, so every copy finds its base.
        """
        self.lie_after_the_residue_check(monkeypatch, honest_offers=True)
        f, m = build(random_instance(3, 12, matroid_kind, "modular", rank=4))
        residue = max_weight_base(m, [f((u,)) for u in range(m.n)])  # every first-round candidate
        with pytest.raises(InternalInvariantError, match="exchange graph lost its perfect matching"):
            rp_greedy(f, m, residue)

    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition", "graphic"])
    def test_a_kernel_that_denies_every_offer_leaves_the_scan_short(self, monkeypatch, matroid_kind):
        self.lie_after_the_residue_check(monkeypatch, honest_offers=False)
        f, m = build(random_instance(3, 12, matroid_kind, "modular", rank=4))
        residue = max_weight_base(m, [f((u,)) for u in range(m.n)])
        with pytest.raises(InternalInvariantError, match="independence oracle did not extend to a full base"):
            rp_greedy(f, m, residue)
        assert m.greedy_scan(m.ground) == []  # the lie began at the residue check


class TestSelfPairRound:
    """A copy whose candidate base is its residue, every gain finite and non-negative, pairs each u with itself."""

    @pytest.mark.parametrize(
        "gain, refused", [(math.nan, None), (-1.0, "-1.0"), (math.inf, "inf")], ids=["nan", "negative", "infinite"]
    )
    def test_an_unfit_gain_takes_the_general_loop(self, monkeypatch, gain, refused):
        """On U(2, 2) the one base {0, 1} is the residue and every copy's candidate base; id 1 gains ``gain``.

        A NaN id gets no edge, so left vertex 1 has none and the matching
        fails; a negative or infinite gain reaches ``add_edge``, which
        refuses it.
        """
        graphs = []
        monkeypatch.setattr(
            algorithms, "max_weight_perfect_matching",
            lambda graph: graphs.append(graph.edges) or max_weight_perfect_matching(graph),
        )
        table = (1.0, gain)
        _f, m = make(2, uniform(2), modular(1, 1))
        f = SetFunction(2, lambda members: sum(table[x] for x in members))
        if refused is None:
            with pytest.raises(InternalInvariantError, match="exchange graph lost its perfect matching"):
                rp_greedy(f, m, (0, 1))
            assert graphs == [((0, 0, 1.0, 0), (0, 1, 1.0, 0))]
        else:
            with pytest.raises(ValueError, match=f"^edge weight must be finite and non-negative, got {refused}$"):
                rp_greedy(f, m, (0, 1))
            assert graphs == []

    def test_the_corpus_runs_both_kinds_of_round(self, monkeypatch):
        """Over the (8, 3) corpus and the hard fixtures, some copies take a self-pair round and some the general loop.

        A self-pair round stores its column's edges without ``add_edge``,
        each pairing a residue id with itself; a general round adds every
        edge of its column through ``add_edge``.  The opening round builds
        column 0 alone and stores its edges for every other copy, so each
        copied column is counted as the kind of column 0.
        """
        tally = {"self-pair": 0, "general": 0}
        added, bases, opening = set(), [], [False]  # opening[0]: the next graph is a call's opening round
        real_add_edge, real_rp_greedy = WeightedBipartiteGraph.add_edge, algorithms.rp_greedy

        def recording_add_edge(graph, left, right, weight, payload=-1):
            added.add(right)
            real_add_edge(graph, left, right, weight, payload)

        def recording_matcher(graph):
            columns = [
                [(left, weight, payload) for left, j, weight, payload in graph.edges if j == right]
                for right in range(graph.left_size)
            ]
            first, opening[0] = opening[0], False
            if first:  # only column 0 was built; every other column holds its edges
                assert added <= {0} and all(column == columns[0] for column in columns)
            for right, column in enumerate(columns):
                if (0 if first else right) in added:
                    tally["general"] += 1
                else:
                    assert column and all(payload == bases[-1][left] for left, _weight, payload in column)
                    tally["self-pair"] += 1
            added.clear()
            return max_weight_perfect_matching(graph)

        def recording_rp_greedy(f, matroid, residue):
            bases.append(canonical(residue))
            opening[0] = True
            return real_rp_greedy(f, matroid, residue)

        monkeypatch.setattr(WeightedBipartiteGraph, "add_edge", recording_add_edge)
        monkeypatch.setattr(algorithms, "max_weight_perfect_matching", recording_matcher)
        monkeypatch.setattr(algorithms, "rp_greedy", recording_rp_greedy)
        hard = sorted((Path(__file__).parent / "data" / "hard").glob("*.json"))
        for instances, expected in [
            (enumerate_small_instances(8, 3), {"self-pair": 2961, "general": 1355}),
            (map(load, hard), {"self-pair": 35, "general": 19}),
        ]:
            tally.update({"self-pair": 0, "general": 0})
            for instance in instances:
                f, m = build(instance)
                for algorithm in ("rpgreedy", "msg-det"):
                    solve(f, m, algorithm)
            assert tally == expected


def fresh_base(copy, gains):
    """The base a fresh stable sort by ``gains`` and a greedy scan keep on ``contract(copy.matroid, copy.solution)``.

    The checked contraction's and the scan's queries are taken back off the
    counter.  The view's ground must be the copy's.
    """
    counts = copy.matroid.counts
    asked = counts.independence_queries
    residual = contract(copy.matroid, copy.solution)
    assert residual.ground == copy.ground
    chosen = sorted(residual.greedy_scan(sorted(residual.ground, key=gains.__getitem__, reverse=True)))
    counts.independence_queries = asked
    return chosen


@pytest.fixture
def checked_orders(monkeypatch):
    """Check every base a grown copy returns against a fresh stable sort by its gains and a greedy scan along it.

    Every base a copy returns, reused or scanned, must be ``fresh_base`` of
    the copy's gains, and a copy of the base the grower keeps.  Returns a
    tally of the copies' bases, those that reused last round's base without
    a ``max_weight_base`` sort and scan, and those whose table or previous
    table held a NaN, each of which must have scanned afresh.
    """
    tally = {"bases": 0, "reused": 0, "nan": 0, "scans": 0}
    real_base, real_scan = algorithms._GrownCopy.base, algorithms.max_weight_base

    def counted_scan(*args):
        tally["scans"] += 1
        return real_scan(*args)

    def checked_base(copy):
        last, scans = list(copy.gains.values()), tally["scans"]
        gains, chosen = real_base(copy)
        assert chosen == fresh_base(copy, gains) and chosen is not copy.kept
        tally["bases"] += 1
        tally["reused"] += tally["scans"] == scans
        if any(map(math.isnan, [*last, *gains.values()])):
            assert tally["scans"] == scans + 1
            tally["nan"] += 1
        return gains, chosen

    monkeypatch.setattr(algorithms, "max_weight_base", counted_scan)
    monkeypatch.setattr(algorithms._GrownCopy, "base", checked_base)
    return tally


class TestReusedOrder:
    """A grown copy's base is what a fresh sort by gain and a scan give, whether it reuses last round's or sorts."""

    @pytest.mark.parametrize(
        "function_kind", ["coverage", "weighted_coverage", "fractional", "concave_of_modular", "modular"]
    )
    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition", "graphic"])
    def test_every_order_is_the_stable_sort(self, checked_orders, matroid_kind, function_kind):
        rng = random.Random(f"{matroid_kind}-{function_kind}")
        kind = "weighted_coverage" if function_kind == "fractional" else function_kind
        for seed in range(2):
            instance = random_instance(seed, GROW_MIN_N, matroid_kind, kind, rank=5)
            if function_kind == "fractional":
                instance = fractional(instance, rng)
            f, m = build(instance)
            for algorithm in ("msg-det", "msg", "rpgreedy"):
                report = solve(f, m, algorithm, seed=seed)
                assert is_base(m, report.solution), (seed, algorithm)
        if function_kind == "modular":  # rows never change: each copy sorts in its first round only
            assert checked_orders["reused"] > checked_orders["bases"] / 2
        else:
            assert checked_orders["bases"] > checked_orders["reused"]

    def test_a_nan_entry_sorts_afresh(self, checked_orders):
        f, m = build(random_instance(5, 16, "partition", "modular", rank=5))
        inner = f._evaluate
        f._evaluate = lambda members: math.nan if members == (9, 11) else inner(members)
        report = solve(f, m, "rpgreedy")
        # pinned from the grower that sorted every round afresh; the counts were
        # re-pinned when a grown copy reused its base on more rounds and stopped
        # checking its contractions, and again when rp_greedy built its opening
        # round as one column and stopped asking any set twice, and again when
        # its scans began to share the call's store of answers
        assert (report.solution, report.value) == ((3, 4, 5, 7, 11), 35.0)
        assert (report.counts.value_queries, report.counts.independence_queries) == (313, 44)
        assert checked_orders["nan"] >= 2  # the round with the NaN and the round after it


class TestReusedBase:
    """A grown copy keeps last round's base less the gain only where a fresh sort and scan keep it too."""

    @staticmethod
    def two_rounds(monkeypatch, first, second):
        """Grow a copy on U(2, 4) by id 0: the gains are ``first`` on ids 0-3, then ``second`` on ids 1-3.

        f(S) sums ``first`` over S without 0, and is first[0] plus ``second``
        summed over S less 0 otherwise.  Returns the opening base, the second
        round's base, the base a fresh sort and scan give for the second
        round's gains, and the number of sorts and scans the copy made.
        """
        scans = []
        real_scan = algorithms.max_weight_base
        monkeypatch.setattr(algorithms, "max_weight_base", lambda *args: scans.append(1) or real_scan(*args))

        def evaluate(members):
            if 0 not in members:
                return sum(first[x] for x in members)
            return first[0] + sum(second[x - 1] for x in members if x)

        _f, m = make(4, uniform(2), modular(1, 1, 1, 1))
        copy = algorithms._GrownCopy(SetFunction(4, evaluate), m, {})
        _gains, opening = copy.base()
        assert 0 in opening
        copy.gain(0)
        gains, chosen = copy.base()
        return opening, chosen, fresh_base(copy, gains), len(scans)

    def test_falling_gains_off_the_base_keep_it(self, monkeypatch):
        opening, chosen, fresh, sorts = self.two_rounds(monkeypatch, (5.0, 4.0, 3.0, 2.0), (4.0, 1.0, 2.0))
        assert (opening, chosen, fresh, sorts) == ([0, 1], [1], [1], 1)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((5.0, 4.0, 3.0, 2.0), (2.5, 3.0, 2.0)),  # a gain of the base moves, no gain rises
            ((5.0, 4.0, 3.0, 2.0), (4.0, 5.0, 2.0)),  # a gain off the base rises: f is not submodular
            ((1.0, 1.0, 1.0, 2.0), (1.0, math.nan, 2.0)),  # a NaN in the new row reorders the fresh sort
            ((1.0, 1.0, 1.0, math.nan), (1.0, 1.0, 2.0)),  # a NaN in the old row
        ],
        ids=["base-gain-moves", "gain-rises", "nan-in-new-row", "nan-in-old-row"],
    )
    def test_each_guard_sorts_and_scans_afresh(self, monkeypatch, first, second):
        opening, chosen, fresh, sorts = self.two_rounds(monkeypatch, first, second)
        assert fresh != opening[1:]  # the opening base less the gain (its smallest id) would be wrong
        assert (chosen, sorts) == (fresh, 2)

    def test_the_gained_id_contracts_unasked(self, monkeypatch):
        """The opening round scans the handed matroid; a gained id is cut from the copy's ground, asking nothing."""
        f, m = build(random_instance(3, 12, "uniform", "modular", rank=4))
        scanned = []
        real_scan = algorithms.max_weight_base
        monkeypatch.setattr(
            algorithms, "max_weight_base", lambda view, *args: scanned.append(view) or real_scan(view, *args)
        )
        copy = algorithms._GrownCopy(f, m, {})
        _gains, opening = copy.base()
        assert scanned == [m] and copy.ground is m.ground  # Matroid compares by identity
        calls, kernel, asked = [], m._is_independent, m.counts.independence_queries
        m._is_independent = lambda members: calls.append(members) or kernel(members)
        copy.gain(opening[0])
        _gains, chosen = copy.base()  # a modular row is last round's less the gain: the base is reused
        assert chosen == opening[1:] and len(scanned) == 1
        assert (calls, m.counts.independence_queries) == ([], asked)
        m._is_independent = kernel
        assert copy.matroid is m and copy.ground == contract(m, opening[:1]).ground  # the checked view's ground


class TestContractedViews:
    """A grown copy builds its contracted matroid only for a fresh scan, never on a reused round."""

    @staticmethod
    def rounds(monkeypatch, instances):
        """Solve each instance with every grower; per ``base`` call: (opening, fresh scans, views built)."""
        tally = []
        real_base, real_scan, real_contracted = (
            algorithms._GrownCopy.base, algorithms.max_weight_base, algorithms._contracted
        )
        scanned, built = [], []
        monkeypatch.setattr(algorithms, "max_weight_base", lambda m, *args: scanned.append(m) or real_scan(m, *args))
        monkeypatch.setattr(
            algorithms, "_contracted", lambda m, away: built.append(real_contracted(m, away)) or built[-1]
        )

        def counted_base(copy):
            opening, scans, views = not copy.solution, len(scanned), len(built)
            result = real_base(copy)
            tally.append((opening, len(scanned) - scans, len(built) - views))
            if len(scanned) > scans:  # the scan read the handed matroid, or the one view built for it
                assert scanned[-1] is (copy.matroid if opening else built[-1])
            return result

        monkeypatch.setattr(algorithms._GrownCopy, "base", counted_base)
        for instance in instances:
            f, m = build(instance)
            for algorithm in ("msg-det", "msg", "rpgreedy", "rrgreedy"):
                solve(f, m, algorithm)
        return tally

    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_one_view_per_fresh_scan(self, monkeypatch, matroid_kind):
        instances = [random_instance(seed, 20, matroid_kind, "coverage", rank=5) for seed in range(3)]
        # an opening scan of the handed matroid, fresh scans of one view each and reused rounds building none
        assert set(self.rounds(monkeypatch, instances)) == {(True, 1, 0), (False, 1, 1), (False, 0, 0)}

    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_a_modular_copy_builds_none_after_its_opening(self, monkeypatch, matroid_kind):
        instances = [random_instance(seed, GROW_MIN_N, matroid_kind, "modular", rank=5) for seed in range(2)]
        assert set(self.rounds(monkeypatch, instances)) == {(True, 1, 0), (False, 0, 0)}


class TestDeductions:
    """The solvers skip only questions whose answers the matroid axioms fix."""

    @staticmethod
    def shapes():
        rng = random.Random(25)
        yield from enumerate_small_instances(8, 3)
        for matroid_kind in MATROID_KINDS:
            for seed in range(3):
                yield fractional(random_instance(seed, 14, matroid_kind, "weighted_coverage", rank=5), rng)
                yield random_instance(seed, 14, matroid_kind, "concave_of_modular", rank=5)

    def test_each_pool_is_the_full_ground_pool(self, monkeypatch):
        """split's pool in each round equals a fresh build's pool over the whole ground.

        greedy is split's sweep at p = 1, so both biases are checked.
        """
        real_pool = algorithms._feasible_pool
        reference = []  # the fresh build's matroid of the instance being solved
        pools = []

        def checked_pool(matroid, used, candidates):
            pool = real_pool(matroid, used, candidates)
            fresh = reference[-1]
            assert pool == [u for u in fresh.ground if u not in used and fresh.is_independent(used | {u})], used
            pools.append(pool)
            return pool

        monkeypatch.setattr(algorithms, "_feasible_pool", checked_pool)
        for instance in self.shapes():
            f, m = build(instance)
            reference.append(build(instance)[1])
            for algorithm in ("greedy", "split"):
                report = solve(f, m, algorithm)
                assert is_base(m, report.solution), (instance, algorithm)
        assert len(pools) > 1000

    @pytest.mark.parametrize("matroid_kind", MATROID_KINDS)
    def test_the_copies_share_their_opening_round(self, monkeypatch, matroid_kind):
        """At rank k, rp_greedy asks one opening base for all k copies, then k bases a round: k(k-1)+1 in all."""
        calls = []
        real_base = algorithms._GrownCopy.base

        def counted_base(copy):
            calls.append(copy)
            return real_base(copy)

        monkeypatch.setattr(algorithms._GrownCopy, "base", counted_base)
        for k in range(1, 7):
            f, m = build(random_instance(k, 14, matroid_kind, "coverage", rank=k))
            base = max_weight_base(m, [0.0] * m.n)
            calls.clear()
            rp_greedy(f, m, base)
            assert len(calls) == k * (k - 1) + 1, k
            assert len(set(map(id, calls))) == k  # every copy asks its own bases after the opening round
            calls.clear()
            assert rp_greedy(f, contract(m, base), ()) == () and not calls  # rank 0: no copy, no base
