"""Oracle contract tests: canonical sets, counters, marginals, contraction."""

import itertools

import pytest
from hypothesis import given, strategies as st

from submod import (
    FunctionSpec,
    Instance,
    Matroid,
    MatroidSpec,
    SetFunction,
    build,
    canonical,
    contract,
    is_base,
    marginal_function,
    random_instance,
)

from submod.core import _contracted
from submod.instances import GROW_MIN_N

from oracle_logs import logged_evaluator, logged_independence
from test_instances import independence_reference


def modular_instance(weights, k=None):
    n = len(weights)
    return build(
        Instance(
            n=n,
            matroid=MatroidSpec(kind="uniform", k=k if k is not None else n),
            function=FunctionSpec(kind="modular", weights=tuple(weights)),
        )
    )


def counting_coverage(n=8):
    """A root coverage oracle (element u covers items u and u+1) that logs its evaluator calls."""
    calls = []

    def evaluate(members):
        calls.append(members)
        return float(len({item for u in members for item in (u, u + 1)}))

    return SetFunction(n, evaluate), calls


def counting_uniform(n=10, k=7):
    """A root uniform-matroid oracle that logs its evaluator calls."""
    calls = []

    def independent(members):
        calls.append(members)
        return len(members) <= k

    return Matroid(n, independent, k), calls


def coverage_instance(covers, k, universe_weights=None):
    n = len(covers)
    m = 1 + max((item for cover in covers for item in cover), default=0)
    return build(
        Instance(
            n=n,
            matroid=MatroidSpec(kind="uniform", k=k),
            function=FunctionSpec(
                kind="coverage",
                universe_weights=tuple(universe_weights) if universe_weights else (1,) * m,
                covers=tuple(tuple(c) for c in covers),
            ),
        )
    )


class TestCanonical:
    def test_sorts_and_dedups(self):
        assert canonical([3, 1, 3, 2]) == (1, 2, 3)

    def test_empty(self):
        assert canonical([]) == ()

    def test_range_check(self):
        with pytest.raises(ValueError):
            canonical([0, 5], n=3)
        with pytest.raises(ValueError):
            canonical([-1], n=3)

    @given(st.lists(st.integers(min_value=0, max_value=20)))
    def test_idempotent_and_sorted(self, xs):
        once = canonical(xs)
        assert list(once) == sorted(set(xs))
        assert canonical(once) == once


class TestCounters:
    def test_value_query_increments_by_one(self):
        f, _ = modular_instance([2, 1])
        before = f.counts.value_queries
        f((0,))
        assert f.counts.value_queries == before + 1

    def test_independence_query_increments_by_one(self):
        _, m = modular_instance([2, 1], k=1)
        before = m.counts.independence_queries
        m.is_independent((0,))
        assert m.counts.independence_queries == before + 1

    def test_shared_counts_object(self):
        f, m = modular_instance([1, 2, 3], k=2)
        f(())
        m.is_independent((0, 1))
        assert f.counts is m.counts
        assert f.counts.value_queries == 1
        assert f.counts.independence_queries == 1


class TestMarginalFunction:
    def test_modular_marginal_is_weight(self):
        f, _ = modular_instance([2, 1])
        g = marginal_function(f, (0,))
        assert g((1,)) == 1.0

    def test_empty_set_maps_to_zero(self):
        f, _ = coverage_instance([(0, 1), (1, 2), (2,)], k=2)
        g = marginal_function(f, (0, 2))
        assert g(()) == 0.0

    def test_coverage_marginal(self):
        # e0 covers {0,1}, e1 covers {1,2}: adding e1 after e0 gains item 2 only
        f, _ = coverage_instance([(0, 1), (1, 2)], k=2)
        g = marginal_function(f, (0,))
        assert g((1,)) == 1.0

    def test_out_of_range_anchor(self):
        f, _ = modular_instance([2, 1])
        with pytest.raises(ValueError):
            marginal_function(f, (7,))

    def test_counts_on_parent_counter_with_cache(self):
        f, _ = modular_instance([3, 1, 2])
        g = marginal_function(f, (0,))
        start = f.counts.value_queries
        g((1,))
        assert f.counts.value_queries == start + 2  # first call evaluates and caches f(anchor)
        g((2,))
        assert f.counts.value_queries == start + 3  # later calls cost one fresh query

    def test_marginal_of_marginal_equals_union_anchor(self):
        f, _ = coverage_instance([(0, 1), (1, 2), (2, 3), (3,)], k=3)
        nested = marginal_function(marginal_function(f, (0,)), (1,))
        direct = marginal_function(f, (0, 1))
        for r in range(3):
            for s in itertools.combinations((2, 3), r):
                assert nested(s) == pytest.approx(direct(s), abs=1e-12)

    def test_deep_chain_stays_flat(self):
        f, calls = counting_coverage()
        deepest = f
        for u in range(5):
            deepest = marginal_function(deepest, (u,))
        assert deepest.root is f
        assert deepest.anchored == (0, 1, 2, 3, 4)
        start_queries, start_calls = f.counts.value_queries, len(calls)
        deepest((5,))
        assert f.counts.value_queries == start_queries + 2  # the cached offset plus the call itself
        deepest((6,))
        assert f.counts.value_queries == start_queries + 3
        assert len(calls) - start_calls == f.counts.value_queries - start_queries
        assert calls[-1] == (0, 1, 2, 3, 4, 6)
        direct = marginal_function(f, (0, 1, 2, 3, 4))
        for r in range(4):
            for s in itertools.combinations((5, 6, 7), r):
                assert deepest(s) == direct(s)


class TestSingletonTable:
    @pytest.mark.parametrize("anchor", [None, (), (3,), (0, 2, 5), (7,)])
    def test_same_values_billing_and_calls_as_one_call_per_entry(self, anchor):
        f, calls = counting_coverage()
        twin, twin_calls = counting_coverage()
        view = f if anchor is None else marginal_function(f, anchor)
        twin_view = twin if anchor is None else marginal_function(twin, anchor)
        candidates = (6, 0, 3, 7, 2, 3, 5)  # anchored ids and a repeat included
        table = view.singleton_table(candidates)
        assert table == {u: twin_view((u,)) for u in candidates}
        assert f.counts.value_queries == twin.counts.value_queries == len(candidates) + (anchor is not None)
        assert calls == twin_calls
        assert len(calls) == f.counts.value_queries

    def test_empty_candidates_cost_nothing(self):
        f, calls = counting_coverage()
        view = marginal_function(f, (1, 4))
        assert view.singleton_table(()) == {}
        assert f.counts.value_queries == 0 and calls == []
        view.singleton_table((2,))
        assert f.counts.value_queries == 2  # the offset is still billed on the first entry

    @pytest.mark.parametrize("bad", [-1, 8, 20])
    def test_out_of_range_id_is_the_call_error(self, bad):
        """Nothing is billed or answered, by the plain and by the hooked path, wherever the bad id lies."""
        plain, plain_calls = counting_coverage()
        with pytest.raises(ValueError) as expected:
            marginal_function(plain, (1,))((bad,))
        assert plain.counts.value_queries == 0
        hooked = coverage_instance(tuple((u, u + 1) for u in range(8)), 8)[0]
        hooked_calls = []
        hooked._evaluate = logged_evaluator(hooked._evaluate, lambda members, _: hooked_calls.append(members), True)
        for f, calls in ((plain, plain_calls), (hooked, hooked_calls)):
            for at in (0, 2, 4):  # first, in the middle and last but one
                ids = [0, 3, 2, 5, 30]  # 30 is out of range too, but the error names the first bad id
                ids.insert(at, bad)
                for row in (tuple(ids), ids, (u for u in ids)):
                    start = f.counts.value_queries
                    calls.clear()
                    with pytest.raises(ValueError) as raised:
                        marginal_function(f, (1,)).singleton_table(row)
                    assert str(raised.value) == str(expected.value)
                    assert calls == [] and f.counts.value_queries == start  # not even the view's offset

    def test_evaluator_is_looked_up_at_call_time(self):
        f, _ = counting_coverage()
        view = marginal_function(f, (0,))
        patched = []
        inner = f._evaluate
        f._evaluate = lambda members: patched.append(members) or inner(members)
        view.singleton_table((1, 2))
        assert patched == [(0,), (0, 1), (0, 2)]
        assert len(patched) == f.counts.value_queries

    @pytest.mark.parametrize("anchor", [None, (1,), (0, 3)])
    @pytest.mark.parametrize("kind", ["modular", "coverage"])
    def test_replaced_evaluator_of_a_built_oracle_answers_every_entry(self, kind, anchor):
        def make():
            if kind == "modular":
                return modular_instance((3, 1, 4, 1, 5, 9))[0]
            return coverage_instance(((0, 1), (1, 2), (2,), (3, 0), (4,), (1, 4)), 2)[0]

        f, twin = make(), make()
        inner = f._evaluate
        assert hasattr(inner, "extend")  # build offers a hook here; the replacement has none
        seen = []
        f._evaluate = lambda members: seen.append(members) or inner(members)
        view, twin_view = f, twin
        if anchor is not None:
            view, twin_view = marginal_function(f, anchor), marginal_function(twin, anchor)
        candidates = (5, 0, 1, 3, 1)
        assert view.singleton_table(candidates) == twin_view.singleton_table(candidates)
        assert len(seen) == f.counts.value_queries == twin.counts.value_queries
        assert seen[-3:] == [canonical((*(anchor or ()), u)) for u in (1, 3, 1)]


class TestGrownViews:
    """A view grown by one id from a view that answered a row: same tables, billing and root questions as a fresh one."""

    @staticmethod
    def twins(kind):
        n = GROW_MIN_N + 8
        if kind == "modular":
            return [modular_instance([(7 * u) % 10 for u in range(n)])[0] for _ in range(2)]
        covers = tuple((u % 20, (3 * u) % 20) for u in range(n))
        return [coverage_instance(covers, n)[0] for _ in range(2)]

    @pytest.mark.parametrize("kind", ["modular", "coverage"])
    def test_same_rows_as_fresh_views(self, kind):
        f, twin = self.twins(kind)
        log, twin_log = [], []
        f._evaluate = logged_evaluator(f._evaluate, lambda members, _: log.append(members), True)
        twin._evaluate = logged_evaluator(twin._evaluate, lambda members, _: twin_log.append(members), True)
        ids = tuple(range(f.n))
        view = marginal_function(f, (4,))
        view.singleton_table(ids)
        twin_view = marginal_function(twin, (4,))
        twin_view.singleton_table(ids)
        for u in (9, 4, 30, 2, 51):  # 4 is already anchored: no id is added
            view = marginal_function(view, (u,))
            assert (view._row is not None) == (u != 4)  # a row function from the parent's grow
            twin_view = marginal_function(twin, twin_view.anchored + (u,))
            ids = tuple(v for v in ids if v != u)
            table = view.singleton_table(ids)
            assert [(v, x.hex()) for v, x in table.items()] == [
                (v, x.hex()) for v, x in twin_view.singleton_table(ids).items()
            ]
        assert f.counts.value_queries == twin.counts.value_queries
        assert log == twin_log

    def test_a_replaced_evaluator_answers_the_grown_view(self):
        f, _ = self.twins("coverage")
        ids = tuple(range(f.n))
        view = marginal_function(f, ())
        view.singleton_table(ids)
        inner, seen = f._evaluate, []
        f._evaluate = lambda members: seen.append(members) or inner(members)
        grown = marginal_function(view, (5,))
        grown.singleton_table(ids[:5] + ids[6:])
        assert seen == [(5,)] + [canonical((5, u)) for u in ids if u != 5]
        assert len(seen) == f.counts.value_queries - (len(ids) + 1)  # after the first row and its offset


class TestContract:
    def test_uniform_contraction(self):
        _, m = modular_instance([1, 1, 1], k=2)
        mc = contract(m, (0,))
        assert mc.rank == 1
        assert mc.ground == (1, 2)
        assert mc.is_independent((1,))
        assert not mc.is_independent((1, 2))

    def test_contract_by_empty_is_identity(self):
        _, m = modular_instance([1, 1, 1], k=2)
        mc = contract(m, ())
        assert mc.rank == m.rank and mc.ground == m.ground
        for r in range(4):
            for s in itertools.combinations(range(3), r):
                assert mc.is_independent(s) == (len(s) <= 2)

    def test_partition_contraction(self):
        _, m = build(
            Instance(
                n=3,
                matroid=MatroidSpec(kind="partition", parts=((0, 1), (2,)), capacities=(1, 1)),
                function=FunctionSpec(kind="modular", weights=(1, 1, 1)),
            )
        )
        mc = contract(m, (0,))
        assert not mc.is_independent((1,))
        assert mc.is_independent((2,))

    def test_contract_dependent_set_rejected(self):
        _, m = modular_instance([1, 1, 1], k=1)
        with pytest.raises(ValueError):
            contract(m, (0, 1))

    def test_contracted_elements_out_of_ground(self):
        _, m = modular_instance([1, 1, 1], k=2)
        mc = contract(m, (0,))
        with pytest.raises(ValueError):
            mc.is_independent((0,))

    def test_contract_composition(self):
        _, m = build(
            Instance(
                n=4,
                matroid=MatroidSpec(kind="graphic", num_vertices=4,
                                    edges=((0, 1), (1, 2), (2, 3), (0, 2))),
                function=FunctionSpec(kind="modular", weights=(1, 1, 1, 1)),
            )
        )
        nested = contract(contract(m, (0,)), (1,))
        direct = contract(m, (0, 1))
        assert nested.rank == direct.rank
        assert nested.ground == direct.ground
        for r in range(3):
            for s in itertools.combinations(direct.ground, r):
                assert nested.is_independent(s) == direct.is_independent(s)

    def test_deep_chain_stays_flat(self):
        m, calls = counting_uniform()
        deepest = m
        for u in range(5):
            deepest = contract(deepest, (u,))
        assert deepest.root is m
        assert deepest.anchored == (0, 1, 2, 3, 4)
        direct = contract(m, (0, 1, 2, 3, 4))
        assert (deepest.rank, deepest.ground) == (direct.rank, direct.ground) == (2, (5, 6, 7, 8, 9))
        start_queries, start_calls = m.counts.independence_queries, len(calls)
        assert deepest.is_independent((5, 9))
        assert m.counts.independence_queries == start_queries + 1
        assert calls[-1] == (0, 1, 2, 3, 4, 5, 9)
        for r in range(4):
            for s in itertools.combinations(direct.ground, r):
                assert deepest.is_independent(s) == direct.is_independent(s)
        assert len(calls) - start_calls == m.counts.independence_queries - start_queries


# ids outside [0, n), ids outside ground (anchored ones included) and dependent contractions
ERROR_KINDS = ("out of range for ground set", "is not in the matroid ground set", "cannot contract a dependent set")


class TestOneIdPaths:
    """The one-id paths of ``contract`` and ``marginal_function`` equal the general ones.

    Twin oracles built from one instance log every root question.  For
    ``marginal_function``, whose one-id path inserts the id into the anchor
    by bisect, ``(u, u)`` is the same set spelled with two ids, which takes
    the general path, and each pair of calls must leave the same views, the
    same errors, the same billing and the same root questions.
    ``_contracted(view, away)`` must build the view ``contract(view, away)``
    builds wherever that succeeds, for one id and for several, asking and
    billing nothing.
    """

    @staticmethod
    def twins(matroid_kind, n):
        """Two logged builds of one instance: (f, m, log) each."""
        instance = random_instance(7, n, matroid_kind, "coverage", rank=5)
        pairs = []
        for _ in range(2):
            f, m = build(instance)
            log = []
            f._evaluate = logged_evaluator(f._evaluate, lambda members, _, log=log: log.append(("value", members)), True)
            m._is_independent = logged_independence(
                m._is_independent, lambda members, _, log=log: log.append(("indep", members)), False
            )
            pairs.append((f, m, log))
        return pairs

    @staticmethod
    def outcome(call):
        """("ok", result) or ("error", message) of a call that may raise ValueError."""
        try:
            return "ok", call()
        except ValueError as exc:
            return "error", str(exc)

    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition", "graphic"])
    def test_contract(self, matroid_kind):
        (_, m, log), (_, twin, twin_log) = self.twins(matroid_kind, 12)
        full = m.greedy_scan(m.ground)
        twin.greedy_scan(twin.ground)
        chains = [(), (full[1],), (full[3], full[0]), tuple(full)]  # the last one leaves rank 0
        ids = (-1, *range(m.n), m.n, m.n + 3)
        errors, several = set(), 0
        for chain in chains:
            view, twin_view = contract(m, chain), contract(twin, chain)
            asked, billed = log[:], m.counts.independence_queries
            for away in [(u,) for u in ids] + list(itertools.combinations(ids[1:-1], 2)) + [tuple(full[2:])]:
                start = len(twin_log)
                general = self.outcome(lambda: contract(twin_view, away))
                if general[0] == "ok":
                    one, general = _contracted(view, away), general[1]
                    assert one.root is m and general.root is twin, (chain, away)
                    several += len(away) > 1
                    assert (one.anchored, one.rank, one.ground, one._ground_set) == (
                        general.anchored, general.rank, general.ground, general._ground_set
                    ), (chain, away)
                    assert twin_log[start:] == [("indep", general.anchored)], (chain, away)
                else:
                    errors.add(next(kind for kind in ERROR_KINDS if kind in general[1]))
                assert log == asked and m.counts.independence_queries == billed, (chain, away)
        assert errors == set(ERROR_KINDS) and several > 0

    @pytest.mark.parametrize("matroid_kind", ["uniform", "graphic"])
    def test_marginal_function(self, matroid_kind):
        (f, _, log), (twin, _, twin_log) = self.twins(matroid_kind, GROW_MIN_N)
        errors = 0
        for chain in [(), (4,), (4, 17), (0, 4, 17, GROW_MIN_N - 1)]:
            view, twin_view = marginal_function(f, chain), marginal_function(twin, chain)
            ids = tuple(u for u in range(f.n) if u not in chain)
            view.singleton_table(ids)  # a row, so that a view grown from this one derives its first row
            twin_view.singleton_table(ids)
            for u in (-1, 0, 4, 5, 17, 30, GROW_MIN_N - 1, GROW_MIN_N, GROW_MIN_N + 3):
                one = self.outcome(lambda: marginal_function(view, (u,)))
                general = self.outcome(lambda: marginal_function(twin_view, (u, u)))
                assert one[0] == general[0], (chain, u)
                if one[0] == "error":
                    assert one == general, (chain, u)
                    errors += 1
                    continue
                one, general = one[1], general[1]
                assert one.anchored == general.anchored == canonical((*chain, u)), (chain, u)
                assert (one._row is None) == (u in chain), (chain, u)  # only a one-id step grows a row
                rest = tuple(v for v in ids if v != u)
                table, twin_table = one.singleton_table(rest), general.singleton_table(rest)
                assert [(v, x.hex()) for v, x in table.items()] == [(v, x.hex()) for v, x in twin_table.items()]
                assert f.counts == twin.counts and log == twin_log, (chain, u)
        assert errors == 4 * 3  # -1, n and n + 3 on each chain


class TestIsBase:
    def test_uniform_base(self):
        _, m = modular_instance([1, 1, 1], k=2)
        assert is_base(m, (0, 1))
        assert not is_base(m, (0,))

    def test_partition_non_base(self):
        _, m = build(
            Instance(
                n=3,
                matroid=MatroidSpec(kind="partition", parts=((0, 1), (2,)), capacities=(1, 1)),
                function=FunctionSpec(kind="modular", weights=(1, 1, 1)),
            )
        )
        assert not is_base(m, (0, 1))
        assert is_base(m, (1, 2))

    def test_billing_and_errors(self):
        root, calls = counting_uniform(n=10, k=3)
        view = contract(root, (4,))
        start = root.counts.independence_queries
        assert is_base(view, [2, 0, 2])  # a repeated id counts once
        assert calls[-1] == (0, 2, 4)
        assert not is_base(view, (0, 1, 2)) and not is_base(view, ())  # wrong size: no query
        assert root.counts.independence_queries == start + 1 and len(calls) == root.counts.independence_queries
        for members in ((0, 10), (-1,), (0, 1, 2, 11)):  # out of range, whatever the size
            with pytest.raises(ValueError) as expected:
                canonical(members, 10)
            with pytest.raises(ValueError) as raised:
                is_base(view, members)
            assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError, match="element 4 is not in the matroid ground set"):
            is_base(view, (0, 4))
        assert root.counts.independence_queries == start + 1


def primitive_root(spec):
    """The root matroid ``build`` makes from ``spec`` on ids 0..4."""
    return build(Instance(n=5, matroid=spec, function=FunctionSpec(kind="modular", weights=(1,) * 5)))[1]


def logged_matroid(spec, hooked=False):
    """A root matroid built from ``spec`` whose kernel logs the set of every answer it gives.

    Returns the matroid and its log of ``(members, by_hook)`` pairs; see
    ``oracle_logs.logged_independence``.
    """
    m = primitive_root(spec)
    log = []
    m._is_independent = logged_independence(m._is_independent, lambda *answer: log.append(answer), hooked)
    return m, log


PRIMITIVE_SPECS = {
    "uniform": MatroidSpec(kind="uniform", k=3),
    "partition": MatroidSpec(kind="partition", parts=((0, 1, 2), (3, 4)), capacities=(2, 1)),
    "graphic": MatroidSpec(kind="graphic", num_vertices=4, edges=((0, 1), (1, 2), (0, 2), (2, 3), (1, 3))),
    # edge 2 is a self-loop and edge 4 runs parallel to edge 0
    "graphic-multi": MatroidSpec(kind="graphic", num_vertices=4, edges=((0, 1), (1, 2), (2, 2), (2, 3), (1, 0))),
}
# each entry contracts the root by these sets, one after another; the last leaves rank 0
PRIMITIVE_VIEWS = ((), ((1,),), ((0,), (3,)), ((0, 1, 3),))


def primitive_twins(kind, contractions, hooked):
    """Two equal (view, log) pairs: one for the primitive, with or without hooks, and one for plain queries.

    The logs and counters start after the contractions, so each holds only
    the answers the test asks for.
    """
    twins = []
    for wrapped in (hooked, False):
        root, log = logged_matroid(PRIMITIVE_SPECS[kind], wrapped)
        view = root
        for members in contractions:
            view = contract(view, members)
        log.clear()
        root.counts.independence_queries = 0
        twins.append((view, log))
    return twins


def plain_scan(matroid, order):
    chosen = []
    for u in order:
        if len(chosen) == matroid.rank:
            break
        if matroid.is_independent(chosen + [u]):
            chosen.append(u)
    return chosen


def subsets(ground):
    return [s for r in range(len(ground) + 1) for s in itertools.combinations(ground, r)]


def assert_same_answers(log, plain_log, hooked):
    """The primitive's kernel answered for the plain queries' sets, each by a hook exactly when hooked."""
    assert [members for members, _ in log] == [members for members, _ in plain_log]
    assert all(by_hook is hooked for _, by_hook in log)


# a dependent set of each kind, with a part one over its capacity or a cycle
DEPENDENT = {"uniform": (0, 1, 2, 3), "partition": (0, 1, 2), "graphic": (0, 1, 2), "graphic-multi": (0, 4)}


class TestIndependencePrimitives:
    """``exchange_test`` and ``greedy_scan`` answer exactly what ``is_independent`` would.

    Each cell runs twice: through the kernel's ``exchange`` hook, which
    answers the swaps and the scans' offers, and through a plain wrapper,
    which the primitives ask once per answer.  Either way every answer is
    for the set ``is_independent`` asks about, and a hook answer equals the
    kernel's.
    """

    @pytest.mark.parametrize("contractions", PRIMITIVE_VIEWS)
    @pytest.mark.parametrize("kind", sorted(PRIMITIVE_SPECS))
    def test_exchange_test_equals_is_independent(self, kind, contractions):
        """Every ``kept``, dependent ones too; the hook answers exactly when ``kept + anchored`` is independent."""
        kernel = primitive_root(PRIMITIVE_SPECS[kind])._is_independent
        for hooked in (False, True):
            (view, log), (plain, plain_log) = primitive_twins(kind, contractions, hooked)
            for kept in subsets(view.ground):
                by_hook = hooked and kernel(canonical(kept + view.anchored))
                start = len(log)
                test = view.exchange_test(kept)
                billed = view.counts.independence_queries
                assert len(log) == billed == plain.counts.independence_queries  # building a test costs nothing
                for u in view.ground:  # u in kept, v == u and v outside kept are all among these
                    for v in (None, *view.ground):
                        answer = test(u, v) if v is not None else test(u)
                        assert answer is plain.is_independent((set(kept) - {v}) | {u}), (kept, u, v, hooked)
                        assert view.counts.independence_queries == plain.counts.independence_queries == len(log)
                assert all(answered is by_hook for _, answered in log[start:]), (kept, hooked)
            assert [members for members, _ in log] == [members for members, _ in plain_log]

    @pytest.mark.parametrize("contractions", PRIMITIVE_VIEWS)
    @pytest.mark.parametrize("kind", sorted(PRIMITIVE_SPECS))
    def test_greedy_scan_equals_plain_scan(self, kind, contractions):
        for hooked in (False, True):
            (view, log), (plain, plain_log) = primitive_twins(kind, contractions, hooked)
            orders = [p for s in subsets(view.ground) for p in itertools.permutations(s)]
            orders += [view.ground[:1] * 2 + view.ground, view.ground[::-1] * 2]  # repeated ids
            for order in orders:
                assert view.greedy_scan(order) == plain_scan(plain, order), (order, hooked)
                assert view.counts.independence_queries == plain.counts.independence_queries == len(log)
            assert_same_answers(log, plain_log, hooked)

    @pytest.mark.parametrize("kind", sorted(PRIMITIVE_SPECS))
    def test_hooks_equal_the_kernel_on_every_set(self, kind):
        """Every set core can hand a hook; ``exchange`` declines each dependent base.

        Each verdict comes from the spec, not from the kernel, whose per-call
        test is itself the ``exchange`` hook's.  The scans run on the root
        contracted by each independent base, so their offers reach the hook
        on every anchor.
        """
        spec = PRIMITIVE_SPECS[kind]
        root = primitive_root(spec)
        kernel = root._is_independent
        ids = range(5)

        def reference_take(members, order, limit):
            """The ids a scan keeps and the number it offers, from one reference verdict per offered id."""
            kept = []
            for asked, u in enumerate(order):
                if len(kept) == limit:
                    return kept, asked
                if independence_reference(spec, members | {u}):
                    members.add(u)
                    kept.append(u)
            return kept, len(order)

        for base in subsets(ids):
            swap = kernel.exchange(base)
            verdict = independence_reference(spec, base)
            assert kernel(base) is verdict, base
            if not verdict:
                assert swap is None, base
                continue
            for add in (None, *(u for u in ids if u not in base)):
                for drop in (None, *base):
                    swapped = {*base, add} - {drop, None}
                    assert swap(add, drop) is independence_reference(spec, swapped), (base, add, drop)
            view = contract(root, base)
            for order in itertools.permutations(view.ground):
                order += order[:2]  # the repeats offer members
                start = view.counts.independence_queries
                kept = view.greedy_scan(order)
                offered = view.counts.independence_queries - start
                assert (kept, offered) == reference_take(set(base), order, view.rank), (base, order)

    def test_root_cells_keep_dependent_sets(self):
        for kind, dependent in DEPENDENT.items():
            root, _ = logged_matroid(PRIMITIVE_SPECS[kind])
            assert dependent in subsets(root.ground) and not root.is_independent(dependent), kind

    def test_build_attaches_the_hooks_and_a_wrapper_drops_them(self):
        for kind, spec in PRIMITIVE_SPECS.items():
            root = primitive_root(spec)
            assert callable(root._is_independent.exchange) and not hasattr(root._is_independent, "scan"), kind
            plain, _ = logged_matroid(spec)
            assert not hasattr(plain._is_independent, "exchange")

    def test_empty_order_costs_nothing(self):
        for hooked in (False, True):
            m, log = logged_matroid(PRIMITIVE_SPECS["graphic"], hooked)
            assert m.greedy_scan(()) == [] and m.greedy_scan(iter(())) == []
            assert m.counts.independence_queries == 0 and log == []

    @pytest.mark.parametrize("bad", [-1, 5, 9, 1])  # 1 is contracted away, so outside ground
    def test_bad_ids_raise_the_plain_error_before_billing(self, bad):
        for hooked in (False, True):
            root, log = logged_matroid(PRIMITIVE_SPECS["uniform"], hooked)
            view = contract(root, (1,))
            start = root.counts.independence_queries
            with pytest.raises(ValueError) as expected:
                view.is_independent((0, bad))
            assert root.counts.independence_queries == start
            with pytest.raises(ValueError) as raised:
                view.exchange_test((0, bad))
            assert str(raised.value) == str(expected.value)
            test = view.exchange_test((0, 2))
            for args in ((bad,), (bad, 0), (bad, bad)):
                with pytest.raises(ValueError) as raised:
                    test(*args)
                assert str(raised.value) == str(expected.value)
            assert root.counts.independence_queries == start and len(log) == start
            for order in ((0, bad, 3), [bad, 0, 7], (u for u in (0, 3, bad))):  # the error names the first bad id
                with pytest.raises(ValueError) as raised:
                    view.greedy_scan(order)
                assert str(raised.value) == str(expected.value)
            assert root.counts.independence_queries == start == len(log)  # not even the ids before the bad one

    @pytest.mark.parametrize("bad", [-1, 5, 9, 1])  # 1 is contracted away, so outside ground
    def test_bad_id_after_the_rank_stop_still_raises(self, bad):
        for hooked in (False, True):
            root, log = logged_matroid(PRIMITIVE_SPECS["uniform"], hooked)
            view = contract(root, (1,))  # rank 2
            start = root.counts.independence_queries
            with pytest.raises(ValueError) as expected:
                view.is_independent((bad,))
            for order in ((0, 2, bad), [0, 2, bad, 3], (u for u in (0, 3, bad)), (0, 2, 3, bad, bad)):
                with pytest.raises(ValueError) as raised:
                    view.greedy_scan(order)
                assert str(raised.value) == str(expected.value)
            assert root.counts.independence_queries == start == len(log)
            rank_zero = contract(view, (0, 2))
            start = root.counts.independence_queries
            with pytest.raises(ValueError) as raised:
                rank_zero.greedy_scan((3, bad))
            assert str(raised.value) == str(expected.value)
            assert root.counts.independence_queries == start == len(log)  # a rank-0 scan checks its ids too


class TestConstruction:
    def test_rank_zero_matroid_allowed_for_contractions(self):
        m = Matroid(2, lambda s: len(s) == 0, rank=0)
        assert m.rank == 0

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            Matroid(2, lambda s: True, rank=-1)

    def test_set_function_counts_argument_optional(self):
        f = SetFunction(2, lambda s: float(len(s)))
        assert f((0, 1)) == 2.0
        assert f.counts.value_queries == 1
