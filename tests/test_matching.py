"""Matching solver tests against the factorial brute force and a dense reference."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import submod.algorithms as algorithms
from submod import (
    InfeasibleMatchingError,
    Matching,
    WeightedBipartiteGraph,
    brute_force_perfect_matching,
    build,
    max_weight_perfect_matching,
    random_instance,
    solve,
)
from submod.reference import dense_reference_matching


def graph_from_edges(k, edges):
    g = WeightedBipartiteGraph(k)
    for left, right, weight, *payload in edges:
        g.add_edge(left, right, weight, payload[0] if payload else -1)
    return g


def random_graph(rng, k, density):
    edges = []
    for left in range(k):
        for right in range(k):
            if rng.random() < density:
                edges.append((left, right, float(rng.randint(0, 20))))
    return graph_from_edges(k, edges)


class TestSmallCases:
    def test_two_by_two(self):
        g = graph_from_edges(2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])
        result = max_weight_perfect_matching(g)
        assert result.total_weight == 5.0  # max(1+4, 2+3)

    def test_constant_weights(self):
        for k in (1, 2, 3, 5):
            g = graph_from_edges(k, [(i, j, 7.0) for i in range(k) for j in range(k)])
            assert max_weight_perfect_matching(g).total_weight == 7.0 * k

    def test_forced_diagonal(self):
        g = graph_from_edges(2, [(0, 0, 7.0), (1, 1, 9.0)])
        result = max_weight_perfect_matching(g)
        assert result.total_weight == 16.0
        assert [(right, left) for right, left, _payload, _weight in result.pairs] == [(0, 0), (1, 1)]

    def test_missing_edge_infeasible(self):
        g = graph_from_edges(2, [(0, 0, 7.0)])
        with pytest.raises(InfeasibleMatchingError):
            max_weight_perfect_matching(g)

    def test_empty_graph(self):
        g = WeightedBipartiteGraph(0)
        matching = max_weight_perfect_matching(g)
        assert matching == Matching(pairs=(), total_weight=0.0)
        assert type(matching.total_weight) is float

    def test_negative_weight_rejected(self):
        g = WeightedBipartiteGraph(1)
        with pytest.raises(ValueError):
            g.add_edge(0, 0, -1.0)

    @pytest.mark.parametrize("weight", [-1e-300, math.nan, math.inf, -math.inf])
    def test_tiny_negative_or_non_finite_weight_rejected(self, weight):
        g = WeightedBipartiteGraph(1)
        with pytest.raises(ValueError, match="edge weight must be finite and non-negative"):
            g.add_edge(0, 0, weight)
        assert g.edges == ()

    def test_zero_weights_accepted(self):
        g = WeightedBipartiteGraph(1)
        g.add_edge(0, 0, -0.0)
        g.add_edge(0, 0, 0.0, payload=1)
        assert g.edges == ((0, 0, -0.0, -1),)

    def test_infeasible_column(self):
        g = graph_from_edges(2, [(0, 0, 1.0), (1, 0, 1.0)])
        with pytest.raises(InfeasibleMatchingError):
            max_weight_perfect_matching(g)


class TestInfeasibleShapes:
    """Each way a graph can lack a perfect matching gets its own message, a missing left vertex's first."""

    @pytest.mark.parametrize("filled", [False, True], ids=["add_edge", "fill_column"])
    @pytest.mark.parametrize(
        "k, edges, message",
        [
            (2, [(0, 0), (0, 1)], "a left vertex has no incident edges"),  # every column holds an edge
            (2, [(0, 0), (1, 0)], "a right vertex has no incident edges"),  # every row holds an edge
            (2, [(0, 0)], "a left vertex has no incident edges"),  # both are missing: the left check comes first
            (3, [(0, 0), (1, 0), (2, 1), (2, 2)], "graph has no perfect matching"),  # rows 0 and 1 share column 0
        ],
        ids=["left", "right", "both", "hall"],
    )
    def test_each_shape_names_its_fault(self, filled, k, edges, message):
        g = WeightedBipartiteGraph(k)
        for right in sorted({right for _left, right in edges}):
            column = [(left, 1.0, left) for left, j in edges if j == right]
            if filled:
                g.fill_column(right, column)
            else:
                for left, weight, payload in column:
                    g.add_edge(left, right, weight, payload)
        assert g._cols == sum({1 << right for _left, right in edges})
        with pytest.raises(InfeasibleMatchingError, match=f"^{message}$"):
            max_weight_perfect_matching(g)
        assert outcome(dense_reference_matching, g) == ("infeasible", message)


class TestParallelEdgeCollapse:
    def test_keeps_max_weight(self):
        g = WeightedBipartiteGraph(1)
        g.add_edge(0, 0, 1.0, payload=5)
        g.add_edge(0, 0, 3.0, payload=9)
        assert g.edges == ((0, 0, 3.0, 9),)

    def test_weight_tie_keeps_smallest_payload(self):
        g = WeightedBipartiteGraph(1)
        g.add_edge(0, 0, 3.0, payload=9)
        g.add_edge(0, 0, 3.0, payload=5)
        g.add_edge(0, 0, 3.0, payload=7)
        assert g.edges == ((0, 0, 3.0, 5),)

    def test_collapse_is_insertion_order_independent(self):
        entries = [(0, 0, 2.0, 4), (0, 0, 2.0, 1), (0, 1, 1.0, 3), (1, 0, 5.0, 2), (1, 1, 2.0, 0)]
        rng = random.Random(11)
        reference = graph_from_edges(2, entries).edges
        assert reference == ((0, 0, 2.0, 1), (0, 1, 1.0, 3), (1, 0, 5.0, 2), (1, 1, 2.0, 0))
        for _ in range(10):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert graph_from_edges(2, shuffled).edges == reference

    def test_edges_are_sorted_by_left_then_right(self):
        g = graph_from_edges(3, [(2, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (0, 0, 4.0), (2, 1, 5.0)])
        assert [(left, right) for left, right, _, _ in g.edges] == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1)]


def recomputed_maxima(graph):
    """Each row's largest weight (-inf when empty) and the bitmask of its columns that hold it, from ``_rows``."""
    tops, top_cols = [], []
    for row in graph._rows:
        top = max((weight for weight, _payload in row.values()), default=-math.inf)
        tops.append(top)
        top_cols.append(sum(1 << right for right, (weight, _payload) in row.items() if weight == top))
    return tops, top_cols


def kept_maxima(graph):
    return graph._row_top, graph._row_top_cols


class TestRowMaxima:
    def test_each_kept_edge_updates_its_row(self):
        g = WeightedBipartiteGraph(4)
        g.add_edge(0, 1, 1.0, payload=4)
        g.add_edge(0, 0, 2.0, payload=3)
        assert (g._row_top[0], g._row_top_cols[0]) == (2.0, 0b001)
        g.add_edge(0, 1, 3.0, payload=5)  # a heavier parallel edge takes the top
        assert (g._row_top[0], g._row_top_cols[0]) == (3.0, 0b010)
        g.add_edge(0, 0, 3.0, payload=9)  # a heavier parallel edge ties it
        assert (g._row_top[0], g._row_top_cols[0]) == (3.0, 0b011)
        g.add_edge(0, 1, 3.0, payload=1)  # an equal weight with a smaller payload replaces the edge only
        g.add_edge(0, 0, 1.0, payload=0)  # a lighter parallel edge is dropped
        g.add_edge(0, 2, 0.5)
        assert g._rows[0] == {1: (3.0, 1), 0: (3.0, 9), 2: (0.5, -1)}
        assert (g._row_top[0], g._row_top_cols[0]) == (3.0, 0b011)
        g.add_edge(1, 2, 0.0)
        g.add_edge(1, 0, -0.0)  # zero weights tie, whatever their sign
        g.add_edge(3, 1, 0.0, payload=2)
        g.add_edge(3, 1, 0.0, payload=1)
        assert kept_maxima(g) == ([3.0, 0.0, -math.inf, 0.0], [0b011, 0b101, 0, 0b010])  # row 2 has no edge
        assert kept_maxima(g) == recomputed_maxima(g)

    def test_insertion_orders_and_column_fills_agree(self):
        rng = random.Random(30)
        for trial in range(60):
            k = rng.randint(1, 8)
            entries = [
                (left, right, rng.choice((0.0, -0.0, 0.3, 0.1 + 0.2, 1.0)), rng.randint(0, 4))
                for left in range(k)
                for right in range(k)
                for _ in range(rng.choice((0, 1, 1, 2, 3)))  # none, one or parallel edges
            ]
            reference = graph_from_edges(k, entries)
            maxima = recomputed_maxima(reference)
            assert kept_maxima(reference) == maxima, trial
            for _ in range(3):
                rng.shuffle(entries)
                shuffled = graph_from_edges(k, entries)
                assert shuffled.edges == reference.edges
                assert kept_maxima(shuffled) == maxima, trial
            filled = WeightedBipartiteGraph(k)
            columns = list(range(k))
            rng.shuffle(columns)
            for right in columns:
                column = [(left, weight, payload) for left, r, weight, payload in reference.edges if r == right]
                rng.shuffle(column)
                filled.fill_column(right, column)
            assert filled.edges == reference.edges
            assert kept_maxima(filled) == maxima, trial


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=1, max_value=5),
        density=st.sampled_from((0.5, 1.0)),
    )
    def test_same_weight_and_feasibility(self, seed, k, density):
        g = random_graph(random.Random(seed), k, density)
        try:
            expected = brute_force_perfect_matching(g)
        except InfeasibleMatchingError:
            with pytest.raises(InfeasibleMatchingError):
                max_weight_perfect_matching(g)
            return
        result = max_weight_perfect_matching(g)
        assert result.total_weight == expected.total_weight
        lefts = sorted(left for _, left, _, _ in result.pairs)
        assert lefts == list(range(k))
        stored = {(left, right): weight for left, right, weight, _ in g.edges}
        for right, left, _, weight in result.pairs:
            assert stored[left, right] == weight

    def test_input_order_invariance(self):
        rng = random.Random(3)
        edges = [
            (left, right, float(rng.randint(0, 9)))
            for left in range(4)
            for right in range(4)
            if rng.random() < 0.7
        ]
        try:
            reference = max_weight_perfect_matching(graph_from_edges(4, edges))
        except InfeasibleMatchingError:
            pytest.skip("unlucky draw")
        for _ in range(20):
            rng.shuffle(edges)
            shuffled = max_weight_perfect_matching(graph_from_edges(4, edges))
            assert shuffled.total_weight == reference.total_weight
            assert shuffled.pairs == reference.pairs

    def test_deterministic_across_runs(self):
        g = random_graph(random.Random(42), 6, 0.6)
        first = max_weight_perfect_matching(g)
        second = max_weight_perfect_matching(g)
        assert first == second


def outcome(matcher, graph):
    """The matcher's Matching, or the message of the InfeasibleMatchingError it raised."""
    try:
        return matcher(graph)
    except InfeasibleMatchingError as exc:
        return ("infeasible", str(exc))


TIED_WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 1.0)


class TestAgainstDenseReference:
    def test_random_graphs_with_ties(self):
        rng = random.Random(2024)
        infeasible = 0
        for trial in range(2400):
            k = rng.randint(1, 9)
            density = rng.choice((0.2, 0.4, 0.6, 0.8, 1.0))
            if trial % 2:
                draw = lambda: rng.choice(TIED_WEIGHTS)  # noqa: E731
            else:
                draw = lambda: float(rng.randint(0, 4))  # noqa: E731
            g = WeightedBipartiteGraph(k)
            for left in range(k):
                for right in range(k):
                    if rng.random() < density:
                        g.add_edge(left, right, draw(), payload=rng.randint(0, 3 * k))
            expected = outcome(dense_reference_matching, g)
            assert outcome(max_weight_perfect_matching, g) == expected, (trial, g.edges)
            infeasible += isinstance(expected, tuple)
        assert 100 < infeasible < 2000  # both outcomes are exercised

    def test_larger_random_graphs(self):
        rng = random.Random(1414)
        draws = (
            lambda: rng.choice(TIED_WEIGHTS),
            lambda: float(rng.randint(0, 4)),
            lambda: rng.uniform(0.0, 10.0),
        )
        infeasible = 0
        for trial in range(300):
            k = rng.randint(10, 30)
            draw = draws[trial % 3]
            g = WeightedBipartiteGraph(k)
            for v in range(k):  # no isolated vertex: an infeasible graph breaks Hall's condition
                g.add_edge(v, rng.randrange(k), draw(), payload=rng.randint(0, k))
                g.add_edge(rng.randrange(k), v, draw(), payload=rng.randint(0, k))
            density = rng.choice((0.0, 1.0 / k, 0.3, 0.7))
            for left in range(k):
                for right in range(k):
                    if rng.random() < density:
                        g.add_edge(left, right, draw(), payload=rng.randint(0, k))
            expected = outcome(dense_reference_matching, g)
            assert outcome(max_weight_perfect_matching, g) == expected, (trial, g.edges)
            infeasible += isinstance(expected, tuple)
        assert 30 < infeasible < 270  # both outcomes are exercised

    def test_nonzero_delta_then_cached_rows(self):
        # Root 0 takes column 2 at zero slack.  Root 1's only edge leads to
        # column 2, so its search reaches row 0, whose other columns have
        # positive slack: the tight heap runs empty and a nonzero delta moves
        # the potentials, which must drop row 0's cached slacks.  Root 2
        # caches row 2's slacks, and root 3 reaches row 2 through column 1
        # and reuses them before its own nonzero delta.
        g = graph_from_edges(4, [
            (0, 0, 2.0), (0, 2, 5.0), (0, 3, 1.0),
            (1, 2, 1.0),
            (2, 1, 0.0),
            (3, 0, 4.0), (3, 1, 5.0), (3, 3, 0.0),
        ])
        result = max_weight_perfect_matching(g)
        assert result == dense_reference_matching(g)
        assert result.total_weight == brute_force_perfect_matching(g).total_weight == 6.0
        assert result.pairs == ((0, 3, -1, 4.0), (1, 2, -1, 0.0), (2, 1, -1, 1.0), (3, 0, -1, 1.0))

    def test_a_cached_negative_float_slack_forces_a_dual_update(self):
        # 0.1 + 0.2 rounds above 0.3.  Root 1's nonzero delta leaves row 1's
        # slacks to columns 0 and 2 at -2.8e-17 in the new potential epoch.
        # Root 2 takes column 0 at zero slack and reaches row 1 while column 2
        # is tight: the negative slack in row 1's cached slacks must bring a
        # dual update, by a negative delta, before column 2 joins the tree.
        g = graph_from_edges(3, [
            (0, 1, 0.1 + 0.2),
            (1, 0, 0.1), (1, 1, 1.0), (1, 2, 0.1),
            (2, 0, 0.2), (2, 2, 0.2),
        ])
        result = max_weight_perfect_matching(g)
        assert result == dense_reference_matching(g)
        assert result.pairs == ((0, 2, -1, 0.2), (1, 0, -1, 0.1 + 0.2), (2, 1, -1, 0.1))

    def test_two_dual_updates_in_one_search(self):
        # Root 2's row has no zero slack, so its search opens with a dual
        # update.  Columns 1 and 2 then join the tree at zero slack, logged
        # since that update, and row 0 reaches no new column, so a second
        # update must replay exactly the steps logged after the first.
        g = graph_from_edges(3, [
            (0, 2, 3.0),
            (1, 0, 0.0), (1, 1, 2.0), (1, 2, 4.0),
            (2, 1, 3.0), (2, 2, 4.0),
        ])
        result = max_weight_perfect_matching(g)
        assert result == dense_reference_matching(g)
        assert result.total_weight == brute_force_perfect_matching(g).total_weight == 6.0
        assert result.pairs == ((0, 1, -1, 0.0), (1, 2, -1, 3.0), (2, 0, -1, 3.0))

    def test_a_path_through_columns_reached_before_and_after_a_dual_update(self):
        # Root 2's row has no zero slack: the dual update makes column 2,
        # reached from the root, tight, and it joins the tree.  Row 1 then
        # reaches the free column 1 at zero slack.  The path flip must take
        # column 1's tree column from the steps logged since the update and
        # column 2's from the bookkeeping filled at it.
        g = graph_from_edges(3, [
            (0, 0, 0.0), (0, 2, 3.0),
            (1, 1, 0.0), (1, 2, 3.0),
            (2, 2, 0.0),
        ])
        result = max_weight_perfect_matching(g)
        assert result == dense_reference_matching(g)
        assert result.pairs == ((0, 0, -1, 0.0), (1, 1, -1, 0.0), (2, 2, -1, 0.0))  # the one perfect matching

    def test_a_complete_graph_with_one_weight_per_row_matches_the_identity(self):
        # Each row's edges share one weight, as on a self-pair exchange
        # round's graph, so every perfect matching weighs the same.  Each
        # root's row reaches every column at zero slack, so its search ends
        # at once at the lowest unmatched column: root r takes column r.
        k = 24
        weights = [TIED_WEIGHTS[left % len(TIED_WEIGHTS)] for left in range(k)]
        edges = [(left, right, weights[left], left * k + right) for left in range(k) for right in range(k)]
        random.Random(24).shuffle(edges)
        filled = WeightedBipartiteGraph(k)
        for right in range(k):
            filled.fill_column(right, [(left, weights[left], left * k + right) for left in range(k)])
        identity = tuple((j, j, j * k + j, weights[j]) for j in range(k))
        for g in (graph_from_edges(k, edges), filled):
            result = max_weight_perfect_matching(g)
            assert result.pairs == identity
            assert result == dense_reference_matching(g)

    def test_a_search_that_covers_every_column_after_a_dual_update_takes_its_negative_delta(self):
        # Rows 0..k-4 take their own columns first.  Then r0 takes c1, which
        # is also the top of r1, whose other edges weigh x.  So r1's search
        # takes a dual update by 1.0 - x, and x is drawn such that r1's new
        # potential -1.0 + (1.0 - x) rounds above -x: r1's slacks to c0 and
        # c2 are negative.  r2 reaches every column but c1 at zero slack and,
        # through c0, reaches r1, whose negative slack on the tight c2 must
        # bring a dual update although the search has covered every column.
        rng = random.Random(1)
        tenths = [t / 10 for t in range(1, 10)]
        xs = [t / 100 for t in range(1, 100) if -1.0 + (1.0 - t / 100) > -t / 100]
        covered_then_negative = 0
        for trial in range(60):
            k = rng.randint(3, 7)
            c0, c2 = sorted(rng.sample(range(k), 2))
            c1 = rng.choice([c for c in range(k) if c not in (c0, c2)])
            rest = [c for c in range(k) if c not in (c0, c1, c2)]
            x, y = rng.choice(xs), rng.choice(tenths)
            r0, r1, r2 = k - 3, k - 2, k - 1
            edges = [(r0, c1, rng.choice(tenths)), (r1, c0, x), (r1, c1, 1.0), (r1, c2, x), (r2, c0, y), (r2, c2, y)]
            for left, right in enumerate(rest):
                edges += [(left, right, rng.choice(tenths)), (r2, right, y)]
            edges += [(rng.randrange(k), rng.randrange(k), 0.0) for _ in range(rng.randint(0, k))]
            g = graph_from_edges(k, edges)
            late_negatives = []
            expected = dense_reference_matching(g, late_negatives)
            assert max_weight_perfect_matching(g) == expected, (trial, g.edges)
            covered_then_negative += bool(late_negatives)
        assert covered_then_negative >= 30  # 47 of the 60 graphs

    @pytest.mark.parametrize(
        "matroid_kind, function_kind, n, rank, seeds",
        [
            pytest.param("partition", "coverage", 24, 6, 6, id="partition-coverage-24-6"),
            pytest.param("graphic", "modular", 24, 6, 6, id="graphic-modular-24-6"),
            pytest.param("uniform", "modular", 20, 8, 6, id="uniform-modular-20-8"),
            pytest.param("uniform", "modular", 48, 24, 2, id="uniform-modular-48-24"),  # the uniform-dense shape
            # mostly general rounds, whose graphs take nonzero dual updates
            pytest.param("partition", "weighted_coverage", 60, 12, 4, id="partition-weighted_coverage-60-12"),
            pytest.param("graphic", "weighted_coverage", 60, 12, 4, id="graphic-weighted_coverage-60-12"),
        ],
    )
    def test_every_exchange_graph_of_msg_det(self, monkeypatch, matroid_kind, function_kind, n, rank, seeds):
        graphs = []

        def recording_matcher(graph):
            graphs.append(graph)
            return max_weight_perfect_matching(graph)

        monkeypatch.setattr(algorithms, "max_weight_perfect_matching", recording_matcher)
        for seed in range(seeds):
            f, m = build(random_instance(seed, n, matroid_kind, function_kind, rank=rank))
            solve(f, m, "msg-det")
        assert len(graphs) >= seeds * 2  # every solve grows two halves, each for at least one round
        for g in graphs:
            assert max_weight_perfect_matching(g) == dense_reference_matching(g), g.edges
