"""Matching solver tests against the factorial brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from submod import (
    InfeasibleMatchingError,
    WeightedBipartiteGraph,
    brute_force_perfect_matching,
    max_weight_perfect_matching,
)


def graph_from_edges(k, edges):
    g = WeightedBipartiteGraph(k, k)
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
        g = WeightedBipartiteGraph(0, 0)
        assert max_weight_perfect_matching(g).total_weight == 0.0

    def test_rectangular_rejected(self):
        g = WeightedBipartiteGraph(2, 3)
        with pytest.raises(ValueError):
            max_weight_perfect_matching(g)

    def test_negative_weight_rejected(self):
        g = WeightedBipartiteGraph(1, 1)
        with pytest.raises(ValueError):
            g.add_edge(0, 0, -1.0)

    def test_infeasible_column(self):
        g = graph_from_edges(2, [(0, 0, 1.0), (1, 0, 1.0)])
        with pytest.raises(InfeasibleMatchingError):
            max_weight_perfect_matching(g)


class TestParallelEdgeCollapse:
    def test_keeps_max_weight(self):
        g = WeightedBipartiteGraph(1, 1)
        g.add_edge(0, 0, 1.0, payload=5)
        g.add_edge(0, 0, 3.0, payload=9)
        assert g.edges == ((0, 0, 3.0, 9),)

    def test_weight_tie_keeps_smallest_payload(self):
        g = WeightedBipartiteGraph(1, 1)
        g.add_edge(0, 0, 3.0, payload=9)
        g.add_edge(0, 0, 3.0, payload=5)
        g.add_edge(0, 0, 3.0, payload=7)
        assert g.edges == ((0, 0, 3.0, 5),)

    def test_collapse_is_insertion_order_independent(self):
        entries = [(0, 0, 2.0, 4), (0, 0, 2.0, 1), (0, 1, 1.0, 3), (1, 0, 5.0, 2), (1, 1, 2.0, 0)]
        rng = random.Random(11)
        reference = graph_from_edges(2, entries).edges
        for _ in range(10):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert graph_from_edges(2, shuffled).edges == reference


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
        for right, left, _, weight in result.pairs:
            assert g.weight_of(left, right) == weight

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
