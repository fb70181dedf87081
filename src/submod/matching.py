"""Maximum-weight perfect matching in square weighted bipartite graphs.

The solver is a potential-based Hungarian algorithm running in O(k^3).
Absent edges are modelled as a minus-infinity sentinel; when no perfect
matching avoiding sentinels exists, the solver raises instead of
returning a degenerate answer.  Output is deterministic for a fixed
input: potentials start at the row extrema and augmenting paths explore
vertices in ascending index order, so ties always resolve the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InfeasibleMatchingError(ValueError):
    """The graph admits no perfect matching."""


class WeightedBipartiteGraph:
    """Square bipartite graph with weighted, payload-carrying edges.

    At most one edge is stored per (left, right) pair: parallel edges are
    collapsed to the maximum weight, ties broken by the smallest payload,
    so the stored graph does not depend on insertion order.
    """

    def __init__(self, left_size: int, right_size: int):
        if left_size < 0 or right_size < 0:
            raise ValueError("vertex counts must be non-negative")
        self.left_size = left_size
        self.right_size = right_size
        self._edges: dict[tuple[int, int], tuple[float, int]] = {}

    def add_edge(self, left: int, right: int, weight: float, payload: int = -1) -> None:
        if not 0 <= left < self.left_size:
            raise ValueError(f"left vertex {left} out of range")
        if not 0 <= right < self.right_size:
            raise ValueError(f"right vertex {right} out of range")
        if not math.isfinite(weight) or weight < 0:
            raise ValueError(f"edge weight must be finite and non-negative, got {weight}")
        key = (left, right)
        current = self._edges.get(key)
        if current is None or weight > current[0] or (weight == current[0] and payload < current[1]):
            self._edges[key] = (weight, payload)

    @property
    def edges(self) -> tuple[tuple[int, int, float, int], ...]:
        return tuple(
            (left, right, weight, payload)
            for (left, right), (weight, payload) in sorted(self._edges.items())
        )

    def weight_of(self, left: int, right: int) -> float | None:
        entry = self._edges.get((left, right))
        return None if entry is None else entry[0]


@dataclass(frozen=True)
class Matching:
    """A perfect matching: one (left, payload, weight) entry per right vertex."""

    pairs: tuple[tuple[int, int, int, float], ...]  # (right, left, payload, weight)
    total_weight: float


def max_weight_perfect_matching(graph: WeightedBipartiteGraph) -> Matching:
    """Maximum-weight perfect matching of a square bipartite graph.

    Raises InfeasibleMatchingError when no perfect matching exists.
    """
    if graph.left_size != graph.right_size:
        raise ValueError("perfect matching requires a square graph")
    k = graph.left_size
    if k == 0:
        return Matching(pairs=(), total_weight=0.0)

    inf = math.inf
    # Minimize cost = -weight; sentinel +inf marks absent edges.
    cost = [[inf] * k for _ in range(k)]
    payload = [[-1] * k for _ in range(k)]
    for left, right, weight, pay in graph.edges:
        cost[left][right] = -weight
        payload[left][right] = pay
    for row in cost:
        if min(row) == inf:
            raise InfeasibleMatchingError("a left vertex has no incident edges")
    for j in range(k):
        if min(cost[i][j] for i in range(k)) == inf:
            raise InfeasibleMatchingError("a right vertex has no incident edges")

    row_potential = [min(row) for row in cost]  # row extrema, per the tie-break contract
    col_potential = [0.0] * (k + 1)
    col_match: list[int] = [-1] * (k + 1)  # col_match[j] = row matched to column j
    for root in range(k):
        col_match[k] = root  # virtual column holds the row being inserted
        j0 = k
        min_slack = [inf] * k
        prev_col = [-1] * k
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = col_match[j0]
            delta = inf
            j1 = -1
            for j in range(k):
                if used[j]:
                    continue
                slack = cost[i0][j] - row_potential[i0] - col_potential[j]
                if slack < min_slack[j]:
                    min_slack[j] = slack
                    prev_col[j] = j0
                if min_slack[j] < delta:
                    delta = min_slack[j]
                    j1 = j
            if delta == inf:
                raise InfeasibleMatchingError("graph has no perfect matching")
            for j in range(k + 1):
                if used[j]:
                    row_potential[col_match[j]] += delta
                    col_potential[j] -= delta
                elif j < k:
                    min_slack[j] -= delta
            j0 = j1
            if col_match[j0] == -1:
                break
        while j0 != k:  # flip the alternating path back to the virtual column
            j_prev = prev_col[j0]
            col_match[j0] = col_match[j_prev]
            j0 = j_prev

    pairs = []
    total = 0.0
    for j in range(k):
        i = col_match[j]
        if cost[i][j] == inf:
            raise InfeasibleMatchingError("graph has no perfect matching")
        weight = -cost[i][j]
        pairs.append((j, i, payload[i][j], weight))
        total += weight
    return Matching(pairs=tuple(pairs), total_weight=total)
