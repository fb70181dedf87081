"""Maximum-weight perfect matching in square weighted bipartite graphs.

The solver is the potential-based Hungarian algorithm in its
shortest-augmenting-path form (Kuhn 1955; Jonker & Volgenant 1987).  Each
left vertex keeps only its list of edges, in ascending column order, so a
step updates the slack of the current row's edges alone: an absent edge
would have slack +inf, which never lowers a minimum.  A column that joins
the alternating tree has its slack set to +inf, so the step's minimum is
the first minimum among the free columns, and the dual update touches
only the tree's rows and columns.  The bound stays O(k^3), but no k x k
cost matrix is built or scanned.  A step whose minimum slack is zero
skips the update: adding zero could flip only the sign of a zero, which
no comparison sees.

Every float operation whose result the dense form (a full cost matrix
with +inf sentinels, every cell scanned) reads is done here too, in the
same order, and ties are met in the same order, so both return the same
matching.  Output is deterministic for a fixed input: potentials start at
the row extrema and augmenting paths explore columns in ascending index
order, so ties always resolve the same way.  When no perfect matching
exists the solver raises instead of returning a degenerate answer.
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
    # Minimize cost = -weight over each row's edges, in ascending column order.
    edges = graph.edges
    rows: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    for left, right, weight, _payload in edges:
        rows[left].append((right, -weight))
    if not all(rows):
        raise InfeasibleMatchingError("a left vertex has no incident edges")
    if len({edge[1] for edge in edges}) < k:
        raise InfeasibleMatchingError("a right vertex has no incident edges")

    row_potential = [min([cost for _, cost in row]) for row in rows]  # row extrema, per the tie-break contract
    col_potential = [0.0] * k
    col_match: list[int] = [-1] * (k + 1)  # col_match[j] = row matched to column j
    for root in range(k):
        col_match[k] = root  # virtual column holds the row being inserted
        j0 = k
        min_slack = [inf] * k  # a tree column's entry is +inf, so it never wins the minimum
        prev_col = [-1] * k
        used = [False] * (k + 1)
        tree_rows = [root]
        tree_cols: list[int] = []
        while True:
            used[j0] = True
            i0 = col_match[j0]
            potential = row_potential[i0]
            for j, cost in rows[i0]:  # an absent edge's slack is +inf and lowers nothing
                if used[j]:
                    continue
                slack = cost - potential - col_potential[j]
                if slack < min_slack[j]:
                    min_slack[j] = slack
                    prev_col[j] = j0
            delta = min(min_slack)
            if delta == inf:
                raise InfeasibleMatchingError("graph has no perfect matching")
            j1 = min_slack.index(delta)  # the first minimum in ascending column order
            if delta != 0:  # adding zero could only flip the sign of a zero
                for i in tree_rows:
                    row_potential[i] += delta
                for j in tree_cols:
                    col_potential[j] -= delta
                min_slack = [slack - delta for slack in min_slack]
            min_slack[j1] = inf
            j0 = j1
            if col_match[j0] == -1:
                break
            tree_rows.append(col_match[j0])
            tree_cols.append(j0)
        while j0 != k:  # flip the alternating path back to the virtual column
            j_prev = prev_col[j0]
            col_match[j0] = col_match[j_prev]
            j0 = j_prev

    stored = graph._edges
    pairs = []
    total = 0.0
    for j in range(k):
        i = col_match[j]
        if (i, j) not in stored:
            raise InfeasibleMatchingError("graph has no perfect matching")
        weight, payload = stored[i, j]
        pairs.append((j, i, payload, weight))
        total += weight
    return Matching(pairs=tuple(pairs), total_weight=total)
