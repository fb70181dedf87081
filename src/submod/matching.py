"""Maximum-weight perfect matching in square weighted bipartite graphs.

The solver is the potential-based Hungarian algorithm in its
shortest-augmenting-path form (Kuhn 1955; Jonker & Volgenant 1987).  The
dense form fills a k x k cost matrix with +inf for absent edges and scans
every cell of a row at each step.  This one does the same float
operations on the stored edges alone, in the same order, and meets ties
in the same order, so both return the same matching:

- Per-row storage.  The graph keeps one ``{right: (weight, payload)}``
  dict per left vertex.  The matcher sorts a row's edges by column when it
  computes the row's slacks, never the whole edge set, and scans a row in
  ascending column order.  An absent edge would have slack +inf, which
  never lowers a minimum.
- Row slacks cached per potential epoch.  A row's slacks
  ``cost - row_potential[i] - col_potential[j]`` are computed the first
  time a search reaches the row and reused until a nonzero dual update
  changes a potential, which drops every cached row.  Until then the
  operands are the same, so the floats are the same.  A row keeps its
  zero-slack and its negative-slack columns as bitmasks and its nonzero
  (column, slack) pairs as a list; a zero is recorded as 0.0, whose sign
  nothing below sees.  A slack is negative only by rounding.
- A bitmask of tight columns.  Within one root's search, ``tight`` holds
  the free columns whose least slack is exactly zero, and ``low`` those
  and the tree's columns, which no zero slack lowers, so a row reaches
  only its zero columns outside ``low``.  No free slack is negative when
  the search starts (all are +inf) or after a dual update (each is its old
  value minus the minimum), and a row with a negative slack on a free
  column brings a dual update at once.  So a nonempty ``tight`` means the
  minimum is zero, and its lowest bit is the first minimum in ascending
  column order.  The dense form would then update by a zero delta, which
  could flip only the sign of a zero, and no comparison sees that, so the
  step skips it.  Otherwise the step takes the minimum over the free
  columns, updates the tree's potentials and the free slacks by it (a
  nonzero delta, as ``tight`` serves every zero) and rebuilds ``tight``
  from the shifted slacks, whose zeros are exactly the minima, so its
  lowest bit is again the first minimum.
- Bookkeeping filled at dual updates.  Each column's least slack and the
  tree column whose row gave it (``min_slack`` and ``prev_col``) are read
  only by a dual update and by the path flip.  So each step of a search
  just logs its tree column and the zero columns its row reached, and a
  dual update first replays the steps logged since the last one, in
  search order: the step's column joins the tree, then its row's zero
  columns and other slacks lower the free columns, the operations the
  dense form makes at that step.  The path flip takes a column reached
  since the last update from the one logged step that reached it, and
  any other column from ``prev_col``.  A search with no dual update reads
  no nonzero slack and fills nothing.

A column that joins the alternating tree has its slack set to -inf, so no
later slack lowers it and the minimum skips it.  The dual update finds the
tree's columns by that mark, the virtual column that holds the root among
them, and touches only them and the rows they brought in.  The bound stays
O(k^3), but no k x k cost matrix is built or scanned.

Output is deterministic for a fixed input: potentials start at the row
extrema and augmenting paths explore columns in ascending index order, so
ties always resolve the same way.  When no perfect matching exists the
solver raises instead of returning a degenerate answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


class InfeasibleMatchingError(ValueError):
    """The graph admits no perfect matching."""


class WeightedBipartiteGraph:
    """Square bipartite graph with weighted, payload-carrying edges.

    At most one edge is stored per (left, right) pair: parallel edges are
    collapsed to the maximum weight, ties broken by the smallest payload,
    so the stored graph does not depend on insertion order.  Each left
    vertex keeps its own ``{right: (weight, payload)}`` row.
    """

    def __init__(self, left_size: int, right_size: int):
        if left_size < 0 or right_size < 0:
            raise ValueError("vertex counts must be non-negative")
        self.left_size = left_size
        self.right_size = right_size
        self._rows: list[dict[int, tuple[float, int]]] = [{} for _ in range(left_size)]

    def add_edge(self, left: int, right: int, weight: float, payload: int = -1) -> None:
        if not 0 <= left < self.left_size:
            raise ValueError(f"left vertex {left} out of range")
        if not 0 <= right < self.right_size:
            raise ValueError(f"right vertex {right} out of range")
        if not 0.0 <= weight < math.inf:  # NaN fails every comparison
            raise ValueError(f"edge weight must be finite and non-negative, got {weight}")
        row = self._rows[left]
        current = row.get(right)
        if current is None or weight > current[0] or (weight == current[0] and payload < current[1]):
            row[right] = (weight, payload)

    def _fill_column(self, right: int, edges: Iterable[tuple[int, float, int]]) -> None:
        """Store each (left, weight, payload) of ``edges`` in column ``right``, with no check.

        The caller vouches for what ``add_edge`` would check: every vertex
        is in range, every weight finite and non-negative, and no (left,
        right) pair already has an edge or comes twice.
        """
        rows = self._rows
        for left, weight, payload in edges:
            rows[left][right] = (weight, payload)

    @property
    def edges(self) -> tuple[tuple[int, int, float, int], ...]:
        """Every stored edge as (left, right, weight, payload), sorted by (left, right)."""
        return tuple(
            (left, right, *row[right])
            for left, row in enumerate(self._rows)
            for right in sorted(row)
        )


@dataclass(frozen=True)
class Matching:
    """A perfect matching: one (right, left, payload, weight) entry per right vertex, by right."""

    pairs: tuple[tuple[int, int, int, float], ...]
    total_weight: float


def max_weight_perfect_matching(graph: WeightedBipartiteGraph) -> Matching:
    """Maximum-weight perfect matching of a square bipartite graph.

    Raises InfeasibleMatchingError when no perfect matching exists.
    """
    if graph.left_size != graph.right_size:
        raise ValueError("perfect matching requires a square graph")
    k = graph.left_size
    inf = math.inf
    stored = graph._rows
    if not all(stored):
        raise InfeasibleMatchingError("a left vertex has no incident edges")
    if len(set().union(*stored)) < k:
        raise InfeasibleMatchingError("a right vertex has no incident edges")
    # Minimize cost = -weight over each row's edges, scanned in ascending column order.
    row_potential = [-max(row.values())[0] for row in stored]  # row extrema, per the tie-break contract
    col_potential = [0.0] * (k + 1)  # the virtual column k's entry is shifted but never read
    col_match: list[int] = [-1] * (k + 1)  # col_match[j] = row matched to column j
    # Each row's zero-slack columns and negative-slack columns as bitmasks and its other (column, slack)
    # pairs, in ascending column order, valid until a potential changes.
    row_slacks: list[tuple[int, int, list[tuple[int, float]]] | None] = [None] * k
    for root in range(k):
        col_match[k] = root  # virtual column holds the row being inserted
        j0 = k
        min_slack = prev_col = None  # made and filled at the root's dual updates; a tree column's slack is -inf
        steps = []  # (tree column, the zero columns its row reached) since the last fill
        tight = 0  # bitmask of the free columns whose least slack is exactly zero
        low = 0  # bitmask of the tight columns and the tree's
        while True:
            i0 = col_match[j0]
            cached = row_slacks[i0]
            if cached is None:
                potential = row_potential[i0]
                zero, negative, others = 0, 0, []
                for j, (weight, _payload) in sorted(stored[i0].items()):
                    slack = -weight - potential - col_potential[j]
                    if slack == 0:
                        zero |= 1 << j
                    else:
                        others.append((j, slack))
                        if slack < 0:
                            negative |= 1 << j
                cached = row_slacks[i0] = zero, negative, others
            zero, negative, _others = cached
            reached = zero & ~low  # a zero slack lowers exactly the columns still above zero
            tight |= reached
            low |= reached
            steps.append((j0, reached))
            # update when no column is tight or a negative slack lowers a free column (tight | ~low)
            if not tight or negative and negative & (tight | ~low):
                if min_slack is None:
                    min_slack, prev_col = [inf] * k + [-inf], [-1] * k
                for j1, reached in steps:  # replay the steps since the last fill, in search order
                    min_slack[j1] = -inf
                    while reached:
                        bit = reached & -reached
                        reached ^= bit
                        j = bit.bit_length() - 1
                        min_slack[j], prev_col[j] = 0.0, j1
                    for j, slack in row_slacks[col_match[j1]][2]:  # its row's other slacks
                        if slack < min_slack[j]:
                            min_slack[j], prev_col[j] = slack, j1
                steps.clear()
                delta = min([slack for slack in min_slack if slack > -inf])  # over the free columns
                if delta == inf:
                    raise InfeasibleMatchingError("graph has no perfect matching")
                tight = low = 0
                for j, slack in enumerate(min_slack):
                    if slack == -inf:  # a tree column (the virtual one: the root) and the row it brought in
                        row_potential[col_match[j]] += delta
                        col_potential[j] -= delta
                        low |= 1 << j
                    else:
                        slack = min_slack[j] = slack - delta
                        if slack == 0:  # exactly the minima, since a - b == 0 only when a == b
                            tight |= 1 << j
                low |= tight
                row_slacks = [None] * k  # a new potential epoch
            bit = tight & -tight  # the first zero in ascending column order joins the tree
            tight ^= bit
            j0 = bit.bit_length() - 1
            if col_match[j0] == -1:
                break
        # flip the alternating path back to the virtual column: a column reached since the last fill
        # takes its tree column from the log, an earlier one from prev_col
        for j1, reached in reversed(steps):
            if reached >> j0 & 1:
                col_match[j0] = col_match[j1]
                j0 = j1
        while j0 != k:
            j1 = prev_col[j0]
            col_match[j0] = col_match[j1]
            j0 = j1

    pairs = []
    total = 0.0
    for j in range(k):
        i = col_match[j]
        entry = stored[i].get(j)
        if entry is None:
            raise InfeasibleMatchingError("graph has no perfect matching")
        weight, payload = entry
        pairs.append((j, i, payload, weight))
        total += weight
    return Matching(pairs=tuple(pairs), total_weight=total)
