"""Maximum-weight perfect matching in square weighted bipartite graphs.

The solver is the potential-based Hungarian algorithm in its
shortest-augmenting-path form (Kuhn 1955; Jonker & Volgenant 1987).  The
dense form fills a k x k cost matrix with +inf for absent edges and scans
every cell of a row at each step.  This one does the same float
operations on the stored edges alone, in the same order, and meets ties
in the same order, so both return the same matching:

- Per-row storage.  The graph keeps one ``{right: (weight, payload)}``
  dict per left vertex, in insertion order, and the row's largest weight
  and the bitmask of its columns that hold it.  The matcher never sorts
  a row: each column occurs once in it, so the order inside a row changes
  no comparison, and ties between columns are met through bitmasks,
  lowest bit first, which is the dense form's ascending column scan.  An
  absent edge would have slack +inf, which never lowers a minimum.
- Row masks per potential epoch.  An epoch is the stretch between two
  dual updates.  A row's zero-slack and negative-slack columns, under the
  slack ``cost - row_potential[i] - col_potential[j]``, are kept as two
  bitmasks until the epoch ends.  Row potentials start at -top, the row's
  largest weight negated, and every column potential at 0.0, so in the
  first epoch a row's slack ``-w + top`` is exactly zero on its top
  columns and positive elsewhere (two unequal floats never differ by
  zero): its masks are read off the graph with no pass over its edges.
  In a later epoch they are computed the first time a search reaches the
  row.  A slack is negative only by rounding.  No nonzero slack is kept;
  a dual update recomputes the ones it reads from the same potentials, so
  it gets the same floats.
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
- Early exit in the first epoch.  Once ``low`` holds every column, no
  step reaches a column.  No unmatched column is in the tree, so
  ``tight`` holds all of them, and before the first dual update no row
  has a negative slack, so no update comes: the search would go on taking
  matched columns in ascending order, reaching nothing, until the lowest
  unmatched one.  The search ends at that column at once (an
  ``unmatched`` bitmask names it), and the path flip needs none of the
  skipped steps.  In a later epoch a row may hold a negative rounding
  slack on a tight column, which must bring a dual update, so the search
  runs on.

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

    ``WeightedBipartiteGraph(k)`` has k left and k right vertices, both
    numbered 0..k-1; ``left_size`` is k.  At most one edge is stored per
    (left, right) pair: parallel edges are collapsed to the maximum weight,
    ties broken by the smallest payload, so the stored graph does not
    depend on insertion order.  Each left vertex keeps its own ``{right:
    (weight, payload)}`` row, its largest weight (``_row_top``, -inf while
    the row is empty) and the bitmask of the columns that hold it
    (``_row_top_cols``).  ``_cols`` is the bitmask of the right vertices
    that hold an edge.  Only this module reads the storage.
    """

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("vertex count must be non-negative")
        self.left_size = size
        self._rows: list[dict[int, tuple[float, int]]] = [{} for _ in range(size)]
        self._row_top = [-math.inf] * size
        self._row_top_cols = [0] * size
        self._cols = 0

    def add_edge(self, left: int, right: int, weight: float, payload: int = -1) -> None:
        if not 0 <= left < self.left_size:
            raise ValueError(f"left vertex {left} out of range")
        if not 0 <= right < self.left_size:
            raise ValueError(f"right vertex {right} out of range")
        if not 0.0 <= weight < math.inf:  # NaN fails every comparison
            raise ValueError(f"edge weight must be finite and non-negative, got {weight}")
        row = self._rows[left]
        current = row.get(right)
        if current is None or weight > current[0] or (weight == current[0] and payload < current[1]):
            row[right] = (weight, payload)
            self._cols |= 1 << right
            # a kept edge is never lighter than the one it replaces, so the row's maxima only grow
            top = self._row_top[left]
            if weight > top:
                self._row_top[left], self._row_top_cols[left] = weight, 1 << right
            elif weight == top:
                self._row_top_cols[left] |= 1 << right

    def fill_column(self, right: int, edges: Iterable[tuple[int, float, int]]) -> None:
        """Store each (left, weight, payload) of ``edges`` in column ``right``, with no check.

        For trusted callers only: the caller vouches for what ``add_edge``
        would check, that every vertex is in range, every weight finite and
        non-negative, and no (left, right) pair already has an edge or
        comes twice.  A broken promise is not detected; it leaves a graph
        the matcher may answer wrongly.
        """
        rows, tops, top_cols = self._rows, self._row_top, self._row_top_cols
        bit = 1 << right
        held = 0  # bit once the column holds an edge
        for left, weight, payload in edges:
            rows[left][right] = (weight, payload)
            top = tops[left]
            if weight > top:
                tops[left], top_cols[left] = weight, bit
            elif weight == top:
                top_cols[left] |= bit
            held = bit
        self._cols |= held

    def repeat_first_column(self) -> None:
        """Store column 0's edges, weights and payloads in every other column.

        Every other column must be empty, as ``fill_column`` requires.
        """
        column = [(left, *row[0]) for left, row in enumerate(self._rows) if 0 in row]
        for right in range(1, self.left_size):
            self.fill_column(right, column)

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
    """Maximum-weight perfect matching of ``graph``'s k x k vertices, k = ``graph.left_size``.

    Raises InfeasibleMatchingError when no perfect matching exists: a row or
    a column holds no edge, or a search finds every free column's least
    slack +inf.  Each matched pair is reached through a stored edge, so its
    weight and payload are read from the row with no further check.
    """
    k = graph.left_size
    inf = math.inf
    stored = graph._rows
    if not all(stored):
        raise InfeasibleMatchingError("a left vertex has no incident edges")
    if graph._cols != (1 << k) - 1:
        raise InfeasibleMatchingError("a right vertex has no incident edges")
    # Minimize cost = -weight over each row's edges; ties go to the lowest column.
    row_potential = [-top for top in graph._row_top]  # row extrema, per the tie-break contract
    col_potential = [0.0] * (k + 1)  # the virtual column k's entry is shifted but never read
    col_match: list[int] = [-1] * (k + 1)  # col_match[j] = row matched to column j
    # Each row's zero-slack and negative-slack columns as bitmasks, valid until a potential changes.  Before
    # the first dual update every column potential is 0.0, so a row's zeros are its top columns and none is
    # negative.
    row_masks: list[tuple[int, int] | None] = [(top_cols, 0) for top_cols in graph._row_top_cols]
    first_epoch = True
    every_col = unmatched = (1 << k) - 1
    for root in range(k):
        col_match[k] = root  # virtual column holds the row being inserted
        j0 = k
        min_slack = prev_col = None  # made and filled at the root's dual updates; a tree column's slack is -inf
        steps = []  # (tree column, the zero columns its row reached) since the last fill
        tight = 0  # bitmask of the free columns whose least slack is exactly zero
        low = 0  # bitmask of the tight columns and the tree's
        while True:
            i0 = col_match[j0]
            masks = row_masks[i0]
            if masks is None:
                potential = row_potential[i0]
                zero = negative = 0
                for j, (weight, _payload) in stored[i0].items():
                    slack = -weight - potential - col_potential[j]
                    if slack == 0:
                        zero |= 1 << j
                    elif slack < 0:
                        negative |= 1 << j
                masks = row_masks[i0] = zero, negative
            zero, negative = masks
            reached = zero & ~low  # a zero slack lowers exactly the columns still above zero
            tight |= reached
            low |= reached
            steps.append((j0, reached))
            if low == every_col and first_epoch:
                # no step reaches a column now, and tight holds every unmatched column with no negative
                # slack anywhere, so the search would take matched columns until the lowest unmatched one
                bit = unmatched & -unmatched
                j0 = bit.bit_length() - 1
                break
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
                    i1 = col_match[j1]
                    potential = row_potential[i1]
                    for j, (weight, _payload) in stored[i1].items():  # its row's other slacks; a zero lowers none
                        slack = -weight - potential - col_potential[j]
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
                row_masks = [None] * k  # a new potential epoch
                first_epoch = False
            bit = tight & -tight  # the first zero in ascending column order joins the tree
            tight ^= bit
            j0 = bit.bit_length() - 1
            if col_match[j0] == -1:
                break
        unmatched ^= bit  # column j0 ends the augmenting path
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
        weight, payload = stored[i][j]  # every matched pair was reached through a stored edge
        pairs.append((j, i, payload, weight))
        total += weight
    return Matching(pairs=tuple(pairs), total_weight=total)
