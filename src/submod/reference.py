"""Spec-level references the solvers and the matcher are tested against.

``reference_greedy``, ``reference_split``, ``reference_rr_greedy``,
``reference_rp_greedy``, ``reference_msg`` and ``reference_msg_det`` state
the classical greedy and both split-and-grow pipelines as their papers do,
on the root oracles alone: every table and candidate base is built afresh
each round, each exchange edge is found by brute force, and each round is
matched by ``dense_reference_matching``, the dense O(k^3) Hungarian
algorithm.  They share no code with ``algorithms`` or with the sparse
matcher, so every shortcut the solvers take is checked against the plain
statement.

The package does not import this module: only the tests do, so importing
``submod`` never compiles it.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Mapping

from .core import ElementSet, InternalInvariantError, Matroid, SetFunction, canonical
from .matching import InfeasibleMatchingError, Matching, WeightedBipartiteGraph


def dense_reference_matching(graph: WeightedBipartiteGraph, late_negatives: list[int] | None = None) -> Matching:
    """The dense O(k^3) Hungarian algorithm the sparse matcher must reproduce.

    It fills a k x k cost matrix with +inf for absent edges and scans every
    cell of a row at each step; the sparse matcher performs the same float
    operations on the edges alone, so the two return equal matchings.

    Given a list, ``late_negatives`` gets the root of each search that,
    after the call's first nonzero delta, covers every column (each is in
    the tree or has had a zero least slack since the search's last nonzero
    delta) and then takes a negative delta: the case the sparse matcher's
    first-epoch early exit must not serve.
    """
    k = graph.left_size
    if k == 0:
        return Matching(pairs=(), total_weight=0.0)

    inf = math.inf
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

    row_potential = [min(row) for row in cost]
    col_potential = [0.0] * (k + 1)
    col_match = [-1] * (k + 1)
    moved = False  # a nonzero delta has changed the potentials
    for root in range(k):
        col_match[k] = root
        j0 = k
        min_slack = [inf] * k
        prev_col = [-1] * k
        used = [False] * (k + 1)
        zeroed = [False] * k  # a free column whose least slack was zero since the last nonzero delta
        covered = False
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
            zeroed = [zeroed[j] or min_slack[j] == 0 for j in range(k)]
            covered = covered or moved and all(used[j] or zeroed[j] for j in range(k))
            if covered and delta < 0 and late_negatives is not None:
                late_negatives.append(root)
            for j in range(k + 1):
                if used[j]:
                    row_potential[col_match[j]] += delta
                    col_potential[j] -= delta
                elif j < k:
                    min_slack[j] -= delta
            if delta != 0:
                moved = True
                zeroed = [not used[j] and min_slack[j] == 0 for j in range(k)]
            j0 = j1
            if col_match[j0] == -1:
                break
        while j0 != k:
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


def _root_oracles(
    f: SetFunction, matroid: Matroid
) -> tuple[Callable[[Iterable[int]], float], Callable[[Iterable[int]], bool]]:
    """``value(S)`` and ``independent(S)``: the root kernels asked about the sorted ids of S, unbilled."""
    evaluate, is_independent = f.root._evaluate, matroid.root._is_independent
    return (
        lambda members: evaluate(tuple(sorted(members))),
        lambda members: bool(is_independent(tuple(sorted(members)))),
    )


def _best_by_gain(ids: Iterable[int], gains: Mapping[int, float]) -> int:
    """The id of the largest (gain, -id), the first such in ``ids`` where NaN makes keys incomparable."""
    return max(ids, key=lambda u: (gains[u], -u))


def reference_greedy(f: SetFunction, matroid: Matroid) -> ElementSet:
    """The classical greedy as Nemhauser, Wolsey and Fisher state it, on the root oracles.

    Each of ``rank`` rounds takes the pool of ids u outside S with S + u
    independent, in ascending order, builds the table gain(u) = f(S + u) -
    f(S) afresh and adds the best u by (gain, -u) to S.  It asks only
    ``f.root._evaluate`` and ``matroid.root._is_independent``, billing
    nothing, and shares no code with the solvers.
    """
    value, independent = _root_oracles(f, matroid)
    chosen: list[int] = []
    for _ in range(matroid.rank):
        pool = [u for u in range(matroid.n) if u not in chosen and independent(chosen + [u])]
        if not pool:
            raise InternalInvariantError("greedy ran out of feasible elements before a base")
        offset = value(chosen)
        gains = {u: value(chosen + [u]) - offset for u in pool}
        chosen.append(_best_by_gain(pool, gains))
    return canonical(chosen)


def reference_split(f: SetFunction, matroid: Matroid, p: float) -> tuple[ElementSet, ElementSet]:
    """The split sweep as the paper states it, on the root oracles: the halves (A, B).

    Each of ``rank`` rounds takes the pool of ids u outside A + B with A +
    B + u independent, in ascending order, builds both halves' tables
    afresh, gain(u) = f(H + u) - f(H) for each half H, picks each half's
    best u by (gain, -u), and routes A's pick to A when ``p * gain_A >= (1
    - p) * gain_B``, else B's pick to B.  It asks only ``f.root._evaluate``
    and ``matroid.root._is_independent``, billing nothing, and shares no
    code with the solvers.
    """
    value, independent = _root_oracles(f, matroid)
    halves: tuple[list[int], list[int]] = ([], [])
    for _ in range(matroid.rank):
        used = halves[0] + halves[1]
        pool = [u for u in range(matroid.n) if u not in used and independent(used + [u])]
        if not pool:
            raise InternalInvariantError("split ran out of feasible elements before a base")
        picks = []
        for half in halves:
            offset = value(half)
            gains = {u: value(half + [u]) - offset for u in pool}
            best = _best_by_gain(pool, gains)
            picks.append((gains[best], best))
        (gain_a, u_a), (gain_b, u_b) = picks
        if p * gain_a >= (1.0 - p) * gain_b:
            halves[0].append(u_a)
        else:
            halves[1].append(u_b)
    return canonical(halves[0]), canonical(halves[1])


def _candidate_base(
    value: Callable[[Iterable[int]], float],
    independent: Callable[[Iterable[int]], bool],
    held: list[int],
    n: int,
    size: int,
) -> tuple[dict[int, float], list[int]]:
    """The gain table over the ids outside ``held`` and the candidate base of M / ``held`` it ranks.

    gain(u) = f(held + u) - f(held), built afresh; the base is a greedy scan
    of those ids in a stable sort by descending gain (ascending id on ties),
    keeping u while held + the kept ids + u is independent, until it holds
    ``size`` ids.  The base is returned in scan order.
    """
    offset = value(held)
    gains = {u: value(held + [u]) - offset for u in range(n) if u not in held}
    candidates: list[int] = []
    for u in sorted(gains, key=gains.__getitem__, reverse=True):
        if len(candidates) == size:
            break
        if independent(held + candidates + [u]):
            candidates.append(u)
    if len(candidates) != size:
        raise InternalInvariantError("independence oracle did not extend to a full base")
    return gains, candidates


def reference_rr_greedy(f: SetFunction, matroid: Matroid, seed: int, anchor: Iterable[int] = ()) -> ElementSet:
    """The residual random greedy as the paper states it, on the root oracles contracted by ``anchor``.

    With h = ``anchor`` and k = ``matroid.rank - |h|``, each of k rounds
    builds afresh the gain table gain(u) = f(h + S + u) - f(h + S) over
    every id outside h + S and its candidate base, as
    ``reference_rp_greedy`` does, and adds to S the base's id at index
    ``rng.randrange(k - |S|)`` of its ascending order, where ``rng`` is one
    ``random.Random(seed)`` for the whole run.  Returns S.  It asks only the
    root kernels, billing nothing, and shares no code with the solvers.
    """
    value, independent = _root_oracles(f, matroid)
    anchor = list(canonical(anchor))
    k = matroid.rank - len(anchor)
    rng = random.Random(seed)
    solution: list[int] = []
    for _ in range(k):
        _gains, candidates = _candidate_base(value, independent, anchor + solution, matroid.n, k - len(solution))
        solution.append(sorted(candidates)[rng.randrange(len(candidates))])
    return canonical(solution)


def reference_rp_greedy(
    f: SetFunction, matroid: Matroid, residue: Iterable[int], anchor: Iterable[int] = ()
) -> ElementSet:
    """The coupled parallel greedy as the paper states it, on the root oracles contracted by ``anchor``.

    With h = ``anchor``, the grower maximises f(. | h) on M / h, whose
    ground is every id outside h and whose rank is ``matroid.rank - |h|``;
    ``residue`` must be a base of M / h.  Each of the rank's k copies keeps
    a solution S_j, empty at first, and a copy R_j of the residue.  Every
    round, for every copy, afresh:

    - the gain table is gain(u) = f(h + S_j + u) - f(h + S_j) over every id
      outside h + S_j;
    - the candidate base is a greedy scan over those ids in a stable sort
      by descending gain (ascending id on ties), keeping u while h + S_j +
      the kept ids + u is independent, until it holds k - |S_j| ids;
    - each v in R_j gets the edge (v, j) of the best (gain, -u) among the
      candidates u with gain(u) >= gain(v) (NaN fails) whose swap is
      independent: h + S_j + R_j itself for u = v, and h + S_j + R_j - v + u
      for u outside R_j; a u in R_j other than v gets no edge.

    A dense Hungarian matching (``dense_reference_matching``) of the k x k
    graph then gives each copy its gained u and its given-up v.  Returns the
    first copy of the largest f(h + S_j) - f(h), or f(S_j) when h is empty.
    It asks only the root kernels, billing nothing, and shares no code with
    the solvers.
    """
    value, independent = _root_oracles(f, matroid)
    anchor = list(canonical(anchor))
    base = canonical(residue)
    k = matroid.rank - len(anchor)
    if len(base) != k or set(base) & set(anchor) or not independent(anchor + list(base)):
        raise ValueError("residue argument must be a base of the matroid")
    solutions: list[list[int]] = [[] for _ in range(k)]
    residues = [list(base) for _ in range(k)]
    for _ in range(k):
        graph = WeightedBipartiteGraph(k)
        for j, (solution, rest) in enumerate(zip(solutions, residues)):
            held = anchor + solution
            gains, candidates = _candidate_base(value, independent, held, matroid.n, k - len(solution))
            own = held + rest
            for left, v in enumerate(base):
                if v not in rest:
                    continue
                swapped = [x for x in own if x != v]
                passing = [
                    u for u in candidates
                    if gains[u] >= gains[v]
                    and (independent(own) if u == v else u not in rest and independent(swapped + [u]))
                ]
                if passing:
                    best = _best_by_gain(passing, gains)
                    graph.add_edge(left, j, gains[best], payload=best)
        try:
            matching = dense_reference_matching(graph)
        except InfeasibleMatchingError as exc:
            raise InternalInvariantError(
                "exchange graph lost its perfect matching; the oracles are inconsistent"
            ) from exc
        for right, left, gained, _weight in matching.pairs:
            solutions[right].append(gained)
            residues[right].remove(base[left])
    offset = value(anchor) if anchor else 0.0
    return canonical(max(solutions, key=lambda solution: value(anchor + solution) - offset, default=()))


def reference_msg(f: SetFunction, matroid: Matroid, p: float, seed: int) -> tuple[ElementSet, float]:
    """Randomized split-and-grow as the paper states it, on the root oracles: (solution, value).

    ``reference_split`` with bias ``p`` gives halves A and B; A grows by
    ``reference_rr_greedy`` on M / A with seed ``seed``, and B on M / B with
    seed ``seed + 1``.  The completed base of the larger value wins, A's on
    a tie.
    """
    a, b = reference_split(f, matroid, p)
    return _better_completion(
        f, matroid,
        canonical(a + reference_rr_greedy(f, matroid, seed, anchor=a)),
        canonical(b + reference_rr_greedy(f, matroid, seed + 1, anchor=b)),
    )


def reference_msg_det(f: SetFunction, matroid: Matroid, p: float) -> tuple[ElementSet, float]:
    """Deterministic split-and-grow as the paper states it, on the root oracles: (solution, value).

    ``reference_split`` with bias ``p`` gives halves A and B; A grows by
    ``reference_rp_greedy`` on M / A with B as the residue, and B on M / B
    with A as the residue.  The completed base of the larger value wins, A's
    on a tie.
    """
    a, b = reference_split(f, matroid, p)
    return _better_completion(
        f, matroid,
        canonical(a + reference_rp_greedy(f, matroid, b, anchor=a)),
        canonical(b + reference_rp_greedy(f, matroid, a, anchor=b)),
    )


def _better_completion(
    f: SetFunction, matroid: Matroid, first: ElementSet, second: ElementSet
) -> tuple[ElementSet, float]:
    """(base, value) of the larger root value, ``first`` on a tie."""
    value, _independent = _root_oracles(f, matroid)
    value_first, value_second = value(first), value(second)
    return (first, value_first) if value_first >= value_second else (second, value_second)
