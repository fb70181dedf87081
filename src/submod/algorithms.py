"""Greedy solvers for monotone submodular maximization under a matroid.

The headline solver splits a base into two halves with a biased greedy
sweep, grows each half back to a full base on the contracted matroid, and
keeps the better of the two.  With the growing step done by the
matching-coupled parallel greedy the whole pipeline is deterministic and
guarantees strictly more than half of the optimum (0.5008 at x = 0.9).

All argmax ties break toward the smallest element id, so every
deterministic routine here has exactly one possible output per input.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, insort
from dataclasses import asdict, dataclass
from itertools import chain
from operator import le
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    ElementSet,
    InternalInvariantError,
    Matroid,
    OracleCounts,
    SetFunction,
    _contracted,
    canonical,
    contract,
    is_base,
    marginal_function,
)
from .matching import (
    InfeasibleMatchingError,
    WeightedBipartiteGraph,
    max_weight_perfect_matching,
)

ALGORITHMS = ("greedy", "split", "rrgreedy", "rpgreedy", "msg", "msg-det")
DEFAULT_X = 0.9


def gain_curve(x: float) -> float:
    """x - x^2/2, the progress curve of the residual greedy sweep."""
    return x - x * x / 2.0


@dataclass(frozen=True)
class Parameters:
    """Derived run parameters: split bias and worst-case guarantee."""

    x: float
    g_x: float
    beta: float
    p: float
    w_beta: float
    bound: float


def split_bias(beta: float) -> tuple[float, float]:
    """The split bias p for weight beta, and w_beta, the weighted-average bound's factor."""
    root = math.sqrt((1.0 - beta) * beta)
    return beta / (beta + root), (2.0 / 3.0) * (1.0 - root)


def parameters(x: float) -> Parameters:
    """Compute the closed-form parameter chain for a mixing point x in [0, 1).

    x = 1 is rejected because the beta formula degenerates to 0/0 there.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    g_x = gain_curve(x)
    beta = (2.0 - x - 2.0 * g_x) / (4.0 - 3.0 * x - 2.0 * g_x)
    if not 0.2 <= beta <= 0.8:
        raise ValueError(f"derived beta {beta} falls outside the admissible range [1/5, 4/5]")
    p, w_beta = split_bias(beta)
    bound = (1.0 + g_x + (4.0 - 3.0 * x - 2.0 * g_x) * w_beta) / (5.0 - 2.0 * x)
    return Parameters(x=x, g_x=g_x, beta=beta, p=p, w_beta=w_beta, bound=bound)


@dataclass(frozen=True)
class SplitResult:
    """Two disjoint sets whose union is a base."""

    a: ElementSet
    b: ElementSet


@dataclass
class RunReport:
    algorithm: str
    solution: ElementSet
    value: float
    counts: OracleCounts
    parameters: Parameters | None = None
    seed: int | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def marginal_table(
    f: SetFunction, anchored: Iterable[int], candidates: Iterable[int]
) -> dict[int, float]:
    """Map each candidate u to f(u | anchored), one oracle query per entry."""
    return marginal_function(f, anchored).singleton_table(candidates)


def _argmax_by_id(candidates: Iterable[int], gains: Mapping[int, float]) -> int:
    return max(candidates, key=lambda u: (gains[u], -u))


def max_weight_base(matroid: Matroid, weights: Mapping[int, float] | Sequence[float]) -> ElementSet:
    """Greedy maximum-weight base: descending weight, ascending id scan.

    Raises ``InternalInvariantError`` if the scan keeps fewer than ``rank`` ids.
    """
    # ground is ascending and the sort is stable, so ties keep the smallest id first
    chosen = matroid.greedy_scan(sorted(matroid.ground, key=weights.__getitem__, reverse=True))
    if len(chosen) != matroid.rank:
        raise InternalInvariantError("independence oracle did not extend to a full base")
    return canonical(chosen)


def _feasible_pool(matroid: Matroid, used: set[int], candidates: Iterable[int]) -> list[int]:
    """The ids of ``candidates`` outside ``used`` that can extend ``used`` while staying independent.

    ``split`` passes last round's pool as ``candidates``, not the ground:
    an id dependent with a set stays dependent with every superset (a
    subset of an independent set is independent), so only an id of last
    round's pool can extend this round's larger ``used``.  The pool keeps
    the ascending order of the ground.
    """
    extends = matroid.exchange_test(used)
    return [u for u in candidates if u not in used and extends(u)]


def split(f: SetFunction, matroid: Matroid, p: float) -> SplitResult:
    """Partition a base into two disjoint halves with a p-biased greedy sweep.

    Each iteration scans the elements that can still extend the union, takes
    the best marginal candidate relative to each half, and routes the winner
    of ``p * gain_a >= (1 - p) * gain_b`` to the first half (ties included).
    p = 1 is the classical greedy (Nemhauser, Wolsey and Fisher, 1978):
    when every gain is finite and non-negative, as a monotone function's
    are, each pick goes to the first half and the second stays empty.
    Each round tests only last round's pool less the routed id: the pool
    only shrinks as the union grows (see ``_feasible_pool``).

    Each round asks one table.  While both halves are empty the two tables
    are one.  After that only the half that gained has a new anchor, so only
    its table is asked again, through its view grown by the routed id (an
    exact kernel's ``grow`` rows apply); the idle half keeps last round's
    table, whose entries for the new pool are the same floats from the same
    anchor.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    side_a: list[int] = []
    side_b: list[int] = []
    used: set[int] = set()
    pool = matroid.ground
    view_a = view_b = marginal_function(f, ())  # each half's view, anchored at the half
    gains_a = gains_b = None  # each half's table, None once the half has gained since it was asked
    for _ in range(matroid.rank):
        pool = _feasible_pool(matroid, used, pool)
        if not pool:
            raise InternalInvariantError("split ran out of feasible elements before a base")
        if gains_a is None:
            gains_a = view_a.singleton_table(pool)
        if gains_b is None:
            gains_b = gains_a if view_b is view_a else view_b.singleton_table(pool)  # both halves empty: one table
        u_a = _argmax_by_id(pool, gains_a)
        u_b = _argmax_by_id(pool, gains_b)
        if p * gains_a[u_a] >= (1.0 - p) * gains_b[u_b]:
            side_a.append(u_a)
            used.add(u_a)
            view_a, gains_a = marginal_function(view_a, (u_a,)), None
        else:
            side_b.append(u_b)
            used.add(u_b)
            view_b, gains_b = marginal_function(view_b, (u_b,)), None
    return SplitResult(a=canonical(side_a), b=canonical(side_b))


class _GrownCopy:
    """One copy of a residual greedy grower: its solution S and its maximum-gain bases round by round.

    The copy keeps the matroid M it was handed, its residual ground (M's
    ground less S, ascending), its marginal view, its last gain table and
    its last base B.  Gaining an id u only records it; the next ``base``
    cuts u out of the ground by bisect and anchors the view at u, which
    asks the root the same value questions in the same order as anchoring
    afresh would.  The opening round scans M itself.

    B less u is still the greedy base of M/(S+u), and the sort and the scan
    are skipped, when the new table equals the last one less u, or when no
    entry rose and every id of B less u kept its entry exactly; a NaN
    compares false either way (a row's NaN is always a fresh float, which
    equals nothing), so it forces a fresh sort and scan.  The reuse is exact
    for any set function: ids of B less u keep their (-gain, id) key and
    every other id's key can only move later, so each id outside B, spanned
    in M/S by the ids of B ahead of it in the old order, is spanned in
    M/(S+u) by the ids of B less u ahead of it in the new order.

    A fresh scan is ``max_weight_base`` on M/S, built for that round only by
    ``core._contracted``, which asks nothing: each gained id lay in the base
    B of its round, and S + B is independent, so S is.  The view's ground
    is the copy's ground.
    """

    __slots__ = ("matroid", "solution", "ground", "view", "step", "gains", "kept")

    def __init__(self, f: SetFunction, matroid: Matroid):
        self.matroid, self.ground, self.view = matroid, matroid.ground, f
        self.solution: list[int] = []  # ascending
        self.step: ElementSet = ()  # the id gained since the last base, to cut and anchor by
        self.gains: dict[int, float] = {}
        self.kept: list[int] = []  # the last base, ascending; never handed out, only copies of it

    def fork(self) -> _GrownCopy:
        """A twin that shares this copy's matroid, ground and view and owns copies of its lists and table."""
        twin = object.__new__(_GrownCopy)
        twin.matroid, twin.ground, twin.view, twin.step = self.matroid, self.ground, self.view, self.step
        twin.solution, twin.kept = self.solution[:], self.kept[:]
        twin.gains = self.gains.copy()
        return twin

    def gain(self, u: int) -> None:
        insort(self.solution, u)
        self.step = (u,)

    def base(self) -> tuple[dict[int, float], list[int]]:
        """Move forward by the last gain; return the gain table and the maximum-gain base, ascending."""
        step, last, kept, ground = self.step, self.gains, self.kept, self.ground
        if step:
            at = bisect_left(ground, step[0])
            ground = self.ground = ground[:at] + ground[at + 1:]
            del last[step[0]]
            kept.remove(step[0])
        self.view = marginal_function(self.view, step)
        gains = self.view.singleton_table(ground)
        # both tables hold the ids of ground; each new entry is compared with the old one of its id
        reused = step and (
            gains == last
            or all(map(le, gains.values(), map(last.__getitem__, gains))) and all(gains[v] == last[v] for v in kept)
        )
        if not reused:
            residual = _contracted(self.matroid, self.solution) if step else self.matroid
            self.kept = [*max_weight_base(residual, gains)]
        self.gains = gains
        return gains, self.kept[:]


def rr_greedy(f: SetFunction, matroid: Matroid, rng_seed: int) -> ElementSet:
    """Residual random greedy: draw uniformly from the best residual base.

    Each iteration recomputes the maximum-marginal-weight base of the
    matroid contracted by the current solution and adds one of its elements
    uniformly at random.  Reproducible: the same seed yields the same set.
    The solution and its bases are a ``_GrownCopy``'s.
    """
    rng = random.Random(rng_seed)
    copy = _GrownCopy(f, matroid)
    for _ in range(matroid.rank):
        _gains, candidate_base = copy.base()
        copy.gain(candidate_base[rng.randrange(len(candidate_base))])
    return tuple(copy.solution)


def _swap_asker(
    matroid: Matroid, residue: Iterable[int], solution: Iterable[int], own: int, answered: dict[int, bool]
) -> Callable[[int, int], bool]:
    """Return ``test(u, v)``: whether solution + residue - {v} + {u} is independent, asking each set once.

    ``own`` is the bitmask of solution + residue, v lies in the residue and
    u is v or lies in neither part.  ``answered`` maps the bitmask of each
    set asked so far to its answer; a set found there is not asked again.
    The exchange test is built on the first question ``answered`` misses.
    """
    swap = None

    def test(u: int, v: int) -> bool:
        nonlocal swap
        key = own ^ (1 << v) ^ (1 << u)  # v leaves and u joins; u == v leaves the set as it is
        answer = answered.get(key)
        if answer is None:
            if swap is None:
                swap = matroid.exchange_test(chain(residue, solution))  # the parts are disjoint
            answer = answered[key] = swap(u, v)
        return answer

    return test


def rp_greedy(f: SetFunction, matroid: Matroid, residue: Iterable[int]) -> ElementSet:
    """Deterministic residual greedy coupling k parallel solutions.

    ``residue`` must be a base.  Every solution j keeps a shrinking copy of
    it; per iteration a bipartite graph pairs residue elements with
    solutions (an edge means the swap keeps solution + residue a base and
    does not decrease the marginal), and a maximum-weight perfect matching
    decides simultaneously which element each solution gains and which
    residue element it gives up.  Returns the best final solution.

    solution + residue keeps exactly ``rank`` elements every round: each
    copy gains one element and gives up one.  A candidate u still in copy
    j's residue pairs only with v = u, because for any other v the swapped
    set is solution + residue - {v}, one element short of the rank, and
    never a base; every such pair asks about solution + residue itself.
    Every other swap, solution + residue - {v} + {u} with u in neither, has
    full size, so an edge test is one independence query on it and needs no
    size check.  The graph keeps one edge per (v, j), the largest gain and
    then the smallest u, so a round offers the candidates by (-gain, id),
    NaN gains dropped, and stops asking about v once v has its edge.  A copy
    whose candidate base is exactly its residue, every gain finite and
    non-negative (the weights ``add_edge`` accepts), has a self-pair round:
    it tests solution + residue once and stores each u's edge to itself, the
    graph that loop would build, with no sort and no offers.  A NaN,
    negative or infinite gain takes the loop, which drops a NaN u and lets
    ``add_edge`` refuse the others.

    A call's edge tests ask the kernel about each set at most once: every
    answer is kept, keyed by the set's bitmask, and a test finds it there
    (see ``_swap_asker``).  So a copy's solution + residue is asked at most
    once per call, in the opening round: its next one is the swap its
    matched edge passed, or the same set after a self pair, both already
    answered yes.  That one question repeats the residue check's, and is
    kept: it is what catches a kernel that passes the residue and then
    denies every swap.  A round whose tests all find their answers builds
    no exchange test.

    Each copy's solution and candidate bases are a ``_GrownCopy``'s.  The
    k copies start alike, so the opening round is asked once, as one column
    that the graph stores for every copy, and the other copies fork from
    it.  A residue is kept as a dict in ascending id order, from which each
    given-up id is deleted.
    """
    base = canonical(residue, matroid.n)
    if not is_base(matroid, base):
        raise ValueError("residue argument must be a base of the matroid")
    k = matroid.rank
    left_of = {v: idx for idx, v in enumerate(base)}
    copies: list[_GrownCopy] = []
    residues = [dict.fromkeys(base) for _ in range(k)]  # ascending, as base is
    owns = [sum(1 << v for v in base)] * k  # the bitmask of each copy's solution + residue
    answered: dict[int, bool] = {}  # the bitmask of each set asked in this call, to its answer

    for _ in range(k):
        if copies:
            rounds = [copy.base() for copy in copies]
        else:  # every copy starts alike: one opening column, stored for every copy
            first = _GrownCopy(f, matroid)
            rounds = [first.base()]
            copies = [first, *(first.fork() for _ in range(k - 1))]
        graph = WeightedBipartiteGraph(k)
        for j, (gains, candidates) in enumerate(rounds):
            residue = residues[j]
            test = _swap_asker(matroid, residue, copies[j].solution, owns[j], answered)
            weights = [*map(gains.__getitem__, candidates)]
            if candidates == [*residue] and all(map(math.isfinite, weights)) and min(weights) >= 0.0:
                if test(candidates[0], candidates[0]):  # a self-pair round: each u's one edge is v = u
                    graph.fill_column(j, zip(map(left_of.__getitem__, candidates), weights, candidates))
                continue
            waiting = {v: gains[v] for v in residue}  # the residue ids still without an edge, to their gains
            # by (-gain, id), NaN dropped: the first u that passes with v is the edge the graph keeps
            for u in sorted([u for u in candidates if gains[u] == gains[u]], key=gains.__getitem__, reverse=True):
                gain_u = gains[u]
                if u not in residue:
                    for v in [v for v, gain_v in waiting.items() if gain_u >= gain_v and test(u, v)]:
                        graph.add_edge(left_of[v], j, gain_u, payload=u)
                        del waiting[v]
                elif u in waiting and test(u, u):  # pairs only with v = u
                    graph.add_edge(left_of[u], j, gain_u, payload=u)
                    del waiting[u]
        if len(rounds) < k:  # the opening round: copies 1..k-1 hold column 0's edges
            graph.repeat_first_column()
        try:
            matching = max_weight_perfect_matching(graph)
        except InfeasibleMatchingError as exc:
            raise InternalInvariantError(
                "exchange graph lost its perfect matching; the oracles are inconsistent"
            ) from exc

        for right, left, gained, _weight in matching.pairs:
            copies[right].gain(gained)
            del residues[right][base[left]]
            owns[right] ^= (1 << base[left]) ^ (1 << gained)  # a self pair changes nothing

    return tuple(max((copy.solution for copy in copies), key=f, default=()))  # the first copy of the largest value


def _meter(f: SetFunction, matroid: Matroid) -> Callable[..., RunReport]:
    """Return ``report(algorithm, solution, value, parameters=None, seed=None)``.

    The report bills the queries made and the time spent since this call.
    """
    started = time.perf_counter()
    v0, i0 = f.counts.value_queries, matroid.counts.independence_queries

    def report(algorithm: str, solution: ElementSet, value: float,
               parameters: Parameters | None = None, seed: int | None = None) -> RunReport:
        counts = OracleCounts(f.counts.value_queries - v0, matroid.counts.independence_queries - i0)
        return RunReport(algorithm, solution, value, counts, parameters, seed, time.perf_counter() - started)

    return report


def _split_and_grow(
    f: SetFunction,
    matroid: Matroid,
    algorithm: str,
    x: float,
    seed: int | None,
    grow: Callable[[SetFunction, Matroid, ElementSet, int], ElementSet],
) -> RunReport:
    """Split; grow each half h as grow(f(. | h), M / h, other half, side 0 or 1); keep the better."""
    report = _meter(f, matroid)
    params = parameters(x)
    half = split(f, matroid, params.p)
    grown_a = grow(marginal_function(f, half.a), contract(matroid, half.a), half.b, 0)
    grown_b = grow(marginal_function(f, half.b), contract(matroid, half.b), half.a, 1)
    first = canonical(half.a + grown_a)
    second = canonical(half.b + grown_b)
    value_first = f(first)
    value_second = f(second)
    if value_first >= value_second:
        solution, value = first, value_first
    else:
        solution, value = second, value_second
    return report(algorithm, solution, value, params, seed)


def split_and_grow(
    f: SetFunction,
    matroid: Matroid,
    x: float = DEFAULT_X,
    rng_seed: int = 0,
) -> RunReport:
    """Randomized split-and-grow: split, then grow each half randomly.

    The two growing runs use seeds ``rng_seed`` and ``rng_seed + 1``.
    """
    return _split_and_grow(f, matroid, "msg", x, rng_seed,
                           lambda g, contracted, _other, side: rr_greedy(g, contracted, rng_seed + side))


def split_and_grow_deterministic(
    f: SetFunction,
    matroid: Matroid,
    x: float = DEFAULT_X,
) -> RunReport:
    """Deterministic split-and-grow: grow each half with the parallel greedy.

    Each half is completed on the contracted matroid using the other half
    as the residue base, so the whole run is deterministic and the output
    is a base.
    """
    return _split_and_grow(f, matroid, "msg-det", x, None,
                           lambda g, contracted, other, _side: rp_greedy(g, contracted, other))


def solve(
    f: SetFunction,
    matroid: Matroid,
    algorithm: str,
    x: float = DEFAULT_X,
    seed: int = 0,
) -> RunReport:
    """Dispatch to a solver by name; every rank from 1 up takes the same path.

    Algorithm names: greedy, split, rrgreedy, rpgreedy, msg, msg-det.  The
    split bias is always the one ``parameters(x)`` derives from x.  At rank
    1 every solver returns the best independent singleton, the smallest id
    on ties, since a greedy step is exact when every base is one element.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose one of {', '.join(ALGORITHMS)}")
    if matroid.rank < 1:
        raise ValueError("solve needs a matroid of rank >= 1")

    if algorithm == "msg":
        return split_and_grow(f, matroid, x=x, rng_seed=seed)
    if algorithm == "msg-det":
        return split_and_grow_deterministic(f, matroid, x=x)
    report = _meter(f, matroid)
    params = used_seed = None
    if algorithm in ("greedy", "split"):  # greedy is the sweep at p = 1 and reads no x
        params = None if algorithm == "greedy" else parameters(x)
        half = split(f, matroid, 1.0 if params is None else params.p)
        solution = canonical(half.a + half.b)  # the full base assembled by the sweep
    elif algorithm == "rrgreedy":
        solution, used_seed = rr_greedy(f, matroid, seed), seed
    else:  # rpgreedy, seeded with the lexicographically first base as residue
        solution = rp_greedy(f, matroid, max_weight_base(matroid, [0.0] * matroid.n))
    return report(algorithm, solution, f(solution), params, used_seed)
