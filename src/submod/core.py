"""Oracle contracts for set functions and matroids.

Ground sets are indexed 0..n-1.  Element sets are canonical ascending
tuples, so set equality is representation equality, hashing works, and
iteration order is deterministic everywhere.  Every oracle call goes
through a shared counter so query complexity can be measured exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Callable, Iterable

ElementSet = tuple[int, ...]


class InternalInvariantError(RuntimeError):
    """A structural guarantee that should hold by construction was violated."""


def canonical(elements: Iterable[int], n: int | None = None) -> ElementSet:
    """Return the canonical ascending tuple of distinct element ids.

    When ``n`` is given, ids outside [0, n) raise ``ValueError``.
    """
    members = tuple(sorted(set(elements)))
    if n is not None and members and (members[0] < 0 or members[-1] >= n):
        raise _out_of_range(members[0] if members[0] < 0 else members[-1], n)
    return members


def _out_of_range(bad: int, n: int) -> ValueError:
    return ValueError(f"element {bad} out of range for ground set of size {n}")


@dataclass
class OracleCounts:
    """Running totals of value and independence oracle calls."""

    value_queries: int = 0
    independence_queries: int = 0


class SetFunction:
    """Value oracle for a set function on ground set {0..n-1}.

    Calling the oracle with any iterable of element ids canonicalizes the
    set, bumps the shared counter by exactly one, and evaluates.  The
    object is immutable apart from the counter, a view's cached offset and
    the cached row function of ``singleton_table``, so a single function
    may be shared by concurrent runs that own separate counters.  ``root``
    owns the evaluator (``root is self`` on a root); ``anchored`` is the set
    a derived view is relative to.

    One billed value query is one kernel answer: a call of
    ``root._evaluate``, or one entry of a row answered by the evaluator's
    ``extend`` hook (see ``singleton_table``), on every path (``__call__`` and
    ``singleton_table``, on roots and on views).  A reported query count is
    therefore the number of raw oracle evaluations the paper's ``O(n k^2)``
    bound counts.  The hook is an attribute of the evaluator object, so
    replacing ``root._evaluate`` with a plain wrapper drops it and every
    answer then goes through the wrapper, which is enough to observe all of
    them.

    The rows of an exact kernel (``instances.build``: unit coverage, or
    all-``int`` coverage or modular weights with a total below 2**53, on at
    least ``GROW_MIN_N`` ids) also carry ``grow(u)``, the row function of
    ``anchored + (u,)``; its first row, if asked for the parent's last ids
    less u, is derived from the parent's last row.  A view that
    ``marginal_function`` grows by a one-id ``base_set`` from a view that
    has answered a row gets its row function from that ``grow``.
    """

    def __init__(
        self,
        n: int,
        evaluate: Callable[[ElementSet], float],
        counts: OracleCounts | None = None,
    ):
        if n < 0:
            raise ValueError("ground set size must be non-negative")
        self.n = n
        self._evaluate = evaluate
        self.counts = counts if counts is not None else OracleCounts()
        self._ground_set = frozenset(range(n))
        self.root = self
        self.anchored: ElementSet = ()
        self._offset: float | None = 0  # a root reports f(S) itself, not f(S) - f(())
        self._row: tuple | None = None  # (evaluator, marginals) of the rows this function answers

    def __call__(self, elements: Iterable[int]) -> float:
        anchored = self.anchored
        members = canonical(chain(anchored, elements) if anchored else elements, self.n)  # a root's anchor is empty
        offset = self._bill(1)
        return self.root._evaluate(members) - offset

    def singleton_table(self, candidates: Iterable[int]) -> dict[int, float]:
        """Map each id u to ``self((u,))``, billed and evaluated exactly as that call.

        The table is one row: each id is one entry, one billed query and one
        kernel answer for ``anchored`` plus u, and a view's lazy offset is
        billed with the row, as on a call.  The ids are checked once, then
        billed together and answered by one call of ``marginals(ids,
        offset)``.  If the root's evaluator carries an ``extend`` hook
        (``instances.build`` gives one to every coverage kernel and to modular
        and concave-of-modular kernels with all-``int`` weights),
        ``marginals`` is ``extend(anchored)``, which reads the anchor once and
        answers each entry bitwise equal to the evaluator's value for that
        set.  Otherwise, a replaced evaluator included, each entry is one
        evaluator call on ``anchored`` with u inserted (not a sort: the
        anchor is already canonical).  The row function is kept while the
        root's evaluator stays the same object, for a view grown from this
        one.  If an id lies outside [0, n), the call's error for the first
        such id is raised before anything is billed or answered.
        """
        ids = tuple(candidates)
        if not ids:
            return {}
        ground = self._ground_set
        if not ground.issuperset(ids):  # one check per row, cheaper than min and max
            raise _out_of_range(next(u for u in ids if u not in ground), self.n)
        offset = self._bill(len(ids))
        evaluate = self.root._evaluate
        row = self._row
        if row is None or row[0] is not evaluate:
            extend = getattr(evaluate, "extend", None)
            marginals = _inserting(evaluate, self.anchored) if extend is None else extend(self.anchored)
            row = self._row = evaluate, marginals
        return row[1](ids, offset)

    def _bill(self, queries: int) -> float:
        """Bill ``queries`` and return the offset root(anchored), billing it once more on first use.

        The offset is lazy so that a view nobody evaluates costs nothing.
        """
        self.counts.value_queries += queries
        if self._offset is None:
            self.counts.value_queries += 1
            self._offset = self.root._evaluate(self.anchored)
        return self._offset


def _inserting(evaluate: Callable[[ElementSet], float], anchored: ElementSet) -> Callable[..., dict[int, float]]:
    """The default ``marginals``: per id, one ``evaluate`` call on the canonical ``anchored`` with u inserted."""

    def marginals(ids: tuple[int, ...], offset: float) -> dict[int, float]:
        table = {}
        for u in ids:
            at = bisect_left(anchored, u)
            if at < len(anchored) and anchored[at] == u:
                table[u] = evaluate(anchored) - offset
            else:
                table[u] = evaluate(anchored[:at] + (u,) + anchored[at:]) - offset
        return table

    return marginals


class Matroid:
    """Independence oracle for a matroid whose active ground set is ``ground``.

    ``n`` is the size of the original index space; contractions shrink
    ``ground`` but keep ``n`` so element ids stay globally meaningful.
    Rank 0 is legal for contractions; concrete instance families reject it.
    ``root`` and ``anchored`` are as on :class:`SetFunction`.

    One billed independence query is one kernel answer for the set asked
    about plus ``anchored``: a call of ``root._is_independent`` with that
    set's canonical tuple, or one ``swap`` answer of the kernel's
    ``exchange`` hook, which answers both an exchange test's swaps (see
    ``exchange_test``) and a greedy scan's offers (see ``greedy_scan``), on
    every path (``is_independent``, ``is_base``, ``contract``,
    ``exchange_test`` and ``greedy_scan``, on roots and on views).  Every
    primitive checks its ids before it bills or asks anything: ids outside
    [0, n), then ids outside ``ground``, raise with ``is_independent``'s
    message.  The hook is an attribute of the kernel object, so replacing
    ``root._is_independent`` with a plain wrapper drops it and every answer
    then goes through the wrapper.
    """

    def __init__(
        self,
        n: int,
        is_independent: Callable[[ElementSet], bool],
        rank: int,
        counts: OracleCounts | None = None,
    ):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.n = n
        self._is_independent = is_independent
        self.rank = rank
        self.counts = counts if counts is not None else OracleCounts()
        self.ground = tuple(range(n))
        self._ground_set = frozenset(self.ground)
        self.root = self
        self.anchored: ElementSet = ()

    def is_independent(self, elements: Iterable[int]) -> bool:
        """Bill one independence query and ask the root about ``elements + anchored``.

        One billed query is one call of the root's ``_is_independent``, with
        the canonical tuple of the union.  Ids outside [0, n), then ids
        outside ``ground``, raise before anything is billed.
        """
        members = set(elements)
        if not members <= self._ground_set:
            self._reject(members)
        self.counts.independence_queries += 1
        members.update(self.anchored)
        return bool(self.root._is_independent(tuple(sorted(members))))

    def _reject(self, members: set[int]) -> None:
        """Raise ``is_independent``'s error for a set that is not within ``ground``."""
        canonical(members, self.n)  # ids outside [0, n) raise here first
        raise ValueError(f"element {min(members - self._ground_set)} is not in the matroid ground set")

    def exchange_test(self, kept: Iterable[int]) -> Callable[..., bool]:
        """Return ``test(u, v=None)``, which answers ``is_independent(kept - {v} + {u})``.

        Each test is one billed query and one kernel answer for that set.
        ``kept`` is validated and sorted with ``anchored`` once, here, into
        ``base``; each test checks ``u`` and looks ``v`` up in ``kept`` in
        O(1).  A ``v`` outside ``kept`` removes nothing, as in the set
        difference.  If the root's kernel carries an ``exchange`` hook
        (``instances.build`` gives one to every kernel it builds),
        ``exchange(base)`` reads ``base`` once and each answer is its
        ``swap(add, drop)``, equal to the kernel's answer for that set; the
        hook returns None for a dependent ``base``.  Otherwise, a declined or
        replaced kernel included, each answer is one kernel call with the
        tuple built from ``base`` by at most one removal and one insertion,
        the tuple ``is_independent`` would pass.
        """
        kept = set(kept)
        if not kept <= self._ground_set:
            self._reject(kept)
        base = tuple(sorted(kept.union(self.anchored)))
        ground, counts = self._ground_set, self.counts
        independent = self.root._is_independent
        swap = _swap_of(independent, getattr(independent, "exchange", None), base)

        def test(u: int, v: int | None = None) -> bool:
            if u not in ground:
                self._reject({u})
            counts.independence_queries += 1
            # ground and anchored are disjoint, so a u outside kept is outside base
            return bool(swap(None if u in kept else u, v if v in kept and v != u else None))

        return test

    def greedy_scan(self, order: Iterable[int], answered: dict[int, bool] | None = None) -> list[int]:
        """Keep each id of ``order`` that stays independent with the ids kept before it.

        The test for ``u`` is one billed query and one kernel answer for
        ``anchored + kept + [u]``; the scan stops, without a query, once
        ``rank`` ids are kept (at rank 0, before it asks any hook).  The
        members start as ``anchored``, which is always independent
        (``contract`` checked it, or the caller of ``_contracted`` knew
        it).  Each offer is a ``swap`` of the members as ``exchange_test``
        builds it: ``swap(u, None)`` for a fresh u, ``swap(None, None)`` for
        one that repeats a member, and u stays a member on a yes.  The swap
        is rebuilt from the sorted members just before the first offer the
        kernel is asked after a keep, so a scan that reaches ``rank`` builds
        none after its last keep.  The offers asked are billed
        together, one query each.

        ``answered``, if given, maps the bitmask of each set the root was
        asked about, anchor included, to its answer: an offer whose set is
        there is neither asked nor billed, and every answer asked is added.
        So one store serves every view of one root.

        If an id lies outside ``ground``, ``is_independent``'s error for the
        first such id is raised before anything is billed or asked, even
        where the scan would stop at ``rank`` before reaching it.  Returns
        the kept ids in scan order.
        """
        order = tuple(order)
        ground = self._ground_set
        if not ground.issuperset(order):
            self._reject({next(u for u in order if u not in ground)})
        limit = self.rank
        if not limit:
            return []
        independent = self.root._is_independent
        exchange = getattr(independent, "exchange", None)
        members = self.anchored
        mask = sum(1 << v for v in members)  # the members' bitmask
        kept: list[int] = []
        swap = None
        asked = 0  # the offers the kernel answered
        for u in order:
            key = mask | (1 << u)
            fresh = key != mask  # u repeats a member otherwise
            answer = None if answered is None else answered.get(key)
            if answer is None:
                if swap is None:
                    swap = _swap_of(independent, exchange, members)
                answer = bool(swap(u if fresh else None, None))
                asked += 1
                if answered is not None:
                    answered[key] = answer
            if answer:
                kept.append(u)
                if len(kept) == limit:
                    break
                if fresh:
                    at = bisect_left(members, u)
                    members, mask, swap = members[:at] + (u,) + members[at:], key, None
        self.counts.independence_queries += asked
        return kept


def _swap_of(
    independent: Callable[[ElementSet], bool], exchange: Callable | None, base: ElementSet
) -> Callable[..., bool]:
    """``exchange(base)``'s ``swap``, or ``_swapping``'s where there is no hook or it declines ``base``."""
    swap = None if exchange is None else exchange(base)
    return _swapping(independent, base) if swap is None else swap


def _swapping(independent: Callable[[ElementSet], bool], base: ElementSet) -> Callable[..., bool]:
    """The default ``swap``: ``independent`` on the canonical ``base`` less ``drop`` plus ``add``."""

    def swap(add: int | None, drop: int | None) -> bool:
        members = base
        if drop is not None:
            at = bisect_left(members, drop)
            members = members[:at] + members[at + 1:]
        if add is not None:
            at = bisect_left(members, add)
            members = members[:at] + (add,) + members[at:]
        return independent(members)

    return swap


def marginal_function(f: SetFunction, base_set: Iterable[int]) -> SetFunction:
    """The function S -> f(S | base_set), counted on f's counter.

    A flat view on ``f.root`` anchored at ``f.anchored + base_set``: a call
    costs one root evaluation however deep the derivation.  root(anchored)
    is evaluated lazily on the first call and cached, so each later
    evaluation costs exactly one fresh oracle query.  A one-id
    ``base_set`` is inserted into the canonical anchor by bisect, with
    ``canonical``'s range check and message; the view, and so every root
    question it asks, is the same.  A one-id ``base_set`` outside the anchor
    of an ``f`` whose row function carries ``grow`` gives the view its row
    function from that ``grow``.
    """
    members = tuple(base_set)
    anchored = f.anchored
    added = None  # the id a one-id base_set adds to f's anchor
    if len(members) == 1:
        u = members[0]
        if not 0 <= u < f.n:
            raise _out_of_range(u, f.n)
        at = bisect_left(anchored, u)
        if at == len(anchored) or anchored[at] != u:
            anchored, added = anchored[:at] + members + anchored[at:], u
    else:
        anchored = canonical(chain(anchored, members), f.n)
    view = object.__new__(SetFunction)
    view.n, view.counts, view.root, view._ground_set = f.n, f.counts, f.root, f._ground_set
    view.anchored = anchored
    view._offset = None
    view._row = None
    if added is not None and f._row is not None:
        grow = getattr(f._row[1], "grow", None)
        if grow is not None:
            view._row = f._row[0], grow(added)
    return view


def contract(matroid: Matroid, independent_set: Iterable[int]) -> Matroid:
    """The matroid on ground \\ A where S is independent iff S + A was.

    A flat view on ``matroid.root`` anchored at ``matroid.anchored + A``,
    built by ``_contracted`` once A's ids are checked.  The dependence check
    is ``is_independent(A)``'s query: the same validation and billing, and
    the root is asked about the view's sorted anchor, which is that query's
    tuple.  No view is handed out before its anchor passed the check.
    """
    away = canonical(independent_set, matroid.n)
    if not matroid._ground_set.issuperset(away):
        matroid._reject(set(away))
    view = _contracted(matroid, away)
    matroid.counts.independence_queries += 1
    if not matroid.root._is_independent(view.anchored):
        raise ValueError("cannot contract a dependent set")
    return view


def _contracted(matroid: Matroid, away: Iterable[int]) -> Matroid:
    """The view ``contract(matroid, away)`` returns, built without its check: it asks and bills nothing.

    For a caller that already knows the ids of ``away`` lie in ``ground``
    and that ``anchored + away`` is independent.  The view's ground keeps
    the ascending order of ``matroid.ground``; an empty ``away`` shares it.
    """
    cut = frozenset(away)
    view = object.__new__(Matroid)
    view.n, view.counts, view.root = matroid.n, matroid.counts, matroid.root
    view.anchored, view.rank = tuple(sorted(cut.union(matroid.anchored))), matroid.rank - len(cut)
    view.ground, view._ground_set = matroid.ground, matroid._ground_set
    if cut:
        view.ground = tuple(filterfalse(cut.__contains__, matroid.ground))
        view._ground_set = matroid._ground_set - cut
    return view


def is_base(matroid: Matroid, elements: Iterable[int]) -> bool:
    """True iff the set is independent and of full rank.

    Ids outside [0, n) raise whatever the set's size; a set of the wrong
    size is rejected without a query.
    """
    members = set(elements)
    if len(members) != matroid.rank:
        canonical(members, matroid.n)  # ids outside [0, n) still raise
        return False
    return matroid.is_independent(members)
