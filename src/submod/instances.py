"""Concrete matroid and function families plus instance (de)serialization.

Instance files are self-describing JSON documents with top-level keys
``{n, matroid, function, label}``.  Weights are kept as integers wherever
possible so different algorithms can be compared exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterator

from .core import Matroid, OracleCounts, SetFunction

# The one definition of the instance document: each kind's fields and
# their JSON shapes, in the order the loader reads them.  Load and save
# both follow these tables.
SCALAR, LIST, ROWS = "scalar", "list", "list of lists"
MATROID_FIELDS = {
    "uniform": {"k": SCALAR},
    "partition": {"parts": ROWS, "capacities": LIST},
    "graphic": {"num_vertices": SCALAR, "edges": ROWS},
}
FUNCTION_FIELDS = {
    "modular": {"weights": LIST},
    "coverage": {"universe_weights": LIST, "covers": ROWS},
    "weighted_coverage": {"universe_weights": LIST, "covers": ROWS},
    "concave_of_modular": {"weights": LIST, "exponent": SCALAR},
}
MATROID_KINDS = tuple(MATROID_FIELDS)
FUNCTION_KINDS = tuple(FUNCTION_FIELDS)


class InstanceFormatError(ValueError):
    """Raised when an instance document is malformed or inconsistent."""


# Exact type tests: Python counts bools as ints, but an instance file may not.
def _is_int(value) -> bool:
    return type(value) is int


def _is_real(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _check_each(values, is_valid, requirement: str) -> None:
    for value in values:
        if not is_valid(value):
            raise InstanceFormatError(f"{requirement}, got {value!r}")


def _check_total(values, start: float, field: str) -> None:
    """Reject non-negative weights whose total, summed from ``start`` in index order, is not a finite float.

    The oracles sum a set's weights the same way, lowest index first, and
    every partial sum is at most the total's, so a finite total keeps every
    value finite.
    """
    try:
        total = float(sum(values, start))
    except OverflowError:  # an int too large for a float
        total = math.inf
    if not math.isfinite(total):
        raise InstanceFormatError(f"{field} must sum to a finite float, got a total too large for one")


def _link(parent: list[int], a: int, b: int) -> bool:
    """Join the trees of vertices a and b in a union-find forest; False if they share one already.

    Both ends walk to their roots with path halving, as in the graphic ``exchange`` base read.
    """
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a == b:
        return False
    parent[b] = a
    return True


def _root(parent: list[int], v: int) -> int:
    """The root of vertex v's tree in a union-find forest."""
    while parent[v] != v:
        v = parent[v]
    return v


def _touched_edges(edges) -> tuple[tuple[tuple[int, int], ...], int]:
    """Renumber the touched vertices 0, 1, ... (isolated ones change no test); return edges and count."""
    index: dict[int, int] = {}
    relabeled = tuple((index.setdefault(a, len(index)), index.setdefault(b, len(index))) for a, b in edges)
    # build holds the edges as long as its oracle lives: keep the spec's own if unchanged
    return (edges if relabeled == edges else relabeled), len(index)


@dataclass(frozen=True)
class MatroidSpec:
    kind: str
    k: int | None = None
    parts: tuple[tuple[int, ...], ...] | None = None
    capacities: tuple[int, ...] | None = None
    num_vertices: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def validate(self, n: int) -> None:
        if self.kind == "uniform":
            if not _is_int(self.k) or not 1 <= self.k <= n:
                raise InstanceFormatError(f"matroid.k must be an integer in [1, {n}], got {self.k!r}")
        elif self.kind == "partition":
            if self.parts is None or self.capacities is None:
                raise InstanceFormatError("partition matroid needs matroid.parts and matroid.capacities")
            if len(self.parts) != len(self.capacities):
                raise InstanceFormatError(
                    f"matroid.capacities has {len(self.capacities)} entries for {len(self.parts)} parts"
                )
            _check_each(self.capacities, _is_int, "matroid.capacities must hold integers")
            _check_each(chain.from_iterable(self.parts), _is_int, "matroid.parts must hold integers")
            seen: set[int] = set()
            for i, part in enumerate(self.parts):
                if not part:
                    raise InstanceFormatError(f"matroid.parts[{i}] is empty")
                for u in part:
                    if not 0 <= u < n:
                        raise InstanceFormatError(f"matroid.parts[{i}] contains out-of-range element {u}")
                    if u in seen:
                        raise InstanceFormatError(f"matroid.parts lists element {u} in two parts")
                    seen.add(u)
            if len(seen) != n:
                raise InstanceFormatError("matroid.parts must cover every element exactly once")
            for i, (part, cap) in enumerate(zip(self.parts, self.capacities)):
                if not 0 <= cap <= len(part):
                    raise InstanceFormatError(f"matroid.capacities[{i}]={cap} outside [0, {len(part)}]")
            if sum(self.capacities) < 1:
                raise InstanceFormatError("matroid.capacities must sum to at least 1 (the rank)")
        elif self.kind == "graphic":
            if not _is_int(self.num_vertices) or self.num_vertices < 1:
                raise InstanceFormatError("matroid.num_vertices must be a positive integer")
            if self.edges is None or len(self.edges) != n:
                got = None if self.edges is None else len(self.edges)
                raise InstanceFormatError(f"matroid.edges must list {n} edges, got {got}")
            _check_each(chain.from_iterable(self.edges), _is_int, "matroid.edges must hold integers")
            for i, edge in enumerate(self.edges):
                if len(edge) != 2 or not all(0 <= v < self.num_vertices for v in edge):
                    raise InstanceFormatError(f"matroid.edges[{i}]={edge} is not a valid vertex pair")
            if self.rank(n) < 1:
                raise InstanceFormatError("matroid.edges must hold an edge that is not a self-loop (rank >= 1)")
        else:
            raise InstanceFormatError(f"unknown matroid kind {self.kind!r}")

    def rank(self, n: int) -> int:
        if self.kind == "uniform":
            return int(self.k)  # type: ignore[arg-type]
        if self.kind == "partition":
            return sum(self.capacities)  # type: ignore[arg-type]
        edges, num_touched = _touched_edges(self.edges)
        parent = list(range(num_touched))
        return sum(_link(parent, a, b) for a, b in edges)  # a self-loop merges nothing


@dataclass(frozen=True)
class FunctionSpec:
    kind: str
    weights: tuple[float, ...] | None = None
    universe_weights: tuple[float, ...] | None = None
    covers: tuple[tuple[int, ...], ...] | None = None
    exponent: float | None = None

    def validate(self, n: int) -> None:
        if self.kind in ("modular", "concave_of_modular"):
            if self.weights is None or len(self.weights) != n:
                got = None if self.weights is None else len(self.weights)
                raise InstanceFormatError(f"function.weights must list {n} values, got {got}")
            _check_each(self.weights, _is_real, "function.weights must hold finite real numbers")
            if any(w < 0 for w in self.weights):
                raise InstanceFormatError("function.weights must be non-negative")
            _check_total(self.weights, 0, "function.weights")
            if self.kind == "concave_of_modular":
                if not _is_real(self.exponent) or not 0 < self.exponent <= 1:
                    raise InstanceFormatError(f"function.exponent must lie in (0, 1], got {self.exponent}")
        elif self.kind in ("coverage", "weighted_coverage"):
            if self.universe_weights is None:
                raise InstanceFormatError("function.universe_weights is required for coverage functions")
            _check_each(
                self.universe_weights, _is_real, "function.universe_weights must hold finite real numbers"
            )
            if any(w < 0 for w in self.universe_weights):
                raise InstanceFormatError("function.universe_weights must be non-negative")
            _check_total(self.universe_weights, 0.0, "function.universe_weights")
            if self.covers is None or len(self.covers) != n:
                got = None if self.covers is None else len(self.covers)
                raise InstanceFormatError(f"function.covers must list {n} subsets, got {got}")
            m = len(self.universe_weights)
            _check_each(chain.from_iterable(self.covers), _is_int, "function.covers must hold integers")
            for i, cover in enumerate(self.covers):
                for item in cover:
                    if not 0 <= item < m:
                        raise InstanceFormatError(f"function.covers[{i}] references unknown universe item {item}")
        else:
            raise InstanceFormatError(f"unknown function kind {self.kind!r}")


@dataclass(frozen=True)
class Instance:
    n: int
    matroid: MatroidSpec
    function: FunctionSpec
    label: str = ""

    def validate(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise InstanceFormatError(f"n must be a positive integer, got {self.n!r}")
        self.matroid.validate(self.n)
        self.function.validate(self.n)
        if not isinstance(self.label, str):
            raise InstanceFormatError(f"label must be a string, got {self.label!r}")

    @property
    def rank(self) -> int:
        return self.matroid.rank(self.n)


EXACT_TOTAL = 2**53  # every integer below it is a float, and so is every sum or difference of two
# A derived row costs about as much as 20 to 40 full-row entries (its checks,
# two dict copies and the refresh), so a kernel on fewer ids answers every
# row in full: with derived rows, msg-det ran up to 9% slower below n = 40
# and gained from n = 48 on.
GROW_MIN_N = 48


def _growing_rows(start, row, step, refresh):
    """The ``extend`` hook of an exact kernel: rows whose ``grow`` derives a grown anchor's row.

    The kernel reads an anchor into a state, ``start(anchored)``, and
    ``row(state, ids, offset)`` answers a full row from it; ``step(state,
    u)`` is the state of the anchor plus u.  ``refresh(table, before, state,
    u, offset)``, if given, answers again each entry of ``table`` whose
    marginal may differ between the anchor of ``before`` and that anchor
    plus u, whose state is ``state``.  Every offset is the kernel's value of
    its row's anchor, and every value of an exact kernel is an integer below
    EXACT_TOTAL, so every marginal is exact, and an entry that u does not
    change is the same float in both rows.
    """

    def derive(origin, state, ids, offset):
        """The row from the parent's last row, or None unless asked for its ids less u."""
        before, last, u = origin
        if last is None:
            return None
        parent_ids, parent_table = last
        if u not in parent_table or len(parent_table) != len(parent_ids):  # u absent or an id repeated
            return None
        at = parent_ids.index(u)
        if ids != parent_ids[:at] + parent_ids[at + 1:]:
            return None
        table = parent_table.copy()
        del table[u]
        if refresh is not None:
            refresh(table, before, state, u, offset)
        return table

    def rows(state, origin):
        last = None  # (ids, table) of the last row answered

        def marginals(ids, offset):
            nonlocal origin, last
            ids = tuple(ids)
            table = None if origin is None else derive(origin, state, ids, offset)
            origin = None  # only the first row may derive: drop the parent's row
            if table is None:
                table = row(state, ids, offset)
            last = ids, table
            return table.copy()  # the kept row stays as answered, whatever the caller does to its copy

        marginals.grow = lambda u: rows(step(state, u), (state, last, u))
        return marginals

    return lambda anchored: rows(start(anchored), None)


def _sum_extend(weights, finish, grows):
    """The ``extend`` hook of a sum kernel whose weights are all ``int``.

    An integer sum is exact in any order, so ``finish(base + weights[u])`` is
    the float the kernel returns for ``anchored`` plus u; an anchored u adds
    nothing.  If ``grows`` (a modular kernel, ``finish`` ``float``, on at
    least GROW_MIN_N ids, whose total is below EXACT_TOTAL), the rows grow:
    an added id changes no other id's marginal.
    """

    def start(anchored):
        return sum(map(weights.__getitem__, anchored)), frozenset(anchored)

    def row(state, ids, offset):
        base, inside = state
        table = {}
        for u in ids:
            table[u] = finish(base if u in inside else base + weights[u]) - offset
        return table

    if not grows:
        return lambda anchored: partial(row, start(anchored))

    def step(state, u):
        base, inside = state
        return state if u in inside else (base + weights[u], inside | {u})

    return _growing_rows(start, row, step, None)


def build(instance: Instance) -> tuple[SetFunction, Matroid]:
    """Realize the instance as a (value oracle, independence oracle) pair.

    Both oracles share one counter so a run's total query footprint can be
    read off a single object, and one frozenset of the ground set.

    Each kernel returns the bitwise-same value for the same set, and each
    value family reads a set one way, in a call and in a row alike.  A
    modular or concave-of-modular kernel is ``finish`` of one ``sum`` of the
    weights in ascending member order, where ``finish`` is ``float`` or
    ``float(total) ** exponent``.  A coverage kernel ORs the members' item
    masks (``mask_of``), then counts the covered items or adds their weights
    lowest item first.  The independence tests return exact bools.  The
    graphic oracle's cost per query depends only on the vertices some edge
    touches, never on ``num_vertices``.

    Where it provably returns the same float, the value kernel carries an
    ``extend`` hook (``evaluate.extend``) for ``SetFunction.singleton_table``:
    ``extend(anchored)`` reads the anchor once and returns ``marginals``,
    where ``marginals(ids, offset)`` answers a whole row in one call, as the
    dict of ``evaluate(canonical(anchored + (u,))) - offset`` over the ids u
    in [0, n), each value bitwise equal to that expression.  Both coverage
    kernels offer it (the same mask, then the same count or walk); modular
    and concave-of-modular kernels offer it only when every weight is an
    ``int``, whose sum is exact.

    The rows of an exact kernel on at least GROW_MIN_N ids also carry
    ``grow(u)``, the row function of ``anchored + (u,)``.  Exact means unit
    coverage, or coverage or modular weights that are all ``int`` with a
    total below 2**53, so every value and every marginal is an integer a
    float holds.  Every row is asked with its anchor's value as the offset
    (``SetFunction`` passes ``evaluate(anchored)``, or 0 on a root).  A
    grown function's first row, if asked for exactly its parent's last ids
    less u, is the parent's last row less u with only the ids u can change
    answered again (coverage: the ids covering an item u newly covers, from
    an index built on first use; modular: none); every other row is
    answered in full.  Concave and fractional kernels have no ``grow``.

    Every independence kernel carries one hook, ``independent.exchange``,
    which ``Matroid.exchange_test`` asks for its swaps and
    ``Matroid.greedy_scan`` for its offers.  ``exchange(base)`` reads the
    canonical ``base`` once and returns None if ``base`` is dependent (core
    then asks the kernel), else ``swap``, where ``swap(add, drop)`` equals
    ``independent(canonical(base - {drop} + {add}))`` for ``add`` None or
    outside ``base`` and ``drop`` None or in it; a scan offers u as
    ``swap(u, None)`` on its members so far.  The uniform ``exchange``
    compares a size; the partition ``exchange`` keeps part counts; the
    graphic ``exchange`` keeps a union-find forest of ``base`` less each id
    it is asked to drop, built on that id's first swap.  Each kind states
    its independence rule once, in its ``exchange`` base read: the per-call
    kernel ``independent(members)`` is ``exchange(members) is not None``.
    One entry of a ``marginals`` row and one ``swap`` are each one billed
    query, as a kernel call is; a callable put in a kernel's place carries
    no hooks, so it answers every query itself.
    """
    instance.validate()
    counts = OracleCounts()
    n = instance.n

    fspec = instance.function
    if fspec.kind in ("modular", "concave_of_modular"):
        weights = fspec.weights
        modular = fspec.kind == "modular"
        gamma = None if modular else float(fspec.exponent)
        finish = float if modular else (lambda total: float(total) ** gamma)

        def evaluate(members):
            return finish(sum(map(weights.__getitem__, members)))

        if all(map(_is_int, weights)):
            grows = modular and n >= GROW_MIN_N and sum(weights) < EXACT_TOTAL
            evaluate.extend = _sum_extend(weights, finish, grows)

    else:
        universe = fspec.universe_weights
        masks = tuple(
            sum(1 << item for item in set(cover)) for cover in fspec.covers
        )

        def mask_of(members):
            """The OR-mask of the members' items, by a loop: ``reduce`` costs more on sets of any size."""
            covered = 0
            for u in members:
                covered |= masks[u]
            return covered

        unit = all(w == 1 for w in universe)
        if unit:
            # Adding 1 per covered item in ascending order is exact, so the
            # count is the same float.
            def value(covered):
                return float(covered.bit_count())

        else:
            # Visit only the set bits, lowest item first: a fixed ascending
            # order keeps sums of fractional weights reproducible.
            def value(covered):
                total = 0.0
                while covered:
                    low = covered & -covered
                    total += universe[low.bit_length() - 1]
                    covered ^= low
                return total

        def evaluate(members):
            return value(mask_of(members))

        def row(covered, ids, offset):
            table = {}
            for u in ids:
                table[u] = value(covered | masks[u]) - offset
            return table

        if n >= GROW_MIN_N and (unit or (all(map(_is_int, universe)) and sum(universe) < EXACT_TOTAL)):
            holders = None  # item -> the ids that cover it, built for the first grown row

            def refresh(table, before, covered, u, offset):
                """Answer again the ids that cover an item u newly covers: only their marginals drop."""
                nonlocal holders
                if holders is None:
                    lists = [[] for _ in universe]
                    for v, cover in enumerate(fspec.covers):
                        for item in set(cover):
                            lists[item].append(v)
                    holders = tuple(map(tuple, lists))
                fresh = masks[u] & ~before
                while fresh:
                    low = fresh & -fresh
                    for v in holders[low.bit_length() - 1]:
                        if v in table:
                            table[v] = value(covered | masks[v]) - offset
                    fresh ^= low

            evaluate.extend = _growing_rows(mask_of, row, lambda covered, u: covered | masks[u], refresh)
        else:
            evaluate.extend = lambda anchored: partial(row, mask_of(anchored))

    f = SetFunction(n, evaluate, counts=counts)

    mspec = instance.matroid
    rank = mspec.rank(n)
    if mspec.kind == "uniform":
        k = int(mspec.k)

        def exchange(base):
            size = len(base)
            if size > k:
                return None
            return lambda add, drop: size + (add is not None) - (drop is not None) <= k

    elif mspec.kind == "partition":
        part_of = [0] * n
        for i, part in enumerate(mspec.parts):
            for u in part:
                part_of[u] = i
        caps = mspec.capacities

        def exchange(base):
            spare = list(caps)
            for u in base:
                i = part_of[u]
                if not spare[i]:
                    return None
                spare[i] -= 1

            def swap(add, drop):
                # add fits if its part has room or drop frees a place in it
                return add is None or spare[part_of[add]] > 0 or (drop is not None and part_of[drop] == part_of[add])

            return swap

    else:
        edges, num_touched = _touched_edges(mspec.edges)
        identity = list(range(num_touched))

        def exchange(base):
            # A flat union-find forest of base: walk both ends to their roots
            # with path halving; an edge whose ends share a root (a self-loop
            # included) closes a cycle.
            parent = identity.copy()
            for u in base:
                a, b = edges[u]
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a == b:
                    return None
                parent[b] = a
            forests = {None: parent}  # drop -> the union-find of base less drop

            # base - drop + add is a forest iff add's ends lie in different
            # trees of base - drop; a self-loop's ends never do.
            def swap(add, drop):
                if add is None:
                    return True
                forest = forests.get(drop)
                if forest is None:
                    forest = forests[drop] = identity.copy()
                    for u in base:
                        if u != drop:
                            _link(forest, *edges[u])
                a, b = edges[add]
                return _root(forest, a) != _root(forest, b)

            return swap

    def independent(members):
        return exchange(members) is not None

    independent.exchange = exchange
    matroid = Matroid(n, independent, rank, counts=counts)
    matroid._ground_set = f._ground_set  # one frozenset of the ground set for both roots
    return f, matroid


def _spec_doc(spec, table: dict) -> dict:
    # json writes the spec's tuples as the same lists the loader reads
    return {"kind": spec.kind, **{field: getattr(spec, field) for field in table[spec.kind]}}


def _spec_to_dict(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "label": instance.label,
        "matroid": _spec_doc(instance.matroid, MATROID_FIELDS),
        "function": _spec_doc(instance.function, FUNCTION_FIELDS),
    }


def _require(doc: dict, field: str, context: str):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{context or 'instance document'} must be a JSON object")
    if field not in doc:
        raise InstanceFormatError(f"missing field {context}.{field}" if context else f"missing field {field}")
    return doc[field]


def _read_field(doc: dict, field: str, context: str, shape: str):
    """A field of the given shape; a list becomes a tuple, a list of lists a tuple of tuples."""
    value = _require(doc, field, context)
    if shape == SCALAR:
        return value
    if not isinstance(value, list) or (shape == ROWS and not all(isinstance(row, list) for row in value)):
        raise InstanceFormatError(f"{context}.{field} must be a {shape}")
    return tuple(tuple(row) for row in value) if shape == ROWS else tuple(value)


def _read_spec(doc: dict, context: str, table: dict, spec_type: type):
    kind = _require(doc, "kind", context)
    if not isinstance(kind, str) or kind not in table:
        raise InstanceFormatError(f"unknown {context} kind {kind!r}")
    fields = {field: _read_field(doc, field, context, shape) for field, shape in table[kind].items()}
    return spec_type(kind=kind, **fields)


def _spec_from_dict(doc: dict) -> Instance:
    n = _require(doc, "n", "")
    mdoc = _require(doc, "matroid", "")
    fdoc = _require(doc, "function", "")
    instance = Instance(
        n=n,
        matroid=_read_spec(mdoc, "matroid", MATROID_FIELDS, MatroidSpec),
        function=_read_spec(fdoc, "function", FUNCTION_FIELDS, FunctionSpec),
        label=doc.get("label", ""),
    )
    instance.validate()
    return instance


def save(instance: Instance, path) -> None:
    instance.validate()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_spec_to_dict(instance), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(
                f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return _spec_from_dict(doc)


def _uniform_spec(k: int) -> MatroidSpec:
    return MatroidSpec(kind="uniform", k=k)


def _partition_spec(parts, capacities) -> MatroidSpec:
    return MatroidSpec(
        kind="partition",
        parts=tuple(tuple(p) for p in parts),
        capacities=tuple(capacities),
    )


def _graphic_spec(num_vertices, edges) -> MatroidSpec:
    return MatroidSpec(
        kind="graphic", num_vertices=num_vertices, edges=tuple(tuple(e) for e in edges)
    )


_RANK2_PAIRS = ((0, 1), (1, 2), (0, 2))
_RANK3_PAIRS = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))


def _matroid_catalog(n: int) -> list[tuple[str, MatroidSpec]]:
    specs: list[tuple[str, MatroidSpec]] = []
    for k in range(2, n + 1):
        specs.append((f"unif{k}", _uniform_spec(k)))
    half = (n + 1) // 2
    if n >= 2:
        specs.append(("part11", _partition_spec([range(half), range(half, n)], [1, 1])))
    if n >= 3:
        third = max(1, n // 3)
        specs.append(
            (
                "part111",
                _partition_spec(
                    [range(third), range(third, 2 * third), range(2 * third, n)],
                    [1, 1, 1],
                ),
            )
        )
        if half >= 2:
            specs.append(("part21", _partition_spec([range(half), range(half, n)], [2, 1])))
        # zero-capacity part: element 0 is a loop that no base may contain
        specs.append(("part02", _partition_spec([[0], range(1, n)], [0, 2])))
    specs.append(("gr2", _graphic_spec(3, [_RANK2_PAIRS[i % 3] for i in range(n)])))
    if n >= 3:
        specs.append(("gr3", _graphic_spec(4, [_RANK3_PAIRS[i % 6] for i in range(n)])))
    if n >= 4:
        loopy = [(0, 0)] + [_RANK2_PAIRS[i % 3] for i in range(n - 1)]
        specs.append(("grloop", _graphic_spec(3, loopy)))
    return specs


def _function_catalog(n: int) -> list[tuple[str, FunctionSpec]]:
    cyclic = tuple((i % n, (i + 1) % n) for i in range(n))
    prefix = tuple(tuple(range(i + 1)) for i in range(n))
    return [
        ("modv", FunctionSpec(kind="modular", weights=tuple((3 * i) % 7 + 1 for i in range(n)))),
        ("mod1", FunctionSpec(kind="modular", weights=(1,) * n)),
        ("modd", FunctionSpec(kind="modular", weights=tuple(range(n, 0, -1)))),
        ("covc", FunctionSpec(kind="coverage", universe_weights=(1,) * n, covers=cyclic)),
        ("covp", FunctionSpec(kind="coverage", universe_weights=(1,) * n, covers=prefix)),
        (
            "wcov",
            FunctionSpec(
                kind="weighted_coverage",
                universe_weights=tuple(i + 1 for i in range(n)),
                covers=cyclic,
            ),
        ),
        (
            "conc",
            FunctionSpec(
                kind="concave_of_modular",
                weights=tuple(i + 1 for i in range(n)),
                exponent=0.5,
            ),
        ),
    ]


def enumerate_small_instances(max_n: int, max_k: int) -> Iterator[Instance]:
    """Deterministic, seed-free stream of small verification instances.

    Covers uniform, partition and graphic matroids of rank 2..max_k crossed
    with modular, coverage and concave-of-modular functions built from a
    fixed integer-weight catalog.  Every emitted instance has rank >= 2 and
    the stream is identical across calls.
    """
    if max_n > 10 or max_k > 4:
        raise ValueError("enumeration budget is capped at max_n <= 10, max_k <= 4")
    if max_n < 2 or max_k < 2:
        return
    for n in range(2, max_n + 1):
        for mlabel, mspec in _matroid_catalog(n):
            rank = mspec.rank(n)
            if not 2 <= rank <= max_k:
                continue
            for flabel, fspec in _function_catalog(n):
                instance = Instance(
                    n=n, matroid=mspec, function=fspec, label=f"n{n}-{mlabel}-{flabel}"
                )
                instance.validate()
                yield instance


def random_instance(
    seed: int,
    n: int,
    matroid_kind: str = "partition",
    function_kind: str = "coverage",
    rank: int | None = None,
) -> Instance:
    """Reproducible random instance.

    Distribution: elements are assigned to structures uniformly at random
    and all weights are integers drawn uniformly from [1, 10].  Partition
    matroids use ``rank`` non-empty groups of capacity 1; graphic matroids
    use ``rank`` + 1 vertices with a spanning path plus random extra edges;
    coverage functions give each element two random universe items.
    """
    if n < 2:
        raise ValueError("random instances need n >= 2")
    rng = random.Random(seed)
    k = rank if rank is not None else rng.randint(2, min(4, n))
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} is infeasible for n={n}")

    if matroid_kind == "uniform":
        mspec = _uniform_spec(k)
    elif matroid_kind == "partition":
        assignment = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(assignment)
        parts: list[list[int]] = [[] for _ in range(k)]
        for u, g in enumerate(assignment):
            parts[g].append(u)
        mspec = _partition_spec(parts, [1] * k)
    elif matroid_kind == "graphic":
        edges = [(v, v + 1) for v in range(k)]
        while len(edges) < n:
            a = rng.randrange(k + 1)
            b = rng.randrange(k + 1)
            if a != b:
                edges.append((min(a, b), max(a, b)))
        mspec = _graphic_spec(k + 1, edges)
    else:
        raise ValueError(f"unknown matroid kind {matroid_kind!r}")

    if function_kind == "modular":
        fspec = FunctionSpec(kind="modular", weights=tuple(rng.randint(1, 10) for _ in range(n)))
    elif function_kind == "concave_of_modular":
        fspec = FunctionSpec(
            kind="concave_of_modular",
            weights=tuple(rng.randint(1, 10) for _ in range(n)),
            exponent=0.5,
        )
    elif function_kind in ("coverage", "weighted_coverage"):
        universe = n
        covers = tuple(tuple(sorted(rng.sample(range(universe), min(2, universe)))) for _ in range(n))
        if function_kind == "coverage":
            weights = (1,) * universe
        else:
            weights = tuple(rng.randint(1, 10) for _ in range(universe))
        fspec = FunctionSpec(kind=function_kind, universe_weights=weights, covers=covers)
    else:
        raise ValueError(f"unknown function kind {function_kind!r}")

    instance = Instance(
        n=n,
        matroid=mspec,
        function=fspec,
        label=f"rand-s{seed}-n{n}-k{k}-{matroid_kind}-{function_kind}",
    )
    instance.validate()
    return instance
