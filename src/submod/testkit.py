"""Independent brute-force oracles and exhaustive validators.

Everything here exists to cross-check the solvers on small instances:
exact optima by base enumeration, exact expectations of the randomized
greedy by branching over every coin flip, exchange-mapping and
completion-partition witnesses, and axiom validators that check the
local forms of the axioms on every subset of a ground set of n <= 10.
Budgets are explicit and exceeding one raises instead of silently
sampling, so these stay trustworthy as oracles.  The spec-level reference
solvers are in ``submod.reference``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    ElementSet,
    InternalInvariantError,
    Matroid,
    SetFunction,
    canonical,
    contract,
    is_base,
)
from .algorithms import marginal_table, max_weight_base
from .matching import InfeasibleMatchingError, Matching, WeightedBipartiteGraph

TOLERANCE = 1e-9
MAX_VIOLATIONS = 20  # validators stop recording after this many


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its explicit budget."""


def iter_bases(matroid: Matroid) -> Iterator[ElementSet]:
    """Yield every base in lexicographic order via oracle backtracking."""
    ground = matroid.ground
    k = matroid.rank

    def extend(prefix: list[int], start: int) -> Iterator[ElementSet]:
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for idx in range(start, len(ground)):
            if len(ground) - idx < k - len(prefix):
                break
            u = ground[idx]
            if matroid.is_independent(prefix + [u]):
                prefix.append(u)
                yield from extend(prefix, idx + 1)
                prefix.pop()

    yield from extend([], 0)


def bases_within(matroid: Matroid, limit: int) -> list[ElementSet] | None:
    """All bases if there are at most ``limit`` of them, else None."""
    bases: list[ElementSet] = []
    for base in iter_bases(matroid):
        bases.append(base)
        if len(bases) > limit:
            return None
    return bases


def brute_force_opt(
    f: SetFunction, matroid: Matroid, max_bases: int = 50_000
) -> tuple[float, ElementSet]:
    """Exact maximum of f over all bases, with a maximizing base.

    Monotonicity puts the optimum on a base, so enumerating bases is
    enough.  Raises BudgetExceededError beyond ``max_bases`` bases.
    """
    best_value: float | None = None
    witness: ElementSet | None = None
    count = 0
    for base in iter_bases(matroid):
        count += 1
        if count > max_bases:
            raise BudgetExceededError(f"more than {max_bases} bases; refusing to approximate")
        value = f(base)
        if best_value is None or value > best_value:
            best_value, witness = value, base
    if witness is None:
        raise InternalInvariantError("matroid has no base")
    return best_value, witness


@dataclass(frozen=True)
class ExpectationLeaf:
    """A possible final set with its value and total probability."""

    members: ElementSet
    value: float
    probability: float


@dataclass(frozen=True)
class ExpectationTree:
    """Outcome of branching over every draw of the randomized greedy.

    ``leaves`` aggregates the reachable final sets: distinct paths ending
    in the same set are merged and their path probabilities summed.
    """

    leaves: tuple[ExpectationLeaf, ...]
    level_expectations: tuple[float, ...]

    @property
    def expected_value(self) -> float:
        return self.level_expectations[-1]


def rr_greedy_exact_expectation(
    f: SetFunction, matroid: Matroid, max_leaves: int = 100_000
) -> tuple[float, ExpectationTree]:
    """Exact E[f(final set)] of the randomized greedy, by full enumeration.

    Every uniform draw is branched on with its probability, which also
    yields the exact expectation of the intermediate values after each
    iteration (``level_expectations``).
    """
    k = matroid.rank
    if math.factorial(k) > max_leaves:
        raise BudgetExceededError(f"expectation tree would have {math.factorial(k)} leaves")
    outcomes: dict[ElementSet, tuple[float, float]] = {}  # members -> (value, probability)
    levels = [0.0] * (k + 1)

    def expand(members: ElementSet, depth: int, probability: float) -> None:
        value = f(members)
        levels[depth] += probability * value
        if depth == k:
            seen = outcomes.get(members)
            outcomes[members] = (value, probability if seen is None else seen[1] + probability)
            return
        residual = contract(matroid, members)
        gains = marginal_table(f, members, residual.ground)
        candidates = max_weight_base(residual, gains)
        share = probability / len(candidates)
        for u in candidates:
            expand(canonical(members + (u,)), depth + 1, share)

    expand((), 0, 1.0)
    leaves = tuple(
        ExpectationLeaf(members, value, probability)
        for members, (value, probability) in sorted(outcomes.items())
    )
    tree = ExpectationTree(leaves, tuple(levels))
    return tree.expected_value, tree


@dataclass(frozen=True)
class BijectionWitness:
    """A bijection u -> h(u) between two bases, stored as sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)


def exchange_bijection(
    a: Iterable[int],
    b: Iterable[int],
    weights: Mapping[int, float] | Sequence[float],
    matroid: Matroid,
) -> BijectionWitness:
    """Build a weight-dominating exchange bijection from base ``a`` onto ``b``.

    ``a`` must be a maximum-weight base.  The construction peels off a
    minimum-weight element u of ``a``, pairs it with itself when it also
    lies in ``b`` or else with the first element of ``b`` (ascending id)
    that supports a two-sided exchange, then recurses on the contraction.
    """
    first = canonical(a, matroid.n)
    second = canonical(b, matroid.n)
    if not is_base(matroid, first) or not is_base(matroid, second):
        raise ValueError("both arguments must be bases")
    reference = max_weight_base(matroid, weights)
    if sum(weights[u] for u in first) < sum(weights[u] for u in reference) - TOLERANCE:
        raise ValueError("first base is not of maximum weight")

    pairs: list[tuple[int, int]] = []
    current = matroid
    rest_a = list(first)
    rest_b = list(second)
    while rest_a:
        u_a = min(rest_a, key=lambda u: (weights[u], u))
        if u_a in rest_b:
            u_b = u_a
        else:
            u_b = None
            shrunk_a = [x for x in rest_a if x != u_a]
            for candidate in sorted(set(rest_b) - set(rest_a)):
                if is_base(current, shrunk_a + [candidate]) and is_base(
                    current, [x for x in rest_b if x != candidate] + [u_a]
                ):
                    u_b = candidate
                    break
            if u_b is None:
                raise InternalInvariantError(
                    "no exchange partner exists; the independence oracle is inconsistent"
                )
        pairs.append((u_a, u_b))
        current = contract(current, (u_b,))
        rest_a.remove(u_a)
        rest_b.remove(u_b)
    return BijectionWitness(pairs=tuple(sorted(pairs)))


def verify_exchange_bijection(
    witness: BijectionWitness,
    a: Iterable[int],
    b: Iterable[int],
    weights: Mapping[int, float] | Sequence[float],
    matroid: Matroid,
) -> bool:
    """Re-check both witness properties with raw oracle calls."""
    first = canonical(a, matroid.n)
    second = canonical(b, matroid.n)
    mapping = witness.mapping()
    if sorted(mapping) != list(first):
        return False
    if sorted(mapping.values()) != list(second):
        return False
    b_set = set(second)
    for u, v in witness.pairs:
        if weights[u] < weights[v]:
            return False
        if not is_base(matroid, (b_set - {v}) | {u}):
            return False
    return True


def split_partition_witness(
    a: Iterable[int],
    b: Iterable[int],
    t: Iterable[int],
    f: SetFunction,
    matroid: Matroid,
) -> tuple[ElementSet, ElementSet]:
    """Partition base ``t`` into halves that complete ``a`` and ``b`` to bases.

    Searches subsets of ``t`` by ascending size then lexicographic order
    for a partition (t_a, t_b) such that a + t_a and b + t_b are bases and
    completing either half recovers at least the value of ``t``:
    f(a) + f(a + t_a) >= f(t) and f(b) + f(b + t_b) >= f(t).
    """
    side_a = canonical(a, matroid.n)
    side_b = canonical(b, matroid.n)
    target = canonical(t, matroid.n)
    union = set(side_a) | set(side_b)
    if len(union) != len(side_a) + len(side_b) or not is_base(matroid, union):
        raise ValueError("the first two arguments must be disjoint with a base as union")
    if not is_base(matroid, target):
        raise ValueError("the third argument must be a base")
    value_t = f(target)
    value_a = f(side_a)
    value_b = f(side_b)
    target_set = set(target)
    for size in range(len(target) + 1):
        for picked in itertools.combinations(target, size):
            t_a = set(picked)
            t_b = target_set - t_a
            grown_a = set(side_a) | t_a
            grown_b = set(side_b) | t_b
            if not is_base(matroid, grown_a) or not is_base(matroid, grown_b):
                continue
            if (
                value_a + f(grown_a) >= value_t - TOLERANCE
                and value_b + f(grown_b) >= value_t - TOLERANCE
            ):
                return canonical(picked), canonical(t_b)
    raise InternalInvariantError("no completion partition found; the oracles are inconsistent")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _subsets(items: Sequence[int]) -> list[ElementSet]:
    """The member tuple of every mask over ``items``, indexed by mask.

    Bit i of a mask stands for ``items[i]``, so
    ``members[mask] = members[mask ^ top] + (items[top],)`` for the mask's top
    bit; each tuple is built once, and ascending ``items`` give canonical
    tuples.
    """
    members: list[ElementSet] = [()]
    for item in items:
        members += [rest + (item,) for rest in members]
    return members


def validate_monotone_submodular(f: SetFunction) -> ValidationReport:
    """Check monotonicity and diminishing marginals in their local forms.

    Evaluates f once on every subset, in ascending mask order, then checks
    f(S) <= f(S+u) and f(S+u) - f(S) >= f(S+u+v) - f(S+v) for every S and
    every u < v outside S: O(2^n n^2) comparisons instead of the O(3^n n)
    of checking every S subset of T.  On exact values the local forms are
    equivalent to the full ones (Nemhauser, Wolsey & Fisher 1978).  Each
    step allows TOLERANCE / n, and a chain S subset of T has at most n
    steps, so a function that passes also keeps every full-form inequality
    within TOLERANCE; a per-step TOLERANCE would let a slow drift through.
    Violations are reported, not raised; n <= 10.
    """
    size = f.n
    if size > 10:
        raise ValueError("exhaustive validation is limited to n <= 10")
    members = _subsets(range(size))
    values = [f(subset) for subset in members]
    tolerance = TOLERANCE / max(size, 1)
    violations: list[str] = []
    for s_mask, value in enumerate(values):
        outside = [(u, 1 << u) for u in range(size) if not s_mask >> u & 1]
        for i, (u, u_bit) in enumerate(outside):
            grown = s_mask | u_bit
            with_u = values[grown]
            if value > with_u + tolerance and len(violations) < MAX_VIOLATIONS:
                violations.append(f"monotonicity: f({members[s_mask]}) > f({members[grown]})")
            gain = with_u - value
            for _v, v_bit in outside[i + 1:]:
                if (
                    gain < values[grown | v_bit] - values[s_mask | v_bit] - tolerance
                    and len(violations) < MAX_VIOLATIONS
                ):
                    violations.append(
                        f"submodularity: marginal of {u} grows from {members[s_mask]} "
                        f"to {members[s_mask | v_bit]}"
                    )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate_matroid_axioms(matroid: Matroid) -> ValidationReport:
    """Check non-emptiness, downward closure and exchange on every subset of ``ground``.

    Asks about every subset once, in ascending mask order.  Exchange is
    checked only from each independent S into each independent T with
    |T| = |S| + 1: given downward closure, which is checked too, that is
    equivalent to exchange between all sizes.  Messages name element ids.
    Violations are reported, not raised; at most 10 ground elements.
    """
    ground = matroid.ground
    size = len(ground)
    if size > 10:
        raise ValueError("exhaustive validation is limited to n <= 10")
    members = _subsets(ground)
    independent = [matroid.is_independent(subset) for subset in members]
    violations: list[str] = []
    if not independent[0]:
        violations.append("non-emptiness: the empty set is dependent")

    bits = [1 << i for i in range(size)]
    extenders: dict[int, int] = {}
    by_size: list[list[int]] = [[] for _ in range(size + 1)]
    for mask, yes in enumerate(independent):
        if not yes:
            continue
        by_size[len(members[mask])].append(mask)
        ext = 0
        for bit in bits:
            if mask & bit:
                if not independent[mask ^ bit] and len(violations) < MAX_VIOLATIONS:
                    violations.append(
                        f"downward closure: {members[mask ^ bit]} dependent inside "
                        f"independent {members[mask]}"
                    )
            elif independent[mask | bit]:
                ext |= bit
        extenders[mask] = ext

    for small_masks, large_masks in zip(by_size, by_size[1:]):
        for s_mask in small_masks:
            ext = extenders[s_mask]
            for t_mask in large_masks:
                if not (t_mask & ~s_mask) & ext and len(violations) < MAX_VIOLATIONS:
                    violations.append(
                        f"exchange: {members[s_mask]} cannot grow into {members[t_mask]}"
                    )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def brute_force_perfect_matching(graph: WeightedBipartiteGraph) -> Matching:
    """Factorial-time reference for the matching solver (small graphs only)."""
    k = graph.left_size
    if math.factorial(k) > 100_000:
        raise BudgetExceededError("too many permutations for the brute-force matcher")
    lookup: dict[tuple[int, int], tuple[float, int]] = {}
    for left, right, weight, payload in graph.edges:
        lookup[(left, right)] = (weight, payload)
    best: tuple[float, tuple[int, ...]] | None = None
    for assignment in itertools.permutations(range(k)):
        total = 0.0
        for left, right in enumerate(assignment):
            entry = lookup.get((left, right))
            if entry is None:
                break
            total += entry[0]
        else:
            if best is None or total > best[0]:
                best = (total, assignment)
    if best is None:
        raise InfeasibleMatchingError("graph has no perfect matching")
    total, assignment = best
    pairs = []
    for left, right in enumerate(assignment):
        weight, payload = lookup[(left, right)]
        pairs.append((right, left, payload, weight))
    return Matching(pairs=tuple(sorted(pairs)), total_weight=total)
