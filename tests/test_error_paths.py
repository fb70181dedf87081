"""Error paths of the public API and the CLI that fail, or answer, cleanly.

Each case pins the exception type and its whole message, so a path that
starts to leak a traceback, a bare ``KeyError`` or a reworded message
shows here.
"""

import json
import math

import pytest

from submod import (
    BudgetExceededError,
    FunctionSpec,
    Instance,
    InstanceFormatError,
    InternalInvariantError,
    Matroid,
    MatroidSpec,
    SetFunction,
    WeightedBipartiteGraph,
    brute_force_opt,
    brute_force_perfect_matching,
    build,
    exchange_bijection,
    parameters,
    random_instance,
    save,
    solve,
    split,
    validate_matroid_axioms,
)
from submod.cli import main

MODULAR3 = FunctionSpec(kind="modular", weights=(1, 1, 1))
UNIFORM2 = MatroidSpec(kind="uniform", k=2)


def cardinality(n):
    return SetFunction(n, lambda members: float(len(members)))


def overstated(n, rank):
    """A kernel that admits at most one id but claims ``rank``."""
    return Matroid(n, lambda members: len(members) <= 1, rank)


def uniform(n, rank):
    return Matroid(n, lambda members: len(members) <= rank, rank)


CASES = {
    "negative ground set": (
        lambda: SetFunction(-1, lambda members: 0.0),
        ValueError, "ground set size must be non-negative",
    ),
    "x one ulp below 1": (
        lambda: parameters(math.nextafter(1.0, 0.0)),
        ValueError, "derived beta 0.0 falls outside the admissible range [1/5, 4/5]",
    ),
    "split on an overstated rank": (
        lambda: split(cardinality(4), overstated(4, 2), 0.5),
        InternalInvariantError, "split ran out of feasible elements before a base",
    ),
    "solve at rank 0": (
        lambda: solve(cardinality(3), Matroid(3, lambda members: not members, 0), "msg-det"),
        ValueError, "solve needs a matroid of rank >= 1",
    ),
    "uniform spec without k": (
        lambda: build(Instance(3, MatroidSpec(kind="uniform"), MODULAR3)),
        InstanceFormatError, "matroid.k must be an integer in [1, 3], got None",
    ),
    "partition spec without parts": (
        lambda: build(Instance(3, MatroidSpec(kind="partition"), MODULAR3)),
        InstanceFormatError, "partition matroid needs matroid.parts and matroid.capacities",
    ),
    "graphic spec without vertices": (
        lambda: build(Instance(3, MatroidSpec(kind="graphic"), MODULAR3)),
        InstanceFormatError, "matroid.num_vertices must be a positive integer",
    ),
    "graphic spec without edges": (
        lambda: build(Instance(3, MatroidSpec(kind="graphic", num_vertices=3), MODULAR3)),
        InstanceFormatError, "matroid.edges must list 3 edges, got None",
    ),
    "unknown matroid spec kind": (
        lambda: build(Instance(3, MatroidSpec(kind="laminar"), MODULAR3)),
        InstanceFormatError, "unknown matroid kind 'laminar'",
    ),
    "modular spec without weights": (
        lambda: build(Instance(3, UNIFORM2, FunctionSpec(kind="modular"))),
        InstanceFormatError, "function.weights must list 3 values, got None",
    ),
    "concave spec without exponent": (
        lambda: build(Instance(3, UNIFORM2, FunctionSpec(kind="concave_of_modular", weights=(1, 1, 1)))),
        InstanceFormatError, "function.exponent must lie in (0, 1], got None",
    ),
    "coverage spec without universe": (
        lambda: build(Instance(3, UNIFORM2, FunctionSpec(kind="coverage"))),
        InstanceFormatError, "function.universe_weights is required for coverage functions",
    ),
    "coverage spec without covers": (
        lambda: build(Instance(3, UNIFORM2, FunctionSpec(kind="coverage", universe_weights=(1,)))),
        InstanceFormatError, "function.covers must list 3 subsets, got None",
    ),
    "unknown function spec kind": (
        lambda: build(Instance(3, UNIFORM2, FunctionSpec(kind="entropy"))),
        InstanceFormatError, "unknown function kind 'entropy'",
    ),
    "random instance of an unknown matroid kind": (
        lambda: random_instance(0, 5, "laminar"),
        ValueError, "unknown matroid kind 'laminar'",
    ),
    "random instance of an unknown function kind": (
        lambda: random_instance(0, 5, "uniform", "entropy"),
        ValueError, "unknown function kind 'entropy'",
    ),
    "negative graph size": (
        lambda: WeightedBipartiteGraph(-1),
        ValueError, "vertex count must be non-negative",
    ),
    "left vertex out of range": (
        lambda: WeightedBipartiteGraph(2).add_edge(2, 0, 1.0),
        ValueError, "left vertex 2 out of range",
    ),
    "negative left vertex": (
        lambda: WeightedBipartiteGraph(2).add_edge(-1, 0, 1.0),
        ValueError, "left vertex -1 out of range",
    ),
    "right vertex out of range": (
        lambda: WeightedBipartiteGraph(2).add_edge(0, 2, 1.0),
        ValueError, "right vertex 2 out of range",
    ),
    "matroid axioms on 11 ids": (
        lambda: validate_matroid_axioms(uniform(11, 2)),
        ValueError, "exhaustive validation is limited to n <= 10",
    ),
    "brute-force matcher past its budget": (  # 9! > 100,000
        lambda: brute_force_perfect_matching(WeightedBipartiteGraph(9)),
        BudgetExceededError, "too many permutations for the brute-force matcher",
    ),
    "brute-force optimum with no base": (
        lambda: brute_force_opt(cardinality(4), overstated(4, 2)),
        InternalInvariantError, "matroid has no base",
    ),
    "exchange bijection from a non-base": (
        lambda: exchange_bijection((0,), (0, 1), [1.0] * 4, uniform(4, 2)),
        ValueError, "both arguments must be bases",
    ),
    "exchange bijection onto a non-base": (
        lambda: exchange_bijection((0, 1), (0, 1, 2), [1.0] * 4, uniform(4, 2)),
        ValueError, "both arguments must be bases",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_each_error_path_raises_its_message(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind
    assert str(caught.value) == message


def test_x_one_ulp_below_1_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "pair.json"
    save(Instance(3, UNIFORM2, MODULAR3), path)
    assert main(["run", "--instance", str(path), "--x", "0.9999999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: derived beta 0.0 falls outside the admissible range [1/5, 4/5]\n"


def test_opt_on_an_all_zero_instance_has_ratio_1(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save(Instance(3, UNIFORM2, FunctionSpec(kind="modular", weights=(0, 0, 0))), path)
    assert main(["run", "--instance", str(path), "--opt"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["opt"], payload["ratio"]) == (0.0, 0.0, 1.0)
