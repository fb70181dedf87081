"""The benchmark's tracer patches package attributes by name; they must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

from submod import FunctionSpec, Instance, MatroidSpec
from submod import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve():
    tracing = load_tracing()
    bindings = list(tracing.SPAN_BINDINGS) + [("cli", "build")]
    bindings += [(module, attr) for module, attr, _counter in tracing.COUNT_BINDINGS]
    for module, attr in bindings:
        assert callable(getattr(importlib.import_module(f"submod.{module}"), attr)), (module, attr)


def test_check_instance_builds_through_cli_build(monkeypatch):
    instance = Instance(
        n=3,
        matroid=MatroidSpec(kind="uniform", k=2),
        function=FunctionSpec(kind="modular", weights=(1, 2, 3)),
        label="tiny",
    )
    built = []
    original = cli.build

    def recorder(arg):
        pair = original(arg)
        built.append((arg, pair))
        return pair

    monkeypatch.setattr(cli, "build", recorder)
    rows, violations = cli.check_instance(instance)
    assert [arg for arg, _pair in built] == [instance]
    assert violations == []
    f, matroid = built[0][1]
    msgdet = [row for row in rows if row["algorithm"] == "msg-det"]
    assert f.counts is matroid.counts
    assert f.counts.value_queries >= msgdet[0]["value_queries"] > 0
