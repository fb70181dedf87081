"""CLI behaviour: exit codes, report formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import submod.cli as cli
from submod import ALGORITHMS, FunctionSpec, Instance, InternalInvariantError, MatroidSpec, parameters, save
from submod.cli import main

TRIANGLE = Instance(
    n=3,
    matroid=MatroidSpec(kind="graphic", num_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
    function=FunctionSpec(kind="coverage", universe_weights=(1, 1, 1), covers=((0, 1), (1, 2), (2,))),
    label="tri",
)

UNIQUE_BASE = Instance(
    n=2,
    matroid=MatroidSpec(kind="uniform", k=2),
    function=FunctionSpec(kind="modular", weights=(2, 1)),
    label="pair",
)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "tri.json"
    save(TRIANGLE, path)
    return str(path)


class TestRun:
    def test_deterministic_solver_report(self, triangle_path, capsys):
        code = main(["run", "--instance", triangle_path, "--algorithm", "msg-det", "--x", "0.9", "--opt"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "msg-det"
        assert payload["ratio"] >= 0.5008
        assert payload["opt"] == 3.0
        assert payload["counts"]["value_queries"] > 0

    def test_unique_base_ratio_one(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save(UNIQUE_BASE, path)
        code = main(["run", "--instance", str(path), "--algorithm", "greedy", "--opt"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] == 1.0

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--instance", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text in (
            "{not json",
            '{"n":2,"matroid":{"kind":"uniform","k":1.5},"function":{"kind":"modular","weights":[1,2]}}',
            '{"n":3,"matroid":{"kind":"uniform","k":2},"function":{"kind":"modular","weights":[1,NaN,2]}}',
            '{"n":2,"matroid":{"kind":"uniform","k":1},"function":{"kind":"modular","weights":[1,"a"]}}',
            b"\xff\xfe{}",  # not UTF-8
            '{"n":1,"label":{"a":[1]},"matroid":{"kind":"uniform","k":1},"function":{"kind":"modular","weights":[1]}}',
            '{"n":2,"matroid":{"kind":"partition","parts":[[0,1],[1]],"capacities":[1,1]},'
            '"function":{"kind":"modular","weights":[1,2]}}',
            '{"n":2,"matroid":{"kind":"uniform","k":1},'
            '"function":{"kind":"modular","weights":[1%s,1]}}' % ("0" * 400),  # an int beyond a float
            '{"n":2,"matroid":{"kind":"uniform","k":2},"function":{"kind":"modular","weights":[1e308,1e308]}}',
        ):
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            assert main(["run", "--instance", str(path), "--algorithm", "msg-det"]) == 2, text
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    def test_opt_budget_exceeded(self, triangle_path, capsys):
        assert main(["run", "--instance", triangle_path, "--opt", "--max-bases", "1"]) == 3

    @pytest.mark.parametrize("max_bases", ["0", "-4"])
    def test_max_bases_below_one_is_usage_error(self, triangle_path, capsys, monkeypatch, max_bases):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("bases were enumerated")

        monkeypatch.setattr(cli, "brute_force_opt", no_enumeration)
        assert main(["run", "--instance", triangle_path, "--opt", "--max-bases", max_bases]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max-bases must be at least 1, got {max_bases}\n"

    def test_out_file_matches_stdout(self, triangle_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--instance", triangle_path, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed

    def test_rerun_identical_apart_from_elapsed(self, triangle_path, capsys):
        main(["run", "--instance", triangle_path, "--algorithm", "msg-det"])
        first = json.loads(capsys.readouterr().out)
        main(["run", "--instance", triangle_path, "--algorithm", "msg-det"])
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed")
        second.pop("elapsed")
        assert first == second

    def test_reported_bias_is_derived_from_x(self, triangle_path, capsys):
        assert main(["run", "--instance", triangle_path, "--algorithm", "split", "--x", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["x"] == 0.5
        assert payload["parameters"]["p"] == parameters(0.5).p

    @pytest.mark.parametrize("x", ["1.5", "1.0", "-0.25", "nan"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_x_outside_range_is_usage_error(self, triangle_path, capsys, monkeypatch, algorithm, x):
        def no_load(*args, **kwargs):
            raise AssertionError("the instance was loaded")

        monkeypatch.setattr(cli, "load", no_load)
        assert main(["run", "--instance", triangle_path, "--algorithm", algorithm, "--x", x]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: x must lie in [0, 1), got {float(x)}\n"

    def test_rank_one_instance_checks_x(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        rank_one = Instance(
            n=2,
            matroid=MatroidSpec(kind="uniform", k=1),
            function=FunctionSpec(kind="modular", weights=(2, 1)),
            label="one",
        )
        save(rank_one, path)
        assert main(["run", "--instance", str(path), "--algorithm", "msg-det", "--x", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: x must lie in [0, 1), got 1.5\n"
        assert main(["run", "--instance", str(path), "--algorithm", "msg-det", "--x", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["solution"] == [0]


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--instance", "TRIANGLE"],
        ["suite", "--max-n", "3", "--max-k", "2"],
        ["complexity", "--n-grid", "12", "--k-grid", "2", "--seeds", "1"],
    ],
    ids=["run", "suite", "complexity"],
)
def test_unwritable_out_is_usage_error(tmp_path, triangle_path, capsys, monkeypatch, command):
    built = []
    monkeypatch.setattr(cli, "build", built.append)  # every check and solve builds its oracles first
    args = [triangle_path if arg == "TRIANGLE" else arg for arg in command]
    for parent, reason in (("missing", "No such file or directory"), ("tri.json", "Not a directory")):
        out = tmp_path / parent / "report"
        assert main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}") and captured.err.count("\n") == 1, captured.err
        assert captured.err.endswith(f": {reason}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["tri.json"]
    assert built == []  # no instance was checked or solved


@pytest.mark.parametrize(
    "command, out, directory",
    [
        (["suite", "--max-n", "3", "--max-k", "2"], "d", "d.csv"),
        (["suite", "--max-n", "3", "--max-k", "2"], "e", "e.json"),  # e.csv alone would be writable
        (["run", "--instance", "TRIANGLE"], "r.json", "r.json"),
        (["complexity", "--n-grid", "12", "--k-grid", "2", "--seeds", "1"], "c.csv", "c.csv"),
    ],
    ids=["suite-csv", "suite-json", "run", "complexity"],
)
def test_out_that_is_a_directory_is_usage_error(tmp_path, triangle_path, capsys, monkeypatch, command, out, directory):
    built = []
    monkeypatch.setattr(cli, "build", built.append)  # every check and solve builds its oracles first
    (tmp_path / directory).mkdir()
    args = [triangle_path if arg == "TRIANGLE" else arg for arg in command]
    assert main([*args, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path / directory}: Is a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["tri.json", directory])
    assert list((tmp_path / directory).iterdir()) == []
    assert built == []  # no instance was checked or solved


@pytest.mark.parametrize(
    "target, command",
    [
        ("solve", ["run", "--instance", "TRIANGLE"]),
        ("brute_force_opt", ["run", "--instance", "TRIANGLE", "--opt"]),
        ("solve", ["suite", "--max-n", "3", "--max-k", "2"]),
        ("solve", ["complexity", "--n-grid", "12", "--k-grid", "2", "--seeds", "1"]),
    ],
    ids=["run", "run-opt", "suite", "complexity"],
)
def test_inconsistent_oracle_exits_4(tmp_path, triangle_path, capsys, monkeypatch, target, command):
    def lying(*args, **kwargs):
        raise InternalInvariantError("the oracles are inconsistent")

    monkeypatch.setattr(cli, target, lying)
    args = [triangle_path if arg == "TRIANGLE" else arg for arg in command]
    assert main([*args, "--out", str(tmp_path / "report")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the oracles are inconsistent\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["tri.json"]  # no report was written


@pytest.mark.parametrize(
    "value, opt, verdict",
    [
        (5_008, 10_000, True),
        (5_007, 10_000, False),
        (0, 0, True),
        # 313/625 is 0.5008: opt = 625/16 and value = 313/16 are exact floats at the bound
        (19.5625, 39.0625, True),
        (math.nextafter(19.5625, 0), 39.0625, False),
        (0.5008, 1.0, True),  # the float 0.5008 lies just above 5008/10000
        (math.nextafter(0.5008, 0), 1.0, False),
        (14.92384, 29.8, False),  # 0.5008 * 29.8 rounds to 14.92384, which is below the exact bound
        (math.inf, 3.0, True),
        (math.nan, 3.0, False),
    ],
)
def test_guarantee_verdict_is_exact(value, opt, verdict):
    assert cli._beats_guarantee(value, opt) is verdict


class TestSuite:
    def test_tiny_suite_passes_and_is_reproducible(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code = main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(out)])
        assert code == 0
        first_csv = (tmp_path / "suite.csv").read_bytes()
        report = json.loads((tmp_path / "suite.json").read_text())
        assert report["summary"]["violations"] == 0
        assert report["summary"]["per_algorithm"]["msg-det"]["min_ratio"] >= 0.5008
        code = main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "suite.csv").read_bytes() == first_csv

    def test_violations_exit_1_and_are_listed(self, tmp_path, capsys, monkeypatch):
        real = cli.check_instance

        def planted(instance):
            rows, violations = real(instance)
            if instance.label == "n2-unif2-modv":
                violations.append({"label": instance.label, "check": "planted", "detail": "a planted fault"})
            return rows, violations

        monkeypatch.setattr(cli, "check_instance", planted)
        out = tmp_path / "suite"
        assert main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed[-3:] == [
            "violations: 1",
            f"wrote {out}.csv and {out}.json",
            "  n2-unif2-modv: planted: a planted fault",
        ]
        report = json.loads((tmp_path / "suite.json").read_text())
        assert report["summary"]["violations"] == 1
        assert report["violations"] == [{"label": "n2-unif2-modv", "check": "planted", "detail": "a planted fault"}]

    def test_pinned_report(self, tmp_path, capsys):
        """``suite --max-n 8 --max-k 3`` writes the same bytes as when these digests were pinned.

        A new digest means a row, ratio, count or verdict of the corpus
        changed; re-pinning it needs that reason recorded with the change.
        Re-pinned when split stopped asking again the idle half's table and
        rp_greedy stopped asking any set twice in a call: only the
        ``value_queries`` and ``independence_queries`` columns moved.
        """
        out = tmp_path / "suite"
        assert main(["suite", "--max-n", "8", "--max-k", "3", "--out", str(out)]) == 0
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("suite.csv", "suite.json")]
        assert digests == [
            "9e4aa833ba8f561d8224a8a1cb58437bed6a68a28300a60e859369e0740c589c",
            "b75bd894e7e64fdaeb9818e760d34f5d5888e4d5b55af394f1add12442961295",
        ]

    @staticmethod
    def assert_rejected(flags, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default --out is relative to the working directory
        assert main(["suite", *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_rank_one_budget_rejected(self, tmp_path, capsys, monkeypatch):
        message = "the requested budgets produce no instances (rank >= 2 required)"
        self.assert_rejected(["--max-k", "1"], message, tmp_path, capsys, monkeypatch)

    def test_oversized_budget_rejected(self, tmp_path, capsys, monkeypatch):
        message = "enumeration budget is capped at max_n <= 10, max_k <= 4"
        self.assert_rejected(["--max-n", "12"], message, tmp_path, capsys, monkeypatch)

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(serial)]) == 0
        assert main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(parallel), "--jobs", "2"]) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()


class TestSuiteJobs:
    """``--jobs`` is validated and capped; no real worker process is started here."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replace the process pool with one that records max_workers and maps in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize(
        "jobs, cpus, pool_size",
        [
            (5000, 4, 4),  # capped at the CPU count
            (5000, 64, 49),  # capped at the 49 instances of the (3, 2) corpus
            (3, 64, 3),
            (8, None, None),  # unknown CPU count: one worker, so no pool
            (1, 64, None),
        ],
    )
    def test_pool_is_capped(self, tmp_path, capsys, monkeypatch, pool_sizes, jobs, cpus, pool_size):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / "suite"
        assert main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(out), "--jobs", str(jobs)]) == 0
        assert pool_sizes == ([] if pool_size is None else [pool_size])
        report = json.loads((tmp_path / "suite.json").read_text())
        assert report["summary"]["instances"] == 49

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, pool_sizes, jobs):
        out = tmp_path / "suite"
        assert main(["suite", "--max-n", "3", "--max-k", "2", "--out", str(out), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"
        assert pool_sizes == []
        assert list(tmp_path.iterdir()) == []


class TestComplexity:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        code = main(["complexity", "--n-grid", "12,24", "--k-grid", "2", "--seeds", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + two cells
        header = lines[0].split(",")
        assert "value_fit" in header

    def test_elapsed_column_is_added_and_nothing_else_moves(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        assert main(["complexity", "--n-grid", "12,24", "--k-grid", "2,3", "--seeds", "1", "--out", str(out)]) == 0
        # the table and the CSV as they read before the column was added, with the
        # counts (and the fits taken from them) of the one-table split, the
        # exchange round that asks each set once, and the solvers that skip what
        # the matroid axioms answer, a grown copy's wider base reuse and its
        # unchecked contraction by its gain included, and split's kept table
        # for its idle half and rp_greedy's one opening column and kept answers
        table = [
            "    n   k   seed   value_q   indep_q  value_fit",
            "   12   2  12020        61        30     1.2708",
            "   12   3  12030       115        39     1.0648",
            "   24   2  24020       118        54     1.2292",
            "   24   3  24030       220        79     1.0185",
        ]
        rows = [
            "n,k,seed,value_queries,independence_queries,value_fit,independence_fit",
            "12,2,12020,61,30,1.2708333333333333,0.625",
            "12,3,12030,115,39,1.0648148148148149,0.3611111111111111",
            "24,2,24020,118,54,1.2291666666666667,0.5625",
            "24,3,24030,220,79,1.0185185185185186,0.36574074074074076",
        ]
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == table[0] + "  elapsed_s"
        for line, before in zip(printed[1:5], table[1:]):
            assert line[: len(before)] == before
            assert line[len(before)] == " " and len(line) == len(before) + 11
            assert float(line[len(before):]) >= 0.0
        assert printed[5:] == ["value_fit spread: min 1.0185, max 1.2708, ratio 1.248", f"wrote {out}"]
        written = out.read_text().splitlines()
        assert written[0] == rows[0] + ",elapsed_s"
        for line, before in zip(written[1:], rows[1:], strict=True):
            kept, _, elapsed = line.rpartition(",")
            assert kept == before
            assert float(elapsed) >= 0.0

    def test_infeasible_cell_is_skipped(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        assert main(["complexity", "--n-grid", "4", "--k-grid", "2,8", "--seeds", "1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[2] == "    4   8   4080 skipped: rank 8 is infeasible for n=4"
        assert printed[1].startswith("    4   2   4020 ")
        written = out.read_text().splitlines()
        assert [line.split(",")[:3] for line in written] == [["n", "k", "seed"], ["4", "2", "4020"]]

    def test_empty_grid_is_usage_error(self, capsys):
        for flags in (
            ["--n-grid", "", "--k-grid", "4"],
            ["--n-grid", "20,x"],
            ["--k-grid", "4,2.5"],
            ["--x", "1.0"],
            ["--x", "nan"],
        ):
            assert main(["complexity", *flags]) == 2, flags
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    def test_doubling_n_roughly_doubles_value_queries(self, capsys):
        from submod.cli import measure_complexity

        rows = measure_complexity([20, 40], [4], 3)
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], []).append(row["value_queries"])
        ratio = (sum(by_n[40]) / 3) / (sum(by_n[20]) / 3)
        assert 1.5 <= ratio <= 2.5

    def test_doubling_k_scales_like_k_squared(self, capsys):
        from submod.cli import measure_complexity

        rows = measure_complexity([20, 40], [4, 8], 3)
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row["n"], row["k"]), []).append(row["value_queries"])
        for n in (20, 40):
            ratio = (sum(by_cell[(n, 8)]) / 3) / (sum(by_cell[(n, 4)]) / 3)
            assert 3.0 <= ratio <= 5.0


class TestUsage:
    def test_bias_option_is_gone(self, triangle_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--instance", triangle_path, "--p", "0.3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p 0.3" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_algorithm_flag(self, triangle_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--instance", triangle_path, "--algorithm", "nope"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    """``python -m submod`` runs the same front end and passes its exit code on."""

    @staticmethod
    def run_module(*args, cwd=None):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "submod", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            cwd=cwd,
            timeout=120,
        )

    def test_report_on_stdout_and_exit_0(self, triangle_path, capsys):
        done = self.run_module("run", "--instance", triangle_path, "--algorithm", "msg-det")
        assert (done.returncode, done.stderr) == (0, "")
        assert main(["run", "--instance", triangle_path, "--algorithm", "msg-det"]) == 0
        in_process = json.loads(capsys.readouterr().out)
        from_module = json.loads(done.stdout)
        in_process.pop("elapsed")
        from_module.pop("elapsed")
        assert from_module == in_process

    def test_input_error_exits_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        done = self.run_module("run", "--instance", str(missing))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr

    def test_suite_budget_error_exits_2(self, tmp_path):
        done = self.run_module("suite", "--max-k", "1", cwd=tmp_path)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: the requested budgets produce no instances (rank >= 2 required)\n"
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exits_2(self, triangle_path):
        done = self.run_module("run", "--instance", triangle_path, "--p", "0.3")
        assert done.returncode == 2
        assert done.stdout == ""
        assert "unrecognized arguments: --p 0.3" in done.stderr
