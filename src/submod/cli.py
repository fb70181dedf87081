"""Command line front end: solve instances, verify, measure query scaling.

Commands return 0 on success and 1 when the suite finds violations; every
other outcome is an exception, which ``main`` reports as one ``error:`` line
and maps by type to an exit code (``EXIT_CODES``): 3 enumeration budget
exceeded, 4 inconsistent oracles (from any command), 2 usage or input error
(an unwritable ``--out`` path included).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import (
    ALGORITHMS,
    DEFAULT_X,
    gain_curve,
    parameters,
    rp_greedy,
    solve,
    split,
    split_bias,
)
from .core import InternalInvariantError, is_base
from .instances import (
    FUNCTION_KINDS,
    MATROID_KINDS,
    Instance,
    build,
    enumerate_small_instances,
    load,
    random_instance,
)
from .testkit import (
    TOLERANCE,
    VALIDATION_MAX_N,
    BudgetExceededError,
    bases_within,
    brute_force_opt,
    rr_greedy_exact_expectation,
    split_partition_witness,
    validate_matroid_axioms,
    validate_monotone_submodular,
)

SPLIT_P_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SPLIT_BETA_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
RP_X_GRID = (0.0, 0.5, 0.9, 1.0)
DET_GUARANTEE = 0.5008
BASE_ENUM_LIMIT = 20

ROW_FIELDS = (
    "label",
    "n",
    "k",
    "algorithm",
    "value",
    "opt",
    "ratio",
    "value_queries",
    "independence_queries",
    "params",
    "seed",
)
COMPLEXITY_FIELDS = (
    "n",
    "k",
    "seed",
    "value_queries",
    "independence_queries",
    "value_fit",
    "independence_fit",
    "elapsed_s",
)

# checked in order; the first type that matches decides the exit code
EXIT_CODES = {BudgetExceededError: 3, InternalInvariantError: 4, ValueError: 2, OSError: 2}


def _ratio(value: float, opt: float) -> float:
    if opt > 0:
        return value / opt
    return 1.0 if value == 0 else float("inf")


def _beats_guarantee(value: float, opt: float) -> bool:
    """value >= DET_GUARANTEE * opt, in exact arithmetic: every finite float is a rational."""
    if not (math.isfinite(value) and math.isfinite(opt)):
        return value >= DET_GUARANTEE * opt  # an infinity or NaN has no ratio; float order decides
    return Fraction(value) >= Fraction(str(DET_GUARANTEE)) * Fraction(opt)


@dataclass
class SuiteReport:
    rows: list[dict]
    summary: dict
    violations: list[dict]


def check_instance(instance: Instance) -> tuple[list[dict], list[dict]]:
    """Run every verification check and algorithm on one instance."""
    rows: list[dict] = []
    violations: list[dict] = []

    def violate(check: str, detail: str) -> None:
        violations.append({"label": instance.label, "check": check, "detail": detail})

    f, matroid = build(instance)
    k = matroid.rank
    opt_value, opt_base = brute_force_opt(f, matroid)

    for algorithm in ALGORITHMS:
        report = solve(f, matroid, algorithm, x=DEFAULT_X, seed=0)
        if not is_base(matroid, report.solution):
            violate("solution-is-base", f"{algorithm} returned a non-base")
        if report.value > opt_value + TOLERANCE:
            violate("value-below-opt", f"{algorithm} exceeded the exact optimum")
        rows.append(
            {
                "label": instance.label,
                "n": instance.n,
                "k": k,
                "algorithm": algorithm,
                "value": report.value,
                "opt": opt_value,
                "ratio": _ratio(report.value, opt_value),
                "value_queries": report.counts.value_queries,
                "independence_queries": report.counts.independence_queries,
                "params": ""
                if report.parameters is None
                else f"x={report.parameters.x!r};p={report.parameters.p!r}",
                "seed": "" if report.seed is None else report.seed,
            }
        )
        if algorithm == "msg-det" and not _beats_guarantee(report.value, opt_value):
            violate(
                "deterministic-guarantee",
                f"value {report.value} below {DET_GUARANTEE} * opt {opt_value}",
            )

    if instance.n <= VALIDATION_MAX_N:
        function_report = validate_monotone_submodular(f)
        if not function_report.ok:
            violate("monotone-submodular", "; ".join(function_report.violations[:3]))
        matroid_report = validate_matroid_axioms(matroid)
        if not matroid_report.ok:
            violate("matroid-axioms", "; ".join(matroid_report.violations[:3]))

    # disjoint split sweeping a p grid, plus its completion-partition witness
    for p in SPLIT_P_GRID:
        half = split(f, matroid, p)
        if set(half.a) & set(half.b):
            violate("split-disjoint", f"p={p}: halves intersect")
        if not is_base(matroid, set(half.a) | set(half.b)):
            violate("split-union-base", f"p={p}: union is not a base")
        try:
            split_partition_witness(half.a, half.b, opt_base, f, matroid)
        except Exception as exc:  # noqa: BLE001 - recorded as a violation
            violate("completion-partition", f"p={p}: {exc}")

    # weighted-average value guarantee of the split across the bias grid
    for beta in SPLIT_BETA_GRID:
        p, w_beta = split_bias(beta)
        half = split(f, matroid, p)
        lhs = beta * f(half.a) + (1.0 - beta) * f(half.b)
        rhs = w_beta * opt_value
        if lhs < rhs - TOLERANCE:
            violate("split-weighted-average", f"beta={beta}: {lhs} < {rhs}")

    # exact expectation bounds for the randomized greedy
    expected, tree = rr_greedy_exact_expectation(f, matroid)
    if abs(sum(leaf.probability for leaf in tree.leaves) - 1.0) > 1e-12:
        violate("expectation-probabilities", "leaf probabilities do not sum to 1")
    if expected < opt_value / 2.0 - TOLERANCE:
        violate("expected-value-half", f"{expected} < opt/2 = {opt_value / 2.0}")
    for i in range(k + 1):
        delta = 1.0 / (2.0 * k * k) if 0 < i < k else 0.0
        bound = (gain_curve(i / k) + delta) * opt_value
        if tree.level_expectations[i] < bound - TOLERANCE:
            violate(
                "expected-value-curve",
                f"iteration {i}: {tree.level_expectations[i]} < {bound}",
            )

    bases = bases_within(matroid, BASE_ENUM_LIMIT)
    if bases is not None:
        # composite lower bound of the randomized greedy over all base pairs
        values = [f(base) for base in bases]
        members = [set(base) for base in bases]
        coefficients = [(x, 1.0 + gain_curve(x), 1.0 - x) for x in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)]
        scaled = 3.0 * expected
        for first, value, first_members in zip(bases, values, members):
            for second, second_members in zip(bases, members):
                gain = f(first_members | second_members) - value
                for x, lead, tail in coefficients:
                    rhs = lead * value + tail * gain
                    if scaled < rhs - TOLERANCE:
                        violate(
                            "expected-composite-bound",
                            f"bases {first}/{second}, x={x}: {scaled} < {rhs}",
                        )
        # deterministic parallel greedy bounds, one run per residue base
        for residue in bases:
            output = rp_greedy(f, matroid, residue)
            value = f(output)
            if value < opt_value / 2.0:
                violate("parallel-greedy-half", f"residue {residue}: {value} < opt/2")
            residual_gain = f(set(residue) | set(opt_base)) - opt_value
            for x in RP_X_GRID:
                rhs = (1.0 + gain_curve(x)) * opt_value + (1.0 - x) * residual_gain
                if 3.0 * value < rhs - TOLERANCE:
                    violate(
                        "parallel-greedy-composite",
                        f"residue {residue}, x={x}: {3.0 * value} < {rhs}",
                    )

    return rows, violations


def run_suite(max_n: int, max_k: int, jobs: int = 1) -> SuiteReport:
    """Check every enumerated instance, on at most ``jobs`` worker processes.

    The pool never exceeds the instance count or the machine's CPU count,
    and one worker means no pool at all.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    instances = list(enumerate_small_instances(max_n, max_k))
    if not instances:
        raise ValueError("the requested budgets produce no instances (rank >= 2 required)")
    workers = min(jobs, len(instances), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check_instance, instances))
    else:
        results = [check_instance(instance) for instance in instances]
    rows: list[dict] = []
    violations: list[dict] = []
    for instance_rows, instance_violations in results:
        rows.extend(instance_rows)
        violations.extend(instance_violations)
    rows.sort(key=lambda row: (row["label"], row["algorithm"]))
    summary: dict = {"instances": len(instances), "violations": len(violations), "per_algorithm": {}}
    for algorithm in ALGORITHMS:
        ratios = [row["ratio"] for row in rows if row["algorithm"] == algorithm]
        summary["per_algorithm"][algorithm] = {
            "min_ratio": min(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
        }
    return SuiteReport(rows=rows, summary=summary, violations=violations)


def _csv_text(fields: tuple[str, ...], rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow({field: row[field] for field in fields})
    return buffer.getvalue()


def _check_writable(path: str) -> None:
    """Raise ``_write``'s ``OSError`` if ``path`` is a directory or its directory is missing or read-only.

    Commands check this before any work, so a bad ``--out`` fails fast and
    creates no file; ``_write`` still reports a write that fails later.
    """
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(f"cannot write {path}: {os.strerror(code)}")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a failure raises ``OSError("cannot write <path>: <reason>")``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def measure_complexity(
    n_grid: list[int],
    k_grid: list[int],
    seeds: int,
    matroid_kind: str = "partition",
    function_kind: str = "modular",
    x: float = DEFAULT_X,
) -> list[dict]:
    """Query counts and wall time of the deterministic solver across an (n, k) grid."""
    rows: list[dict] = []
    for n in n_grid:
        for k in k_grid:
            for s in range(seeds):
                seed = n * 1_000 + k * 10 + s
                try:
                    instance = random_instance(
                        seed, n, matroid_kind=matroid_kind, function_kind=function_kind, rank=k
                    )
                except ValueError as exc:
                    rows.append({"n": n, "k": k, "seed": seed, "skipped": str(exc)})
                    continue
                f, matroid = build(instance)
                report = solve(f, matroid, "msg-det", x=x)
                denominator = n * k * k
                rows.append(
                    {
                        "n": n,
                        "k": k,
                        "seed": seed,
                        "value_queries": report.counts.value_queries,
                        "independence_queries": report.counts.independence_queries,
                        "value_fit": report.counts.value_queries / denominator,
                        "independence_fit": report.counts.independence_queries / denominator,
                        "elapsed_s": report.elapsed,
                    }
                )
    return rows


def _parse_grid(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    try:
        return [int(piece) for piece in items]
    except ValueError:
        raise ValueError(f"a grid must list comma-separated integers, got {text!r}") from None


def cmd_run(args: argparse.Namespace) -> int:
    parameters(args.x)  # every algorithm rejects a bad x before any work, those that never read it included
    if args.max_bases < 1:
        raise ValueError(f"max-bases must be at least 1, got {args.max_bases}")
    if args.out:
        _check_writable(args.out)
    instance = load(args.instance)
    f, matroid = build(instance)
    report = solve(f, matroid, args.algorithm, x=args.x, seed=args.seed)
    payload = report.to_dict()
    payload["instance"] = {"path": args.instance, "label": instance.label, "n": instance.n, "k": matroid.rank}
    if args.opt:
        opt_value, opt_base = brute_force_opt(f, matroid, max_bases=args.max_bases)
        payload["opt"] = opt_value
        payload["opt_witness"] = list(opt_base)
        payload["ratio"] = _ratio(report.value, opt_value)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write(args.out, text + "\n")
    print(text)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    csv_path, json_path = f"{args.out}.csv", f"{args.out}.json"
    _check_writable(csv_path)
    _check_writable(json_path)
    report = run_suite(args.max_n, args.max_k, jobs=args.jobs)
    document = {"rows": report.rows, "summary": report.summary, "violations": report.violations}
    _write(csv_path, _csv_text(ROW_FIELDS, report.rows))
    _write(json_path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"instances: {report.summary['instances']}")
    for algorithm, stats in report.summary["per_algorithm"].items():
        print(
            f"{algorithm}: min ratio {stats['min_ratio']:.6f}, "
            f"mean ratio {stats['mean_ratio']:.6f}"
        )
    print(f"violations: {len(report.violations)}")
    print(f"wrote {csv_path} and {json_path}")
    if report.violations:
        for violation in report.violations[:20]:
            print(f"  {violation['label']}: {violation['check']}: {violation['detail']}")
        return 1
    return 0


def cmd_complexity(args: argparse.Namespace) -> int:
    n_grid = _parse_grid(args.n_grid)
    k_grid = _parse_grid(args.k_grid)
    parameters(args.x)
    if not n_grid or not k_grid or args.seeds < 1:
        raise ValueError("complexity needs non-empty n and k grids and at least one seed")
    if args.out:
        _check_writable(args.out)
    rows = measure_complexity(
        n_grid,
        k_grid,
        args.seeds,
        matroid_kind=args.matroid,
        function_kind=args.function,
        x=args.x,
    )
    measured = [row for row in rows if "skipped" not in row]
    if args.out:
        _write(args.out, _csv_text(COMPLEXITY_FIELDS, measured))
    print(f"{'n':>5} {'k':>3} {'seed':>6} {'value_q':>9} {'indep_q':>9} {'value_fit':>10} {'elapsed_s':>10}")
    for row in rows:
        if "skipped" in row:
            print(f"{row['n']:>5} {row['k']:>3} {row['seed']:>6} skipped: {row['skipped']}")
        else:
            print(
                f"{row['n']:>5} {row['k']:>3} {row['seed']:>6} "
                f"{row['value_queries']:>9} {row['independence_queries']:>9} "
                f"{row['value_fit']:>10.4f} {row['elapsed_s']:>10.4f}"
            )
    if measured:
        fits = [row["value_fit"] for row in measured]
        print(f"value_fit spread: min {min(fits):.4f}, max {max(fits):.4f}, "
              f"ratio {max(fits) / min(fits):.3f}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submod",
        description="Monotone submodular maximization under a matroid constraint",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="solve a single instance file")
    run_parser.add_argument("--instance", required=True, help="path to an instance JSON file")
    run_parser.add_argument("--algorithm", default="msg-det", choices=ALGORITHMS)
    run_parser.add_argument("--x", type=float, default=DEFAULT_X)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--opt", action="store_true",
                            help="also compute the exact optimum by base enumeration")
    run_parser.add_argument("--max-bases", type=int, default=50_000)
    run_parser.add_argument("--out", default=None, help="also write the JSON report here")
    run_parser.set_defaults(handler=cmd_run)

    suite_parser = commands.add_parser("suite", help="run the exhaustive verification suite")
    suite_parser.add_argument("--max-n", type=int, default=8)
    suite_parser.add_argument("--max-k", type=int, default=3)
    suite_parser.add_argument("--out", default="suite_report")
    suite_parser.add_argument("--jobs", type=int, default=1)
    suite_parser.set_defaults(handler=cmd_suite)

    complexity_parser = commands.add_parser("complexity", help="measure oracle query scaling")
    complexity_parser.add_argument("--n-grid", default="20,40,80")
    complexity_parser.add_argument("--k-grid", default="4,8")
    complexity_parser.add_argument("--seeds", type=int, default=3)
    complexity_parser.add_argument("--matroid", default="partition",
                                   choices=MATROID_KINDS)
    complexity_parser.add_argument("--function", default="modular",
                                   choices=FUNCTION_KINDS)
    complexity_parser.add_argument("--x", type=float, default=DEFAULT_X)
    complexity_parser.add_argument("--out", default=None)
    complexity_parser.set_defaults(handler=cmd_complexity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
