"""Command-line front end.

Subcommands: ``solve`` and ``project`` run a single problem file;
``bench-dim``, ``bench-starts`` and ``bench-beta`` run the benchmark
experiments and emit CSV (to --out, or to stdout when --out is omitted).

Exit codes for solve/project follow the solver status: 0 converged,
2 cycled, 3 iteration cap reached, 4 singular step matrix; malformed
input exits 1.  A qp file whose Q is not positive definite counts as
malformed: the Newton iteration would stop at a KKT point that need not
minimize the QP, so ``solve`` refuses it before solving.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .bench import records_to_csv, run_bench_beta, run_bench_dim, run_bench_starts, write_csv
from .errors import EquivalenceUnavailableError, PwlNewtonError
from .formats import load_problem, load_vector_file, report_to_dict
from .pwls import (
    ConditionReport,
    PwlsProblem,
    SolveReport,
    SolveStatus,
    SolverOptions,
    check_conditions,
    newton_solve,
)
from .qp import (
    ConeInstance,
    QpProblem,
    check_qp_conditions,
    cone_instance_to_qp,
    cone_projection,
    kkt_residual,
    qp_newton_solve,
    qp_to_pwls,
)

EXIT_BY_STATUS = {
    SolveStatus.CONVERGED: 0,
    SolveStatus.CONVERGED_EXACT: 0,
    SolveStatus.CYCLED: 2,
    SolveStatus.MAX_ITERATIONS: 3,
    SolveStatus.SINGULAR_JACOBIAN: 4,
}

DEFAULT_X0_BOUND = 1e6


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PwlNewtonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwlnewton",
        description="Newton solver for x+ + Tx = b, nonnegative QP, and cone projection",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    solve = sub.add_parser("solve", help="solve a pwls or qp problem file")
    solve.add_argument("problem", help="JSON problem file")
    solve.add_argument("--formulation", choices=("auto", "pwls", "qp"), default="auto",
                       help="force a formulation (a qp file can be converted to T/b form)")
    _add_run_flags(solve)
    solve.set_defaults(func=cmd_solve)

    project = sub.add_parser("project", help="project a point onto a simplicial cone")
    project.add_argument("problem", help="JSON cone file")
    _add_run_flags(project)
    project.set_defaults(func=cmd_project)

    dim = sub.add_parser("bench-dim", help="iteration/time totals per dimension and tolerance")
    dim.add_argument("--n", action="append", type=int, metavar="N",
                     help="problem dimension, repeatable (default 50 100 200)")
    dim.add_argument("--count", type=int, default=100, help="instances per dimension")
    _add_bench_flags(dim, default_repeats=10)
    dim.add_argument("--beta-low", type=float, default=1e-12)
    dim.add_argument("--beta-high", type=float, default=0.5)
    dim.set_defaults(func=cmd_bench_dim)

    starts = sub.add_parser("bench-starts", help="sensitivity to the starting point")
    starts.add_argument("--n", type=int, default=50, help="problem dimension")
    starts.add_argument("--count", type=int, default=50, help="number of problems")
    starts.add_argument("--starts", type=int, default=50, help="starting points per problem")
    _add_bench_flags(starts, default_repeats=1)
    starts.set_defaults(func=cmd_bench_starts)

    beta = sub.add_parser("bench-beta", help="solved counts per ||Q - I|| range")
    beta.add_argument("--n", type=int, default=100, help="problem dimension")
    beta.add_argument("--count", type=int, default=50, help="instances per range")
    beta.add_argument("--beta-low", action="append", type=float, metavar="LB",
                      help="range lower bound, repeatable, paired with --beta-high")
    beta.add_argument("--beta-high", action="append", type=float, metavar="UB",
                      help="range upper bound, repeatable, paired with --beta-low")
    _add_bench_flags(beta, default_repeats=1)
    beta.set_defaults(func=cmd_bench_beta)

    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", default="zero", metavar="file|zero|random",
                   help="starting point: 'zero', 'random', or a JSON array file")
    p.add_argument("--seed", type=int, default=0, help="seed for --x0 random")
    p.add_argument("--tol-f", type=float, default=1e-10,
                   help="relative max-norm residual tolerance")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--trace", action="store_true", help="include all iterates in the JSON report")
    p.add_argument("--report", metavar="PATH", help="write a JSON report file")


def _add_bench_flags(p: argparse.ArgumentParser, default_repeats: int) -> None:
    p.add_argument("--tolx", action="append", type=float, metavar="TOL",
                   help="relative known-solution tolerance, repeatable "
                        "(default 1e-6 1e-8 1e-10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="CSV", help="CSV output path (default: stdout)")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--repeats", type=int, default=default_repeats,
                   help="timing repeats per instance; the median is reported")


def _resolve_x0(args, n: int) -> np.ndarray:
    if args.x0 == "zero":
        return np.zeros(n)
    if args.x0 == "random":
        rng = np.random.default_rng(args.seed)
        return rng.uniform(-DEFAULT_X0_BOUND, DEFAULT_X0_BOUND, n)
    return load_vector_file(args.x0)


def _write_report(args, report: SolveReport, condition: Optional[ConditionReport]) -> None:
    if not args.report and not args.trace:
        return
    payload = report_to_dict(report, condition, include_iterates=args.trace)
    text = json.dumps(payload, indent=2)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _format_vector(x: np.ndarray) -> str:
    return json.dumps([float(v) for v in x])


def _print_condition(condition: ConditionReport, label: str) -> None:
    rate = "n/a" if condition.predicted_rate is None else f"{condition.predicted_rate:.6g}"
    print(f"condition: {label} = {condition.inv_norm:.6g}  "
          f"existence_ok={condition.existence_ok}  rate_ok={condition.rate_ok}  "
          f"predicted_rate={rate}")


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    if isinstance(problem, ConeInstance):
        print("error: cone files are handled by the 'project' command", file=sys.stderr)
        return 1
    if isinstance(problem, QpProblem) and not problem.is_positive_definite():
        print("error: Q is not positive definite, so a solution of the QP equation "
              "need not minimize the QP", file=sys.stderr)
        return 1

    formulation = args.formulation
    if formulation == "auto":
        formulation = "pwls" if isinstance(problem, PwlsProblem) else "qp"
    if formulation == "qp" and isinstance(problem, PwlsProblem):
        print("error: a pwls file cannot be solved in qp formulation", file=sys.stderr)
        return 1
    if formulation == "pwls" and isinstance(problem, QpProblem):
        try:
            problem = qp_to_pwls(problem)
        except EquivalenceUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    opts = SolverOptions(max_iter=args.max_iter, tol_f=args.tol_f, keep_iterates=True)
    x0 = _resolve_x0(args, problem.n)
    if isinstance(problem, PwlsProblem):
        report = newton_solve(problem, x0, opts)
        condition = check_conditions(problem)
        label = "||T^-1||"
    else:
        report = qp_newton_solve(problem, x0, opts)
        condition = check_qp_conditions(problem)
        label = "||Q - I||"

    print(f"status: {report.status.value}")
    print(f"iterations: {report.iterations}")
    print(f"final residual (max-norm): {report.final_residual_norm:.6g}")
    if report.solution is not None:
        print(f"solution: {_format_vector(report.solution)}")
    if report.cycle is not None:
        start, period = report.cycle
        print(f"cycle: start={start} period={period}")
        points = ", ".join(_format_vector(p) for p in report.cycle_points())
        print(f"cycle points: {points}")
    _print_condition(condition, label)
    _write_report(args, report, condition)
    return EXIT_BY_STATUS[report.status]


def cmd_project(args) -> int:
    problem = load_problem(args.problem)
    if not isinstance(problem, ConeInstance):
        print("error: 'project' expects a cone problem file", file=sys.stderr)
        return 1
    opts = SolverOptions(max_iter=args.max_iter, tol_f=args.tol_f, keep_iterates=True)
    x0 = _resolve_x0(args, problem.n)
    result = cone_projection(problem, x0=x0, opts=opts)
    report = result.report
    kkt = kkt_residual(cone_instance_to_qp(problem), result.v)

    print(f"status: {report.status.value}")
    print(f"iterations: {report.iterations}")
    print(f"v: {_format_vector(result.v)}")
    print(f"projection: {_format_vector(result.projection)}")
    print(f"kkt residual: primal={kkt.primal_violation:.6g} dual={kkt.dual_violation:.6g} "
          f"complementarity={kkt.complementarity:.6g}")
    _write_report(args, report, None)
    return EXIT_BY_STATUS[report.status]


def _emit_records(args, records) -> None:
    if args.out:
        write_csv(records, args.out)
        summaries = [r for r in records if r.index == "all"]
        for r in summaries:
            beta = f" beta={r.beta}" if r.beta is not None else ""
            value = r.iterations if r.iterations is not None else r.runtime_s
            print(f"{r.experiment} n={r.n}{beta} tolx={r.tolx:g} {r.status}={value}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(records_to_csv(records))


def _tolxs(args) -> list[float]:
    return args.tolx if args.tolx else [1e-6, 1e-8, 1e-10]


def cmd_bench_dim(args) -> int:
    sizes = args.n if args.n else [50, 100, 200]
    records = run_bench_dim(
        sizes, args.count, _tolxs(args), args.seed,
        beta_low=args.beta_low, beta_high=args.beta_high,
        max_iter=args.max_iter, repeats=args.repeats,
    )
    _emit_records(args, records)
    return 0


def cmd_bench_starts(args) -> int:
    records = run_bench_starts(
        args.n, args.count, args.starts, _tolxs(args), args.seed,
        max_iter=args.max_iter, repeats=args.repeats,
    )
    _emit_records(args, records)
    return 0


def cmd_bench_beta(args) -> int:
    lows = args.beta_low
    highs = args.beta_high
    if lows is None and highs is None:
        ranges = [(0.5, 1e3), (1e3, 1e4), (1e4, 1e5), (1e5, 1e6), (1e6, 1e7), (1e7, 1e8)]
    else:
        lows = lows or []
        highs = highs or []
        if len(lows) != len(highs):
            print("error: --beta-low and --beta-high must come in pairs", file=sys.stderr)
            return 1
        ranges = list(zip(lows, highs))
    records = run_bench_beta(
        ranges, args.n, args.count, _tolxs(args), args.seed,
        max_iter=args.max_iter, repeats=args.repeats,
    )
    _emit_records(args, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
