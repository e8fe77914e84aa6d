"""Benchmark harness behind the CLI's bench-* commands.

Three experiments over generated instances, all stopping on the
known-solution rule ||u - x_k|| < tolx * (1 + ||u||):

* dimension sweep: iteration/time totals per (n, tolx) over one batch;
* start-point sweep: per-problem mean/std of iterations over many random
  starting points, plus the grand means;
* beta sweep: solved counts and mean iterations per beta range and tolx.

Every run emits flat records in a fixed 9-column CSV schema.  Summary
statistics are emitted as extra records whose ``status`` column names the
statistic and whose value sits in the ``iterations`` column (iteration
statistics) or ``runtime_s`` column (time totals); unused cells are blank.
A mean over zero solved instances is emitted as "-".

Iteration and status columns are exact functions of the flags and seed.
Runtimes vary between reruns, and the error column can vary at rounding
level (for example with the BLAS thread count).
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .gen import GeneratedInstance, GeneratorConfig, make_batch
from .pwls import CONVERGED_STATUSES, SolveReport, SolverOptions
from .qp import qp_newton_solve

CSV_COLUMNS = (
    "experiment", "n", "beta", "tolx", "index", "status", "iterations", "error", "runtime_s",
)

# sub-stream tags so the three experiments never share random draws
_DIM_TAG, _STARTS_TAG, _BETA_TAG = 1, 2, 3


@dataclass
class BenchRecord:
    """One CSV row: either a single solve or a named summary statistic."""

    experiment: str
    n: int
    beta: Union[float, str, None]
    tolx: Optional[float]
    index: str
    status: str
    iterations: Union[float, str, None]
    error: Optional[float]
    runtime_s: Optional[float]

    def to_row(self) -> list[str]:
        return [_cell(getattr(self, column)) for column in CSV_COLUMNS]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return str(value)


def write_csv(records: Sequence[BenchRecord], destination: Union[str, TextIO]) -> None:
    """Write the fixed-schema CSV (header always present, even when empty)."""
    if isinstance(destination, str):
        with open(destination, "w", newline="") as handle:
            write_csv(records, handle)
        return
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.to_row())


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    buffer = io.StringIO()
    write_csv(records, buffer)
    return buffer.getvalue()


def _subseed(seed: int, *parts: int) -> int:
    entropy = [int(seed)] + [int(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def solve_generated(
    inst: GeneratedInstance,
    tolx: float,
    max_iter: int = 100,
    repeats: int = 1,
    x0: Optional[np.ndarray] = None,
) -> tuple[SolveReport, float, float]:
    """Solve one instance against its planted solution.

    Returns (report, relative error ||u - x|| / (1 + ||u||), runtime).
    The solve is repeated ``repeats`` times on the same data and the
    median wall-clock time is reported; repeats run serially so the
    measurements are uncontended.
    """
    opts = SolverOptions(max_iter=max_iter, known_solution=inst.known_solution, tol_x=tolx)
    start = inst.x0 if x0 is None else x0
    times = []
    report = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        report = qp_newton_solve(inst.q, start, opts)
        times.append(time.perf_counter() - t0)
    u = inst.known_solution
    x = report.solution if report.solution is not None else report.last_iterate
    error = float(np.linalg.norm(u - x)) / (1.0 + float(np.linalg.norm(u)))
    return report, error, float(statistics.median(times))


def run_bench_dim(
    sizes: Sequence[int],
    count: int,
    tolxs: Sequence[float],
    seed: int = 0,
    *,
    beta_low: float = 1e-12,
    beta_high: float = 0.5,
    value_bound: float = 1e6,
    max_iter: int = 100,
    repeats: int = 10,
) -> list[BenchRecord]:
    """Dimension sweep: one instance batch per n, solved at every tolx.

    The same batch is reused across tolerances, so iteration counts are
    comparable between accuracy levels.  Summary records per (n, tolx):
    total-iterations and total-runtime.
    """
    records: list[BenchRecord] = []
    for n in sizes:
        cfg = GeneratorConfig(n=n, beta_low=beta_low, beta_high=beta_high,
                              value_bound=value_bound, seed=_subseed(seed, _DIM_TAG, n))
        batch = make_batch(cfg, count)
        for tolx in tolxs:
            total_iterations = 0
            total_runtime = 0.0
            for i, inst in enumerate(batch):
                report, error, runtime = solve_generated(inst, tolx, max_iter, repeats)
                total_iterations += report.iterations
                total_runtime += runtime
                records.append(BenchRecord(
                    "bench-dim", n, inst.beta_used, tolx, str(i),
                    report.status.value, report.iterations, error, runtime,
                ))
            records.append(BenchRecord(
                "bench-dim", n, None, tolx, "all", "total-iterations",
                total_iterations, None, None,
            ))
            records.append(BenchRecord(
                "bench-dim", n, None, tolx, "all", "total-runtime",
                None, None, total_runtime,
            ))
    return records


def run_bench_starts(
    n: int,
    problems: int,
    starts: int,
    tolxs: Sequence[float],
    seed: int = 0,
    *,
    beta_low: float = 1e-12,
    beta_high: float = 0.5,
    value_bound: float = 1e6,
    max_iter: int = 100,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Start-point sweep: each problem solved from ``starts`` random x0.

    Per problem and tolx, summary records iterations-mean and
    iterations-std (sample std; 0 for a single start) are emitted, then
    the grand statistics mean-of-means and mean-of-stds over problems.
    """
    cfg = GeneratorConfig(n=n, beta_low=beta_low, beta_high=beta_high,
                          value_bound=value_bound, seed=_subseed(seed, _STARTS_TAG, n))
    batch = make_batch(cfg, problems)
    records: list[BenchRecord] = []
    for tolx in tolxs:
        means: list[float] = []
        stds: list[float] = []
        for i, inst in enumerate(batch):
            iteration_counts: list[int] = []
            for j in range(starts):
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), _STARTS_TAG, i, j]))
                x0 = rng.uniform(-value_bound, value_bound, n)
                report, error, runtime = solve_generated(inst, tolx, max_iter, repeats, x0=x0)
                iteration_counts.append(report.iterations)
                records.append(BenchRecord(
                    "bench-starts", n, inst.beta_used, tolx, f"{i}:{j}",
                    report.status.value, report.iterations, error, runtime,
                ))
            mean = float(np.mean(iteration_counts))
            std = float(np.std(iteration_counts, ddof=1)) if len(iteration_counts) > 1 else 0.0
            means.append(mean)
            stds.append(std)
            records.append(BenchRecord(
                "bench-starts", n, None, tolx, str(i), "iterations-mean", mean, None, None))
            records.append(BenchRecord(
                "bench-starts", n, None, tolx, str(i), "iterations-std", std, None, None))
        if means:
            records.append(BenchRecord(
                "bench-starts", n, None, tolx, "all", "mean-of-means",
                float(np.mean(means)), None, None))
            records.append(BenchRecord(
                "bench-starts", n, None, tolx, "all", "mean-of-stds",
                float(np.mean(stds)), None, None))
    return records


def run_bench_beta(
    ranges: Sequence[tuple[float, float]],
    n: int,
    count: int,
    tolxs: Sequence[float],
    seed: int = 0,
    *,
    value_bound: float = 1e6,
    max_iter: int = 100,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Beta sweep: solved counts and mean iterations per [lb, ub) and tolx.

    The mean is taken over solved instances only and emitted as "-" when
    nothing solved, matching how such cells are usually tabulated.
    """
    records: list[BenchRecord] = []
    for r, (lb, ub) in enumerate(ranges):
        cfg = GeneratorConfig(n=n, beta_low=lb, beta_high=ub,
                              value_bound=value_bound, seed=_subseed(seed, _BETA_TAG, r))
        batch = make_batch(cfg, count)
        label = f"[{lb:g},{ub:g})"
        for tolx in tolxs:
            solved_iterations: list[int] = []
            for i, inst in enumerate(batch):
                report, error, runtime = solve_generated(inst, tolx, max_iter, repeats)
                if report.status in CONVERGED_STATUSES:
                    solved_iterations.append(report.iterations)
                records.append(BenchRecord(
                    "bench-beta", n, inst.beta_used, tolx, str(i),
                    report.status.value, report.iterations, error, runtime,
                ))
            records.append(BenchRecord(
                "bench-beta", n, label, tolx, "all", "solved-count",
                len(solved_iterations), None, None))
            mean = float(np.mean(solved_iterations)) if solved_iterations else "-"
            records.append(BenchRecord(
                "bench-beta", n, label, tolx, "all", "iterations-mean", mean, None, None))
    return records
