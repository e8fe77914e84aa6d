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
    error = float(np.linalg.norm(u - report.last_iterate)) / (1.0 + float(np.linalg.norm(u)))
    return report, error, float(statistics.median(times))


def _batch(seed: int, tag: int, key: int, n: int, beta_low: float, beta_high: float,
           count: int) -> list[GeneratedInstance]:
    """``count`` instances of size n from the sub-stream (seed, tag, key)."""
    cfg = GeneratorConfig(n=n, beta_low=beta_low, beta_high=beta_high,
                          seed=_subseed(seed, tag, key))
    return make_batch(cfg, count)


def _solve_row(experiment: str, inst: GeneratedInstance, tolx: float, index: str,
               max_iter: int, repeats: int, x0: Optional[np.ndarray] = None) -> BenchRecord:
    """Solve one instance and return its per-solve CSV row."""
    report, error, runtime = solve_generated(inst, tolx, max_iter, repeats, x0)
    return BenchRecord(experiment, inst.q.n, inst.beta_used, tolx, index,
                       report.status.value, report.iterations, error, runtime)


def run_bench_dim(
    sizes: Sequence[int],
    count: int,
    tolxs: Sequence[float],
    seed: int = 0,
    *,
    beta_low: float = 1e-12,
    beta_high: float = 0.5,
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
        batch = _batch(seed, _DIM_TAG, n, n, beta_low, beta_high, count)
        for tolx in tolxs:
            rows = [_solve_row("bench-dim", inst, tolx, str(i), max_iter, repeats)
                    for i, inst in enumerate(batch)]
            records += rows
            records.append(BenchRecord(
                "bench-dim", n, None, tolx, "all", "total-iterations",
                sum(row.iterations for row in rows), None, None,
            ))
            records.append(BenchRecord(
                "bench-dim", n, None, tolx, "all", "total-runtime",
                None, None, sum(row.runtime_s for row in rows),
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
    max_iter: int = 100,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Start-point sweep: each problem solved from ``starts`` random x0.

    Starts are drawn from the generator's value range.  Per problem and
    tolx, summary records iterations-mean and iterations-std (sample std;
    0 for a single start) are emitted, then the grand statistics
    mean-of-means and mean-of-stds over problems.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    batch = _batch(seed, _STARTS_TAG, n, n, beta_low, beta_high, problems)
    bound = GeneratorConfig.value_bound
    records: list[BenchRecord] = []
    for tolx in tolxs:
        means: list[float] = []
        stds: list[float] = []
        for i, inst in enumerate(batch):
            rows = []
            for j in range(starts):
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), _STARTS_TAG, i, j]))
                x0 = rng.uniform(-bound, bound, n)
                rows.append(_solve_row("bench-starts", inst, tolx, f"{i}:{j}",
                                       max_iter, repeats, x0))
            records += rows
            iteration_counts = [row.iterations for row in rows]
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
    max_iter: int = 100,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Beta sweep: solved counts and mean iterations per [lb, ub) and tolx.

    The mean is taken over solved instances only and emitted as "-" when
    nothing solved, matching how such cells are usually tabulated.
    """
    records: list[BenchRecord] = []
    for r, (lb, ub) in enumerate(ranges):
        batch = _batch(seed, _BETA_TAG, r, n, lb, ub, count)
        label = f"[{lb:g},{ub:g})"
        for tolx in tolxs:
            rows = [_solve_row("bench-beta", inst, tolx, str(i), max_iter, repeats)
                    for i, inst in enumerate(batch)]
            records += rows
            # SolveStatus is a str enum, so the status strings compare equal
            solved_iterations = [row.iterations for row in rows
                                 if row.status in CONVERGED_STATUSES]
            records.append(BenchRecord(
                "bench-beta", n, label, tolx, "all", "solved-count",
                len(solved_iterations), None, None))
            mean = float(np.mean(solved_iterations)) if solved_iterations else "-"
            records.append(BenchRecord(
                "bench-beta", n, label, tolx, "all", "iterations-mean", mean, None, None))
    return records
