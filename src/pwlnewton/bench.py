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
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .gen import GeneratedInstance, GeneratorConfig, make_batch
from .pwls import CONVERGED_STATUSES, SolverOptions
from .qp import qp_newton_solve

CSV_COLUMNS = (
    "experiment", "n", "beta", "tolx", "index", "status", "iterations", "error", "runtime_s",
)

# sub-stream tags so the three experiments never share random draws
_DIM_TAG, _STARTS_TAG, _BETA_TAG = 1, 2, 3

BETA_RANGE = (1e-12, 0.5)  # the paper's beta range for bench-dim and bench-starts


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


def write_csv(records: Sequence[BenchRecord], handle: TextIO) -> None:
    """Write the fixed-schema CSV (header always present, even when empty)."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.to_row())


def _check_settings(tolxs: Sequence[float], max_iter: int, repeats: int, seed: int) -> None:
    """Refuse an out-of-range tolx, max_iter, repeats or seed before any instance is drawn."""
    for tolx in tolxs:
        SolverOptions(max_iter=max_iter, tol_x=tolx)
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _config(seed: int, tag: int, key: int, n: int, beta_low: float,
            beta_high: float) -> GeneratorConfig:
    """Generator settings for the sub-stream (seed, tag, key); refuses a bad n or beta range."""
    # checked first: the key may be n, which the seed stream refuses below 0 in its own words
    cfg = GeneratorConfig(n=n, beta_low=beta_low, beta_high=beta_high)
    entropy = [int(seed), int(tag), int(key)]
    cfg.seed = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
    return cfg


def _solve_row(experiment: str, inst: GeneratedInstance, tolx: float, index: str,
               max_iter: int, repeats: int, x0: Optional[np.ndarray] = None) -> BenchRecord:
    """Solve one instance against its planted solution and return its CSV row.

    The error cell is ||u - x|| / (1 + ||u||) at the last iterate x.  The
    solve is repeated ``repeats`` times on the same data and the median
    wall-clock time is reported; repeats run serially so the measurements
    are uncontended.
    """
    opts = SolverOptions(max_iter=max_iter, known_solution=inst.known_solution, tol_x=tolx)
    start = inst.x0 if x0 is None else x0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = qp_newton_solve(inst.q, start, opts)
        times.append(time.perf_counter() - t0)
    u = inst.known_solution
    error = float(np.linalg.norm(u - report.last_iterate)) / (1.0 + float(np.linalg.norm(u)))
    return BenchRecord(experiment, inst.q.n, inst.beta_used, tolx, index, report.status.value,
                       report.iterations, error, float(statistics.median(times)))


def run_bench_dim(
    sizes: Sequence[int],
    count: int,
    tolxs: Sequence[float],
    seed: int = 0,
    *,
    beta_low: float = BETA_RANGE[0],
    beta_high: float = BETA_RANGE[1],
    max_iter: int = SolverOptions.max_iter,
    repeats: int = 10,
) -> list[BenchRecord]:
    """Dimension sweep: one instance batch per n, solved at every tolx.

    The same batch is reused across tolerances, so iteration counts are
    comparable between accuracy levels.  Summary records per (n, tolx):
    total-iterations and total-runtime.
    """
    _check_settings(tolxs, max_iter, repeats, seed)
    # every n is checked before the first batch is drawn
    configs = [_config(seed, _DIM_TAG, n, n, beta_low, beta_high) for n in sizes]
    records: list[BenchRecord] = []
    for n, cfg in zip(sizes, configs):
        batch = make_batch(cfg, count)
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
    max_iter: int = SolverOptions.max_iter,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Start-point sweep: each problem solved from ``starts`` random x0.

    Problems are drawn with beta in BETA_RANGE, starts from the generator's
    value range.  Per problem and tolx, summary records iterations-mean and
    iterations-std (sample std; 0 for a single start) are emitted, then the
    grand statistics mean-of-means and mean-of-stds over problems.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    _check_settings(tolxs, max_iter, repeats, seed)
    batch = make_batch(_config(seed, _STARTS_TAG, n, n, *BETA_RANGE), problems)
    bound = GeneratorConfig.value_bound
    # start j of problem i comes from its own sub-stream, drawn once for every tolx
    x0s = [[np.random.default_rng(np.random.SeedSequence([int(seed), _STARTS_TAG, i, j]))
            .uniform(-bound, bound, n) for j in range(starts)] for i in range(problems)]
    records: list[BenchRecord] = []
    for tolx in tolxs:
        means: list[float] = []
        stds: list[float] = []
        for i, (inst, starts_of_i) in enumerate(zip(batch, x0s)):
            rows = [_solve_row("bench-starts", inst, tolx, f"{i}:{j}", max_iter, repeats, x0)
                    for j, x0 in enumerate(starts_of_i)]
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
    max_iter: int = SolverOptions.max_iter,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Beta sweep: solved counts and mean iterations per [lb, ub) and tolx.

    The mean is taken over solved instances only and emitted as "-" when
    nothing solved, matching how such cells are usually tabulated.
    """
    _check_settings(tolxs, max_iter, repeats, seed)
    # every range is checked before the first one is drawn
    configs = [_config(seed, _BETA_TAG, r, n, lb, ub) for r, (lb, ub) in enumerate(ranges)]
    records: list[BenchRecord] = []
    for cfg in configs:
        batch = make_batch(cfg, count)
        label = f"[{cfg.beta_low:g},{cfg.beta_high:g})"
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
