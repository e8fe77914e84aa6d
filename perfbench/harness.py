"""Workloads, measurement loop and correctness checks of the solve benchmark.

run.py imports this module only after it has pinned BLAS to one thread
and put the checkout's ``src`` first on sys.path.  Everything here calls
the library's public API (gen, qp, pwls) and nothing else of it.

A run is a sequence of rounds.  Round r of workload w at seed s draws
fresh instances from the stream (s, w.tag, r), so no solve is ever
repeated within a run.  Rounds continue while the next one is likely to
end within ``--seconds``, and at least MIN_ROUNDS are made so that set-up
time is a median of several set-ups.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy
import scipy.linalg as sla

from pwlnewton import gen, pwls, qp
from pwlnewton.errors import EquivalenceUnavailableError

from tracer import Tracer, layer_metrics

MIN_ROUNDS = 3

# residual-rule tolerance of the T/b workload, pinned to the library default
TOL_F = 1e-10

# Largest cond_2(Q - I) of a T/b instance.  The library declares a matrix
# singular when a pivot falls below 1e-12 of its largest entry; generated
# instances with cond_2(Q - I) near 1e14 are refused by qp_to_pwls or end
# SingularJacobian at their first step, where qp_newton_solve solves them.
# The T/b form of such an instance is numerically unusable, so the workload
# keeps it out, two decades inside that limit, and counts what it screened.
MAX_COND = 1e12

# At most this many step matrices are refactored for the bare LAPACK
# baseline of a traced run, each BARE_REPEATS times.
BARE_SAMPLES = 64
BARE_REPEATS = 3

# Reference LU steps timed right before and right after each round's solves
# of an untraced run; see end_to_end_metrics.
REF_REPEATS = 16

# How many failed solves are listed one by one.
FAILURES_SHOWN = 20

TRACE_DIR = ".bench_trace"


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int                  # keeps the workloads' random streams apart
    n: int
    beta: tuple[float, float]
    instances: int            # generated instances per round
    starts: int               # random starts per instance; 0 uses the generator's x0
    tol_x: Optional[float]    # known-solution rule; None: T/b form, residual rule


WORKLOADS = {w.name: w for w in (
    # paper experiment 2: one Q solved from many starts; Python share dominates
    Workload("starts-n50", 1, 50, (1e-12, 0.5), 20, 200, 1e-8),
    # paper experiment 1 at large n: getrf dominates the solve, eigh the set-up
    Workload("dim-n400", 2, 400, (1e-12, 0.5), 100, 0, 1e-8),
    # the user's solve path in T/b form; only workload on the residual rule
    Workload("pwls-resid-n100", 3, 100, (0.5, 1e3), 300, 0, None),
)}


@dataclass
class Case:
    """One solve: a QP, or a T/b problem, with its start and options."""

    problem: Union[qp.QpProblem, pwls.PwlsProblem]
    x0: np.ndarray
    opts: pwls.SolverOptions


def round_seed(seed: int, w: Workload, r: int) -> int:
    return int(np.random.SeedSequence([seed, w.tag, r]).generate_state(1, np.uint64)[0])


def setup(w: Workload, seed: int, r: int) -> tuple[list[Case], int]:
    """Generate round r's cases, and how many T/b instances were screened out."""
    cfg = gen.GeneratorConfig(n=w.n, beta_low=w.beta[0], beta_high=w.beta[1],
                              seed=round_seed(seed, w, r))
    batch = gen.make_batch(cfg, w.instances)
    if w.tol_x is None:
        return pwls_cases(w, cfg, batch, np.random.default_rng([seed, w.tag, r, 2]))
    if not w.starts:
        return [Case(inst.q, inst.x0, _known(inst, w)) for inst in batch], 0
    rng = np.random.default_rng([seed, w.tag, r, 1])
    starts = rng.uniform(-cfg.value_bound, cfg.value_bound, (w.instances, w.starts, w.n))
    cases = []
    for inst, x0s in zip(batch, starts):
        opts = _known(inst, w)
        cases.extend(Case(inst.q, x0, opts) for x0 in x0s)
    return cases, 0


def _known(inst: gen.GeneratedInstance, w: Workload) -> pwls.SolverOptions:
    return pwls.SolverOptions(known_solution=inst.known_solution, tol_x=w.tol_x)


def pwls_cases(w: Workload, cfg: gen.GeneratorConfig, batch: list[gen.GeneratedInstance],
               spare: np.random.Generator) -> tuple[list[Case], int]:
    """Convert the batch to T/b form, keeping instances with cond(Q - I) <= MAX_COND.

    An instance outside the bound is screened out and replaced by a fresh
    draw from ``spare``, so every round solves w.instances problems.
    """
    opts = pwls.SolverOptions(tol_f=TOL_F)
    cases, screened = [], 0
    pending = iter(batch)
    while len(cases) < w.instances:
        inst = next(pending, None) or gen.make_instance(cfg, spare)
        try:
            problem = qp.qp_to_pwls(inst.q)
        except EquivalenceUnavailableError:
            screened += 1
            continue
        # ||Q - I||_2 = beta by construction and ||T||_2 <= ||T||_inf for the
        # symmetric T, so this product bounds cond_2(Q - I) from above
        if inst.beta_used * float(np.abs(problem.T).sum(axis=1).max()) > MAX_COND:
            screened += 1
            continue
        cases.append(Case(problem, inst.x0, opts))
    return cases, screened


def solve(case: Case) -> pwls.SolveReport:
    # module attribute lookups, so a traced run sees the wrapped entry points
    if isinstance(case.problem, pwls.PwlsProblem):
        return pwls.newton_solve(case.problem, case.x0, case.opts)
    return qp.qp_newton_solve(case.problem, case.x0, case.opts)


def check(case: Case, report: pwls.SolveReport) -> tuple[bool, float]:
    """The benchmark's own verdict on one solve, and the value it judged.

    Known-solution rule: ||u - x|| < tol_x (1 + ||u||), recomputed here.
    T/b form: the planted u is no reference there, because T = (Q - I)^-1
    can be too ill-conditioned for the forward error to be small.  The
    value judged is the normwise backward error ||x+ + Tx - b||_inf /
    (||T||_inf ||x||_inf + ||b||_inf).  ConvergedExact claims x is exact
    up to factorization rounding, so it must lie within n eps, a bound
    fixed from float64 rounding alone (gamma_2n: LU with partial pivoting
    at modest growth plus the residual's own rounding).  Converged claims
    only the residual rule, ||x+ + Tx - b||_inf <= tol_f (1 + ||b||_inf),
    which is recomputed here instead.
    """
    if not report.converged:
        return False, float("nan")
    x = report.solution
    u = case.opts.known_solution
    if u is not None:
        distance = float(np.linalg.norm(u - x))
        scale = 1.0 + float(np.linalg.norm(u))
        return distance < case.opts.tol_x * scale, distance / scale
    T, b = case.problem.T, case.problem.b
    residual = float(np.abs(np.maximum(x, 0.0) + T @ x - b).max())
    b_norm = float(np.abs(b).max())
    eta = residual / (float(np.abs(T).sum(axis=1).max()) * float(np.abs(x).max()) + b_norm)
    if report.status is pwls.SolveStatus.CONVERGED_EXACT:
        return eta <= T.shape[0] * np.finfo(float).eps, eta
    return residual <= case.opts.tol_f * (1.0 + b_norm), eta


def step_matrix(problem, bits) -> np.ndarray:
    """The matrix one Newton step factors, rebuilt from its sign pattern."""
    s = np.asarray(bits, dtype=float)
    if isinstance(problem, pwls.PwlsProblem):
        return problem.T + np.diag(s)
    m = (problem.Q - np.eye(s.size)) * s[np.newaxis, :]
    m[np.diag_indices(s.size)] += 1.0
    return m


def lapack_step_s(m: np.ndarray, repeats: int) -> list[float]:
    """Wall times of a plain scipy lu_factor + lu_solve on m, one per repeat."""
    rhs = np.ones(m.shape[0])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sla.lu_solve(sla.lu_factor(m, check_finite=False), rhs, check_finite=False)
        times.append(time.perf_counter() - t0)
    return times


@functools.cache
def reference_matrix(n: int) -> np.ndarray:
    """A fixed, well-conditioned n x n matrix; the same in every run and at every seed."""
    return np.random.default_rng(n).standard_normal((n, n)) + n * np.eye(n)


def bare_lapack_ms(samples: list[tuple[object, tuple]]) -> float:
    """Median time of a plain scipy lu_factor + lu_solve on the given step matrices."""
    times = [statistics.median(lapack_step_s(step_matrix(problem, bits), BARE_REPEATS))
             for problem, bits in samples]
    return 1e3 * statistics.median(times) if times else 0.0


def digest(outcomes: list[tuple[str, int]]) -> str:
    h = hashlib.sha256()
    for status, iterations in outcomes:
        h.update(f"{status} {iterations}\n".encode())
    return h.hexdigest()[:16]


def blas_info() -> list[dict]:
    """Config string and live thread count of each OpenBLAS numpy and scipy loaded."""
    found = []
    for module in (np, scipy):
        libdir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            entry = {"library": Path(path).name, "config": None, "threads": None}
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                found.append(entry)
                continue
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if get_config is not None and get_threads is not None:
                        get_config.restype = ctypes.c_char_p
                        get_threads.restype = ctypes.c_int
                        entry["config"] = get_config().decode()
                        entry["threads"] = get_threads()
            found.append(entry)
    if not found:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found.append({"library": blas.get("name"), "config": blas.get("version"), "threads": None})
    return found


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args: argparse.Namespace, src: Path, rounds: int) -> dict:
    w = WORKLOADS[args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "round_seeds": [round_seed(args.seed, w, r) for r in range(rounds)],
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {var: value for var, value in sorted(os.environ.items())
                     if var.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (src / "pwlnewton").rglob("*.py")),
    }


@dataclass
class Tally:
    """What a run measured, accumulated round by round."""

    setup_s: list[float] = field(default_factory=list)
    screened: int = 0                                      # T/b instances kept out in set-up
    # per round of an untraced run, in s: the solve phase's wall time per
    # solve, the solves' p50 and p90, and the median reference LU step
    round_mean: list[float] = field(default_factory=list)
    round_p50: list[float] = field(default_factory=list)
    round_p90: list[float] = field(default_factory=list)
    round_ref: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)       # untraced solves only
    iterations: int = 0                                    # untraced solves only
    outcomes: list[list[tuple[str, int]]] = field(default_factory=list)
    # (round, item, status, iterations, judged value); the item is the solve's
    # index in the round
    failures: list[tuple[int, int, str, int, float]] = field(default_factory=list)
    by_status: Counter = field(default_factory=Counter)
    worst: dict[str, float] = field(default_factory=dict)  # largest judged value per status
    traced: dict = field(default_factory=lambda: {
        "time": 0.0, "solves": 0, "iterations": 0, "flips": 0, "active": 0.0})
    bare_samples: list[tuple[object, tuple]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(o) for o in self.outcomes)

    @property
    def wrong(self) -> int:
        """Solves that claimed convergence and failed the benchmark's check."""
        converged = {s.value for s in pwls.CONVERGED_STATUSES}
        return sum(f[2] in converged for f in self.failures)


def run_round(w: Workload, seed: int, r: int, tracer: Optional[Tracer], tally: Tally) -> None:
    t0 = time.perf_counter()
    with tracer.installed(solve=False) if tracer else nullcontext():
        cases, screened = setup(w, seed, r)
    tally.setup_s.append(time.perf_counter() - t0)
    tally.screened += screened

    reports = []
    traced_flags = []
    traced = tally.traced
    ref = [] if tracer else lapack_step_s(reference_matrix(w.n), REF_REPEATS)
    t_round = time.perf_counter()
    for i, case in enumerate(cases):
        # a traced run traces every other solve, so the untraced half
        # measures the tracing overhead on the same workload
        is_traced = tracer is not None and i % 2 == 0
        with tracer.installed(solve=True) if is_traced else nullcontext():
            t0 = time.perf_counter()
            report = solve(case)
            elapsed = time.perf_counter() - t0
        reports.append(report)
        traced_flags.append(is_traced)
        if is_traced:
            traced["time"] += elapsed
            traced["solves"] += 1
        else:
            tally.times.append(elapsed)
    if tracer is None:
        round_times = tally.times[-len(cases):]
        tally.round_mean.append((time.perf_counter() - t_round) / len(cases))
        ref += lapack_step_s(reference_matrix(w.n), REF_REPEATS)
        tally.round_ref.append(statistics.median(ref))
        p50, p90 = np.percentile(round_times, [50, 90])
        tally.round_p50.append(p50)
        tally.round_p90.append(p90)

    outcomes = [(rep.status.value, rep.iterations) for rep in reports]
    tally.outcomes.append(outcomes)
    tally.by_status.update(status for status, _ in outcomes)
    for i, (case, report, is_traced) in enumerate(zip(cases, reports, traced_flags)):
        ok, value = check(case, report)
        status = report.status.value
        if report.converged:
            tally.worst[status] = max(tally.worst.get(status, 0.0), value)
        if not ok:
            tally.failures.append((r, i, status, report.iterations, value))
        if not is_traced:
            tally.iterations += report.iterations
            continue
        patterns = np.asarray(report.pattern_trace, dtype=np.int8)
        traced["iterations"] += report.iterations
        traced["flips"] += int(np.abs(np.diff(patterns, axis=0)).sum())
        traced["active"] += float(patterns[:-1].sum()) / w.n
        for bits in report.pattern_trace[:report.iterations]:
            if len(tally.bare_samples) < BARE_SAMPLES:
                tally.bare_samples.append((case.problem, bits))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(w: Workload, tally: Tally) -> dict:
    """End-to-end metrics, each the median of its per-round values.

    On a shared machine the CPU's speed drifts with other tenants' load
    (by up to 2x over minutes on a 2-vCPU Xeon VM), and no run length or
    in-run median averages that out.  So a solve's cost is given in
    reference LU steps: its wall time divided by the wall time of
    one plain scipy lu_factor + lu_solve on a fixed matrix of the same n,
    timed around the same round.  The drift cancels out of the ratio; a
    change to the program's own speed does not.  Raw wall times are printed.
    """
    failed = len(tally.failures)
    per_round = len(tally.outcomes[0])
    rounds = list(zip(tally.round_mean, tally.round_p50, tally.round_p90, tally.round_ref))

    def median_of(column: int, in_steps: bool) -> float:
        return statistics.median(r[column] / r[3] if in_steps else r[column] for r in rounds)

    print(f"solve samples {len(tally.times)}: {len(rounds)} rounds of {per_round}, "
          f"{per_round - math.ceil(0.9 * per_round)} beyond each round's p90; "
          f"fail_frac {failed / tally.attempted:.6g} ({failed} of {tally.attempted})")
    print(f"wall time: solves_per_s {1 / median_of(0, False):.6g} 1/s, "
          f"solve_ms.p50 {1e3 * median_of(1, False):.6g} ms, "
          f"solve_ms.p90 {1e3 * median_of(2, False):.6g} ms; "
          f"reference LU step {1e3 * median_of(3, False):.6g} ms at n={w.n}")
    return {
        # the median of several set-ups, so that work moved into set-up shows
        "setup_s": metric(statistics.median(tally.setup_s), "s"),
        "solve_cost.mean": metric(median_of(0, True), "lu_steps"),
        "solve_cost.p50": metric(median_of(1, True), "lu_steps"),
        "solve_cost.p90": metric(median_of(2, True), "lu_steps"),
        "iterations_per_solve": metric(tally.iterations / len(tally.times), "iterations"),
        "solved_frac": metric(1.0 - failed / tally.attempted, "fraction"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(w: Workload, seed: int, tracer: Tracer, tally: Tally) -> dict:
    untraced_s = sum(tally.times)
    metrics, self_ns, solve_ns = layer_metrics(
        tracer.spans, n=w.n, traced=tally.traced,
        untraced_s_per_solve=untraced_s / len(tally.times),
        untraced_ms_per_iteration=1e3 * untraced_s / tally.iterations,
        bare_ms=bare_lapack_ms(tally.bare_samples))
    print(f"trace self times sum to {self_ns / 1e6:.3f} ms; traced solve time "
          f"{solve_ns / 1e6:.3f} ms over {tally.traced['solves']} traced solves")
    path = tracer.write(Path(TRACE_DIR) / f"{w.name}-seed{seed}.tsv")
    print(f"trace spans written to {path}")
    return metrics


def main(args: argparse.Namespace, src: Path) -> int:
    w = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    tally = Tally()
    durations = []
    while True:
        t0 = time.perf_counter()
        run_round(w, args.seed, len(durations), tracer, tally)
        durations.append(time.perf_counter() - t0)
        # stop before a round that would likely end past --seconds
        if (len(durations) >= MIN_ROUNDS
                and sum(durations) + statistics.median(durations) > args.seconds):
            break
    rounds = len(durations)

    attempted, failed = tally.attempted, len(tally.failures)
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment(args, src, rounds)))
    print(f"digest {digest(tally.outcomes[0])}  (status, iterations) of round 0's "
          f"{len(tally.outcomes[0])} solves; later rounds: "
          + " ".join(digest(o) for o in tally.outcomes[1:]))
    rule = ("known-solution ||u-x|| < tol_x(1+||u||)" if w.tol_x is not None else
            "ConvergedExact: backward error <= n eps; Converged: residual rule")
    if w.tol_x is None:
        print(f"screened {tally.screened} T/b instances with cond(Q - I) > {MAX_COND:g} "
              f"in set-up; each was replaced by a fresh draw")
    print(f"check {rule}: {attempted - failed} passed, {failed} failed "
          f"({tally.wrong} claiming convergence) of {attempted} in {rounds} rounds")
    print("statuses " + ", ".join(
        f"{status} {count}" + (f" (largest judged value {tally.worst[status]:.3e})"
                               if status in tally.worst else "")
        for status, count in sorted(tally.by_status.items())))
    for fail in tally.failures[:FAILURES_SHOWN]:
        print("FAIL round %d item %d status %s iterations %d value %.3e" % fail)
    if failed > FAILURES_SHOWN:
        print(f"... and {failed - FAILURES_SHOWN} more failures")

    metrics = traced_metrics(w, args.seed, tracer, tally) if tracer else end_to_end_metrics(w, tally)
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    # correct: no solve claimed a convergence the check rejects; a solve that
    # reports failure counts only in "failed"
    print(json.dumps({"correct": tally.wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
