"""Solver for the piecewise linear system  x+ + T x = b.

The system is linear on each orthant of R^n, and the active orthant is
encoded by the iterate's sign pattern, a bool array that is True where
the iterate is positive.  The Newton step's matrix depends only on that
pattern, so each iterate is a deterministic function of its
predecessor's pattern.  This gives exact termination tests for free: a
new iterate whose pattern equals its predecessor's is an exact solution,
and a pattern that recurs non-consecutively proves a cycle.

Besides the Newton driver the module provides a fixed-point solver (valid
when ||T^-1|| < 1, useful as an independent cross-check), a brute-force
enumerator over all 2^n sign patterns, and checkers for the hypotheses
that guarantee convergence.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ContractionHypothesisError, SingularMatrixError, SizeGuardError
from .linalg import (
    as_matrix,
    as_square_matrix,
    as_vector,
    inv_spectral_norm,
    lu_factor,
    lu_solve,
)

# sign pattern of x: a bool array, True at i iff x_i > 0 (0 counts as not positive)
SignPattern = np.ndarray

# guard for routines that sweep all 2^n sign patterns
ENUMERATION_LIMIT = 20

# entries within ZERO_RTOL * max|M| of zero count as zero for both signs
ZERO_RTOL = 1e-14


def sign_pattern(x) -> SignPattern:
    """Bool array selecting the active orthant: True at i iff x_i > 0."""
    return as_vector(x) > 0.0


@dataclass
class PwlsProblem:
    """Problem data (T, b) for the system  x+ + T x = b."""

    T: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.T = as_square_matrix(self.T, "T")
        self.b = as_vector(self.b, "b", self.T.shape[0])

    @property
    def n(self) -> int:
        return self.b.size


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    CONVERGED_EXACT = "ConvergedExact"
    CYCLED = "Cycled"
    MAX_ITERATIONS = "MaxIterations"
    SINGULAR_JACOBIAN = "SingularJacobian"


#: statuses that mean a solution was found
CONVERGED_STATUSES = (SolveStatus.CONVERGED, SolveStatus.CONVERGED_EXACT)


@dataclass
class SolverOptions:
    """Stopping configuration shared by the iterative solvers.

    Exactly one stopping rule is active per run.  When ``known_solution``
    is set, the run stops as soon as ||u - x_k|| < tol_x * (1 + ||u||)
    (the benchmark rule; norms Euclidean).  Otherwise the residual rule
    applies: stop when the max-norm residual falls below
    tol_f * (1 + max-norm of the right-hand side).

    ``tol_step`` is only used by the fixed-point solver, which stops on
    the Euclidean length of its update step.
    """

    max_iter: int = 100
    tol_f: float = 1e-10
    tol_x: float = 1e-6
    known_solution: Optional[np.ndarray] = None
    tol_step: float = 1e-10
    keep_iterates: bool = False

    def __post_init__(self):
        try:
            self.max_iter = operator.index(self.max_iter)
        except TypeError:
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        for name in ("tol_f", "tol_x", "tol_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.known_solution is not None:
            self.known_solution = as_vector(self.known_solution, "known_solution")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``pattern_trace`` always holds the sign pattern of every iterate as a
    bool array (length iterations + 1); ``iterate_trace`` holds the
    iterates themselves only when the run was started with keep_iterates.
    ``cycle`` is (start index, period) when status is Cycled.
    ``last_iterate`` is the final iterate regardless of status.
    """

    status: SolveStatus
    solution: Optional[np.ndarray]
    iterations: int
    final_residual_norm: float
    pattern_trace: list[SignPattern]
    last_iterate: np.ndarray
    iterate_trace: Optional[list[np.ndarray]] = None
    cycle: Optional[tuple[int, int]] = None

    @property
    def converged(self) -> bool:
        return self.status in CONVERGED_STATUSES

    def cycle_points(self) -> list[np.ndarray]:
        """The iterates forming the detected cycle (needs keep_iterates)."""
        if self.cycle is None:
            raise ValueError("report has no cycle")
        if self.iterate_trace is None:
            raise ValueError("iterates were not kept; rerun with keep_iterates=True")
        start, period = self.cycle
        return self.iterate_trace[start : start + period]


@dataclass
class ConditionReport:
    """Solvability diagnostics derived from ||T^-1||.

    existence_ok (||T^-1|| < 1) guarantees a unique solution for every b;
    rate_ok (||T^-1|| < 1/2) additionally guarantees Q-linear convergence
    of the Newton iteration with factor predicted_rate = m/(1-m) where
    m is the contraction modulus ||T^-1||.
    """

    inv_norm: float
    existence_ok: bool
    rate_ok: bool
    contraction_modulus: float
    predicted_rate: Optional[float]

    @classmethod
    def from_modulus(cls, m: float) -> "ConditionReport":
        """The report for contraction modulus m (inf when T is singular)."""
        existence_ok = m < 1.0
        return cls(
            inv_norm=m,
            existence_ok=existence_ok,
            rate_ok=m < 0.5,
            contraction_modulus=m,
            predicted_rate=m / (1.0 - m) if existence_ok else None,
        )


@dataclass
class DefiniteSignClassification:
    """Row-sign classification of a matrix.

    A row has definite sign when all its entries are >= 0 or all <= 0
    (entries below the zero threshold count as zero for both signs).
    Index sets are 0-based; all-zero rows land in i_plus by convention,
    and mixed-sign rows land in neither set.
    """

    has_definite_sign_rows: bool
    i_plus: tuple[int, ...]
    i_minus: tuple[int, ...]


def residual(p: PwlsProblem, x) -> np.ndarray:
    """F(x) = x+ + T x - b."""
    x = as_vector(x, "x", p.n)
    return np.maximum(x, 0.0) + p.T @ x - p.b


def _pattern_matrix(T: np.ndarray, bits: SignPattern) -> np.ndarray:
    m = T.copy()
    m.flat[:: T.shape[0] + 1] += np.asarray(bits, dtype=float)
    return m


def _solve_or_none(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """matrix^-1 rhs, or None when lu_factor flags matrix singular."""
    f = lu_factor(matrix)
    return None if f.singular else lu_solve(f, rhs)


def _iterate_patterns(
    x0,
    n: int,
    opts: SolverOptions,
    step: Callable[[SignPattern], Optional[np.ndarray]],
    residual_of: Callable[[np.ndarray], np.ndarray],
    residual_scale: float,
) -> SolveReport:
    """Driver shared by the piecewise-linear and QP Newton iterations.

    Every iterate is x_next = step(pattern), where pattern is the current
    iterate's sign pattern; step returns None when the pattern's step
    matrix is singular, which ends the run as SingularJacobian.  A
    formulation may solve a reduced system inside step and map its
    solution back to R^n.  In residual mode, termination per iterate
    checks, in order: consecutive pattern repeat (exact solution), the
    residual rule, non-consecutive pattern recurrence (cycle), and the
    iteration cap.

    In known-solution mode the distance rule is what defines success, so
    it is checked first.  A consecutive pattern repeat then means the
    iteration has become stationary (the next iterate would be bit-for-bit
    identical), so a stationary iterate that misses the distance rule is
    declared MaxIterations immediately: running out the cap could never
    change the outcome, only repeat the same solve.
    """
    x = as_vector(x0, "x0", n).copy()
    u = opts.known_solution
    # threshold of the active stopping rule, computed once per solve
    bound = opts.tol_f * residual_scale
    if u is not None:
        u = as_vector(u, "known_solution", n)
        bound = opts.tol_x * (1.0 + math.sqrt(u @ u))

    def tolerance_met(xk: np.ndarray) -> bool:
        if u is not None:
            d = u - xk
            return math.sqrt(d @ d) < bound
        return float(np.abs(residual_of(xk)).max()) <= bound

    patterns: list[SignPattern] = [sign_pattern(x)]
    trace: Optional[list[np.ndarray]] = [x.copy()] if opts.keep_iterates else None
    # index of the iterate each pattern was first seen at, keyed by its bytes
    seen: dict[bytes, int] = {patterns[0].tobytes(): 0}
    cycle: Optional[tuple[int, int]] = None

    def report(status: SolveStatus, solution: Optional[np.ndarray], iterations: int,
               last: np.ndarray) -> SolveReport:
        return SolveReport(
            status=status,
            solution=solution,
            iterations=iterations,
            final_residual_norm=float(np.abs(residual_of(last)).max()),
            pattern_trace=patterns,
            last_iterate=last,
            iterate_trace=trace,
            cycle=cycle,
        )

    if tolerance_met(x):
        return report(SolveStatus.CONVERGED, x, 0, x)

    for k in range(1, opts.max_iter + 1):
        x_new = step(patterns[-1])
        if x_new is None:
            return report(SolveStatus.SINGULAR_JACOBIAN, None, k - 1, x)
        pat = sign_pattern(x_new)
        patterns.append(pat)
        if trace is not None:
            trace.append(x_new.copy())
        key = pat.tobytes()
        previous = seen.get(key)
        if u is not None:
            if tolerance_met(x_new):
                return report(SolveStatus.CONVERGED, x_new, k, x_new)
            if previous == k - 1:
                # stationary but outside the distance tolerance: no later
                # iterate can differ, so the run provably cannot converge
                return report(SolveStatus.MAX_ITERATIONS, None, k, x_new)
        else:
            if previous == k - 1:
                return report(SolveStatus.CONVERGED_EXACT, x_new, k, x_new)
            if tolerance_met(x_new):
                return report(SolveStatus.CONVERGED, x_new, k, x_new)
        if previous is not None:
            # necessarily previous < k - 1 here; x_{k+1} would equal
            # x_{previous+1}, so the orbit repeats with period k - previous
            # starting at iterate previous + 1.
            cycle = (previous + 1, k - previous)
            return report(SolveStatus.CYCLED, None, k, x_new)
        seen[key] = k
        x = x_new

    return report(SolveStatus.MAX_ITERATIONS, None, opts.max_iter, x)


def newton_solve(p: PwlsProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Run the Newton iteration [diag(s_k) + T] x_{k+1} = b from x0.

    A singular step matrix yields status SingularJacobian rather than an
    exception, so callers can treat all outcomes uniformly.
    """
    opts = opts if opts is not None else SolverOptions()
    return _iterate_patterns(
        x0,
        p.n,
        opts,
        step=lambda bits: _solve_or_none(_pattern_matrix(p.T, bits), p.b),
        residual_of=lambda x: residual(p, x),
        residual_scale=1.0 + float(np.abs(p.b).max()),
    )


def fixed_point_solve(p: PwlsProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Iterate the contraction x <- T^-1 (b - x+) until the step is tiny.

    Requires ||T^-1|| < 1 (checked; ContractionHypothesisError otherwise).
    Converges to the same unique solution as the Newton iteration, which
    makes it a useful independent oracle.
    """
    opts = opts if opts is not None else SolverOptions()
    x = as_vector(x0, "x0", p.n).copy()
    try:
        lam = inv_spectral_norm(p.T)
    except SingularMatrixError as exc:
        raise ContractionHypothesisError("T is singular, so ||T^-1|| is not below 1") from exc
    if lam >= 1.0:
        raise ContractionHypothesisError(f"||T^-1|| = {lam!r} >= 1; the map is not a contraction")
    f = lu_factor(p.T)

    patterns = [sign_pattern(x)]
    trace: Optional[list[np.ndarray]] = [x.copy()] if opts.keep_iterates else None

    def report(status: SolveStatus, solution: Optional[np.ndarray], iterations: int,
               last: np.ndarray) -> SolveReport:
        return SolveReport(
            status=status,
            solution=solution,
            iterations=iterations,
            final_residual_norm=float(np.abs(residual(p, last)).max()),
            pattern_trace=patterns,
            last_iterate=last,
            iterate_trace=trace,
        )

    for k in range(1, opts.max_iter + 1):
        x_new = lu_solve(f, p.b - np.maximum(x, 0.0))
        patterns.append(sign_pattern(x_new))
        if trace is not None:
            trace.append(x_new.copy())
        if float(np.linalg.norm(x_new - x)) <= opts.tol_step:
            return report(SolveStatus.CONVERGED, x_new, k, x_new)
        x = x_new
    return report(SolveStatus.MAX_ITERATIONS, None, opts.max_iter, x)


def enumerate_solutions(p: PwlsProblem) -> tuple[list[np.ndarray], list[SignPattern]]:
    """Brute-force all 2^n sign patterns.

    For each pattern s, solve [diag(s) + T] x = b when nonsingular and
    accept x iff its signs are consistent with s (x_i > 0 exactly where
    s_i = 1; x_i = 0 is only consistent with s_i = 0).  Singular patterns
    are collected and reported, not searched: such a pattern can hide an
    affine family of solutions, which has no finite representation here.
    """
    if p.n > ENUMERATION_LIMIT:
        raise SizeGuardError(f"enumeration is limited to n <= {ENUMERATION_LIMIT}, got n = {p.n}")
    solutions: list[np.ndarray] = []
    singular_patterns: list[SignPattern] = []
    for s in map(np.array, itertools.product((False, True), repeat=p.n)):
        x = _solve_or_none(_pattern_matrix(p.T, s), p.b)
        if x is None:
            singular_patterns.append(s)
        elif np.array_equal(x > 0.0, s):
            solutions.append(x)
    return solutions, singular_patterns


def check_conditions(p: PwlsProblem) -> ConditionReport:
    """Evaluate the solvability/rate conditions on ||T^-1||."""
    try:
        inv_norm = inv_spectral_norm(p.T)
    except SingularMatrixError:
        inv_norm = float("inf")
    return ConditionReport.from_modulus(inv_norm)


def definite_sign_rows(m) -> DefiniteSignClassification:
    """Classify each row of m as nonnegative, nonpositive, or mixed."""
    m = as_matrix(m)
    threshold = ZERO_RTOL * float(np.abs(m).max())
    has_pos = (m > threshold).any(axis=1)
    has_neg = (m < -threshold).any(axis=1)
    mixed = has_pos & has_neg
    i_plus = tuple(int(i) for i in np.flatnonzero(~mixed & ~has_neg))
    i_minus = tuple(int(i) for i in np.flatnonzero(~mixed & has_neg))
    return DefiniteSignClassification(
        has_definite_sign_rows=not bool(mixed.any()),
        i_plus=i_plus,
        i_minus=i_minus,
    )


def check_finite_termination_hypothesis(
    p: PwlsProblem, patterns: Optional[Iterable[SignPattern]] = None
) -> bool:
    """True iff [diag(s) + T] is nonsingular with a definite-sign inverse.

    With patterns=None all 2^n patterns are checked (n <= 20 guard); a
    caller may instead supply a sample of patterns for large n.  When the
    exhaustive check passes, the Newton iteration terminates in finitely
    many steps at the unique solution, with per-coordinate monotone
    trajectories.  Each supplied pattern must have length n and 0/1 or
    bool entries (DimensionError or ValueError otherwise).
    """
    if patterns is None:
        if p.n > ENUMERATION_LIMIT:
            raise SizeGuardError(
                f"exhaustive check is limited to n <= {ENUMERATION_LIMIT}, got n = {p.n}"
            )
        patterns = itertools.product((0, 1), repeat=p.n)
    for bits in patterns:
        s = as_vector(bits, "pattern", p.n)
        if not ((s == 0.0) | (s == 1.0)).all():
            raise ValueError(f"pattern entries must be 0 or 1, got {bits!r}")
        inverse = _solve_or_none(_pattern_matrix(p.T, s), np.eye(p.n))
        if inverse is None or not definite_sign_rows(inverse).has_definite_sign_rows:
            return False
    return True
