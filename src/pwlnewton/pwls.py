"""Solver for the piecewise linear system  x+ + T x = b.

The system is linear on each orthant of R^n, and the active orthant is
encoded by the iterate's sign pattern, a bool array that is True where
the iterate is positive.  The Newton step's matrix depends only on that
pattern, so in exact arithmetic each iterate is a function of its
predecessor's pattern.  This gives exact termination tests for free: a
new iterate whose pattern equals its predecessor's is an exact solution,
and a pattern that recurs non-consecutively proves a cycle.  In floating
point a step may also reuse the factor held from an earlier step's
pattern (see _iterate_patterns), so the computed iterate depends on that
factor too: the claims above hold in exact arithmetic, and a revisited
pattern's iterate matches the earlier one up to rounding.

Besides newton_solve the module evaluates the conditions on ||T^-1||
that guarantee a unique solution and a Q-linear rate (check_conditions).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

import numpy as np
from scipy.linalg.blas import dnrm2

from .errors import DimensionError
from .linalg import Factor, as_square_matrix, as_vector, factor, inv_spectral_norm

# sign pattern of x: a bool array, True at i iff x_i > 0 (0 counts as not positive)
SignPattern = np.ndarray

# the factor-reuse limits of the Newton driver; see _iterate_patterns
REUSE_MIN_SIZE = 64
REUSE_RATIO = 8

# every Newton step factors and solves through these names, looked up at call
# time so that one wrapper sees every step; lu_factor also solves, and lu_solve
# serves held factors with their own kernel (potrs after spd=True).
# Newton-path products use ndarray.dot: the BLAS call @ makes, without its dispatch
lu_factor = factor
lu_solve = Factor.solve


def sign_pattern(x) -> SignPattern:
    """Bool array selecting the active orthant: True at i iff x_i > 0."""
    return as_vector(x) > 0.0


@dataclass
class PwlsProblem:
    """Problem data (T, b) for the system  x+ + T x = b.

    ``symmetric`` is derived, not set: True when T equals its transpose
    exactly, decided once here.  newton_solve then factors its steps by
    Cholesky, so T must not be changed in place afterwards.
    """

    T: np.ndarray
    b: np.ndarray
    symmetric: bool = field(init=False, default=False)

    def __post_init__(self):
        self.T = as_square_matrix(self.T, "T")
        self.b = as_vector(self.b, "b", self.T.shape[0])
        self.symmetric = bool(np.array_equal(self.T, self.T.T))

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
    (the benchmark rule; Euclidean norms by BLAS dnrm2, which scales its
    sum of squares and so does not overflow).  Otherwise the residual rule
    applies: stop when the max-norm residual falls below
    tol_f * (1 + max-norm of the right-hand side).
    """

    max_iter: int = 100
    tol_f: float = 1e-10
    tol_x: float = 1e-6
    known_solution: Optional[np.ndarray] = None
    keep_iterates: bool = False

    def __post_init__(self):
        try:
            self.max_iter = operator.index(self.max_iter)
        except TypeError:
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        for name in ("tol_f", "tol_x"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.known_solution is not None:
            self.known_solution = as_vector(self.known_solution, "known_solution")


@dataclass(slots=True)
class SolveReport:
    """Outcome of one solver run.

    ``pattern_trace`` always holds the sign pattern of every iterate as a
    bool array (length iterations + 1); ``iterate_trace`` holds the
    iterates themselves only when the run was started with keep_iterates.
    ``cycle`` is (start index, period) when status is Cycled.
    ``last_iterate`` is the final iterate regardless of status; with
    keep_iterates it is the very array ``iterate_trace[-1]``, not a copy.
    ``final_residual_norm`` is the max-norm residual at last_iterate: the
    residual rule's own value, or else computed on first read and kept.
    """

    status: SolveStatus
    iterations: int
    pattern_trace: list[SignPattern]
    last_iterate: np.ndarray
    iterate_trace: Optional[list[np.ndarray]] = None
    cycle: Optional[tuple[int, int]] = None
    # final_residual_norm once known, and the residual that computes it
    _residual_norm: Optional[float] = None
    _residual_of: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def final_residual_norm(self) -> float:
        if self._residual_norm is None:
            self._residual_norm = float(np.abs(self._residual_of(self.last_iterate)).max())
        return self._residual_norm

    @property
    def converged(self) -> bool:
        return self.status in CONVERGED_STATUSES

    @property
    def solution(self) -> Optional[np.ndarray]:
        """The last iterate when the run converged, otherwise None."""
        return self.last_iterate if self.converged else None

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

    inv_norm: float  # inf when T is singular

    @property
    def existence_ok(self) -> bool:
        return self.inv_norm < 1.0

    @property
    def rate_ok(self) -> bool:
        return self.inv_norm < 0.5

    @property
    def predicted_rate(self) -> Optional[float]:
        m = self.inv_norm
        return m / (1.0 - m) if self.existence_ok else None


def residual(p: PwlsProblem, x) -> np.ndarray:
    """F(x) = x+ + T x - b."""
    x = as_vector(x, "x", p.n)
    return np.maximum(x, 0.0) + p.T.dot(x) - p.b


def _pattern_matrix(T: np.ndarray, bits: SignPattern) -> np.ndarray:
    # a fresh column-major copy, the layout gesv and posv factor, whatever T's layout;
    # its memory-order ravel is a view, and this strided slice its diagonal
    m = T.copy(order="F")
    m.ravel(order="K")[:: T.shape[0] + 1] += bits
    return m


def _iterate_patterns(
    x0,
    rhs: np.ndarray,
    opts: Optional[SolverOptions],
    fresh: Callable[[SignPattern], Optional[tuple[np.ndarray, int, Any]]],
    bordered: Callable[[SignPattern, SignPattern, Any], Optional[np.ndarray]],
    residual_of: Callable[[np.ndarray], np.ndarray],
) -> SolveReport:
    """Driver shared by the piecewise-linear and QP Newton iterations.

    Each iterate is the Newton step from its predecessor's sign pattern,
    a fresh array that the trace keeps uncopied.  fresh(pattern) returns
    (x_next, order, state), or None to end the run as SingularJacobian:
    order is that of the matrix it factored (0 when none), and state is
    the formulation's own tuple, factor included.  bordered(pattern,
    held, state) steps from the held pattern's state, which it must not
    write into, or returns None when its capacitance matrix is flagged
    singular.  opts defaults to SolverOptions().

    The factor-reuse rule is stated here only.  The driver holds (pattern,
    order, state) of the last fresh step of order m >= REUSE_MIN_SIZE
    (64), and nothing else.  A step whose pattern differs from the held
    one in k indices is bordered when REUSE_RATIO * k <= m (8 k <= m).
    Otherwise, or when bordered returns None, the driver drops the state
    (never two factors alive at once) and steps fresh.  Below either limit
    a fresh factor ran faster (one BLAS thread).  A bordered iterate
    equals a fresh one up to rounding, so x_next is a function of the
    pattern in exact arithmetic only; no pattern is stepped from twice,
    since a recurrence ends the run first.

    Iterates live in R^n, n = rhs.size, and max|rhs| scales the residual
    rule.  Each iterate k, x0 as iterate 0, is recorded and judged at one
    site, in this order: in residual mode, a pattern equal to iterate
    k - 1's (ConvergedExact), then the residual rule (Converged); in
    known-solution mode, the distance rule (Converged), then a pattern
    equal to iterate k - 1's (MaxIterations); in both, a pattern seen at
    an earlier iterate (Cycled), then k = max_iter (MaxIterations).  Only
    then does the loop step from it.  So a run whose x0 meets the active
    rule stops at 0 iterations.  ConvergedExact and Cycled are
    exact-arithmetic claims: the final pattern's step reproduces the final
    iterate, or the cycle's iterates, up to rounding.  In known-solution
    mode a pattern repeat means the iteration has become stationary, so an
    iterate that misses the distance rule there could never improve:
    running out the cap would only repeat the same solve.  The distance
    rule is dnrm2(u - x) < tol_x * (1 + dnrm2(u)): dnrm2 scales as it
    sums, so only u - x itself can overflow, where u and x are both within
    a factor of 2 of the largest float.

    A step that overflows to a non-finite iterate raises ValueError.  Only
    known_solution's length is checked here; SolverOptions checked the rest.
    The report holds the last judged iterate and the residual rule's value
    for it when the rule judged it; otherwise residual_of gives that value
    on first read.
    """
    opts = opts if opts is not None else SolverOptions()
    x = as_vector(x0, "x0", rhs.size).copy()
    u = opts.known_solution
    # the active stopping rule's threshold, computed once per solve
    if u is None:
        bound = opts.tol_f * (1.0 + float(np.abs(rhs).max()))
    else:
        if u.size != rhs.size:
            raise DimensionError(f"known_solution has length {u.size}, expected {rhs.size}")
        bound = opts.tol_x * (1.0 + dnrm2(u))

    patterns: list[SignPattern] = []
    trace: Optional[list[np.ndarray]] = [] if opts.keep_iterates else None
    # index of the iterate each pattern was first seen at, keyed by its bytes
    seen: dict[bytes, int] = {}
    cycle: Optional[tuple[int, int]] = None
    norm: Optional[float] = None  # max-norm residual of x, in residual mode only

    def report(status: SolveStatus, last_norm: Optional[float] = None) -> SolveReport:
        return SolveReport(status, len(patterns) - 1, patterns, x, trace, cycle, last_norm,
                           residual_of)

    # the held fresh step's (pattern, order, state); order 0 holds nothing
    held, order, state = None, 0, None
    for k in range(opts.max_iter + 1):
        try:
            pat = sign_pattern(x)
        except ValueError:
            raise ValueError(f"Newton iterate {k} is not finite (the step overflowed)") from None
        patterns.append(pat)
        if trace is not None:
            trace.append(x)
        key = pat.tobytes()
        previous = seen.get(key)
        if u is not None:
            if dnrm2(u - x) < bound:
                return report(SolveStatus.CONVERGED)
            if previous == k - 1:
                # stationary but outside the distance tolerance: no later
                # iterate can differ, so the run provably cannot converge
                return report(SolveStatus.MAX_ITERATIONS)
        else:
            if previous == k - 1:
                return report(SolveStatus.CONVERGED_EXACT)
            norm = float(np.abs(residual_of(x)).max())
            if norm <= bound:
                return report(SolveStatus.CONVERGED, norm)
        if previous is not None:
            # necessarily previous < k - 1 here; x_{k+1} would equal
            # x_{previous+1}, so the orbit repeats with period k - previous
            # starting at iterate previous + 1.
            cycle = (previous + 1, k - previous)
            return report(SolveStatus.CYCLED, norm)
        if k == opts.max_iter:
            return report(SolveStatus.MAX_ITERATIONS, norm)
        seen[key] = k

        x_new = None
        # pat differs from held somewhere, since no pattern is stepped from twice
        if order and REUSE_RATIO * np.count_nonzero(pat != held) <= order:
            x_new = bordered(pat, held, state)
        if x_new is None:
            state = None  # never two factors alive at once
            x_new, order, state = fresh(pat) or (None, 0, None)
            if x_new is None:
                return report(SolveStatus.SINGULAR_JACOBIAN, norm)
            if order < REUSE_MIN_SIZE:
                order, state = 0, None
            held = pat
        x = x_new


def newton_solve(p: PwlsProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Run the Newton iteration [diag(s_k) + T] x_{k+1} = b from x0.

    A fresh step factors M = T + diag(s), of order n, and holds (f, y):
    its factor and its iterate y = M^-1 b.  The factor is Cholesky when T
    is symmetric (PwlsProblem.symmetric), since for s >= 0 M is then
    positive definite whenever T is, and LU otherwise.  The first fresh
    step whose posv fails takes factor's LU result and switches the rest
    of the solve to LU, so a symmetric indefinite T costs at most one
    failed posv per solve.

    A bordered step from the held pattern p, with D the k indices where s
    differs and delta = s_D - p_D (each +1 or -1), uses T + diag(s) = M +
    diag(delta) on D: one solve with f against the unit columns at D gives
    Y_D, then the k x k capacitance system (diag(delta) + Y_DD) z = y_D
    gives x = y - Y_D z.  The capacitance system is always LU, judged
    singular at the size of Y_DD too: where T + diag(s) is exactly
    singular, it cancels to rounding level, which its own scale would not
    flag (a nonzero 1 x 1 matrix never is).

    One reuse rule serves both kernels.  Against fresh-only steps, on one
    BLAS thread of a 2-vCPU Xeon (medians of 8 passes, alternating which
    ran first), reuse took 0.786 of the time on 60 nonsymmetric T of order
    100 and 200, and 1.046 on the 900 symmetric n = 100 T/b problems of the
    benchmark's pwls-resid-n100 workload (0.924 there with LU steps).

    A singular step matrix ends the run as SingularJacobian, not an exception.
    """

    spd = p.symmetric  # until a posv fails

    def fresh(bits: SignPattern) -> Optional[tuple[np.ndarray, int, tuple]]:
        nonlocal spd
        f, x = lu_factor(_pattern_matrix(p.T, bits), p.b, spd=spd)
        spd = f.piv is None
        if f.singular:
            return None
        return x, p.n, (f, x)

    def bordered(bits: SignPattern, held: SignPattern, state: tuple) -> Optional[np.ndarray]:
        f, y = state
        d = (bits != held).nonzero()[0]
        k = d.size
        units = np.zeros((p.n, k), order="F")
        units[d, np.arange(k)] = 1.0
        y_d = lu_solve(f, units)
        cap = y_d.take(d, axis=0)  # a fresh C-ordered copy, so this strided slice is its diagonal
        size = float(np.abs(cap).max())
        cap.ravel()[:: k + 1] += np.where(bits.take(d), 1.0, -1.0)  # delta
        f_cap, z = lu_factor(cap, y.take(d), size)
        if f_cap.singular:
            return None
        return y - y_d.dot(z)

    return _iterate_patterns(x0, p.b, opts, fresh, bordered, residual_of=lambda x: residual(p, x))


def check_conditions(p: PwlsProblem) -> ConditionReport:
    """Evaluate the solvability/rate conditions on ||T^-1||, inf for a singular T.

    They are sufficient, not scale invariant: in exact arithmetic the
    Newton iteration's pattern trace is unchanged under T -> D^-1 T D,
    b -> D^-1 b (D positive diagonal, each iterate x -> D^-1 x), while
    ||T^-1|| is not.
    """
    return ConditionReport(inv_spectral_norm(p.T))
