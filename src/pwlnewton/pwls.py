"""Solver for the piecewise linear system  x+ + T x = b.

The system is linear on each orthant of R^n, and the active orthant is
encoded by the iterate's sign pattern, a bool array that is True where
the iterate is positive.  The Newton step's matrix depends only on that
pattern, so in exact arithmetic each iterate is a function of its
predecessor's pattern.  This gives exact termination tests for free: a
new iterate whose pattern equals its predecessor's is an exact solution,
and a pattern that recurs non-consecutively proves a cycle.  In floating
point a step may also reuse the LU factor held from an earlier step's
pattern (see _iterate_patterns), so the computed iterate depends on that
factor too: the claims above hold in exact arithmetic, and a revisited
pattern's iterate matches the earlier one up to rounding.

Besides newton_solve the module evaluates the conditions on ||T^-1||
that guarantee a unique solution and a Q-linear rate (check_conditions).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

import numpy as np

from .errors import DimensionError, SingularMatrixError
from .linalg import LuFactors, _factor, as_square_matrix, as_vector, inv_spectral_norm

# sign pattern of x: a bool array, True at i iff x_i > 0 (0 counts as not positive)
SignPattern = np.ndarray
# (pattern, LU factors, formulation state) of a fresh Newton step; the driver
# reads the first two, and passes the state back to the bordered step unread
Held = tuple[SignPattern, LuFactors, Any]

# the factor-reuse limits of the Newton driver; see _iterate_patterns
REUSE_MIN_SIZE = 64
REUSE_RATIO = 8

# every Newton step factors and solves through these names, looked up at call
# time; they are linalg's cores, since a step builds its matrices from checked data
lu_factor = _factor
lu_solve = LuFactors.solve


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
    # final_residual_norm once known, else the residual that computes it
    _residual_norm: Optional[float] = None
    _residual_of: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def final_residual_norm(self) -> float:
        if self._residual_norm is None:
            self._residual_norm = float(np.abs(self._residual_of(self.last_iterate)).max())
            self._residual_of = None
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
    def contraction_modulus(self) -> float:
        return self.inv_norm

    @property
    def predicted_rate(self) -> Optional[float]:
        m = self.inv_norm
        return m / (1.0 - m) if self.existence_ok else None


def residual(p: PwlsProblem, x) -> np.ndarray:
    """F(x) = x+ + T x - b."""
    x = as_vector(x, "x", p.n)
    return np.maximum(x, 0.0) + p.T @ x - p.b


def _pattern_matrix(T: np.ndarray, bits: SignPattern) -> np.ndarray:
    # a fresh column-major copy, the layout getrf factors, whatever T's layout;
    # its memory-order ravel is a view, and this strided slice its diagonal
    m = T.copy(order="F")
    m.ravel(order="K")[:: T.shape[0] + 1] += bits
    return m


def _bordered_solve(
    f: LuFactors,
    y: np.ndarray,
    dense: np.ndarray,
    d: np.ndarray,
    G: np.ndarray,
    g: np.ndarray | float,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(x, z) solving [[M, B], [B^T, G]] [x; z] = [r; g] from LU factors f of M.

    ``y`` is M^-1 r, which the caller holds from the step that factored M.
    B = [dense^T | unit columns at the positions d] has k columns, G is
    k x k and g has length k (or is a scalar).  One solve with M against B
    leaves the k x k capacitance (Schur-complement) system
    (B^T M^-1 B - G) z = B^T y - g, and then x = y - M^-1 B z.  None when
    lu_factor flags the capacitance matrix singular, judged at the size of
    B^T M^-1 B too: where [[M, B], [B^T, G]] is exactly singular, the
    capacitance matrix cancels to rounding level, which its own scale
    would not flag (a nonzero 1 x 1 matrix never is).
    """
    ne = dense.shape[0]
    k = ne + d.size

    def border_t(v: np.ndarray) -> np.ndarray:
        # B^T v: a gather on the unit rows, and a product on the dense rows only
        unit = v.take(d, axis=0)
        return np.concatenate((dense @ v, unit)) if ne else unit

    border = np.zeros((y.size, k), order="F")
    if ne:
        border[:, :ne] = dense.T
    border[d, np.arange(ne, k)] = 1.0
    solved = lu_solve(f, border)
    cap = border_t(solved)
    size = float(np.abs(cap).max())
    cap -= G
    f_cap = lu_factor(cap, size)
    if f_cap.singular:
        return None
    z = lu_solve(f_cap, border_t(y) - g)
    return y - solved @ z, z


def _iterate_patterns(
    x0,
    rhs: np.ndarray,
    opts: SolverOptions,
    fresh: Callable[[SignPattern], Optional[tuple[np.ndarray, Optional[LuFactors], Any]]],
    bordered: Callable[[SignPattern, Held], Optional[np.ndarray]],
    residual_of: Callable[[np.ndarray], np.ndarray],
) -> SolveReport:
    """Driver shared by the piecewise-linear and QP Newton iterations.

    Each iterate is the Newton step from its predecessor's sign pattern,
    taken by one of two callbacks; both return a fresh array, which the
    trace keeps uncopied.  fresh(pattern) factors the step matrix, or the
    reduced system a formulation solves in its place, and returns
    (x_next, the LU factors or None when nothing was factored, the
    formulation's state for a later bordered step), or None to end the
    run as SingularJacobian when lu_factor flags that matrix singular.
    bordered(pattern, held) takes the step through a bordered
    (capacitance) system from held = (pattern, LU factors, state) of an
    earlier fresh step, or returns None when lu_factor flags the
    capacitance matrix singular.  The driver reads only the pattern and
    the factor's order, and bordered must not write into the state, since
    later steps border from it too.

    The factor-reuse rule is stated here only.  The driver holds the
    triple of the last fresh step whose factor has order m >=
    REUSE_MIN_SIZE (64), and nothing else.  A step whose pattern differs
    from the held one in k indices is bordered when REUSE_RATIO * k <= m
    (8 k <= m).  Otherwise, or when bordered returns None, the driver
    drops the held factor (never two factors alive at once) and steps
    fresh.  Below either limit a fresh factor ran faster (one BLAS
    thread).  A bordered step's iterate equals a fresh factor's up to
    rounding, so x_next is a function of the pattern in exact arithmetic
    only; no pattern is stepped from twice, since a recurrence ends the
    run first.

    A formulation may solve a reduced system and map its solution back to
    R^n, n = rhs.size; max|rhs| scales the residual rule.  In residual
    mode, termination per iterate checks, in order: consecutive pattern
    repeat (exact solution), the residual rule, non-consecutive pattern
    recurrence (cycle), and the iteration cap.  ConvergedExact and Cycled
    are exact-arithmetic claims: the final pattern's step reproduces the
    final iterate, or the cycle's iterates, up to rounding.

    In known-solution mode the distance rule is what defines success, so
    it is checked first.  A consecutive pattern repeat then means the
    iteration has become stationary (a further step from the same pattern
    reproduces the iterate), so a stationary iterate that misses the
    distance rule is declared MaxIterations immediately: running out the
    cap could never change the outcome, only repeat the same solve.

    A step that overflows to a non-finite iterate raises ValueError.  Only
    known_solution's length is checked here; SolverOptions checked the rest.
    The report reuses the residual rule's value for its last iterate when
    the rule judged it, and otherwise calls residual_of on first read.
    """
    x = as_vector(x0, "x0", rhs.size).copy()
    u = opts.known_solution
    pat = sign_pattern(x)
    norm: Optional[float] = None  # max-norm residual of x, in residual mode only
    # the active stopping rule's threshold, computed once per solve, and whether x0 meets it
    if u is None:
        bound = opts.tol_f * (1.0 + float(np.abs(rhs).max()))
        norm = float(np.abs(residual_of(x)).max())
        met = norm <= bound
    else:
        if u.size != rhs.size:
            raise DimensionError(f"known_solution has length {u.size}, expected {rhs.size}")
        bound = opts.tol_x * (1.0 + math.sqrt(u @ u))
        d = u - x
        met = math.sqrt(d @ d) < bound

    patterns: list[SignPattern] = [pat]
    trace: Optional[list[np.ndarray]] = [x] if opts.keep_iterates else None
    # index of the iterate each pattern was first seen at, keyed by its bytes
    seen: dict[bytes, int] = {pat.tobytes(): 0}
    cycle: Optional[tuple[int, int]] = None

    def report(status: SolveStatus, iterations: int, last: np.ndarray,
               last_norm: Optional[float] = None) -> SolveReport:
        lazy = residual_of if last_norm is None else None
        return SolveReport(status, iterations, patterns, last, trace, cycle, last_norm, lazy)

    if met:
        return report(SolveStatus.CONVERGED, 0, x, norm)

    held: Optional[Held] = None

    def step(bits: SignPattern) -> Optional[np.ndarray]:
        nonlocal held
        # k >= 1: the iteration never steps twice from one pattern
        if held is not None and REUSE_RATIO * np.count_nonzero(bits != held[0]) <= held[1].n:
            x_next = bordered(bits, held)
            if x_next is not None:
                return x_next
        held = None  # never two factors alive at once
        solved = fresh(bits)
        if solved is None:
            return None
        x_next, f, state = solved
        if f is not None and f.n >= REUSE_MIN_SIZE:
            held = (bits, f, state)
        return x_next

    for k in range(1, opts.max_iter + 1):
        x_new = step(pat)
        if x_new is None:
            return report(SolveStatus.SINGULAR_JACOBIAN, k - 1, x, norm)
        try:
            pat = sign_pattern(x_new)
        except ValueError:
            raise ValueError(f"Newton iterate {k} is not finite (the step overflowed)") from None
        patterns.append(pat)
        if trace is not None:
            trace.append(x_new)
        key = pat.tobytes()
        previous = seen.get(key)
        if u is not None:
            d = u - x_new
            if math.sqrt(d @ d) < bound:
                return report(SolveStatus.CONVERGED, k, x_new)
            if previous == k - 1:
                # stationary but outside the distance tolerance: no later
                # iterate can differ, so the run provably cannot converge
                return report(SolveStatus.MAX_ITERATIONS, k, x_new)
        else:
            if previous == k - 1:
                return report(SolveStatus.CONVERGED_EXACT, k, x_new)
            norm = float(np.abs(residual_of(x_new)).max())
            if norm <= bound:
                return report(SolveStatus.CONVERGED, k, x_new, norm)
        if previous is not None:
            # necessarily previous < k - 1 here; x_{k+1} would equal
            # x_{previous+1}, so the orbit repeats with period k - previous
            # starting at iterate previous + 1.
            cycle = (previous + 1, k - previous)
            return report(SolveStatus.CYCLED, k, x_new, norm)
        seen[key] = k
        x = x_new

    return report(SolveStatus.MAX_ITERATIONS, opts.max_iter, x, norm)


def newton_solve(p: PwlsProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Run the Newton iteration [diag(s_k) + T] x_{k+1} = b from x0.

    A fresh step factors M = T + diag(s), of order n, and its iterate
    Y_b = M^-1 b is the state it holds for a bordered step.  A bordered
    step from the held pattern p, with D the k indices where s differs and
    delta = s_D - p_D (each +1 or -1), uses T + diag(s) = M + diag(delta)
    on D: one solve with the held factors against the unit columns at D
    gives Y_D, then the k x k capacitance system (diag(delta) + Y_DD) z =
    Y_b[D] gives x = Y_b - Y_D z.  _iterate_patterns decides which step
    to take.

    A singular step matrix yields status SingularJacobian rather than an
    exception, so callers can treat all outcomes uniformly.
    """
    opts = opts if opts is not None else SolverOptions()
    no_dense = np.empty((0, p.n))

    def fresh(bits: SignPattern) -> Optional[tuple[np.ndarray, LuFactors, np.ndarray]]:
        f = lu_factor(_pattern_matrix(p.T, bits))
        if f.singular:
            return None
        x = lu_solve(f, p.b)
        return x, f, x

    def bordered(bits: SignPattern, held: Held) -> Optional[np.ndarray]:
        held_bits, f, y = held
        d = (bits != held_bits).nonzero()[0]
        # G = -diag(delta) and g = 0: the border's rows z = delta x_D
        # put diag(delta) on D's diagonal of M
        minus_delta = np.diag(np.where(bits.take(d), -1.0, 1.0))
        solved = _bordered_solve(f, y, no_dense, d, minus_delta, 0.0)
        return None if solved is None else solved[0]

    return _iterate_patterns(x0, p.b, opts, fresh, bordered, residual_of=lambda x: residual(p, x))


def check_conditions(p: PwlsProblem) -> ConditionReport:
    """Evaluate the solvability/rate conditions on ||T^-1||."""
    try:
        inv_norm = inv_spectral_norm(p.T)
    except SingularMatrixError:
        inv_norm = float("inf")
    return ConditionReport(inv_norm)
