"""Nonnegative quadratic programming via the piecewise linear system.

minimize 1/2 x^T Q x + x^T b_tilde + c over x >= 0, with Q symmetric
positive definite.  The optimality conditions reduce to the piecewise
linear equation [Q - I] x+ + x = -b_tilde, solved here by the same
pattern-driven Newton iteration as the T/b form, with each step reduced
to the active set; the QP solution is then the positive part of the
equation's solution.

Projection onto a simplicial cone {A x : x >= 0} is the special case
Q = A^T A, b_tilde = -A^T z, and is exposed directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf

# the Newton step's kernels are pwls.lu_factor and pwls.lu_solve, looked up
# at call time as in the T/b step, so that one wrapper on pwls (such as
# perfbench/tracer.py's) sees every step's factor and solve
from . import pwls
from .errors import EquivalenceUnavailableError, SingularMatrixError
from .linalg import LuFactors, as_square_matrix, as_vector, lu_factor, lu_solve, spectral_norm
from .pwls import (
    ConditionReport,
    PwlsProblem,
    SignPattern,
    SolveReport,
    SolverOptions,
    _iterate_patterns,
    _solve_or_none,
)

# A step reuses the held LU factors of Q_PP only when |P| >= REUSE_MIN_SIZE
# and at most |P| / REUSE_RATIO indices joined or left the active set; below
# either limit a fresh factor of Q_AA ran faster (one BLAS thread).
REUSE_MIN_SIZE = 64
REUSE_RATIO = 8


@dataclass
class QpProblem:
    """QP data (Q, b_tilde, c); an asymmetric Q is replaced by (Q + Q^T)/2.

    Symmetrizing loses nothing (the quadratic form is unchanged) and makes
    downstream symmetry assumptions unconditional.  An exactly symmetric Q
    is copied bit for bit instead (halving could round a subnormal entry).
    Positive definiteness is deliberately not checked here; call
    is_positive_definite when the guarantee matters (it costs one Cholesky
    factorization of Q).
    """

    Q: np.ndarray
    b_tilde: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        q = as_square_matrix(self.Q, "Q")
        # halving each term first cannot overflow on finite input
        self.Q = q.copy() if np.array_equal(q, q.T) else 0.5 * q + 0.5 * q.T
        self.b_tilde = as_vector(self.b_tilde, "b_tilde", self.Q.shape[0])
        self.c = float(self.c)

    @property
    def n(self) -> int:
        return self.b_tilde.size

    def is_positive_definite(self) -> bool:
        """True iff LAPACK's potrf completes a Cholesky factorization of Q."""
        return dpotrf(self.Q)[1] == 0


@dataclass
class ConeInstance:
    """A simplicial cone {A x : x >= 0} (A nonsingular) and a point z."""

    A: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.A = as_square_matrix(self.A, "A")
        self.z = as_vector(self.z, "z", self.A.shape[0])
        if lu_factor(self.A).singular:
            raise SingularMatrixError("A must be nonsingular to define a simplicial cone")

    @property
    def n(self) -> int:
        return self.z.size


@dataclass
class KktResidual:
    """Violations of x >= 0, Qx + b_tilde >= 0, <Qx + b_tilde, x> = 0."""

    primal_violation: float
    dual_violation: float
    complementarity: float

    @property
    def worst(self) -> float:
        return max(self.primal_violation, self.dual_violation, self.complementarity)


class ConeProjectionResult(NamedTuple):
    v: np.ndarray
    projection: np.ndarray
    report: SolveReport


def _qp_residual(q: QpProblem, x: np.ndarray) -> np.ndarray:
    """Residual [Q - I] x+ + x + b_tilde of the QP equation at a checked x."""
    xp = np.maximum(x, 0.0)
    r = q.Q @ xp  # then in place, in the left-to-right order of Q xp - xp + x + b_tilde
    r -= xp
    r += x
    r += q.b_tilde
    return r


def _bordered_solve(
    q: QpProblem,
    minus_b: np.ndarray,
    bits: SignPattern,
    a: np.ndarray,
    rows: np.ndarray,
    held: tuple[SignPattern, np.ndarray, LuFactors],
) -> Optional[np.ndarray]:
    """x_A solving Q_AA x_A = -b_A from the held LU factors of M = Q_PP.

    With D = P - A and E = A - P, x_A is read off the bordered system
    [[M, B], [B^T, G]] [x_P; z] = [f; g], where B = [Q_PE | unit columns at
    D], G = diag(Q_EE, 0), f is -b_P with its D rows set to 0 and g is
    (-b_E, 0): the unit rows pin x_D = 0 and the unit columns free the D
    equations, so x_P off D and z_E = x_E solve the step.  One solve with M
    against [B | f] leaves the k x k capacitance system
    (G - B^T M^-1 B) z = g - B^T M^-1 f, k = |D| + |E|, and then
    x_P = M^-1 f - M^-1 B z.  None when lu_factor flags the capacitance
    matrix singular.  ``rows`` is Q[A], and ``held`` is P's pattern, P and
    the LU factors of M.
    """
    held_bits, p, f = held
    joined = ~held_bits.take(a)
    e = a[joined]
    d = (~bits.take(p)).nonzero()[0]  # positions of D in P
    ne = e.size
    k = ne + d.size
    q_e = rows.compress(joined, axis=0)
    q_ep = q_e.take(p, axis=1)
    border = np.zeros((p.size, k + 1), order="F")
    border[:, :ne] = q_ep.T  # Q is exactly symmetric
    border[d, np.arange(ne, k)] = 1.0
    border[:, k] = minus_b.take(p)
    border[d, k] = 0.0
    solved = pwls.lu_solve(f, border)
    # [G | g] - B^T [M^-1 B | M^-1 f]
    cap = -np.vstack((q_ep @ solved, solved[d]))
    cap[:ne, :ne] += q_e.take(e, axis=1)
    cap[:ne, k] += minus_b.take(e)
    z = _solve_or_none(cap[:, :k], cap[:, k])
    if z is None:
        return None
    x = np.empty(bits.size)
    x[p] = solved[:, k] - solved[:, :k] @ z
    x[e] = z[:ne]
    return x.take(a)


def qp_newton_solve(q: QpProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Newton iteration x_{k+1} = -([Q - I] diag(s_k) + I)^-1 b_tilde.

    Each step is solved on the active set A = {i : s_i = 1} only.  With
    the columns permuted so that A comes first, the step matrix is
    [[Q_AA, 0], [Q_IA, I]], so the step is Q_AA x_A = -b_tilde_A followed
    by x_I = -b_tilde_I - Q_IA x_A: one factorization of size |A| and one
    mat-vec, and x_{k+1} = -b_tilde with nothing factored when A is empty.
    This is the primal-dual active-set form of the semi-smooth Newton step.

    The solve holds the LU factors of the last freshly factored Q_PP, and
    nothing else, between steps.  A later step whose active set A differs
    from P in few indices reuses them: with D = P - A (indices that left)
    and E = A - P (indices that joined), it solves once with the held
    factors against k + 1 right-hand sides and then a k x k capacitance
    (Schur-complement) system, k = |D| + |E|.  A step factors Q_AA afresh
    instead when no factor is held, when |P| < REUSE_MIN_SIZE (64), when
    REUSE_RATIO * k > |P| (8 k > |P|), or when lu_factor flags the
    capacitance matrix singular.  A reused step's iterate equals a fresh
    factor's up to rounding.

    Shares all termination and cycle machinery with the T/b solver.  The
    determinant of the step matrix equals det Q_AA, so for symmetric
    positive definite Q the step is provably nonsingular and a
    SingularJacobian outcome on SPD input indicates a numerical defect
    rather than an expected failure mode.  The singular flag is judged
    only on a fresh factor of Q_AA, at the scale max|Q_AA|.  On convergence
    the report's solution solves the piecewise linear equation, and its
    positive part is the QP minimizer.
    """
    opts = opts if opts is not None else SolverOptions()
    minus_b = -q.b_tilde
    # (pattern, active set and LU factors) of the last fresh Q_AA factor, when
    # |A| >= REUSE_MIN_SIZE; None otherwise
    held: Optional[tuple[SignPattern, np.ndarray, LuFactors]] = None

    def solve_active(bits: SignPattern, a: np.ndarray, rows: np.ndarray) -> Optional[np.ndarray]:
        nonlocal held
        if held is not None:
            # k = |D| + |E| >= 1: the iteration never steps twice from one pattern
            k = np.count_nonzero(bits != held[0])
            if REUSE_RATIO * k <= held[1].size:
                x_a = _bordered_solve(q, minus_b, bits, a, rows, held)
                if x_a is not None:
                    return x_a
        held = None  # never two factors alive at once
        # Q_AA is exactly symmetric: its transpose is the column-major copy getrf wants
        f = pwls.lu_factor(rows.take(a, axis=1).T)
        if f.singular:
            return None
        if a.size >= REUSE_MIN_SIZE:
            held = (bits, a, f)
        return pwls.lu_solve(f, minus_b.take(a))

    def step(bits: SignPattern) -> Optional[np.ndarray]:
        a = bits.nonzero()[0]
        rows = q.Q.take(a, axis=0)
        x_a = solve_active(bits, a, rows) if a.size else minus_b[a]
        if x_a is None:
            return None
        # Q is exactly symmetric, so x_A @ Q[A] is Q[:, A] x_A
        x = minus_b - x_a @ rows
        x[a] = x_a
        return x

    return _iterate_patterns(
        x0,
        q.b_tilde,
        opts,
        step=step,
        residual_of=lambda x: _qp_residual(q, x),
    )


def kkt_residual(q: QpProblem, x) -> KktResidual:
    x = as_vector(x, "x", q.n)
    gradient = q.Q @ x + q.b_tilde
    return KktResidual(
        primal_violation=float(np.abs(np.minimum(x, 0.0)).max()),
        dual_violation=float(np.abs(np.minimum(gradient, 0.0)).max()),
        complementarity=float(abs(gradient @ x)),
    )


def qp_objective(q: QpProblem, x) -> float:
    x = as_vector(x, "x", q.n)
    return float(0.5 * x @ (q.Q @ x) + x @ q.b_tilde + q.c)


def qp_to_pwls(q: QpProblem) -> PwlsProblem:
    """Rewrite the QP equation in T/b form: T = [Q - I]^-1, b = -T b_tilde.

    Only valid when Q - I is nonsingular (no eigenvalue of Q equals 1);
    otherwise EquivalenceUnavailableError is raised and callers should use
    qp_newton_solve directly, which needs no inverse.
    """
    f = lu_factor(q.Q - np.eye(q.n))
    if f.singular:
        raise EquivalenceUnavailableError("Q - I is singular; the T/b form does not exist")
    T = lu_solve(f, np.eye(q.n))
    return PwlsProblem(T=T, b=-(T @ q.b_tilde))


def check_qp_conditions(q: QpProblem) -> ConditionReport:
    """Same diagnostics as the T/b form, driven by ||Q - I||.

    Under the T = [Q - I]^-1 equivalence, ||T^-1|| equals ||Q - I||, so
    the report's fields keep their meaning.
    """
    return ConditionReport(spectral_norm(q.Q - np.eye(q.n)))


def cone_instance_to_qp(ci: ConeInstance) -> QpProblem:
    """QP whose minimizer v satisfies projection(z) = A v."""
    return QpProblem(Q=ci.A.T @ ci.A, b_tilde=-(ci.A.T @ ci.z), c=0.5 * float(ci.z @ ci.z))


def cone_projection(
    ci: ConeInstance, x0=None, opts: Optional[SolverOptions] = None
) -> ConeProjectionResult:
    """Project z onto the simplicial cone {A x : x >= 0}.

    Solves the associated QP by the Newton iteration (from the origin
    unless x0 is given) and returns the cone coefficients v, the projected
    point A v, and the solve report.  Non-convergence is reported through
    the report's status; v is then the positive part of the last iterate.
    """
    q = cone_instance_to_qp(ci)
    start = np.zeros(ci.n) if x0 is None else as_vector(x0, "x0")
    report = qp_newton_solve(q, start, opts)
    v = np.maximum(report.last_iterate, 0.0)
    return ConeProjectionResult(v=v, projection=ci.A @ v, report=report)

