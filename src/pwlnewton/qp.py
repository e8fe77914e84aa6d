"""Nonnegative quadratic programming via the piecewise linear system.

minimize 1/2 x^T Q x + x^T b_tilde over x >= 0, with Q symmetric
positive definite.  The optimality conditions reduce to the piecewise
linear equation [Q - I] x+ + x = -b_tilde, solved here by the same
pattern-driven Newton iteration as the T/b form, with each step reduced
to the active set; the QP solution is then the positive part of the
equation's solution.

Projection onto a simplicial cone {A x : x >= 0} is the special case
Q = A^T A, b_tilde = -A^T z, and is exposed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf

# every step factors through pwls.lu_factor, which also solves (a Cholesky with
# spd=True), and solves with a held factor through pwls.lu_solve, both looked up
# at call time as in the T/b step, so that one wrapper on pwls sees every step
from . import pwls
from .errors import EquivalenceUnavailableError, NotPositiveDefiniteError, SingularMatrixError
from .linalg import as_square_matrix, as_vector, factor, spectral_norm
from .pwls import (
    ConditionReport,
    PwlsProblem,
    SignPattern,
    SolveReport,
    SolverOptions,
    _iterate_patterns,
)

@dataclass
class QpProblem:
    """QP data (Q, b_tilde); an asymmetric Q is replaced by (Q + Q^T)/2.

    Symmetrizing loses nothing (the quadratic form is unchanged) and makes
    downstream symmetry assumptions unconditional.  An exactly symmetric Q
    is copied bit for bit instead (halving could round a subnormal entry).
    Positive definiteness is deliberately not checked here; call
    is_positive_definite when the guarantee matters (it costs one Cholesky
    factorization of Q).
    """

    Q: np.ndarray
    b_tilde: np.ndarray

    def __post_init__(self):
        q = as_square_matrix(self.Q, "Q")
        # halving each term first cannot overflow on finite input
        self.Q = q.copy() if np.array_equal(q, q.T) else 0.5 * q + 0.5 * q.T
        self.b_tilde = as_vector(self.b_tilde, "b_tilde", self.Q.shape[0])

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
        # factor gets a copy to overwrite: self.A may be the caller's array
        if factor(self.A.copy(order="F"), np.zeros(self.n))[0].singular:
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


class ConeProjectionResult(NamedTuple):
    v: np.ndarray
    projection: np.ndarray
    report: SolveReport
    kkt: KktResidual  # of v, on the QP that the projection solved


def _minus_identity(Q: np.ndarray) -> np.ndarray:
    """Q - I, byte for byte Q - np.eye(n), as a copy of Q less 1 on its diagonal."""
    m = Q.copy()
    m.ravel()[:: m.shape[0] + 1] -= 1.0  # m is a fresh C-ordered copy, so this is its diagonal
    return m


def _qp_residual(q: QpProblem, x: np.ndarray) -> np.ndarray:
    """Residual [Q - I] x+ + x + b_tilde of the QP equation at a checked x."""
    xp = np.maximum(x, 0.0)
    r = q.Q.dot(xp)  # then in place, in the left-to-right order of Q xp - xp + x + b_tilde
    r -= xp
    r += x
    r += q.b_tilde
    return r


def qp_newton_solve(q: QpProblem, x0, opts: Optional[SolverOptions] = None) -> SolveReport:
    """Newton iteration x_{k+1} = -([Q - I] diag(s_k) + I)^-1 b_tilde.

    Each step is solved on the active set A = {i : s_i = 1} only.  With
    the columns permuted so that A comes first, the step matrix is
    [[Q_AA, 0], [Q_IA, I]], so the step is Q_AA x_A = -b_tilde_A followed
    by x_I = -b_tilde_I - Q_IA x_A: one factorization of size |A| and one
    mat-vec, and x_{k+1} = -b_tilde with nothing factored when A is empty.
    This is the primal-dual active-set form of the semi-smooth Newton step.

    A fresh step factors Q_AA, of order |A|, by Cholesky and solves in one
    LAPACK call (posv), and holds (f, A, Q[A], x_A): its factor, the rows
    and the solution.  A bordered step from the held active set P, with
    D = P - A (indices that left) and E = A - P (indices that joined),
    reads x_A off [[Q_PP, B], [B^T, G]] [x_P; z] = [-b_P; g], where
    B = [Q_PE | unit columns at D], G = diag(Q_EE, 0) and g = (-b_E, 0):
    the unit rows pin x_D = 0 and the unit columns free the D equations,
    whose right-hand side then moves only z_D, so x_P off D and z_E = x_E
    solve the step.  With y the held x_P and Q_PP = L L^T, one triangular
    solve with the held factor gives W = L^-1 B, whose exactly symmetric
    W^T W = B^T Q_PP^-1 B leaves the k x k capacitance system (W^T W - G) z
    = B^T y - g, k = |D| + |E|, and one more gives x_P = y - L^-T (W z).
    That system is symmetric but indefinite when D is non-empty, so it is
    factored by LU, judged at the size of W^T W as in newton_solve.  The lift
    then reads the held rows Q[P], with x_D set to its exact 0, and gathers
    only Q[E]: x = -b_tilde - x_P Q[P] - x_E Q[E].

    Shares all termination and cycle machinery with the T/b solver.  The
    determinant of the step matrix equals det Q_AA, so for symmetric
    positive definite Q the step is provably nonsingular.  Only a fresh
    factor Q_AA = L L^T is judged singular, when min_j L_jj^2 / (Q_AA)_jj
    < 1e-12: no diagonal scaling of Q changes that test.  Where the
    Cholesky factorization fails, factor hands back Q_AA's LU factors, and
    their pivot rule (pivots against max|Q_AA|) decides: a singular Q_AA
    ends the run as SingularJacobian, and for a nonsingular, hence
    indefinite, one the fresh step raises NotPositiveDefiniteError.
    A bordered step first certifies Q_AA by a Cholesky factorization of the
    Schur complement of Q_PP in Q_{P+E}, and where that fails steps afresh.

    On convergence the report's solution solves the piecewise linear
    equation, and its positive part is a KKT point of the QP: the minimizer
    when all of Q is positive definite (QpProblem.is_positive_definite).
    Every step's Q_AA is certified, so an indefinite Q ends Converged or
    ConvergedExact only when every Q_AA the run visits is positive definite.

    In exact arithmetic the pattern trace is invariant under Q -> a D Q D,
    b_tilde -> a D b_tilde (a > 0, D positive diagonal): from x0 / D on
    x0's positive entries and a D x0 elsewhere, each iterate x maps to
    x_A / D_A on its active set and a D_I x_I off it.  The residual rule
    is not scale invariant, so it may stop the two runs at different steps.
    """
    minus_b = -q.b_tilde

    def fresh(bits: SignPattern) -> Optional[tuple[np.ndarray, int, Optional[tuple]]]:
        a = bits.nonzero()[0]
        if not a.size:
            return minus_b.copy(), 0, None
        rows = q.Q.take(a, axis=0)
        # Q_AA is exactly symmetric: its transpose is the column-major copy posv wants
        f, x_a = pwls.lu_factor(rows.take(a, axis=1).T, minus_b.take(a), spd=True)
        if f.singular:
            return None
        if f.piv is not None:  # posv failed, and LU found Q_AA nonsingular
            raise NotPositiveDefiniteError(
                "symmetric matrix is nonsingular and not positive definite")
        # Q is exactly symmetric, so x_A @ Q[A] is Q[:, A] x_A
        x = minus_b - x_a.dot(rows)
        x[a] = x_a
        return x, a.size, (f, a, rows, x_a)

    def bordered(bits: SignPattern, held: SignPattern, state: tuple) -> Optional[np.ndarray]:
        f, p, rows, y = state
        e = (bits & ~held).nonzero()[0]
        kept = bits.take(p)
        d = (~kept).nonzero()[0]  # positions of D in P
        ne = e.size
        k = ne + d.size
        q_e = q.Q.take(e, axis=0)
        q_ep = q_e.take(p, axis=1)  # Q is exactly symmetric, so this is Q_PE's transpose
        border = np.zeros((p.size, k), order="F")
        border[:, :ne] = q_ep.T
        border[d, np.arange(ne, k)] = 1.0
        w = pwls.lu_solve(f, border)  # L^-1 B, with Q_PP = L L^T
        cap = w.T.dot(w)  # B^T Q_PP^-1 B, exactly symmetric, less G next
        size = float(np.abs(cap).max())
        cap[:ne, :ne] -= q_e.take(e, axis=1)
        # minus the Schur complement S of the positive definite Q_PP in Q_{P+E},
        # which is positive definite exactly when S is, and then so is Q_AA in it
        if ne and dpotrf(-cap[:ne, :ne], lower=1, clean=0)[1]:
            return None
        f_cap, z = pwls.lu_factor(cap, np.concatenate((q_ep.dot(y) - minus_b.take(e), y.take(d))),
                                  size)
        if f_cap.singular:
            return None
        x_p = y - pwls.lu_solve(f, w.dot(z), trans=True)  # fresh, unlike the held rows and y
        x_e = z[:ne]
        x_p[d] = 0.0
        x = minus_b - x_p.dot(rows) - x_e.dot(q_e)
        x[p[kept]] = x_p[kept]
        x[e] = x_e
        return x

    return _iterate_patterns(x0, q.b_tilde, opts, fresh, bordered,
                             residual_of=lambda x: _qp_residual(q, x))


def kkt_residual(q: QpProblem, x) -> KktResidual:
    x = as_vector(x, "x", q.n)
    gradient = q.Q @ x + q.b_tilde
    # |<gradient, x>| in power-of-two units: the scalings are exact, so the
    # product rounds as unscaled, and only a value past the largest float is inf
    e_g = math.frexp(float(np.abs(gradient).max()))[1]
    e_x = math.frexp(float(np.abs(x).max()))[1]
    scaled = float(abs(np.ldexp(gradient, -e_g) @ np.ldexp(x, -e_x)))
    try:
        complementarity = math.ldexp(scaled, e_g + e_x)
    except OverflowError:
        complementarity = math.inf
    return KktResidual(
        primal_violation=float(np.abs(np.minimum(x, 0.0)).max()),
        dual_violation=float(np.abs(np.minimum(gradient, 0.0)).max()),
        complementarity=complementarity,
    )


def qp_to_pwls(q: QpProblem) -> PwlsProblem:
    """Rewrite the QP equation in T/b form: T = [Q - I]^-1, b = -T b_tilde.

    Only valid when Q - I is nonsingular (no eigenvalue of Q equals 1);
    otherwise EquivalenceUnavailableError is raised and callers should use
    qp_newton_solve directly, which needs no inverse.  Q - I is factored as
    factor's spd branch factors it: by Cholesky (posv) where it is positive
    definite, inverted by potri, and by LU elsewhere, inverted against the
    identity and symmetrized as 1/2 T + 1/2 T^T.  Either way T is exactly
    symmetric and column-major, so newton_solve factors its steps by
    Cholesky.
    """
    # Q - I is exactly symmetric: its transpose is the column-major copy posv wants
    f, _ = factor(_minus_identity(q.Q).T, np.zeros(q.n), spd=True)
    if f.singular:
        raise EquivalenceUnavailableError("Q - I is singular; the T/b form does not exist")
    T = f.inverse()
    if f.piv is not None:
        half = 0.5 * T
        np.add(half, half.T, out=T)
    return PwlsProblem(T=T, b=-(T @ q.b_tilde))


def check_qp_conditions(q: QpProblem) -> ConditionReport:
    """Same diagnostics as the T/b form, driven by ||Q - I||.

    Under the T = [Q - I]^-1 equivalence, ||T^-1|| equals ||Q - I||, so
    the report's fields keep their meaning.
    """
    return ConditionReport(spectral_norm(_minus_identity(q.Q)))


def cone_instance_to_qp(ci: ConeInstance) -> QpProblem:
    """QP whose minimizer v satisfies projection(z) = A v."""
    return QpProblem(Q=ci.A.T @ ci.A, b_tilde=-(ci.A.T @ ci.z))


def cone_projection(
    ci: ConeInstance, x0=None, opts: Optional[SolverOptions] = None
) -> ConeProjectionResult:
    """Project z onto the simplicial cone {A x : x >= 0}.

    Solves the associated QP by the Newton iteration (from the origin
    unless x0 is given) and returns the cone coefficients v, the projected
    point A v, the solve report, and v's KKT residual on that QP.
    Non-convergence is reported through the report's status; v is then
    the positive part of the last iterate.
    """
    q = cone_instance_to_qp(ci)
    report = qp_newton_solve(q, np.zeros(ci.n) if x0 is None else x0, opts)
    v = np.maximum(report.last_iterate, 0.0)
    return ConeProjectionResult(v=v, projection=ci.A @ v, report=report, kkt=kkt_residual(q, v))

