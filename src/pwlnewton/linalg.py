"""Dense linear algebra kernels used by every solver module.

One factor entry point, factor, which factors and solves in one LAPACK
call: LU with partial pivoting and a scale-invariant singularity flag
(gesv), or a Cholesky factorization of the QP step's SPD matrices (posv);
its Factor solves again by getrs or potrs.  Also the spectral norm and
||M^-1|| from the singular values (gesdd), and every module's input checks.

factor overwrites m; every other function is pure.  None keeps shared
state, so concurrent calls on distinct inputs need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgesv, dgetrs, dposv, dpotrs

from .errors import DimensionError

# Pivots below PIVOT_RTOL * max|M| mark an LU factorization singular, and
# Jacobi-scaled pivots L_jj^2 / M_jj below it a Cholesky factorization.
PIVOT_RTOL = 1e-12


def as_vector(x, name: str = "vector", n: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, of length n when n is given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    # exact, as argmin finds a False if there is one; isfinite(v).all() took 1.3 us
    # at n = 50 against 0.6 us, and a v.dot(v) check warns on huge finite entries
    finite = np.isfinite(v)
    if not finite[finite.argmin()]:
        raise ValueError(f"{name} must contain only finite values")
    if n is not None and v.size != n:
        raise DimensionError(f"{name} has length {v.size}, expected {n}")
    return v


def finite_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, non-empty 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not math.isfinite(float(np.abs(m).max())):  # NaN or inf exactly when some entry is
        raise ValueError(f"{name} must contain only finite values")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    m = finite_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


@dataclass(slots=True)
class Factor:
    """PM = LU factors in LAPACK's combined storage, or a Cholesky factor.

    ``piv`` holds the successive row interchanges as returned by gesv:
    row i was swapped with row piv[i].  The SPD branch of factor stores
    instead the lower triangle of M = L L^T, as returned by posv, in
    ``lu``, with ``piv`` None.  When ``singular`` is set, no solve may be
    performed with the factor.  ``solve`` solves a further right-hand side
    with the kernel that matches the factor (getrs, or potrs when ``piv``
    is None), and checks neither the flag nor the right-hand side.
    """

    lu: np.ndarray
    piv: Optional[np.ndarray]
    singular: bool

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        cholesky = self.piv is None
        x, info = dpotrs(self.lu, rhs, lower=1) if cholesky else dgetrs(self.lu, self.piv, rhs)
        if info < 0:
            kernel = "potrs" if cholesky else "getrs"
            raise ValueError(f"illegal value in argument {-info} of {kernel}")
        return x


def factor(m: np.ndarray, rhs: np.ndarray, scale: Optional[float] = None,
           spd: bool = False) -> tuple[Factor, np.ndarray]:
    """Factor a square float64 M that the library built from checked data, and solve M X = rhs.

    Returns the factor and X, flagged singular or not, and leaves what a
    flag or a failed Cholesky factorization means to the caller.
    One call to gesv (posv with ``spd``), byte for byte getrf then getrs (potrf
    then potrs); X is void when M is flagged singular.  For the flag alone pass
    a zero vector: OpenBLAS's gesv does not factor when rhs has no columns.
    m is scratch, factored in place when F-contiguous; rhs is never written.

    By default M = P L U with partial pivoting, flagged singular when any
    pivot falls below PIVOT_RTOL * max|M|.  The rule must flag the exactly
    singular pattern matrices that the Newton path meets, which rounding
    can leave slightly nonsingular, without tripping on scale (pinned by
    test_singular_pattern_matrix_ends_singular_jacobian_as_fresh).  A
    caller whose M is a difference of larger terms passes their size as
    ``scale``, and pivots are then judged against the larger of the two,
    so that a cancellation to rounding level is flagged too.  The pivot
    test is one fmin over |diag U|; fmin skips NaN as a per-pivot < would,
    so a NaN pivot neither sets the flag nor hides a tiny one.  One abs-max
    pass is both the rule's scale and the finite check.

    With ``spd``, M must be symmetric (posv reads its lower triangle only,
    the faster variant in OpenBLAS from order 50 up) and is meant to be
    positive definite.  When posv completes, M = L L^T is returned, flagged
    singular when min_j L_jj (L_jj / M_jj) < PIVOT_RTOL, an O(m) test on
    the Jacobi-scaled matrix that no M -> D M D (diagonal D > 0) changes and
    that cannot overflow.  A NaN or inf that posv reads makes it fail or
    reaches L's diagonal, whose argmax (a NaN, if any) is the finite check;
    argmax and argmin cost less than a ufunc reduce on small diagonals.
    When posv fails, M is not positive definite.  posv has overwritten its
    lower triangle, so M is rebuilt from the strict upper triangle, which
    posv never writes, and the diagonal saved before, and the LU branch's
    factors and X are returned, ``piv`` not None: unflagged, they show M
    nonsingular and indefinite.
    """
    if spd:
        m_diagonal = m.diagonal().copy()
        c, x, info = dposv(m, rhs, lower=1, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of posv")
        if info == 0:
            c_diagonal = c.diagonal()
            if not math.isfinite(c_diagonal[c_diagonal.argmax()]):  # inf / inf warns in ratios
                raise ValueError("matrix must contain only finite values")
            ratios = c_diagonal / m_diagonal * c_diagonal
            return Factor(c, None, float(ratios[ratios.argmin()]) < PIVOT_RTOL), x
        np.copyto(m, m.T, where=np.tri(len(m), k=-1, dtype=bool))  # lower from strict upper
        np.fill_diagonal(m, m_diagonal)
        return factor(m, rhs, scale)
    size = float(np.abs(m).max())  # NaN or inf exactly when some entry is
    if not math.isfinite(size):
        raise ValueError("matrix must contain only finite values")
    scale = size if scale is None else max(size, scale)
    # gesv factors singular input too (info > 0), leaving a zero pivot in U
    lu, piv, x, info = dgesv(m, rhs, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gesv")
    smallest = np.fmin.reduce(np.abs(lu.diagonal()))  # NaN only if every pivot is
    return Factor(lu, piv, scale == 0.0 or bool(smallest < PIVOT_RTOL * scale)), x


def spectral_norm(m) -> float:
    """||M||, the largest singular value of M."""
    return float(sla.svdvals(finite_matrix(m), check_finite=False)[0])


def inv_spectral_norm(m) -> float:
    """||M^-1||, the reciprocal of the smallest singular value of M.

    It is inf where factor flags M singular, so the norm is finite exactly
    where an LU solve with M is allowed.
    """
    m = as_square_matrix(m)
    # factor gets a copy to overwrite, since svdvals reads m next
    if factor(m.copy(order="F"), np.zeros(m.shape[0]))[0].singular:
        return math.inf
    return float(1.0 / sla.svdvals(m, check_finite=False)[-1])
