"""Dense linear algebra kernels used by every solver module.

One factor entry point, factor: LU with partial pivoting and a
scale-invariant singularity flag (LAPACK's getrf and getrs, called
directly), or a Cholesky factorization of the QP step's symmetric
positive definite matrices (potrf and potrs).  Also the spectral norm and
the inverse's spectral norm from the singular values (LAPACK's gesdd via
scipy), and the input checks every module uses.

All functions are pure: they never mutate their arguments and keep no
shared state, so concurrent calls on distinct inputs need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs

from .errors import DimensionError, NotPositiveDefiniteError, SingularMatrixError

# Pivots below PIVOT_RTOL * max|M| mark an LU factorization singular, and
# Jacobi-scaled pivots L_jj^2 / M_jj below it a Cholesky factorization.
PIVOT_RTOL = 1e-12


def as_vector(x, name: str = "vector", n: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, of length n when n is given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    if not np.isfinite(v).all():
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

    ``piv`` holds the successive row interchanges as returned by getrf:
    row i was swapped with row piv[i].  The SPD branch of factor stores
    instead the lower triangle of M = L L^T, as returned by potrf, in
    ``lu``, with ``piv`` None.  When ``singular`` is set, no solve may be
    performed with the factor.  ``solve`` calls the kernel that matches
    the factor (getrs, or potrs when ``piv`` is None), and checks neither
    the flag nor the right-hand side.
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


def factor(m: np.ndarray, scale: Optional[float] = None, spd: bool = False) -> Factor:
    """Factor a square float64 M that the library built from checked data.

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

    With ``spd``, M must be symmetric (potrf reads its lower triangle only,
    the faster variant in OpenBLAS from order 50 up) and is meant to be
    positive definite.  When potrf completes, M = L L^T is returned,
    flagged singular when some L_jj^2 / M_jj < PIVOT_RTOL: a test on the
    Jacobi-scaled matrix, unchanged by M -> D M D for diagonal D > 0, and
    O(m).  So is its finite check, on L's diagonal: a NaN or inf that
    potrf reads makes it fail or propagates into the L_jj after it.
    When potrf fails, M is not positive definite and the LU branch decides:
    its factors are returned when they are flagged singular, and
    NotPositiveDefiniteError is raised when they are not, since M is then
    nonsingular and indefinite.
    """
    if spd:
        c, info = dpotrf(m, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if info == 0:
            c_diagonal = c.diagonal()
            if not math.isfinite(float(c_diagonal.max())):  # NaN or inf exactly when one is
                raise ValueError("matrix must contain only finite values")
            pivots = np.square(c_diagonal)
            return Factor(c, None, bool((pivots < PIVOT_RTOL * m.diagonal()).any()))
        f = factor(m, scale)
        if not f.singular:
            raise NotPositiveDefiniteError(
                "symmetric matrix is nonsingular and not positive definite")
        return f
    size = float(np.abs(m).max())  # NaN or inf exactly when some entry is
    if not math.isfinite(size):
        raise ValueError("matrix must contain only finite values")
    scale = size if scale is None else max(size, scale)
    # getrf completes on singular input (info > 0) and leaves a zero pivot in U
    lu, piv, info = dgetrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    smallest = np.fmin.reduce(np.abs(lu.diagonal()))  # NaN only if every pivot is
    return Factor(lu, piv, scale == 0.0 or bool(smallest < PIVOT_RTOL * scale))


def spectral_norm(m) -> float:
    """||M||, the largest singular value of M."""
    return float(sla.svdvals(finite_matrix(m), check_finite=False)[0])


def inv_spectral_norm(m) -> float:
    """||M^-1||, the reciprocal of the smallest singular value of M.

    Raises SingularMatrixError exactly where factor flags M singular, so
    the norm is defined wherever an LU solve with M is allowed.
    """
    m = as_square_matrix(m)
    if factor(m).singular:
        raise SingularMatrixError("matrix is singular; ||M^-1|| is undefined")
    return float(1.0 / sla.svdvals(m, check_finite=False)[-1])
