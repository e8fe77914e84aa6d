"""Dense linear algebra kernels used by every solver module.

LU factorization with partial pivoting and a scale-invariant singularity
flag (LAPACK's getrf and getrs, called directly), the spectral norm and
the inverse's spectral norm from the singular values (LAPACK's gesdd via
scipy), and a symmetric eigendecomposition with eigenvalues sorted
descending.

All functions are pure: they never mutate their arguments and keep no
shared state, so concurrent calls on distinct inputs need no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import AsymmetricMatrixError, DimensionError, SingularMatrixError

# Pivots below PIVOT_RTOL * max|M| mark the factorization singular.
PIVOT_RTOL = 1e-12
# Largest tolerated relative asymmetry max|S - S^T| / max|S| in sym_eig.
SYM_RTOL = 1e-12


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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must contain only finite values")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


@dataclass
class LuFactors:
    """PM = LU factors in LAPACK's combined storage.

    ``piv`` holds the successive row interchanges as returned by getrf:
    row i was swapped with row piv[i].  When ``singular`` is set, no solve
    may be performed with the factors.
    """

    lu: np.ndarray
    piv: np.ndarray
    singular: bool

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def lu_factor(m) -> LuFactors:
    """Factor a square matrix as PM = LU with partial pivoting.

    The singular flag is set when any pivot falls below
    PIVOT_RTOL * max|M|, which catches the exactly singular sign-pattern
    matrices produced by the enumerator without tripping on scale.
    """
    m = as_square_matrix(m)
    # getrf completes on singular input (info > 0) and leaves a zero pivot in U
    lu, piv, info = dgetrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    scale = float(np.abs(m).max())
    pivots = np.abs(np.diag(lu))
    singular = scale == 0.0 or bool((pivots < PIVOT_RTOL * scale).any())
    return LuFactors(lu=lu, piv=piv, singular=singular)


def lu_solve(f: LuFactors, rhs) -> np.ndarray:
    """Solve Mx = rhs from LU factors."""
    if f.singular:
        raise SingularMatrixError("cannot solve with singular LU factors")
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != f.n:
        raise DimensionError(f"right-hand side has length {b.shape[0]}, expected {f.n}")
    x, info = dgetrs(f.lu, f.piv, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def lu_inverse(f: LuFactors) -> np.ndarray:
    """Explicitly form M^-1 by solving against the identity."""
    return lu_solve(f, np.eye(f.n))


def spectral_norm(m) -> float:
    """||M||, the largest singular value of M."""
    return float(sla.svdvals(as_matrix(m), check_finite=False)[0])


def inv_spectral_norm(m) -> float:
    """||M^-1||, the reciprocal of the smallest singular value of M.

    Raises SingularMatrixError exactly where lu_factor flags M singular,
    so the norm is defined wherever an LU solve with M is allowed.
    """
    m = as_square_matrix(m)
    if lu_factor(m).singular:
        raise SingularMatrixError("matrix is singular; ||M^-1|| is undefined")
    return float(1.0 / sla.svdvals(m, check_finite=False)[-1])


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition S = W diag(lam) W^T of a symmetric matrix.

    Returns eigenvalues sorted descending and the orthogonal matrix W
    whose columns are the matching eigenvectors.
    """
    s = as_square_matrix(s, "symmetric matrix")
    scale = float(np.abs(s).max())
    if scale > 0.0 and float(np.abs(s - s.T).max()) > SYM_RTOL * scale:
        raise AsymmetricMatrixError("matrix exceeds the symmetry tolerance")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (s + s.T))
    return eigvals[::-1].copy(), eigvecs[:, ::-1].copy()
