"""Dense linear algebra kernels used by every solver module.

LU factorization with partial pivoting and a scale-invariant singularity
flag (LAPACK's getrf and getrs, called directly), and the spectral norm
and the inverse's spectral norm from the singular values (LAPACK's gesdd
via scipy).

All functions are pure: they never mutate their arguments and keep no
shared state, so concurrent calls on distinct inputs need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import DimensionError, SingularMatrixError

# Pivots below PIVOT_RTOL * max|M| mark the factorization singular.
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


def finite_matrix(a, name: str = "matrix") -> tuple[np.ndarray, float]:
    """Coerce to a finite 2-D float64 array; return it with its scale max|a|."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    scale = float(np.abs(m).max())  # NaN or inf exactly when some entry is
    if not math.isfinite(scale):
        raise ValueError(f"{name} must contain only finite values")
    return m, scale


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    return _require_square(finite_matrix(a, name)[0], name)


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


def lu_factor(m, scale: Optional[float] = None) -> LuFactors:
    """Factor a square matrix as PM = LU with partial pivoting.

    The singular flag is set when any pivot falls below
    PIVOT_RTOL * max|M|.  The rule must flag the exactly singular pattern
    matrices that the Newton path meets, which rounding can leave slightly
    nonsingular, without tripping on scale (pinned by
    test_singular_pattern_matrix_ends_singular_jacobian_as_fresh).  A
    caller whose M is a difference of larger terms passes their size as
    ``scale``, and pivots are then judged against the larger of the two,
    so that a cancellation to rounding level is flagged too.  The finite
    check on M and max|M| come from one pass over M.  The pivot test is
    one fmin over |diag U|; fmin skips NaN as a per-pivot < would, so a
    NaN pivot neither sets the flag nor hides a tiny one.
    """
    m, size = finite_matrix(m)
    _require_square(m, "matrix")
    scale = size if scale is None else max(size, scale)
    # getrf completes on singular input (info > 0) and leaves a zero pivot in U
    lu, piv, info = dgetrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    smallest = np.fmin.reduce(np.abs(lu.diagonal()))  # NaN only if every pivot is
    singular = scale == 0.0 or bool(smallest < PIVOT_RTOL * scale)
    return LuFactors(lu=lu, piv=piv, singular=singular)


def lu_solve(f: LuFactors, rhs) -> np.ndarray:
    """Solve Mx = rhs from LU factors."""
    if f.singular:
        raise SingularMatrixError("cannot solve with singular LU factors")
    b = np.asarray(rhs, dtype=float)
    if not 1 <= b.ndim <= 2:
        raise DimensionError(f"right-hand side must be 1-D or 2-D, got shape {b.shape}")
    if b.shape[0] != f.n:
        raise DimensionError(f"right-hand side has length {b.shape[0]}, expected {f.n}")
    x, info = dgetrs(f.lu, f.piv, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def spectral_norm(m) -> float:
    """||M||, the largest singular value of M."""
    return float(sla.svdvals(finite_matrix(m)[0], check_finite=False)[0])


def inv_spectral_norm(m) -> float:
    """||M^-1||, the reciprocal of the smallest singular value of M.

    Raises SingularMatrixError exactly where lu_factor flags M singular,
    so the norm is defined wherever an LU solve with M is allowed.
    """
    m = as_square_matrix(m)
    if lu_factor(m).singular:
        raise SingularMatrixError("matrix is singular; ||M^-1|| is undefined")
    return float(1.0 / sla.svdvals(m, check_finite=False)[-1])
