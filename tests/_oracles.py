"""Oracles for the solver's claims, written on numpy, scipy and the standard
library alone.

They share no code with the Newton path (tests/test_source.py checks that
this module imports nothing from pwlnewton), so a fault in the solver's
factorization or pattern-matrix helpers cannot pass its own oracle:

- enumerate_solutions: brute force over all 2^n sign patterns;
- fixed_point: the contraction x <- T^-1 (b - x+), valid when ||T^-1|| < 1;
- definite_sign_rows and finite_termination_holds: the definite-sign
  hypothesis under which the Newton iteration terminates finitely.
"""

import itertools
import math

import numpy as np
import scipy.linalg as sla

# entries within ZERO_RTOL * max|M| of zero count as zero for both signs
ZERO_RTOL = 1e-14


def _patterns(n):
    """All 2^n sign patterns of length n as bool arrays, all-False first."""
    return map(np.array, itertools.product((False, True), repeat=n))


def enumerate_solutions(t, b):
    """(solutions, singular patterns) of x+ + Tx = b over all 2^n patterns.

    Pattern s contributes the solution x of [diag(s) + T] x = b when x > 0
    exactly where s is True (x_i = 0 is consistent only with s_i False).
    A pattern whose matrix np.linalg.solve finds singular (LinAlgError,
    an exactly zero pivot) is collected instead, as a bool array: it can
    hide an affine family of solutions.
    """
    solutions, singular = [], []
    for s in _patterns(len(b)):
        try:
            x = np.linalg.solve(t + np.diag(s), b)
        except np.linalg.LinAlgError:
            singular.append(s)
            continue
        if np.array_equal(x > 0.0, s):
            solutions.append(x)
    return solutions, singular


def fixed_point(t, b, x0, tol, max_iter):
    """Iterate x <- T^-1 (b - x+) from x0 until a step is at most tol long.

    Returns the last iterate, or None when max_iter steps never got there.
    Raises ValueError unless ||T^-1|| = 1 / sigma_min(T) < 1, where the
    map is a contraction with the unique solution as its fixed point.
    """
    sigma_min = float(np.linalg.svd(t, compute_uv=False)[-1])
    if sigma_min <= 1.0:
        inv_norm = 1.0 / sigma_min if sigma_min > 0.0 else math.inf
        raise ValueError(f"||T^-1|| = {inv_norm!r} is not below 1; the map is not a contraction")
    factors = sla.lu_factor(t)
    x = np.asarray(x0, dtype=float)
    for _ in range(max_iter):
        x_new = sla.lu_solve(factors, b - np.maximum(x, 0.0))
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    return None


def definite_sign_rows(m):
    """(i_plus, i_minus) when every row of m has definite sign, else None.

    A row has definite sign when its entries are all >= 0 or all <= 0,
    where entries within ZERO_RTOL * max|m| of zero count as zero for
    both signs.  The index sets are tuples of 0-based row indices, and an
    all-zero row goes to i_plus.
    """
    m = np.asarray(m, dtype=float)
    threshold = ZERO_RTOL * np.abs(m).max()
    has_pos = (m > threshold).any(axis=1)
    has_neg = (m < -threshold).any(axis=1)
    if (has_pos & has_neg).any():
        return None
    return tuple(np.flatnonzero(~has_neg).tolist()), tuple(np.flatnonzero(has_neg).tolist())


def finite_termination_holds(t):
    """True iff [diag(s) + T]^-1 exists and has rows of definite sign for
    every one of the 2^n patterns s.

    Under this hypothesis the Newton iteration terminates in finitely many
    steps at the unique solution, and each coordinate of its iterates moves
    monotonically.  np.linalg.inv raising LinAlgError marks a singular
    pattern matrix.
    """
    for s in _patterns(len(t)):
        try:
            inverse = np.linalg.inv(t + np.diag(s))
        except np.linalg.LinAlgError:
            return False
        if definite_sign_rows(inverse) is None:
            return False
    return True
