import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf

from pwlnewton import (
    AsymmetricMatrixError,
    DimensionError,
    SingularMatrixError,
    inv_spectral_norm,
    lu_factor,
    lu_inverse,
    lu_solve,
    spectral_norm,
    sym_eig,
)
from pwlnewton import linalg
from pwlnewton.linalg import as_vector


def sigma_max_2x2(m):
    """Closed-form largest singular value of a 2x2 matrix."""
    g = np.asarray(m, float).T @ np.asarray(m, float)
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return math.sqrt((tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0)


# ---------------------------------------------------------------- LU


def test_lu_identity():
    f = lu_factor(np.eye(3))
    assert not f.singular
    assert np.array_equal(f.piv, [0, 1, 2])
    assert np.array_equal(f.lu, np.eye(3))


def test_lu_row_swap_not_singular():
    f = lu_factor([[0.0, 1.0], [1.0, 0.0]])
    assert not f.singular
    assert f.piv[0] == 1


def test_lu_singular_flag_on_zero_pivot():
    # diag(0, 2) arises as diag(1,1) + diag(-1,1): an exactly singular pattern
    f = lu_factor(np.diag([0.0, 2.0]))
    assert f.singular
    with pytest.raises(SingularMatrixError):
        lu_solve(f, [1.0, 1.0])


def test_lu_zero_matrix_is_singular():
    assert lu_factor(np.zeros((3, 3))).singular


def test_lu_kernels_match_scipy_bit_for_bit():
    # getrf/getrs are called directly; scipy's lu_factor/lu_solve wrap the
    # same LAPACK routines, so factors and solutions agree bit for bit
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 50):
        for grading in (np.ones(n), np.logspace(-4, 4, n)):
            m = rng.standard_normal((n, n)) * grading[:, np.newaxis]
            f = lu_factor(m)
            lu, piv = sla.lu_factor(m)
            assert not f.singular
            assert np.array_equal(f.lu, lu)
            assert np.array_equal(f.piv, piv) and f.piv.dtype == piv.dtype
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                x = lu_solve(f, rhs)
                assert x.shape == rhs.shape
                assert np.array_equal(x, sla.lu_solve((lu, piv), rhs))
            assert np.array_equal(lu_inverse(f), sla.lu_solve((lu, piv), np.eye(n)))


def test_lu_exactly_singular_matches_scipy():
    # rows 0 and 1 are proportional, so getrf meets an exact zero pivot
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
    assert dgetrf(m)[2] > 0
    with pytest.warns(sla.LinAlgWarning):
        lu, piv = sla.lu_factor(m)
    f = lu_factor(m)
    assert f.singular
    assert np.array_equal(f.lu, lu) and np.array_equal(f.piv, piv)


def test_lu_kernels_raise_on_illegal_lapack_argument(monkeypatch):
    # LAPACK reports a bad argument as info < 0; scipy raises ValueError too
    f = lu_factor(np.eye(2))
    monkeypatch.setattr(linalg, "dgetrf", lambda m: (m, np.zeros(2, np.int32), -1))
    with pytest.raises(ValueError, match="argument 1 of getrf"):
        lu_factor(np.eye(2))
    monkeypatch.setattr(linalg, "dgetrs", lambda lu, piv, b: (b, -3))
    with pytest.raises(ValueError, match="argument 3 of getrs"):
        lu_solve(f, [1.0, 1.0])


def test_lu_solve_identity():
    f = lu_factor(np.eye(2))
    assert np.array_equal(lu_solve(f, [5.0, -2.0]), [5.0, -2.0])


def test_lu_solve_2x2_closed_form():
    # verified by substitution: [[-1,3],[-1,1]] @ [2,-1] = [-5,-3]
    x = lu_solve(lu_factor([[-1.0, 3.0], [-1.0, 1.0]]), [-5.0, -3.0])
    np.testing.assert_allclose(x, [2.0, -1.0], rtol=0, atol=1e-14)


def test_lu_solve_residual_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        rhs = rng.standard_normal(8)
        x = lu_solve(lu_factor(m), rhs)
        assert np.abs(m @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_lu_solve_residual_graded_conditioning():
    # planted solutions across condition numbers up to 1e6
    rng = np.random.default_rng(43)
    for exponent in (2, 4, 6):
        u, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        m = (u * np.logspace(0, -exponent, 10)[np.newaxis, :]) @ v.T
        x_true = rng.standard_normal(10)
        rhs = m @ x_true
        x = lu_solve(lu_factor(m), rhs)
        assert np.abs(m @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_lu_rejects_non_square():
    with pytest.raises(DimensionError):
        lu_factor(np.ones((2, 3)))


def test_lu_rejects_nan():
    with pytest.raises(ValueError):
        lu_factor([[np.nan, 0.0], [0.0, 1.0]])


def test_as_vector_rejects_wrong_length():
    with pytest.raises(DimensionError, match=r"b has length 2, expected 3"):
        as_vector([1.0, 2.0], "b", 3)


def test_lu_solve_rejects_wrong_length():
    f = lu_factor(np.eye(3))
    with pytest.raises(DimensionError):
        lu_solve(f, [1.0, 2.0])


def test_lu_inverse():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(lu_inverse(lu_factor(m)) @ m, np.eye(2), atol=1e-14)


# ------------------------------------------------------- spectral norm


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0, rel=1e-8)
    assert spectral_norm([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx(2.0, rel=1e-8)


def test_spectral_norm_2x2_closed_form():
    m = [[1.0, -3.0], [1.0, -2.0]]
    value = spectral_norm(m)
    assert value == pytest.approx(sigma_max_2x2(m), rel=1e-8)
    assert abs(value - 3.8644) <= 1e-3


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_transpose_and_scaling_invariants():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        s = spectral_norm(m)
        assert spectral_norm(m.T) == pytest.approx(s, rel=1e-12)
        assert spectral_norm(-2.5 * m) == pytest.approx(2.5 * s, rel=1e-12)


def test_spectral_norm_near_tied_singular_values():
    # the two largest singular values differ by 1e-4 relative
    assert spectral_norm(np.diag([1.0, 1.0001])) == 1.0001


# --------------------------------------------------- inverse spectral norm


def test_inv_spectral_norm_diagonal():
    assert inv_spectral_norm(3.0 * np.eye(4)) == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert inv_spectral_norm(np.diag([-1.0, 1.0])) == pytest.approx(1.0, rel=1e-8)


def test_inv_spectral_norm_2x2():
    t = np.array([[-2.0, 3.0], [-1.0, 1.0]])
    t_inv = np.array([[1.0, -3.0], [1.0, -2.0]])  # det(T) = 1
    value = inv_spectral_norm(t)
    assert value == pytest.approx(sigma_max_2x2(t_inv), rel=1e-8)
    assert abs(value - 3.8644) <= 1e-3


def test_inv_spectral_norm_near_tied_singular_values():
    assert inv_spectral_norm(np.diag([1.0, 1.0 / 1.0001])) == pytest.approx(1.0001, rel=1e-12)


def test_inv_spectral_norm_singular():
    with pytest.raises(SingularMatrixError):
        inv_spectral_norm(np.diag([0.0, 1.0]))


def test_inv_spectral_norm_matches_smallest_singular_value():
    rng = np.random.default_rng(15)
    for n in (3, 8, 20):
        m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        eigenvalues, _ = sym_eig(m.T @ m)
        sigma_min = math.sqrt(eigenvalues[-1])
        assert inv_spectral_norm(m) * sigma_min == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------ sym_eig


def test_sym_eig_identity():
    eigenvalues, w = sym_eig(np.eye(3))
    np.testing.assert_allclose(eigenvalues, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(np.abs(w @ w.T), np.eye(3), atol=1e-12)


def test_sym_eig_diagonal_sorted_descending():
    eigenvalues, w = sym_eig(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(eigenvalues, [4.0, 1.0])
    # eigenvectors are the coordinate axes up to sign
    np.testing.assert_allclose(np.abs(w), np.eye(2), atol=1e-12)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(23)
    b = rng.standard_normal((10, 10))
    s = b.T @ b
    eigenvalues, w = sym_eig(s)
    assert np.all(np.diff(eigenvalues) <= 0)
    reconstruction = (w * eigenvalues[np.newaxis, :]) @ w.T
    assert np.abs(reconstruction - s).max() <= 1e-8 * np.abs(s).max()
    assert np.abs(w.T @ w - np.eye(10)).max() <= 1e-9


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrixError):
        sym_eig([[1.0, 2.0], [0.0, 1.0]])


def test_sym_eig_accepts_roundoff_asymmetry():
    s = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
    eigenvalues, _ = sym_eig(s)
    np.testing.assert_allclose(eigenvalues, [3.0, 1.0], rtol=1e-12)
