import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf, dposv, dpotrf, dpotrs, dtrtrs

from pwlnewton import (
    DimensionError,
    inv_spectral_norm,
    spectral_norm,
)
from _random_problems import EXTREME_FINITE_VECTORS, non_finite_vectors

from pwlnewton import linalg
from pwlnewton.gen import sym_eig
from pwlnewton.linalg import PIVOT_RTOL, SPLIT_MIN_ORDER, as_vector, factor


def sigma_max_2x2(m):
    """Closed-form largest singular value of a 2x2 matrix."""
    g = np.asarray(m, float).T @ np.asarray(m, float)
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return math.sqrt((tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0)


def factor_of(m, scale=None, spd=False):
    """The factor alone, solved against a zero vector as the flag-only callers do."""
    m = np.asarray(m, dtype=float)
    return factor(m, np.zeros(m.shape[0]), scale, spd)[0]


# ---------------------------------------------------------------- LU


def test_lu_identity():
    f = factor_of(np.eye(3))
    assert not f.singular
    assert np.array_equal(f.piv, [0, 1, 2])
    assert np.array_equal(f.lu, np.eye(3))


def test_lu_row_swap_not_singular():
    f = factor_of([[0.0, 1.0], [1.0, 0.0]])
    assert not f.singular
    assert f.piv[0] == 1


def test_lu_singular_flag_on_zero_pivot():
    # diag(0, 2) arises as diag(1,1) + diag(-1,1): an exactly singular pattern
    assert factor_of(np.diag([0.0, 2.0])).singular


def test_lu_zero_matrix_is_singular():
    assert factor_of(np.zeros((3, 3))).singular


def strided_copy(m):
    """A copy of m as a strided submatrix view, neither C- nor F-contiguous."""
    n = m.shape[0]
    view = np.zeros((n + 1, 2 * n))[1:, ::2]
    view[...] = m
    return view


def test_lu_kernels_match_scipy_bit_for_bit():
    # gesv is called directly and equals getrf then getrs, which scipy's
    # lu_factor/lu_solve wrap, so factors and solutions agree bit for bit;
    # same for C- and F-ordered input and for a strided submatrix view, for
    # vector and matrix right-hand sides, and for the identity that forms
    # M^-1.  A held factor's solve is getrs too.  factor may overwrite its
    # matrix, so each call gets its own copy, in the layout under test.
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 50, 99):
        for grading in (np.ones(n), np.logspace(-4, 4, n)):
            m = rng.standard_normal((n, n)) * grading[:, np.newaxis]
            for layout in (np.array, np.asfortranarray, strided_copy):
                lu, piv = sla.lu_factor(layout(m))
                for rhs in (rng.standard_normal(n), rng.standard_normal((n, 12)), np.eye(n)):
                    f, x = factor(layout(m), rhs)
                    assert not f.singular
                    assert f.lu.tobytes() == lu.tobytes()
                    assert np.array_equal(f.piv, piv) and f.piv.dtype == piv.dtype
                    assert x.shape == rhs.shape
                    assert x.tobytes() == sla.lu_solve((lu, piv), rhs).tobytes()
                    assert f.solve(rhs).tobytes() == x.tobytes()


def spd_matrix(rng, n):
    g = rng.standard_normal((n, n))
    return np.asfortranarray(g @ g.T + np.eye(n))


def test_spd_kernels_match_potrf_then_potrs_bit_for_bit():
    # below SPLIT_MIN_ORDER the Cholesky branch is one posv, which is potrf
    # then potrs byte for byte, as gesv is getrf then getrs above: factor,
    # solution and flag.  posv factors each call's own copy of m in place.
    rng = np.random.default_rng(46)
    for n in (1, 3, 25, 64, SPLIT_MIN_ORDER - 1):
        m = spd_matrix(rng, n)
        c, _ = dpotrf(m, lower=1, clean=0)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 12))):
            f, x = factor(m.copy(order="F"), rhs, spd=True)
            c_posv, x_posv, _ = dposv(m, rhs, lower=1)
            assert f.lu.tobytes() == c.tobytes() == c_posv.tobytes() and f.piv is None
            assert x.tobytes() == dpotrs(c, rhs, lower=1)[0].tobytes() == x_posv.tobytes()
            assert f.singular is bool((np.square(c.diagonal()) < PIVOT_RTOL * m.diagonal()).any())


def test_spd_kernels_from_the_split_order_match_potrf_then_trtrs_bit_for_bit():
    # from SPLIT_MIN_ORDER up the Cholesky branch is potrf, then trtrs with L
    # and with L^T, the kernel a held factor solves with; a flagged factor
    # skips both solves
    rng = np.random.default_rng(49)
    for n in (SPLIT_MIN_ORDER, SPLIT_MIN_ORDER + 1, 130, 200):
        m = spd_matrix(rng, n)
        c, _ = dpotrf(m, lower=1, clean=0)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 12))):
            f, x = factor(m.copy(order="F"), rhs, spd=True)
            assert f.lu.tobytes() == c.tobytes() and f.piv is None and not f.singular
            y = dtrtrs(c, rhs, lower=1)[0]
            assert x.shape == rhs.shape
            assert x.tobytes() == dtrtrs(c, y, lower=1, trans=1)[0].tobytes()
        # [[1, 1], [1, 1 + 1e-14]] on indices 0 and n - 1: L_nn^2 / M_nn is about 1e-14
        m = np.eye(n, order="F")
        m[0, -1] = m[-1, 0] = 1.0
        m[-1, -1] += 1e-14
        f, x = factor(m, rng.standard_normal(n), spd=True)
        assert f.piv is None and f.singular and x is None


@pytest.mark.parametrize("spd", [False, True])
def test_flag_alone_comes_from_a_zero_vector_right_hand_side(spd):
    # ConeInstance and inv_spectral_norm want the flag alone and pass a zero
    # vector, since OpenBLAS's gesv does not factor against zero columns:
    # the factor and flag are those of any other right-hand side
    rng = np.random.default_rng(47)
    g = rng.standard_normal((6, 6))
    singular = np.ones((6, 6))
    for m in ((g @ g.T if spd else g), singular):
        f0 = factor(m, np.zeros(6), spd=spd)[0]
        assert f0.singular is (m is singular)
        for rhs in (rng.standard_normal(6), rng.standard_normal((6, 3))):
            f = factor(m, rhs, spd=spd)[0]
            assert f.lu.tobytes() == f0.lu.tobytes() and f.singular is f0.singular


def test_lu_exactly_singular_matches_scipy():
    # rows 0 and 1 are proportional, so getrf meets an exact zero pivot
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
    assert dgetrf(m)[2] > 0
    with pytest.warns(sla.LinAlgWarning):
        lu, piv = sla.lu_factor(m)
    f = factor_of(m)
    assert f.singular
    assert np.array_equal(f.lu, lu) and np.array_equal(f.piv, piv)


def test_lu_kernels_raise_on_illegal_lapack_argument(monkeypatch):
    # LAPACK reports a bad argument as info < 0; scipy raises ValueError too
    f = factor_of(np.eye(2))
    monkeypatch.setattr(linalg, "dgesv",
                        lambda m, b, overwrite_a: (m, np.zeros(2, np.int32), b, -1))
    with pytest.raises(ValueError, match="argument 1 of gesv"):
        factor_of(np.eye(2))
    monkeypatch.setattr(linalg, "dgetrs", lambda lu, piv, b, trans: (b, -3))
    with pytest.raises(ValueError, match="argument 3 of getrs"):
        f.solve(np.ones(2))
    with pytest.raises(ValueError, match="argument 3 of getrs"):
        f.inverse()


@pytest.mark.parametrize("pivots, singular", [
    ([np.nan, 1e-13], True),
    ([1e-13, np.nan], True),
    ([np.nan, 0.5], False),
    ([0.5, np.nan], False),
])
def test_lu_pivot_flag_skips_nan_pivots(monkeypatch, pivots, singular):
    # a NaN pivot neither sets nor hides the flag; a pivot below
    # PIVOT_RTOL * max|M| (here 1e-12) sets it
    lu = np.diag(pivots)
    monkeypatch.setattr(linalg, "dgesv",
                        lambda m, b, overwrite_a: (lu, np.zeros(2, np.int32), b, 0))
    assert factor_of(np.eye(2)).singular is singular


def test_lu_solve_identity():
    assert np.array_equal(factor(np.eye(2), np.array([5.0, -2.0]))[1], [5.0, -2.0])


def test_lu_solve_2x2_closed_form():
    # verified by substitution: [[-1,3],[-1,1]] @ [2,-1] = [-5,-3]
    x = factor(np.array([[-1.0, 3.0], [-1.0, 1.0]]), np.array([-5.0, -3.0]))[1]
    np.testing.assert_allclose(x, [2.0, -1.0], rtol=0, atol=1e-14)


def test_lu_solve_residual_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        rhs = rng.standard_normal(8)
        x = factor(m, rhs)[1]
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
        x = factor(m, rhs)[1]
        assert np.abs(m @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_lu_rejects_nan():
    # the finite check is the first thing factor does, before gesv reads M
    for bad in (np.nan, np.inf, -np.inf):
        for m in ([[bad, 0.0], [0.0, 1.0]], [[1.0, 0.0, bad], [0.0, 1.0, 0.0]]):
            with pytest.raises(ValueError, match="matrix must contain only finite values"):
                factor_of(m)


def test_factor_core_rejects_non_finite_matrix():
    # the one abs-max pass that scales the pivot rule is also the finite check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="matrix must contain only finite values"):
            factor_of([[bad, 0.0], [0.0, 1.0]], scale=1.0)


def test_spd_factor_is_a_cholesky_that_solves_with_potrs():
    # a held Cholesky factor solves with L alone; L then L^T solve with M
    rng = np.random.default_rng(45)
    g = rng.standard_normal((7, 7))
    m = g @ g.T + np.eye(7)
    before = m.copy()
    rhs = rng.standard_normal((7, 3))
    for b in (rhs, rhs[:, 0]):
        f, x = factor(m, b, spd=True)
        assert f.piv is None and not f.singular
        np.testing.assert_allclose(np.tril(f.lu) @ np.tril(f.lu).T, m, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(m @ x, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.solve(f.solve(b), trans=True), x, rtol=0, atol=1e-12)
    assert m.tobytes() == before.tobytes()


@pytest.mark.parametrize("delta, singular", [(1e-14, True), (1e-10, False)])
def test_spd_singular_flag_is_jacobi_scaled(delta, singular):
    # L_22^2 / M_22 is about delta whatever the diagonal scaling D M D, where
    # the LU rule judges pivots against max|M|: it flags D M D for the
    # well-conditioned M = I, D = diag(1e7, 1e-7)
    m = np.array([[1.0, 1.0], [1.0, 1.0 + delta]])
    for d in ([1.0, 1.0], [1e6, 1e-3], [1e-3, 1e6], [1e7, 1e-7]):
        scaled = np.outer(d, d) * m
        assert factor_of(scaled, spd=True).singular is singular
        assert factor_of(np.diag(np.square(d)), spd=True).singular is False
    assert factor_of(np.diag([1e14, 1e-14])).singular is True


def assert_spd_factor_is_the_unflagged_lu_of(m, rhs):
    """factor(m, rhs, spd=True) returns scipy's LU factors and solution of m, unflagged."""
    f, x = factor(np.asfortranarray(m), rhs, spd=True)
    assert f.piv is not None and f.singular is False
    lu, piv = sla.lu_factor(m)
    assert f.lu.tobytes() == lu.tobytes() and f.piv.tobytes() == piv.tobytes()
    assert x.tobytes() == sla.lu_solve((lu, piv), rhs).tobytes()


def test_spd_factor_lets_the_lu_rule_decide_where_cholesky_fails():
    # exactly singular: the LU factors come back flagged
    f = factor_of(np.ones((2, 2)), spd=True)
    assert f.piv is not None and f.singular
    # nonsingular and indefinite: the LU factors and solution come back
    # unflagged, and the caller decides what an indefinite M means
    for m in ([[1.0, 3.0], [3.0, 1.0]], [[-1.0, 0.0], [0.0, 2.0]]):
        assert_spd_factor_is_the_unflagged_lu_of(np.array(m), np.array([1.0, -2.0]))


def test_spd_factor_rejects_non_finite_matrix():
    # lower-triangle entries, the part posv and potrf read: a non-finite one
    # makes the factorization fail, and the LU branch's check catches it, or
    # reaches L's diagonal, checked before any solve
    n = SPLIT_MIN_ORDER
    for order, positions in ((2, ((0, 0), (0, 1), (1, 1))),
                             (n, ((0, 0), (1, 0), (n - 1, 0), (n - 1, n - 2), (n - 1, n - 1)))):
        for bad in (np.nan, np.inf, -np.inf):
            for i, j in positions:
                m = np.eye(order)
                m[i, j] = m[j, i] = bad
                with pytest.raises(ValueError, match="matrix must contain only finite values"):
                    factor_of(m, spd=True)


def test_spd_kernels_raise_on_illegal_lapack_argument(monkeypatch):
    f = factor_of(np.eye(2), spd=True)
    monkeypatch.setattr(linalg, "dposv", lambda m, b, lower, overwrite_a: (m, b, -1))
    with pytest.raises(ValueError, match="argument 1 of posv"):
        factor_of(np.eye(2), spd=True)
    monkeypatch.setattr(linalg, "dpotrf", lambda m, lower, clean, overwrite_a: (m, -1))
    with pytest.raises(ValueError, match="argument 1 of potrf"):
        factor_of(np.eye(SPLIT_MIN_ORDER), spd=True)
    monkeypatch.setattr(linalg, "dtrtrs", lambda c, b, lower, trans: (b, -2))
    with pytest.raises(ValueError, match="argument 2 of trtrs"):
        f.solve(np.ones(2))
    monkeypatch.setattr(linalg, "dpotri", lambda c, lower: (c, -1))
    with pytest.raises(ValueError, match="argument 1 of potri"):
        f.inverse()


def test_factor_leaves_its_right_hand_side_untouched():
    # m is scratch, rhs is not: neither branch writes into it, in any layout,
    # nor does the SPD branch when its factorization fails and the LU branch
    # decides, or when it solves with the triangle from SPLIT_MIN_ORDER up
    rng = np.random.default_rng(44)
    g = rng.standard_normal((6, 6))
    cases = [(g, False), (np.diag([0.0, 2.0]), False), (g @ g.T + np.eye(6), True),
             (np.ones((6, 6)), True), (spd_matrix(rng, SPLIT_MIN_ORDER), True)]
    for m, spd in cases:
        n = m.shape[0]
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                    np.asfortranarray(rng.standard_normal((n, 3)))):
            before = rhs.tobytes()
            factor(np.asfortranarray(m), rhs, spd=spd)
            assert rhs.tobytes() == before


def assert_spd_fallback_factors_the_matrix_it_was_given(rng, n):
    """Where the Cholesky branch fails at column n, the LU branch gets M back."""
    g = rng.standard_normal((n - 1, n - 1))
    m = np.zeros((n, n))
    m[:-1, :-1] = g @ g.T + np.eye(n - 1)
    # exactly singular: the LU factors of the original come back, flagged
    with pytest.warns(sla.LinAlgWarning):
        lu, piv = sla.lu_factor(m)
    f, _ = factor(np.asfortranarray(m), np.zeros(n), spd=True)
    assert f.singular and f.lu.tobytes() == lu.tobytes() and np.array_equal(f.piv, piv)
    # nonsingular and indefinite: the LU factors and solution of the original
    m[-1, -1] = -1.0
    m[0, -1] = m[-1, 0] = 0.5
    assert_spd_factor_is_the_unflagged_lu_of(m, rng.standard_normal(n))


def test_spd_fallback_factors_the_matrix_posv_was_given():
    # posv writes L over the lower triangle as it goes.  At order 70 a blocked
    # potrf has written L into columns 1 to 69 when it fails at column 70, so
    # the LU branch must see M rebuilt, not the matrix posv left behind.
    assert_spd_fallback_factors_the_matrix_it_was_given(np.random.default_rng(48), 70)


def test_spd_fallback_from_the_split_order_factors_the_matrix_potrf_was_given():
    # the same from SPLIT_MIN_ORDER up, where potrf runs alone: it must leave
    # the strict upper triangle, the rebuild's source, unwritten (clean=0)
    assert_spd_fallback_factors_the_matrix_it_was_given(np.random.default_rng(50), 130)


def test_as_vector_rejects_non_vector_input():
    for bad in ([[1.0, 2.0]], np.zeros((2, 2)), [], 3.0):
        message = f"x must be a non-empty 1-D array, got shape {np.shape(bad)}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            as_vector(bad, "x")


def test_as_vector_rejects_wrong_length():
    with pytest.raises(DimensionError, match=r"b has length 2, expected 3"):
        as_vector([1.0, 2.0], "b", 3)


@pytest.mark.parametrize("v", non_finite_vectors())
def test_as_vector_rejects_every_non_finite_entry(v):
    for given in (v, v.tolist()):
        with pytest.raises(ValueError, match="^x must contain only finite values$"):
            as_vector(given, "x")


@pytest.mark.parametrize("v", EXTREME_FINITE_VECTORS)
def test_as_vector_accepts_the_finite_extremes_without_a_warning(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_vector(v).tobytes() == v.tobytes()


def test_dot_and_matmul_agree_byte_for_byte_on_the_step_shapes():
    # the Newton path multiplies with ndarray.dot where its iterates were once
    # computed with @; both reach the same BLAS call today, and a numpy whose
    # dispatch differs would move iterates, so it fails here instead
    rng = np.random.default_rng(29)
    empty = np.empty(0)
    for m in range(1, 301):
        square = rng.standard_normal((m, m))  # T or Q, and the lift's rows
        v = rng.standard_normal(m)
        pairs = [(v, v), (square, v), (v, square), (empty, np.empty((0, m)))]
        for k in range(1, 13):
            rows = rng.standard_normal((k, m))  # a gathered Q_EP or Q[E]
            solved = np.asfortranarray(rng.standard_normal((m, k)))  # a getrs/trtrs output
            z = rng.standard_normal(k)
            pairs += [(solved, z), (z, rows), (rows, solved), (rows, v), (solved.T, solved)]
        for a, b in pairs:
            assert a.dot(b).tobytes() == (a @ b).tobytes(), (a.shape, b.shape, m)


@pytest.mark.parametrize("trans", [False, True])
def test_cholesky_factor_solves_with_its_triangle_as_scipy_does(trans):
    # a held Cholesky factor solves with L, or L^T, alone: scipy's
    # solve_triangular byte for byte, for vector and matrix right-hand
    # sides in either layout, which it leaves untouched
    rng = np.random.default_rng(51)
    for n in (1, 3, 25, 64, 99, 150):
        g = rng.standard_normal((n, n))
        m = g @ g.T + np.eye(n)
        f = factor_of(m, spd=True)
        assert f.piv is None and not f.singular
        triangle = np.tril(f.lu).T if trans else np.tril(f.lu)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 8)),
                    np.asfortranarray(rng.standard_normal((n, 8)))):
            before = rhs.tobytes()
            x = f.solve(rhs, trans=trans)
            expected = sla.solve_triangular(f.lu, rhs, trans=int(trans), lower=True)
            assert x.tobytes() == expected.tobytes()
            np.testing.assert_allclose(triangle @ x, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())
            assert rhs.tobytes() == before


@pytest.mark.parametrize("n", [1, 2, 7, 50, 100, 150])
def test_cholesky_inverse_is_exactly_symmetric_and_matches_numpy(n):
    # potri's lower triangle, mirrored: exactly symmetric and column-major,
    # within n cond(M) eps of numpy's LU inverse, and the factor is kept
    rng = np.random.default_rng(52 + n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (u * np.logspace(0, -6, n)) @ u.T
    f = factor_of(m, spd=True)
    assert f.piv is None and not f.singular
    held = f.lu.tobytes()
    inverse = f.inverse()
    assert inverse.flags.f_contiguous and np.array_equal(inverse, inverse.T)
    expected = np.linalg.inv(m)
    bound = n * np.linalg.cond(m) * np.finfo(float).eps * np.abs(expected).max()
    assert np.abs(inverse - expected).max() <= bound
    assert f.lu.tobytes() == held


def test_lu_inverse():
    # an LU factor's inverse, that of a nonsymmetric M or of a symmetric
    # indefinite one where posv fails, is getrs against I: scipy's
    # lu_solve(lu_factor(M), I) byte for byte, and column-major.  From order
    # 100 up a threaded getrf may round otherwise than gesv against one
    # column, so there the oracle solves with the factor that gesv gave.
    rng = np.random.default_rng(53)
    for n in (1, 2, 7, 50, 99, 150):
        g = rng.standard_normal((n, n))
        indefinite = 0.5 * g + 0.5 * g.T
        indefinite[0, 0] = -abs(indefinite[0, 0]) - 1.0
        for m, spd in ((g, False), (indefinite, True)):
            f = factor_of(m, spd=spd)
            assert f.piv is not None and not f.singular
            inverse = f.inverse()
            lu = sla.lu_factor(m) if n < 100 else (f.lu, f.piv)
            assert inverse.tobytes() == sla.lu_solve(lu, np.eye(n)).tobytes()
            assert inverse.flags.f_contiguous


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
    # inf, with no warning, wherever factor flags M singular: exactly singular
    # matrices, and one the LU pivot rule flags at the scale of max|M|
    for m in (np.diag([0.0, 1.0]), np.ones((3, 3)), np.diag([1e14, 1e-14])):
        assert factor_of(m).singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inv_spectral_norm(m) == math.inf


def test_inv_spectral_norm_matches_smallest_singular_value():
    rng = np.random.default_rng(15)
    for n in (3, 8, 20):
        m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        sigma_min = math.sqrt(np.linalg.eigvalsh(m.T @ m)[0])
        assert inv_spectral_norm(m) * sigma_min == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------ sym_eig


def largest_eigenvalue(s):
    """The outside oracle: numpy's full symmetric eigenvalue solver."""
    return np.linalg.eigvalsh(s)[-1]


def test_sym_eig_identity():
    assert largest_eigenvalue(np.eye(3)) == pytest.approx(1.0, rel=1e-15)
    assert sym_eig(np.eye(3)) == pytest.approx(largest_eigenvalue(np.eye(3)), rel=1e-15)


def test_sym_eig_diagonal_largest():
    s = np.diag([1.0, 4.0])
    assert largest_eigenvalue(s) == pytest.approx(4.0, rel=1e-15)
    assert sym_eig(s) == pytest.approx(largest_eigenvalue(s), rel=1e-15)


def test_sym_eig_random_gram():
    rng = np.random.default_rng(23)
    b = rng.standard_normal((10, 10))
    s = b.T @ b
    assert sym_eig(s) == pytest.approx(largest_eigenvalue(s), rel=1e-12)


def test_sym_eig_one_by_one():
    s = np.array([[2.5]])
    assert sym_eig(s) == largest_eigenvalue(s) == 2.5
