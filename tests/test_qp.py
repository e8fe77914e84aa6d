import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls
from _oracles import qp_objective
from _random_problems import qp_scale, spd_near_identity, spy_on, worst_violation

from pwlnewton import (
    ConeInstance,
    DimensionError,
    EquivalenceUnavailableError,
    GeneratorConfig,
    NotPositiveDefiniteError,
    QpProblem,
    SingularMatrixError,
    SolveStatus,
    SolverOptions,
    check_qp_conditions,
    cone_instance_to_qp,
    cone_projection,
    kkt_residual,
    make_batch,
    make_spd_matrix,
    newton_solve,
    qp_newton_solve,
    qp_to_pwls,
    sign_pattern,
)
from pwlnewton import pwls, qp
from pwlnewton.linalg import factor
from pwlnewton.pwls import REUSE_MIN_SIZE
from pwlnewton.qp import _minus_identity, _qp_residual


def scalar_problem():
    # 0.2 x+ + x = 2.4 has the positive-branch solution x = 2
    return QpProblem(Q=[[1.2]], b_tilde=[-2.4])


def planted_qp(n, beta, rng):
    q_matrix = spd_near_identity(n, beta, rng)
    x_star = rng.standard_normal(n)
    b_tilde = -((q_matrix - np.eye(n)) @ np.maximum(x_star, 0.0) + x_star)
    return QpProblem(Q=q_matrix, b_tilde=b_tilde), x_star


# ----------------------------------------------------------- problem type


def test_qp_problem_symmetrizes():
    q = QpProblem(Q=[[2.0, 1.0], [0.0, 2.0]], b_tilde=[0.0, 0.0])
    np.testing.assert_array_equal(q.Q, [[2.0, 0.5], [0.5, 2.0]])
    assert q.is_positive_definite()


def test_qp_problem_symmetrizes_huge_entries_without_overflow():
    # q + q.T overflows here although the average is finite
    big = 1.7e308
    q = QpProblem(Q=[[big, 1.0], [1.0, big]], b_tilde=[-1.0, -1.0])
    np.testing.assert_array_equal(q.Q, [[big, 1.0], [1.0, big]])
    assert qp_newton_solve(q, np.zeros(2)).status is SolveStatus.CONVERGED_EXACT
    asymmetric = QpProblem(Q=[[big, big], [-big, big]], b_tilde=[0.0, 0.0])
    np.testing.assert_array_equal(asymmetric.Q, [[big, 0.0], [0.0, big]])


def test_qp_problem_symmetrization_is_exact_average():
    # halving before adding rounds exactly as (Q + Q^T)/2 away from subnormals
    rng = np.random.default_rng(26)
    for _ in range(20):
        m = rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-200, 200)
        np.testing.assert_array_equal(QpProblem(Q=m, b_tilde=np.ones(7)).Q, 0.5 * (m + m.T))


def test_qp_problem_keeps_symmetric_q_bits():
    # halving would round the smallest subnormal to zero; a symmetric Q is copied as it is
    rng = np.random.default_rng(27)
    m = rng.standard_normal((6, 6))
    symmetric = np.triu(m) + np.triu(m, 1).T
    symmetric[0, 1] = symmetric[1, 0] = 5e-324
    q = QpProblem(Q=symmetric, b_tilde=np.ones(6))
    assert q.Q.tobytes() == symmetric.tobytes() and not np.shares_memory(q.Q, symmetric)
    np.testing.assert_array_equal(QpProblem(Q=m, b_tilde=np.ones(6)).Q, 0.5 * (m + m.T))


def test_qp_problem_not_positive_definite():
    q = QpProblem(Q=[[1.0, 0.0], [0.0, -1.0]], b_tilde=[0.0, 0.0])
    assert not q.is_positive_definite()
    # semidefinite: eigenvalues 2 and 0, so Cholesky meets a zero pivot
    q = QpProblem(Q=[[1.0, 1.0], [1.0, 1.0]], b_tilde=[0.0, 0.0])
    assert not q.is_positive_definite()


def test_is_positive_definite_agrees_with_eigh():
    # spectra kept at least 0.1 away from 0, where rounding cannot tip the verdict
    rng = np.random.default_rng(23)
    verdicts = []
    for n in (1, 2, 5, 20, 50):
        for _ in range(10):
            w, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = rng.uniform(0.1, 10.0, n) * rng.choice([-1.0, 1.0, 1.0, 1.0], n)
            q = QpProblem(Q=(w * lam) @ w.T, b_tilde=np.zeros(n))
            expected = bool(np.linalg.eigh(q.Q)[0][0] > 0.0)
            assert q.is_positive_definite() == expected
            verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_cone_instance_rejects_singular_a():
    with pytest.raises(SingularMatrixError):
        ConeInstance(A=[[1.0, 1.0], [1.0, 1.0]], z=[1.0, 0.0])


@pytest.mark.xfail(strict=True, raises=SingularMatrixError,
                   reason="ROADMAP item 3: the pivot rule judges against max|A|, so a "
                          "nonsingular diagonal A with scaled columns is refused")
def test_cone_instance_accepts_a_badly_scaled_nonsingular_a():
    ConeInstance(A=np.diag([1e13, 1.0]), z=[1.0, 1.0])


TWO_BY_TWO = QpProblem(Q=np.eye(2), b_tilde=[1.0, -1.0])


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: QpProblem(Q=np.eye(2), b_tilde=[1.0, 2.0, 3.0]), "b_tilde",
                 id="QpProblem"),
    pytest.param(lambda: ConeInstance(A=np.eye(2), z=[1.0]), "z", id="ConeInstance"),
    pytest.param(lambda: kkt_residual(TWO_BY_TWO, [1.0]), "x", id="kkt_residual"),
])
def test_wrong_length_vector_is_rejected(call, name):
    with pytest.raises(DimensionError, match=rf"^{name} has length"):
        call()


# ----------------------------------------------------------- newton solve


def test_qp_identity_one_iteration():
    rng = np.random.default_rng(0)
    b_tilde = rng.standard_normal(5)
    report = qp_newton_solve(QpProblem(Q=np.eye(5), b_tilde=b_tilde), np.zeros(5))
    assert report.converged
    assert report.iterations == 1
    np.testing.assert_array_equal(report.solution, -b_tilde)


def test_overflowing_iterate_raises_from_the_library():
    # Q is SPD and passes the pivot rule; the second step's x_2 = 1e311 overflows
    q = QpProblem(Q=[[1.0, 0.0], [0.0, 1e-11]], b_tilde=[-1.0, -1e300])
    with pytest.raises(ValueError) as raised:
        qp_newton_solve(q, np.zeros(2))
    assert raised.value.args == ("Newton iterate 2 is not finite (the step overflowed)",)


def test_qp_scalar_closed_form():
    report = qp_newton_solve(scalar_problem(), np.zeros(1))
    assert report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_allclose(report.solution, [2.0], atol=1e-14)
    v = np.maximum(report.solution, 0.0)
    np.testing.assert_allclose(v, [2.0], atol=1e-14)
    kkt = kkt_residual(scalar_problem(), v)
    assert worst_violation(kkt) <= 1e-14


def test_qp_contraction_ratio_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        beta = float(rng.uniform(0.05, 0.45))
        q, x_star = planted_qp(n, beta, rng)
        opts = SolverOptions(tol_f=1e-14, keep_iterates=True)
        report = qp_newton_solve(q, 10.0 * rng.standard_normal(n), opts)
        assert report.converged
        bound = beta / (1.0 - beta) + 1e-8
        errors = [np.linalg.norm(x_star - x) for x in report.iterate_trace]
        for e_k, e_next in zip(errors, errors[1:]):
            if e_k > 1e-8:
                assert e_next <= bound * e_k


def test_qp_residual_matches_definition():
    rng = np.random.default_rng(4)
    q, _ = planted_qp(4, 0.3, rng)
    x = rng.standard_normal(4)
    expected = (q.Q - np.eye(4)) @ np.maximum(x, 0.0) + x + q.b_tilde
    np.testing.assert_allclose(_qp_residual(q, x), expected, atol=1e-15)


def test_step_matrix_nonsingular_for_spd_q():
    # the QP step matrix [Q - I] diag(s) + I cannot be singular for SPD Q
    rng = np.random.default_rng(5)
    for _ in range(150):
        n = int(rng.integers(1, 16))
        a = rng.standard_normal((n, n))
        q_matrix = a.T @ a + 0.1 * np.eye(n)
        for _ in range(3):
            bits = rng.integers(0, 2, n)
            m = (q_matrix - np.eye(n)) * bits[np.newaxis, :] + np.eye(n)
            assert not factor(m, np.zeros(n))[0].singular


def spd_with_beta(n, beta, rng):
    """SPD Q with ||Q - I|| = beta; for beta >= 1 its eigenvalues lie in (1, 1 + beta]."""
    if beta < 1.0:
        return spd_near_identity(n, beta, rng)
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = 1.0 + beta * rng.uniform(0.0, 1.0, n)
    eigenvalues[0] = 1.0 + beta
    return (w * eigenvalues[np.newaxis, :]) @ w.T


def dense_step(q, bits):
    """The full n x n Newton step: solve [Q - I] diag(s) + I against -b_tilde."""
    n = q.n
    m = (q.Q - np.eye(n)) * np.asarray(bits, dtype=float)[np.newaxis, :] + np.eye(n)
    return np.linalg.solve(m, -q.b_tilde)


def assert_matches_dense_iteration(q, x0):
    """Each iterate equals the n x n step from the previous pattern, and the
    run stops where the dense iteration first repeats its pattern."""
    # tol_f is the smallest positive double, so in effect only a pattern repeat stops
    opts = SolverOptions(tol_f=5e-324, max_iter=50, keep_iterates=True)
    report = qp_newton_solve(q, x0, opts)
    assert np.array_equal(report.pattern_trace[0], sign_pattern(x0))
    for k in range(1, report.iterations + 1):
        expected = dense_step(q, report.pattern_trace[k - 1])
        scale = 1.0 + np.abs(expected).max()
        np.testing.assert_allclose(report.iterate_trace[k], expected, rtol=0, atol=1e-10 * scale)
        assert np.array_equal(report.pattern_trace[k], sign_pattern(expected))
    # the dense iteration repeats its pattern after as many steps
    patterns = [sign_pattern(x0)]
    for _ in range(opts.max_iter):
        patterns.append(sign_pattern(dense_step(q, patterns[-1])))
        if np.array_equal(patterns[-1], patterns[-2]):
            break
    assert report.status is SolveStatus.CONVERGED_EXACT
    assert report.iterations == len(patterns) - 1
    assert np.array_equal(report.pattern_trace, patterns)
    return report


@pytest.mark.parametrize("beta", [0.3, 5.0, 1e3])
@pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
def test_reduced_step_matches_dense_step(n, beta):
    # the starts give the empty and the full active set, and a random one
    rng = np.random.default_rng(int(1000 * beta) + n)
    q = QpProblem(Q=spd_with_beta(n, beta, rng), b_tilde=rng.standard_normal(n))
    for x0 in (-np.ones(n), np.ones(n), rng.standard_normal(n)):
        assert_matches_dense_iteration(q, x0)


@pytest.mark.parametrize("beta", [0.3, 5.0])
def test_bordered_step_matches_dense_step(beta, monkeypatch):
    # from the solution with two or three signs flipped, the first step
    # factors an active set of at least REUSE_MIN_SIZE afresh, and the next
    # one changes only a few indices, so it reuses that factor
    n = 160
    rng = np.random.default_rng(int(10 * beta))
    # most of the solution is positive, so the active sets hold over 64 indices
    q = QpProblem(Q=spd_with_beta(n, beta, rng), b_tilde=rng.standard_normal(n) - 1.0)
    u = qp_newton_solve(q, np.zeros(n)).solution
    solves = spy_on(monkeypatch, "lu_solve")
    for flips in (2, 3, 3):
        x0 = u.copy()
        flipped = rng.choice(n, flips, replace=False)
        x0[flipped] = -x0[flipped]
        assert np.count_nonzero(x0 > 0) >= REUSE_MIN_SIZE
        del solves[:]
        assert_matches_dense_iteration(q, x0)
        # the reused factor solves against the border and the right-hand side at once
        assert any(np.ndim(args[1]) == 2 for args, _ in solves)


def test_two_bordered_steps_from_one_held_factor(monkeypatch):
    # from the solution with eight signs flipped, the first step factors Q_PP
    # afresh and the next two border from it; each drops indices D = P - A
    # and adds indices E = A - P.  A bordered step that wrote into the held
    # rows Q[P] or the held x_P would throw the second one off the dense step.
    n = 160
    rng = np.random.default_rng(3)
    q = QpProblem(Q=spd_with_beta(n, 0.3, rng), b_tilde=rng.standard_normal(n) - 1.0)
    x0 = qp_newton_solve(q, np.zeros(n)).solution
    flipped = rng.choice(n, 8, replace=False)
    x0[flipped] = -x0[flipped]
    factors = spy_on(monkeypatch, "lu_factor")
    report = assert_matches_dense_iteration(q, x0)
    held, *steps = report.pattern_trace[:3]
    changes = [(np.count_nonzero(held & ~s), np.count_nonzero(s & ~held)) for s in steps]
    assert changes == [(3, 7), (3, 5)]
    # one fresh factor of Q_PP, then one capacitance factor of order |D| + |E| per step
    assert [args[0].shape[0] for args, _ in factors] == [np.count_nonzero(held), 10, 8]


def test_singular_jacobian_only_from_a_fresh_factor(monkeypatch):
    # Q_PP is nonsingular with P = {0, ..., 63}; the first step adds index 69,
    # whose column in Q equals column 0's, so the next Q_AA is exactly
    # singular.  The 1 x 1 capacitance matrix is then 0 up to rounding (minus
    # 4.4e-16, which the certificate lets through) and flagged at the size of
    # its terms, and the fresh factor of Q_AA that follows ends the run as
    # SingularJacobian, as with a fresh factor at every step.
    n, j, k = 70, 0, 69
    q_matrix = np.eye(n)
    q_matrix[np.ix_([j, k], [j, k])] = 2.0
    b_tilde = np.where(np.arange(n) < 64, -1.0, 1.0)
    b_tilde[k] = -2.0
    q = QpProblem(Q=q_matrix, b_tilde=b_tilde)
    x0 = np.where(np.arange(n) < 64, 1.0, -1.0)
    factors = spy_on(monkeypatch, "lu_factor")
    report = qp_newton_solve(q, x0)
    assert [(args[0].shape[0], f.singular) for args, (f, _) in factors] == [
        (64, False), (1, True), (65, True)]
    monkeypatch.setattr(pwls, "REUSE_MIN_SIZE", n + 1)
    fresh = qp_newton_solve(q, x0)
    assert report.status is fresh.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == fresh.iterations == 1


def test_singular_capacitance_falls_back_to_a_fresh_factor(monkeypatch):
    # Q is SPD and Q_PP (P = {0, ..., 63}) holds the block [[1, 1], [1, 1 + 1e-10]]
    # on {0, 1}, so (Q_PP^-1)_00 is about 1e10.  The first step drops index 0 and
    # adds index 69, whose Q_69,69 = 1e-3; the capacitance matrix is then about
    # diag(1e-3, -1e10), flagged singular at the scale of its largest entry,
    # while the new Q_AA is diagonal and far from singular.  The step factors
    # Q_AA afresh and the run goes on.
    n, delta = 70, 1e-10
    q_matrix = np.eye(n)
    q_matrix[np.ix_([0, 1], [0, 1])] = [[1.0, 1.0], [1.0, 1.0 + delta]]
    q_matrix[69, 69] = 1e-3
    b_tilde = np.where(np.arange(n) < 64, -1.0, 1.0)
    b_tilde[[0, 1, 69]] = 1.0, 1.0 - delta / 2, -1.0
    q = QpProblem(Q=q_matrix, b_tilde=b_tilde)
    x0 = np.where(np.arange(n) < 64, 1.0, -1.0)
    factors = spy_on(monkeypatch, "lu_factor")
    report = qp_newton_solve(q, x0)
    # the third step reuses the fresh factor of the second through a 1 x 1 system
    assert [(args[0].shape[0], f.singular) for args, (f, _) in factors] == [
        (64, False), (2, True), (64, False), (1, False)]
    monkeypatch.setattr(pwls, "REUSE_MIN_SIZE", n + 1)
    fresh = qp_newton_solve(q, x0)
    assert report.status is fresh.status is SolveStatus.CONVERGED_EXACT
    assert report.iterations == fresh.iterations
    assert np.array_equal(report.pattern_trace, fresh.pattern_trace)
    np.testing.assert_allclose(report.solution, fresh.solution, rtol=0, atol=1e-12)


def test_empty_active_set_drops_the_held_factor(monkeypatch):
    # Q_PP (P = {0, ..., 63}) couples index 0 to the rest with -0.12, and
    # b_tilde_0 = 10 outweighs the other -1s, so the first step gives an
    # iterate with no positive entry.  The second step, from the empty active
    # set, factors nothing and gives -b_tilde, positive on A = {1, ..., 63}:
    # one index from the held P, yet a fresh step that factors nothing holds
    # nothing, so the third step factors Q_AA afresh.
    n = 70
    q_matrix = np.eye(n)
    q_matrix[0, 1:64] = q_matrix[1:64, 0] = -0.12
    b_tilde = np.ones(n)
    b_tilde[:64] = -1.0
    b_tilde[0] = 10.0
    q = QpProblem(Q=q_matrix, b_tilde=b_tilde)
    x0 = np.where(np.arange(n) < 64, 1.0, -1.0)
    factors = spy_on(monkeypatch, "lu_factor")
    report = qp_newton_solve(q, x0)
    assert [int(bits.sum()) for bits in report.pattern_trace] == [64, 0, 63, 63]
    assert [args[0].shape[0] for args, _ in factors] == [64, 63]
    assert report.status is SolveStatus.CONVERGED_EXACT


def test_qp_singular_jacobian_status():
    # the full active set makes the step matrix Q itself, which is singular
    q = QpProblem(Q=[[1.0, 1.0], [1.0, 1.0]], b_tilde=[-1.0, -1.0])
    report = qp_newton_solve(q, [1.0, 1.0])
    assert report.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == 0
    assert report.solution is None


def test_qp_newton_solve_refuses_an_indefinite_q_at_its_saddle():
    # from x0 = 0 the first step gives -b_tilde = [1, 1], and the next one
    # factors Q_AA = Q, which is nonsingular and indefinite: its stationary
    # point [0.25, 0.25] is a saddle, not a minimizer
    q = QpProblem(Q=[[1.0, 3.0], [3.0, 1.0]], b_tilde=[-1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        qp_newton_solve(q, np.zeros(2))


def test_bordered_qp_step_refuses_an_indefinite_q_aa(monkeypatch):
    # Q_PP (P = {0, ..., 63}) is I; the first step adds index 69, coupled to
    # index 0 by Q_0,69 = 2, so the new Q_AA (order 65) is indefinite.  A fresh
    # factor of it raises.  The default solve would border from Q_PP instead:
    # its Schur-complement certificate fails, so it steps afresh and raises too.
    n = 70
    q_matrix = np.eye(n)
    q_matrix[0, 69] = q_matrix[69, 0] = 2.0
    b_tilde = np.where(np.arange(n) < 64, -1.0, 1.0)
    b_tilde[69] = -10.0
    q = QpProblem(Q=q_matrix, b_tilde=b_tilde)
    x0 = np.where(np.arange(n) < 64, 1.0, -1.0)
    with monkeypatch.context() as m:
        m.setattr(pwls, "REUSE_MIN_SIZE", n + 1)
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            qp_newton_solve(q, x0)
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        qp_newton_solve(q, x0)


# Solves the QPs saved at argv[1] with default options, prints each status and
# iteration count, and last how many steps factored an active set of order >= 128.
QP_THREAD_RUN = """
import sys
import numpy as np
from pwlnewton import QpProblem, pwls, qp_newton_solve
large = []
core = pwls.lu_factor
pwls.lu_factor = lambda m, rhs, *args, **kwargs: (large.append(len(m) >= 128)
                                                  or core(m, rhs, *args, **kwargs))
data = np.load(sys.argv[1])
for q, b_tilde, x0 in zip(data["Q"], data["b_tilde"], data["x0"]):
    report = qp_newton_solve(QpProblem(Q=q, b_tilde=b_tilde), x0)
    print(report.status.value, report.iterations)
print(sum(large))
"""


def test_qp_statuses_and_iterations_are_independent_of_the_blas_thread_count(tmp_path):
    # OpenBLAS's posv runs threaded from order 128 up, so the QP step's
    # iterates may differ in their last bits at 1 and 2 BLAS threads; the
    # statuses and iteration counts agree.  Both runs read the same bytes,
    # since the generator's B^T B depends on the thread count itself.
    batch = make_batch(GeneratorConfig(n=400, beta_low=0.5, beta_high=1e3, seed=5), 20)
    path = tmp_path / "qps.npz"
    np.savez(path, Q=[g.q.Q for g in batch], b_tilde=[g.q.b_tilde for g in batch],
             x0=[g.x0 for g in batch])
    source = str(Path(qp.__file__).parents[1])
    procs = [subprocess.Popen([sys.executable, "-c", QP_THREAD_RUN, str(path)],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                                       PYTHONPATH=source))
             for threads in (1, 2)]
    outputs = [proc.communicate(timeout=300)[0].splitlines() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [len(lines) for lines in outputs] == [21, 21]
    assert int(outputs[0][-1]) > 0  # some steps factored by posv at order >= 128
    assert outputs[0][:-1] == outputs[1][:-1]


def late_coupled_qp(rng):
    """Symmetric Q, SPD or indefinite, whose last m indices join after x0's step.

    Q is near I on the first c = n - m indices and couples the last m to them
    by random columns, so Q is indefinite exactly when the Schur complement
    of that block is.  The planted solution is positive on nearly every
    index, and x0 is it with the last m signs, and up to two others, flipped:
    the first step factors an active set of order >= REUSE_MIN_SIZE, and the
    next ones may border from it into an indefinite Q_AA.
    """
    n = int(rng.integers(70, 101))
    m = int(rng.integers(1, 5))
    c = n - m
    q_matrix = np.eye(n)
    q_matrix[:c, :c] = spd_near_identity(c, rng.uniform(0.1, 0.9), rng)
    q_matrix[:c, c:] = rng.uniform(0.0, 2.0) * rng.standard_normal((c, m)) / np.sqrt(c)
    q_matrix[c:, :c] = q_matrix[:c, c:].T
    u = np.concatenate((0.5 * rng.standard_normal(c) + 1.5, rng.uniform(0.5, 1.5, m)))
    b_tilde = -((q_matrix - np.eye(n)) @ np.maximum(u, 0.0) + u)
    flipped = np.concatenate((rng.choice(c, int(rng.integers(0, 3)), replace=False),
                              np.arange(c, n)))
    x0 = u.copy()
    x0[flipped] = -x0[flipped]
    return QpProblem(Q=q_matrix, b_tilde=b_tilde), x0


def test_no_run_steps_through_an_indefinite_q_aa(monkeypatch):
    # every run raises NotPositiveDefiniteError, or steps only from patterns
    # whose Q_AA is positive definite or singular to working precision (fresh
    # or bordered), and a converged one is a KKT point.  An indefinite Q may
    # still converge, when no Q_AA the run visits is indefinite.
    solves = spy_on(monkeypatch, "lu_solve")
    raised = 0
    for seed in range(60):
        q, x0 = late_coupled_qp(np.random.default_rng(seed))
        try:
            report = qp_newton_solve(q, x0)
        except NotPositiveDefiniteError:
            raised += 1
            continue
        for bits in report.pattern_trace[:report.iterations]:
            a = bits.nonzero()[0]
            if a.size:
                eigenvalues = np.linalg.eigvalsh(q.Q[np.ix_(a, a)])
                assert eigenvalues[0] >= -1e-8 * np.abs(eigenvalues).max()
        if report.converged:
            kkt = kkt_residual(q, np.maximum(report.solution, 0.0))
            assert worst_violation(kkt) <= 1e-10 * qp_scale(q)
    # some runs raised, and bordered steps ran
    assert raised > 0
    assert any(np.ndim(args[1]) == 2 for args, _ in solves)


@pytest.mark.parametrize("scale", [[1.0, 1.0], [1e6, 1e-3]])
def test_qp_step_singular_rule_is_jacobi_scaled(scale):
    # Q and D Q D, D = diag(scale), are SPD and singular to working precision
    # after diagonal scaling (L_22^2 / Q_22 is about 1e-14), so the step from
    # the full active set is flagged whatever D is
    d = np.array(scale)
    q_matrix = d[:, np.newaxis] * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]) * d
    report = qp_newton_solve(QpProblem(Q=q_matrix, b_tilde=-d), [1.0, 1.0])
    assert report.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == 0


def test_qp_step_singular_rule_keeps_an_ill_conditioned_spd_step():
    # L_22^2 / Q_22 is about 1e-10, above the 1e-12 threshold; the solution
    # [1, 1] is positive, so the one step from the full active set reaches it
    q_matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    report = qp_newton_solve(QpProblem(Q=q_matrix, b_tilde=-(q_matrix @ [1.0, 1.0])),
                             [1.0, 2.0])
    assert report.status is SolveStatus.CONVERGED_EXACT
    assert report.iterations == 1
    np.testing.assert_allclose(report.solution, [1.0, 1.0], rtol=1e-5)


def test_qp_newton_solve_converges_on_a_badly_scaled_spd_q():
    report = qp_newton_solve(QpProblem(Q=np.diag([1e13, 1.0]), b_tilde=[-1.0, -1.0]),
                             np.zeros(2))
    assert report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_allclose(report.solution, [1e-13, 1.0], rtol=1e-12)


# an SPD Q on which the active-set iteration from [5, -1, -5] cycles with period 3
Q_CYCLE = QpProblem(Q=[[33.0, -12.0, 15.0], [-12.0, 26.0, -12.0], [15.0, -12.0, 9.0]],
                    b_tilde=[0.0, -3.0, 1.0])


@pytest.mark.parametrize("q, x0, opts, status", [
    # the known-solution rule stops at once; the start is not the solution
    (scalar_problem(), [2.5], SolverOptions(known_solution=[2.0], tol_x=0.5),
     SolveStatus.CONVERGED),
    (planted_qp(6, 0.3, np.random.default_rng(1))[0], np.ones(6), SolverOptions(),
     SolveStatus.CONVERGED_EXACT),
    (Q_CYCLE, [5.0, -1.0, -5.0], SolverOptions(max_iter=1), SolveStatus.MAX_ITERATIONS),
    (QpProblem(Q=[[1.0, 1.0], [1.0, 1.0]], b_tilde=[-1.0, -1.0]), [1.0, 1.0],
     SolverOptions(), SolveStatus.SINGULAR_JACOBIAN),
    (Q_CYCLE, [5.0, -1.0, -5.0], SolverOptions(), SolveStatus.CYCLED),
])
def test_final_residual_norm_is_residual_of_last_iterate(q, x0, opts, status):
    report = qp_newton_solve(q, x0, opts)
    assert report.status is status
    assert report.final_residual_norm == float(np.abs(_qp_residual(q, report.last_iterate)).max())
    assert report.final_residual_norm > 0.0
    assert report.solution is (report.last_iterate if report.converged else None)


PLANTED_QP, PLANTED_X = planted_qp(6, 0.3, np.random.default_rng(1))


@pytest.mark.parametrize("power", [600, 900])
def test_known_solution_rule_is_invariant_under_power_of_two_scaling(power):
    # every iterate scales exactly, and the rule's norms must not overflow
    scale = 2.0**power
    for inst in make_batch(GeneratorConfig(n=30, beta_low=0.1, beta_high=0.5, seed=3), 20):
        runs = []
        for s in (1.0, scale):
            opts = SolverOptions(known_solution=s * inst.known_solution, tol_x=1e-8,
                                 keep_iterates=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(qp_newton_solve(QpProblem(Q=inst.q.Q, b_tilde=s * inst.q.b_tilde),
                                            s * inst.x0, opts))
        plain, scaled = runs
        assert (scaled.status, scaled.iterations) == (plain.status, plain.iterations)
        for x, y in zip(plain.iterate_trace, scaled.iterate_trace, strict=True):
            assert np.array_equal(y, scale * x)


def test_known_solution_rule_judges_a_far_iterate_without_overflow():
    # iterate 0's distance to u squares past the largest float
    opts = SolverOptions(known_solution=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = qp_newton_solve(QpProblem(Q=[[2.0]], b_tilde=[-2.0]), [1e160], opts)
    assert (report.status, report.iterations) == (SolveStatus.CONVERGED, 1)


@pytest.mark.parametrize("q, x0, opts, status", [
    (scalar_problem(), [2.5], SolverOptions(known_solution=[2.0], tol_x=0.5),
     SolveStatus.CONVERGED),
    (PLANTED_QP, np.ones(6), SolverOptions(known_solution=PLANTED_X, tol_x=1e-8),
     SolveStatus.CONVERGED),
    (Q_CYCLE, [5.0, -1.0, -5.0], SolverOptions(known_solution=np.zeros(3), max_iter=1),
     SolveStatus.MAX_ITERATIONS),
    (QpProblem(Q=[[1.0, 1.0], [1.0, 1.0]], b_tilde=[-1.0, -1.0]), [1.0, 1.0],
     SolverOptions(known_solution=np.zeros(2)), SolveStatus.SINGULAR_JACOBIAN),
    (Q_CYCLE, [5.0, -1.0, -5.0], SolverOptions(known_solution=np.zeros(3)),
     SolveStatus.CYCLED),
], ids=["converged-at-x0", "converged", "max-iterations", "singular", "cycled"])
def test_known_solution_report_evaluates_the_residual_once_when_read(
        monkeypatch, q, x0, opts, status):
    calls = spy_on(monkeypatch, "_qp_residual", qp)
    report = qp_newton_solve(q, x0, opts)
    assert report.status is status
    assert calls == []
    value = report.final_residual_norm
    assert value == report.final_residual_norm
    assert len(calls) == 1 and calls[0][0][1] is report.last_iterate
    assert value == float(np.abs(_qp_residual(q, report.last_iterate)).max())


@pytest.mark.parametrize("q, x0, max_iter, status", [
    (PLANTED_QP, np.ones(6), 100, SolveStatus.CONVERGED_EXACT),
    (Q_CYCLE, [5.0, -1.0, -5.0], 1, SolveStatus.MAX_ITERATIONS),
    (QpProblem(Q=[[1.0, 1.0], [1.0, 1.0]], b_tilde=[-1.0, -1.0]), [1.0, 1.0], 100,
     SolveStatus.SINGULAR_JACOBIAN),
    (Q_CYCLE, [5.0, -1.0, -5.0], 100, SolveStatus.CYCLED),
], ids=["converged-exact", "max-iterations", "singular", "cycled"])
def test_residual_rule_hands_its_last_residual_to_the_report(monkeypatch, q, x0, max_iter,
                                                             status):
    calls = spy_on(monkeypatch, "_qp_residual", qp)
    report = qp_newton_solve(q, x0, SolverOptions(max_iter=max_iter, keep_iterates=True))
    assert report.status is status
    exact = status is SolveStatus.CONVERGED_EXACT
    judged = report.iterate_trace[:-1] if exact else report.iterate_trace
    assert len(calls) == len(judged)
    assert all(args[1] is x for (args, _), x in zip(calls, judged))
    value = report.final_residual_norm
    assert value == report.final_residual_norm
    assert len(calls) == len(judged) + exact
    assert value == float(np.abs(_qp_residual(q, report.last_iterate)).max())


def test_qp_stopping_rule_boundaries():
    # distance equal to tol_x * (1 + ||u||) = 0.25 misses the strict rule
    report = qp_newton_solve(QpProblem(Q=[[2.0]], b_tilde=[0.0]), [0.25],
                             SolverOptions(known_solution=[0.0], tol_x=0.25))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    # residual |b_tilde| at x = 0 equal to tol_f * (1 + max|b_tilde|) = 1.0 meets the rule
    report = qp_newton_solve(QpProblem(Q=[[2.0]], b_tilde=[1.0]), [0.0], SolverOptions(tol_f=0.5))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0


# ----------------------------------------------------- kkt / objective


def test_kkt_residual_at_origin():
    rng = np.random.default_rng(6)
    q, _ = planted_qp(4, 0.2, rng)
    kkt = kkt_residual(q, np.zeros(4))
    assert kkt.primal_violation == 0.0
    assert kkt.dual_violation == pytest.approx(np.abs(np.minimum(q.b_tilde, 0.0)).max())
    assert kkt.complementarity == 0.0


def test_kkt_residual_scalar_interior_miss():
    kkt = kkt_residual(scalar_problem(), [1.0])
    assert kkt.primal_violation == 0.0
    assert kkt.dual_violation == pytest.approx(1.2)
    assert kkt.complementarity == pytest.approx(1.2)


def test_qp_objective():
    rng = np.random.default_rng(7)
    q, _ = planted_qp(3, 0.2, rng)
    assert qp_objective(q.Q, q.b_tilde, 5.5, np.zeros(3)) == 5.5
    s = scalar_problem()
    assert qp_objective(s.Q, s.b_tilde, 0.0, [2.0]) == pytest.approx(-2.4)


def test_recovered_solution_beats_random_feasible_points():
    rng = np.random.default_rng(8)
    q, _ = planted_qp(6, 0.4, rng)
    report = qp_newton_solve(q, rng.standard_normal(6))
    assert report.converged
    best = np.maximum(report.solution, 0.0)
    f_best = qp_objective(q.Q, q.b_tilde, 0.0, best)
    for _ in range(100):
        candidate = rng.uniform(0.0, 3.0, 6)
        assert f_best <= qp_objective(q.Q, q.b_tilde, 0.0, candidate) + 1e-10


# ------------------------------------------------------------ conversion


@pytest.mark.parametrize("n", [1, 3, 100])
def test_minus_identity_is_q_minus_eye_bytewise(n):
    # an off-diagonal -0.0 stays -0.0 (-0.0 - 0.0), and a unit diagonal entry
    # becomes +0.0, as in Q - np.eye(n); Q itself is left alone
    rng = np.random.default_rng(n)
    q_matrix = rng.standard_normal((n, n))
    q_matrix[0, -1] = -0.0
    q_matrix[-1, -1] = 1.0
    before = q_matrix.copy()
    for q in (q_matrix, np.asfortranarray(q_matrix)):
        assert _minus_identity(q).tobytes() == (q_matrix - np.eye(n)).tobytes()
    assert q_matrix.tobytes() == before.tobytes()


def test_qp_to_pwls_scalar():
    p = qp_to_pwls(scalar_problem())
    np.testing.assert_allclose(p.T, [[5.0]], rtol=1e-14)
    np.testing.assert_allclose(p.b, [12.0], rtol=1e-14)
    report = newton_solve(p, np.zeros(1))
    np.testing.assert_allclose(report.solution, [2.0], atol=1e-12)


def test_qp_to_pwls_rejects_identity():
    # and Q = diag(1, 2), whose Q - I = diag(0, 1) is positive semidefinite and singular
    for q_matrix in (np.eye(3), np.diag([1.0, 2.0])):
        with pytest.raises(EquivalenceUnavailableError):
            qp_to_pwls(QpProblem(Q=q_matrix, b_tilde=np.zeros(len(q_matrix))))


@pytest.mark.parametrize("beta, definite", [(0.3, False), (0.9, False), (5.0, True)])
def test_qp_to_pwls_returns_an_exactly_symmetric_column_major_t(beta, definite, monkeypatch):
    # ||Q - I|| = beta: Q - I is positive definite when generated (posv
    # inverts it) and indefinite but nonsingular from spd_near_identity (LU)
    inverses = spy_on(monkeypatch, "factor", qp)
    rng = np.random.default_rng(31)
    n = 40
    if definite:
        q = make_batch(GeneratorConfig(n=n, beta_low=beta, beta_high=beta + 1.0, seed=2), 1)[0].q
    else:
        q = QpProblem(Q=spd_near_identity(n, beta, rng), b_tilde=rng.standard_normal(n))
    eigenvalues = np.linalg.eigvalsh(_minus_identity(q.Q))
    assert (eigenvalues.min() > 0.0) == definite and eigenvalues.max() > 0.0
    p = qp_to_pwls(q)
    [(_, (f, _))] = inverses
    assert (f.piv is None) == definite
    assert p.symmetric and np.array_equal(p.T, p.T.T)
    assert p.T.flags.f_contiguous
    assert np.array_equal(p.b, -(p.T @ q.b_tilde))
    np.testing.assert_allclose(p.T @ _minus_identity(q.Q), np.eye(n), atol=1e-10)


def test_cross_formulation_agreement():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        q, _ = planted_qp(n, 0.3, rng)
        x0 = rng.standard_normal(n)
        via_qp = qp_newton_solve(q, x0)
        via_pwls = newton_solve(qp_to_pwls(q), x0)
        assert via_qp.converged and via_pwls.converged
        assert np.abs(via_qp.solution - via_pwls.solution).max() <= 1e-9


def test_check_qp_conditions():
    rng = np.random.default_rng(10)
    q, _ = planted_qp(5, 0.3, rng)
    report = check_qp_conditions(q)
    assert report.inv_norm == pytest.approx(0.3, rel=1e-6)
    assert report.existence_ok and report.rate_ok
    assert report.predicted_rate == pytest.approx(0.3 / 0.7, rel=1e-6)


# ------------------------------------------------------------ projection


def test_projection_identity_cone_is_positive_part():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(6)
    result = cone_projection(ConeInstance(A=np.eye(6), z=z))
    np.testing.assert_array_equal(result.projection, np.maximum(z, 0.0))
    np.testing.assert_array_equal(result.v, np.maximum(z, 0.0))


def test_projection_hand_checked_2x2():
    # interior candidate infeasible; the face x1 = 0 carries the solution
    result = cone_projection(ConeInstance(A=[[1.0, 0.0], [1.0, 1.0]], z=[-1.0, 2.0]))
    np.testing.assert_allclose(result.v, [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(result.projection, [0.0, 2.0], atol=1e-12)
    assert result.report.converged


def test_projection_of_a_huge_point_does_not_overflow():
    # ||z||^2 overflows from about 1.3e154 on, and no step reads it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = cone_projection(ConeInstance(A=[[1.0, 0.0], [1.0, 1.0]], z=[-1e160, 2e160]))
    assert result.report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_array_equal(result.v, [0.0, 2e160])


def test_projection_reports_the_kkt_residual_of_its_own_qp():
    ci = ConeInstance(A=[[1.0, 0.0], [1.0, 1.0]], z=[-1.0, 2.0])
    result = cone_projection(ci, opts=SolverOptions(max_iter=1))
    assert not result.report.converged
    assert result.kkt == kkt_residual(cone_instance_to_qp(ci), result.v)
    assert worst_violation(result.kkt) > 0.0


def test_projection_start_is_checked_once_with_the_x0_messages():
    ci = ConeInstance(A=[[1.0, 0.0], [1.0, 1.0]], z=[-1.0, 2.0])
    for x0, error, message in (
            ([[0.0, 0.0]], DimensionError, r"x0 must be a non-empty 1-D array, got shape \(1, 2\)"),
            ([0.0, np.nan], ValueError, "x0 must contain only finite values"),
            ([0.0], DimensionError, "x0 has length 1, expected 2")):
        with pytest.raises(error, match=message):
            cone_projection(ci, x0=x0)
    result = cone_projection(ci, x0=[1.0, 1.0])
    np.testing.assert_allclose(result.v, [0.0, 2.0], atol=1e-12)


def test_projection_onto_a_column_scaled_cone_keeps_a_cone_point():
    result = cone_projection(ConeInstance(A=np.diag([1e11, 1.0]), z=[1.0, 1.0]))
    assert result.report.converged
    np.testing.assert_allclose(result.projection, [1.0, 1.0], rtol=1e-12)


def test_projection_idempotent_on_cone_points():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        point = a @ rng.uniform(0.0, 2.0, n)
        result = cone_projection(ConeInstance(A=a, z=point))
        assert result.report.converged
        assert np.linalg.norm(result.projection - point) <= 1e-8 * (1.0 + np.linalg.norm(point))


def test_projection_kkt_characterization():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n))
        if factor(a, np.zeros(n))[0].singular:
            continue
        ci = ConeInstance(A=a, z=3.0 * rng.standard_normal(n))
        result = cone_projection(ci)
        assert result.report.converged
        scale = qp_scale(cone_instance_to_qp(ci))
        gradient = a.T @ (result.projection - ci.z)
        assert result.v.min() >= 0.0
        assert gradient.min() >= -1e-8 * scale
        assert abs(gradient @ result.v) <= 1e-8 * scale


def test_projection_nonexpansive():
    # a cone inside the guaranteed-convergence regime, so every run yields
    # an actual projection to compare
    rng = np.random.default_rng(14)
    a = np.eye(5) + 0.05 * rng.standard_normal((5, 5))
    for _ in range(30):
        z1 = 4.0 * rng.standard_normal(5)
        z2 = 4.0 * rng.standard_normal(5)
        r1 = cone_projection(ConeInstance(A=a, z=z1))
        r2 = cone_projection(ConeInstance(A=a, z=z2))
        assert r1.report.converged and r2.report.converged
        assert np.linalg.norm(r1.projection - r2.projection) \
            <= np.linalg.norm(z1 - z2) + 1e-8


def test_projection_from_custom_start():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    ci = ConeInstance(A=a, z=rng.standard_normal(4))
    from_zero = cone_projection(ci)
    from_random = cone_projection(ci, x0=rng.standard_normal(4))
    np.testing.assert_allclose(from_zero.projection, from_random.projection, atol=1e-9)


# ------------------------------------------------- nnls differential checks


@pytest.mark.parametrize("beta", [0.3, 5.0, 1e3])
def test_qp_solution_matches_nnls(beta):
    # with Q = R^T R the QP is min ||R x + R^-T b_tilde||^2 / 2 over x >= 0
    rng = np.random.default_rng(24)
    n = 30
    for _ in range(20):
        q = QpProblem(Q=make_spd_matrix(n, beta, rng), b_tilde=rng.standard_normal(n))
        r = cholesky(q.Q)
        expected, _ = nnls(r, -solve_triangular(r, q.b_tilde, trans="T"))
        report = qp_newton_solve(q, np.zeros(n))
        assert report.converged
        x = np.maximum(report.solution, 0.0)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cone_projection_matches_nnls():
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        ci = ConeInstance(A=a, z=3.0 * rng.standard_normal(n))
        coefficients, _ = nnls(a, ci.z)
        expected = a @ coefficients
        result = cone_projection(ci)
        assert result.report.converged
        assert np.linalg.norm(result.projection - expected) <= 1e-10 * np.linalg.norm(expected)
