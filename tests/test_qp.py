import numpy as np
import pytest
from _random_problems import spd_near_identity

from pwlnewton import (
    ConeInstance,
    DimensionError,
    EquivalenceUnavailableError,
    QpProblem,
    SingularMatrixError,
    SolveStatus,
    SolverOptions,
    check_qp_conditions,
    cone_instance_to_qp,
    cone_projection,
    kkt_residual,
    kkt_scale,
    lcp_residual,
    lu_factor,
    newton_solve,
    qp_newton_solve,
    qp_objective,
    qp_residual,
    qp_to_pwls,
    recover_qp_solution,
    sign_pattern,
)


def scalar_problem():
    # 0.2 x+ + x = 2.4 has the positive-branch solution x = 2
    return QpProblem(Q=[[1.2]], b_tilde=[-2.4], c=0.0)


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


TWO_BY_TWO = QpProblem(Q=np.eye(2), b_tilde=[1.0, -1.0])


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: QpProblem(Q=np.eye(2), b_tilde=[1.0, 2.0, 3.0]), "b_tilde",
                 id="QpProblem"),
    pytest.param(lambda: ConeInstance(A=np.eye(2), z=[1.0]), "z", id="ConeInstance"),
    pytest.param(lambda: qp_residual(TWO_BY_TWO, [1.0, 2.0, 3.0]), "x", id="qp_residual"),
    pytest.param(lambda: kkt_residual(TWO_BY_TWO, [1.0]), "x", id="kkt_residual"),
    pytest.param(lambda: qp_objective(TWO_BY_TWO, [1.0, 2.0, 3.0]), "x", id="qp_objective"),
    pytest.param(lambda: lcp_residual(TWO_BY_TWO, [1.0], [0.0, 0.0]), "x", id="lcp_residual-x"),
    pytest.param(lambda: lcp_residual(TWO_BY_TWO, [0.0, 0.0], [1.0, 2.0, 3.0]), "y",
                 id="lcp_residual-y"),
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


def test_qp_scalar_closed_form():
    report = qp_newton_solve(scalar_problem(), np.zeros(1))
    assert report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_allclose(report.solution, [2.0], atol=1e-14)
    v = recover_qp_solution(report.solution)
    np.testing.assert_allclose(v, [2.0], atol=1e-14)
    kkt = kkt_residual(scalar_problem(), v)
    assert kkt.worst <= 1e-14


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
    np.testing.assert_allclose(qp_residual(q, x), expected, atol=1e-15)


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
            assert not lu_factor(m).singular


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


@pytest.mark.parametrize("beta", [0.3, 5.0, 1e3])
@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_reduced_step_matches_dense_step(n, beta):
    # each iterate of the active-set step equals the n x n step from the
    # previous pattern; the starts give the empty and the full active set
    rng = np.random.default_rng(int(1000 * beta) + n)
    q = QpProblem(Q=spd_with_beta(n, beta, rng), b_tilde=rng.standard_normal(n))
    for x0 in (-np.ones(n), np.ones(n), rng.standard_normal(n)):
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


def test_qp_singular_jacobian_status():
    # the full active set makes the step matrix Q itself, which is singular
    q = QpProblem(Q=[[1.0, 1.0], [1.0, 1.0]], b_tilde=[-1.0, -1.0])
    report = qp_newton_solve(q, [1.0, 1.0])
    assert report.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == 0
    assert report.solution is None


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
    q.c = 5.5
    assert qp_objective(q, np.zeros(3)) == 5.5
    assert qp_objective(scalar_problem(), [2.0]) == pytest.approx(-2.4)


def test_recovered_solution_beats_random_feasible_points():
    rng = np.random.default_rng(8)
    q, _ = planted_qp(6, 0.4, rng)
    report = qp_newton_solve(q, rng.standard_normal(6))
    assert report.converged
    best = recover_qp_solution(report.solution)
    f_best = qp_objective(q, best)
    for _ in range(100):
        candidate = rng.uniform(0.0, 3.0, 6)
        assert f_best <= qp_objective(q, candidate) + 1e-10


def test_recover_qp_solution():
    np.testing.assert_array_equal(recover_qp_solution([2.0, -1.0]), [2.0, 0.0])
    np.testing.assert_array_equal(recover_qp_solution([0.0, 0.0]), [0.0, 0.0])


# ------------------------------------------------------------ conversion


def test_qp_to_pwls_scalar():
    p = qp_to_pwls(scalar_problem())
    np.testing.assert_allclose(p.T, [[5.0]], rtol=1e-14)
    np.testing.assert_allclose(p.b, [12.0], rtol=1e-14)
    report = newton_solve(p, np.zeros(1))
    np.testing.assert_allclose(report.solution, [2.0], atol=1e-12)


def test_qp_to_pwls_rejects_identity():
    with pytest.raises(EquivalenceUnavailableError):
        qp_to_pwls(QpProblem(Q=np.eye(3), b_tilde=np.zeros(3)))


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
        if lu_factor(a).singular:
            continue
        ci = ConeInstance(A=a, z=3.0 * rng.standard_normal(n))
        result = cone_projection(ci)
        assert result.report.converged
        scale = kkt_scale(cone_instance_to_qp(ci))
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


# ------------------------------------------------------------------ lcp


def test_lcp_residual_at_solution():
    rng = np.random.default_rng(16)
    q, _ = planted_qp(5, 0.3, rng)
    report = qp_newton_solve(q, rng.standard_normal(5))
    x = recover_qp_solution(report.solution)
    y = q.Q @ x + q.b_tilde
    assert lcp_residual(q, x, y) <= 1e-9


def test_lcp_residual_trivial_cases():
    q = QpProblem(Q=np.eye(2), b_tilde=[1.0, 2.0])
    assert lcp_residual(q, np.zeros(2), q.b_tilde) == 0.0
    assert lcp_residual(q, np.zeros(2), np.zeros(2)) == 2.0
