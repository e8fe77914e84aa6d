"""Property tests drawn by hypothesis, checked against oracles that share no
code with the Newton path: the brute-force enumerator and the fixed-point
map of _oracles, and scipy.optimize.nnls.

The draws are derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls
from _oracles import enumerate_solutions, fixed_point, qp_objective
from _random_problems import matrix_with_inv_norm, qp_scale, worst_violation

from pwlnewton import (
    ConeInstance,
    GeneratorConfig,
    PwlsProblem,
    QpProblem,
    SingularMatrixError,
    SolveStatus,
    SolverOptions,
    cone_projection,
    kkt_residual,
    make_instance,
    make_spd_matrix,
    newton_solve,
    qp_newton_solve,
)

DETERMINISTIC = settings(database=None, derandomize=True, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@DETERMINISTIC
@given(n=st.integers(1, 5),
       inv_norm=st.floats(0.01, 0.49, exclude_min=True, exclude_max=True),
       seed=SEEDS)
def test_pwls_newton_matches_enumeration_and_fixed_point(n, inv_norm, seed):
    # ||T^-1|| < 1/2: a unique solution, reached by Newton and the contraction
    rng = np.random.default_rng(seed)
    p = PwlsProblem(T=matrix_with_inv_norm(n, inv_norm, rng), b=rng.standard_normal(n))
    x0 = rng.standard_normal(n)
    report = newton_solve(p, x0)
    assert report.converged
    solutions, singular = enumerate_solutions(p.T, p.b)
    assert len(solutions) == 1 and not singular
    scale = 1.0 + float(np.abs(solutions[0]).max())
    assert np.abs(report.solution - solutions[0]).max() <= 1e-12 * scale
    fixed = fixed_point(p.T, p.b, x0, 1e-13, 100)
    assert fixed is not None
    assert np.abs(report.solution - fixed).max() <= 1e-10 * scale


@DETERMINISTIC
@given(n=st.integers(1, 30), beta=st.sampled_from([1e-3, 0.3, 0.9, 5.0, 1e3]), seed=SEEDS)
def test_qp_newton_is_a_minimizer(n, beta, seed):
    # planted minimizer with exact zeros, some of them degenerate (zero
    # gradient too); nnls can be inexact there, so the check is on KKT and
    # the objective, not on the distance to nnls's answer
    rng = np.random.default_rng(seed)
    q_matrix = make_spd_matrix(n, beta, rng)
    support = rng.random(n) < 0.5
    x_star = np.where(support, rng.uniform(0.1, 2.0, n), 0.0)
    gradient = np.where(support | (rng.random(n) < 0.5), 0.0, rng.uniform(0.1, 2.0, n))
    q = QpProblem(Q=q_matrix, b_tilde=gradient - q_matrix @ x_star)
    report = qp_newton_solve(q, rng.standard_normal(n))
    assert report.converged
    x = np.maximum(report.solution, 0.0)
    assert worst_violation(kkt_residual(q, x)) <= 1e-10 * qp_scale(q)
    # with Q = R^T R the QP is min ||R x + R^-T b_tilde||^2 / 2 over x >= 0
    r = cholesky(q.Q)
    oracle, _ = nnls(r, -solve_triangular(r, q.b_tilde, trans="T"))
    oracle_objective = qp_objective(q.Q, q.b_tilde, 0.0, oracle)
    assert qp_objective(q.Q, q.b_tilde, 0.0, x) <= oracle_objective + 1e-12 * (1.0 + abs(oracle_objective))


@settings(DETERMINISTIC, max_examples=60)
@given(n=st.integers(2, 39), seed=SEEDS)
def test_cone_projection_matches_nnls_on_column_scaled_cones(n, seed):
    # A = G diag(10^c), c in (-6, 6): each step's Q_AA = (A^T A)_AA spans
    # up to 24 decades on its diagonal, yet is well conditioned after
    # diagonal scaling, which the Cholesky step's singular test ignores
    rng = np.random.default_rng(seed)
    a_matrix = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    z = rng.standard_normal(n)
    try:
        ci = ConeInstance(A=a_matrix, z=z)
    except SingularMatrixError:
        reject()  # ConeInstance's LU pivot rule is not scale-invariant
    result = cone_projection(ci, opts=SolverOptions(max_iter=200))
    assert result.report.status is not SolveStatus.SINGULAR_JACOBIAN
    if result.report.status is not SolveStatus.CONVERGED_EXACT:
        return  # the residual rule can stop Converged far from a KKT point
    # the same cone over unit columns U = A diag(1/a) has coefficients w = a v
    norms = np.linalg.norm(a_matrix, axis=0)
    unit = a_matrix / norms
    w = result.v * norms
    size = 1.0 + float(np.linalg.norm(z))
    gradient = unit.T @ (unit @ w - z)
    assert max(-w.min(), -gradient.min()) <= 1e-14 * size
    assert abs(gradient @ w) <= 1e-14 * size**2
    oracle, _ = nnls(unit, z)
    assert np.linalg.norm(result.projection - unit @ oracle) <= 1e-12 * size
    assert np.abs(w - oracle).max() <= 1e-10 * size


@settings(DETERMINISTIC, max_examples=100)
@given(n=st.sampled_from([20, 80, 160]), seed=SEEDS)
def test_qp_pattern_trace_is_invariant_under_diagonal_scaling(n, seed):
    # Q -> alpha D Q D, b_tilde -> alpha D b_tilde maps each iterate x to
    # x / D on its positive entries and alpha D x elsewhere, so the sign
    # patterns agree; at n >= 64 this also covers bordered steps.  The
    # residual rule is not scale invariant, so one run may stop earlier.
    rng = np.random.default_rng(seed)
    instance = make_instance(GeneratorConfig(n, 1e-3, 0.5), rng)
    alpha = 10.0 ** rng.uniform(-3.0, 3.0)
    d = rng.uniform(0.1, 10.0, n)
    q, x0 = instance.q, instance.x0
    scaled = QpProblem(Q=alpha * (d[:, np.newaxis] * q.Q * d), b_tilde=alpha * d * q.b_tilde)
    opts = SolverOptions(max_iter=50)
    runs = (qp_newton_solve(q, x0, opts),
            qp_newton_solve(scaled, np.where(x0 > 0.0, x0 / d, alpha * d * x0), opts))
    common = min(len(report.pattern_trace) for report in runs)
    assert np.array_equal(*(report.pattern_trace[:common] for report in runs))
