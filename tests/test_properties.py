"""Property tests drawn by hypothesis, checked against oracles that share no
code with the Newton path: the brute-force enumerator and the fixed-point
map of _oracles, and scipy.optimize.nnls.

The draws are derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls
from _oracles import enumerate_solutions, fixed_point, qp_objective
from _random_problems import matrix_with_inv_norm, qp_scale

from pwlnewton import (
    PwlsProblem,
    QpProblem,
    kkt_residual,
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
    assert kkt_residual(q, x).worst <= 1e-10 * qp_scale(q)
    # with Q = R^T R the QP is min ||R x + R^-T b_tilde||^2 / 2 over x >= 0
    r = cholesky(q.Q)
    oracle, _ = nnls(r, -solve_triangular(r, q.b_tilde, trans="T"))
    oracle_objective = qp_objective(q.Q, q.b_tilde, q.c, oracle)
    assert qp_objective(q.Q, q.b_tilde, q.c, x) <= oracle_objective + 1e-12 * (1.0 + abs(oracle_objective))
