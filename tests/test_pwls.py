import math

import numpy as np
import pytest
from _random_problems import m_matrix, matrix_with_inv_norm, planted_pwls

from pwlnewton import (
    ContractionHypothesisError,
    DimensionError,
    PwlsProblem,
    SizeGuardError,
    SolveStatus,
    SolverOptions,
    check_conditions,
    check_finite_termination_hypothesis,
    definite_sign_rows,
    enumerate_solutions,
    fixed_point_solve,
    lu_factor,
    lu_inverse,
    newton_solve,
    residual,
    sign_pattern,
)

# golden 2x2 data: a unique zero at [2,-1] but a 2-cycle for the iteration
T_CYCLE = np.array([[-2.0, 3.0], [-1.0, 1.0]])
B_CYCLE = np.array([-5.0, -3.0])

# golden 2x2 data with ||T^-1|| = 1: two zeros, two singular patterns
T_TWO_ZEROS = np.diag([-1.0, 1.0])
B_TWO_ZEROS = np.array([0.0, 2.0])


def cycle_problem():
    return PwlsProblem(T=T_CYCLE, b=B_CYCLE)


# ------------------------------------------------------- basic pieces


def test_sign_pattern():
    assert sign_pattern([2.0, 0.0, -5.0]).dtype == bool
    assert np.array_equal(sign_pattern([2.0, 0.0, -5.0]), [True, False, False])
    assert np.array_equal(sign_pattern([4.0, 1.0]), [True, True])
    assert np.array_equal(sign_pattern([-1.0, -2.0]), [False, False])
    assert np.array_equal(sign_pattern([-0.0, 1e-300]), [False, True])


def test_residual_golden():
    np.testing.assert_array_equal(residual(cycle_problem(), [2.0, -1.0]), [0.0, 0.0])
    p = PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS)
    np.testing.assert_array_equal(residual(p, [1.0, 1.0]), [0.0, 0.0])
    np.testing.assert_array_equal(residual(p, [0.0, 1.0]), [0.0, 0.0])


def test_residual_at_zero_is_minus_b():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    np.testing.assert_array_equal(residual(PwlsProblem(T=t, b=b), np.zeros(4)), -b)


def test_problem_validation():
    with pytest.raises(DimensionError):
        PwlsProblem(T=np.eye(3), b=[1.0, 2.0])
    with pytest.raises(DimensionError):
        PwlsProblem(T=np.ones((2, 3)), b=[1.0, 2.0])
    with pytest.raises(ValueError):
        PwlsProblem(T=np.eye(2), b=[np.inf, 0.0])


# ------------------------------------------------------- newton step


def dense_step(t, b, x):
    """Newton step from x by a dense solve that shares no code with the solver."""
    return np.linalg.solve(np.diag(x > 0) + t, b)


def test_newton_step_cycle_hops():
    report = newton_solve(cycle_problem(), [4.0, 1.0], SolverOptions(keep_iterates=True))
    assert report.status is SolveStatus.CYCLED
    np.testing.assert_array_equal(report.iterate_trace[1], [-1.0, -2.0])
    np.testing.assert_array_equal(report.iterate_trace[2], [4.0, 1.0])


def test_newton_step_fixed_point_is_solution():
    # [9, -9] lies in the orthant of the solution [1, -1], so one step lands
    # on it and the repeated pattern proves it exact
    p = PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0])
    report = newton_solve(p, [9.0, -9.0])
    assert report.status is SolveStatus.CONVERGED_EXACT
    assert report.iterations == 1
    np.testing.assert_allclose(report.solution, [1.0, -1.0], atol=1e-15)


def test_newton_step_consistency():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        t = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        b = rng.standard_normal(n)
        report = newton_solve(PwlsProblem(T=t, b=b), rng.standard_normal(n),
                              SolverOptions(keep_iterates=True))
        trace = report.iterate_trace
        assert len(trace) >= 2
        for x, x_next in zip(trace, trace[1:]):
            lhs = (np.diag(np.asarray(sign_pattern(x), float)) + t) @ x_next - b
            assert np.abs(lhs).max() <= 1e-10 * (1.0 + np.abs(b).max())
            np.testing.assert_allclose(x_next, dense_step(t, b, x), rtol=1e-10, atol=1e-12)


# ------------------------------------------------------ newton solve


def test_newton_solve_detects_golden_cycle():
    report = newton_solve(cycle_problem(), [1.0, 1.0], SolverOptions(keep_iterates=True))
    assert report.status is SolveStatus.CYCLED
    assert report.cycle == (1, 2)
    points = report.cycle_points()
    np.testing.assert_array_equal(points[0], [-1.0, -2.0])
    np.testing.assert_array_equal(points[1], [4.0, 1.0])
    assert report.solution is None
    assert len(report.pattern_trace) == report.iterations + 1


def test_newton_solve_from_alternate_start_converges_exactly():
    # starting at [-3, 3] the pattern settles after one step and the next
    # iterate is the exact zero [2, -1]
    report = newton_solve(cycle_problem(), [-3.0, 3.0])
    assert report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_array_equal(report.solution, [2.0, -1.0])
    assert report.iterations == 2


def test_newton_solve_diagonal_exact():
    p = PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0])
    report = newton_solve(p, [9.0, 9.0])
    assert report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_allclose(report.solution, [1.0, -1.0], atol=1e-15)
    assert report.iterations <= 3


def test_newton_solve_zero_iterations_when_start_solves():
    p = PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0])
    report = newton_solve(p, [1.0, -1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert len(report.pattern_trace) == 1


def test_newton_solve_known_solution_mode():
    rng = np.random.default_rng(8)
    t, b, x_star = planted_pwls(6, 0.3, rng)
    opts = SolverOptions(known_solution=x_star, tol_x=1e-6)
    report = newton_solve(PwlsProblem(T=t, b=b), rng.standard_normal(6), opts)
    assert report.converged
    x = report.solution
    assert np.linalg.norm(x_star - x) < 1e-6 * (1.0 + np.linalg.norm(x_star))


def test_newton_solve_singular_jacobian_status():
    # pattern (1,1) turns diag(-1,1) into diag(0,2); [1,5] is not a solution
    p = PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS)
    report = newton_solve(p, [1.0, 5.0])
    assert report.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == 0
    assert report.solution is None


def test_newton_solve_max_iterations():
    report = newton_solve(cycle_problem(), [1.0, 1.0], SolverOptions(max_iter=1))
    assert report.status is SolveStatus.MAX_ITERATIONS
    assert report.iterations == 1


def test_newton_solve_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        t = matrix_with_inv_norm(n, float(rng.uniform(0.05, 0.45)), rng)
        b = rng.standard_normal(n)
        p = PwlsProblem(T=t, b=b)
        report = newton_solve(p, rng.standard_normal(n))
        assert report.converged
        solutions, _ = enumerate_solutions(p)
        assert len(solutions) == 1
        assert np.abs(report.solution - solutions[0]).max() <= 1e-8


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    # a non-integer cap used to pass here and fail later inside range()
    for max_iter in (2.5, math.inf):
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=max_iter)


@pytest.mark.parametrize("name", ["tol_f", "tol_x", "tol_step"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, math.nan])
def test_solver_options_reject_nonpositive_or_nonfinite_tolerance(name, value):
    # a tolerance no distance or residual can undercut would report an
    # exact solution as MaxIterations
    with pytest.raises(ValueError, match=name):
        SolverOptions(**{name: value})
    SolverOptions(**{name: 5e-324})


def test_newton_solve_rejects_wrong_x0_length():
    with pytest.raises(DimensionError):
        newton_solve(cycle_problem(), [1.0, 2.0, 3.0])


def test_consecutive_pattern_repeat_implies_tiny_residual():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        t = matrix_with_inv_norm(n, float(rng.uniform(0.1, 0.45)), rng)
        b = rng.standard_normal(n)
        p = PwlsProblem(T=t, b=b)
        report = newton_solve(p, rng.standard_normal(n), SolverOptions(keep_iterates=True))
        if report.status is SolveStatus.CONVERGED_EXACT:
            assert np.array_equal(report.pattern_trace[-1], report.pattern_trace[-2])
            res = residual(p, report.iterate_trace[-1])
            assert np.abs(res).max() <= 1e-9 * (1.0 + np.abs(b).max())


def test_qlinear_rate_bound():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        lam = float(rng.uniform(0.05, 0.45))
        t, b, x_star = planted_pwls(n, lam, rng)
        p = PwlsProblem(T=t, b=b)
        opts = SolverOptions(tol_f=1e-14, keep_iterates=True)
        report = newton_solve(p, 10.0 * rng.standard_normal(n), opts)
        assert report.converged
        bound = lam / (1.0 - lam) + 1e-8
        errors = [np.linalg.norm(x_star - x) for x in report.iterate_trace]
        for e_k, e_next in zip(errors, errors[1:]):
            if e_k > 1e-8:
                assert e_next <= bound * e_k


def test_cycle_detection_soundness():
    rng = np.random.default_rng(13)
    seen_cycle = False
    for _ in range(200):
        n = int(rng.integers(2, 5))
        t = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        try:
            p = PwlsProblem(T=t, b=b)
            report = newton_solve(p, rng.standard_normal(n), SolverOptions(keep_iterates=True))
        except Exception:
            continue
        if report.status is not SolveStatus.CYCLED:
            continue
        seen_cycle = True
        start, period = report.cycle
        assert period >= 2
        point = report.iterate_trace[start]
        x = point.copy()
        for _ in range(period):
            x = dense_step(t, b, x)
        np.testing.assert_allclose(x, point, rtol=1e-10, atol=1e-12)
    assert seen_cycle


# ------------------------------------------------------- fixed point


def test_fixed_point_diagonal():
    p = PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0])
    report = fixed_point_solve(p, np.zeros(2))
    assert report.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(report.solution, [1.0, -1.0], atol=1e-9)


def test_fixed_point_rejects_non_contraction():
    with pytest.raises(ContractionHypothesisError):
        fixed_point_solve(cycle_problem(), np.zeros(2))
    with pytest.raises(ContractionHypothesisError):
        fixed_point_solve(PwlsProblem(T=np.diag([0.0, 1.0]), b=[1.0, 1.0]), np.zeros(2))


def test_fixed_point_max_iterations():
    t = matrix_with_inv_norm(4, 0.95, np.random.default_rng(14))
    p = PwlsProblem(T=t, b=np.ones(4) * 5.0)
    report = fixed_point_solve(p, 100.0 * np.ones(4), SolverOptions(max_iter=2))
    assert report.status is SolveStatus.MAX_ITERATIONS


def test_fixed_point_agrees_with_newton():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        t = matrix_with_inv_norm(n, float(rng.uniform(0.1, 0.4)), rng)
        b = rng.standard_normal(n)
        p = PwlsProblem(T=t, b=b)
        newton = newton_solve(p, rng.standard_normal(n))
        fixed = fixed_point_solve(p, np.zeros(n), SolverOptions(tol_step=1e-12, max_iter=200))
        assert newton.converged and fixed.converged
        assert np.abs(newton.solution - fixed.solution).max() <= 1e-8


# -------------------------------------------------------- enumerator


def test_enumerate_two_zero_example():
    solutions, singular = enumerate_solutions(PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS))
    assert len(solutions) == 1
    np.testing.assert_array_equal(solutions[0], [0.0, 1.0])
    assert np.array_equal(singular, [[True, False], [True, True]])
    assert all(s.dtype == bool for s in singular)


def test_enumerate_cycle_problem_unique_zero():
    solutions, singular = enumerate_solutions(cycle_problem())
    assert singular == []
    assert len(solutions) == 1
    np.testing.assert_array_equal(solutions[0], [2.0, -1.0])


def test_enumerate_diagonal():
    solutions, singular = enumerate_solutions(PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0]))
    assert singular == []
    assert len(solutions) == 1
    np.testing.assert_allclose(solutions[0], [1.0, -1.0], atol=1e-15)


def test_enumerate_size_guard():
    p = PwlsProblem(T=np.eye(21), b=np.zeros(21) + 1.0)
    with pytest.raises(SizeGuardError):
        enumerate_solutions(p)


def test_enumerate_solutions_sign_consistent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        t = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        solutions, _ = enumerate_solutions(PwlsProblem(T=t, b=b))
        for x in solutions:
            assert np.abs(residual(PwlsProblem(T=t, b=b), x)).max() <= 1e-8 * (1 + np.abs(b).max())


# -------------------------------------------------- condition report


def test_check_conditions_diagonal():
    report = check_conditions(PwlsProblem(T=3.0 * np.eye(3), b=np.zeros(3) + 1.0))
    assert report.inv_norm == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert report.existence_ok and report.rate_ok
    assert report.predicted_rate == pytest.approx(0.5, rel=1e-8)


def test_check_conditions_cycle_matrix():
    report = check_conditions(cycle_problem())
    assert abs(report.inv_norm - 3.8644) <= 1e-3
    assert not report.existence_ok and not report.rate_ok
    assert report.predicted_rate is None


def test_check_conditions_boundary_is_strict():
    report = check_conditions(PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS))
    assert report.inv_norm == pytest.approx(1.0, rel=1e-9)
    assert not report.existence_ok


def test_near_tied_inverse_norm_just_above_one():
    # ||T^-1|| = 1 + 1e-7, and the second singular value of T^-1 sits
    # 1e-6 below it: the map is not a contraction
    eps = 1e-7
    t = np.diag([1.0 / (1.0 + eps), 1.0 / ((1.0 + eps) * (1.0 - 1e-6))])
    p = PwlsProblem(T=t, b=[1.0, 1.0])
    report = check_conditions(p)
    assert report.inv_norm == pytest.approx(1.0 + eps, rel=1e-12)
    assert not report.existence_ok
    with pytest.raises(ContractionHypothesisError, match=r"1\.0000001"):
        fixed_point_solve(p, np.zeros(2))


def test_check_conditions_singular():
    report = check_conditions(PwlsProblem(T=np.zeros((2, 2)), b=[1.0, 1.0]))
    assert report.inv_norm == float("inf")
    assert not report.existence_ok and not report.rate_ok
    assert report.predicted_rate is None


def test_condition_report_internal_consistency():
    rng = np.random.default_rng(18)
    for _ in range(20):
        lam = float(rng.uniform(0.05, 2.0))
        t = matrix_with_inv_norm(4, lam, rng)
        report = check_conditions(PwlsProblem(T=t, b=np.zeros(4) + 1.0))
        assert report.contraction_modulus == report.inv_norm
        if report.rate_ok:
            assert report.existence_ok
        if report.predicted_rate is not None:
            assert (report.predicted_rate < 1.0) == report.rate_ok


# ------------------------------------------------ definite sign rows


def test_definite_sign_rows_examples():
    examples = [
        [[-2.0, -3.0, -1.0], [1.0, 1.0, 2.0], [5.0, 2.0, 1.0]],
        [[2.0, 3.0, 1.0], [1.0, 1.0, 2.0], [5.0, 2.0, 1.0]],
        [[-2.0, -3.0, -1.0], [-1.0, -1.0, -2.0], [-5.0, -2.0, -1.0]],
    ]
    for m in examples:
        assert definite_sign_rows(m).has_definite_sign_rows


def test_definite_sign_rows_mixed():
    assert not definite_sign_rows([[1.0, -1.0], [0.0, 1.0]]).has_definite_sign_rows


def test_definite_sign_rows_index_sets():
    cls = definite_sign_rows(np.diag([-2.0, 5.0]))
    assert cls.has_definite_sign_rows
    assert cls.i_minus == (0,)
    assert cls.i_plus == (1,)


def test_definite_sign_rows_zero_row_goes_to_plus():
    cls = definite_sign_rows([[0.0, 0.0], [-1.0, -1.0]])
    assert cls.has_definite_sign_rows
    assert cls.i_plus == (0,)
    assert cls.i_minus == (1,)


def test_definite_sign_rows_partition_when_definite():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        signs = rng.choice([-1.0, 1.0], n)
        m = signs[:, np.newaxis] * rng.uniform(0.0, 1.0, (n, n))
        cls = definite_sign_rows(m)
        assert cls.has_definite_sign_rows
        assert set(cls.i_plus) | set(cls.i_minus) == set(range(n))
        assert set(cls.i_plus) & set(cls.i_minus) == set()


# ------------------------------------- finite termination hypothesis


def test_hypothesis_diagonal_true():
    assert check_finite_termination_hypothesis(PwlsProblem(T=3.0 * np.eye(2), b=[1.0, 1.0]))


def test_hypothesis_cycle_matrix_false():
    assert not check_finite_termination_hypothesis(cycle_problem())


def test_hypothesis_singular_pattern_false():
    assert not check_finite_termination_hypothesis(PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS))


def test_hypothesis_m_matrix_true():
    rng = np.random.default_rng(19)
    t = m_matrix(5, rng)
    assert check_finite_termination_hypothesis(PwlsProblem(T=t, b=rng.standard_normal(5)))


def test_hypothesis_sampled_patterns_for_large_n():
    n = 25
    p = PwlsProblem(T=3.0 * np.eye(n), b=np.ones(n))
    patterns = [tuple([0] * n), tuple([1] * n), tuple([1, 0] * 12 + [1]), np.ones(n, dtype=bool)]
    assert check_finite_termination_hypothesis(p, patterns)
    with pytest.raises(SizeGuardError):
        check_finite_termination_hypothesis(p)


@pytest.mark.parametrize("pattern, error", [
    ([1], DimensionError),
    ([1, 1, 0], DimensionError),
    ([2, 0], ValueError),
    ([0.5, 1], ValueError),
    ([-1, 0], ValueError),
], ids=["short", "long", "two", "half", "minus-one"])
def test_hypothesis_rejects_malformed_patterns(pattern, error):
    p = PwlsProblem(T=np.diag([-1.0, 3.0]), b=[1.0, 1.0])
    with pytest.raises(error) as info:
        check_finite_termination_hypothesis(p, [pattern])
    assert info.type is error


def test_monotone_trajectories_under_hypothesis():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        t = m_matrix(n, rng)
        p = PwlsProblem(T=t, b=rng.standard_normal(n) * 3.0)
        assert check_finite_termination_hypothesis(p)
        report = newton_solve(p, rng.standard_normal(n) * 5.0, SolverOptions(keep_iterates=True))
        assert report.status is SolveStatus.CONVERGED_EXACT
        trace = report.iterate_trace
        for k in range(1, len(trace) - 1):
            step_matrix = np.diag(np.asarray(report.pattern_trace[k], float)) + t
            cls = definite_sign_rows(lu_inverse(lu_factor(step_matrix)))
            scale = 1e-9 * (1.0 + np.abs(trace[k]).max())
            for i in cls.i_plus:
                assert trace[k + 1][i] <= trace[k][i] + scale
            for i in cls.i_minus:
                assert trace[k + 1][i] >= trace[k][i] - scale


# --------------------------------------------------- shared inequality


def test_positive_part_linearization_inequality():
    # ||y+ - x+ - diag(sgn(x+)) (y - x)|| <= ||y - x|| for all pairs
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        x = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        y = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        pattern = np.asarray(sign_pattern(x), float)
        lhs = np.linalg.norm(np.maximum(y, 0) - np.maximum(x, 0) - pattern * (y - x))
        assert lhs <= np.linalg.norm(y - x)
