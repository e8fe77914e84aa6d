import gc
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from _oracles import definite_sign_rows, enumerate_solutions, finite_termination_holds, fixed_point
from _random_problems import (
    EXTREME_FINITE_VECTORS,
    m_matrix,
    matrix_with_inv_norm,
    non_finite_vectors,
    planted_pwls,
    spy_on,
)

from pwlnewton import (
    DimensionError,
    GeneratorConfig,
    PwlsProblem,
    SolveStatus,
    SolverOptions,
    check_conditions,
    make_batch,
    newton_solve,
    qp_to_pwls,
    residual,
    sign_pattern,
)
from pwlnewton import linalg, pwls
from pwlnewton.linalg import PIVOT_RTOL, Factor, factor
from pwlnewton.pwls import REUSE_MIN_SIZE, _pattern_matrix

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


@pytest.mark.parametrize("v", non_finite_vectors())
def test_sign_pattern_rejects_every_non_finite_entry(v):
    with pytest.raises(ValueError, match="^vector must contain only finite values$"):
        sign_pattern(v)


def test_sign_pattern_accepts_the_finite_extremes_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        patterns = [sign_pattern(v).tolist() for v in EXTREME_FINITE_VECTORS]
    assert patterns == [[True, False, True, False], [True], [True], [False]]


def test_overflowing_iterate_raises_from_the_library():
    # the second coordinate's step is 1e300 / 1e-11; the CLI names it the same way
    p = PwlsProblem(T=[[1e-11, 0.0], [0.0, 1.0]], b=[1e300, 1.0])
    with pytest.raises(ValueError) as raised:
        newton_solve(p, np.zeros(2))
    assert raised.value.args == ("Newton iterate 1 is not finite (the step overflowed)",)


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


def test_pattern_matrix_is_t_plus_diag_bitwise():
    # the Newton step passes bool patterns; 0/1 float patterns must give the
    # same bits too, so the diagonal add cannot depend on the pattern's dtype;
    # -0.0 + 0.0 is +0.0 on both sides
    rng = np.random.default_rng(3)
    for n in (1, 2, 7):
        t = rng.standard_normal((n, n))
        t[np.diag_indices(n)] = np.where(np.arange(n) % 2 == 0, -0.0, t.diagonal())
        before = t.copy()
        draws = [np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.5]
        for s in draws + [d.astype(float) for d in draws]:
            for layout in (t, np.asfortranarray(t)):
                m = _pattern_matrix(layout, s)
                assert m.flags.f_contiguous
                assert m.tobytes() == (t + np.diag(s)).tobytes()
        assert t.tobytes() == before.tobytes()


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


def test_cycle_points_needs_a_cycle_and_kept_iterates():
    converged = newton_solve(cycle_problem(), [-3.0, 3.0], SolverOptions(keep_iterates=True))
    with pytest.raises(ValueError, match="report has no cycle"):
        converged.cycle_points()
    cycled = newton_solve(cycle_problem(), [1.0, 1.0])
    assert cycled.status is SolveStatus.CYCLED
    with pytest.raises(ValueError, match="iterates were not kept"):
        cycled.cycle_points()


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


def test_known_solution_rule_is_invariant_under_scaling_by_2_to_the_600():
    # every iterate scales exactly, and the rule's sums of squares must not overflow
    scale = 2.0**600
    n = 8
    for seed in range(40):
        rng = np.random.default_rng(seed)
        t = 4.0 * np.eye(n) + rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        b = np.maximum(u, 0.0) + t @ u
        runs = []
        for s in (1.0, scale):
            opts = SolverOptions(known_solution=s * u, keep_iterates=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(newton_solve(PwlsProblem(T=t, b=s * b), np.zeros(n), opts))
        plain, scaled = runs
        assert (scaled.status, scaled.iterations) == (plain.status, plain.iterations)
        for x, y in zip(plain.iterate_trace, scaled.iterate_trace, strict=True):
            assert np.array_equal(y, scale * x)


def test_newton_solve_singular_jacobian_status():
    # pattern (1,1) turns diag(-1,1) into diag(0,2); [1,5] is not a solution
    p = PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS)
    report = newton_solve(p, [1.0, 5.0])
    assert report.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == 0
    assert report.solution is None


def test_newton_solve_converges_on_a_badly_scaled_diagonal_t():
    # diag(1e13, 1) + diag(s) is SPD, and the Cholesky step's Jacobi-scaled
    # pivot rule does not flag it, where LU's rule against max|M| did
    report = newton_solve(PwlsProblem(T=np.diag([1e13, 1.0]), b=[1.0, 1.0]), np.zeros(2))
    assert report.status is SolveStatus.CONVERGED_EXACT
    np.testing.assert_allclose(report.solution, [1e-13, 0.5], rtol=1e-12)


def test_newton_solve_max_iterations():
    report = newton_solve(cycle_problem(), [1.0, 1.0], SolverOptions(max_iter=1))
    assert report.status is SolveStatus.MAX_ITERATIONS
    assert report.iterations == 1


@pytest.mark.parametrize("problem, x0, opts, status", [
    # the known-solution rule stops at once; the start is not the solution
    (PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0]), [1.2, -1.1],
     SolverOptions(known_solution=[1.0, -1.0], tol_x=0.5), SolveStatus.CONVERGED),
    (PwlsProblem(T=[[3.0, 1.0], [0.5, 2.0]], b=[1.0, -1.0]), [0.0, 0.0],
     SolverOptions(), SolveStatus.CONVERGED_EXACT),
    (cycle_problem(), [1.0, 1.0], SolverOptions(max_iter=1), SolveStatus.MAX_ITERATIONS),
    (PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS), [1.0, 5.0], SolverOptions(),
     SolveStatus.SINGULAR_JACOBIAN),
    (cycle_problem(), [1.0, 1.0], SolverOptions(), SolveStatus.CYCLED),
])
def test_final_residual_norm_is_residual_of_last_iterate(problem, x0, opts, status):
    report = newton_solve(problem, x0, opts)
    assert report.status is status
    assert report.final_residual_norm == float(np.abs(residual(problem, report.last_iterate)).max())
    assert report.solution is (report.last_iterate if report.converged else None)


# x+ + 3x = [0, -3] is solved by [0, -1]; the step from [1, -1]'s pattern lands
# on it exactly, with a new pattern, so the residual rule (not a repeat) stops it
ZERO_ENTRY = PwlsProblem(T=3.0 * np.eye(2), b=[0.0, -3.0])


@pytest.mark.parametrize("problem, x0, opts, status", [
    (PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0]), [1.2, -1.1],
     SolverOptions(known_solution=[1.0, -1.0], tol_x=0.5), SolveStatus.CONVERGED),
    (PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0]), [9.0, 9.0],
     SolverOptions(known_solution=[1.0, -1.0]), SolveStatus.CONVERGED),
    (cycle_problem(), [1.0, 1.0], SolverOptions(known_solution=[2.0, -1.0], max_iter=1),
     SolveStatus.MAX_ITERATIONS),
    (PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS), [1.0, 5.0],
     SolverOptions(known_solution=[0.0, 2.0]), SolveStatus.SINGULAR_JACOBIAN),
    (cycle_problem(), [1.0, 1.0], SolverOptions(known_solution=[2.0, -1.0]),
     SolveStatus.CYCLED),
], ids=["converged-at-x0", "converged", "max-iterations", "singular", "cycled"])
def test_known_solution_report_evaluates_the_residual_once_when_read(
        monkeypatch, problem, x0, opts, status):
    calls = spy_on(monkeypatch, "residual")
    report = newton_solve(problem, x0, opts)
    assert report.status is status
    assert calls == []  # the distance rule never needs the residual
    value = report.final_residual_norm
    assert value == report.final_residual_norm
    assert len(calls) == 1 and calls[0][0][1] is report.last_iterate
    assert value == float(np.abs(residual(problem, report.last_iterate)).max())


@pytest.mark.parametrize("problem, x0, max_iter, status", [
    (ZERO_ENTRY, [0.0, -1.0], 100, SolveStatus.CONVERGED),
    (ZERO_ENTRY, [1.0, -1.0], 100, SolveStatus.CONVERGED),
    (PwlsProblem(T=[[3.0, 1.0], [0.5, 2.0]], b=[1.0, -1.0]), [0.0, 0.0], 100,
     SolveStatus.CONVERGED_EXACT),
    (cycle_problem(), [1.0, 1.0], 1, SolveStatus.MAX_ITERATIONS),
    (PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS), [1.0, 5.0], 100, SolveStatus.SINGULAR_JACOBIAN),
    (cycle_problem(), [1.0, 1.0], 100, SolveStatus.CYCLED),
], ids=["converged-at-x0", "converged", "converged-exact", "max-iterations", "singular",
        "cycled"])
def test_residual_rule_evaluates_each_judged_iterate_once(monkeypatch, problem, x0, max_iter,
                                                          status):
    calls = spy_on(monkeypatch, "residual")
    report = newton_solve(problem, x0, SolverOptions(max_iter=max_iter, keep_iterates=True))
    assert report.status is status
    # every iterate the rule judged, x0 included, in order; ConvergedExact
    # stops on a repeated pattern before judging its last iterate
    exact = status is SolveStatus.CONVERGED_EXACT
    judged = report.iterate_trace[:-1] if exact else report.iterate_trace
    assert len(calls) == len(judged)
    assert all(args[1] is x for (args, _), x in zip(calls, judged))
    value = report.final_residual_norm
    assert value == report.final_residual_norm
    assert len(calls) == len(judged) + exact
    assert calls[-1][0][1] is report.last_iterate
    assert value == float(np.abs(residual(problem, report.last_iterate)).max())


def test_newton_solve_rejects_known_solution_of_wrong_length():
    with pytest.raises(DimensionError, match=r"known_solution has length 3, expected 2"):
        newton_solve(cycle_problem(), [1.0, 1.0], SolverOptions(known_solution=[1.0, 2.0, 3.0]))


def test_stopping_rule_boundaries():
    # distance equal to tol_x * (1 + ||u||) = 0.25 misses the strict rule
    report = newton_solve(PwlsProblem(T=[[1.0]], b=[0.0]), [0.25],
                          SolverOptions(known_solution=[0.0], tol_x=0.25))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    # residual |0 + 0 - 1| equal to tol_f * (1 + max|b|) = 1.0 meets the rule
    report = newton_solve(PwlsProblem(T=[[1.0]], b=[1.0]), [0.0], SolverOptions(tol_f=0.5))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    # the same boundaries at iterate 1: from -1 the step lands on 0.5, at
    # distance 0.5 = tol_x from u = 0, so only iterate 2 (0.25) stops
    report = newton_solve(PwlsProblem(T=[[1.0]], b=[0.5]), [-1.0],
                          SolverOptions(known_solution=[0.0], tol_x=0.5))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 2
    # and the step lands on 1 with residual 1 + 1 - 1 = 1.0, the bound
    report = newton_solve(PwlsProblem(T=[[1.0]], b=[1.0]), [-1.0], SolverOptions(tol_f=0.5))
    assert report.status is SolveStatus.CONVERGED
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
        solutions, _ = enumerate_solutions(t, b)
        assert len(solutions) == 1
        assert np.abs(report.solution - solutions[0]).max() <= 1e-8


# ------------------------------------------------- held-factor steps


def generated_pwls(n, seed, count=3):
    """T/b forms of generated instances with beta in (0.5, 1e3), with their starts."""
    cfg = GeneratorConfig(n=n, beta_low=0.5, beta_high=1e3, seed=seed)
    return [(qp_to_pwls(inst.q), inst.x0) for inst in make_batch(cfg, count)]


def backward_error(p, x):
    """||x+ + Tx - b||_inf / (||T||_inf ||x||_inf + ||b||_inf)."""
    scale = np.abs(p.T).sum(axis=1).max() * np.abs(x).max() + np.abs(p.b).max()
    return np.abs(residual(p, x)).max() / scale


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_held_factor_step_matches_fresh_step(seed, monkeypatch):
    # the reference factors T + diag(s) afresh at every step; a reused step
    # must take the same patterns to the same status, and each iterate may
    # differ from the fresh one only within the forward-error bound
    # n cond(T + diag(s)) eps of a backward-stable solve
    n, eps = 100, np.finfo(float).eps
    opts = SolverOptions(keep_iterates=True)
    cases = generated_pwls(n, seed)
    solves = spy_on(monkeypatch, "lu_solve")
    reports = [newton_solve(p, x0, opts) for p, x0 in cases]
    assert any(np.ndim(args[1]) == 2 for args, _ in solves)
    monkeypatch.setattr(pwls, "REUSE_MIN_SIZE", n + 1)
    for (p, x0), report in zip(cases, reports):
        fresh = newton_solve(p, x0, opts)
        assert report.status is fresh.status
        assert report.iterations == fresh.iterations
        assert np.array_equal(report.pattern_trace, fresh.pattern_trace)
        for k in range(1, report.iterations + 1):
            cond = np.linalg.cond(_pattern_matrix(p.T, report.pattern_trace[k - 1]))
            x, expected = report.iterate_trace[k], fresh.iterate_trace[k]
            assert np.abs(x - expected).max() <= n * cond * eps * np.abs(expected).max()
        if report.status is SolveStatus.CONVERGED_EXACT:
            assert backward_error(p, report.solution) <= n * eps


def with_one_ulp_asymmetry(p):
    """The same problem with T[0, 1] moved up by one ulp: nonsymmetric, so its steps take LU."""
    t = p.T.copy()
    t[0, 1] = np.nextafter(t[0, 1], np.inf)
    return PwlsProblem(T=t, b=p.b)


@pytest.mark.parametrize("n", [7, 100, 150])
def test_symmetric_t_steps_by_cholesky_to_the_lu_outcome(n, monkeypatch):
    # qp_to_pwls gives an exactly symmetric SPD T, so every fresh step is a
    # Cholesky factor; the LU steps of a one-ulp asymmetric T take the same
    # patterns to the same status, with iterates equal up to rounding
    opts = SolverOptions(keep_iterates=True)
    cases = generated_pwls(n, seed=0)
    factors = spy_on(monkeypatch, "lu_factor")
    solves = spy_on(monkeypatch, "lu_solve")
    reports = [newton_solve(p, x0, opts) for p, x0 in cases]
    assert all(p.symmetric for p, _ in cases)
    fresh = [f for args, (f, _) in factors if len(args[0]) == n]
    assert len(fresh) > len(cases) and all(f.piv is None for f in fresh)
    assert (len(solves) > 0) == (n >= REUSE_MIN_SIZE)  # bordered steps at n >= 64
    factors.clear()
    for (p, x0), report in zip(cases, reports, strict=True):
        lu = newton_solve(with_one_ulp_asymmetry(p), x0, opts)
        assert (lu.status, lu.iterations) == (report.status, report.iterations)
        assert np.array_equal(lu.pattern_trace, report.pattern_trace)
        for x, y in zip(report.iterate_trace, lu.iterate_trace, strict=True):
            assert np.abs(x - y).max() <= 1e-10 * (1.0 + np.abs(x).max())
    assert all(f.piv is not None for args, (f, _) in factors if len(args[0]) == n)


def symmetric_indefinite_cases():
    # every T + diag(s) of this T is indefinite: its determinant is negative
    t = np.array([[-1.0, 0.5], [0.5, 1.0]])
    for b in ([1.0, -1.0], [-1.0, 2.0], [0.3, -0.7]):
        for x0 in ([1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
            yield PwlsProblem(T=t, b=b), np.array(x0)
    # eigenvalues of T down to -9 or below: some step matrices are indefinite
    rng = np.random.default_rng(7)
    for n in (100, 150):
        g = rng.standard_normal((n, n))
        t = 0.5 * g + 0.5 * g.T
        t[np.diag_indices(n)] += 0.5 * np.sqrt(n)
        u = rng.standard_normal(n)
        x0 = u.copy()
        x0[:5] = -x0[:5]
        yield PwlsProblem(T=t, b=np.maximum(u, 0.0) + t @ u), x0


def test_symmetric_indefinite_t_tries_cholesky_once_per_solve(monkeypatch):
    # the first failed posv switches the rest of the solve to LU, so the
    # solve ends as with LU at every step (on the one-ulp asymmetric T)
    posv = linalg.dposv
    calls = []
    monkeypatch.setattr(linalg, "dposv", lambda *args, **kwargs: calls.append(1)
                        or posv(*args, **kwargs))
    for p, x0 in symmetric_indefinite_cases():
        calls.clear()
        report = newton_solve(p, x0)
        assert p.symmetric and len(calls) == 1
        lu = newton_solve(with_one_ulp_asymmetry(p), x0)
        assert len(calls) == 1
        assert report.status is lu.status is SolveStatus.CONVERGED_EXACT
        assert report.iterations == lu.iterations
        assert np.array_equal(report.pattern_trace, lu.pattern_trace)


def pivot_rule_matrices():
    rng = np.random.default_rng(61)
    yield rng.standard_normal((7, 7))
    # rows 0 and 1 are proportional: getrf meets an exact zero pivot
    yield np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
    # rows scaled from 1e-150 to 1e150
    yield rng.standard_normal((6, 6)) * np.logspace(-150.0, 150.0, 6)[:, np.newaxis]
    # smallest pivots at, and just below, PIVOT_RTOL * max|M|
    yield np.diag([1.0, 1e-12])
    yield np.diag([1.0, 0.99e-12])


@pytest.mark.parametrize("scale", [None, 0.5, 1e10])
def test_step_kernels_share_the_exported_pivot_rule(scale):
    # the Newton steps factor and solve through linalg's one entry point,
    # which solves as it factors, and solve again with a held factor; its
    # factors and both solutions are scipy's byte for byte, and its flag is
    # the stated rule: min|U_ii| < PIVOT_RTOL * max(max|M|, scale).  Each call
    # factors its own copy of the matrix, which it may overwrite.
    assert pwls.lu_factor is factor and pwls.lu_solve is Factor.solve
    rng = np.random.default_rng(62)
    flags = set()
    for m in pivot_rule_matrices():
        size = None if scale is None else scale * float(np.abs(m).max())
        for a in (m, np.asfortranarray(m)):
            with warnings.catch_warnings():  # scipy warns on an exact zero pivot
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(a, check_finite=False)
            judged = max(float(np.abs(m).max()), size or 0.0)
            for rhs in (rng.standard_normal(m.shape[0]), rng.standard_normal((m.shape[0], 3))):
                f, x = pwls.lu_factor(a.copy(order="K"), rhs, size)
                assert f.lu.tobytes() == lu.tobytes() and f.piv.tobytes() == piv.tobytes()
                assert f.singular is bool(np.abs(lu.diagonal()).min() < PIVOT_RTOL * judged)
                flags.add(f.singular)
                if f.singular:
                    continue
                expected = sla.lu_solve((lu, piv), rhs, check_finite=False)
                assert x.tobytes() == expected.tobytes()
                assert pwls.lu_solve(f, rhs).tobytes() == expected.tobytes()
    assert flags == {False, True}


def test_newton_solve_is_independent_of_the_layout_of_t(monkeypatch):
    # qp_to_pwls gives a column-major T, a JSON file a row-major one; the
    # step matrix is built column-major from either, so fresh and bordered
    # steps see the same bits.  tol_f is the smallest positive double, so in
    # effect only a pattern repeat stops the run, not the layout-dependent
    # rounding of the residual T x.
    n = 100
    opts = SolverOptions(tol_f=5e-324, keep_iterates=True)
    solves = spy_on(monkeypatch, "lu_solve")
    for p, x0 in generated_pwls(n, seed=4):
        runs = []
        for t in (np.ascontiguousarray(p.T), np.asfortranarray(p.T)):
            problem = PwlsProblem(T=t, b=p.b)
            assert problem.T.flags.c_contiguous == t.flags.c_contiguous
            runs.append(newton_solve(problem, x0, opts))
        row_major, column_major = runs
        assert row_major.status is column_major.status
        assert row_major.iterations == column_major.iterations
        assert np.array_equal(row_major.pattern_trace, column_major.pattern_trace)
        for x, y in zip(row_major.iterate_trace, column_major.iterate_trace, strict=True):
            assert x.tobytes() == y.tobytes()
    # a held factor solved against a border: at least one step was bordered
    assert any(np.ndim(args[1]) == 2 for args, _ in solves)


# Solves 20 T/b problems whose T, b and x0 are drawn without BLAS, with
# reuse steps counted, and prints a hash of every kept iterate.
THREAD_RUN = """
import hashlib
import numpy as np
from pwlnewton import pwls
held = []
solve = pwls.lu_solve
pwls.lu_solve = lambda f, rhs: held.append(1) or solve(f, rhs)
rng = np.random.default_rng(2027)
h = hashlib.sha256()
for n in np.linspace(100, 300, 20).astype(int):
    t = rng.standard_normal((n, n))
    t[np.diag_indices(n)] += 1.2 * np.sqrt(n)
    p = pwls.PwlsProblem(T=t, b=rng.standard_normal(n))
    report = pwls.newton_solve(p, rng.standard_normal(n), pwls.SolverOptions(keep_iterates=True))
    for x in report.iterate_trace:
        h.update(x.tobytes())
print(h.hexdigest(), len(held))
"""


# Solves 10 T/b problems with an exactly symmetric SPD T of order 128 to
# 300, drawn without BLAS, and prints each (status, iterations), then how
# many steps posv factored at order >= 128.
SYMMETRIC_THREAD_RUN = """
import numpy as np
from pwlnewton import pwls
core = pwls.lu_factor
large = []
def spy(m, rhs, *args, **kwargs):
    f, x = core(m, rhs, *args, **kwargs)
    large.append(len(m) >= 128 and f.piv is None)
    return f, x
pwls.lu_factor = spy
rng = np.random.default_rng(2027)
for n in np.linspace(128, 300, 10).astype(int):
    g = rng.standard_normal((n, n))
    t = 0.5 * g + 0.5 * g.T
    t[np.diag_indices(n)] += 2.0 * np.sqrt(n)
    p = pwls.PwlsProblem(T=t, b=rng.standard_normal(n))
    report = pwls.newton_solve(p, rng.standard_normal(n))
    print(report.status.value, report.iterations)
print(sum(large))
"""


def outputs_at_one_and_two_blas_threads(script: str) -> list[list[str]]:
    """The stdout words of script run by python at OPENBLAS_NUM_THREADS 1 and 2."""
    source = str(Path(pwls.__file__).parents[1])
    procs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                                       PYTHONPATH=source))
             for threads in (1, 2)]
    outputs = [proc.communicate(timeout=300)[0].split() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    return outputs


def test_newton_solve_is_independent_of_the_blas_thread_count():
    # with one right-hand side OpenBLAS's gesv runs on one thread, so fresh
    # and bordered steps on a nonsymmetric T give the same bytes at 1 and 2
    # BLAS threads
    outputs = outputs_at_one_and_two_blas_threads(THREAD_RUN)
    assert int(outputs[0][1]) > 0  # some steps were bordered
    assert outputs[0] == outputs[1]


def test_symmetric_t_statuses_and_iterations_are_independent_of_the_blas_thread_count():
    # OpenBLAS's posv runs threaded from order 128 up, so the Cholesky steps
    # of a symmetric T may differ in their last bits at 1 and 2 BLAS
    # threads; the statuses and iteration counts agree
    outputs = outputs_at_one_and_two_blas_threads(SYMMETRIC_THREAD_RUN)
    assert len(outputs[0]) == 21
    assert int(outputs[0][-1]) > 0  # some steps factored by posv at order >= 128
    assert outputs[0][:-1] == outputs[1][:-1]


def flagged_capacitance_case():
    # T is diagonal.  From x0, M = T + diag(p) has M_00 = -1e-10, so
    # (M^-1)_00 = -1e10; the first step leaves index 0 and enters index 2,
    # where T_22 = -1/0.999.  The capacitance matrix is then diag(1e10, 1e-3)
    # up to sign, flagged singular at the scale of its largest entry, while
    # T + diag(s) is diagonal with entries of at least 1e-3 in size.  The
    # step factors it afresh and the run goes on to the solution.
    n = 64
    t = np.full(n, 2.0)
    t[0], t[2] = -1.0 - 1e-10, -1.0 / 0.999
    b = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    b[0], b[2] = 0.5e-10, -1.0
    x0 = b.copy()
    x0[0], x0[2] = 1.0, -1.0
    return PwlsProblem(T=np.diag(t), b=b), x0


def test_flagged_capacitance_falls_back_to_a_fresh_factor(monkeypatch):
    p, x0 = flagged_capacitance_case()
    n = p.n
    factors = spy_on(monkeypatch, "lu_factor")
    report = newton_solve(p, x0)
    assert [(args[0].shape[0], f.singular) for args, (f, _) in factors] == [
        (n, False), (2, True), (n, False)]
    monkeypatch.setattr(pwls, "REUSE_MIN_SIZE", n + 1)
    fresh = newton_solve(p, x0)
    assert report.status is fresh.status is SolveStatus.CONVERGED_EXACT
    assert report.iterations == fresh.iterations == 2
    assert np.array_equal(report.pattern_trace, fresh.pattern_trace)
    np.testing.assert_array_equal(report.solution, fresh.solution)


def test_singular_pattern_matrix_ends_singular_jacobian_as_fresh(monkeypatch):
    # rows 0 and 1 of T + diag(s) are bitwise equal when s_0 = 1 and s_1 = 0.
    # The start's pattern p has s_0 = 0 and the first step's iterate is built
    # to have pattern s, so the second step differs from the held pattern in
    # index 0 alone.  Its 1 x 1 capacitance matrix 1 + (M^-1)_00 is zero in
    # exact arithmetic and rounding-level in floating point; judged at the
    # size of its terms it is flagged, and the fresh factor of the exactly
    # singular T + diag(s) ends the run, as with a fresh factor at every step.
    n = 64
    rng = np.random.default_rng(0)
    t = 4.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
    t[1] = t[0]
    t[1, 0] = t[0, 0] + 1.0
    held = rng.random(n) < 0.5
    held[:2] = False
    s = held.copy()
    s[0] = True
    b = _pattern_matrix(t, held) @ (np.where(s, 1.0, -1.0) * rng.uniform(0.5, 1.5, n))
    x0 = np.where(held, 1.0, -1.0)
    p = PwlsProblem(T=t, b=b)
    factors = spy_on(monkeypatch, "lu_factor")
    report = newton_solve(p, x0)
    assert [(args[0].shape[0], f.singular) for args, (f, _) in factors] == [
        (n, False), (1, True), (n, True)]
    monkeypatch.setattr(pwls, "REUSE_MIN_SIZE", n + 1)
    fresh = newton_solve(p, x0)
    assert report.status is fresh.status is SolveStatus.SINGULAR_JACOBIAN
    assert report.iterations == fresh.iterations == 1
    assert np.array_equal(report.pattern_trace, fresh.pattern_trace)


def test_no_factor_is_alive_when_a_step_factors_afresh(monkeypatch):
    # the driver drops what it holds before every fresh step, the fallback
    # from a flagged capacitance matrix included: never two factors alive
    core = pwls.lu_factor
    alive = []

    def spy(m, rhs, scale=None, spd=False):
        if scale is None:  # a step matrix, not a capacitance matrix
            alive.append(sum(isinstance(o, Factor) for o in gc.get_objects()))
        return core(m, rhs, scale, spd)

    monkeypatch.setattr(pwls, "lu_factor", spy)
    cases = generated_pwls(100, seed=0) + [flagged_capacitance_case()]
    reports = [newton_solve(p, x0) for p, x0 in cases]
    assert sum(r.iterations for r in reports) > len(alive) > len(cases)
    assert alive == [0] * len(alive)


def test_no_reuse_below_min_size(monkeypatch):
    # below REUSE_MIN_SIZE every step factors the n x n step matrix, once,
    # and solves with it against b in the same call; no factor is held
    n = REUSE_MIN_SIZE - 1
    cases = generated_pwls(n, seed=3)
    factors = spy_on(monkeypatch, "lu_factor")
    solves = spy_on(monkeypatch, "lu_solve")
    steps = sum(newton_solve(p, x0).iterations for p, x0 in cases)
    assert steps > len(cases)
    assert [(args[0].shape, np.shape(args[1])) for args, _ in factors] == [((n, n), (n,))] * steps
    assert solves == []


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    # a non-integer cap used to pass here and fail later inside range()
    for max_iter in (2.5, math.inf):
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=max_iter)


@pytest.mark.parametrize("name", ["tol_f", "tol_x"])
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
    x = fixed_point(3.0 * np.eye(2), np.array([4.0, -3.0]), np.zeros(2), 1e-10, 100)
    assert x is not None
    np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-9)


def test_fixed_point_rejects_non_contraction():
    with pytest.raises(ValueError, match=r"T\^-1"):
        fixed_point(T_CYCLE, B_CYCLE, np.zeros(2), 1e-10, 100)
    with pytest.raises(ValueError, match=r"= inf is not below 1"):
        fixed_point(np.diag([0.0, 1.0]), np.ones(2), np.zeros(2), 1e-10, 100)


def test_fixed_point_max_iterations():
    t = matrix_with_inv_norm(4, 0.95, np.random.default_rng(14))
    assert fixed_point(t, np.ones(4) * 5.0, 100.0 * np.ones(4), 1e-10, 2) is None


def test_fixed_point_agrees_with_newton():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        t = matrix_with_inv_norm(n, float(rng.uniform(0.1, 0.4)), rng)
        b = rng.standard_normal(n)
        newton = newton_solve(PwlsProblem(T=t, b=b), rng.standard_normal(n))
        fixed = fixed_point(t, b, np.zeros(n), 1e-12, 200)
        assert newton.converged and fixed is not None
        assert np.abs(newton.solution - fixed).max() <= 1e-8


# -------------------------------------------------------- enumerator


def test_enumerate_two_zero_example():
    solutions, singular = enumerate_solutions(T_TWO_ZEROS, B_TWO_ZEROS)
    assert len(solutions) == 1
    np.testing.assert_array_equal(solutions[0], [0.0, 1.0])
    assert np.array_equal(singular, [[True, False], [True, True]])
    assert all(s.dtype == bool for s in singular)


def test_enumerate_cycle_problem_unique_zero():
    solutions, singular = enumerate_solutions(T_CYCLE, B_CYCLE)
    assert singular == []
    assert len(solutions) == 1
    np.testing.assert_array_equal(solutions[0], [2.0, -1.0])


def test_enumerate_diagonal():
    solutions, singular = enumerate_solutions(3.0 * np.eye(2), np.array([4.0, -3.0]))
    assert singular == []
    assert len(solutions) == 1
    np.testing.assert_allclose(solutions[0], [1.0, -1.0], atol=1e-15)


def test_enumerate_solutions_sign_consistent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        t = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        solutions, _ = enumerate_solutions(t, b)
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
    with pytest.raises(ValueError, match=r"\|\|T\^-1\|\| = 1\.0000001 "):
        fixed_point(t, p.b, np.zeros(2), 1e-10, 100)


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
        assert definite_sign_rows(m)


def test_definite_sign_rows_mixed():
    assert not definite_sign_rows([[1.0, -1.0], [0.0, 1.0]])


def test_definite_sign_rows_index_sets():
    assert definite_sign_rows(np.diag([-2.0, 5.0])) == ((1,), (0,))


def test_definite_sign_rows_zero_row_goes_to_plus():
    assert definite_sign_rows([[0.0, 0.0], [-1.0, -1.0]]) == ((0,), (1,))


def test_definite_sign_rows_partition_when_definite():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        signs = rng.choice([-1.0, 1.0], n)
        m = signs[:, np.newaxis] * rng.uniform(0.0, 1.0, (n, n))
        i_plus, i_minus = definite_sign_rows(m)
        assert set(i_plus) | set(i_minus) == set(range(n))
        assert set(i_plus) & set(i_minus) == set()


# ------------------------------------- finite termination hypothesis


def test_hypothesis_diagonal_true():
    assert finite_termination_holds(3.0 * np.eye(2))


def test_hypothesis_cycle_matrix_false():
    assert not finite_termination_holds(T_CYCLE)


def test_hypothesis_singular_pattern_false():
    assert not finite_termination_holds(T_TWO_ZEROS)


def test_hypothesis_m_matrix_true():
    rng = np.random.default_rng(19)
    assert finite_termination_holds(m_matrix(5, rng))


def test_monotone_trajectories_under_hypothesis():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        t = m_matrix(n, rng)
        p = PwlsProblem(T=t, b=rng.standard_normal(n) * 3.0)
        assert finite_termination_holds(t)
        report = newton_solve(p, rng.standard_normal(n) * 5.0, SolverOptions(keep_iterates=True))
        assert report.status is SolveStatus.CONVERGED_EXACT
        trace = report.iterate_trace
        for k in range(1, len(trace) - 1):
            step_matrix = np.diag(np.asarray(report.pattern_trace[k], float)) + t
            i_plus, i_minus = definite_sign_rows(np.linalg.inv(step_matrix))
            scale = 1e-9 * (1.0 + np.abs(trace[k]).max())
            for i in i_plus:
                assert trace[k + 1][i] <= trace[k][i] + scale
            for i in i_minus:
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
