"""Acceptance suite.

Each test exercises one exit criterion at its stated tolerance, asserts
its runtime budget, and prints one PASS line (visible with `pytest -s`);
a failing criterion shows up as an ordinary pytest failure.
"""

import time

import numpy as np
from _random_problems import matrix_with_inv_norm, planted_pwls, spd_near_identity

from pwlnewton import (
    ConeInstance,
    GeneratorConfig,
    PwlsProblem,
    QpProblem,
    SolveStatus,
    SolverOptions,
    cone_instance_to_qp,
    cone_projection,
    enumerate_solutions,
    fixed_point_solve,
    inv_spectral_norm,
    kkt_residual,
    kkt_scale,
    lu_factor,
    make_batch,
    make_spd_matrix,
    newton_solve,
    qp_newton_solve,
    qp_to_pwls,
    residual,
    run_bench_beta,
    run_bench_dim,
    run_bench_starts,
    spectral_norm,
)

T_CYCLE = np.array([[-2.0, 3.0], [-1.0, 1.0]])
B_CYCLE = np.array([-5.0, -3.0])
T_TWO_ZEROS = np.diag([-1.0, 1.0])
B_TWO_ZEROS = np.array([0.0, 2.0])


def _passed(number, label, elapsed, budget):
    print(f"criterion {number:2d} ({label}): PASS  [{elapsed:.3f}s < {budget}s]")


def test_criterion_01_golden_non_uniqueness():
    p = PwlsProblem(T=T_TWO_ZEROS, b=B_TWO_ZEROS)
    enumerate_solutions(p)  # warmup so the timed call measures steady state
    t0 = time.perf_counter()
    solutions, singular = enumerate_solutions(p)
    elapsed = time.perf_counter() - t0
    assert len(solutions) == 1
    np.testing.assert_array_equal(solutions[0], [0.0, 1.0])
    assert np.array_equal(singular, [[True, False], [True, True]])
    assert np.array_equal(residual(p, [1.0, 1.0]), [0.0, 0.0])
    assert np.array_equal(residual(p, [0.0, 1.0]), [0.0, 0.0])
    assert elapsed < 1e-3
    _passed(1, "2x2 non-uniqueness", elapsed, "0.001")


def test_criterion_02_golden_cycle():
    p = PwlsProblem(T=T_CYCLE, b=B_CYCLE)
    opts = SolverOptions(keep_iterates=True)
    newton_solve(p, [1.0, 1.0], opts)  # warmup
    inv_spectral_norm(p.T)
    t0 = time.perf_counter()
    report = newton_solve(p, [1.0, 1.0], opts)
    inv_norm = inv_spectral_norm(p.T)
    elapsed = time.perf_counter() - t0
    assert report.status is SolveStatus.CYCLED
    assert report.cycle is not None and report.cycle[1] == 2
    points = {tuple(x) for x in report.cycle_points()}
    assert points == {(4.0, 1.0), (-1.0, -2.0)}
    assert abs(inv_norm - 3.8644) <= 1e-3
    assert elapsed < 1e-3
    _passed(2, "2x2 cycle", elapsed, "0.001")


def test_criterion_03_qlinear_rate():
    rng = np.random.default_rng(2024_03)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 51))
        lam = float(rng.uniform(0.01, 0.45))
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
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(3, "Q-linear rate bound", elapsed, "10")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(2024_04)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 9))
        lam = float(rng.uniform(0.05, 0.4))
        t = matrix_with_inv_norm(n, lam, rng)
        b = rng.standard_normal(n)
        p = PwlsProblem(T=t, b=b)
        newton = newton_solve(p, rng.standard_normal(n))
        fixed = fixed_point_solve(p, np.zeros(n), SolverOptions(tol_step=1e-12, max_iter=300))
        solutions, _ = enumerate_solutions(p)
        assert newton.converged and fixed.converged
        assert len(solutions) == 1
        assert np.abs(newton.solution - fixed.solution).max() <= 1e-8
        assert np.abs(newton.solution - solutions[0]).max() <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(4, "three-way oracle agreement", elapsed, "30")


def test_criterion_05_linearization_inequality():
    rng = np.random.default_rng(2024_05)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10000):
        n = int(rng.integers(1, 11))
        x = rng.standard_normal(n) * rng.choice([0.01, 1.0, 100.0])
        y = rng.standard_normal(n) * rng.choice([0.01, 1.0, 100.0])
        pattern = (x > 0).astype(float)
        lhs = np.linalg.norm(np.maximum(y, 0) - np.maximum(x, 0) - pattern * (y - x))
        if lhs > np.linalg.norm(y - x):
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 1.0
    _passed(5, "positive-part linearization bound", elapsed, "1")


def test_criterion_06_step_matrix_never_singular():
    rng = np.random.default_rng(2024_06)
    t0 = time.perf_counter()
    singular_count = 0
    for _ in range(500):
        n = int(rng.integers(1, 16))
        a = rng.standard_normal((n, n))
        q = a.T @ a + 1e-6 * np.eye(n)
        qm_i = q - np.eye(n)
        for _ in range(8):
            bits = rng.integers(0, 2, n).astype(float)
            if lu_factor(qm_i * bits[np.newaxis, :] + np.eye(n)).singular:
                singular_count += 1
    elapsed = time.perf_counter() - t0
    assert singular_count == 0
    assert elapsed < 5.0
    _passed(6, "QP step matrix nonsingular", elapsed, "5")


def test_criterion_07_dimension_benchmark():
    t0 = time.perf_counter()
    tolxs = [1e-6, 1e-8, 1e-10]
    records = run_bench_dim([200], 100, tolxs, seed=2024_07, repeats=1)
    elapsed = time.perf_counter() - t0
    solve_rows = [r for r in records if r.index != "all"]
    assert len(solve_rows) == 300
    assert all(r.status == "Converged" for r in solve_rows)
    assert all(r.iterations <= 100 for r in solve_rows)
    means = {}
    for tolx in tolxs:
        iterations = [r.iterations for r in solve_rows if r.tolx == tolx]
        means[tolx] = float(np.mean(iterations))
        assert 1.5 <= means[tolx] <= 4.5
    assert means[1e-8] >= means[1e-6] - 1e-12
    assert means[1e-10] >= means[1e-8] - 1e-12
    assert means[1e-10] - means[1e-6] <= 0.5
    assert elapsed < 60.0
    _passed(7, f"n=200 benchmark, means {means[1e-6]:.2f}->{means[1e-10]:.2f}", elapsed, "60")


def test_criterion_08_start_point_benchmark():
    t0 = time.perf_counter()
    records = run_bench_starts(50, 50, 50, [1e-6], seed=2024_08, repeats=1)
    elapsed = time.perf_counter() - t0
    solve_rows = [r for r in records if ":" in r.index]
    assert len(solve_rows) == 2500
    assert all(r.status == "Converged" for r in solve_rows)
    mean_of_means = next(r.iterations for r in records if r.status == "mean-of-means")
    mean_of_stds = next(r.iterations for r in records if r.status == "mean-of-stds")
    assert 1.5 <= mean_of_means <= 4.0
    assert mean_of_stds <= 1.0
    assert elapsed < 120.0
    _passed(8, f"start robustness, mean {mean_of_means:.3f}, std {mean_of_stds:.3f}",
            elapsed, "120")


def test_criterion_09_beta_benchmark():
    ladder = [(0.5, 1e3), (1e3, 1e4), (1e4, 1e5), (1e5, 1e6)]
    t0 = time.perf_counter()
    records = run_bench_beta(ladder + [(1e7, 1e8)], 100, 50, [1e-6, 1e-10],
                             seed=2024_09, repeats=1)
    elapsed = time.perf_counter() - t0
    solved = {(r.beta, r.tolx): r.iterations for r in records if r.status == "solved-count"}
    means = {(r.beta, r.tolx): r.iterations for r in records if r.status == "iterations-mean"}
    assert solved[("[0.5,1000)", 1e-6)] >= 0.95 * 50
    assert 4.0 <= means[("[0.5,1000)", 1e-6)] <= 12.0
    assert solved[("[1e+07,1e+08)", 1e-10)] <= 0.20 * 50
    ladder_means = [means[(f"[{lb:g},{ub:g})", 1e-6)] for lb, ub in ladder]
    assert all(b >= a - 1e-12 for a, b in zip(ladder_means, ladder_means[1:]))
    assert elapsed < 120.0
    _passed(9, f"beta sweep, ladder means {[round(m, 2) for m in ladder_means]}",
            elapsed, "120")


def test_criterion_10_cone_projection():
    rng = np.random.default_rng(2024_10)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((n, n))
        if lu_factor(a).singular:
            a = a + np.eye(n)
        ci = ConeInstance(A=a, z=3.0 * rng.standard_normal(n))
        result = cone_projection(ci)
        assert result.report.converged
        kkt = kkt_residual(cone_instance_to_qp(ci), result.v)
        assert kkt.worst <= 1e-7 * kkt_scale(cone_instance_to_qp(ci))
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        point = a @ rng.uniform(0.0, 2.0, n)
        result = cone_projection(ConeInstance(A=a, z=point))
        assert np.linalg.norm(result.projection - point) <= 1e-8 * (1 + np.linalg.norm(point))
    z = rng.standard_normal(8)
    identity_result = cone_projection(ConeInstance(A=np.eye(8), z=z))
    assert np.array_equal(identity_result.projection, np.maximum(z, 0.0))
    # nonexpansiveness needs true projections on both sides, so pin the
    # fixed cone inside the guaranteed-convergence regime ||A^T A - I|| < 1/2
    a = np.eye(6) + 0.04 * rng.standard_normal((6, 6))
    assert spectral_norm(a.T @ a - np.eye(6)) < 0.5
    for _ in range(100):
        z1 = 4.0 * rng.standard_normal(6)
        z2 = 4.0 * rng.standard_normal(6)
        r1 = cone_projection(ConeInstance(A=a, z=z1))
        r2 = cone_projection(ConeInstance(A=a, z=z2))
        assert r1.report.converged and r2.report.converged
        assert np.linalg.norm(r1.projection - r2.projection) \
            <= np.linalg.norm(z1 - z2) + 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(10, "cone projection properties", elapsed, "30")


def test_criterion_11_cross_formulation():
    rng = np.random.default_rng(2024_11)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 31))
        beta = float(rng.uniform(0.05, 0.45))
        q = QpProblem(Q=spd_near_identity(n, beta, rng), b_tilde=rng.standard_normal(n))
        x0 = rng.standard_normal(n)
        via_qp = qp_newton_solve(q, x0)
        via_pwls = newton_solve(qp_to_pwls(q), x0)
        assert via_qp.converged and via_pwls.converged
        assert np.abs(via_qp.solution - via_pwls.solution).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(11, "QP/T-form equivalence", elapsed, "10")


def test_criterion_12_generator_identity():
    t0 = time.perf_counter()
    count = 34
    for beta in (0.01, 0.1, 0.49):
        cfg = GeneratorConfig(n=25, beta_low=beta, beta_high=beta * (1 + 1e-9),
                              seed=2024_12)
        for inst in make_batch(cfg, count):
            n = inst.q.n
            measured = spectral_norm(inst.q.Q - np.eye(n))
            assert abs(measured - inst.beta_used) <= 1e-6 * inst.beta_used
            assert abs(inst.beta_used - beta) <= 1e-8 * beta
            res = (inst.q.Q - np.eye(n)) @ np.maximum(inst.known_solution, 0.0) \
                + inst.known_solution + inst.q.b_tilde
            assert np.abs(res).max() <= 1e-8 * (1.0 + np.abs(inst.q.b_tilde).max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(12, "generator norm identity", elapsed, "30")
