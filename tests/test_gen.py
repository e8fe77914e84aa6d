import numpy as np
import pytest

from pwlnewton import (
    GeneratorConfig,
    GeneratorError,
    SolverOptions,
    make_batch,
    make_instance,
    make_spd_matrix,
    qp_newton_solve,
    spectral_norm,
    sym_eig,
)


def planted_residual_ok(inst):
    n = inst.q.n
    res = (inst.q.Q - np.eye(n)) @ np.maximum(inst.known_solution, 0.0) \
        + inst.known_solution + inst.q.b_tilde
    return np.abs(res).max() <= 1e-8 * (1.0 + np.abs(inst.q.b_tilde).max())


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=0, beta_low=0.1, beta_high=0.2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, beta_low=0.0, beta_high=0.2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, beta_low=0.3, beta_high=0.2)


def test_spd_matrix_norm_identity():
    rng = np.random.default_rng(0)
    for beta in (0.01, 0.3, 2.0, 1e4):
        q = make_spd_matrix(12, beta, rng)
        assert abs(spectral_norm(q - np.eye(12)) - beta) <= 1e-11 * beta


def test_spd_matrix_small_beta_collapses_to_identity():
    q = make_spd_matrix(8, 1e-9, np.random.default_rng(1))
    assert np.abs(q - np.eye(8)).max() <= 2e-9


def test_spd_matrix_eigenvalues_in_band():
    rng = np.random.default_rng(2)
    beta = 0.4
    q = make_spd_matrix(10, beta, rng)
    eigenvalues, _ = sym_eig(q)
    assert eigenvalues[-1] >= 1.0 - 1e-9
    assert eigenvalues[0] <= 1.0 + beta + 1e-9


def test_spd_matrix_generator_error_on_degenerate_rng():
    class ZeroRng:
        def uniform(self, low, high, size=None):
            return np.zeros(size)

    with pytest.raises(GeneratorError):
        make_spd_matrix(3, 0.2, ZeroRng())


def test_instance_determinism():
    cfg = GeneratorConfig(n=5, beta_low=1e-9, beta_high=0.5, seed=7)
    a = make_instance(cfg)
    b = make_instance(cfg)
    assert a.beta_used == b.beta_used
    assert np.array_equal(a.q.Q, b.q.Q)
    assert np.array_equal(a.q.b_tilde, b.q.b_tilde)
    assert np.array_equal(a.known_solution, b.known_solution)
    assert np.array_equal(a.x0, b.x0)


def test_instance_planted_residual():
    cfg = GeneratorConfig(n=12, beta_low=1e-9, beta_high=0.5, seed=3)
    for inst in make_batch(cfg, 10):
        assert planted_residual_ok(inst)
        assert cfg.beta_low <= inst.beta_used < cfg.beta_high


def test_instance_beta_norm_within_tolerance():
    cfg = GeneratorConfig(n=10, beta_low=0.05, beta_high=0.5, seed=11)
    for inst in make_batch(cfg, 5):
        n = inst.q.n
        measured = spectral_norm(inst.q.Q - np.eye(n))
        assert abs(measured - inst.beta_used) <= 1e-11 * inst.beta_used


def test_instance_solves_quickly():
    cfg = GeneratorConfig(n=20, beta_low=1e-9, beta_high=0.5, seed=5)
    for inst in make_batch(cfg, 10):
        opts = SolverOptions(known_solution=inst.known_solution, tol_x=1e-6)
        report = qp_newton_solve(inst.q, inst.x0, opts)
        assert report.converged
        assert report.iterations <= 10


def test_batch_empty():
    cfg = GeneratorConfig(n=4, beta_low=0.1, beta_high=0.2, seed=1)
    assert make_batch(cfg, 0) == []


def test_batch_reproducible_and_prefix_stable():
    cfg = GeneratorConfig(n=4, beta_low=0.1, beta_high=0.4, seed=21)
    first = make_batch(cfg, 5)
    second = make_batch(cfg, 5)
    prefix = make_batch(cfg, 3)
    for x, y in zip(first, second):
        assert np.array_equal(x.q.Q, y.q.Q)
        assert np.array_equal(x.x0, y.x0)
    for x, y in zip(prefix, first):
        assert np.array_equal(x.q.Q, y.q.Q)


def test_batch_instances_differ():
    cfg = GeneratorConfig(n=4, beta_low=0.1, beta_high=0.4, seed=22)
    batch = make_batch(cfg, 3)
    assert not np.array_equal(batch[0].q.Q, batch[1].q.Q)
    assert not np.array_equal(batch[1].x0, batch[2].x0)
