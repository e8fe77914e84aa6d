import numpy as np
import pytest

from pwlnewton import (
    EquivalenceUnavailableError,
    GeneratorConfig,
    GeneratorError,
    QpProblem,
    SolverOptions,
    make_batch,
    make_instance,
    make_spd_matrix,
    qp_newton_solve,
    qp_to_pwls,
    spectral_norm,
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
    # rng.uniform overflows on an infinite range, so the bounds must be finite
    for low, high in ((1.0, np.inf), (np.inf, np.inf), (1.0, np.nan), (np.nan, 2.0)):
        with pytest.raises(ValueError):
            GeneratorConfig(n=3, beta_low=low, beta_high=high)


@pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
def test_spd_matrix_refuses_beta_outside_open_range(beta):
    # a nan or inf beta would scale Q to all nan or all inf
    with pytest.raises(ValueError):
        make_spd_matrix(3, beta, np.random.default_rng(0))


def test_spd_matrix_refuses_empty_size():
    with pytest.raises(ValueError, match="n must be at least 1"):
        make_spd_matrix(0, 0.3, np.random.default_rng(0))


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
    eigenvalues = np.linalg.eigvalsh(q)
    assert eigenvalues[0] >= 1.0 - 1e-9
    assert eigenvalues[-1] <= 1.0 + beta + 1e-9


@pytest.mark.parametrize("n", [1, 2, 7, 50, 257])
def test_spd_matrix_is_exactly_symmetric(n):
    q = make_spd_matrix(n, 0.3, np.random.default_rng(n))
    assert np.array_equal(q, q.T)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 257])
@pytest.mark.parametrize("beta", [1e-9, 0.3, 1e3])
def test_spd_matrix_matches_eigenvector_construction(n, beta):
    # the same draws of B, so Q must equal U diag(1 + beta sig / sig_max) U^T
    # for the eigendecomposition B^T B = U diag(sig) U^T
    seed = 1000 * n + 7
    q = make_spd_matrix(n, beta, np.random.default_rng(seed))
    b = np.random.default_rng(seed).uniform(-GeneratorConfig.value_bound,
                                            GeneratorConfig.value_bound, (n, n))
    sig, u = np.linalg.eigh(b.T @ b)
    expected = (u * (1.0 + beta * sig / sig[-1])) @ u.T
    assert np.abs(q - expected).max() <= 1e-14 * (1.0 + beta)


def test_spd_matrix_generator_error_on_degenerate_rng():
    class ZeroRng:
        def uniform(self, low, high, size=None):
            return np.zeros(size)

    with pytest.raises(GeneratorError):
        make_spd_matrix(3, 0.2, ZeroRng())


def test_spd_matrix_from_rank_one_b():
    # B = u v^T is nonzero but singular: Q is still SPD with ||Q - I|| = beta,
    # and only the T/b form, which needs [Q - I]^-1, is refused
    class RankOneRng:
        def uniform(self, low, high, size=None):
            return np.outer([1.0, -2.0, 3.0], [4.0, 5.0, -6.0])

    beta = 0.7
    q = make_spd_matrix(3, beta, RankOneRng())
    assert np.array_equal(q, q.T)
    problem = QpProblem(Q=q, b_tilde=np.ones(3))
    assert problem.is_positive_definite()
    assert abs(spectral_norm(q - np.eye(3)) - beta) <= 1e-11 * beta
    with pytest.raises(EquivalenceUnavailableError):
        qp_to_pwls(problem)


def test_instance_determinism():
    cfg = GeneratorConfig(n=5, beta_low=1e-9, beta_high=0.5, seed=7)
    a = make_instance(cfg, np.random.default_rng(cfg.seed))
    b = make_instance(cfg, np.random.default_rng(cfg.seed))
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


def test_batch_refuses_negative_count():
    cfg = GeneratorConfig(n=4, beta_low=0.1, beta_high=0.2, seed=1)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        make_batch(cfg, -1)


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


@pytest.mark.parametrize("n", [1, 3, 50])
def test_config_refuses_a_beta_range_whose_b_tilde_overflows(n):
    # ||Q - I|| = beta and |u_i| <= value_bound put every entry of b_tilde
    # within beta sqrt(n) value_bound + value_bound; a range whose bound is
    # finite draws finite instances right up to it
    edge = np.finfo(float).max / (np.sqrt(n) * GeneratorConfig.value_bound)
    with pytest.raises(ValueError, match=rf"beta_high=.* overflows an instance of n={n}\b"):
        GeneratorConfig(n=n, beta_low=edge / 2, beta_high=1.01 * edge)
    cfg = GeneratorConfig(n=n, beta_low=edge / 2, beta_high=edge / 1.01)
    for inst in make_batch(cfg, 3):
        assert np.isfinite(inst.q.Q).all() and np.isfinite(inst.q.b_tilde).all()


def test_b_tilde_is_formed_from_q_minus_eye_bytewise():
    # Q - I is formed as a copy of Q less 1 on its diagonal; the instance
    # must not move by a bit from the one Q - np.eye(n) gives
    cfg = GeneratorConfig(n=100, beta_low=0.5, beta_high=1e3, seed=9)
    for inst in make_batch(cfg, 3):
        u = inst.known_solution
        expected = -((inst.q.Q - np.eye(cfg.n)) @ np.maximum(u, 0.0) + u)
        assert inst.q.b_tilde.tobytes() == expected.tobytes()
