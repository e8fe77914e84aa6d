"""Seedable random-instance generator for the benchmark experiments.

Each instance is a QP whose matrix has a prescribed distance beta from the
identity in spectral norm, together with a planted solution u of the
underlying piecewise linear equation (so convergence can be measured
against the exact answer) and a random starting point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import GeneratorError
from .linalg import lu_factor, sym_eig
from .qp import QpProblem

# consecutive singular draws of B before giving up (probability ~ 0)
MAX_SINGULAR_DRAWS = 10


@dataclass
class GeneratorConfig:
    """Sampling parameters for one instance family.

    beta is drawn uniformly from [beta_low, beta_high); all matrix and
    vector entries are drawn uniformly from [-value_bound, value_bound].
    """

    n: int
    beta_low: float
    beta_high: float
    seed: int = 0
    value_bound: ClassVar[float] = 1e6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.beta_low < self.beta_high:
            raise ValueError("need 0 < beta_low < beta_high")


@dataclass
class GeneratedInstance:
    """One random QP with its planted solution and starting point."""

    q: QpProblem
    known_solution: np.ndarray
    x0: np.ndarray
    beta_used: float


def make_spd_matrix(n: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric positive definite Q with ||Q - I|| = beta.

    Draws a nonsingular B with uniform entries, eigendecomposes B^T B as
    U diag(sig) U^T, and returns U diag(1 + beta * sig / sig_max) U^T.
    The eigenvalues of Q lie in (1, 1 + beta] and the top one makes the
    distance from the identity exactly beta.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    bound = GeneratorConfig.value_bound
    for _ in range(MAX_SINGULAR_DRAWS):
        b = rng.uniform(-bound, bound, (n, n))
        if not lu_factor(b).singular:
            break
    else:
        raise GeneratorError(f"{MAX_SINGULAR_DRAWS} consecutive singular draws of B")
    sig, u = sym_eig(b.T @ b)
    scaled = 1.0 + (beta / sig[0]) * sig
    q = (u * scaled[np.newaxis, :]) @ u.T
    return 0.5 * (q + q.T)


def make_instance(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> GeneratedInstance:
    """Draw one instance: beta, then Q, then the planted u, then x0.

    b_tilde is back-computed as -([Q - I] u+ + u), so u solves the
    piecewise linear equation exactly up to rounding.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    beta = float(rng.uniform(cfg.beta_low, cfg.beta_high))
    q_matrix = make_spd_matrix(cfg.n, beta, rng)
    u = rng.uniform(-cfg.value_bound, cfg.value_bound, cfg.n)
    b_tilde = -((q_matrix - np.eye(cfg.n)) @ np.maximum(u, 0.0) + u)
    x0 = rng.uniform(-cfg.value_bound, cfg.value_bound, cfg.n)
    return GeneratedInstance(
        q=QpProblem(Q=q_matrix, b_tilde=b_tilde, c=0.0),
        known_solution=u,
        x0=x0,
        beta_used=beta,
    )


def make_batch(cfg: GeneratorConfig, count: int) -> list[GeneratedInstance]:
    """Generate ``count`` instances from per-index substreams of cfg.seed.

    Instance i is a deterministic function of (cfg, i) alone, so batches
    are reproducible, prefix-stable, and safe to generate in parallel.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    children = np.random.SeedSequence(cfg.seed).spawn(count)
    return [make_instance(cfg, np.random.default_rng(child)) for child in children]
