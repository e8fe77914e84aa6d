"""Seedable random-instance generator for the benchmark experiments.

Each instance is a QP whose matrix has a prescribed distance beta from the
identity in spectral norm, together with a planted solution u of the
underlying piecewise linear equation (so convergence can be measured
against the exact answer) and a random starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.linalg as sla

from .errors import GeneratorError
from .qp import QpProblem, _minus_identity


@dataclass
class GeneratorConfig:
    """Sampling parameters for one instance family.

    beta is drawn uniformly from [beta_low, beta_high); all matrix and
    vector entries are drawn uniformly from [-value_bound, value_bound].
    A range whose instances could overflow is refused: with ||Q - I|| =
    beta and |u_i| <= value_bound, every entry of b_tilde = -([Q - I] u+ +
    u), and every partial sum forming it, is at most
    beta_high sqrt(n) value_bound + value_bound in magnitude.
    """

    n: int
    beta_low: float
    beta_high: float
    seed: int = 0
    value_bound: ClassVar[float] = 1e6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0.0 < self.beta_low < self.beta_high < np.inf:
            raise ValueError("need 0 < beta_low < beta_high < inf, "
                             f"got beta_low={self.beta_low!r}, beta_high={self.beta_high!r}")
        # a Python float overflows to inf without the warning a numpy scalar gives
        if not math.isfinite(float(self.beta_high) * math.sqrt(self.n) * self.value_bound
                             + self.value_bound):
            raise ValueError(f"beta_high={self.beta_high!r} overflows an instance of n={self.n}: "
                             "need beta_high * sqrt(n) * value_bound + value_bound finite, "
                             f"value_bound={self.value_bound!r}")


@dataclass
class GeneratedInstance:
    """One random QP with its planted solution and starting point."""

    q: QpProblem
    known_solution: np.ndarray
    x0: np.ndarray
    beta_used: float


def sym_eig(s: np.ndarray) -> float:
    """Largest eigenvalue of s, which must be exactly symmetric (B^T B from syrk is)."""
    n = len(s)
    return sla.eigh(s, eigvals_only=True, subset_by_index=[n - 1, n - 1], check_finite=False)[0]


def make_spd_matrix(n: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric positive definite Q with ||Q - I|| = beta.

    Draws B with uniform entries and returns I + (beta / sig_max) B^T B,
    where sig_max is the largest eigenvalue of B^T B: that is
    U diag(1 + beta * sig / sig_max) U^T without the eigenvectors U.  The
    eigenvalues of Q lie in [1, 1 + beta], the top one makes ||Q - I||
    exactly beta, and Q is exactly symmetric, so Q is SPD for every nonzero
    B.  A near-singular B leaves Q - I numerically singular, which
    qp_to_pwls refuses.  GeneratorError when sig_max is not positive, as
    for B = 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < beta < np.inf:
        raise ValueError("need 0 < beta < inf")
    bound = GeneratorConfig.value_bound
    b = rng.uniform(-bound, bound, (n, n))
    q = b.T @ b
    sig_max = sym_eig(q)
    if not sig_max > 0.0:
        raise GeneratorError(f"top eigenvalue of B^T B is {sig_max}, not positive")
    q *= beta / sig_max
    q[np.diag_indices(n)] += 1.0
    return q


def make_instance(cfg: GeneratorConfig, rng: np.random.Generator) -> GeneratedInstance:
    """Draw one instance from rng: beta, then Q, then the planted u, then x0.

    b_tilde is back-computed as -([Q - I] u+ + u), so u solves the
    piecewise linear equation exactly up to rounding.  cfg.seed is not
    read here: make_batch seeds each instance's rng from it.
    """
    beta = float(rng.uniform(cfg.beta_low, cfg.beta_high))
    q_matrix = make_spd_matrix(cfg.n, beta, rng)
    u = rng.uniform(-cfg.value_bound, cfg.value_bound, cfg.n)
    b_tilde = -(_minus_identity(q_matrix) @ np.maximum(u, 0.0) + u)
    x0 = rng.uniform(-cfg.value_bound, cfg.value_bound, cfg.n)
    return GeneratedInstance(
        q=QpProblem(Q=q_matrix, b_tilde=b_tilde),
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
