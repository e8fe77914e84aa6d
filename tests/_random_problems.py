"""Shared random-problem constructions and kernel spies used by the test suite."""

import numpy as np

from pwlnewton import pwls


def matrix_with_inv_norm(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Nonsingular T with ||T^-1|| = lam, built from a prescribed SVD of T^-1.

    The other singular values of T^-1 are drawn from [0.2, 0.9] * lam.
    """
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = lam * rng.uniform(0.2, 0.9, n)
    s[0] = lam
    # T^-1 = U diag(s) V^T, so T = V diag(1/s) U^T
    return (v / s[np.newaxis, :]) @ u.T


def planted_pwls(n: int, lam: float, rng: np.random.Generator):
    """(T, b, x_star) with ||T^-1|| = lam and known solution x_star."""
    t = matrix_with_inv_norm(n, lam, rng)
    x_star = rng.standard_normal(n)
    b = np.maximum(x_star, 0.0) + t @ x_star
    return t, b, x_star


def m_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Strictly diagonally dominant M-matrix: s*I - N with N >= 0."""
    off = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    return (off.sum(axis=1).max() + 1.0) * np.eye(n) - off


def spd_near_identity(n: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric positive definite Q with ||Q - I|| = beta < 1."""
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = beta * rng.uniform(-1.0, 1.0, n)
    eigenvalues[0] = beta * rng.choice([-1.0, 1.0])
    return np.eye(n) + (w * eigenvalues[np.newaxis, :]) @ w.T


def qp_scale(q) -> float:
    """Relative scale 1 + ||b_tilde||_inf + max absolute row sum of Q."""
    return 1.0 + float(np.abs(q.b_tilde).max()) + float(np.abs(q.Q).sum(axis=1).max())


def spy_on(monkeypatch, name, module=pwls):
    """Record the arguments and results of the kernel ``module.name`` in a list."""
    calls = []
    kernel = getattr(module, name)

    def spy(*args):
        result = kernel(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls
