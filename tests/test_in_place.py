"""linalg.factor overwrites the matrix it factors; no caller's array may be that matrix.

f2py hands LAPACK the array itself only when it is F-contiguous float64, so
each caller array here is column-major: a missing copy shows as changed bytes.
"""

import numpy as np
import pytest
from _random_problems import spd_near_identity, spy_on

from pwlnewton import (
    ConeInstance,
    GeneratorConfig,
    NotPositiveDefiniteError,
    PwlsProblem,
    QpProblem,
    SolverOptions,
    check_conditions,
    cone_projection,
    inv_spectral_norm,
    make_batch,
    newton_solve,
    qp_newton_solve,
    qp_to_pwls,
)
from pwlnewton import pwls


def assert_untouched(call, *arrays):
    """Run call() and check that it wrote into none of arrays; return its result."""
    before = [a.tobytes() for a in arrays]
    result = call()
    assert [a.tobytes() for a in arrays] == before
    return result


def pwls_case(n):
    """A generated T/b instance with its start; qp_to_pwls gives T column-major."""
    inst = make_batch(GeneratorConfig(n=n, beta_low=0.5, beta_high=1e3, seed=0), 1)[0]
    p = qp_to_pwls(inst.q)
    assert p.T.flags.f_contiguous
    return p.T, p.b, inst.x0


def qp_case(n):
    """(Q, b_tilde, x0, u): an SPD Q and a start that takes bordered steps to its solution u."""
    rng = np.random.default_rng(3)
    q_matrix = np.asfortranarray(spd_near_identity(n, 0.3, rng))
    b_tilde = rng.standard_normal(n) - 1.0
    u = qp_newton_solve(QpProblem(Q=q_matrix, b_tilde=b_tilde), np.zeros(n)).solution
    x0 = u.copy()
    flipped = rng.choice(n, 8, replace=False)
    x0[flipped] = -x0[flipped]
    return q_matrix, b_tilde, x0, u


def test_no_public_entry_point_writes_into_caller_arrays(monkeypatch):
    rng = np.random.default_rng(5)
    a = np.asfortranarray(np.eye(30) + 0.1 * rng.standard_normal((30, 30)))
    z = rng.standard_normal(30)
    ci = assert_untouched(lambda: ConeInstance(A=a, z=z), a, z)
    assert_untouched(lambda: cone_projection(ci), a, z)

    t, b, x0 = pwls_case(100)
    assert_untouched(lambda: inv_spectral_norm(t), t)
    p = PwlsProblem(T=t, b=b)
    assert_untouched(lambda: check_conditions(p), t)
    solves = spy_on(monkeypatch, "lu_solve")
    assert_untouched(lambda: newton_solve(p, x0), t, b, x0)
    assert solves, "no bordered step ran"

    q_matrix, b_tilde, x0, u = qp_case(160)
    solves.clear()
    opts = SolverOptions(known_solution=u)
    assert_untouched(lambda: qp_newton_solve(QpProblem(Q=q_matrix, b_tilde=b_tilde), x0, opts),
                     q_matrix, b_tilde, x0, u)
    assert solves, "no bordered step ran"

    # the fresh factor of an indefinite Q_AA (order 65) raises
    n = 70
    q_matrix = np.asfortranarray(np.eye(n))
    q_matrix[0, 69] = q_matrix[69, 0] = 2.0
    b_tilde = np.where(np.arange(n) < 64, -1.0, 1.0)
    b_tilde[69] = -10.0
    x0 = np.where(np.arange(n) < 64, 1.0, -1.0)

    def indefinite():
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            qp_newton_solve(QpProblem(Q=q_matrix, b_tilde=b_tilde), x0)

    assert_untouched(indefinite, q_matrix, b_tilde, x0)


def test_every_fresh_step_is_factored_in_place(monkeypatch):
    # each formulation gathers or builds its fresh step matrix as a new
    # column-major float64 array, so LAPACK factors it where it lies and the
    # factor shares its memory; a layout that brought back f2py's copy fails
    core = pwls.lu_factor
    fresh = []

    def spy(m, rhs, scale=None, spd=False):
        layout = (m.dtype, m.flags.f_contiguous)
        f, x = core(m, rhs, scale, spd=spd)
        if scale is None:  # a step matrix, not a capacitance matrix
            fresh.append((*layout, np.shares_memory(f.lu, m)))
        return f, x

    monkeypatch.setattr(pwls, "lu_factor", spy)
    t, b, x0 = pwls_case(100)
    newton_solve(PwlsProblem(T=t, b=b), x0)
    q_matrix, b_tilde, x0, _ = qp_case(160)
    qp_newton_solve(QpProblem(Q=q_matrix, b_tilde=b_tilde), x0)
    assert len(fresh) >= 2
    assert fresh == [(np.float64, True, True)] * len(fresh)
