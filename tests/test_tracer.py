"""The benchmark's tracer still sees the kernels every solve calls.

perfbench/tracer.py wraps library functions by module attribute, and its
per-layer metrics divide by the LU kernels' time, so a solve path that
stopped looking up pwls.lu_factor/lu_solve would break a traced run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from _random_problems import spd_near_identity

from pwlnewton import pwls

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(tracer):
    for name, module, attr in tracer.TARGETS:
        assert hasattr(module, attr), f"{name}: {module.__name__}.{attr} is missing"


def traced_solve(tracer, solve):
    """The report of one traced solve, and its span count per name."""
    t = tracer.Tracer()
    with t.installed(solve=True):
        report = solve()
    assert report.converged
    return report, Counter(name for _, name, _, _, _, solve_id in t.spans if solve_id == 0)


def test_traced_solves_record_lu_spans(tracer):
    # a QP step factors and solves, in one lu_factor call, when its active
    # set is non-empty and not at all otherwise (from -1 the first one is
    # empty); a T/b step with n below REUSE_MIN_SIZE always does.  Neither
    # holds a factor, so lu_solve is never called.  The T/b solve runs the
    # residual rule, the only caller of pwls.residual.  Every iterate, x0
    # included, has its pattern taken once.
    rng = np.random.default_rng(3)
    q = tracer.qp.QpProblem(Q=spd_near_identity(8, 0.3, rng), b_tilde=rng.standard_normal(8))
    p = tracer.pwls.PwlsProblem(T=[[3.0, 1.0], [0.5, 2.0]], b=[1.0, -1.0])
    for solve, qp_path in ((lambda: tracer.qp.qp_newton_solve(q, -np.ones(8)), True),
                           (lambda: tracer.pwls.newton_solve(p, np.ones(2)), False)):
        report, calls = traced_solve(tracer, solve)
        steps = report.pattern_trace[: report.iterations]
        factored = sum(bool(bits.any()) for bits in steps) if qp_path else len(steps)
        assert 0 < factored and (factored < len(steps)) is qp_path
        assert calls["solve"] == 1
        assert calls["linalg.lu_factor"] == factored and calls["linalg.lu_solve"] == 0
        assert calls["pwls.sign_pattern"] == report.iterations + 1
        assert (calls["pwls.residual"] > 0) is not qp_path


def test_traced_batch_records_one_spectrum_span_per_instance(tracer):
    # set-up time splits into gen.make_instance and, inside it, the generator's
    # spectrum layer gen.sym_eig; each instance calls each exactly once
    k = 4
    t = tracer.Tracer()
    with t.installed(solve=False):
        batch = tracer.gen.make_batch(tracer.gen.GeneratorConfig(n=6, beta_low=0.1, beta_high=0.5), k)
    assert len(batch) == k
    calls = Counter(name for _, name, _, _, _, _ in t.spans)
    assert calls == {"gen.make_instance": k, "gen.sym_eig": k}


def replay_reuse_rule(steps, order):
    """(fresh factors, bordered steps) the Newton driver's reuse rule takes over steps.

    order(bits) is the order of the matrix a fresh step from bits factors,
    0 when it factors nothing; no factor is held at first.
    """
    held, fresh, bordered = None, 0, 0
    for bits in steps:
        if held is not None and pwls.REUSE_RATIO * np.count_nonzero(bits != held[0]) <= held[1]:
            bordered += 1
        else:
            m = order(bits)
            fresh += m > 0
            held = (bits, m) if m >= pwls.REUSE_MIN_SIZE else None
    return fresh, bordered


def test_traced_bordered_steps_feed_layer_metrics(tracer):
    # from the planted solution with three signs flipped, the first step
    # factors Q_AA afresh and later ones that change few indices reuse it:
    # a reused step solves against the border with the held factor's L,
    # factors and solves its capacitance system in one lu_factor call, and
    # solves with L^T once more.  Set-up is traced too, as in a benchmark run.
    t = tracer.Tracer()
    with t.installed(solve=False):
        cfg = tracer.gen.GeneratorConfig(n=160, beta_low=0.1, beta_high=0.5)
        inst = tracer.gen.make_instance(cfg, np.random.default_rng(cfg.seed))
    x0 = inst.known_solution.copy()
    x0[[0, 1, 2]] *= -1.0
    opts = tracer.pwls.SolverOptions(known_solution=inst.known_solution, tol_x=1e-8)
    with t.installed(solve=True):
        report = tracer.qp.qp_newton_solve(inst.q, x0, opts)
    assert report.converged
    calls = Counter(name for _, name, _, _, _, solve_id in t.spans if solve_id == 0)

    # a QP step factors Q_AA, of order |A|
    fresh, reused = replay_reuse_rule(report.pattern_trace[: report.iterations], np.count_nonzero)
    assert fresh > 0 and reused > 0
    assert calls["linalg.lu_factor"] == fresh + reused
    assert calls["linalg.lu_solve"] == 2 * reused

    patterns = np.asarray(report.pattern_trace, dtype=np.int8)
    traced = {"time": 1.0, "solves": 1, "iterations": report.iterations,
              "flips": int(np.abs(np.diff(patterns, axis=0)).sum()),
              "active": float(patterns[:-1].sum()) / inst.q.n}
    metrics, _, _ = tracer.layer_metrics(t.spans, n=inst.q.n, traced=traced,
                                         untraced_s_per_solve=1.0,
                                         untraced_ms_per_iteration=1.0, bare_ms=1.0)
    assert metrics["linalg.lu_factor.calls"]["value"] == fresh + reused
    assert metrics["linalg.lu_solve.calls"]["value"] == 2 * reused
    assert all(np.isfinite(m["value"]) for m in metrics.values())


def test_traced_tb_held_factor_steps(tracer):
    # a T/b solve at n >= REUSE_MIN_SIZE factors T + diag(s) afresh at its
    # first step and reuses that factor at later steps that change few
    # indices.  qp_to_pwls gives a symmetric T, so the factor is Cholesky,
    # and as in a bordered QP step a reused step solves against the unit
    # columns with L, factors and solves its capacitance system in one call,
    # and solves with L^T once more
    n = 100
    assert n >= tracer.pwls.REUSE_MIN_SIZE
    cfg = tracer.gen.GeneratorConfig(n=n, beta_low=0.5, beta_high=1e3)
    inst = tracer.gen.make_instance(cfg, np.random.default_rng(cfg.seed))
    p = tracer.qp.qp_to_pwls(inst.q)
    report, calls = traced_solve(tracer, lambda: tracer.pwls.newton_solve(p, inst.x0))

    # a T/b step factors T + diag(s), of order n
    fresh, reused = replay_reuse_rule(report.pattern_trace[: report.iterations], lambda bits: n)
    assert fresh > 0 and reused > 0
    assert p.symmetric
    assert calls["linalg.lu_factor"] == fresh + reused
    assert calls["linalg.lu_solve"] == 2 * reused
