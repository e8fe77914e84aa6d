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
    # a QP step factors and solves once when its active set is non-empty and
    # not at all otherwise (from -1 the first one is empty); a T/b step always
    # does, and the T/b solve runs the residual rule, the only caller of
    # pwls.residual.  Every iterate, x0 included, has its pattern taken once.
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
        assert calls["linalg.lu_factor"] == calls["linalg.lu_solve"] == factored
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
