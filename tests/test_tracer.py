"""The benchmark's tracer still sees the kernels every solve calls.

perfbench/tracer.py wraps library functions by module attribute, and its
per-layer metrics divide by the LU kernels' time, so a solve path that
stopped looking up pwls.lu_factor/lu_solve would break a traced run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def traced_span_names(tracer, solve) -> set[str]:
    t = tracer.Tracer()
    with t.installed(solve=True):
        assert solve().converged
    return {name for _, name, _, _, _, solve_id in t.spans if solve_id == 0}


def test_traced_solves_record_lu_spans(tracer):
    # x0 > 0 makes the first QP step factor a non-empty Q_AA
    q = tracer.qp.QpProblem(Q=[[2.0, 0.5], [0.5, 1.5]], b_tilde=[-1.0, 1.0])
    p = tracer.pwls.PwlsProblem(T=[[3.0, 1.0], [0.5, 2.0]], b=[1.0, -1.0])
    for solve in (lambda: tracer.qp.qp_newton_solve(q, np.ones(2)),
                  lambda: tracer.pwls.newton_solve(p, np.zeros(2))):
        names = traced_span_names(tracer, solve)
        assert {"solve", "linalg.lu_factor", "linalg.lu_solve"} <= names
