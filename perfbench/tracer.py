"""Spans around calls into the library's layers, recorded from outside it.

The tracer swaps module attributes that the library looks up at call
time for timing wrappers and puts the originals back on exit, so nothing
in ``src`` changes.  Spans are (id, name, start_ns, end_ns, parent id,
solve id) tuples kept in memory and written once, at the end of a run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from pwlnewton import gen, pwls, qp

# (span name, module, attribute).  pwls looks up the kernels, sign_pattern
# and residual at call time; qp's Newton driver is pwls's, so wrapping the
# pwls names covers both solve entry points.  gen.lu_factor (the generator's
# singularity test) and qp's own kernels stay unwrapped: they count in the
# self time of gen.make_instance and qp.qp_to_pwls.
TARGETS = (
    ("linalg.lu_factor", pwls, "lu_factor"),
    ("linalg.lu_solve", pwls, "lu_solve"),
    ("pwls.sign_pattern", pwls, "sign_pattern"),
    ("pwls.residual", pwls, "residual"),
    ("gen.make_instance", gen, "make_instance"),
    ("gen.sym_eig", gen, "sym_eig"),
    ("qp.qp_to_pwls", qp, "qp_to_pwls"),
    ("solve", pwls, "newton_solve"),
    ("solve", qp, "qp_newton_solve"),
)

# spans whose shares of solve time, with the Newton driver's self time, sum to 1
SOLVE_CHILDREN = ("linalg.lu_factor", "linalg.lu_solve", "pwls.sign_pattern", "pwls.residual")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self._stack: list[int] = []
        self._solve_id = -1
        self._solves = 0
        self._wrapped = [(module, attr, self._wrap(name, getattr(module, attr)))
                         for name, module, attr in TARGETS]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self._solve_id))

        return traced

    @contextmanager
    def installed(self, solve: bool):
        """Trace calls made inside the block: one solve, or set-up (solve id -1)."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in self._wrapped]
        self._solve_id = self._solves if solve else -1
        self._solves += solve
        for module, attr, wrapper in self._wrapped:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\tsolve\n")
            for span in sorted(self.spans):
                handle.write("\t".join(map(str, span)) + "\n")
        return path


def layer_metrics(spans, n: int, traced: dict, untraced_s_per_solve: float,
                  untraced_ms_per_iteration: float, bare_ms: float):
    """Per-layer metrics of a traced run.

    Returns (metrics, sum of self times inside solves, total solve time),
    both in ns; the two sums agree when every in-solve span nests in its
    solve span.
    """
    total = defaultdict(int)
    calls = Counter()
    child = defaultdict(int)
    for span_id, name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(int)
    self_in_solves = 0
    for span_id, name, start, end, parent, solve_id in spans:
        self_ns = end - start - child[span_id]
        own[name] += self_ns
        if solve_id >= 0:
            self_in_solves += self_ns

    def ms_per_call(name: str) -> float:
        return total[name] / calls[name] / 1e6 if calls[name] else 0.0

    solve_ns = total["solve"]
    iterations = traced["iterations"]
    flops = calls["linalg.lu_factor"] * (2.0 / 3.0) * n**3 + calls["linalg.lu_solve"] * 2.0 * n**2
    kernel_s = (total["linalg.lu_factor"] + total["linalg.lu_solve"]) / 1e9
    traced_s_per_solve = traced["time"] / traced["solves"]
    metrics = {
        "gen.instances": (calls["gen.make_instance"], "count"),
        "gen.instance_ms": (ms_per_call("gen.make_instance"), "ms"),
        "gen.sym_eig_frac": (total["gen.sym_eig"] / total["gen.make_instance"], "fraction"),
        "linalg.lu_factor.calls": (calls["linalg.lu_factor"], "count"),
        "linalg.lu_factor.ms_per_call": (ms_per_call("linalg.lu_factor"), "ms"),
        "linalg.lu_solve.calls": (calls["linalg.lu_solve"], "count"),
        "linalg.lu_solve.ms_per_call": (ms_per_call("linalg.lu_solve"), "ms"),
        "linalg.bare_lapack_ms": (bare_ms, "ms"),
        "linalg.gflops": (flops / kernel_s / 1e9, "GFLOP/s"),
        "linalg.factor_per_iter": (calls["linalg.lu_factor"] / iterations, "ratio"),
        "pwls.sign_pattern.calls": (calls["pwls.sign_pattern"], "count"),
        "pwls.sign_pattern.ms_per_call": (ms_per_call("pwls.sign_pattern"), "ms"),
        "pwls.residual.calls": (calls["pwls.residual"], "count"),
        "pwls.residual.ms_per_call": (ms_per_call("pwls.residual"), "ms"),
        "pwls.driver_self_frac": (own["solve"] / solve_ns, "fraction"),
        "pwls.overhead_ratio": (untraced_ms_per_iteration / bare_ms, "ratio"),
        "pwls.iterations": (iterations, "iterations"),
        "pwls.pattern_flips_per_iter": (traced["flips"] / iterations, "flips"),
        "pwls.active_frac": (traced["active"] / iterations, "fraction"),
        "qp.qp_to_pwls.ms": (ms_per_call("qp.qp_to_pwls"), "ms"),
        "trace.solves": (traced["solves"], "count"),
        "trace.overhead_frac": (traced_s_per_solve / untraced_s_per_solve - 1.0, "fraction"),
    }
    for name in SOLVE_CHILDREN:
        metrics[f"{name}.frac"] = (own[name] / solve_ns, "fraction")
    return ({k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            self_in_solves, solve_ns)
