"""JSON problem-file formats and report serialization.

Three problem kinds share one container layout, dispatched on "kind":

* {"kind": "pwls", "T": [[...], ...], "b": [...]}
* {"kind": "qp",   "Q": [[...], ...], "b_tilde": [...], "c": 0.0}
* {"kind": "cone", "A": [[...], ...], "z": [...]}

Numbers are plain IEEE-754 doubles in decimal.  Parse errors raise
ProblemFormatError with a message naming the offending field.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .errors import ProblemFormatError, SingularMatrixError
from .pwls import ConditionReport, PwlsProblem, SolveReport
from .qp import ConeInstance, QpProblem

Problem = Union[PwlsProblem, QpProblem, ConeInstance]


def load_problem(path: str) -> Problem:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"file is not valid JSON: {exc}") from exc
    return parse_problem(obj)


def parse_problem(obj) -> Problem:
    if not isinstance(obj, dict):
        raise ProblemFormatError("top-level value must be a JSON object")
    kind = obj.get("kind")
    if kind == "pwls":
        return PwlsProblem(T=_field(obj, "T", kind), b=_field(obj, "b", kind))
    if kind == "qp":
        return QpProblem(
            Q=_field(obj, "Q", kind),
            b_tilde=_field(obj, "b_tilde", kind),
            c=_number(obj.get("c", 0.0), "c"),
        )
    if kind == "cone":
        try:
            return ConeInstance(A=_field(obj, "A", kind), z=_field(obj, "z", kind))
        except SingularMatrixError as exc:
            raise ProblemFormatError(f"field 'A': {exc}") from exc
    raise ProblemFormatError(f"field 'kind': expected one of pwls/qp/cone, got {kind!r}")


def _field(obj: dict, name: str, kind: str) -> np.ndarray:
    if name not in obj:
        raise ProblemFormatError(f"{kind} problem: missing field '{name}'")
    try:
        value = np.asarray(obj[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field '{name}': not a numeric array ({exc})") from exc
    if not np.isfinite(value).all():
        raise ProblemFormatError(f"field '{name}': contains non-finite values")
    return value


def _number(value, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field '{name}': not a number") from exc
    if not np.isfinite(number):
        raise ProblemFormatError(f"field '{name}': not a finite number")
    return number


def load_vector_file(path: str) -> np.ndarray:
    """A starting point stored as a JSON array of numbers."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"file is not valid JSON: {exc}") from exc
    try:
        vector = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"starting point: not a numeric array ({exc})") from exc
    if vector.ndim != 1 or not np.isfinite(vector).all():
        raise ProblemFormatError("starting point: expected a flat array of finite numbers")
    return vector


def report_to_dict(report: SolveReport, condition: ConditionReport | None = None,
                   include_iterates: bool = False) -> dict:
    out = {
        "status": report.status.value,
        "iterations": report.iterations,
        "final_residual_norm": report.final_residual_norm,
        "solution": None if report.solution is None else report.solution.tolist(),
        "cycle": None if report.cycle is None else list(report.cycle),
    }
    if condition is not None:
        # keep strict-JSON output even when T is singular (inv_norm = inf)
        def finite_or_str(v):
            return v if v is None or np.isfinite(v) else str(v)

        out["condition"] = {
            "inv_norm": finite_or_str(condition.inv_norm),
            "existence_ok": condition.existence_ok,
            "rate_ok": condition.rate_ok,
            "contraction_modulus": finite_or_str(condition.contraction_modulus),
            "predicted_rate": finite_or_str(condition.predicted_rate),
        }
    if include_iterates and report.iterate_trace is not None:
        out["iterates"] = [x.tolist() for x in report.iterate_trace]
    return out
