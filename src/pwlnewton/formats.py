"""JSON problem-file formats and report serialization.

Three problem kinds share one container layout, dispatched on "kind":

* {"kind": "pwls", "T": [[...], ...], "b": [...]}
* {"kind": "qp",   "Q": [[...], ...], "b_tilde": [...]}
* {"kind": "cone", "A": [[...], ...], "z": [...]}

Numbers are plain IEEE-754 doubles in decimal, never strings or true/false.
Keys a kind does not name are ignored, among them a qp file's legacy "c".
Parse errors raise ProblemFormatError with a message naming the offending field;
a file larger than MAX_JSON_BYTES raises SizeGuardError before it is parsed.
"""

from __future__ import annotations

import json
import os
from typing import Union

import numpy as np

from .errors import ProblemFormatError, SingularMatrixError, SizeGuardError
from .pwls import ConditionReport, PwlsProblem, SolveReport
from .qp import ConeInstance, QpProblem

Problem = Union[PwlsProblem, QpProblem, ConeInstance]

# largest JSON input read, about a dense n = 3000 matrix at 25 bytes per entry
MAX_JSON_BYTES = 256 * 2**20


def _read_json(path: str):
    try:
        with open(path) as handle:
            size = os.fstat(handle.fileno()).st_size
            if size > MAX_JSON_BYTES:
                raise SizeGuardError(
                    f"file is {size} bytes, larger than the {MAX_JSON_BYTES} bytes "
                    "allowed for JSON input"
                )
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError("file nests JSON arrays or objects too deeply") from exc


def load_problem(path: str) -> Problem:
    return parse_problem(_read_json(path))


def parse_problem(obj) -> Problem:
    if not isinstance(obj, dict):
        raise ProblemFormatError("top-level value must be a JSON object")
    kind = obj.get("kind")
    if kind == "pwls":
        return PwlsProblem(T=_field(obj, "T", kind), b=_field(obj, "b", kind))
    if kind == "qp":
        return QpProblem(Q=_field(obj, "Q", kind), b_tilde=_field(obj, "b_tilde", kind))
    if kind == "cone":
        try:
            return ConeInstance(A=_field(obj, "A", kind), z=_field(obj, "z", kind))
        except SingularMatrixError as exc:
            raise ProblemFormatError(f"field 'A': {exc}") from exc
    raise ProblemFormatError(f"field 'kind': expected one of pwls/qp/cone, got {kind!r}")


def _numeric_array(value, name: str) -> np.ndarray:
    """value as a float array, refusing leaves that are not JSON numbers."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"{name}: not a numeric array ({exc})") from exc
    # the float conversion succeeded, so value is rectangular and this has its
    # leaves; bool is an int subclass, but JSON's true and false are not numbers
    for leaf in np.asarray(value, dtype=object).flat:
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ProblemFormatError(f"{name}: {leaf!r} is not a number")
    return array


def _field(obj: dict, name: str, kind: str) -> np.ndarray:
    if name not in obj:
        raise ProblemFormatError(f"{kind} problem: missing field '{name}'")
    value = _numeric_array(obj[name], f"field '{name}'")
    if not np.isfinite(value).all():
        raise ProblemFormatError(f"field '{name}': contains non-finite values")
    return value


def load_vector_file(path: str) -> np.ndarray:
    """A starting point stored as a JSON array of numbers."""
    vector = _numeric_array(_read_json(path), "starting point")
    if vector.ndim != 1 or not np.isfinite(vector).all():
        raise ProblemFormatError("starting point: expected a flat array of finite numbers")
    return vector


def _finite_or_str(v):
    """v, or its str() when infinite or NaN, so the report stays strict JSON."""
    return v if v is None or np.isfinite(v) else str(v)


def report_to_dict(report: SolveReport, condition: ConditionReport | None = None,
                   include_iterates: bool = False) -> dict:
    out = {
        "status": report.status.value,
        "iterations": report.iterations,
        "final_residual_norm": _finite_or_str(report.final_residual_norm),
        "solution": None if report.solution is None else report.solution.tolist(),
        "cycle": None if report.cycle is None else list(report.cycle),
    }
    if condition is not None:
        out["condition"] = {
            "inv_norm": _finite_or_str(condition.inv_norm),
            "existence_ok": condition.existence_ok,
            "rate_ok": condition.rate_ok,
            "contraction_modulus": _finite_or_str(condition.inv_norm),
            "predicted_rate": _finite_or_str(condition.predicted_rate),
        }
    if include_iterates and report.iterate_trace is not None:
        out["iterates"] = [x.tolist() for x in report.iterate_trace]
    return out
