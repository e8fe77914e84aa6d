import json
import os

import numpy as np
import pytest

from pwlnewton import (
    ConeInstance,
    ProblemFormatError,
    PwlsProblem,
    QpProblem,
    SizeGuardError,
    SolveStatus,
    check_conditions,
    newton_solve,
)
from pwlnewton import formats
from pwlnewton.formats import (
    load_problem,
    load_vector_file,
    parse_problem,
    report_to_dict,
)


def write_problem(path, payload):
    """Write payload in the documented problem-file layout."""
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


def test_round_trip_pwls(tmp_path):
    payload = {"kind": "pwls", "T": [[-2.0, 3.0], [-1.0, 1.0]], "b": [-5.0, -3.0]}
    loaded = load_problem(write_problem(tmp_path / "p.json", payload))
    assert isinstance(loaded, PwlsProblem)
    np.testing.assert_array_equal(loaded.T, payload["T"])
    np.testing.assert_array_equal(loaded.b, payload["b"])


def test_round_trip_qp(tmp_path):
    payload = {"kind": "qp", "Q": [[1.2, 0.1], [0.1, 1.1]], "b_tilde": [1.0, -2.0]}
    loaded = load_problem(write_problem(tmp_path / "q.json", payload))
    assert isinstance(loaded, QpProblem)
    np.testing.assert_array_equal(loaded.Q, payload["Q"])
    np.testing.assert_array_equal(loaded.b_tilde, payload["b_tilde"])


def test_round_trip_cone(tmp_path):
    payload = {"kind": "cone", "A": [[1.0, 0.0], [1.0, 1.0]], "z": [-1.0, 2.0]}
    loaded = load_problem(write_problem(tmp_path / "c.json", payload))
    assert isinstance(loaded, ConeInstance)
    np.testing.assert_array_equal(loaded.A, payload["A"])
    np.testing.assert_array_equal(loaded.z, payload["z"])


def test_parse_errors_name_fields():
    with pytest.raises(ProblemFormatError, match="'b'"):
        parse_problem({"kind": "pwls", "T": [[1.0]]})
    with pytest.raises(ProblemFormatError, match="'T'"):
        parse_problem({"kind": "pwls", "T": "nope", "b": [1.0]})
    with pytest.raises(ProblemFormatError, match="'kind'"):
        parse_problem({"kind": "quadratic"})
    with pytest.raises(ProblemFormatError, match="'b'"):
        parse_problem({"kind": "pwls", "T": [[1.0]], "b": [float("nan")]})
    with pytest.raises(ProblemFormatError):
        parse_problem([1, 2, 3])
    # strings and booleans are not numbers, even where float() would take them,
    # and an integer beyond a double's range is not a double
    for payload, field in (({"kind": "pwls", "T": [["3"]], "b": [2.0]}, "'T'"),
                           ({"kind": "pwls", "T": [[3.0]], "b": ["2"]}, "'b'"),
                           ({"kind": "pwls", "T": [[3.0]], "b": [True]}, "'b'"),
                           ({"kind": "qp", "Q": [[1.0]], "b_tilde": ["7"]}, "'b_tilde'"),
                           ({"kind": "qp", "Q": [[False]], "b_tilde": [1.0]}, "'Q'"),
                           ({"kind": "pwls", "T": [[10**400]], "b": [1.0]}, "'T'")):
        with pytest.raises(ProblemFormatError, match=field):
            parse_problem(payload)


def test_load_vector_file(tmp_path):
    path = tmp_path / "x0.json"
    path.write_text("[1.5, -2.0]")
    np.testing.assert_array_equal(load_vector_file(str(path)), [1.5, -2.0])
    bad = tmp_path / "bad.json"
    for text in ("[[1.0]]", '["1.5"]', "[true, 1.0]"):
        bad.write_text(text)
        with pytest.raises(ProblemFormatError, match="starting point"):
            load_vector_file(str(bad))


def test_json_input_over_size_cap_is_refused(tmp_path, monkeypatch):
    problem = write_problem(tmp_path / "p.json", {"kind": "pwls", "T": [[3.0]], "b": [4.0]})
    x0 = tmp_path / "x0.json"
    x0.write_text("[1.5]")
    size = os.path.getsize(problem)
    monkeypatch.setattr(formats, "MAX_JSON_BYTES", size)
    assert isinstance(load_problem(problem), PwlsProblem)  # a file at the cap loads
    monkeypatch.setattr(formats, "MAX_JSON_BYTES", size - 1)
    with pytest.raises(SizeGuardError, match=rf"{size} bytes.*{size - 1}"):
        load_problem(problem)
    monkeypatch.setattr(formats, "MAX_JSON_BYTES", 4)
    with pytest.raises(SizeGuardError, match=r"5 bytes.*\b4\b"):
        load_vector_file(str(x0))


def test_report_dict_is_strict_json():
    p = PwlsProblem(T=np.zeros((2, 2)) , b=[1.0, 1.0])
    report = newton_solve(PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0]), [0.0, 0.0])
    condition = check_conditions(p)  # singular T: inv_norm = inf
    payload = report_to_dict(report, condition)
    text = json.dumps(payload, allow_nan=False)  # must not need Infinity literals
    assert json.loads(text)["condition"]["inv_norm"] == "inf"
    # the residual of x0 overflows, and the first step matrix is singular
    huge = PwlsProblem(T=np.full((2, 2), 1e300), b=[1.0, 1.0])
    with np.errstate(over="ignore"):
        report = newton_solve(huge, [1e10, 1e10])
    assert report.status is SolveStatus.SINGULAR_JACOBIAN and report.iterations == 0
    assert report.final_residual_norm == float("inf")
    text = json.dumps(report_to_dict(report), allow_nan=False)
    assert json.loads(text)["final_residual_norm"] == "inf"


def test_report_dict_condition_block():
    p = PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0])
    third = 1.0 / 3.0
    condition = report_to_dict(newton_solve(p, [0.0, 0.0]), check_conditions(p))["condition"]
    assert condition == {
        "inv_norm": third,
        "existence_ok": True,
        "rate_ok": True,
        "contraction_modulus": third,
        "predicted_rate": third / (1.0 - third),  # 0.5 up to rounding
    }
