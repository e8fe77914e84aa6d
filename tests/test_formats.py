import json

import numpy as np
import pytest

from pwlnewton import (
    ConeInstance,
    ProblemFormatError,
    PwlsProblem,
    QpProblem,
    check_conditions,
    newton_solve,
)
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
    payload = {"kind": "qp", "Q": [[1.2, 0.1], [0.1, 1.1]], "b_tilde": [1.0, -2.0], "c": 3.5}
    loaded = load_problem(write_problem(tmp_path / "q.json", payload))
    assert isinstance(loaded, QpProblem)
    np.testing.assert_array_equal(loaded.Q, payload["Q"])
    np.testing.assert_array_equal(loaded.b_tilde, payload["b_tilde"])
    assert loaded.c == 3.5


def test_round_trip_cone(tmp_path):
    payload = {"kind": "cone", "A": [[1.0, 0.0], [1.0, 1.0]], "z": [-1.0, 2.0]}
    loaded = load_problem(write_problem(tmp_path / "c.json", payload))
    assert isinstance(loaded, ConeInstance)
    np.testing.assert_array_equal(loaded.A, payload["A"])
    np.testing.assert_array_equal(loaded.z, payload["z"])


def test_qp_default_c_is_zero():
    q = parse_problem({"kind": "qp", "Q": [[1.0]], "b_tilde": [0.5]})
    assert q.c == 0.0


def test_parse_errors_name_fields():
    with pytest.raises(ProblemFormatError, match="'b'"):
        parse_problem({"kind": "pwls", "T": [[1.0]]})
    with pytest.raises(ProblemFormatError, match="'T'"):
        parse_problem({"kind": "pwls", "T": "nope", "b": [1.0]})
    with pytest.raises(ProblemFormatError, match="'kind'"):
        parse_problem({"kind": "quadratic"})
    with pytest.raises(ProblemFormatError, match="'c'"):
        parse_problem({"kind": "qp", "Q": [[1.0]], "b_tilde": [1.0], "c": "x"})
    for c in (float("nan"), float("inf")):
        with pytest.raises(ProblemFormatError, match="'c'"):
            parse_problem({"kind": "qp", "Q": [[1.0]], "b_tilde": [1.0], "c": c})
    with pytest.raises(ProblemFormatError, match="'b'"):
        parse_problem({"kind": "pwls", "T": [[1.0]], "b": [float("nan")]})
    with pytest.raises(ProblemFormatError):
        parse_problem([1, 2, 3])
    # strings and booleans are not numbers, even where float() would take them;
    # neither is a list where one number belongs, or an integer beyond a double's range
    for payload, field in (({"kind": "pwls", "T": [["3"]], "b": [2.0]}, "'T'"),
                           ({"kind": "pwls", "T": [[3.0]], "b": ["2"]}, "'b'"),
                           ({"kind": "pwls", "T": [[3.0]], "b": [True]}, "'b'"),
                           ({"kind": "qp", "Q": [[1.0]], "b_tilde": [1.0], "c": "7"}, "'c'"),
                           ({"kind": "qp", "Q": [[1.0]], "b_tilde": [1.0], "c": False}, "'c'"),
                           ({"kind": "qp", "Q": [[1.0]], "b_tilde": [1.0], "c": [7.0]}, "'c'"),
                           ({"kind": "pwls", "T": [[10**400]], "b": [1.0]}, "'T'"),
                           ({"kind": "qp", "Q": [[1.0]], "b_tilde": [1.0], "c": 10**400}, "'c'")):
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


def test_report_dict_is_strict_json():
    p = PwlsProblem(T=np.zeros((2, 2)) , b=[1.0, 1.0])
    report = newton_solve(PwlsProblem(T=3.0 * np.eye(2), b=[4.0, -3.0]), [0.0, 0.0])
    condition = check_conditions(p)  # singular T: inv_norm = inf
    payload = report_to_dict(report, condition)
    text = json.dumps(payload)  # must not need Infinity literals
    assert "Infinity" not in text
    assert json.loads(text)["condition"]["inv_norm"] == "inf"
