import csv
import json

import numpy as np
import pytest

from pwlnewton.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    return write_json(tmp_path / "cycle.json",
                      {"kind": "pwls", "T": [[-2.0, 3.0], [-1.0, 1.0]], "b": [-5.0, -3.0]})


@pytest.fixture
def diagonal_file(tmp_path):
    return write_json(tmp_path / "diag.json",
                      {"kind": "pwls", "T": [[3.0, 0.0], [0.0, 3.0]], "b": [4.0, -3.0]})


# ------------------------------------------------------------------ solve


def test_solve_cycle_exit_code_and_period(cycle_file, tmp_path, capsys):
    x0 = write_json(tmp_path / "x0.json", [1.0, 1.0])
    code = main(["solve", cycle_file, "--x0", x0])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: Cycled" in out
    assert "period=2" in out
    assert "[4.0, 1.0]" in out and "[-1.0, -2.0]" in out


def test_solve_diagonal_converges(diagonal_file, capsys):
    code = main(["solve", diagonal_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Converged" in out
    iterations = int(next(l for l in out.splitlines() if l.startswith("iterations:")).split()[1])
    assert iterations <= 3
    assert "solution: [1.0, -1.0]" in out


def test_solve_qp_identity_single_iteration(tmp_path, capsys):
    problem = write_json(tmp_path / "qp.json",
                         {"kind": "qp", "Q": [[1.0, 0.0], [0.0, 1.0]],
                          "b_tilde": [1.5, -2.0], "c": 0.0})
    code = main(["solve", problem])
    out = capsys.readouterr().out
    assert code == 0
    assert "iterations: 1" in out
    assert "||Q - I||" in out


def test_solve_qp_near_tied_norm(tmp_path, capsys):
    # the two eigenvalues of Q - I differ by 1e-4 relative
    problem = write_json(tmp_path / "qp.json",
                         {"kind": "qp", "Q": [[2.0, 0.0], [0.0, 2.0001]], "b_tilde": [-1.0, 1.0]})
    code = main(["solve", problem])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: ConvergedExact" in out
    assert "||Q - I|| = 1.0001" in out


def test_solve_rejects_indefinite_qp(tmp_path, capsys):
    # Newton stops at the KKT saddle [0.25, 0.25] (objective -0.25), but
    # [1, 0] scores -0.5
    problem = write_json(tmp_path / "qp.json",
                         {"kind": "qp", "Q": [[1.0, 3.0], [3.0, 1.0]], "b_tilde": [-1.0, -1.0]})
    for formulation in ("qp", "pwls"):
        assert main(["solve", problem, "--formulation", formulation]) == 1
        captured = capsys.readouterr()
        assert "status:" not in captured.out
        assert captured.err.startswith("error: ") and "positive definite" in captured.err


def test_solve_qp_as_pwls_formulation(tmp_path, capsys):
    problem = write_json(tmp_path / "qp.json",
                         {"kind": "qp", "Q": [[1.2]], "b_tilde": [-2.4], "c": 0.0})
    code = main(["solve", problem, "--formulation", "pwls"])
    out = capsys.readouterr().out
    assert code == 0
    assert "||T^-1||" in out
    assert "solution: [2.0" in out


def test_solve_malformed_missing_field(tmp_path, capsys):
    problem = write_json(tmp_path / "bad.json", {"kind": "pwls", "T": [[1.0]]})
    code = main(["solve", problem])
    err = capsys.readouterr().err
    assert code == 1
    assert "'b'" in err


def test_solve_malformed_bad_kind(tmp_path, capsys):
    problem = write_json(tmp_path / "bad.json", {"kind": "lp"})
    code = main(["solve", problem])
    err = capsys.readouterr().err
    assert code == 1
    assert "'kind'" in err


def test_solve_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    assert main(["solve", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_solve_ragged_matrix(tmp_path, capsys):
    problem = write_json(tmp_path / "bad.json",
                         {"kind": "pwls", "T": [[1.0, 2.0], [3.0]], "b": [1.0, 2.0]})
    assert main(["solve", problem]) == 1
    assert "'T'" in capsys.readouterr().err


def test_solve_report_and_trace(diagonal_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["solve", diagonal_file, "--trace", "--report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["status"] in ("Converged", "ConvergedExact")
    assert payload["solution"] == [1.0, -1.0]
    assert payload["condition"]["rate_ok"] is True
    assert len(payload["iterates"]) == payload["iterations"] + 1


def test_solve_singular_jacobian_exit_code(tmp_path):
    problem = write_json(tmp_path / "sing.json",
                         {"kind": "pwls", "T": [[-1.0, 0.0], [0.0, 1.0]], "b": [0.0, 2.0]})
    x0 = write_json(tmp_path / "x0.json", [1.0, 5.0])
    assert main(["solve", problem, "--x0", x0]) == 4


def test_solve_max_iterations_exit_code(cycle_file, tmp_path):
    x0 = write_json(tmp_path / "x0.json", [1.0, 1.0])
    assert main(["solve", cycle_file, "--x0", x0, "--max-iter", "1"]) == 3


def test_solve_rejects_cone_file(tmp_path, capsys):
    problem = write_json(tmp_path / "cone.json",
                         {"kind": "cone", "A": [[1.0]], "z": [1.0]})
    assert main(["solve", problem]) == 1


def test_solve_rejects_qp_formulation_for_pwls_file(diagonal_file, capsys):
    assert main(["solve", diagonal_file, "--formulation", "qp"]) == 1
    assert "formulation" in capsys.readouterr().err


def test_solve_random_start_is_seeded(diagonal_file, capsys):
    code = main(["solve", diagonal_file, "--x0", "random", "--seed", "11"])
    first = capsys.readouterr().out
    assert code == 0
    main(["solve", diagonal_file, "--x0", "random", "--seed", "11"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------- project


def test_project_identity_cone(tmp_path, capsys):
    problem = write_json(tmp_path / "cone.json",
                         {"kind": "cone", "A": [[1.0, 0.0], [0.0, 1.0]], "z": [-1.0, 2.0]})
    code = main(["project", problem])
    out = capsys.readouterr().out
    assert code == 0
    assert "projection: [0.0, 2.0]" in out


def test_project_hand_checked_instance(tmp_path, capsys):
    problem = write_json(tmp_path / "cone.json",
                         {"kind": "cone", "A": [[1.0, 0.0], [1.0, 1.0]], "z": [-1.0, 2.0]})
    code = main(["project", problem])
    out = capsys.readouterr().out
    assert code == 0
    assert "v: [0.0, 2.0]" in out
    assert "projection: [0.0, 2.0]" in out
    assert "kkt residual" in out


def test_project_point_already_in_cone(tmp_path, capsys):
    problem = write_json(tmp_path / "cone.json",
                         {"kind": "cone", "A": [[2.0, 0.0], [0.0, 2.0]], "z": [4.0, 6.0]})
    code = main(["project", problem])
    out = capsys.readouterr().out
    assert code == 0
    assert "projection: [4.0, 6.0]" in out


def test_project_rejects_pwls_file(diagonal_file, capsys):
    assert main(["project", diagonal_file]) == 1


def test_project_singular_cone_matrix(tmp_path, capsys):
    problem = write_json(tmp_path / "cone.json",
                         {"kind": "cone", "A": [[1.0, 1.0], [1.0, 1.0]], "z": [1.0, 0.0]})
    assert main(["project", problem]) == 1
    assert "'A'" in capsys.readouterr().err


# ------------------------------------------------------------------ bench


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_bench_dim_writes_csv(tmp_path, capsys):
    out = tmp_path / "dim.csv"
    code = main(["bench-dim", "--n", "6", "--count", "3", "--tolx", "1e-6",
                 "--seed", "3", "--repeats", "1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    solve_rows = [r for r in rows if r["status"] == "Converged"]
    assert len(solve_rows) == 3
    assert {r["experiment"] for r in rows} == {"bench-dim"}
    stdout = capsys.readouterr().out
    assert "total-iterations" in stdout


def test_bench_dim_stdout_when_no_out(capsys):
    code = main(["bench-dim", "--n", "5", "--count", "2", "--tolx", "1e-6",
                 "--seed", "1", "--repeats", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("experiment,n,beta,tolx,index,status,iterations,error,runtime_s")


def test_bench_dim_deterministic_iteration_columns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["--n", "6", "--count", "3", "--tolx", "1e-6", "--seed", "9", "--repeats", "1"]
    assert main(["bench-dim", *flags, "--out", str(a)]) == 0
    assert main(["bench-dim", *flags, "--out", str(b)]) == 0
    cols_a = [(r["status"], r["iterations"]) for r in read_csv(a)]
    cols_b = [(r["status"], r["iterations"]) for r in read_csv(b)]
    assert cols_a == cols_b


def test_bench_starts_csv(tmp_path):
    out = tmp_path / "starts.csv"
    code = main(["bench-starts", "--n", "5", "--count", "2", "--starts", "3",
                 "--tolx", "1e-6", "--seed", "2", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len([r for r in rows if r["status"] == "Converged"]) == 6
    assert len([r for r in rows if r["status"] == "iterations-std"]) == 2
    assert len([r for r in rows if r["status"] == "mean-of-means"]) == 1


def test_bench_beta_csv_with_ranges(tmp_path):
    out = tmp_path / "beta.csv"
    code = main(["bench-beta", "--n", "5", "--count", "2",
                 "--beta-low", "0.5", "--beta-high", "10",
                 "--beta-low", "1e7", "--beta-high", "1e8",
                 "--tolx", "1e-6", "--tolx", "1e-12",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    solved = {(r["beta"], r["tolx"]): r["iterations"]
              for r in rows if r["status"] == "solved-count"}
    assert solved[("[0.5,10)", "1e-06")] == "2"
    assert solved[("[1e+07,1e+08)", "1e-12")] == "0"
    means = {(r["beta"], r["tolx"]): r["iterations"]
             for r in rows if r["status"] == "iterations-mean"}
    assert means[("[1e+07,1e+08)", "1e-12")] == "-"


def test_bench_beta_unpaired_ranges(capsys):
    assert main(["bench-beta", "--beta-low", "0.5"]) == 1
    assert "pairs" in capsys.readouterr().err


def test_out_of_range_flag_is_an_error(diagonal_file, capsys):
    for argv, message in ((["solve", diagonal_file, "--max-iter", "0"], "max_iter"),
                          (["bench-dim", "--n", "0"], "n must be"),
                          (["bench-dim", "--repeats", "0"], "repeats")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_nonpositive_tolerance_is_an_error(diagonal_file, capsys):
    # before the check, --tolx -1 reported every solve as MaxIterations
    for argv, message in ((["bench-dim", "--n", "3", "--count", "1", "--tolx", "-1"], "tol_x"),
                          (["solve", diagonal_file, "--tol-f", "0"], "tol_f")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "MaxIterations" not in captured.out


def test_bench_starts_rejects_zero_starts(capsys):
    # a sweep with no starts has no mean to report
    assert main(["bench-starts", "--n", "3", "--count", "1", "--starts", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: starts must be at least 1\n"
    assert captured.out == ""


def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/problem.json"]) == 1


def test_deeply_nested_json_is_an_error(diagonal_file, tmp_path, capsys):
    # json.load raises RecursionError here, which once escaped as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10000 + "]" * 10000)
    for argv in (["solve", str(deep)], ["solve", diagonal_file, "--x0", str(deep)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "deeply" in captured.err
        assert captured.out == ""
