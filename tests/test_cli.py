import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwlnewton
from pwlnewton import formats
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


# --------------------------------------------------------------- refusals


REFUSALS = {
    "cone file to solve": (
        ["solve", "{cone}"], "cone files are handled by the 'project' command"),
    "Q not positive definite": (
        ["solve", "{indefinite}"],
        "Q is not positive definite, so a solution of the QP equation need not minimize the QP"),
    "pwls file as qp": (
        ["solve", "{pwls}", "--formulation", "qp"],
        "a pwls file cannot be solved in qp formulation"),
    "Q - I singular as pwls": (
        ["solve", "{q_minus_i_singular}", "--formulation", "pwls"],
        "Q - I is singular; the T/b form does not exist"),
    "non-cone file to project": (
        ["project", "{pwls}"], "'project' expects a cone problem file"),
    "unpaired beta range": (
        ["bench-beta", "--beta-low", "0.5"], "--beta-low and --beta-high must come in pairs"),
}


@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_exits_1_with_one_error_line(argv, message, diagonal_file, tmp_path, capsys):
    files = {
        "cone": write_json(tmp_path / "cone.json", {"kind": "cone", "A": [[1.0]], "z": [1.0]}),
        "indefinite": write_json(tmp_path / "qp.json", {
            "kind": "qp", "Q": [[1.0, 3.0], [3.0, 1.0]], "b_tilde": [-1.0, -1.0]}),
        "pwls": diagonal_file,
        # Q is positive definite, but its eigenvalue 1 makes Q - I singular
        "q_minus_i_singular": write_json(tmp_path / "qp1.json", {
            "kind": "qp", "Q": [[1.0, 0.0], [0.0, 2.0]], "b_tilde": [-1.0, -1.0]}),
    }
    assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    # T = 3I is symmetric, so each step is one posv, whose Cholesky solve of
    # diag(4, 3) x = [4, -3] rounds x_1 to -1.0000000000000002 (gesv gave -1.0)
    assert "solution: [1.0, -1.0000000000000002]" in out


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
    # T = [[0.2]]^-1 and the step on T + 1 are each one posv, which rounds
    # through a square root where gesv divided once (it gave 2.0)
    assert "solution: [1.9999999999999996]" in out


@pytest.mark.parametrize("c", [3.5, "x", True, [7]], ids=["number", "string", "bool", "list"])
@pytest.mark.parametrize("formulation", ["auto", "pwls"])
def test_solve_ignores_a_legacy_c_in_a_qp_file(c, formulation, tmp_path, capsys):
    # the objective's constant enters no step, so the format names no "c"
    payload = {"kind": "qp", "Q": [[1.2, 0.1], [0.1, 1.1]], "b_tilde": [-2.4, 1.0]}
    outputs = []
    for name, obj in (("plain", payload), ("legacy", {**payload, "c": c})):
        report = tmp_path / f"{name}.report.json"
        argv = ["solve", write_json(tmp_path / f"{name}.json", obj), "--formulation", formulation,
                "--trace", "--report", str(report)]
        assert main(argv) == 0
        outputs.append((capsys.readouterr(), report.read_bytes()))
    assert outputs[0] == outputs[1]


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
    assert payload["solution"] == [1.0, -1.0000000000000002]  # posv's rounding, as above
    assert payload["condition"]["rate_ok"] is True
    assert len(payload["iterates"]) == payload["iterations"] + 1


def test_solve_trace_without_report_prints_the_report(diagonal_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["solve", diagonal_file, "--trace", "--report", str(report_path)]) == 0
    summary = capsys.readouterr().out
    assert main(["solve", diagonal_file, "--trace"]) == 0
    out = capsys.readouterr().out
    # the summary lines, then the JSON report that --report writes to its file
    assert out == summary + report_path.read_text()
    assert len(json.loads(out[len(summary):])["iterates"]) >= 2


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


@pytest.mark.parametrize("command", ["bench-dim", "bench-starts", "bench-beta"])
@pytest.mark.parametrize("flag, value, message", [
    ("--max-iter", "0", "max_iter"),
    ("--tolx", "0", "tol_x"),
    ("--tolx", "nan", "tol_x"),
    ("--repeats", "0", "repeats"),
])
def test_bench_flag_is_checked_before_any_instance(command, flag, value, message, capsys):
    # --count 0 draws no instance and runs no solve, so nothing else would refuse the flag
    assert main([command, "--count", "0", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["bench-dim", "bench-beta"])
def test_infinite_beta_is_checked_before_any_instance(command, capsys):
    # with --count 1 this was a numpy OverflowError traceback, with --count 0 exit 0
    assert main([command, "--count", "0", "--beta-low", "1", "--beta-high", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "beta_high < inf" in captured.err
    assert captured.out == ""


def test_bench_beta_checks_every_range_before_any_batch(monkeypatch, capsys):
    # the second range is empty; no batch of the first may be drawn before it is refused
    drawn = []
    monkeypatch.setattr(pwlnewton.bench, "make_batch", lambda *args: drawn.append(args))
    argv = ["bench-beta", "--beta-low", "0.5", "--beta-high", "1e3",
            "--beta-low", "5", "--beta-high", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: need 0 < beta_low < beta_high < inf, "
                            "got beta_low=5.0, beta_high=1.0\n")
    assert captured.out == ""
    assert drawn == []


def test_bench_beta_refuses_an_overflowing_range_before_any_batch(monkeypatch, capsys):
    # beta in [1e303, 1e304) at n = 3 gives an infinite b_tilde; the range is
    # refused by name before any instance is drawn, while [1e301, 1e302) runs
    drawn = []
    make_batch = pwlnewton.bench.make_batch
    monkeypatch.setattr(pwlnewton.bench, "make_batch",
                        lambda *args: drawn.append(args) or make_batch(*args))
    base = ["bench-beta", "--n", "3", "--count", "3", "--tolx", "1e-6"]
    assert main(base + ["--beta-low", "1e301", "--beta-high", "1e302",
                        "--beta-low", "1e303", "--beta-high", "1e304"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: beta_high=1e+304 overflows an instance of n=3: ")
    assert captured.out == ""
    assert drawn == []
    assert main(base + ["--beta-low", "1e301", "--beta-high", "1e302"]) == 0
    assert len(drawn) == 1
    assert "bench-beta,3," in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["solve", "{pwls}", "--x0", "random", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["project", "{cone}", "--x0", "random", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["bench-dim", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["bench-starts", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["bench-beta", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["bench-dim", "--n", "-3", "--count", "0"], "n must be at least 1, got -3"),
    (["bench-starts", "--n", "-3"], "n must be at least 1, got -3"),
    (["bench-beta", "--n", "-3"], "n must be at least 1, got -3"),
], ids=["solve", "project", "bench-dim", "bench-starts", "bench-beta",
        "bench-dim-n", "bench-starts-n", "bench-beta-n"])
def test_negative_seed_or_n_is_named(argv, message, diagonal_file, tmp_path, capsys):
    # these were numpy's "expected non-negative integer", from the seed stream
    files = {"pwls": diagonal_file,
             "cone": write_json(tmp_path / "cone.json", {"kind": "cone", "A": [[1.0]], "z": [1.0]})}
    assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


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


def test_json_input_over_size_cap_is_an_error(diagonal_file, tmp_path, monkeypatch, capsys):
    cap = os.path.getsize(diagonal_file)
    monkeypatch.setattr(formats, "MAX_JSON_BYTES", cap)
    x0 = tmp_path / "x0.json"
    x0.write_text("[1.0, 1.0]" + " " * cap)
    assert main(["solve", diagonal_file]) == 0
    capsys.readouterr()
    assert main(["solve", diagonal_file, "--x0", str(x0)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"{cap} bytes" in captured.err
    monkeypatch.setattr(formats, "MAX_JSON_BYTES", cap - 1)
    assert main(["solve", diagonal_file]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"{cap} bytes" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------- console entry


def run_module(*args):
    """Run ``python -m pwlnewton`` in a fresh interpreter on this package."""
    source = str(Path(pwlnewton.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pwlnewton", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_entry_csv_matches_out_file(diagonal_file, tmp_path):
    flags = ["bench-starts", "--n", "4", "--count", "2", "--starts", "2"]
    stdout_run = run_module(*flags)
    assert stdout_run.returncode == 0 and stdout_run.stderr == ""
    out = tmp_path / "starts.csv"
    assert run_module(*flags, "--out", str(out)).returncode == 0

    def without_runtime(text):
        return [row[:-1] for row in csv.reader(text.splitlines())]

    assert without_runtime(stdout_run.stdout) == without_runtime(out.read_text())
    assert len(without_runtime(stdout_run.stdout)) > 1

    refused = run_module("project", diagonal_file)
    assert refused.returncode == 1
    assert refused.stdout == ""
    assert refused.stderr == "error: 'project' expects a cone problem file\n"


@pytest.mark.parametrize("problem, k", [
    # Q is SPD and passes the pivot rule; the second step's x_2 = 1e311 overflows
    ({"kind": "qp", "Q": [[1.0, 0.0], [0.0, 1e-11]], "b_tilde": [-1.0, -1e300]}, 2),
    ({"kind": "pwls", "T": [[1e-11, 0.0], [0.0, 1.0]], "b": [1e300, 1.0]}, 1),
], ids=["qp", "pwls"])
def test_overflowing_iterate_is_named(problem, k, tmp_path, capsys):
    assert main(["solve", write_json(tmp_path / "overflow.json", problem)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: Newton iterate {k} is not finite (the step overflowed)\n"
    assert captured.out == ""


def test_overflowing_residual_leaves_stderr_empty(tmp_path):
    # the residual T x - b overflows from this start; the user sees an inf
    # residual on stdout and exit 4, not numpy's RuntimeWarning
    problem = write_json(tmp_path / "huge.json",
                         {"kind": "pwls", "T": [[1e300, 1e300], [1e300, 1e300]], "b": [1.0, 1.0]})
    x0 = write_json(tmp_path / "x0.json", [1e10, 1e10])
    run = run_module("solve", problem, "--x0", x0)
    assert run.returncode == 4
    assert run.stderr == ""
    assert "final residual (max-norm): inf" in run.stdout
