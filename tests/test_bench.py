import io

import numpy as np

from pwlnewton import (
    CSV_COLUMNS,
    run_bench_beta,
    run_bench_dim,
    run_bench_starts,
    write_csv,
)

FAST = dict(max_iter=100, repeats=1)


def csv_text(records):
    buffer = io.StringIO()
    write_csv(records, buffer)
    return buffer.getvalue()


def test_csv_header_only_when_empty():
    text = csv_text([])
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_bench_dim_rows_and_totals():
    records = run_bench_dim([6], 4, [1e-6, 1e-8], seed=1, **FAST)
    per_solve = [r for r in records if r.status == "Converged"]
    assert len(per_solve) == 8
    totals = {(r.n, r.tolx): r.iterations for r in records if r.status == "total-iterations"}
    for tolx in (1e-6, 1e-8):
        rows = [r for r in per_solve if r.tolx == tolx]
        assert len(rows) == 4
        assert totals[(6, tolx)] == sum(r.iterations for r in rows)
        assert all(r.error < tolx for r in rows)
    runtime_totals = [r for r in records if r.status == "total-runtime"]
    assert len(runtime_totals) == 2
    assert all(r.runtime_s >= 0.0 for r in runtime_totals)


def test_bench_dim_same_batch_across_tolerances():
    records = run_bench_dim([5], 3, [1e-6, 1e-10], seed=2, **FAST)
    by_tol = {}
    for r in records:
        if r.status == "Converged":
            by_tol.setdefault(r.tolx, []).append(r)
    betas_6 = [r.beta for r in by_tol[1e-6]]
    betas_10 = [r.beta for r in by_tol[1e-10]]
    assert betas_6 == betas_10
    # tightening the tolerance can only stop later
    for a, b in zip(by_tol[1e-6], by_tol[1e-10]):
        assert b.iterations >= a.iterations


def test_bench_dim_deterministic_reruns():
    first = run_bench_dim([6], 3, [1e-6], seed=5, **FAST)
    second = run_bench_dim([6], 3, [1e-6], seed=5, **FAST)
    assert [(r.status, r.iterations, r.beta) for r in first] == \
        [(r.status, r.iterations, r.beta) for r in second]
    third = run_bench_dim([6], 3, [1e-6], seed=6, **FAST)
    assert [r.beta for r in first] != [r.beta for r in third]


def test_bench_starts_single_start_has_zero_std():
    records = run_bench_starts(5, 3, 1, [1e-6], seed=3, **FAST)
    stds = [r.iterations for r in records if r.status == "iterations-std"]
    assert stds == [0.0, 0.0, 0.0]
    grand = [r for r in records if r.status == "mean-of-stds"]
    assert len(grand) == 1 and grand[0].iterations == 0.0


def test_bench_starts_statistics():
    records = run_bench_starts(5, 3, 4, [1e-6], seed=4, **FAST)
    per_solve = [r for r in records if ":" in r.index]
    assert len(per_solve) == 12
    assert all(r.status == "Converged" for r in per_solve)
    means = {r.index: r.iterations for r in records if r.status == "iterations-mean"}
    for i in range(3):
        iters = [r.iterations for r in per_solve if r.index.startswith(f"{i}:")]
        assert means[str(i)] == np.mean(iters)
    grand_mean = [r for r in records if r.status == "mean-of-means"][0]
    assert grand_mean.iterations == np.mean(list(means.values()))


def test_bench_beta_empty_ranges():
    assert run_bench_beta([], 5, 3, [1e-6], seed=1, **FAST) == []
    assert csv_text(run_bench_beta([], 5, 3, [1e-6], seed=1, **FAST)).count("\n") == 1


def test_bench_beta_counts_and_dash():
    records = run_bench_beta([(1e7, 1e8)], 6, 3, [1e-6, 1e-12], seed=7, **FAST)
    solved = {r.tolx: r.iterations for r in records if r.status == "solved-count"}
    means = {r.tolx: r.iterations for r in records if r.status == "iterations-mean"}
    assert solved[1e-6] == 3
    assert solved[1e-12] == 0
    assert means[1e-12] == "-"
    assert means[1e-6] != "-"
    text = csv_text(records)
    assert ",-," in text


def test_bench_beta_range_label_in_summary():
    records = run_bench_beta([(0.5, 2.0)], 5, 2, [1e-6], seed=8, **FAST)
    labels = {r.beta for r in records if r.status == "solved-count"}
    assert labels == {"[0.5,2)"}
    for r in records:
        if r.status == "Converged":
            assert 0.5 <= r.beta < 2.0


def test_csv_schema_and_formatting():
    records = run_bench_dim([4], 2, [1e-6], seed=9, **FAST)
    text = csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,n,beta,tolx,index,status,iterations,error,runtime_s"
    assert all(line.count(",") == 8 for line in lines)
    for line in lines[1:]:
        assert line.split(",")[0] == "bench-dim"
    # decimal separator is always a dot
    beta_cell = lines[1].split(",")[2]
    assert "." in beta_cell and float(beta_cell) > 0
