"""Smoke test of the layered benchmark, run as its users run it: perfbench/run.py in a subprocess."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_traced_and_untraced(tmp_path: Path, workload: str) -> None:
    """Run one workload briefly with --trace 0 and --trace 1 and check that they agree."""
    # run.py reads the sources from ./src, and a traced run writes its span
    # table under ./.bench_trace, so both run from a scratch directory
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    procs = [subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", workload, "--seed", "0", "--seconds", "0.1",
                               "--trace", str(trace)],
                              cwd=tmp_path, stdout=subprocess.PIPE, text=True)
             for trace in (0, 1)]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    digests = []
    for out in outputs:
        lines = out.splitlines()
        digests.append([line for line in lines if line.startswith("digest ")])
        result = json.loads(lines[-1])
        assert result["correct"] is True
        assert result["metrics"]
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # the tracer wraps the kernels and must change no (status, iterations) outcome
    assert len(digests[0]) == 1
    assert digests[0] == digests[1]


def test_traced_and_untraced_runs_agree(tmp_path):
    run_traced_and_untraced(tmp_path, "dim-n400")


def test_traced_and_untraced_residual_rule_runs_agree(tmp_path):
    # the only workload on the residual rule, whose reports reuse its residuals
    run_traced_and_untraced(tmp_path, "pwls-resid-n100")
