"""Layered benchmark of one semi-smooth Newton solve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dim-n400 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One workload runs per process, closed loop, one solve at a time.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload twice, untraced and traced, each in a fresh
process, and checks that both runs give the same (status, iterations)
digest.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("starts-n50", "dim-n400", "pwls-resid-n100")

# Every BLAS and OpenMP runtime numpy or scipy may load reads one of these
# when it is first loaded, so they are set before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The "all" mode waits this long for one workload's process.
CHILD_TIMEOUT_S = 600


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Run every workload untraced and traced, each in its own process."""
    summary: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) exited with code {proc.returncode}", file=sys.stderr)
                return 1
            digest = next(line.split()[1] for line in lines if line.startswith("digest "))
            runs.append((json.loads(lines[-1]), digest))
        (plain, digest), (traced, traced_digest) = runs
        summary[name] = {"plain": plain, "traced": traced, "digest": digest,
                         "digest_match": digest == traced_digest}

    print("\n== summary (end-to-end metrics from the untraced runs) ==")
    metrics = {}
    correct = True
    attempted = failed = 0
    for name, s in summary.items():
        plain = s["plain"]
        match = "same" if s["digest_match"] else "DIFFERENT"
        print(f"{name}: correct={plain['correct']} failed={plain['failed']}/{plain['attempted']} "
              f"digest {s['digest']} ({match} in the traced run)")
        for metric, value in plain["metrics"].items():
            print(f"  {metric:<22} {value['value']:.6g} {value['unit']}")
            metrics[f"{name}.{metric}"] = value
        for metric, value in s["traced"]["metrics"].items():
            metrics[f"{name}.{metric}"] = value
        correct = correct and plain["correct"] and s["traced"]["correct"] and s["digest_match"]
        attempted += plain["attempted"]
        failed += plain["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = Path.cwd() / "src"
    if not (src / "pwlnewton" / "__init__.py").is_file():
        print(f"no pwlnewton sources under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import harness  # imports numpy, so only after the thread variables are set

    return harness.main(args, src)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
