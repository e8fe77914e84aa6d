"""The README's examples run as written."""

import contextlib
import io
import json
import re
from pathlib import Path

from pwlnewton import ConeInstance, PwlsProblem, QpProblem
from pwlnewton.formats import parse_problem

README = Path(__file__).parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` block under the README heading ``heading``."""
    pattern = rf"^#+ {re.escape(heading)}\n.*?^```{language}\n(.*?)^```"
    return re.search(pattern, README.read_text(), re.M | re.S).group(1)


def test_library_quick_start_prints_what_its_comments_say():
    code = code_block("Library quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    assert printed == ["True", "ConvergedExact [ 1. -1.]"]
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    for comment, line in zip(comments, printed, strict=True):
        assert comment.startswith(line)


def test_problem_file_examples_parse():
    lines = code_block("Problem files", "json").splitlines()
    problems = [parse_problem(json.loads(line)) for line in lines]
    assert [type(p) for p in problems] == [PwlsProblem, QpProblem, ConeInstance]
