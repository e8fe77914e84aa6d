"""Static checks on the library source, standing in for a linter."""

import ast
from pathlib import Path

import pwlnewton

SOURCE_DIR = Path(pwlnewton.__file__).parent


def unread_parameters(tree: ast.AST) -> list[str]:
    """``name:line param`` for every parameter its function or lambda never reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}:{node.lineno} {p.arg}" for p in params
                   if p.arg not in ("self", "cls") and p.arg not in read]
    return unread


def test_unread_parameter_is_found():
    tree = ast.parse("def f(a, b, *, c):\n    return a + (lambda d, e: d)(c, 0)\n")
    assert unread_parameters(tree) == ["f:1 b", "<lambda>:2 e"]


def test_every_parameter_is_read():
    unread = {path.name: unread_parameters(ast.parse(path.read_text(), str(path)))
              for path in sorted(SOURCE_DIR.rglob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}
