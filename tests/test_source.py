"""Static checks on the library and oracle source, standing in for a linter."""

import ast
import sys
from pathlib import Path

import pwlnewton

SOURCE_DIR = Path(pwlnewton.__file__).parent
ORACLES = Path(__file__).with_name("_oracles.py")


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


def imported_modules(tree: ast.AST) -> list[str]:
    """Top-level name of every module an import in tree names, "." for a relative one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." if node.level else node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    tree = ast.parse("import a.b, c\nfrom d.e import f\nfrom . import g\ndef h():\n    import i\n")
    assert imported_modules(tree) == ["a", "c", "d", ".", "i"]


def test_oracles_import_only_numpy_scipy_and_the_standard_library():
    # the oracles must share no code with the Newton path they check
    allowed = {"numpy", "scipy"} | sys.stdlib_module_names
    modules = imported_modules(ast.parse(ORACLES.read_text(), str(ORACLES)))
    assert "numpy" in modules
    assert [m for m in modules if m not in allowed] == []


def test_reuse_limits_are_named_only_by_the_newton_driver():
    # the factor-reuse rule lives in pwls._iterate_patterns alone
    naming = sorted(path.name for path in SOURCE_DIR.rglob("*.py")
                    if "REUSE_MIN_SIZE" in path.read_text() or "REUSE_RATIO" in path.read_text())
    assert naming == ["pwls.py"]


def named_identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name the code in tree refers to."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_named_identifiers_are_found():
    tree = ast.parse("from a import b as c\nimport d.e\nf.g = h  # i\n'j'\n")
    assert named_identifiers(tree) == {"b", "e", "f", "g", "h"}


def test_lapack_lu_and_pivot_rule_are_named_only_by_linalg():
    # the factor rule has one home: every LU factor or solve goes through linalg
    kernels = {"dgetrf", "dgetrs", "PIVOT_RTOL"}
    naming = {path.name: sorted(kernels & named_identifiers(ast.parse(path.read_text())))
              for path in sorted(SOURCE_DIR.rglob("*.py"))}
    assert {name: found for name, found in naming.items() if found} == {
        "linalg.py": sorted(kernels)}
