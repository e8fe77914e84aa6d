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


def unread_imports(tree: ast.Module) -> list[str]:
    """``name:line`` for every module-level import (but __future__'s) its module never reads."""
    imported = {}
    for node in tree.body:
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno
                             for alias in node.names})
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in read]


def test_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport a.b, c as d\nfrom e import f, g\n"
                     "x: f = a.b\ndef h():\n    import i\n")
    assert unread_imports(tree) == ["d:2", "g:3"]


def test_every_import_is_read():
    # __init__.py imports only to re-export
    unread = {path.name: unread_imports(ast.parse(path.read_text(), str(path)))
              for path in sorted(SOURCE_DIR.rglob("*.py")) if path.name != "__init__.py"}
    assert {name: found for name, found in unread.items() if found} == {}


def properties(tree: ast.AST) -> list[str]:
    """``Class.name`` for every method in tree decorated with a bare ``@property``."""
    return [f"{cls.name}.{node.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)]


def attributes_read(tree: ast.AST) -> set[str]:
    """Every attribute name that tree reads (``a.b`` as a value, not as a target)."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load)}


def test_properties_and_attribute_reads_are_found():
    tree = ast.parse("class A:\n    @property\n    def b(self):\n        return self.c\n"
                     "    @staticmethod\n    def d():\n        pass\nx.e = y.f.g\n")
    assert properties(tree) == ["A.b"]
    assert attributes_read(tree) == {"c", "f", "g"}


def test_every_property_is_read_by_the_library():
    # a property only the tests read is test-only API
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE_DIR.rglob("*.py"))]
    read = set().union(*map(attributes_read, trees))
    defined = [name for tree in trees for name in properties(tree)]
    assert [name for name in defined if name.split(".")[1] not in read] == []


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


def test_only_linalg_lets_lapack_overwrite_its_input():
    # factor consumes its matrix; which arrays may be handed to it is decided
    # next to the one place that passes scipy's overwrite flags
    naming = sorted(path.name for path in SOURCE_DIR.rglob("*.py")
                    if "overwrite_" in path.read_text())
    assert naming == ["linalg.py"]


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
    # the factor rule has one home: every step's factor or solve goes through
    # linalg, whose Cholesky branch calls potrf itself from SPLIT_MIN_ORDER up.
    # qp calls potrf on its own in two places, neither a factor it solves
    # with: QpProblem.is_positive_definite and the bordered step's
    # Schur-complement certificate.  No module names potrs: a held Cholesky
    # factor, and a fresh one from SPLIT_MIN_ORDER up, solves with one
    # triangle at a time
    kernels = {"dgesv", "dgetrs", "dposv", "dtrtrs", "dpotri", "PIVOT_RTOL", "SPLIT_MIN_ORDER"}
    searched = kernels | {"dpotrf", "dpotrs"}
    naming = {path.name: sorted(searched & named_identifiers(ast.parse(path.read_text())))
              for path in sorted(SOURCE_DIR.rglob("*.py"))}
    assert {name: found for name, found in naming.items() if found} == {
        "linalg.py": sorted(kernels | {"dpotrf"}), "qp.py": ["dpotrf"]}


def top_level_function(path: Path, name: str) -> ast.FunctionDef:
    """The top-level function ``name`` of the module at path, signature included."""
    tree = ast.parse(path.read_text(), str(path))
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_newton_driver_names_no_factor_or_kernel():
    # the driver reads only a step's order; the factor and its kernels stay
    # inside each formulation's fresh and bordered steps
    driver = top_level_function(SOURCE_DIR / "pwls.py", "_iterate_patterns")
    factor_names = {"Factor", "factor", "lu_factor", "lu_solve", "singular"}
    assert sorted(factor_names & named_identifiers(driver)) == []


def call_sites(tree: ast.AST, name: str) -> int:
    """How many calls in tree call the bare name ``name`` (not an attribute)."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == name for node in ast.walk(tree))


def test_call_sites_are_counted():
    tree = ast.parse("f(x)\nif f(y):\n    g(f)\na.f(z)\n")
    assert (call_sites(tree, "f"), call_sites(tree, "g"), call_sites(tree, "a")) == (2, 1, 0)


def test_newton_driver_judges_every_iterate_at_one_site():
    # x0 is iterate 0, so one pattern and one residual call serve every iterate
    driver = top_level_function(SOURCE_DIR / "pwls.py", "_iterate_patterns")
    assert [call_sites(driver, name) for name in ("sign_pattern", "residual_of")] == [1, 1]


def calls_by_function(tree: ast.AST, name: str) -> dict[str, int]:
    """Calls of ``name`` (bare or as an attribute) per innermost enclosing function."""
    found = {}

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found[function] = found.get(function, 0) + 1
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "<module>")
    return found


def test_calls_by_function_are_found():
    tree = ast.parse("f()\ndef g():\n    a.f(f())\n    def h():\n        f\n        f()\n")
    assert calls_by_function(tree, "f") == {"<module>": 1, "g": 2, "h": 1}


def raises_by_function(tree: ast.AST, name: str) -> dict[str, int]:
    """Raises of the exception ``name`` (bare or as an attribute) per enclosing qualified name."""
    found = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", None) == name or getattr(exc, "attr", None) == name:
                    found[scope] = found.get(scope, 0) + 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(tree, "<module>")
    return found


def test_raises_by_function_are_found():
    tree = ast.parse("raise E\nclass A:\n    def f(self):\n        raise E('x')\n"
                     "        def g():\n            raise m.E() from None\n            raise F\n")
    assert raises_by_function(tree, "E") == {"<module>": 1, "A.f": 1, "A.f.g": 1}


def test_each_refusal_has_one_raise_site_outside_linalg():
    # linalg computes and its callers decide what a result means: the QP
    # fresh step refuses an indefinite Q_AA, and ConeInstance a singular A
    errors = ("NotPositiveDefiniteError", "SingularMatrixError")
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE_DIR.rglob("*.py"))}
    found = {error: {f"{module}.{scope}": count for module, tree in trees.items()
                     for scope, count in raises_by_function(tree, error).items()}
             for error in errors}
    assert found == {"NotPositiveDefiniteError": {"qp.qp_newton_solve.fresh": 1},
                     "SingularMatrixError": {"qp.ConeInstance.__post_init__": 1}}
    assert sorted(named_identifiers(trees["linalg"]) & set(errors)) == []


def test_held_factors_solve_only_in_the_bordered_steps():
    # every fresh step and capacitance system solves in its lu_factor call;
    # only a bordered step solves again, with the held factor: against the
    # border, and, from a Cholesky factor, with L^T against W z
    found = {path.name: calls_by_function(ast.parse(path.read_text()), "lu_solve")
             for path in sorted(SOURCE_DIR.rglob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "pwls.py": {"bordered": 2}, "qp.py": {"bordered": 2}}


def matmuls(tree: ast.AST) -> list[int]:
    """Line of every ``@`` product in tree (decorators are not products)."""
    products = (ast.BinOp, ast.AugAssign)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, products) and isinstance(node.op, ast.MatMult))


def test_matmuls_are_found():
    tree = ast.parse("@d\ndef f(a):\n    a @= a\n    return a @ (lambda b: b @ b)(a)\n")
    assert matmuls(tree) == [3, 4, 4]


def test_newton_path_multiplies_with_ndarray_dot():
    # ndarray.dot makes the BLAS call (ddot, dgemv, dgemm) that @ makes, without
    # the matmul gufunc's dispatch around it: a 50-vector dot took 0.39 against
    # 0.72 us, and a 25 x 50 QP lift 0.52 against 0.94 us (one BLAS thread, a
    # 2-vCPU Xeon); each solve pays that per iterate and per step
    path = {"pwls.py": ("residual", "_iterate_patterns", "newton_solve"),
            "qp.py": ("_qp_residual", "qp_newton_solve")}
    found = {f"{module}:{name}": matmuls(top_level_function(SOURCE_DIR / module, name))
             for module, names in path.items() for name in names}
    assert {name: lines for name, lines in found.items() if lines} == {}


def square_root_norms(tree: ast.AST) -> list[int]:
    """Line of every ``sqrt(v.dot(v))`` in tree, a norm that squares its vector."""

    def squares(arg: ast.AST) -> bool:
        return (isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "dot"
                and len(arg.args) == 1 and ast.dump(arg.func.value) == ast.dump(arg.args[0]))

    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "sqrt"
                  and len(node.args) == 1 and squares(node.args[0]))


def test_square_root_norms_are_found():
    tree = ast.parse("def f(d, e):\n    a = math.sqrt(d.dot(d))\n    b = sqrt(d.dot(e))\n"
                     "    def g():\n        return np.sqrt((d - e).dot(d - e))\n"
                     "    return math.sqrt(d @ d), sqrt(d.dot(d, e))\n")
    assert square_root_norms(tree) == [2, 5]


def test_no_norm_squares_its_vector():
    # sqrt(v.dot(v)) overflows once ||v|| passes 1.3e154, where BLAS dnrm2,
    # which scales as it sums, gives the norm
    found = {path.name: square_root_norms(ast.parse(path.read_text(), str(path)))
             for path in sorted(SOURCE_DIR.rglob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}
