"""Rules that hold for the package source as a whole."""

import ast
import pathlib

import xclab


def test_no_assert_statements_in_package():
    """Checks in the package are explicit raises: `python -O` strips
    `assert` statements, and with them the check."""
    root = pathlib.Path(xclab.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                sites.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    assert not sites, "assert statements: " + ", ".join(sites)


def test_no_imports_inside_functions_in_package():
    """Every import sits at module level, so the import graph between the
    package's modules is the one their headers show, and stays acyclic."""
    root = pathlib.Path(xclab.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.update(
                    f"{path.relative_to(root.parent)}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not sites, "imports inside functions: " + ", ".join(sorted(sites))
