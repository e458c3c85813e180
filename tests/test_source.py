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
