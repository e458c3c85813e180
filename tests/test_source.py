"""Rules that hold for the package source as a whole."""

import argparse
import ast
import builtins
import importlib
import os
import pathlib
import re
import subprocess
import sys

import xclab
from xclab.bounds import BoundConfig
from xclab.cli import _build_parser


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


def test_no_module_imports_a_private_name_from_another():
    """A `_`-prefixed name stays inside its module: another module reaches
    it only through that module's public functions and classes."""
    root = pathlib.Path(xclab.__file__).parent
    sites = [
        f"{path.relative_to(root.parent)}:{node.lineno} {alias.name}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not sites, "private names imported: " + ", ".join(sites)


def test_every_imported_name_is_used_in_its_module():
    """A package module uses every module-level name it imports, so its
    header shows only what it depends on.  `__init__.py` re-exports and
    `from __future__` are exempt, and so are the names allowed below."""
    # perfbench's span table wraps `xclab.matchgen.lp_solve`; the entry goes
    # once the table names `lp_solve_all` instead.
    allowed = {"xclab.matchgen.lp_solve"}
    root = pathlib.Path(xclab.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [
                    f"{module}.{name}"
                    for name in names
                    if name not in used and f"{module}.{name}" not in allowed
                ]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_importing_the_cli_loads_neither_tempfile_shutil_nor_hashlib():
    """Output files are written without `tempfile`, input files are hashed
    by CPython's built-in SHA-256, and matrices are written as JSON only,
    so a process that imports xclab pays neither for `tempfile` and the
    `shutil` it pulls in, nor for `hashlib` and the OpenSSL its `_hashlib`
    links, nor for `csv` and its `_csv` extension.  `-S` keeps site hooks,
    which may import any of them, out of the check."""
    src = str(pathlib.Path(xclab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, xclab.cli; "
        "print(sorted({'tempfile', 'shutil', 'hashlib', '_hashlib', 'csv', '_csv'}"
        " & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_importing_sepmeasure_loads_neither_bounds_nor_yannakakis():
    """The weight matrix lives next to the ground, so the cut-matching layer
    pulls in neither the bound searches nor the factorization layer."""
    src = str(pathlib.Path(xclab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, xclab.sepmeasure; "
        "print(sorted({'xclab.bounds', 'xclab.yannakakis'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Records come from xclab.record, so a process that imports xclab pays
    for neither `dataclasses` nor the `inspect` it pulls in."""
    src = str(pathlib.Path(xclab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, xclab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def _settable_values() -> list[str]:
    """Every value a user can set: each verb's option flags, each defaulted
    parameter of a public function or method (cli.main's argv aside), each
    BoundConfig field and each environment variable the package reads."""
    (verbs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    out = [
        f"{verb} {action.option_strings[-1]}"
        for verb, parser in verbs.choices.items()
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    ]
    out += [f"BoundConfig.{name}" for name in BoundConfig._fields]
    root = pathlib.Path(xclab.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [("", node) for node in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [(f"{cls.name}.", node) for node in cls.body]
        for prefix, fn in defs:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            names = [a.arg for a in args[len(args) - len(fn.args.defaults):]]
            names += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            out += [f"{path.stem}.{prefix}{fn.name}({name})" for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "os.environ.get", "os.getenv"
            ):
                out.append(f"${node.args[0].value}")
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
                out.append(f"${ast.literal_eval(node.slice)}")
    out.remove("cli.main(argv)")
    return out


def test_settable_value_count():
    """A new flag, defaulted parameter, config field or environment variable
    changes this count; a change that adds one updates the pin and says why."""
    values = _settable_values()
    assert len(values) == len(set(values))
    assert len(values) == 101, "\n".join(values)


def _functions():
    """(site, function node) for every function and method in the package."""
    root = pathlib.Path(xclab.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield f"{path.relative_to(root.parent)}:{fn.lineno}", fn


def _loaded(fn) -> set[str]:
    """The names a function reads, nested functions included."""
    return {
        node.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_parameter_is_read():
    """A package function reads every named parameter it takes, `self` and
    `cls` aside: one it never reads is a value its callers pass for nothing.
    A `*` or `**` parameter may absorb what a protocol passes unread."""
    unread = []
    for site, fn in _functions():
        args = fn.args
        loaded = _loaded(fn)
        unread += [
            f"{site} {a.arg}"
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.arg not in ("self", "cls") and a.arg not in loaded
        ]
    assert not unread, "parameters never read: " + ", ".join(unread)


def test_every_assigned_local_is_read():
    """A package function reads every local name it assigns, `_` aside."""
    unread = []
    for site, fn in _functions():
        loaded = _loaded(fn)
        unread += sorted(
            {
                f"{site} {node.id}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and node.id != "_"
                and node.id not in loaded
            }
        )
    assert not unread, "locals assigned but never read: " + ", ".join(unread)


def _is_xclab_module(name: str) -> bool:
    root = pathlib.Path(xclab.__file__).parent
    parts = name.split(".")
    if parts[0] == "xclab":
        parts = parts[1:]
    path = root.joinpath(*parts)
    return path.is_dir() or path.with_suffix(".py").is_file()


def test_readme_module_table_names_only_what_exists():
    """Each backticked identifier in a row of README's module table is an
    attribute of that row's module, a builtin, a standard-library module or
    an xclab module; spans that are not identifiers, such as `@record`, are
    prose."""
    readme = pathlib.Path(xclab.__file__).parents[2] / "README.md"
    identifier = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
    missing = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(xclab[\w.]*)` \|", line)
        if row is None:
            continue
        module = importlib.import_module(row.group(1))
        for name in re.findall(r"`([^`]*)`", line)[1:]:
            if not identifier.fullmatch(name):
                continue
            head, *rest = name.split(".")
            target = getattr(module, head, None)
            for part in rest:
                target = getattr(target, part, None)
            if (
                target is None
                and not hasattr(builtins, name)
                and name not in sys.stdlib_module_names
                and not _is_xclab_module(name)
            ):
                missing.append(f"{row.group(1)}: {name}")
    assert not missing, "README names what does not exist: " + ", ".join(missing)


def test_no_parameter_takes_two_package_types():
    """A parameter takes one of the package's types: no annotation is a `|`
    union naming two or more classes defined in the package, so a callee
    never branches on which of them it was given."""
    root = pathlib.Path(xclab.__file__).parent
    classes = {
        node.name
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }

    def members(node) -> set[str]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return members(node.left) | members(node.right)
        return {ast.unparse(node).strip("'\"")}

    sites = [
        f"{site} {a.arg}"
        for site, fn in _functions()
        for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if a.annotation is not None and len(members(a.annotation) & classes) > 1
    ]
    assert not sites, "parameters taking two package types: " + ", ".join(sites)


def _scoped_calls(node, scope: str = ""):
    """(qualified scope, call) for every call under node; the scope names
    the enclosing classes and functions, dot-separated."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_calls(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _scoped_calls(child, scope)


def test_no_function_branches_on_a_package_type():
    """A package function takes one form of each value, so outside `__eq__`
    no `isinstance` test names a class defined in the package."""
    root = pathlib.Path(xclab.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in root.rglob("*.py")}
    classes = {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    sites = {}
    for path, tree in sorted(trees.items()):
        for scope, call in _scoped_calls(tree):
            if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"):
                continue
            kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else [call.args[1]]
            named = {ast.unparse(kind).rsplit(".", 1)[-1] for kind in kinds} & classes
            if named and not scope.endswith("__eq__"):
                sites[f"{path.stem}.{scope}"] = sorted(named)
    found = [f"{site} {named}" for site, named in sites.items()]
    assert not found, "isinstance on a package type: " + ", ".join(found)
