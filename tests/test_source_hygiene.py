"""Source hygiene of the package, read with ast: no import goes unused, no
private module-level function or class goes unreferenced and no private
module-level constant goes unread, so that a deletion cannot leave dead
imports, helpers or constants behind."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import heatband

PACKAGE = Path(heatband.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text()) for path in MODULES}


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every attribute it reads by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used_or_exported(name):
    tree = TREES[name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    unused = imported - _referenced(tree) - _exported(tree)
    assert not unused, f"{name} imports {sorted(unused)} without using them"


def test_every_private_helper_is_referenced():
    referenced = set().union(*(_referenced(tree) for tree in TREES.values()))
    unreferenced = [
        f"{name}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and node.name not in referenced]
    assert not unreferenced, f"unreferenced private helpers: {unreferenced}"


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, and every attribute it reads by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_constant_is_read():
    read = set().union(*(_read(tree) for tree in TREES.values()))
    unread = [
        f"{name}: {target.id}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for target in ast.walk(target)
        if isinstance(target, ast.Name) and target.id.startswith("_")
        and not target.id.startswith("__") and target.id not in read]
    assert not unread, f"unread private constants: {unread}"


def test_only_initial_data_tests_a_leaf_class():
    # a leaf's kind is decided in one place, initial_data._Leaves.of; the
    # other modules read the split (and may still tell an expression from a
    # plain callable)
    leaves = {cls.__name__ for cls in vars(heatband.initial_data).values()
              if isinstance(cls, type) and issubclass(cls, heatband.InitialDataExpr)
              and cls is not heatband.InitialDataExpr}
    tests = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items() if name != "initial_data.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and leaves & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    ]
    assert not tests, f"leaf classes tested outside initial_data at {tests}"
