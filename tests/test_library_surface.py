"""No production code exists only for the tests: every function, class,
public method and module-level name in the package is reached from the
package itself or by an acceptance criterion.  Checked on the source with
``ast``, by name."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import graphqec

SRC = Path(graphqec.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Reached from outside the package's code, one reason each.
ALLOWED = {
    "serialize_graph": "writes the documented graph file format that parse_graph reads",
    "__getattr__": "called by Python to load the package's lazy exports",
    "__dir__": "called by dir() on the package",
    "__version__": "read by users and packaging tools as the package version",
}


def referenced(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute in ``tree``.
    The export table in ``__init__`` holds names as strings, so it does not
    count."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and class and
    of every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_reached():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    package = sum((referenced(tree) for tree in trees.values()), Counter())
    acceptance = referenced(ast.parse(ACCEPTANCE.read_text()))
    unreached = [
        f"{module}: {qualname}"
        for module, tree in trees.items()
        for qualname, node in definitions(tree)
        if package[node.name] <= referenced(node)[node.name]
        and not acceptance[node.name]
        and node.name not in ALLOWED
    ]
    assert unreached == []


def assigned(tree: ast.Module):
    """Names bound by the module-level assignments of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def loaded(tree: ast.AST) -> Counter:
    """How often each name is read, not bound, as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_module_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    package = sum((loaded(tree) for tree in trees.values()), Counter())
    acceptance = referenced(ast.parse(ACCEPTANCE.read_text()))
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in assigned(tree)
        if not package[name] and not acceptance[name] and name not in ALLOWED
    ]
    assert unread == []
