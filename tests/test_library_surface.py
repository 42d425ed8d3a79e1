"""No production code exists only for the tests: every function, class and
public method in the package is reached from the package itself or called
by an acceptance criterion.  Checked on the source with ``ast``, by name."""

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
