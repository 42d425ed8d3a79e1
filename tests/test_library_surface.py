"""No production code exists only for the tests: every function, class,
public method and module-level name in the package is reached from the
package itself, and every defaulted parameter is set by some call there or
in an acceptance criterion.  An acceptance criterion also reaches the names
of ``graphqec.__all__`` and the members of its classes, which are the
library's own surface; nothing else counts as reached by a test.  Checked on
the source with ``ast``, by name."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import graphqec

SRC = Path(graphqec.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
PUBLIC = frozenset(graphqec.__all__)

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
        and not (qualname.split(".")[0] in PUBLIC and acceptance[node.name])
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
        if not package[name]
        and not (name in PUBLIC and acceptance[name])
        and name not in ALLOWED
    ]
    assert unread == []


def defaulted(func: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter of ``func`` that has a default,
    with the position as callers count it (``self`` and ``cls`` are not
    passed) and ``None`` for keyword-only parameters."""
    positional = func.args.posonlyargs + func.args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(func.args.defaults)
    return [
        (i - skip, arg.arg) for i, arg in enumerate(positional) if i >= first
    ] + [
        (None, arg.arg)
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
        if default is not None
    ]


def calls(tree: ast.AST, classes: set[str]):
    """(callee name, positional count, keyword names) of each call in
    ``tree``, by name; calling a class, or ``cls``, calls ``__init__``.  A
    ``*args`` sets every position and a ``**kwargs`` every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in classes or name == "cls":
            name = "__init__"
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {kw.arg for kw in node.keywords}
        yield name, float("inf") if starred else len(node.args), keywords


def test_every_default_is_overridden_by_some_caller():
    """A defaulted parameter that no call in the package or in an acceptance
    criterion sets is a knob nothing turns."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = {
        node.name for tree in trees.values()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    setters: dict[str, list[tuple[float, set]]] = {}
    for tree in [*trees.values(), ast.parse(ACCEPTANCE.read_text())]:
        for name, count, keywords in calls(tree, classes):
            setters.setdefault(name, []).append((count, keywords))
    unset = [
        f"{module}: {node.name}({name}=...)"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for position, name in defaulted(node)
        if not any(
            (position is not None and count > position) or name in keywords or None in keywords
            for count, keywords in setters.get(node.name, [])
        )
    ]
    assert unset == []
