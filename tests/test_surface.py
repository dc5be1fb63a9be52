"""Dead library surface: the package's modules are parsed, not imported,
and every import and every module-level function or class must have a
reader. A name that only tests read belongs in tests/oracles/, not in the
package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mnarcause"
ENTRY_POINTS = {("cli", "main")}  # [project.scripts] in pyproject.toml


def modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def references(tree):
    """Every name read, as a bare name or as an attribute, outside import
    statements. The modules use `from __future__ import annotations`, so
    no annotation needs quotes and a quoted one is not searched."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def bound_imports(tree):
    """(bound name, line) of every import except from __future__."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return bound


def unused_imports(trees):
    # the package's __init__ imports to re-export; that is its use
    found = []
    for name, tree in trees.items():
        if name != "__init__":
            used = references(tree)
            found += [f"{name}.py:{line} imports {bound!r} and never uses it"
                      for bound, line in bound_imports(tree) if bound not in used]
    return found


def unread_definitions(trees):
    exported = {bound for bound, _ in bound_imports(trees["__init__"])}
    statements = [(name, stmt, references(stmt))
                  for name, tree in trees.items() if name != "__init__"
                  for stmt in tree.body]
    found = []
    for name, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if stmt.name in exported or (name, stmt.name) in ENTRY_POINTS:
            continue
        # a reader is any other top-level statement, in this module or another
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            found.append(f"{name}.{stmt.name} (line {stmt.lineno}) is neither "
                         "exported nor read anywhere in the package")
    return found


def test_sources_found():
    assert {"__init__", "cli", "data", "glm", "solver", "wee"} <= set(modules())


def test_no_unused_import():
    assert unused_imports(modules()) == []


def test_every_definition_has_a_reader():
    assert unread_definitions(modules()) == []


def test_checks_have_teeth():
    # a dead helper and an unused import, in a copy of the real modules
    trees = modules()
    trees["glm"].body.insert(0, ast.parse("import json").body[0])
    trees["glm"].body.append(ast.parse("def _dead(x):\n    return _dead(x)").body[0])
    assert unused_imports(trees) == ["glm.py:1 imports 'json' and never uses it"]
    assert [f.split(" ")[0] for f in unread_definitions(trees)] == ["glm._dead"]
