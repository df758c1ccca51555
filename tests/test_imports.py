"""Every top-level import in the package is used, and every private
module-level helper is read by some module of the package: dead imports
and orphaned helpers fail here."""

import ast
from pathlib import Path

import pgforge

PACKAGE = Path(pgforge.__file__).parent


def _top_level_imports(body):
    """(bound name, line) for imports at module level, including those
    inside module-level if/try blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _top_level_imports(block)


def unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        (name, line)
        for name, line in _top_level_imports(tree.body)
        if name not in used and name not in exported
    ]


def test_detector_flags_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nfrom a import b, c as d\n"
        "__all__ = ['b']\nprint(d)\n"
    )
    assert unused_imports(src) == [("os", 2), ("os", 3)]


def test_no_unused_top_level_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = {
        f.name: unused_imports(f.read_text())
        for f in files
    }
    assert {k: v for k, v in found.items() if v} == {}


def _references(node):
    """The names a syntax tree reads: names, attributes and imported
    names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def orphaned_private_helpers(sources):
    """(module, name, line) for each module-level function or class whose
    name starts with one underscore and which no module in `sources`
    ({module: text}) reads outside its own definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read_by = {}  # name -> the top-level statements that read it
    for mod, tree in trees.items():
        for stmt in tree.body:
            for name in _references(stmt):
                read_by.setdefault(name, set()).add(id(stmt))
    return [
        (mod, stmt.name, stmt.lineno)
        for mod, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not read_by.get(stmt.name, set()) - {id(stmt)}
    ]


def test_detector_flags_orphaned_private_helper():
    sources = {
        "a.py": (
            "def _used():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _orphan():\n    pass\n"
            "class _Held:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _Held()\n"
        ),
        "b.py": "from a import _used\nimport a\n_used()\n",
    }
    assert orphaned_private_helpers(sources) == [
        ("a.py", "_recursive", 3), ("a.py", "_orphan", 5)]


def test_no_orphaned_private_helpers():
    files = sorted(PACKAGE.glob("*.py"))
    assert orphaned_private_helpers({f.name: f.read_text() for f in files}) == []
