"""Every top-level import in the package is used: dead imports fail here."""

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
