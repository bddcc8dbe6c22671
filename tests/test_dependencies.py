"""The package imports nothing outside the standard library but numpy,
its one declared dependency."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "speechmine"


def test_absolute_imports_are_stdlib_or_numpy():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.partition(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.partition(".")[0]))
    assert imported
    assert sorted((f, m) for f, m in imported if m not in sys.stdlib_module_names | {"numpy"}) == []
