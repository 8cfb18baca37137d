"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cofrig"


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_cofrig():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        (path.name, name)
        for path in files
        for name in _top_level_imports(path)
        if name != "cofrig" and name not in sys.stdlib_module_names
    }
    assert not outside
