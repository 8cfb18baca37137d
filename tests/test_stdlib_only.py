"""The library imports nothing outside the standard library, and its
modules import one another without a cycle."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cofrig"


def _imports(path):
    """(level, name) for every module an import in path names, imports inside
    functions included; level 0 is absolute, level 1 relative to the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.level, node.module.split(".")[0]
            else:
                for alias in node.names:
                    yield node.level, alias.name


def test_every_import_is_stdlib_or_cofrig():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        (path.name, name)
        for path in files
        for level, name in _imports(path)
        if level == 0 and name != "cofrig" and name not in sys.stdlib_module_names
    }
    assert not outside


def test_internal_imports_have_no_cycle():
    remaining = {path.stem: {name for level, name in _imports(path) if level == 1}
                 for path in SRC.glob("*.py")}
    assert len(remaining) > 1
    # Peel off modules that import nothing still remaining; a cycle never peels.
    while remaining:
        leaves = [name for name, deps in remaining.items()
                  if not deps & remaining.keys()]
        assert leaves, f"import cycle among {sorted(remaining)}"
        for name in leaves:
            del remaining[name]
