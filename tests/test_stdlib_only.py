"""The library imports nothing outside the standard library or the tests,
nor the slow-to-import dataclasses and inspect, its modules import one
another without a cycle, every function reads the
parameters it takes, every private function, method and class is used,
every entry point of the linear-algebra engine is used by the library,
every name a module imports is read or exported, every name a module
exports exists, once, and only the field module writes an echelon basis's
rows."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cofrig"


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


# Cold start: dataclasses alone pulls in inspect, ast, dis and tokenize, which
# take longer to import than the whole library, so records are plain classes.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def test_no_module_imports_dataclasses_or_inspect():
    slow = {(path.name, name)
            for path in sorted(SRC.glob("*.py"))
            for level, name in _imports(path)
            if level == 0 and name in SLOW_IMPORTS}
    assert not slow


def test_cli_import_leaves_the_slow_modules_unloaded():
    # -S keeps site hooks out, so only what cofrig imports is counted
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            f"import cofrig.cli; "
            f"print(sorted({sorted(SLOW_IMPORTS)!r} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_library_keeps_no_reference_search():
    # the exhaustive sequence search is a test reference, not a library path
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    leaked = {(path.name, name)
              for path in sorted(SRC.glob("*.py"))
              for level, name in _imports(path)
              if level == 0 and name in test_modules}
    assert not leaked
    modules = [importlib.import_module(f"cofrig.{path.stem}")
               for path in SRC.glob("*.py") if path.stem != "__init__"]
    for module in (importlib.import_module("cofrig"), *modules):
        assert not hasattr(module, "min_sequence_value"), module.__name__


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


def _unread_parameters(path):
    """(function, parameter) for every parameter its function never reads.

    A read inside a nested function or lambda counts.  A method's receiver
    and a parameter named ``_`` (the mark of one taken only to fit a
    callback's signature) are not checked."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for item in cls.body if isinstance(item, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params = params[1:] if id(node) in methods else params
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from ((name, p) for p in params if p != "_" and p not in read)


def test_every_parameter_is_read():
    # Every suite takes the registry's rng; the elevation suite samples nothing.
    allowed = {("verify.py", "_suite_elevation", "rng")}
    unread = {(path.name, fn, p)
              for path in sorted(SRC.glob("*.py"))
              for fn, p in _unread_parameters(path)}
    assert unread <= allowed, sorted(unread - allowed)


def _private_definitions_and_references():
    """(file, name, first line, last line) of every private function, method
    and class in the package, and (file, line, name) of every name and
    attribute anywhere in it."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))
    return defs, refs


def test_every_private_name_is_used():
    # a use inside the definition itself (recursion) does not count
    defs, refs = _private_definitions_and_references()
    assert defs
    unused = [(fname, name) for fname, name, first, last in defs
              if not any(ref == name and not (rfile == fname and first <= line <= last)
                         for rfile, line, ref in refs)]
    assert not unused, unused


def test_every_engine_entry_point_is_used_by_the_library():
    # a public function of the field module, or a public method or property
    # of EchelonBasis, that only the tests call is a second way into the
    # engine; a use inside its own body (recursion) does not count
    tree = ast.parse((SRC / "field.py").read_text())
    basis = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "EchelonBasis")
    entries = [node for node in (*tree.body, *basis.body)
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert {"absorb", "motion", "rank", "reduce_row"} <= {node.name for node in entries}
    _, refs = _private_definitions_and_references()
    unused = [node.name for node in entries
              if not any(ref == node.name and not (rfile == "field.py"
                                                    and node.lineno <= line <= node.end_lineno)
                         for rfile, line, ref in refs)]
    assert not unused, unused


def test_every_exported_name_resolves_once():
    # a stale entry would only break a star import, which no other test makes
    modules = [importlib.import_module(f"cofrig.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    exporting = [module for module in (importlib.import_module("cofrig"), *modules)
                 if hasattr(module, "__all__")]
    assert len(exporting) > 1
    for module in exporting:
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def _unread_imports(path):
    """(line, name) for every name a top-level import in path binds that the
    module never reads nor lists in its __all__, unless the line that binds
    it carries ``# noqa: F401``.  Imports from __future__ bind nothing."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield alias.lineno, name


def test_every_imported_name_is_read():
    unread = [(path.name, line, name)
              for path in sorted(SRC.glob("*.py"))
              for line, name in _unread_imports(path)]
    assert not unread, unread


def _row_writes(path):
    """(line, source) of every assignment or deletion at a subscript of a
    ``.rows`` attribute in path, augmented assignments included."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute) and node.value.attr == "rows"):
            yield node.lineno, ast.get_source_segment(source, node)


def test_only_the_field_module_writes_basis_rows():
    # how a row enters an echelon basis, and which rows are relations left
    # out, is decided in one place: EchelonBasis.absorb
    writes = [(path.name, line, text)
              for path in sorted(SRC.glob("*.py")) if path.name != "field.py"
              for line, text in _row_writes(path)]
    assert not writes, writes
    assert list(_row_writes(SRC / "field.py"))
