"""The package imports nothing outside the standard library.

Every module of `src/mathieuspaces` is parsed, and every absolute import in
it, function-local ones included, must name a standard-library top-level
module.  A third-party package installed next to the tests would otherwise
let a stray import pass unnoticed.  Every top-level import must also be read
by its module, apart from the re-exports in `REEXPORTS`.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces"
# module.name pairs imported only for other modules to import from there
REEXPORTS = {"mathieu.verify_mathieu_witness"}


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    foreign = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, name in _absolute_imports(tree):
            if name.partition(".")[0] not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {name}")
    assert foreign == []


def test_the_guard_sees_function_local_imports():
    tree = ast.parse("def f():\n    import numpy.linalg\n    from os import path\n")
    assert [name for _, name in _absolute_imports(tree)] == ["numpy.linalg", "os"]


def _unread_imports(tree):
    """Names bound by a top-level import of the module and read nowhere in it."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((lineno, name) for name, lineno in bound.items() if name not in read)


def test_every_top_level_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, name in _unread_imports(tree):
            if f"{path.stem}.{name}" not in REEXPORTS:
                unread.append(f"{path.name}:{lineno}: {name}")
    assert unread == []
    snippet = "from __future__ import annotations\nimport os.path\nfrom re import A, B\nA\n"
    assert _unread_imports(ast.parse(snippet)) == [(2, "os"), (3, "B")]
