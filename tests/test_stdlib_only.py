"""The package imports nothing outside the standard library.

Every module of `src/mathieuspaces` is parsed, and every absolute import in
it, function-local ones included, must name a standard-library top-level
module.  A third-party package installed next to the tests would otherwise
let a stray import pass unnoticed.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces"


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
