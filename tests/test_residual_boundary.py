"""Only `linalg` decides whether a vector lands in a subspace.

Membership, reduction, kernels, intersections, preimages and quotients all
read `Subspace.residual` and its `free` columns.  A module outside `linalg.py`
that reads a subspace's `pivots` is deriving that decision again, so the
source of every other module is parsed and searched for the attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces"


def _reads_pivots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return any(isinstance(node, ast.Attribute) and node.attr == "pivots"
               for node in ast.walk(tree))


def test_no_module_but_linalg_reads_pivots():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "linalg.py" in modules and _reads_pivots(SRC / "linalg.py")
    readers = [path.relative_to(SRC).as_posix() for path in modules
               if path != SRC / "linalg.py" and _reads_pivots(path)]
    assert readers == []
