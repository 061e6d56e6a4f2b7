"""Only `Field.vector` decides what a vector of F^n is.

Every module of `src/mathieuspaces` is parsed, and `check_scalar` may be
referenced outside `fields.py` only inside the definitions of `SCALAR_USES`,
which normalize single scalars, never a vector.  A module that maps
`check_scalar` over a vector is deriving that decision again, and fails the
guard until it calls `Field.vector` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces"
SCALAR_USES = {"polyspaces.Poly.__init__", "polyspaces.Poly.scale", "polyspaces.omega_member"}


def _references(tree, name: str) -> list:
    """(dotted name of the enclosing definitions, line) of every attribute,
    name or string constant in `tree` that is `name`."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Constant) and child.value == name):
                found.append((".".join(scope), child.lineno))
            walk(child, scope)

    walk(tree, ())
    return found


def _check_scalar_references() -> dict:
    """module.scope -> lines, for every module but `fields.py`."""
    out: dict = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, lineno in _references(tree, "check_scalar"):
            out.setdefault(f"{path.stem}.{scope}", []).append(lineno)
    return out


def test_check_scalar_is_read_only_by_the_scalar_uses():
    found = _check_scalar_references()
    assert {scope: lines for scope, lines in found.items() if scope not in SCALAR_USES} == {}
    # every allowed use is still there, so the list cannot go stale
    assert set(found) == SCALAR_USES


def test_the_guard_sees_every_form_of_reference():
    source = ("class A:\n"
              "    def f(self, field, v):\n"
              "        return [field.check_scalar(x) for x in v]\n"
              "\n"
              "def g(field, check_scalar=None):\n"
              "    return getattr(field, 'check_scalar'), check_scalar\n")
    assert _references(ast.parse(source), "check_scalar") == [("A.f", 3), ("g", 6), ("g", 6)]
