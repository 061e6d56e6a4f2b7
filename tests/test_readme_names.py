"""Every package name README.md cites in backticks still exists.

A backticked dotted name whose head is a module of the package, such as
`oracles._j_view`, or a class the package defines, such as
`Algebra.mult_table`, must resolve by `getattr`; an instance attribute, such
as `Algebra._memo`, must be assigned (or annotated) as `self.<attr>` in its
class's source.  File names (`linalg.py`) and lower-case local names (`algebra.index_of`,
`j.elements()`) are not package names and are skipped.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import mathieuspaces

README = Path(__file__).resolve().parent.parent / "README.md"
# a backticked span that starts with a dotted name, such as `Algebra.element_count(cap)`
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)")


def _package_heads() -> dict:
    """Each module of the package by its name, and each class it defines by
    the class name."""
    heads = {}
    for info in pkgutil.iter_modules(mathieuspaces.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"{mathieuspaces.__name__}.{info.name}")
        heads[info.name] = module
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                heads[value.__name__] = value
    return heads


def _resolves(owner, attrs) -> bool:
    *path, last = attrs
    for attr in path:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    if hasattr(owner, last):
        return True
    return inspect.isclass(owner) and re.search(
        rf"\bself\.{re.escape(last)}\s*[:=]", inspect.getsource(owner)) is not None


def test_every_package_name_the_readme_cites_resolves():
    heads = _package_heads()
    cited = {m.group(1) for m in CITED.finditer(README.read_text())}
    names = sorted(n for n in cited
                   if not n.endswith(".py") and n.split(".")[0] in heads)
    assert {"oracles._j_view", "Algebra.mult_table", "Algebra._memo"} <= set(names)
    missing = [n for n in names if not _resolves(heads[n.split(".")[0]], n.split(".")[1:])]
    assert missing == []
