"""Every oracle lives in `oracles.py` and shares no code with the fast paths.

`is_theta_mathieu_bruteforce` is the oracle the idempotent decider and the
memoized bulk verdicts are refereed against, and `verify_mathieu_witness`
re-validates every negative verdict; both read J through its view
(`_j_view`, from J's enumerated elements) or, in the re-validator when no view
is cached, through an elimination against J's basis (`_in_span`), never
through the residual map the deciders test membership with.
`_fixpoint_submodule` referees the kernel
behind `max_submodule`, `_flat_matmul` the library's matrix products, and
`_horner_eval`, `_double_sum_integral`, `_independent_twist` and
`_subset_sums_nonzero` the integer polynomial kernels and the subset-sum scan.

The guard fails closed.  `oracles.py` is parsed, and each of its top-level
definitions may read an attribute, or a name the module imports from the
package, only if `ALLOWED` holds it; an import from the package may bind only
such names.  Locals, parameters, builtins, the standard library and the
module's own definitions are exempt, and so are annotations, which
`from __future__ import annotations` never evaluates: an import may bind a
type that only annotations name.  A new fast path therefore fails the guard
until it is deliberately allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces"
PACKAGE = "mathieuspaces"
ORACLE_NAMES = ("_j_view", "is_theta_mathieu_bruteforce", "_indexed_witness",
                "verify_mathieu_witness", "_in_span", "_fixpoint_submodule", "_flat_matmul", "_is_nonzero_scalar_of_identity",
                "_horner_eval", "_independent_twist", "_subset_sums_nonzero",
                "_double_sum_integral")
ALLOWED = frozenset({
    # imported from the package; `BoundedMemo` bounds the cache of J's views
    "normalize_theta", "DEFAULT_ELEMENT_CAP", "BoundedMemo",
    # algebras: products, powers and the element enumeration
    "multiply", "power_trajectory", "mult_table", "trajectory_indices", "element_list",
    "element_count", "index_of", "vector_at", "_check_subspace",
    # power trajectories
    "tail", "cycle", "power",
    # subspaces: the stored basis and the enumeration of its elements, never
    # the residual map that membership tests read
    "is_full", "elements", "basis",
    # modules and fields; `vector` normalizes a witness's vectors
    "actions", "field", "p", "vector",
    # polynomials and evaluation configurations, read as stored
    "coeffs_univariate", "terms", "weights", "points",
    # the field of `MathieuVerdict`, builtin containers, `BoundedMemo` and itertools
    "is_mathieu", "get", "items", "add", "put", "__getitem__", "combinations",
})


def _tree(path=SRC / "oracles.py"):
    return ast.parse(path.read_text(), filename=str(path))


def _bound(node) -> list:
    """The names `node` binds if it imports from the package, else []."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == PACKAGE):
        return [alias.asname or alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names
                if alias.name.split(".")[0] == PACKAGE]
    return []


def _evaluated(node):
    """`node` and every node under it but annotations."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _evaluated(child)


def unallowed_reads(tree, node) -> list:
    """What `node` reads or imports off the allow-list: every attribute, every
    name that `tree` imports from the package, and every name an import from
    the package binds, unless only annotations use it, all outside ALLOWED."""
    imported = {name for sub in ast.walk(tree) for name in _bound(sub)}
    names = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    annotation_only = names - {sub.id for sub in _evaluated(tree) if isinstance(sub, ast.Name)}
    found = set()
    for sub in _evaluated(node):
        if isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Name) and sub.id in imported:
            found.add(sub.id)
        else:
            found.update(set(_bound(sub)) - annotation_only)
    return sorted(found - ALLOWED)


TREE = _tree()
DEFINITIONS = [node for node in TREE.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


@pytest.mark.parametrize("definition", DEFINITIONS, ids=[d.name for d in DEFINITIONS])
def test_the_oracle_reads_only_allowed_names(definition):
    assert unallowed_reads(TREE, definition) == []


def test_the_module_reads_and_imports_only_allowed_names():
    assert any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
               and [alias.name for alias in node.names] == ["annotations"] for node in TREE.body)
    assert unallowed_reads(TREE, TREE) == []


def test_every_oracle_lives_in_the_oracle_module():
    def defined(tree):
        return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

    assert set(ORACLE_NAMES) <= defined(TREE)
    for filename in ("mathieu.py", "verify.py"):
        assert defined(_tree(SRC / filename)).isdisjoint(ORACLE_NAMES), filename


@pytest.mark.parametrize("source, in_module, in_oracle", [
    ("def oracle(algebra, j):\n    return [e for e in algebra.idempotents() if j.contains(e)]\n",
     ["contains", "idempotents"], ["contains", "idempotents"]),
    ("def oracle(algebra, e):\n    return list(algebra.theta_multiples([e], 'left'))\n",
     ["theta_multiples"], ["theta_multiples"]),
    ("from .linalg import solve_right_kernel\n"
     "def oracle(field, rows):\n    return solve_right_kernel(field, rows, 2)\n",
     ["solve_right_kernel"], ["solve_right_kernel"]),
    ("from .linalg import solve_right_kernel\ndef oracle(rows):\n    return rows\n",
     ["solve_right_kernel"], []),
    ("import mathieuspaces.linalg as la\n"
     "def oracle(field, rows):\n    return la.rref_rows(field, rows)\n",
     ["la", "rref_rows"], ["la", "rref_rows"]),
    ("from .linalg import *\ndef oracle(rows):\n    return rows\n", ["*"], []),
    ("from .algebras import normalize_theta\nfrom .linalg import Subspace\n"
     "def oracle(algebra, j: Subspace, theta) -> Subspace:\n"
     "    return algebra.multiply(j.elements(), normalize_theta(theta))\n", [], []),
    ("def view(algebra, j, count):\n"
     "    mem = bytearray(count)\n"
     "    for row in j.residual:\n"
     "        mem[algebra.index_of(row)] = 1\n"
     "    return mem, j.reduce, j.contains\n",
     ["contains", "reduce", "residual"], ["contains", "reduce", "residual"]),
], ids=["attribute", "method", "import", "unused import", "module attribute", "star import",
        "allowed", "view reading the residual map"])
def test_the_guard_fails_closed(source, in_module, in_oracle):
    tree = ast.parse(source)
    assert unallowed_reads(tree, tree) == in_module
    assert unallowed_reads(tree, tree.body[-1]) == in_oracle
