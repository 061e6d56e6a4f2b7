"""Every oracle shares no code with the fast paths it referees.

`is_theta_mathieu_bruteforce` is the oracle the idempotent decider and the
memoized bulk verdicts are refereed against, and `verify_mathieu_witness`
re-validates every negative verdict; neither walks `Algebra.theta_multiples`,
the side rule of the deciders they referee, nor reads the theta-ideals the
idempotent decider caches on the algebra.  In the battery,
`_fixpoint_submodule` referees the kernel behind `max_submodule`,
`_flat_matmul` the library's matrix products, and `_horner_eval`,
`_double_sum_integral`, `_independent_twist` and `_subset_sums_nonzero` the
integer polynomial kernels and the subset-sum scan.  The oracle's source file
is parsed, and the oracle's body and the body of every module-level function it
reaches are searched for the names of the fast paths, as plain names and as
attributes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces"
# the integer kernels of polyspaces, its subset-sum scan, and the storage form
# of a Poly with the one constructor that canonicalises it
_POLY_FAST_PATHS = frozenset({
    "_cleared", "_convolve", "_horner_cleared", "_univariate_values", "_twisted_weights",
    "_numerators", "_denominator", "_over", "omega_member", "_subset_sums",
})
ORACLES = [
    ("mathieu.py", "is_theta_mathieu_bruteforce", frozenset({
        "idempotents", "is_theta_mathieu_idempotent", "decide", "_witness", "_memo",
        "colon", "colon_classes", "theta_ideal_generated", "theta_multiples",
        "_idempotent_ideals",
    })),
    ("mathieu.py", "verify_mathieu_witness", frozenset({
        "theta_multiples", "idempotents", "is_theta_mathieu_idempotent",
        "ideal_violation_witness", "theta_ideal_generated", "decide", "_witness", "_memo",
        "_idempotent_ideals",
    })),
    ("verify.py", "_fixpoint_submodule", frozenset({
        "max_submodule", "colon_classes", "ColonClasses", "submodule", "_forms",
    })),
    ("verify.py", "_flat_matmul", frozenset({"mat_mul", "mat_vec"})),
    *[("verify.py", oracle, _POLY_FAST_PATHS)
      for oracle in ("_horner_eval", "_double_sum_integral", "_independent_twist",
                     "_subset_sums_nonzero")],
]


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def fast_paths_reached(tree, root, forbidden):
    """(function, name) for every forbidden name in `root` or in a module-level
    function it reaches by name."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, seen, todo = [], {root}, [root]
    while todo:
        name = todo.pop()
        for used in _names(functions[name]):
            if used in forbidden:
                found.append((name, used))
            elif used in functions and used not in seen:
                seen.add(used)
                todo.append(used)
    return sorted(found)


@pytest.mark.parametrize("filename, oracle, forbidden", ORACLES,
                         ids=[oracle for _file, oracle, _names in ORACLES])
def test_the_oracle_reaches_no_fast_path(filename, oracle, forbidden):
    path = SRC / filename
    tree = ast.parse(path.read_text(), filename=str(path))
    assert oracle in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert fast_paths_reached(tree, oracle, forbidden) == []


def test_the_guard_follows_helpers_and_attributes():
    tree = ast.parse(
        "def oracle(algebra):\n    return helper(algebra)\n"
        "def helper(algebra):\n    return algebra.idempotents()\n"
        "def unrelated():\n    return decide()\n")
    assert fast_paths_reached(tree, "oracle", ORACLES[0][2]) == [("helper", "idempotents")]
