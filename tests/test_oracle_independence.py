"""The brute-force Mathieu scan shares no code with the fast paths.

`is_theta_mathieu_bruteforce` is the oracle the idempotent decider and the
memoized bulk verdicts are refereed against, so it must not reach them.
`mathieu.py` is parsed, and the oracle's body and the body of every
module-level function it reaches are searched for the names of the fast
paths, as plain names and as attributes.
"""

import ast
from pathlib import Path

MATHIEU = Path(__file__).resolve().parent.parent / "src" / "mathieuspaces" / "mathieu.py"
ORACLE = "is_theta_mathieu_bruteforce"
FAST_PATHS = frozenset({
    "idempotents", "is_theta_mathieu_idempotent", "decide", "_witness", "_memo",
    "colon", "colon_classes", "theta_ideal_generated",
})


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def fast_paths_reached(tree, root):
    """(function, name) for every fast-path name in `root` or in a module-level
    function it reaches by name."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, seen, todo = [], {root}, [root]
    while todo:
        name = todo.pop()
        for used in _names(functions[name]):
            if used in FAST_PATHS:
                found.append((name, used))
            elif used in functions and used not in seen:
                seen.add(used)
                todo.append(used)
    return sorted(found)


def test_the_bruteforce_oracle_reaches_no_fast_path():
    tree = ast.parse(MATHIEU.read_text(), filename=str(MATHIEU))
    assert ORACLE in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert fast_paths_reached(tree, ORACLE) == []


def test_the_guard_follows_helpers_and_attributes():
    tree = ast.parse(
        "def oracle(algebra):\n    return helper(algebra)\n"
        "def helper(algebra):\n    return algebra.idempotents()\n"
        "def unrelated():\n    return decide()\n")
    assert fast_paths_reached(tree, "oracle") == [("helper", "idempotents")]
