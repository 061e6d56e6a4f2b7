"""The benchmark reads library names; each name must exist.

The tracer wraps library functions by name, and the workloads read package
names through their imports.  `perfbench/tracer.py` is stdlib-only, so it is
loaded straight from its file; the workloads are only parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PACKAGE = "mathieuspaces"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = []
    for module_name, attr, _span, _kind in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and meth in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def _package_reads(path) -> set:
    """(module, dotted name) for every package name the file reads: each name
    of a `from mathieuspaces... import`, and each attribute chain off a name
    that `import mathieuspaces...` binds, such as `ms.Subspace.full`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    aliases[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            reads.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            reads.add((aliases[node.id], ".".join(reversed(parts))))
    return reads


def test_every_package_name_a_workload_reads_resolves():
    reads = set()
    for path in sorted((PERFBENCH / "workloads").glob("*.py")):
        reads |= _package_reads(path)
    assert ("mathieuspaces.verify", "builder_spec_to_algebra") in reads
    assert ("mathieuspaces", "Subspace.full") in reads
    absent, missing = object(), []
    for module_name, dotted in sorted(reads):
        owner = importlib.import_module(module_name)
        for attr in dotted.split("."):
            owner = getattr(owner, attr, absent)
        if owner is absent:
            missing.append(f"{module_name}.{dotted}")
    assert missing == []
