"""Span tracer for the traced benchmark run, installed from outside the program.

`Tracer.install()` replaces the public functions and methods of each layer of
`mathieuspaces` with wrappers.  A module-level function is replaced under every
name a caller looks it up by: its own module, every module that imported it by
name, and the package namespace.  Methods are replaced on their class.

Two kinds of wrapper exist:

- a *span* wrapper records name, start, end, parent span and request id;
- a *count* wrapper only counts calls, keyed by the name of the enclosing span.
  It is used for calls made up to millions of times per run
  (`Algebra.multiply`, `ModuleSpace.colon_cached`,
  `Algebra.trajectory_indices`), where a span each would cost more memory
  than the rest of the run.  Like the `fields` layer, which gets no wrapper at all,
  their time stays in the self time of the span that called them.

Spans stay in compact in-memory arrays until `write()` saves them at the end of
the run.  A layer's self time is the duration of its spans minus the time
covered by their child spans (`self_times`).
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, span name, kind).  kind is "span", "count", or
# "cache:<attr>": a span renamed to "<name>.build" when the call filled the
# instance cache `<attr>`, so cache fills and cache hits are counted apart.
TARGETS = [
    ("linalg", "rref_rows", "linalg.rref_rows", "span"),
    ("linalg", "rref", "linalg.rref", "span"),
    ("linalg", "solve_right_kernel", "linalg.solve_right_kernel", "span"),
    ("linalg", "subspace_sum", "linalg.subspace_sum", "span"),
    ("linalg", "subspace_intersect", "linalg.subspace_intersect", "span"),
    ("linalg", "preimage_subspace", "linalg.preimage_subspace", "span"),
    ("linalg", "image_subspace", "linalg.image_subspace", "span"),
    ("linalg", "mat_mul", "linalg.mat_mul", "span"),
    ("algebras", "Algebra.__init__", "algebras.construct", "span"),
    ("algebras", "Algebra.multiply", "algebras.multiply", "count"),
    ("algebras", "Algebra.mult_table", "algebras.mult_table", "cache:_table"),
    ("algebras", "Algebra.power_trajectory", "algebras.power_trajectory", "span"),
    ("algebras", "Algebra.trajectory_indices", "algebras.trajectory_indices", "count"),
    ("algebras", "Algebra.idempotents", "algebras.idempotents", "cache:_idempotents"),
    ("algebras", "Algebra.theta_ideal_generated", "algebras.theta_ideal_generated", "span"),
    ("algebras", "Algebra.radical_of_subspace", "algebras.radical_of_subspace", "span"),
    ("algebras", "quotient_algebra", "algebras.quotient_algebra", "span"),
    ("modules", "ModuleSpace.__init__", "modules.construct", "span"),
    ("modules", "ModuleSpace.colon", "modules.colon", "span"),
    ("modules", "ModuleSpace.colon_cached", "modules.colon_cached", "count"),
    ("modules", "ModuleSpace.max_submodule", "modules.max_submodule", "span"),
    ("modules", "ModuleSpace.quotient_module", "modules.quotient_module", "span"),
    ("modules", "ModuleHom.pullback_subspace", "modules.pullback_subspace", "span"),
    ("modules", "module_hom_basis", "modules.module_hom_basis", "span"),
    ("mathieu", "is_theta_ideal", "mathieu.ideal", "span"),
    ("mathieu", "ideal_violation_witness", "mathieu.ideal_violation_witness", "span"),
    ("mathieu", "is_theta_mathieu_bruteforce", "mathieu.bruteforce", "span"),
    ("mathieu", "is_theta_mathieu_idempotent", "mathieu.idempotent", "span"),
    ("mathieu", "verify_mathieu_witness", "mathieu.witness_check", "span"),
    ("mathieu", "is_module_mathieu", "mathieu.is_module_mathieu", "span"),
    ("mathieu", "sigma", "mathieu.sigma", "span"),
    ("mathieu", "tau", "mathieu.tau", "span"),
    ("mathieu", "find_quasi_stable_violation", "mathieu.find_quasi_stable_violation", "span"),
    ("mathieu", "find_stable_violation", "mathieu.find_stable_violation", "span"),
    ("mathieu", "find_algebra_quasi_stable_violation",
     "mathieu.find_algebra_quasi_stable_violation", "span"),
    ("mathieu", "find_algebra_stable_violation", "mathieu.find_algebra_stable_violation", "span"),
    ("mathieu", "is_stable_algebra_classified", "mathieu.is_stable_algebra_classified", "span"),
    ("mathieu", "has_only_trivial_idempotents", "mathieu.has_only_trivial_idempotents", "span"),
    ("polyspaces", "Poly.__mul__", "polyspaces.poly_mul", "span"),
    ("polyspaces", "Poly.evaluate", "polyspaces.evaluate", "span"),
    ("polyspaces", "omega_member", "polyspaces.omega_member", "span"),
    ("polyspaces", "alpha_f_B", "polyspaces.alpha_f_B", "span"),
    ("polyspaces", "nba_member", "polyspaces.nba_member", "span"),
    ("polyspaces", "nba_sigma_member", "polyspaces.nba_sigma_member", "span"),
    ("polyspaces", "nba_tau_member", "polyspaces.nba_tau_member", "span"),
    ("polyspaces", "exact_integral", "polyspaces.exact_integral", "span"),
    ("polyspaces", "nq_member", "polyspaces.nq_member", "span"),
    ("polyspaces", "nq_sigma_member", "polyspaces.nq_sigma_member", "span"),
    ("polyspaces", "nq_tau_member", "polyspaces.nq_tau_member", "span"),
    ("polyspaces", "reduce_to_product_algebra", "polyspaces.reduce_to_product_algebra", "span"),
    ("serialize", "load_json", "serialize.load", "span"),
    ("serialize", "algebra_from_json", "serialize.algebra_from_json", "span"),
    ("serialize", "module_from_json", "serialize.module_from_json", "span"),
    ("serialize", "subspace_from_json", "serialize.subspace_from_json", "span"),
    ("serialize", "poly_from_json", "serialize.poly_from_json", "span"),
    ("serialize", "eval_config_from_json", "serialize.eval_config_from_json", "span"),
    ("serialize", "integral_config_from_json", "serialize.integral_config_from_json", "span"),
    ("serialize", "algebra_to_json", "serialize.algebra_to_json", "span"),
    ("serialize", "module_to_json", "serialize.module_to_json", "span"),
    ("cli", "main", "cli.main", "span"),
    ("verify", "builder_spec_to_algebra", "verify.builder_spec_to_algebra", "span"),
]

PACKAGE = "mathieuspaces"
NO_PARENT = -1


def verify_check_targets() -> list:
    """One span target per `verify.SUITE` check, named after the check."""
    suite = sys.modules[PACKAGE + ".verify"].SUITE
    return [("verify", fn.__name__, f"verify.{name}", "span") for name, fn in suite]


class Tracer:
    """In-memory span recorder with installable wrappers."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.counts: Counter = Counter()  # (name id, enclosing span name id) -> calls
        self.request_id = 0
        self._stack: list = []
        self._patches: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, span_name: str, cache_attr: str | None):
        nid = self.name_id(span_name)
        filled_id = self.name_id(span_name + ".build") if cache_attr else nid
        names, starts, ends = self.name, self.start, self.end
        parents, requests, stack = self.parent, self.request, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            empty = cache_attr is not None and getattr(args[0], cache_attr, None) is None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if empty and getattr(args[0], cache_attr, None) is not None:
                    names[idx] = filled_id

        return wrapper

    def _count_wrapper(self, fn, span_name: str):
        nid = self.name_id(span_name)
        counts, names, stack = self.counts, self.name, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid, names[stack[-1]] if stack else NO_PARENT] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, span_name: str, kind: str):
        if kind == "count":
            return self._count_wrapper(fn, span_name)
        cache_attr = kind.split(":", 1)[1] if kind.startswith("cache:") else None
        return self._span_wrapper(fn, span_name, cache_attr)

    # -- installation -----------------------------------------------------------

    def install(self, targets=None):
        """Wrap every target under each name its callers look up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = TARGETS + verify_check_targets() if targets is None else targets
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr, span_name, kind in targets:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, span_name, kind))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, kind)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------------

    def named_counts(self) -> dict:
        """Count-only calls as {(name, enclosing span name or None): calls}."""
        names = self.names
        return {(names[n], names[p] if p != NO_PARENT else None): c
                for (n, p), c in self.counts.items()}

    def spans(self) -> dict:
        return {"names": self.names, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "request": self.request}

    def write(self, path: str):
        """Save the spans: one JSON header line, then the raw span arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name", "i"], ["start", "d"], ["end", "d"],
                        ["parent", "i"], ["request", "i"]],
            "counts": [[self.names[n], self.names[p] if p != NO_PARENT else None, c]
                       for (n, p), c in sorted(self.counts.items())],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.start, self.end, self.parent, self.request):
                col.tofile(fh)


def read_spans(path: str) -> dict:
    """Load a file written by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"], "counts": header["counts"]}
        for col, code in header["columns"]:
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            out[col] = arr
    return out


def self_times(spans: dict) -> list:
    """Per span: its duration minus the durations of its direct children.

    Children of one span run one after another on the single benchmark
    thread, so their durations never overlap and their sum is the time they
    cover.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            out[p] -= end[i] - start[i]
    return out
