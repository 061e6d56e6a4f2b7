"""JSON schemas for algebras, modules, subspaces, polynomials and configs.

Schema violations raise SchemaError with the offending path or axiom named,
so the CLI can map them to its usage/schema exit code.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebras import Algebra, AlgebraAxiomError
from .fields import QQ, Field, field_from_json
from .linalg import Subspace
from .modules import ModuleAxiomError, ModuleSpace
from .polyspaces import EvalConfig, IntegralConfig, Poly


class SchemaError(ValueError):
    pass


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    return obj[key]


def _require_int(obj, key, where):
    value = _require(obj, key, where)
    if type(value) is not int:  # a float such as 4.0 would compare equal to 4
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read JSON from {path}: {exc}") from exc


def parse_field(obj) -> Field:
    try:
        return field_from_json(obj)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def parse_vector(field: Field, obj, where="vector") -> tuple:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a JSON array")
    try:
        return tuple(field.parse_scalar(x) for x in obj)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_matrix(field: Field, obj, where="matrix") -> tuple:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a JSON array of rows")
    return tuple(parse_vector(field, row, f"{where}[{i}]") for i, row in enumerate(obj))


def vector_to_json(field: Field, v) -> list:
    return [field.scalar_to_json(x) for x in v]


def matrix_to_json(field: Field, rows) -> list:
    return [vector_to_json(field, r) for r in rows]


# -- algebra -----------------------------------------------------------------------


def algebra_from_json(obj) -> Algebra:
    field = parse_field(_require(obj, "field", "algebra"))
    dim = _require_int(obj, "dim", "algebra")
    structure = _require(obj, "structure", "algebra")
    unit = parse_vector(field, _require(obj, "unit", "algebra"), "algebra.unit")
    if not isinstance(structure, list) or len(structure) != dim:
        raise SchemaError(f"algebra.structure: expected {dim} rows")
    rows = []
    for i, row in enumerate(structure):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"algebra.structure[{i}]: expected {dim} cells")
        rows.append(tuple(parse_vector(field, cell, f"algebra.structure[{i}][{j}]")
                          for j, cell in enumerate(row)))
    try:
        return Algebra(field, rows, unit, name=obj.get("name"))
    except AlgebraAxiomError as exc:
        raise SchemaError(str(exc)) from exc


def algebra_to_json(a: Algebra) -> dict:
    f = a.field
    return {
        "field": f.to_json(),
        "dim": a.dim,
        "unit": vector_to_json(f, a.unit),
        "structure": [[vector_to_json(f, cell) for cell in row] for row in a.structure],
        "name": a.name,
    }


# -- module ------------------------------------------------------------------------


def module_from_json(obj, base_dir: str = ".") -> ModuleSpace:
    spec = _require(obj, "algebra", "module")
    if isinstance(spec, str):
        spec = load_json(os.path.join(base_dir, spec))
    algebra = algebra_from_json(spec)
    actions = _require(obj, "actions", "module")
    if not isinstance(actions, list):
        raise SchemaError("module.actions: expected an array of matrices")
    mats = [parse_matrix(algebra.field, m, f"module.actions[{i}]")
            for i, m in enumerate(actions)]
    try:
        module = ModuleSpace(algebra, mats, name=obj.get("name"))
    except ModuleAxiomError as exc:
        raise SchemaError(str(exc)) from exc
    if "dim" in obj and _require_int(obj, "dim", "module") != module.dim:
        raise SchemaError(f"module.dim says {obj['dim']} but actions are {module.dim}-dimensional")
    return module


def module_to_json(m: ModuleSpace) -> dict:
    return {
        "algebra": algebra_to_json(m.algebra),
        "dim": m.dim,
        "actions": [matrix_to_json(m.field, a) for a in m.actions],
        "name": m.name,
    }


# -- subspace ----------------------------------------------------------------------


def subspace_from_json(field: Field, obj) -> Subspace:
    ambient = _require_int(obj, "ambient", "subspace")
    rows = parse_matrix(field, _require(obj, "basis", "subspace"), "subspace.basis")
    try:
        return Subspace(field, ambient, rows)
    except ValueError as exc:
        raise SchemaError(f"subspace: {exc}") from exc


# -- witnesses ---------------------------------------------------------------------

# The vectors a witness of each kind carries; `power` is the exponent of a
# Mathieu witness and null for an ideal witness.
_WITNESS_VECTORS = {"mathieu": ("a", "b", "c"), "ideal": ("element", "left", "right")}


def witness_to_json(field: Field, w: dict) -> dict:
    """A witness as JSON: its kind, its power and the vectors of its kind."""
    out = {"kind": w["kind"], "power": w.get("power")}
    for key in _WITNESS_VECTORS[w["kind"]]:
        v = w.get(key)
        out[key] = None if v is None else vector_to_json(field, v)
    return out


def witness_from_json(field: Field, obj) -> dict:
    """A witness as `verify_mathieu_witness` takes it; kind defaults to "mathieu"."""
    if not isinstance(obj, dict):
        raise SchemaError("witness file: 'witness' must be an object")
    kind = obj.get("kind", "mathieu")
    if not isinstance(kind, str):
        raise SchemaError("witness.kind: expected a string")
    w = {"kind": kind}
    if obj.get("power") is not None:
        if type(obj["power"]) is not int:
            raise SchemaError("witness.power: expected an integer")
        w["power"] = obj["power"]
    for keys in _WITNESS_VECTORS.values():
        for key in keys:
            if obj.get(key) is not None:
                w[key] = parse_vector(field, obj[key], key)
            elif key in obj:
                w[key] = None
    needed = {"mathieu": ("a", "power"), "ideal": ("element",)}.get(kind, ())
    for key in needed:
        if w.get(key) is None:
            raise SchemaError(f"witness: missing key {key!r}")
    return w


# -- polynomials and configs ---------------------------------------------------------


def poly_from_json(field: Field, obj) -> Poly:
    """A polynomial from its JSON terms; terms with the same exponent are summed."""
    nvars = _require(obj, "vars", "poly")
    if type(nvars) is not int or nvars < 0:
        raise SchemaError("poly.vars: expected a non-negative integer")
    terms_json = _require(obj, "terms", "poly")
    if not isinstance(terms_json, list):
        raise SchemaError("poly.terms: expected a JSON array")
    terms = {}
    for i, t in enumerate(terms_json):
        exp = _require(t, "exp", f"poly.terms[{i}]")
        if not isinstance(exp, list) or any(type(e) is not int for e in exp):
            raise SchemaError(f"poly.terms[{i}].exp: expected an array of integers")
        exp = tuple(exp)
        try:
            coef = field.parse_scalar(_require(t, "coef", f"poly.terms[{i}]"))
        except ValueError as exc:
            raise SchemaError(f"poly.terms[{i}].coef: {exc}") from exc
        terms[exp] = field.add(terms[exp], coef) if exp in terms else coef
    try:
        return Poly(field, nvars, terms)
    except ValueError as exc:
        raise SchemaError(f"poly: {exc}") from exc


def poly_to_json(p: Poly) -> dict:
    f = p.field
    terms = [{"exp": list(e), "coef": f.scalar_to_json(c)}
             for e, c in sorted(p.terms.items())]
    return {"vars": p.nvars, "terms": terms}


def eval_config_from_json(obj) -> EvalConfig:
    field = parse_field(_require(obj, "field", "eval config"))
    points = parse_matrix(field, _require(obj, "points", "eval config"), "points")
    alpha = parse_vector(field, _require(obj, "alpha", "eval config"), "alpha")
    try:
        return EvalConfig(field, points, alpha)
    except ValueError as exc:
        raise SchemaError(f"eval config: {exc}") from exc


def integral_config_from_json(obj) -> IntegralConfig:
    a = QQ.parse_scalar(_require(obj, "a", "integral config"))
    b = QQ.parse_scalar(_require(obj, "b", "integral config"))
    q = poly_from_json(QQ, _require(obj, "q", "integral config"))
    try:
        return IntegralConfig(Fraction(a), Fraction(b), q)
    except ValueError as exc:
        raise SchemaError(f"integral config: {exc}") from exc
