"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is the tensor c[i][j] with e_i * e_j = sum_k c[i][j][k] e_k plus
the coordinates of the unit.  Construction validates associativity and the
unit axiom on all basis triples/pairs unless explicitly disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .fields import Field, GF
from .linalg import (
    DEFAULT_ELEMENT_CAP,
    BoundedMemo,
    EnumerationCapExceeded,
    Subspace,
    _span,
    enumerate_vectors,
    form_indices,
    index_to_vector,
    mat_vec,
    vector_count,
    vector_to_index,
    zero_vector,
)

THETAS = ("left", "right", "pre", "two")

THETA_ALIASES = {
    "left": "left",
    "right": "right",
    "pre": "pre",
    "two": "two",
    "pre-two-sided": "pre",
    "two-sided": "two",
    "twosided": "two",
}

# Full multiplication tables are only materialized for small element counts.
TABLE_MAX_ELEMENTS = 2048

# Ideal and Mathieu witnesses one algebra memoizes (see mathieu._witness).
VERDICT_MEMO_SIZE = 4096


def normalize_theta(theta: str) -> str:
    hit = THETA_ALIASES.get(theta) if isinstance(theta, str) else None
    if hit is None:
        raise ValueError(f"unknown side selector {theta!r}; use one of {THETAS}")
    return hit


class AlgebraAxiomError(ValueError):
    """Structure constants violate an algebra axiom; the message names it."""


@dataclass(frozen=True)
class PowerTrajectory:
    """The eventually periodic sequence a, a^2, a^3, ... split at cycle entry."""

    element: tuple
    tail: tuple
    cycle: tuple

    def cycle_in(self, s: Subspace) -> bool:
        return all(s.contains(v) for v in self.cycle)

    def power(self, m: int) -> tuple:
        """The value of a^m for m >= 1."""
        if m < 1:
            raise ValueError("powers start at exponent 1")
        t = len(self.tail)
        if m <= t:
            return self.tail[m - 1]
        return self.cycle[(m - 1 - t) % len(self.cycle)]


class Algebra:
    def __init__(self, field: Field, structure, unit, name: str | None = None,
                 check: bool = True):
        self.field = field
        self.dim = dim = len(structure)
        for i, row in enumerate(structure):
            if len(row) != dim:
                raise AlgebraAxiomError(f"structure row {i} has {len(row)} cells, expected {dim}")
        try:  # a malformed cell or unit is an axiom error, as a bad row is
            self.structure = tuple(
                tuple(field.vector(cell, dim, f"product e_{i}*e_{j}") for j, cell in enumerate(row))
                for i, row in enumerate(structure))
            self.unit = field.vector(unit, dim, "unit")
        except ValueError as exc:
            raise AlgebraAxiomError(str(exc)) from exc
        self.name = name or f"algebra(dim {dim} over {field!r})"
        one, zero = field.one, field.zero
        # the standard basis e_0, ..., e_(dim-1), and p^dim (None over Q)
        self._basis = tuple(tuple(one if k == i else zero for k in range(dim))
                            for i in range(dim))
        self._count = None if field.is_rational else vector_count(field, dim)
        self._sparse = tuple(
            tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
            for row in self.structure
        )
        self._elements: tuple | None = None
        self._table: list | None = None
        self._trajectories: dict = {}  # at most TABLE_MAX_ELEMENTS, see trajectory_indices
        self._idempotents: tuple | None = None
        # (side, idempotent e) -> basis rows of the theta-ideal e generates, filled
        # by the idempotent decider; at most 4 x the idempotent count
        self._idempotent_ideals: dict = {}
        self._memo = BoundedMemo(VERDICT_MEMO_SIZE)
        if check:
            self._validate()

    # -- construction-time axioms -------------------------------------------

    def _validate(self):
        dim, basis = self.dim, self._basis
        for i in range(dim):
            if self.multiply(self.unit, basis[i]) != basis[i]:
                raise AlgebraAxiomError(f"unit axiom fails: 1 * e_{i} != e_{i}")
            if self.multiply(basis[i], self.unit) != basis[i]:
                raise AlgebraAxiomError(f"unit axiom fails: e_{i} * 1 != e_{i}")
        for i in range(dim):
            for j in range(dim):
                ij = self.structure[i][j]
                for k in range(dim):
                    left = self.multiply(ij, basis[k])
                    right = self.multiply(basis[i], self.structure[j][k])
                    if left != right:
                        raise AlgebraAxiomError(
                            f"associativity fails at basis triple ({i},{j},{k})")

    # -- basic arithmetic -----------------------------------------------------

    def zero(self) -> tuple:
        return zero_vector(self.field, self.dim)

    def basis_vector(self, i: int) -> tuple:
        return self._basis[i]

    def multiply(self, a: Sequence, b: Sequence) -> tuple:
        """a*b for canonical a and b (see `Field.vector`): scans call it per product."""
        dim = self.dim
        if len(a) != dim or len(b) != dim:
            raise ValueError("dimension mismatch in algebra product")
        p = self.field.p
        acc = [0] * dim if p is not None else [Fraction(0)] * dim
        sparse = self._sparse
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = sparse[i]
            for j, bj in enumerate(b):
                if not bj:
                    continue
                coef = ai * bj
                for k, c in row[j]:
                    acc[k] += coef * c
        if p is not None:
            return tuple(x % p for x in acc)
        return tuple(Fraction(x) for x in acc)

    def power(self, a: Sequence, m: int) -> tuple:
        if m < 1:
            raise ValueError("powers start at exponent 1")
        out = a = self.field.vector(a, self.dim, "algebra element")
        for _ in range(m - 1):
            out = self.multiply(out, a)
        return out

    # -- element enumeration ----------------------------------------------------

    def element_count(self, cap: int | None = None) -> int:
        """p^dim, the elements an exhaustive scan visits; refused over Q, and
        above `cap` when one is given."""
        count = self._count
        if count is None:
            raise ValueError("enumerating the algebra needs a finite field")
        if cap is not None and count > cap:
            raise EnumerationCapExceeded(count, cap)
        return count

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> Iterator[tuple]:
        return enumerate_vectors(self.field, self.dim, cap)

    def element_list(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple:
        self.element_count(cap)
        if self._elements is None:
            self._elements = tuple(self.elements(cap))
        return self._elements

    def index_of(self, v: Sequence) -> int:
        """The index of a canonical v in `elements` order: scans call it per product."""
        return vector_to_index(self.field, v)

    def vector_at(self, idx: int) -> tuple:
        """The element of index idx, for 0 <= idx < p^dim, unchecked."""
        return index_to_vector(self.field, self.dim, idx)

    def mult_table(self) -> list | None:
        """Index-based multiplication table, or None if too large to build."""
        if self._table is not None:
            return self._table
        count = self._count
        if count is None or count > TABLE_MAX_ELEMENTS:  # over Q, or too large
            return None
        # The product is bilinear: coordinate k of a*b is the linear form
        # b -> sum_j b_j (a*e_j)[k], and each distinct form is evaluated on
        # all b once.
        p, values_of = self.field.p, {}
        table = []
        for a in self.element_list():
            forms = zip(*[self.multiply(a, e) for e in self._basis])
            table.append(form_indices(forms, self.dim, p, values_of))
        self._table = table
        return table

    # -- power trajectories -------------------------------------------------------

    def power_trajectory(self, a: Sequence) -> PowerTrajectory:
        """Tail and minimal cycle of a, a^2, a^3, ... (finite fields only)."""
        if self.field.is_rational:
            raise ValueError("power trajectories need a finite field; "
                             "the sequence may be infinite over the rationals")
        a = self.field.vector(a, self.dim, "algebra element")
        seen: dict = {}
        seq: list = []
        x = a
        while x not in seen:
            seen[x] = len(seq)
            seq.append(x)
            x = self.multiply(x, a)
        j = seen[x]
        return PowerTrajectory(element=a, tail=tuple(seq[:j]), cycle=tuple(seq[j:]))

    def trajectory_indices(self, idx: int) -> tuple:
        """(tail, cycle) of element #idx as index tuples, via the mult table;
        refused when the algebra has none."""
        cached = self._trajectories.get(idx)
        if cached is not None:
            return cached
        table = self.mult_table()
        if table is None:
            raise ValueError(f"{self.name} has no multiplication table: it is over Q "
                             f"or has more than {TABLE_MAX_ELEMENTS} elements")
        seen: dict = {}
        seq: list = []
        x = idx
        while x not in seen:
            seen[x] = len(seq)
            seq.append(x)
            x = table[x][idx]
        j = seen[x]
        out = self._trajectories[idx] = (tuple(seq[:j]), tuple(seq[j:]))
        return out

    # -- special element sets ---------------------------------------------------

    def idempotents(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple:
        """All e with e*e = e, in lexicographic order."""
        self.element_count(cap)
        if self._idempotents is None:
            found = []
            for a in self.elements(cap):
                if self.multiply(a, a) == a:
                    found.append(a)
            self._idempotents = tuple(found)
        return self._idempotents

    def is_nilpotent(self, a: Sequence) -> bool:
        # a nilpotent iff a^(dim+1) = 0: powers up to the first dependence
        # already witness nilpotency in a finite-dimensional algebra.
        x = a = self.field.vector(a, self.dim, "algebra element")
        zero = self.zero()
        for _ in range(self.dim + 1):
            if x == zero:
                return True
            x = self.multiply(x, a)
        return x == zero

    def nil_set(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple:
        return tuple(a for a in self.elements(cap) if self.is_nilpotent(a))

    # -- generated ideals and radicals --------------------------------------------

    def theta_multiples(self, elements, theta: str) -> Iterator[tuple]:
        """(a, b, c, b*a*c) for each a of `elements` in turn, over the basis
        multipliers of side `theta` (normalized) in witness order: b*a for
        "left", a*c for "right", both for "pre" (left first), b*a*c for "two";
        a multiplier the side does not use is None."""
        multiply, basis = self.multiply, self._basis
        left, right = theta in ("left", "pre"), theta in ("right", "pre")
        for a in elements:
            if left:
                for b in basis:
                    yield a, b, None, multiply(b, a)
            if right:
                for c in basis:
                    yield a, None, c, multiply(a, c)
            if theta == "two":
                for b in basis:
                    ba = multiply(b, a)
                    for c in basis:
                        yield a, b, c, multiply(ba, c)

    def theta_ideal_generated(self, a: Sequence, theta: str) -> Subspace:
        """The span of the theta-multiples of a; the two-sided ideal is the
        span of the right multiples of the left ideal's basis."""
        field, dim = self.field, self.dim
        theta = normalize_theta(theta)
        gens = [field.vector(a, dim, "algebra element")]
        for side in ("left", "right") if theta == "two" else (theta,):
            ideal = _span(field, dim, [m for *_, m in self.theta_multiples(gens, side)])
            gens = ideal.basis
        return ideal

    def radical_of_subspace(self, j: Subspace, cap: int = DEFAULT_ELEMENT_CAP) -> tuple:
        """All a whose whole power cycle lies in J (tail membership irrelevant)."""
        self._check_subspace(j)
        out = []
        for a in self.elements(cap):
            if self.power_trajectory(a).cycle_in(j):
                out.append(a)
        return tuple(out)

    def _check_subspace(self, j: Subspace):
        if j.ambient_dim != self.dim or j.field != self.field:
            raise ValueError("subspace does not live in this algebra")

    def __repr__(self):
        return f"Algebra({self.name})"


def ideal_violation_witness(algebra: Algebra, j: Subspace, theta: str) -> dict | None:
    """A concrete (element of J, basis multiplier) proof that J is not a
    theta-ideal, or None when it is one."""
    theta = normalize_theta(theta)
    algebra._check_subspace(j)
    if j.is_full():
        return None
    contains = j.contains
    for side in ("left", "right") if theta in ("pre", "two") else (theta,):
        for v, b, c, m in algebra.theta_multiples(j.basis, side):
            if not contains(m):
                return {"kind": "ideal", "element": v, "left": b, "right": c}
    return None


# -- builders --------------------------------------------------------------------


def _as_field(p_or_field) -> Field:
    if isinstance(p_or_field, Field):
        return p_or_field
    return GF(p_or_field)


def _check_size(n: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n}")


def matrix_algebra(n: int, p_or_field) -> Algebra:
    """n x n matrices; basis is the matrix units in row-major order."""
    _check_size(n, "matrix size")
    field = _as_field(p_or_field)
    dim = n * n
    one, zero = field.one, field.zero

    def unit_index(r, c):
        return r * n + c

    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        structure[unit_index(i, j)][unit_index(k, l)][unit_index(i, l)] = one
    unit = [zero] * dim
    for i in range(n):
        unit[unit_index(i, i)] = one
    return Algebra(field, structure, unit, name=f"M_{n}({field!r})")


def product_algebra(length: int, p_or_field) -> Algebra:
    """K^length with component-wise product."""
    _check_size(length, "number of components")
    field = _as_field(p_or_field)
    one, zero = field.one, field.zero
    structure = [[[one if i == j and k == i else zero for k in range(length)]
                  for j in range(length)] for i in range(length)]
    unit = [one] * length
    return Algebra(field, structure, unit, name=f"{field!r}^{length} (componentwise)")


def truncated_poly(k: int, p_or_field) -> Algebra:
    """K[x]/(x^k); basis 1, x, ..., x^(k-1)."""
    _check_size(k, "truncation exponent")
    field = _as_field(p_or_field)
    one, zero = field.one, field.zero
    structure = [[[one if i + j == m else zero for m in range(k)]
                  for j in range(k)] for i in range(k)]
    unit = [one] + [zero] * (k - 1)
    return Algebra(field, structure, unit, name=f"{field!r}[x]/(x^{k})")


def upper_triangular(n: int, p_or_field) -> Algebra:
    """Upper triangular n x n matrices; basis E_ij for i <= j."""
    _check_size(n, "matrix size")
    field = _as_field(p_or_field)
    one, zero = field.one, field.zero
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    pos_index = {pos: idx for idx, pos in enumerate(positions)}
    dim = len(positions)
    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), a in pos_index.items():
        for (k, l), b in pos_index.items():
            if j == k:
                structure[a][b][pos_index[(i, l)]] = one
    unit = [zero] * dim
    for i in range(n):
        unit[pos_index[(i, i)]] = one
    return Algebra(field, structure, unit, name=f"UT_{n}({field!r})")


def field_algebra(p_or_field) -> Algebra:
    """The base field as a one-dimensional algebra."""
    field = _as_field(p_or_field)
    return Algebra(field, [[[field.one]]], [field.one], name=f"{field!r} (1-dim)")


# Builder name -> (constructor, the `gen` option naming its size, or None).
# A builder spec is the name, the size when there is one, then the prime.
BUILDERS = {
    "matrix": (matrix_algebra, "n"),
    "product": (product_algebra, "l"),
    "truncated": (truncated_poly, "k"),
    "upper": (upper_triangular, "n"),
    "field": (field_algebra, None),
}


def builder_spec_to_algebra(spec: Sequence) -> Algebra:
    """The algebra of a builder spec such as ["matrix", 2, 3] (M_2(GF(3)))."""
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError(f"builder spec must be a non-empty list, got {spec!r}")
    kind, *args = spec
    if not isinstance(kind, str) or kind not in BUILDERS:
        raise ValueError(f"unknown builder {kind!r}; use one of {tuple(BUILDERS)}")
    build, size = BUILDERS[kind]
    want = 2 if size else 1
    if len(args) != want or any(type(x) is not int or x < 1 for x in args):
        what = "a size and a prime" if size else "a prime"
        raise ValueError(f"builder {kind!r} needs {what}, as positive integers; got {args!r}")
    return build(*args)


def opposite(a: Algebra) -> Algebra:
    structure = tuple(tuple(a.structure[j][i] for j in range(a.dim)) for i in range(a.dim))
    return Algebra(a.field, structure, a.unit, name=f"op({a.name})", check=False)


def quotient_algebra(a: Algebra, i_space: Subspace):
    """Quotient by a two-sided ideal; returns (quotient, projection matrix).

    Quotient coordinates are the non-pivot coordinates of the ideal's
    canonical basis, so the projection is a plain matrix.
    """
    if ideal_violation_witness(a, i_space, "two") is not None:
        raise ValueError("quotient requires a two-sided ideal")
    field = a.field
    proj, free = i_space.residual, i_space.free
    qdim = len(free)

    def project(v):
        return mat_vec(field, proj, v)

    def section(coord_idx):
        return a.basis_vector(free[coord_idx])

    structure = [[project(a.multiply(section(i), section(j)))
                  for j in range(qdim)] for i in range(qdim)]
    unit = project(a.unit)
    quot = Algebra(field, structure, unit, name=f"{a.name}/(ideal dim {i_space.dim})")
    return quot, proj
