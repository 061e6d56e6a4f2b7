"""Dense exact linear algebra and the canonical subspace representation.

Vectors are tuples of scalars, matrices are tuples of row tuples.  Every
subspace is stored as its reduced row-echelon basis, so set equality is
structural equality.  Every "lands in N" decision reads one map, the
residual rows of N (`Subspace.residual`): membership, reduction, kernels,
intersections and preimages over GF(p) and Q alike.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from fractions import Fraction
from operator import itemgetter, mul as _mul
from typing import Iterator, Sequence

from .fields import Field, same_field

DEFAULT_ELEMENT_CAP = 1 << 20


class EnumerationCapExceeded(ValueError):
    """An exhaustive scan would visit more elements than the configured cap."""

    def __init__(self, count: int, cap: int, what: str = "elements"):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of {count} {what} exceeds cap {cap}")


class BoundedMemo(dict):
    """A memo that holds at most `size` entries; `put` drops the oldest first.

    Lookups are the plain dict ones (`in`, `get`, `[]`), so a stored None is
    a hit and a hit costs what a dict hit costs."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def put(self, key, value):
        """Store `value` under `key` and return it."""
        if len(self) >= self.size and key not in self:
            del self[next(iter(self))]
        self[key] = value
        return value


def zero_vector(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def mat_vec(field: Field, rows: Sequence[Sequence], v: Sequence) -> tuple:
    p = field.p
    if p is None:
        zero = field.zero
        return tuple(sum(map(_mul, row, v), zero) for row in rows)
    return tuple(sum(map(_mul, row, v)) % p for row in rows)


def mat_mul(field: Field, a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    p = field.p
    bt = list(zip(*b)) if b else []
    if p is None:
        zero = field.zero
        return tuple(tuple(sum(map(_mul, row, col), zero) for col in bt) for row in a)
    return tuple(tuple(sum(map(_mul, row, col)) % p for col in bt) for row in a)


def identity_matrix(field: Field, n: int) -> tuple:
    one, zero = field.one, field.zero
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rref_rows(field: Field, rows: Sequence[Sequence]):
    """Gauss-Jordan to canonical reduced row-echelon form.

    Returns (canonical nonzero rows, pivot column list).  One loop serves both
    field kinds, and the field enters at three points: an entry is read as the
    residue `x % p` or as `Fraction(x)`, the pivot row is scaled by the inverse
    of its lead, and a row update is reduced `% p` over GF(p) only.  Any int is
    accepted; over Q every returned entry is a `Fraction`.
    """
    p = field.p
    if p is None:
        work = [[Fraction(x) for x in row] for row in rows]
    else:
        work = [[x % p for x in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue
        prow = work[i]
        work[i] = work[r]
        lead = prow[c]
        if lead != 1:
            if p is None:
                prow = [x / lead for x in prow]
            else:
                inv = pow(lead, p - 2, p)
                prow = [x * inv % p for x in prow]
        work[r] = prow
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                if p is None:
                    work[i] = [x - f * y for x, y in zip(work[i], prow)]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in work[:r]], pivots


class Subspace:
    """A linear subspace of coordinate space in canonical RREF basis form."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_residual")

    def __init__(self, field: Field, ambient_dim: int, rows: Sequence[Sequence] = ()):
        if type(ambient_dim) is not int or ambient_dim < 0:
            raise ValueError(
                f"ambient dimension must be a nonnegative integer, got {ambient_dim!r}")
        basis, pivots = rref_rows(field, [field.vector(row, ambient_dim, "subspace row")
                                          for row in rows])
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        self._residual = None

    @classmethod
    def zero(cls, field: Field, n: int) -> "Subspace":
        return cls(field, n, ())

    @classmethod
    def full(cls, field: Field, n: int) -> "Subspace":
        return cls._from_canonical(field, n, identity_matrix(field, n), range(n))

    @classmethod
    def _from_canonical(cls, field, n, basis, pivots) -> "Subspace":
        s = object.__new__(cls)
        s.field = field
        s.ambient_dim = n
        s.basis = tuple(basis)
        s.pivots = tuple(pivots)
        s._residual = None
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    @property
    def residual(self) -> tuple:
        """The rows of v -> (v mod N) on the free columns: row fc is
        e_fc - sum_i basis_i[fc] e_(pivot i).  N is their kernel, and they
        span its annihilator."""
        return (self._residual or self._build_residual())[1]

    @property
    def free(self) -> tuple:
        """The non-pivot columns, one per row of `residual`."""
        return (self._residual or self._build_residual())[0]

    def _build_residual(self) -> tuple:
        """(free, residual), built once per subspace, on first use."""
        self._residual = _residual_map(self.field, self.ambient_dim, self.basis, self.pivots)
        return self._residual

    def reduce(self, v: Sequence) -> tuple:
        """v mod N: the residual of v on the free columns, zero on the pivots."""
        v = self.field.vector(v, self.ambient_dim, "vector")
        w = [self.field.zero] * self.ambient_dim
        for c, x in zip(self.free, mat_vec(self.field, self.residual, v)):
            w[c] = x
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        """A canonical v (see `Field.vector`) lies in N iff every residual
        coordinate of v vanishes; the test stops at the first one that does not."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        p = self.field.p
        for row in (self._residual or self._build_residual())[1]:
            x = sum(map(_mul, row, v))
            if x % p if p else x:
                return False
        return True

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def elements(self) -> Iterator[tuple]:
        """All vectors of the subspace (finite fields only), lazily, in
        `itertools.product` order of the coefficients, first basis row slowest."""
        field = self.field
        if field.is_rational and self.basis:
            raise ValueError("cannot enumerate a rational subspace")
        if not self.basis:
            yield zero_vector(field, self.ambient_dim)
            return
        p = field.p
        cols = tuple(zip(*self.basis))
        for coeffs in itertools.product(range(p), repeat=len(self.basis)):
            yield tuple(sum(map(_mul, coeffs, col)) % p for col in cols)

    def to_json(self):
        f = self.field
        return {
            "ambient": self.ambient_dim,
            "basis": [[f.scalar_to_json(x) for x in row] for row in self.basis],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field!r}^{self.ambient_dim})"


def rref(field: Field, rows: Sequence[Sequence]):
    """Row space of a matrix in canonical form, plus its rank."""
    if not rows:
        raise ValueError("rref of an empty matrix; pass Subspace.zero instead")
    width = len(rows[0])
    s = Subspace(field, width, rows)
    return s, s.dim


def solve_right_kernel(field: Field, rows: Sequence[Sequence], ncols: int) -> Subspace:
    """Canonical basis of {v : rows . v = 0}: the span of the residual rows of
    the row space of `rows`."""
    if not rows:
        return Subspace.full(field, ncols)
    return _span(field, ncols, _residual_map(field, ncols, *rref_rows(field, rows))[1])


def _residual_map(field: Field, n: int, basis: Sequence[Sequence], pivots: Sequence[int]):
    """(free columns, residual rows) of the row space of a canonical `basis`
    with `pivots`: row fc is e_fc - sum_i basis_i[fc] e_(pivot i), with
    canonical entries (a Fraction, or a residue in range(p))."""
    p = field.p
    zero, one = field.zero, field.one
    free = tuple([c for c in range(n) if c not in pivots])
    rows = []
    for fc in free:
        row = [zero] * n
        row[fc] = one
        if p is None:
            for piv, brow in zip(pivots, basis):
                row[piv] = -brow[fc]
        else:
            for piv, brow in zip(pivots, basis):
                row[piv] = -brow[fc] % p
        rows.append(tuple(row))
    return free, tuple(rows)


def _span(field: Field, n: int, rows: Sequence[Sequence]) -> Subspace:
    """The span of rows of field scalars computed in this module, whose rref
    is canonical without `Subspace.__init__`'s checks."""
    return Subspace._from_canonical(field, n, *rref_rows(field, rows))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    same_field(u.field, v.field)
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(u.field, u.ambient_dim, list(u.basis) + list(v.basis))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U ∩ V as the kernel of the residual rows of U stacked on those of V."""
    same_field(u.field, v.field)
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if u.is_full():
        return v
    if v.is_full():
        return u
    if not u.basis or not v.basis:
        return Subspace.zero(u.field, u.ambient_dim)
    return solve_right_kernel(u.field, u.residual + v.residual, u.ambient_dim)


def preimage_subspace(field: Field, matrix_rows: Sequence[Sequence], target: Subspace,
                      source_dim: int) -> Subspace:
    """{v : M v in target} for a linear map given by its matrix: the kernel
    of the target's residual rows composed with M."""
    if not target.residual:
        return Subspace.full(field, source_dim)
    return solve_right_kernel(field, mat_mul(field, target.residual, matrix_rows), source_dim)


def image_subspace(field: Field, matrix_rows: Sequence[Sequence], source: Subspace) -> Subspace:
    """Image of a subspace under a linear map."""
    target_dim = len(matrix_rows)
    gens = [mat_vec(field, matrix_rows, b) for b in source.basis]
    return Subspace(field, target_dim, gens)


# -- exhaustive enumeration ----------------------------------------------------


def enumerate_vectors(field: Field, dim: int, cap: int = DEFAULT_ELEMENT_CAP) -> Iterator[tuple]:
    """All p^dim coordinate vectors in lexicographic order."""
    if field.is_rational:
        raise ValueError("cannot enumerate vectors over the rationals")
    count = field.p ** dim
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    for digits in itertools.product(range(field.p), repeat=dim):
        yield digits


def vector_count(field: Field, dim: int) -> int:
    if field.is_rational:
        raise ValueError("infinite")
    return field.p ** dim


def index_to_vector(field: Field, dim: int, idx: int) -> tuple:
    p = field.p
    digits = [0] * dim
    for k in range(dim - 1, -1, -1):
        idx, digits[k] = divmod(idx, p)
    return tuple(digits)


def vector_to_index(field: Field, v: Sequence) -> int:
    p = field.p
    idx = 0
    for d in v:
        idx = idx * p + d
    return idx


def form_indices(forms, width: int, p: int, values_of: dict) -> list:
    """For every b of F_p^width in index order, the index of the vector whose
    coordinate t is form t of `forms` (width forms) at b, sum_j form[j] * b_j
    mod p.  The index is assembled big-endian like `vector_to_index`, for all
    b at once: each distinct form's values are packed into one int with a
    16-bit lane per b, and a row is `packed * p + values` once per form.  No
    lane carries into the next, since every index is below p^width <= 2^16;
    a larger p^width is refused.  `values_of` keeps the packed values of each
    distinct form for the next call."""
    count = p ** width
    if count > 1 << 16:
        raise ValueError(f"{count} indices do not fit in 16-bit lanes")
    packed = 0
    for form in forms:
        values = values_of.get(form)
        if values is None:
            values = values_of[form] = int.from_bytes(
                array("H", _form_values(form, p)).tobytes(), sys.byteorder)
        packed = packed * p + values
    out = array("H")
    out.frombytes(packed.to_bytes(2 * count, sys.byteorder))
    return out.tolist()


def _form_values(form: Sequence, p: int) -> list:
    """The values of b -> sum_j form[j] * b_j mod p over all b, in index order."""
    values = [0]
    for f in form:
        steps = [d * f % p for d in range(p)]
        values = [(v + s) % p for v in values for s in steps]
    return values


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def enumerate_subspaces(field: Field, dim: int, cap: int = DEFAULT_ELEMENT_CAP) -> Iterator[Subspace]:
    """Every subspace of F_p^dim exactly once, by RREF pivot profile."""
    if field.is_rational:
        raise ValueError("cannot enumerate subspaces over the rationals")
    total = subspace_count(dim, field.p)
    if total > cap:
        raise EnumerationCapExceeded(total, cap, what="subspaces")
    p = field.p
    yield Subspace.zero(field, dim)
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            # Row r reads the tuple (0, 1, *values): index 1 at its pivot,
            # 2 + slot at each free slot (a column past the pivot that is no
            # pivot column), 0 elsewhere.
            getters, slot = [], 2
            for r, pivot in enumerate(pivots):
                picks = [0] * dim
                picks[pivot] = 1
                for c in range(pivot + 1, dim):
                    if c not in pivots:
                        picks[c] = slot
                        slot += 1
                getters.append(_tuple_getter(picks))
            for values in itertools.product(range(p), repeat=slot - 2):
                ext = (0, 1, *values)
                yield Subspace._from_canonical(field, dim, [g(ext) for g in getters], pivots)


def _tuple_getter(picks: list):
    """ext -> tuple(ext[i] for i in picks); `itemgetter` of one index would
    return a scalar."""
    if len(picks) == 1:
        i = picks[0]
        return lambda ext: (ext[i],)
    return itemgetter(*picks)
