"""Exact scalar arithmetic over prime fields F_p and the rationals.

Scalars are plain Python objects: residues in ``range(p)`` for F_p and
``fractions.Fraction`` for the rationals.  A ``Field`` instance carries the
operations and is attached to every container type (subspaces, algebras,
modules), so mixing fields is caught at construction time.
"""

from __future__ import annotations

from fractions import Fraction

MAX_PRIME = 1 << 31


class FieldMismatchError(ValueError):
    """Operands carry different field tags."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """GF(p) for a prime p, or the rationals when ``p is None``."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"field order must be prime, got {p!r}")
            if p >= MAX_PRIME:
                raise ValueError(f"prime {p} exceeds the 2^31 word-size limit")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    # -- scalar constructors ------------------------------------------------

    def from_int(self, n: int):
        if self.p is None:
            return Fraction(n)
        return n % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    # -- validation / serialization ------------------------------------------

    def check_scalar(self, a):
        """Return ``a`` normalized, rejecting values foreign to this field."""
        p = self.p
        if p is None:
            if type(a) is Fraction:  # immutable and in lowest terms
                return a
            if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
                raise ValueError(f"not a rational scalar: {a!r}")
            return Fraction(a)
        # an exact int, the common entry, is never a bool: one test admits it
        if type(a) is not int and (isinstance(a, bool) or not isinstance(a, int)):
            raise ValueError(f"not a residue mod {p}: {a!r}")
        return a % p

    def vector(self, v, n: int, what: str) -> tuple:
        """`v` as a canonical vector of F^n, every entry through `check_scalar`;
        the one place that decides what a vector of this field is."""
        try:
            out = tuple(map(self.check_scalar, v))
        except TypeError:
            raise ValueError(f"not a vector: {v!r}") from None
        if len(out) != n:
            raise ValueError(f"{what} has {len(out)} coordinates, expected {n}")
        return out

    def parse_scalar(self, obj):
        """Read a scalar from its JSON form (int, or "num/den" for Q)."""
        if self.p is None:
            if isinstance(obj, str):
                num, sep, den = obj.partition("/")
                try:
                    num, den = int(num), int(den) if sep else 1
                except ValueError:
                    raise ValueError(f"bad rational literal: {obj!r}") from None
                if not den:
                    raise ValueError(f"bad rational literal: {obj!r} has a zero denominator")
                return Fraction(num, den)
            if isinstance(obj, int) and not isinstance(obj, bool):
                return Fraction(obj)
            raise ValueError(f"bad rational literal: {obj!r}")
        if isinstance(obj, int) and not isinstance(obj, bool):
            return obj % self.p
        raise ValueError(f"bad residue literal for GF({self.p}): {obj!r}")

    def scalar_to_json(self, a):
        if self.p is None:
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return int(a)

    def to_json(self):
        return "Q" if self.p is None else {"p": self.p}

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


def GF(p: int) -> Field:
    return Field(p)


QQ = Field(None)


def field_from_json(obj) -> Field:
    if obj == "Q" or obj == "QQ":
        return QQ
    if isinstance(obj, dict) and "p" in obj:
        return Field(obj["p"])
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Field(obj)
    raise ValueError(f"bad field descriptor: {obj!r}")


def same_field(*fields: Field) -> Field:
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatchError(f"mixed fields: {first!r} vs {f!r}")
    return first
