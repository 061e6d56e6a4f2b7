"""Subspaces of polynomial algebras cut out by evaluation and integration
functionals, with closed-form stable/quasi-stable membership predicates.

The ambient polynomial algebra is infinite-dimensional, so these sets are
exposed as predicates, never as enumerated element lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebras import product_algebra
from .fields import QQ, Field
from .linalg import Subspace, solve_right_kernel

MAX_SUPPORT = 20


class SupportCapExceeded(ValueError):
    def __init__(self, size: int):
        super().__init__(f"support of size {size} exceeds the cap of {MAX_SUPPORT} nonzero weights")
        self.size = size


class Poly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient.

    A univariate polynomial over Q is held in its cleared form: integer
    numerators by exponent over one positive common denominator D, with the
    content taken out (gcd(D, every numerator) = 1), so D is the lcm of the
    reduced coefficient denominators.  Its `terms` is a dict of `Fraction`s
    derived from that form on each access.  Any other polynomial holds its
    terms dict itself."""

    __slots__ = ("field", "nvars", "_terms", "_numerators", "_denominator")

    def __init__(self, field: Field, nvars: int, terms=None):
        clean = {}
        for exp, coef in (terms or {}).items():
            if (not isinstance(exp, tuple) or len(exp) != nvars
                    or any(type(e) is not int or e < 0 for e in exp)):
                raise ValueError(f"bad exponent {exp!r} for {nvars} variables")
            coef = field.check_scalar(coef)
            if coef:
                clean[exp] = coef
        if field.p is None and nvars == 1:
            # reduced coefficients over the lcm of their denominators leave
            # no content to take out
            den = math.lcm(*[c.denominator for c in clean.values()])
            self._set(field, 1, None,
                      {k: c.numerator * (den // c.denominator) for (k,), c in clean.items()}, den)
        else:
            self._set(field, nvars, clean, None, None)

    def _set(self, field, nvars, terms, numerators, denominator):
        self.field, self.nvars = field, nvars
        self._terms, self._numerators, self._denominator = terms, numerators, denominator

    @classmethod
    def _trusted(cls, field: Field, nvars: int, terms: dict) -> "Poly":
        """A polynomial over GF(p), or in several variables, from terms that are
        already canonical: exponent tuples of length nvars mapped to nonzero
        scalars of the field."""
        poly = object.__new__(cls)
        poly._set(field, nvars, terms, None, None)
        return poly

    @classmethod
    def _over(cls, field: Field, numerators: dict, den: int) -> "Poly":
        """The univariate polynomial over Q with coefficients N / den, N the
        nonzero integers of `numerators` by exponent and den > 0, with the
        content taken out."""
        g = math.gcd(den, *numerators.values())
        if g != 1:
            den //= g
            numerators = {k: n // g for k, n in numerators.items()}
        poly = object.__new__(cls)
        poly._set(field, 1, None, numerators, den)
        return poly

    @classmethod
    def zero(cls, field: Field, nvars: int = 1) -> "Poly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, c, nvars: int = 1) -> "Poly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def univariate(cls, field: Field, coeffs: Sequence) -> "Poly":
        """Dense coefficient list, lowest degree first."""
        return cls(field, 1, {(k,): c for k, c in enumerate(coeffs) if c})

    @property
    def terms(self) -> dict:
        """Exponent tuple -> nonzero coefficient, a `Fraction` over Q and a
        residue over GF(p)."""
        if self._numerators is None:
            return self._terms
        den = self._denominator
        return {(k,): Fraction(n, den) for k, n in self._numerators.items()}

    def is_zero(self) -> bool:
        return not (self._terms if self._numerators is None else self._numerators)

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if self._numerators is not None:
            return max(self._numerators, default=None)
        return max((sum(e) for e in self._terms), default=None)

    def coeffs_univariate(self) -> list:
        if self.nvars != 1:
            raise ValueError("not univariate")
        terms = self.terms
        if not terms:
            return []
        top = max(e[0] for e in terms)
        out = [self.field.zero] * (top + 1)
        for (k,), c in terms.items():
            out[k] = c
        return out

    def __add__(self, other: "Poly") -> "Poly":
        self._compat(other)
        if self._numerators is not None:
            d1, d2 = self._denominator, other._denominator
            den = math.lcm(d1, d2)
            s1, s2 = den // d1, den // d2
            nums = {k: n * s1 for k, n in self._numerators.items()}
            for k, n in other._numerators.items():
                s = nums.get(k, 0) + n * s2
                if s:
                    nums[k] = s
                else:
                    nums.pop(k, None)
            return Poly._over(self.field, nums, den)
        terms = dict(self._terms)
        add = self.field.add
        for exp, c in other._terms.items():
            s = add(terms.get(exp, self.field.zero), c)
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return Poly._trusted(self.field, self.nvars, terms)

    def __neg__(self) -> "Poly":
        if self._numerators is not None:
            return Poly._over(self.field, {k: -n for k, n in self._numerators.items()},
                              self._denominator)
        neg = self.field.neg
        return Poly._trusted(self.field, self.nvars, {e: neg(c) for e, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._compat(other)
        field = self.field
        if self._numerators is not None:
            acc = _convolve(self._numerators.items(), other._numerators.items())
            return Poly._over(field, {k: v for k, v in acc.items() if v},
                              self._denominator * other._denominator)
        if self.nvars == 1:
            p = field.p
            acc = _convolve([(i, a) for (i,), a in self._terms.items()],
                            [(j, b) for (j,), b in other._terms.items()])
            return Poly._trusted(field, 1, {(k,): r for k, v in acc.items() if (r := v % p)})
        add, mul = field.add, field.mul
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = mul(c1, c2)
                if exp in terms:
                    s = add(terms[exp], prod)
                    if s:
                        terms[exp] = s
                    else:
                        del terms[exp]
                elif prod:
                    terms[exp] = prod
        return Poly._trusted(field, self.nvars, terms)

    def scale(self, c) -> "Poly":
        field = self.field
        c = field.check_scalar(c)
        if self._numerators is not None:
            if not c:
                return Poly._over(field, {}, 1)
            a = c.numerator
            return Poly._over(field, {k: n * a for k, n in self._numerators.items()},
                              self._denominator * c.denominator)
        mul = field.mul
        terms = {e: mul(c, v) for e, v in self._terms.items()} if c else {}
        return Poly._trusted(field, self.nvars, terms)

    def evaluate(self, point: Sequence):
        if len(point) != self.nvars:
            raise ValueError("evaluation point has the wrong arity")
        field = self.field
        point = [field.check_scalar(x) for x in point]
        if self.nvars != 1:
            return _term_loop(self._terms, point, field)
        (value,) = _univariate_values(self, point)
        return value if field.p is not None else Fraction(*value)

    def _compat(self, other: "Poly"):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomial arity or field mismatch")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.nvars == other.nvars and self._terms == other._terms
                and self._numerators == other._numerators
                and self._denominator == other._denominator)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        size = len(self._terms if self._numerators is None else self._numerators)
        return f"Poly({self.nvars} vars, {size} terms)"


def _cleared(terms) -> tuple:
    """Rational (key, coefficient) pairs as integer numerators over one
    common denominator: ([(key, N)], D) with coefficient = N / D."""
    ratios = [(k, c.as_integer_ratio()) for k, c in terms]
    den = math.lcm(*[d for _, (_, d) in ratios])
    return [(k, n * (den // d)) for k, (n, d) in ratios], den


def _convolve(f, g) -> dict:
    """The sums of the products a*b keyed by i+j, over the (exponent i,
    integer a) pairs of f and (j, b) of g, some of them possibly zero.  The
    dict is keyed by the integer exponent, so a sparse polynomial of huge
    degree costs nothing extra."""
    acc: dict = {}
    get = acc.get
    for i, a in f:
        for j, b in g:
            k = i + j
            acc[k] = get(k, 0) + a * b
    return acc


def _univariate_values(f: Poly, xs: Sequence) -> list:
    """Values of the univariate f at each canonical scalar in xs: residues
    over GF(p), integer pairs (n, d) with value n/d over Q.  The terms are
    sorted once for all of xs; over Q they are the integer numerators of the
    cleared form."""
    p = f.field.p
    if p is not None:
        terms = sorted([(e, c) for (e,), c in f._terms.items()], reverse=True)
        return [_horner(terms, x, p) if terms else 0 for x in xs]
    nums, den = sorted(f._numerators.items(), reverse=True), f._denominator
    return [_horner_cleared(nums, den, x) if nums else (0, 1) for x in xs]


def _horner(terms: list, x: int, p: int) -> int:
    """Value at the residue x of the polynomial with the given (exponent,
    coefficient) terms over GF(p), the exponents descending, reduced mod p at
    each step.

    Horner's rule over the gaps between the exponents, highest first: a gap
    of g costs one power x^g, so a sparse polynomial of huge degree costs
    O(terms * log degree) and no dense coefficient list is built."""
    prev, acc = terms[0]
    for e, c in terms[1:]:
        acc = (acc * pow(x, prev - e, p) + c) % p
        prev = e
    return acc * pow(x, prev, p) % p


def _horner_cleared(nums: list, den: int, x: Fraction) -> tuple:
    """sum(N * x^e for (e, N) in nums) / den for integer numerators N, the
    exponents descending, as an integer pair (numerator, denominator) with a
    positive denominator, by Horner's rule on integers alone.

    With x = a/b and top the highest exponent, the value is
    a^low * sum(N_e * a^(e-low) * b^(top-e)) / (den * b^top), so the loop
    steps acc = acc*a^gap + N_e*b^(top-e), keeping b^(top-e) up to date."""
    a, b = x.numerator, x.denominator
    prev, acc = nums[0]
    bpow = 1  # b^(top - prev)
    for e, n in nums[1:]:
        gap = prev - e
        if gap == 1:
            bpow *= b
            acc = acc * a + n * bpow
        else:
            bpow *= b ** gap
            acc = acc * a ** gap + n * bpow
        prev = e
    return acc * a ** prev, den * bpow * b ** prev


def _term_loop(terms: dict, point: Sequence, field: Field):
    """Value of a multivariate polynomial at a canonical point, term by term."""
    acc = field.zero
    for exp, coef in terms.items():
        term = coef
        for x, e in zip(point, exp):
            if e:
                term = field.mul(term, _pow(field, x, e))
        acc = field.add(acc, term)
    return acc


def _pow(field: Field, x, e: int):
    if field.p is not None:
        return pow(x, e, field.p)
    return x ** e


# -- weighted evaluation subspaces -------------------------------------------------


@dataclass(frozen=True)
class EvalConfig:
    """Distinct evaluation points with weights; cuts out the subspace of
    polynomials killed by the weighted evaluation sum."""

    field: Field
    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(tuple(self.field.check_scalar(x) for x in p) for p in self.points)
        wts = tuple(self.field.check_scalar(w) for w in self.weights)
        if len(pts) != len(wts):
            raise ValueError("need one weight per point")
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be distinct")
        if pts and len(set(len(p) for p in pts)) != 1:
            raise ValueError("points must share one arity")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def nvars(self) -> int:
        return len(self.points[0]) if self.points else 1

    @property
    def length(self) -> int:
        return len(self.points)


def support(weights: Sequence) -> tuple:
    return tuple(i for i, w in enumerate(weights) if w)


def omega_member(weights: Sequence, field: Field | None = None) -> bool:
    """True iff every nonempty subset of the support has a nonzero sum.

    The weights are scalars of ``field`` (QQ when it is None).  Over Q they
    are cleared of denominators first: scaling by a positive integer keeps
    every zero sum, so the subset sums are taken on integers."""
    field = QQ if field is None else field
    nonzero = [(i, w) for i, w in enumerate(map(field.check_scalar, weights)) if w]
    if len(nonzero) > MAX_SUPPORT:
        raise SupportCapExceeded(len(nonzero))
    p = field.p
    if p is None:
        nonzero, _ = _cleared(nonzero)
    vals = [w for _, w in nonzero]
    half = len(vals) // 2
    left, right = _subset_sums(vals[:half], p), _subset_sums(vals[half:], p)
    if 0 in left or 0 in right:
        return False
    if p is None:
        return not any(-a in right for a in left)
    return not any((-a) % p in right for a in left)


def _subset_sums(vals: Sequence, p: int | None) -> set:
    """The sums of the nonempty subsets of ``vals``, reduced mod p unless p is None."""
    sums: set = set()
    for v in vals:
        grown = {s + v for s in sums}
        grown.add(v)
        if p is not None:
            grown = {s % p for s in grown}
        sums |= grown
    return sums


def _twisted_weights(f: Poly, cfg: EvalConfig) -> list:
    """The twisted weights w_i * f(u_i) of the configuration as integer pairs
    (n_i, d_i), d_i > 0: the value is n_i/d_i over Q (not reduced to lowest
    terms) and the residue n_i with d_i = 1 over GF(p).

    Field and arity are checked once and the points are taken as canonical
    (`EvalConfig` checked them).  A univariate f is sorted once for all
    points, over Q as its cleared form; a multivariate f is evaluated term by
    term."""
    field = cfg.field
    if f.field != field or f.nvars != cfg.nvars:
        raise ValueError("polynomial does not match the configuration")
    p = field.p
    if f.nvars == 1:
        values = _univariate_values(f, [x for (x,) in cfg.points])
        if p is not None:
            return [(w * v % p, 1) for w, v in zip(cfg.weights, values)]
        return [(w.numerator * n, w.denominator * d) for w, (n, d) in zip(cfg.weights, values)]
    values = [field.mul(w, _term_loop(f.terms, pt, field))
              for w, pt in zip(cfg.weights, cfg.points)]
    return [(v.numerator, v.denominator) for v in values]  # a residue has denominator 1


def _over_common_denominator(pairs: list) -> list:
    """The integers n_i * (L / d_i), L the lcm of the d_i: the values n_i/d_i
    scaled by the positive L."""
    lcm = math.lcm(*[d for _, d in pairs])
    return [n * (lcm // d) for n, d in pairs]


def alpha_f_B(f: Poly, cfg: EvalConfig) -> tuple:
    """Componentwise weight twist (w_i * f(u_i))."""
    pairs = _twisted_weights(f, cfg)
    if cfg.field.p is not None:
        return tuple(n for n, _ in pairs)
    return tuple(Fraction(n, d) for n, d in pairs)


def nba_member(f: Poly, cfg: EvalConfig) -> bool:
    total = sum(_over_common_denominator(_twisted_weights(f, cfg)))
    p = cfg.field.p
    return not (total if p is None else total % p)


def nba_sigma_member(f: Poly, cfg: EvalConfig) -> bool:
    return sum(1 for n, _ in _twisted_weights(f, cfg) if n) <= 1


def nba_tau_member(f: Poly, cfg: EvalConfig) -> bool:
    return omega_member(_over_common_denominator(_twisted_weights(f, cfg)), cfg.field)


def indicator_poly(cfg: EvalConfig, i: int) -> Poly:
    """A polynomial that is 1 at point i and 0 at every other point."""
    field = cfg.field
    target = cfg.points[i]
    out = Poly.constant(field, field.one, cfg.nvars)
    for j, other in enumerate(cfg.points):
        if j == i:
            continue
        coord = next(c for c in range(cfg.nvars) if other[c] != target[c])
        denom = field.sub(target[coord], other[coord])
        exp = tuple(1 if c == coord else 0 for c in range(cfg.nvars))
        terms = {exp: field.one}
        if other[coord]:
            terms[(0,) * cfg.nvars] = field.neg(other[coord])
        out = out * Poly(field, cfg.nvars, terms).scale(field.inv(denom))
    return out


def standard_eval_config(length: int, field: Field, weights: Sequence) -> EvalConfig:
    """Points 0, 1, ..., length-1 on the first coordinate line."""
    if not field.is_rational and length > field.p:
        raise ValueError(
            f"need {length} distinct points on a coordinate line but {field!r} has only {field.p}")
    points = [(field.from_int(t),) for t in range(length)]
    return EvalConfig(field, tuple(points), tuple(weights))


def reduce_to_product_algebra(cfg: EvalConfig):
    """Finite image of the evaluation map: the componentwise product algebra
    together with the weight hyperplane whose Mathieu status mirrors the
    evaluation subspace."""
    field = cfg.field
    if field.is_rational:
        raise ValueError("the finite reduction needs a prime field")
    length = cfg.length
    algebra = product_algebra(length, field)
    if all(not w for w in cfg.weights):
        hyperplane = Subspace.full(field, length)
    else:
        hyperplane = solve_right_kernel(field, [tuple(cfg.weights)], length)
    return algebra, hyperplane


# -- integration subspaces ---------------------------------------------------------


@dataclass(frozen=True)
class IntegralConfig:
    """Interval endpoints and a rational weight polynomial."""

    a: Fraction
    b: Fraction
    q: Poly

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == self.b:
            raise ValueError("endpoints must differ")
        if self.q.field != QQ or self.q.nvars != 1:
            raise ValueError("weight must be a univariate rational polynomial")


def exact_integral(f: Poly, cfg: IntegralConfig) -> Fraction:
    """Exact value of the weighted integral of f over [a, b], via the
    antiderivative of f*q evaluated at the endpoints."""
    if f.field != QQ or f.nvars != 1:
        raise ValueError("integrand must be a univariate rational polynomial")
    h = f * cfg.q
    if h.is_zero():
        return Fraction(0)
    # the antiderivative sum(N_k / (D*(k+1)) z^(k+1)) of the cleared form of h
    # over the denominator D*L, L the lcm of the k+1
    nums = sorted(h._numerators.items(), reverse=True)
    lcm = math.lcm(*(k + 1 for k, _ in nums))
    anti = [(k + 1, n * (lcm // (k + 1))) for k, n in nums]
    den = h._denominator * lcm
    (nb, db), (na, da) = _horner_cleared(anti, den, cfg.b), _horner_cleared(anti, den, cfg.a)
    return Fraction(nb * da - na * db, da * db)


def nq_member(f: Poly, cfg: IntegralConfig) -> bool:
    return exact_integral(f, cfg) == 0


def _require_nonzero_weight(cfg: IntegralConfig):
    if cfg.q.is_zero():
        raise ValueError("stable/quasi-stable predicates need a nonzero weight; "
                         "a zero weight makes the subspace the whole algebra")


def nq_sigma_member(h: Poly, cfg: IntegralConfig) -> bool:
    _require_nonzero_weight(cfg)
    return h.is_zero()


def nq_tau_member(h: Poly, cfg: IntegralConfig) -> bool:
    _require_nonzero_weight(cfg)
    return h.is_zero() or exact_integral(h, cfg) != 0
