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
    """Sparse polynomial in one storage form: nonzero integer numerators keyed
    by exponent over one positive common denominator D.  The exponent key is
    an int in one variable and a tuple in several.  Over GF(p) the numerators
    are residues and D = 1; over Q the content is taken out (gcd(D, every
    numerator) = 1), so D is the lcm of the reduced coefficient denominators.
    `terms` is derived from that form on each access."""

    __slots__ = ("field", "nvars", "_numerators", "_denominator")

    def __init__(self, field: Field, nvars: int, terms=None):
        clean = []
        for exp, coef in (terms or {}).items():
            if (not isinstance(exp, tuple) or len(exp) != nvars
                    or any(type(e) is not int or e < 0 for e in exp)):
                raise ValueError(f"bad exponent {exp!r} for {nvars} variables")
            coef = field.check_scalar(coef)
            if coef:
                clean.append((exp[0] if nvars == 1 else exp, coef))
        # reduced coefficients over the lcm of their denominators leave no
        # content to take out; a residue is its own numerator over 1
        numerators, den = _cleared(clean)
        self.field, self.nvars = field, nvars
        self._numerators, self._denominator = dict(numerators), den

    @classmethod
    def _over(cls, field: Field, nvars: int, numerators: dict, den: int) -> "Poly":
        """The polynomial with coefficients N / den, N the integers of
        `numerators` by exponent key and den > 0 (den = 1 over GF(p)), in
        canonical form: zeros dropped, residues reduced mod p over GF(p), the
        content taken out over Q."""
        p = field.p
        if p is not None:
            numerators = {k: r for k, n in numerators.items() if (r := n % p)}
        else:
            numerators = {k: n for k, n in numerators.items() if n}
            g = math.gcd(den, *numerators.values())
            if g != 1:
                den //= g
                numerators = {k: n // g for k, n in numerators.items()}
        poly = object.__new__(cls)
        poly.field, poly.nvars = field, nvars
        poly._numerators, poly._denominator = numerators, den
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
        residue over GF(p), in a new dict on each access."""
        items = self._numerators.items()
        if self.nvars == 1:
            items = [((k,), n) for k, n in items]
        if self.field.p is not None:
            return dict(items)
        den = self._denominator
        return {k: Fraction(n, den) for k, n in items}

    def is_zero(self) -> bool:
        return not self._numerators

    def degree(self):
        """Total degree; None for the zero polynomial."""
        keys = self._numerators
        return max(keys if self.nvars == 1 else map(sum, keys), default=None)

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
        d1, d2 = self._denominator, other._denominator
        den = math.lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        nums = {k: n * s1 for k, n in self._numerators.items()}
        get = nums.get
        for k, n in other._numerators.items():
            nums[k] = get(k, 0) + n * s2
        return Poly._over(self.field, self.nvars, nums, den)

    def __neg__(self) -> "Poly":
        return Poly._over(self.field, self.nvars,
                          {k: -n for k, n in self._numerators.items()}, self._denominator)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._compat(other)
        if self.nvars == 1:
            acc = _convolve(self._numerators.items(), other._numerators.items())
        else:
            acc = {}
            get = acc.get
            for e1, a in self._numerators.items():
                for e2, b in other._numerators.items():
                    exp = tuple([x + y for x, y in zip(e1, e2)])
                    acc[exp] = get(exp, 0) + a * b
        return Poly._over(self.field, self.nvars, acc, self._denominator * other._denominator)

    def scale(self, c) -> "Poly":
        # a residue is its own numerator over the denominator 1
        c = self.field.check_scalar(c)
        a = c.numerator
        return Poly._over(self.field, self.nvars, {k: n * a for k, n in self._numerators.items()},
                          self._denominator * c.denominator)

    def evaluate(self, point: Sequence):
        field = self.field
        point = field.vector(point, self.nvars, "evaluation point")
        if self.nvars != 1:
            return _term_loop(self.terms, point, field)
        (value,) = _univariate_values(self, point)
        return value if field.p is not None else Fraction(*value)

    def _compat(self, other: "Poly"):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomial arity or field mismatch")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.nvars == other.nvars and self._numerators == other._numerators
                and self._denominator == other._denominator)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.nvars} vars, {len(self._numerators)} terms)"


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
    over GF(p), integer pairs (n, d) with value n/d over Q.  The numerators
    are sorted once for all of xs."""
    p, nums = f.field.p, sorted(f._numerators.items(), reverse=True)
    if p is not None:
        return [_horner(nums, x, p) if nums else 0 for x in xs]
    den = f._denominator
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
        field, arity = self.field, self.nvars
        pts = tuple(field.vector(p, arity, "evaluation point") for p in self.points)
        wts = field.vector(self.weights, len(pts), "weight vector")
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be distinct")
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
    (`EvalConfig` checked them).  The numerators of a univariate f are sorted
    once for all points; a multivariate f is evaluated term by term."""
    field = cfg.field
    if f.field != field or f.nvars != cfg.nvars:
        raise ValueError("polynomial does not match the configuration")
    p = field.p
    if f.nvars == 1:
        values = _univariate_values(f, [x for (x,) in cfg.points])
        if p is not None:
            return [(w * v % p, 1) for w, v in zip(cfg.weights, values)]
        return [(w.numerator * n, w.denominator * d) for w, (n, d) in zip(cfg.weights, values)]
    terms = f.terms
    values = [field.mul(w, _term_loop(terms, pt, field))
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
