"""The oracles: naive computations that share no code with the fast paths
they referee.  `is_theta_mathieu_bruteforce` referees the idempotent decider,
`verify_mathieu_witness` every negative verdict, and the rest the checks of
`verify-paper`.  Both Mathieu oracles read J through a view of their own
(`_j_view`, built from J's enumerated elements) or, for the re-validator when
no view is cached, through an elimination of their own (`_in_span`); neither
reads the residual map the deciders test membership with.
`tests/test_oracle_independence.py` fails on any attribute this module
reads, or name it imports from the package, off its allow-list; annotations
are never evaluated, so they may name any type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence
from weakref import WeakKeyDictionary

from .algebras import Algebra, normalize_theta
from .linalg import DEFAULT_ELEMENT_CAP, BoundedMemo, Subspace
from .polyspaces import EvalConfig, Poly


@dataclass(frozen=True)
class MathieuVerdict:
    is_mathieu: bool
    witness: dict | None = None

    def __bool__(self):
        return self.is_mathieu


# algebra -> (left, right, two-sided) dicts from an element index x to the
# bitmask of {b*x}, {x*c} or {b*x*c}; filled by the brute-force scan, at most
# element_count masks each, and dropped with the algebra
_PRODUCT_MASKS = WeakKeyDictionary()

# algebra -> BoundedMemo from a subspace J (by value) to its view, holding at
# most VIEW_BUDGET // element_count views; dropped with the algebra
_J_VIEWS = WeakKeyDictionary()
VIEW_BUDGET = 1 << 21


def _bits(indices) -> int:
    mask = 0
    for idx in set(indices):
        mask |= 1 << idx
    return mask


def _j_view(algebra, j, count):
    """(bitmap, int with bit i set for element #i of J, sorted member indices)
    of J in an algebra of `count` elements, from J's enumerated elements and
    `index_of`; built once per J by value and kept per algebra."""
    views = _J_VIEWS.get(algebra)
    if views is None:
        views = _J_VIEWS[algebra] = BoundedMemo(max(1, VIEW_BUDGET // count))
    view = views.get(j)
    if view is None:
        members = sorted(map(algebra.index_of, j.elements()))
        mem = bytearray(count)
        inside = 0
        for idx in members:
            mem[idx] = 1
            inside |= 1 << idx
        view = views.put(j, (mem, inside, members))
    return view


def is_theta_mathieu_bruteforce(algebra: Algebra, j: Subspace, theta: str,
                                cap: int = DEFAULT_ELEMENT_CAP) -> MathieuVerdict:
    """Scan every a whose full power sequence stays in J and every multiplier.

    The eventual periodicity of powers makes "for all large exponents"
    equivalent to "for every element of the power cycle".  The scan visits
    every a and every multiplier in index order, and skips only what cannot
    change its first witness: an a outside J (a = a^1), the zero element as a
    cycle element (b*0 = 0*c = 0 lies in every J), a cycle element x whose
    multiplier scan already passed in this decision, and a product b*x
    already scanned for a smaller b.

    The scan runs on element indices, with J's view (`_j_view`): a bitmap,
    an int whose bit i is set for element #i of J, and J's indices in order,
    built the first time J is decided on the algebra, on any side.  Only
    products and power trajectories depend on the algebra's kind.  With a
    multiplication table, the product set of x on a side ({b*x}, {x*c} or
    {b*x*c}) is one bitmask, and one AND with the complement of J tests it;
    the ordered loop over the multipliers runs only when that AND is
    nonzero, to name the first witness.  The masks depend on the algebra
    alone and are kept in `_PRODUCT_MASKS`: built the first time x is
    visited, at most 3 x element_count of them, held only while the algebra
    lives.  Without a table, products and trajectories are computed one at a
    time, so that a failing scan stops at the first escape.
    """
    theta = normalize_theta(theta)
    count = algebra.element_count(cap)
    algebra._check_subspace(j)
    if j.is_full():
        return MathieuVerdict(True)
    mem, inside, members = _j_view(algebra, j, count)
    outside = ((1 << count) - 1) ^ inside
    table = algebra.mult_table()
    if table is not None:
        trajectory = algebra.trajectory_indices
        right_products = table.__getitem__

        def left_products(x):
            return [row[x] for row in table]

        masks = _PRODUCT_MASKS.get(algebra)
        if masks is None:
            masks = _PRODUCT_MASKS[algebra] = ({}, {}, {})
        left_masks, right_masks, two_masks = masks

        def left_mask(x):
            mask = left_masks.get(x)
            if mask is None:
                mask = left_masks[x] = _bits(left_products(x))
            return mask

        def right_mask(x):
            mask = right_masks.get(x)
            if mask is None:
                mask = right_masks[x] = _bits(table[x])
            return mask

        def two_mask(x):
            mask = two_masks.get(x)
            if mask is None:
                mask = 0
                for bx in set(left_products(x)):
                    mask |= right_mask(bx)
                two_masks[x] = mask
            return mask
    else:
        elems = algebra.element_list(cap)
        multiply = algebra.multiply
        index_of = algebra.index_of

        def trajectory(a_idx):
            traj = algebra.power_trajectory(elems[a_idx])
            return tuple(map(index_of, traj.tail)), tuple(map(index_of, traj.cycle))

        def left_products(x):
            x = elems[x]
            return (index_of(multiply(b, x)) for b in elems)

        def right_products(x):
            x = elems[x]
            return (index_of(multiply(x, c)) for c in elems)

        def left_mask(x):
            return outside  # no mask: every product may escape

        right_mask = two_mask = left_mask

    check_left = theta in ("left", "pre")
    check_right = theta in ("right", "pre")
    passed = {0}
    for a_idx in members:
        tail, cycle = trajectory(a_idx)
        if not all(mem[x] for x in tail) or not all(mem[x] for x in cycle):
            continue
        for pos, x in enumerate(cycle):
            if x in passed:
                continue
            power = len(tail) + pos + 1
            if check_left and left_mask(x) & outside:
                for b, bx in enumerate(left_products(x)):
                    if not mem[bx]:
                        return _indexed_witness(algebra, a_idx, power, b=b)
            if check_right and right_mask(x) & outside:
                for c, xc in enumerate(right_products(x)):
                    if not mem[xc]:
                        return _indexed_witness(algebra, a_idx, power, c=c)
            if theta == "two" and two_mask(x) & outside:
                seen = set()
                for b, bx in enumerate(left_products(x)):
                    if bx in seen:
                        continue
                    seen.add(bx)
                    for c, bxc in enumerate(right_products(bx)):
                        if not mem[bxc]:
                            return _indexed_witness(algebra, a_idx, power, b=b, c=c)
            passed.add(x)
    return MathieuVerdict(True)


def _indexed_witness(algebra, a_idx, power, b=None, c=None):
    witness = {
        "kind": "mathieu",
        "a": algebra.vector_at(a_idx),
        "b": None if b is None else algebra.vector_at(b),
        "c": None if c is None else algebra.vector_at(c),
        "power": power,
    }
    return MathieuVerdict(False, witness)


def verify_mathieu_witness(algebra: Algebra, j: Subspace, theta: str, witness: dict):
    """Re-validate a negative verdict from scratch; returns (valid, reason).

    Every vector of the witness is normalized as it is read (`Field.vector`),
    so every vector tested is canonical.
    Membership in J has a test of its own: J's view when the brute-force scan
    has already cached one for this algebra and J (it is looked up, never
    built), else elimination against J's basis (`_in_span`).
    """
    theta = normalize_theta(theta)
    algebra._check_subspace(j)
    field, basis = algebra.field, j.basis
    views = _J_VIEWS.get(algebra)
    view = None if views is None else views.get(j)
    if view is None:
        def contains(v):
            return _in_span(field, basis, v)
    else:
        mem, index_of = view[0], algebra.index_of

        def contains(v):
            return mem[index_of(v)]

    n = len(basis[0] if basis else next(j.elements()))  # J's ambient dimension

    def vector(key):
        v = witness.get(key)
        return None if v is None else field.vector(v, n, f"witness {key}")

    kind = witness.get("kind")
    if kind == "ideal":
        if witness.get("element") is None:
            return False, "ideal violations need an element"
        x = vector("element")
        if not contains(x):
            return False, "claimed element is not in the subspace"
        left = vector("left")
        right = vector("right")
        if left is None and right is None:
            return False, "ideal violations need a multiplier"
        if theta == "left" and right is not None:
            return False, "left-ideal violations admit only a left multiplier"
        if theta == "right" and left is not None:
            return False, "right-ideal violations admit only a right multiplier"
        confirmed = "ideal violation confirmed"
    elif kind == "mathieu":
        if witness.get("a") is None:
            return False, "Mathieu violations need an element a"
        m = witness.get("power")
        if type(m) is not int:
            return False, "witness exponent must be an integer"
        traj = algebra.power_trajectory(vector("a"))
        if not all(map(contains, traj.tail)) or not all(map(contains, traj.cycle)):
            return False, "witness element does not have all powers in the subspace"
        if m <= len(traj.tail):
            return False, "witness exponent does not reach the power cycle"
        x = traj.power(m)
        left = vector("b")
        right = vector("c")
        if theta == "left" and (left is None or right is not None):
            return False, "left violations need exactly a left multiplier"
        if theta == "right" and (right is None or left is not None):
            return False, "right violations need exactly a right multiplier"
        if theta == "pre" and (left is None) == (right is None):
            return False, "one-sided violation expected"
        if theta == "two" and (left is None or right is None):
            return False, "two-sided violations need both multipliers"
        confirmed = "recurring product escapes the subspace"
    else:
        return False, f"unknown witness kind {kind!r}"
    if left is not None:
        x = algebra.multiply(left, x)
    if right is not None:
        x = algebra.multiply(x, right)
    if contains(x):
        return False, "claimed product actually stays in the subspace"
    return True, confirmed


def _in_span(field, rows, v) -> bool:
    """Whether v is a combination of `rows`, by naive elimination, exact over
    GF(p) and over Q: each row, reduced by the rows kept before it, is kept
    scaled to a leading 1 if anything is left, and v lies in the span iff the
    kept rows reduce it to zero.  `rows` need not be in echelon form."""
    p = field.p
    if any(len(row) != len(v) for row in rows):
        raise ValueError("ambient dimension mismatch")

    def reduce(w, kept):
        w = [x % p for x in w] if p else [Fraction(x) for x in w]
        for c, row in kept:
            f = w[c]
            if f:
                w = [(x - f * y) % p if p else x - f * y for x, y in zip(w, row)]
        return w

    kept = []
    for row in rows:
        w = reduce(row, kept)
        c = next((c for c, x in enumerate(w) if x), None)
        if c is not None:
            inv = pow(w[c], p - 2, p) if p else 1 / w[c]
            kept += [(c, [x * inv % p if p else x * inv for x in w])]
    return not any(reduce(v, kept))


def _fixpoint_submodule(module, n_space: Subspace) -> frozenset:
    """The largest submodule inside N as a set of vectors (finite fields only),
    by fixpoint descent over explicit sets: each round keeps the u of the
    current set whose image under every action matrix lies in that set."""
    p = module.field.p
    actions = module.actions
    current = frozenset(n_space.elements())
    while True:
        kept = frozenset(u for u in current if all(
            tuple(sum(map(mul, row, u)) % p for row in m) in current for m in actions))
        if kept == current:
            return current
        current = kept


def _flat_matmul(p: int, n: int, y: tuple, x: tuple) -> tuple:
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += y[i * n + k] * x[k * n + j]
            out[i * n + j] = acc % p
    return tuple(out)


def _is_nonzero_scalar_of_identity(p: int, n: int, m: tuple) -> bool:
    c = m[0]
    if not c:
        return False
    for i in range(n):
        for j in range(n):
            want = c if i == j else 0
            if m[i * n + j] != want:
                return False
    return True


def _horner_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _independent_twist(cfg: EvalConfig, f: Poly) -> list:
    """Weight twist computed with a separate dense Horner evaluation."""
    coeffs = f.coeffs_univariate()
    return [w * _horner_eval(coeffs, pt[0]) for w, pt in zip(cfg.weights, cfg.points)]


def _subset_sums_nonzero(values: Sequence[Fraction]) -> bool:
    nz = [v for v in values if v]
    for size in range(1, len(nz) + 1):
        for combo in itertools.combinations(nz, size):
            if sum(combo) == 0:
                return False
    return True


def _double_sum_integral(f: Poly, q: Poly, a: Fraction, b: Fraction) -> Fraction:
    """Term-by-term pairing without polynomial multiplication."""
    total = Fraction(0)
    for (i,), ci in f.terms.items():
        for (j,), cj in q.terms.items():
            k = i + j
            total += ci * cj * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return total
