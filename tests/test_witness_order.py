"""Witness order per side, against a naive scan written from the documented order.

A theta-multiple of a is b*a*c with the multipliers of side theta taken from the
basis: b*a for "left", a*c for "right", the left ones then the right ones for
"pre", and every b*a*c for "two".  The first witness is the first failing
multiple in the order elements, then b, then c.  The ideal scan walks J's basis
once per side ("left", then "right" for "pre" and "two"); the idempotent
criterion walks the idempotents in J, found here as the e with e*e = e.
"""

import random
from fractions import Fraction

import pytest

from mathieuspaces.algebras import (
    THETAS,
    ideal_violation_witness,
    matrix_algebra,
    product_algebra,
    truncated_poly,
    upper_triangular,
)
from mathieuspaces.fields import QQ
from mathieuspaces.linalg import Subspace, enumerate_subspaces
from mathieuspaces.mathieu import is_theta_mathieu_idempotent


def _multipliers(algebra, theta):
    """The (b, c) pairs of side theta in witness order; None where unused."""
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    left = [(b, None) for b in basis]
    right = [(None, c) for c in basis]
    return {"left": left, "right": right, "pre": left + right,
            "two": [(b, c) for b in basis for c in basis]}[theta]


def _product(algebra, a, b, c):
    out = a if b is None else algebra.multiply(b, a)
    return out if c is None else algebra.multiply(out, c)


def naive_idempotent(algebra, j, theta):
    idempotents = [e for e in algebra.elements() if algebra.multiply(e, e) == e]
    for e in idempotents:
        if not j.contains(e):
            continue
        for b, c in _multipliers(algebra, theta):
            if not j.contains(_product(algebra, e, b, c)):
                return False, {"kind": "mathieu", "a": e, "b": b, "c": c, "power": 1}
    return True, None


def naive_ideal(algebra, j, theta):
    for side in ("left", "right") if theta in ("pre", "two") else (theta,):
        for v in j.basis:
            for b, c in _multipliers(algebra, side):
                if not j.contains(_product(algebra, v, b, c)):
                    return {"kind": "ideal", "element": v, "left": b, "right": c}
    return None


def naive_generated(algebra, a, theta):
    return Subspace(algebra.field, algebra.dim,
                    [_product(algebra, a, b, c) for b, c in _multipliers(algebra, theta)])


def _every_subspace(algebra):
    return list(enumerate_subspaces(algebra.field, algebra.dim))


def _sampled_subspaces(algebra, k, seed):
    return random.Random(seed).sample(_every_subspace(algebra), k)


CASES = [
    ("product(2,2)", lambda: product_algebra(2, 2), _every_subspace),
    ("truncated(3,2)", lambda: truncated_poly(3, 2), _every_subspace),
    ("upper(2,2)", lambda: upper_triangular(2, 2), _every_subspace),
    ("M_2(GF(2))", lambda: matrix_algebra(2, 2), _every_subspace),
    ("upper(2,3)", lambda: upper_triangular(2, 3), _every_subspace),
    ("M_2(GF(3)) sample", lambda: matrix_algebra(2, 3),
     lambda algebra: _sampled_subspaces(algebra, 40, seed=20)),
]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("build, subspaces", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_deciders_name_the_first_witness_of_the_documented_order(build, subspaces, theta):
    algebra = build()
    negatives = 0
    for j in subspaces(algebra):
        verdict = is_theta_mathieu_idempotent(algebra, j, theta)
        assert (verdict.is_mathieu, verdict.witness) == naive_idempotent(algebra, j, theta)
        witness = ideal_violation_witness(algebra, j, theta)
        assert witness == naive_ideal(algebra, j, theta)
        negatives += (witness is not None) + (not verdict.is_mathieu)
    assert negatives  # the order is pinned only where a witness is named
    for a in algebra.element_list():
        assert algebra.theta_ideal_generated(a, theta) == naive_generated(algebra, a, theta)


def test_generated_ideals_over_q_are_the_naive_spans():
    algebra = upper_triangular(2, QQ)
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(algebra.dim))
        for theta in THETAS:
            assert algebra.theta_ideal_generated(a, theta) == naive_generated(algebra, a, theta)
