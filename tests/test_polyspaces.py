import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathieuspaces import polyspaces
from mathieuspaces.fields import GF, QQ
from mathieuspaces.mathieu import is_theta_ideal, is_theta_mathieu_bruteforce
from mathieuspaces.polyspaces import (
    MAX_SUPPORT,
    EvalConfig,
    IntegralConfig,
    Poly,
    SupportCapExceeded,
    alpha_f_B,
    exact_integral,
    indicator_poly,
    nba_member,
    nba_sigma_member,
    nba_tau_member,
    nq_member,
    nq_sigma_member,
    nq_tau_member,
    omega_member,
    reduce_to_product_algebra,
    standard_eval_config,
    support,
)
from mathieuspaces.serialize import poly_from_json, poly_to_json
from mathieuspaces.verify import _double_sum_integral, _subset_sums_nonzero

THETAS = ("left", "right", "pre", "two")


def upoly(*coeffs):
    return Poly.univariate(QQ, [Fraction(c) for c in coeffs])


def qq_config(points, weights):
    return EvalConfig(QQ, tuple((Fraction(p),) for p in points),
                      tuple(Fraction(w) for w in weights))


def test_poly_arithmetic():
    f = upoly(1, 2)          # 1 + 2z
    g = upoly(0, 0, 1)       # z^2
    assert (f * g).coeffs_univariate() == [0, 0, 1, 2]
    assert (f + g).coeffs_univariate() == [1, 2, 1]
    assert (f - f).is_zero()
    assert f.evaluate((Fraction(3),)) == 7
    assert upoly().degree() is None
    assert upoly(0, 0).is_zero()


def test_omega_zero_weights_belong():
    assert omega_member((Fraction(0), Fraction(0)))


def test_omega_cancelling_pair_fails():
    assert not omega_member((Fraction(1), Fraction(-1)))


def test_omega_equal_pair_belongs():
    # subset sums 1, 1, 2 are all nonzero
    assert omega_member((Fraction(1), Fraction(1)))


def test_omega_over_prime_field_uses_modular_sums():
    f3 = GF(3)
    assert not omega_member((1, 2), f3)   # 1 + 2 = 0 mod 3
    assert omega_member((1, 1), f3)
    assert not omega_member((1, 1, 1), f3)


def test_omega_support_cap():
    with pytest.raises(SupportCapExceeded):
        omega_member(tuple(Fraction(1) for _ in range(25)))


def test_singleton_support_always_belongs():
    assert omega_member((Fraction(0), Fraction(7), Fraction(0)))
    assert support((Fraction(0), Fraction(7), Fraction(0))) == (1,)


def test_weight_twist_by_constant_one_is_identity():
    cfg = qq_config([0, 1, 2], [1, 2, 3])
    assert alpha_f_B(upoly(1), cfg) == (1, 2, 3)


def test_weight_twist_by_vanishing_polynomial_is_zero():
    cfg = qq_config([0, 1], [1, 1])
    z2_minus_z = upoly(0, -1, 1)  # vanishes at 0 and 1
    assert alpha_f_B(z2_minus_z, cfg) == (0, 0)


def test_weight_twist_of_identity_map():
    cfg = qq_config([0, 1], [1, 1])
    assert alpha_f_B(upoly(0, 1), cfg) == (0, 1)


def test_membership_and_set_predicates():
    cfg = qq_config([0, 1], [1, -1])
    # f = z is killed by f(0) - f(1) = -1? no: 1*0 - 1*1 = -1, not a member
    assert not nba_member(upoly(0, 1), cfg)
    assert nba_member(upoly(1), cfg)  # constants cancel
    # vanishing on the support makes both predicates true
    z2_minus_z = upoly(0, -1, 1)
    assert nba_sigma_member(z2_minus_z, cfg)
    assert nba_tau_member(z2_minus_z, cfg)
    # constant 1 twists to (1, -1): not quasi-stable
    assert not nba_tau_member(upoly(1), cfg)
    cfg_plus = qq_config([0, 1], [1, 1])
    assert nba_tau_member(upoly(1), cfg_plus)
    assert not nba_sigma_member(upoly(1), cfg_plus)


def test_colon_identity_on_samples():
    rng = random.Random(71)
    for _ in range(30):
        length = rng.randint(1, 4)
        points = rng.sample(range(-5, 6), length)
        cfg = qq_config(points, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(length)])
        f = upoly(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        twisted = EvalConfig(QQ, cfg.points, alpha_f_B(f, cfg))
        for _ in range(20):
            g = upoly(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            assert nba_member(g * f, cfg) == nba_member(g, twisted)


def test_zero_set_identity():
    rng = random.Random(73)
    for _ in range(20):
        length = rng.randint(1, 4)
        points = rng.sample(range(-5, 6), length)
        weights = [Fraction(rng.choice([-2, -1, 0, 1, 2])) for _ in range(length)]
        cfg = qq_config(points, weights)
        sup = support(weights)
        for _ in range(20):
            f = upoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
            vanishes = all(f.evaluate(cfg.points[i]) == 0 for i in sup)
            in_and_stable = nba_member(f, cfg) and nba_sigma_member(f, cfg)
            assert in_and_stable == vanishes


def test_sigma_set_not_closed_under_addition():
    cfg = qq_config([0, 1], [1, 1])
    f1 = indicator_poly(cfg, 0)
    f2 = indicator_poly(cfg, 1)
    assert nba_sigma_member(f1, cfg)
    assert nba_sigma_member(f2, cfg)
    assert not nba_sigma_member(f1 + f2, cfg)


def test_indicator_polynomials():
    cfg = qq_config([0, 2, 5], [1, 1, 1])
    for i in range(3):
        ind = indicator_poly(cfg, i)
        for j in range(3):
            assert ind.evaluate(cfg.points[j]) == (1 if i == j else 0)
    # multivariate points separated in different coordinates
    cfg2 = EvalConfig(QQ, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
                           (Fraction(1), Fraction(0))), (Fraction(1),) * 3)
    for i in range(3):
        ind = indicator_poly(cfg2, i)
        for j in range(3):
            assert ind.evaluate(cfg2.points[j]) == (1 if i == j else 0)


def test_distinct_points_required():
    with pytest.raises(ValueError):
        qq_config([1, 1], [1, 2])


def test_finite_reduction_matches_subset_sum_criterion():
    for length, p in ((1, 3), (2, 3), (2, 5), (3, 3)):
        fld = GF(p)
        for alpha_idx in range(p ** length):
            alpha = []
            k = alpha_idx
            for _ in range(length):
                k, digit = divmod(k, p)
                alpha.append(digit)
            alpha = tuple(alpha)
            cfg = standard_eval_config(length, fld, alpha)
            algebra, hyperplane = reduce_to_product_algebra(cfg)
            expected = omega_member(alpha, fld)
            for theta in THETAS:
                got = is_theta_mathieu_bruteforce(algebra, hyperplane, theta).is_mathieu
                assert got == expected, (length, p, alpha, theta)


def test_single_point_reduction_gives_an_ideal():
    cfg = standard_eval_config(1, GF(3), (2,))
    algebra, hyperplane = reduce_to_product_algebra(cfg)
    assert hyperplane.dim == 0
    assert is_theta_ideal(algebra, hyperplane, "two")


def test_not_enough_line_points():
    with pytest.raises(ValueError):
        standard_eval_config(4, GF(3), (1, 1, 1, 1))


def test_integral_of_one():
    cfg = IntegralConfig(Fraction(0), Fraction(1), upoly(1))
    assert exact_integral(upoly(1), cfg) == 1


def test_integral_of_z():
    cfg = IntegralConfig(Fraction(0), Fraction(1), upoly(1))
    assert exact_integral(upoly(0, 1), cfg) == Fraction(1, 2)


def test_integral_of_centered_line_vanishes():
    cfg = IntegralConfig(Fraction(0), Fraction(1), upoly(1))
    assert exact_integral(upoly(Fraction(-1, 2), 1), cfg) == 0


def test_integration_membership_predicates():
    cfg = IntegralConfig(Fraction(0), Fraction(1), upoly(1))
    zero = Poly.zero(QQ)
    assert nq_sigma_member(zero, cfg)
    assert nq_tau_member(zero, cfg)
    assert nq_tau_member(upoly(1), cfg)            # pairing is 1
    assert not nq_tau_member(upoly(Fraction(-1, 2), 1), cfg)  # inside, nonzero
    assert not nq_sigma_member(upoly(1), cfg)
    assert nq_member(upoly(Fraction(-1, 2), 1), cfg)


def test_zero_weight_makes_predicates_unusable():
    cfg = IntegralConfig(Fraction(0), Fraction(1), Poly.zero(QQ))
    assert nq_member(upoly(5), cfg)  # the subspace is everything
    with pytest.raises(ValueError):
        nq_sigma_member(upoly(1), cfg)
    with pytest.raises(ValueError):
        nq_tau_member(upoly(1), cfg)


def test_square_pairings_are_positive():
    rng = random.Random(79)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        q = Poly.univariate(QQ, coeffs)
        if q.is_zero():
            continue
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        cfg = IntegralConfig(a, a + Fraction(rng.randint(1, 4)), q)
        assert exact_integral(q, cfg) > 0


def test_endpoints_must_differ():
    with pytest.raises(ValueError):
        IntegralConfig(Fraction(1), Fraction(1), upoly(1))


def test_high_degree_integration_stays_exact():
    # degree-64 integrands: the antiderivative route must match the
    # term-by-term monomial pairing despite huge intermediate rationals
    rng = random.Random(83)
    f = Poly.univariate(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                             for _ in range(65)])
    q = Poly.univariate(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                             for _ in range(33)])
    a, b = Fraction(-3, 2), Fraction(5, 3)
    cfg = IntegralConfig(a, b, q)
    total = Fraction(0)
    for (i,), ci in f.terms.items():
        for (j,), cj in q.terms.items():
            k = i + j
            total += ci * cj * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    assert exact_integral(f, cfg) == total


# -- differential tests of the fast omega_member and Poly.evaluate paths ----------


def _naive_omega_mod(weights, p):
    """Scan every nonempty subset of the support of the residues, summing mod p."""
    nz = [w % p for w in weights if w % p]
    for size in range(1, len(nz) + 1):
        for combo in itertools.combinations(nz, size):
            if sum(combo) % p == 0:
                return False
    return True


_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.lists(_RATIONALS, max_size=12), st.sampled_from(("mixed", "positive", "negative")))
@example([], "mixed")
@example([Fraction(0)] * 5, "mixed")
@example([Fraction(3, 2)] * 12, "mixed")
@example([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3), Fraction(0)], "mixed")
@example([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(5, 7)], "mixed")
@example([Fraction(2 ** i) * (-1) ** i for i in range(12)], "mixed")
def test_omega_over_q_matches_naive_scan(weights, sign):
    if sign == "positive":
        weights = [abs(w) for w in weights]
    elif sign == "negative":
        weights = [-abs(w) for w in weights]
    assert omega_member(weights) == _subset_sums_nonzero(weights)
    assert omega_member(weights, QQ) == _subset_sums_nonzero(weights)


@st.composite
def _residue_weights(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    # unreduced ints such as p, -1 or 2p + 1 stand for their residues
    weights = draw(st.lists(st.integers(-2 * p, 2 * p + 1), max_size=p + 3))
    return p, weights


@settings(max_examples=200, deadline=None)
@given(_residue_weights())
@example((2, [1, 1]))
@example((3, [1, 1, 1]))
@example((5, [5, 1]))
@example((5, [-1, 1, 2, 4]))
@example((7, [1] * 6))
@example((7, [1] * 7))
@example((11, [3] * 10 + [0, 11]))
@example((13, [1] * 12))
@example((13, [2] * 13))
def test_omega_over_gf_p_matches_naive_scan(case):
    p, weights = case
    assert omega_member(weights, GF(p)) == _naive_omega_mod(weights, p)


def test_omega_normalises_its_weights_in_the_field():
    # 5 is the residue 0 mod 5, so the support is {1}
    assert omega_member([5, 1], GF(5))
    assert omega_member([5, 1], GF(5)) == omega_member([0, 1], GF(5))
    assert not omega_member([6, 4], GF(5))
    assert omega_member([2, Fraction(1, 2)]) and omega_member([2, 1], QQ)
    for weights, field in (([0.5, -0.5], None), ([0.5, -0.5], QQ), ([True, 1], None),
                           ([Fraction(1, 2), 1], GF(5)), ([1.0], GF(3))):
        with pytest.raises(ValueError):
            omega_member(weights, field)
    # only the reduced support counts against the cap
    assert omega_member([2] * (MAX_SUPPORT + 5) + [1], GF(2))


def test_omega_mixed_signs_at_the_support_cap():
    superincreasing = [Fraction((-1) ** i * 2 ** i, 3) for i in range(MAX_SUPPORT)]
    assert omega_member(superincreasing)
    planted = [Fraction(2 ** i) for i in range(MAX_SUPPORT - 1)] + [Fraction(-3)]
    assert not omega_member(planted)
    with pytest.raises(SupportCapExceeded):
        omega_member(superincreasing + [Fraction(-1)])
    with pytest.raises(SupportCapExceeded):
        omega_member([1] * (MAX_SUPPORT + 1), GF(2))


def _term_by_term(terms, x, p):
    if p is None:
        return sum((Fraction(c) * Fraction(x) ** e for (e,), c in terms.items()), Fraction(0))
    return sum(c * pow(x, e, p) for (e,), c in terms.items()) % p


_TERMS = st.dictionaries(st.tuples(st.integers(0, 30)), st.integers(-9, 9), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((None, 2, 3, 5, 7, 13)), _TERMS, st.integers(-40, 40),
       st.integers(1, 5))
@example(None, {}, 3, 1)
@example(5, {}, 7, 1)
@example(None, {(0,): 4}, -2, 3)
@example(7, {(0,): -1}, 9, 1)
@example(None, {(30,): 1, (0,): 1}, 3, 2)
@example(3, {(30,): 1, (0,): 1}, -4, 1)
@example(13, {(30,): 1, (0,): 1}, 40, 1)
def test_univariate_evaluate_matches_term_by_term(p, terms, num, den):
    field = QQ if p is None else GF(p)
    if p is None:
        x, terms = Fraction(num, den), {e: Fraction(c, den) for e, c in terms.items()}
    else:
        x = num
    f = Poly(field, 1, terms)
    value = f.evaluate((x,))
    if p is None:
        assert isinstance(value, Fraction)
    else:
        assert value in range(p)
    assert value == _term_by_term(f.terms, x % p if p else x, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 13)),
       st.dictionaries(st.tuples(st.integers(0, 10 ** 15)), st.integers(1, 12), max_size=5),
       st.integers(-40, 40))
def test_sparse_huge_degree_evaluate_over_gf_p(p, terms, x):
    f = Poly(GF(p), 1, terms)
    assert f.evaluate((x,)) == _term_by_term(f.terms, x % p, p)


def test_sparse_huge_degree_evaluates_without_a_dense_list():
    # one dense coefficient per degree would need 10^12 entries here
    f = Poly(GF(5), 1, {(10 ** 12,): 1, (0,): 1})
    assert [f.evaluate((x,)) for x in range(5)] == [1, 2, 2, 2, 2]
    z = Poly(QQ, 1, {(10 ** 9,): 1})
    assert [z.evaluate((Fraction(x),)) for x in (1, 0, -1)] == [1, 0, 1]
    g = Poly(QQ, 1, {(10 ** 9,): Fraction(1), (10 ** 9 - 3,): Fraction(-2), (5,): Fraction(1)})
    assert g.evaluate((Fraction(1),)) == 0 and g.evaluate((Fraction(-1),)) == 2
    unit = IntegralConfig(Fraction(0), Fraction(1), upoly(1))
    assert exact_integral(z, unit) == Fraction(1, 10 ** 9 + 1)
    assert exact_integral(z, IntegralConfig(Fraction(-1), Fraction(1), upoly(1))) == Fraction(2, 10 ** 9 + 1)
    cfg = standard_eval_config(2, GF(5), [1, 1])
    assert nba_tau_member(f, cfg) and not nba_member(f, cfg)


def test_evaluate_keeps_its_validation():
    f = Poly.univariate(GF(5), [1, 2, 3])
    with pytest.raises(ValueError):
        f.evaluate((1, 2))
    with pytest.raises(ValueError):
        f.evaluate((Fraction(1, 2),))
    with pytest.raises(ValueError):
        upoly(1, 1).evaluate((1.5,))


# -- differential tests of the integer univariate kernel ----------------------------


def _naive_product(f: Poly, g: Poly) -> dict:
    """Term-by-term product with Fraction sums, reduced mod p at the end."""
    p = f.field.p
    acc: dict = {}
    for (i,), a in f.terms.items():
        for (j,), b in g.terms.items():
            acc[i + j] = acc.get(i + j, Fraction(0)) + Fraction(a) * Fraction(b)
    if p is not None:
        acc = {k: int(v) % p for k, v in acc.items()}
    return {(k,): v for k, v in acc.items() if v}


_Q_TERMS = st.dictionaries(st.tuples(st.integers(0, 12)),
                           st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)), max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((None, 2, 3, 5, 7, 11, 13)), _Q_TERMS, _Q_TERMS)
@example(None, {}, {(0,): Fraction(3)})
@example(2, {(1,): Fraction(1), (0,): Fraction(1)}, {(1,): Fraction(1), (0,): Fraction(1)})
@example(None, {(1,): Fraction(1), (0,): Fraction(1, 2)}, {(1,): Fraction(1), (0,): Fraction(-1, 2)})
@example(3, {(0,): Fraction(2)}, {(4,): Fraction(2), (0,): Fraction(1)})
def test_univariate_product_matches_naive_sum(p, f_terms, g_terms):
    field = QQ if p is None else GF(p)
    if p is not None:
        f_terms = {e: c.numerator for e, c in f_terms.items()}
        g_terms = {e: c.numerator for e, c in g_terms.items()}
    f, g = Poly(field, 1, f_terms), Poly(field, 1, g_terms)
    h = f * g
    assert h.terms == _naive_product(f, g)
    assert all(h.terms.values())
    assert h == g * f
    if p is None:
        assert all(type(c) is Fraction for c in h.terms.values())
    else:
        assert all(c in range(p) for c in h.terms.values())


def test_cancelling_univariate_product_over_gf2():
    one_plus_z = Poly(GF(2), 1, {(0,): 1, (1,): 1})
    assert (one_plus_z * one_plus_z).terms == {(0,): 1, (2,): 1}


_X = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@settings(max_examples=100, deadline=None)
@given(_Q_TERMS, _X)
@example({(3,): Fraction(2, 3), (1,): Fraction(-1, 4), (0,): Fraction(5, 6)}, Fraction(0))
@example({(3,): Fraction(2, 3), (1,): Fraction(-1, 4)}, Fraction(1))
@example({(3,): Fraction(2, 3), (1,): Fraction(-1, 4)}, Fraction(-1))
@example({(5,): Fraction(1, 7), (2,): Fraction(3, 2)}, Fraction(-7, 3))
@example({(0,): Fraction(-5, 4)}, Fraction(3, 8))
def test_rational_evaluate_matches_fraction_sum(terms, x):
    f = Poly(QQ, 1, terms)
    value = f.evaluate((x,))
    assert type(value) is Fraction
    assert value == sum((c * x ** e for (e,), c in f.terms.items()), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(_Q_TERMS, _Q_TERMS, _X, _X)
@example({(0,): Fraction(1)}, {(0,): Fraction(1)}, Fraction(0), Fraction(1))
@example({(2,): Fraction(1, 3)}, {(1,): Fraction(-2, 5)}, Fraction(-3, 2), Fraction(-1, 3))
def test_exact_integral_matches_double_sum(f_terms, q_terms, a, b):
    if a == b:
        b = a + 1
    f, q = Poly(QQ, 1, f_terms), Poly(QQ, 1, q_terms)
    value = exact_integral(f, IntegralConfig(a, b, q))
    assert type(value) is Fraction
    assert value == _double_sum_integral(f, q, a, b)


def test_sparse_huge_degree_products_stay_sparse():
    # a dense convolution would need a list of 2 * 10^12 coefficients here
    for field in (QQ, GF(7)):
        z12 = Poly(field, 1, {(10 ** 12,): 1})
        assert (z12 * z12).terms == {(2 * 10 ** 12,): field.one}
        z9_plus_1 = Poly(field, 1, {(10 ** 9,): 1, (0,): 1})
        square = z9_plus_1 * z9_plus_1
        assert square.terms == {(2 * 10 ** 9,): field.one, (10 ** 9,): field.from_int(2),
                                (0,): field.one}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_arithmetic_stores_no_zero_terms(field):
    f = Poly(field, 1, {(0,): 1, (1,): 1, (3,): 2})
    assert f.scale(0).terms == {}
    assert (f - f).terms == {}
    g = Poly(field, 1, {(0,): 1, (1,): -1})
    h = f * g
    assert all(h.terms.values())
    # (1 + z)(1 - z) = 1 - z^2: the z terms cancel
    assert (Poly(field, 1, {(0,): 1, (1,): 1}) * g).terms == {
        (0,): field.one, (2,): field.from_int(-1)}
    multi = Poly(field, 2, {(1, 0): 1, (0, 1): 1})
    assert (multi - multi).terms == {} and multi.scale(0).terms == {}


def test_scale_rejects_a_foreign_scalar():
    with pytest.raises(ValueError):
        upoly(1, 2).scale(0.5)
    with pytest.raises(ValueError):
        Poly(GF(3), 1, {(1,): 1}).scale(Fraction(1, 2))
    assert Poly(GF(3), 1, {(1,): 1}).scale(-1).terms == {(1,): 2}


@pytest.mark.parametrize("exp", [(1.5,), (1.0,), ("2",), (True,), (-1,), (1, 0), 1])
def test_exponents_must_be_tuples_of_nonnegative_ints(exp):
    with pytest.raises(ValueError):
        Poly(QQ, 1, {exp: 1})


# -- the storage form of a Poly against a coefficient-dict model ---------------------
#
# The model is a dict exponent tuple -> nonzero coefficient with naive arithmetic:
# `Fraction`s over Q (p is None), ints reduced mod p over GF(p).


def _field(p):
    return QQ if p is None else GF(p)


def _m_reduce(f: dict, p) -> dict:
    if p is not None:
        f = {k: v % p for k, v in f.items()}
    return {k: v for k, v in f.items() if v}


def _m_add(f: dict, g: dict, p) -> dict:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0) + v
    return _m_reduce(out, p)


def _m_neg(f: dict, p) -> dict:
    return _m_reduce({k: -v for k, v in f.items()}, p)


def _m_mul(f: dict, g: dict, p) -> dict:
    out: dict = {}
    for i, a in f.items():
        for j, b in g.items():
            k = tuple(x + y for x, y in zip(i, j))
            out[k] = out.get(k, 0) + a * b
    return _m_reduce(out, p)


def _m_scale(f: dict, c, p) -> dict:
    return _m_reduce({k: c * v for k, v in f.items()}, p)


def _m_eval(f: dict, point, p):
    total = Fraction(0)
    for exp, c in f.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= Fraction(x) ** e if p is None else pow(x, e, p)
        total += term
    return total if p is None else int(total) % p


def _m_integral(f: dict, q: dict, a: Fraction, b: Fraction) -> Fraction:
    return sum(((b ** (k + 1) - a ** (k + 1)) / (k + 1) * c
                for (k,), c in _m_mul(f, q, None).items()), Fraction(0))


def _m_json(c, p):
    if p is not None:
        return c
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


_PRIMES = (None, 2, 3, 5, 13)
# residues are drawn out of range too, so every route must reduce them
_RESIDUE = st.integers(-9, 20)
_COEF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
# small exponents, and huge ones whose dense coefficient list could not be built
_EXP = st.one_of(st.integers(0, 8), st.integers(10 ** 9, 10 ** 9 + 2))
_DENSE_CAP = 40
_OPS = {"+": (lambda f, g: f + g, _m_add),
        "-": (lambda f, g: f - g, lambda f, g, p: _m_add(f, _m_neg(g, p), p)),
        "*": (lambda f, g: f * g, _m_mul)}


def _coef(p):
    return _COEF if p is None else _RESIDUE


def _model(p, nvars: int):
    return st.dictionaries(st.tuples(*[_EXP] * nvars), _coef(p), max_size=5).map(
        lambda d: _m_reduce(d, p))


@st.composite
def _built_poly(draw, p, nvars: int, depth: int = 2):
    """(Poly, model) over GF(p) (Q when p is None) in nvars variables, with the
    Poly built by one route: `__init__` (with int and zero coefficients),
    `univariate` (one variable), `poly_from_json` (with split duplicate
    terms), `scale`, negation or the sum, difference or product of two built
    polynomials."""
    field = _field(p)
    routes = ["init", "json", *(["univariate"] if nvars == 1 else [])]
    if depth:
        routes += ["scale", "neg", *_OPS]
    route = draw(st.sampled_from(routes))
    if route in _OPS:
        (f, mf), (g, mg) = [draw(_built_poly(p, nvars, depth - 1)) for _ in range(2)]
        op, model_op = _OPS[route]
        return op(f, g), model_op(mf, mg, p)
    if route in ("scale", "neg"):
        f, mf = draw(_built_poly(p, nvars, depth - 1))
        if route == "neg":
            return -f, _m_neg(mf, p)
        c = draw(_coef(p))
        return f.scale(c), _m_scale(mf, c, p)
    model = draw(_model(p, nvars))
    top = max([e for k in model for e in k], default=-1)
    if route == "univariate" and top <= _DENSE_CAP:
        return Poly.univariate(field, [model.get((k,), 0) for k in range(top + 1)]), model
    if route == "json":
        terms = []
        for k, c in model.items():
            part = draw(_coef(p))
            terms += [{"exp": list(k), "coef": _m_json(c - part, p)},
                      {"exp": list(k), "coef": _m_json(part, p)}]
        return poly_from_json(field, {"vars": nvars, "terms": draw(st.permutations(terms))}), model
    terms = {k: int(c) if c.denominator == 1 else c for k, c in model.items()}
    terms[(draw(st.integers(9, 12)),) * nvars] = field.zero
    return Poly(field, nvars, terms), model


@st.composite
def _built_pairs(draw):
    """(p, nvars, (f, model), (g, model), c): two built polynomials over one
    field and arity, and a scalar of that field."""
    p, nvars = draw(st.sampled_from(_PRIMES)), draw(st.sampled_from((1, 2)))
    return (p, nvars, draw(_built_poly(p, nvars)), draw(_built_poly(p, nvars)),
            draw(_coef(p)))


def _assert_matches(poly: Poly, model: dict, p, nvars: int):
    field = _field(p)
    assert poly.terms == model
    assert all(type(c) is type(field.zero) for c in poly.terms.values())
    assert poly == Poly(field, nvars, model)
    assert hash(poly) == hash((field, nvars, frozenset(model.items())))
    assert poly_to_json(poly) == {"vars": nvars, "terms": [
        {"exp": list(k), "coef": _m_json(c, p)} for k, c in sorted(model.items())]}
    assert poly.is_zero() == (not model)
    assert poly.degree() == max(map(sum, model), default=None)
    if nvars == 1 and max(model, default=(0,))[0] <= _DENSE_CAP:
        assert poly.coeffs_univariate() == [
            model.get((k,), 0) for k in range(max(model, default=(-1,))[0] + 1)]
    # the storage form: integer numerators keyed by exponent (an int in one
    # variable) over D.  Over GF(p) D = 1 and the numerators are residues;
    # over Q D is the lcm of the reduced denominators, so no factor is
    # shared by D and every numerator
    den, numerators = poly._denominator, poly._numerators
    keyed = {(k[0] if nvars == 1 else k): c for k, c in model.items()}
    assert all(type(n) is int for n in numerators.values())
    if p is not None:
        assert den == 1 and numerators == keyed
        assert all(0 < n < p for n in numerators.values())
    else:
        assert den == math.lcm(*(c.denominator for c in model.values()))
        assert numerators == {k: c.numerator * (den // c.denominator) for k, c in keyed.items()}
        assert math.gcd(den, *numerators.values()) == 1


def _given(p, nvars: int, model: dict) -> tuple:
    return Poly(_field(p), nvars, model), model


_ONE_PLUS_Z = _given(None, 1, {(0,): Fraction(1), (1,): Fraction(1)})
_ONE_MINUS_Z = (Poly.univariate(QQ, [1, -1]), {(0,): Fraction(1), (1,): Fraction(-1)})
_HALF_Z = _given(None, 1, {(1,): Fraction(1, 2)})


@settings(max_examples=300, deadline=None)
@given(_built_pairs(), st.data())
@example((None, 1, _ONE_PLUS_Z, _ONE_MINUS_Z, Fraction(2)), None)
@example((None, 1, _HALF_Z, _given(None, 1, {(0,): Fraction(2)}), Fraction(1, 2)), None)
@example((None, 1, _HALF_Z, _HALF_Z, Fraction(0)), None)
@example((None, 1, _given(None, 1, {(10 ** 9,): Fraction(1, 3), (0,): Fraction(1, 6)}),
          _given(None, 1, {(10 ** 9,): Fraction(3), (0,): Fraction(-3, 2)}), Fraction(-5, 4)),
         None)
@example((2, 1, _given(2, 1, {(0,): 1, (1,): 1}), _given(2, 1, {(0,): 1, (1,): 1}), 3), None)
@example((5, 2, _given(5, 2, {(1, 0): 2, (0, 1): 3}), _given(5, 2, {(1, 0): 3, (0, 2): 2}), 10),
         None)
@example((None, 2, _given(None, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 4)}),
          _given(None, 2, {(1, 0): Fraction(-1, 2), (0, 0): Fraction(1, 6)}), Fraction(4)), None)
def test_cleared_form_matches_the_fraction_dict_model(case, data):
    p, nvars, (f, mf), (g, mg), c = case
    for poly, model in [(f, mf), (g, mg), (f + g, _m_add(mf, mg, p)),
                        (f - g, _m_add(mf, _m_neg(mg, p), p)), (-f, _m_neg(mf, p)),
                        (f * g, _m_mul(mf, mg, p)), (g * f, _m_mul(mf, mg, p)),
                        (f.scale(c), _m_scale(mf, c, p))]:
        _assert_matches(poly, model, p, nvars)
    assert (f == g) == (mf == mg)
    field = _field(p)
    if p is not None:
        scalars = _RESIDUE
    elif max([e for k in [*mf, *mg] for e in k], default=0) <= _DENSE_CAP:
        scalars = _X
    else:  # a huge power is exact only at -1, 0 and 1
        scalars = st.sampled_from([Fraction(t) for t in (-1, 0, 1)])
    if data is None:
        point, a, b = (field.from_int(-1),) * nvars, field.zero, field.one
    else:
        point = tuple(data.draw(scalars) for _ in range(nvars))
        a, b = data.draw(scalars), data.draw(scalars)
    value = f.evaluate(point)
    assert type(value) is type(field.zero) and value == _m_eval(mf, point, p)
    if p is None and nvars == 1 and a != b:
        assert exact_integral(f, IntegralConfig(a, b, g)) == _m_integral(mf, mg, a, b)


@pytest.mark.parametrize("field, nvars", [(GF(5), 1), (QQ, 1), (GF(5), 2), (QQ, 2)],
                         ids=["GF5-1var", "Q-1var", "GF5-2vars", "Q-2vars"])
def test_writing_to_terms_leaves_the_polynomial_alone(field, nvars):
    terms = {(1,) * nvars: 1, (0,) * nvars: 3}
    p = Poly(field, nvars, terms)
    p.terms[(0,) * nvars] = field.zero
    p.terms[(2,) * nvars] = field.one
    del p.terms[(1,) * nvars]
    assert p == Poly(field, nvars, terms)
    assert p.terms == Poly(field, nvars, terms).terms


def test_chained_products_keep_the_denominator_at_the_lcm():
    cfg = standard_eval_config(9, QQ, [1] * 9)
    for i in range(9):
        e = indicator_poly(cfg, i)
        den = math.lcm(*(c.denominator for c in e.terms.values()))
        assert e._denominator == den
        assert [e.evaluate((Fraction(t),)) for t in range(9)] == [int(t == i) for t in range(9)]
    # (z/2 + 1/2)^k (2z - 2)^k = (z^2 - 1)^k: the factor denominators 2^k cancel
    h = expected = upoly(1)
    for _ in range(7):
        h = h * upoly(Fraction(1, 2), Fraction(1, 2)) * upoly(-2, 2)
        expected = expected * upoly(-1, 0, 1)
        assert h._denominator == 1 and h == expected


# -- differential tests of the four nba_* predicates ---------------------------------


def _reference_value(terms: dict, point, p):
    """f(u) term by term with one Fraction per operation, reduced mod p at
    the end over GF(p)."""
    value = Fraction(0)
    for exp, c in terms.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= Fraction(x) ** e if p is None else pow(x, e, p)
        value += term
    return value if p is None else int(value) % p


def _reference_twist(f: Poly, cfg: EvalConfig) -> list:
    """w_i * f(u_i) for each point, one reference evaluation per point."""
    p = cfg.field.p
    return [Fraction(w) * _reference_value(f.terms, point, p) if p is None
            else w * _reference_value(f.terms, point, p) % p
            for w, point in zip(cfg.weights, cfg.points)]


@st.composite
def _nba_cases(draw):
    p = draw(st.sampled_from((None, 2, 3, 5, 7, 13)))
    nvars = draw(st.sampled_from((1, 2)))
    if p is None:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalar = st.integers(0, p - 1)
    points = draw(st.lists(st.tuples(*[scalar] * nvars), unique=True, max_size=6))
    weights = draw(st.lists(scalar, min_size=len(points), max_size=len(points)))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 12)] * nvars), scalar, max_size=5))
    if points and draw(st.booleans()):
        # plant a member: the last weight cancels the weighted sum of the others
        *values, last = [_reference_value(terms, point, p) for point in points]
        if last:
            rest = sum(w * v for w, v in zip(weights, values))
            weights[-1] = -rest / last if p is None else -rest * pow(last, p - 2, p) % p
    return p, nvars, points, weights, terms


_F = Fraction


@settings(max_examples=200, deadline=None)
@given(_nba_cases())
@example((None, 1, [], [], {(2,): _F(1)}))
@example((None, 2, [], [], {(1, 0): _F(1)}))
@example((5, 1, [], [], {}))
@example((None, 1, [(_F(0),), (_F(1),), (_F(-2, 3),)], [_F(1), _F(-1), _F(0)], {}))
@example((None, 1, [(_F(0),), (_F(1),)], [_F(0), _F(0)], {(3,): _F(1, 2)}))
@example((7, 2, [(0, 1), (1, 0), (3, 3)], [0, 0, 0], {(1, 1): 3}))
@example((None, 1, [(_F(1),), (_F(-1),)], [_F(1), _F(1)], {(1,): _F(1)}))
@example((None, 1, [(_F(1, 2),), (_F(-1, 3),), (_F(2),)], [_F(3, 4), _F(-2), _F(1, 6)],
          {(4,): _F(-1, 3), (1,): _F(5, 2), (0,): _F(1, 7)}))
@example((None, 2, [(_F(0), _F(1)), (_F(1, 2), _F(-1))], [_F(1), _F(2)],
          {(2, 1): _F(1, 3), (0, 0): _F(-1)}))
@example((None, 1, [(_F(1),), (_F(2),)], [_F(1), _F(-1, 2)], {(1,): _F(1)}))
@example((3, 1, [(0,), (1,), (2,)], [1, 1, 1], {(0,): 1}))
@example((5, 1, [(0,), (1,), (2,), (3,), (4,)], [1, 2, 3, 4, 1], {(10 ** 12,): 1, (0,): 1}))
@example((13, 1, [(2,), (5,), (12,)], [1, 1, 11], {(10 ** 12 + 1,): 3}))
def test_nba_predicates_match_the_per_point_reference(case):
    p, nvars, points, weights, terms = case
    field = QQ if p is None else GF(p)
    cfg = EvalConfig(field, tuple(points), tuple(weights))
    f = Poly(field, nvars, terms)
    predicates = (alpha_f_B, nba_member, nba_sigma_member, nba_tau_member)
    if nvars != cfg.nvars:
        for predicate in predicates:
            with pytest.raises(ValueError, match="does not match the configuration"):
                predicate(f, cfg)
        return
    twist = _reference_twist(f, cfg)
    alpha = alpha_f_B(f, cfg)
    assert list(alpha) == twist
    assert all(type(v) is Fraction if p is None else v in range(p) for v in alpha)
    assert nba_member(f, cfg) == (sum(twist) % p == 0 if p else sum(twist) == 0)
    assert nba_sigma_member(f, cfg) == (sum(1 for v in twist if v) <= 1)
    if p is None:
        assert nba_tau_member(f, cfg) == _subset_sums_nonzero(twist)
    else:
        assert nba_tau_member(f, cfg) == _naive_omega_mod(twist, p)


def test_nba_tau_member_keeps_the_support_cap():
    # z^2 + 1 has no root in Q or in GF(23) (23 = 3 mod 4), so every twisted
    # weight is nonzero
    for field in (QQ, GF(23)):
        f = Poly(field, 1, {(2,): 1, (0,): 1})
        cfg = standard_eval_config(MAX_SUPPORT + 1, field, [1] * (MAX_SUPPORT + 1))
        with pytest.raises(SupportCapExceeded):
            nba_tau_member(f, cfg)
    # at the cap the scan runs: positive twisted weights have no zero sum
    assert nba_tau_member(upoly(1, 0, 1), standard_eval_config(MAX_SUPPORT, QQ, [1] * MAX_SUPPORT))


def test_nba_predicates_reject_a_mismatched_polynomial():
    cfg = standard_eval_config(2, GF(5), [1, 1])
    mismatched = (Poly(QQ, 1, {(0,): 1}), Poly(GF(7), 1, {(0,): 1}),
                  Poly(GF(5), 2, {(0, 0): 1}))
    for f in mismatched:
        for predicate in (alpha_f_B, nba_member, nba_sigma_member, nba_tau_member):
            with pytest.raises(ValueError, match="polynomial does not match the configuration"):
                predicate(f, cfg)
    empty = EvalConfig(QQ, (), ())
    assert nba_member(upoly(1), empty)
    with pytest.raises(ValueError, match="polynomial does not match the configuration"):
        nba_member(Poly(QQ, 2, {(1, 1): 1}), empty)


def test_univariate_nba_member_over_q_clears_nothing_and_never_calls_evaluate(monkeypatch):
    # f, g and the twisted configuration are built first: the predicates and
    # the product g*f work on the cleared forms and clear no denominators
    cfg = qq_config([0, 1, -2, 3], [1, Fraction(1, 2), Fraction(-2, 3), 3])
    f = upoly(Fraction(1, 3), 2, 0, Fraction(-5, 7))
    g = upoly(Fraction(-3, 4), 0, Fraction(5, 6))
    twisted = EvalConfig(QQ, cfg.points, alpha_f_B(f, cfg))
    calls = {"evaluate": 0, "_cleared": 0, "omega_member": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Poly, "evaluate", counted("evaluate", Poly.evaluate))
    monkeypatch.setattr(polyspaces, "_cleared", counted("_cleared", polyspaces._cleared))
    monkeypatch.setattr(polyspaces, "omega_member",
                        counted("omega_member", polyspaces.omega_member))
    assert nba_member(f, cfg) == (sum(_reference_twist(f, cfg)) == 0)
    colon = nba_member(g * f, cfg)
    assert colon == nba_member(g, twisted) == (sum(_reference_twist(g * f, cfg)) == 0)
    assert calls == {"evaluate": 0, "_cleared": 0, "omega_member": 0}
    # the tau predicate reaches omega_member through the module global
    nba_tau_member(f, cfg)
    assert calls["evaluate"] == 0 and calls["omega_member"] == 1
