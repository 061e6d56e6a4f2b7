import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieuspaces.algebras import (
    BUILDERS,
    THETAS,
    Algebra,
    AlgebraAxiomError,
    field_algebra,
    ideal_violation_witness,
    matrix_algebra,
    opposite,
    product_algebra,
    quotient_algebra,
    truncated_poly,
    upper_triangular,
)
from mathieuspaces.fields import GF, QQ
from mathieuspaces.linalg import Subspace, enumerate_subspaces

M2F2 = matrix_algebra(2, 2)
E11, E12, E21, E22 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def brute_matmul2(p, a, b):
    """Independent 2x2 product on row-major 4-tuples."""
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def test_matrix_unit_products():
    assert M2F2.multiply(E11, E12) == E12
    assert M2F2.multiply(E12, E11) == (0, 0, 0, 0)
    assert M2F2.multiply(E12, E21) == E11


def test_multiply_agrees_with_flat_matmul():
    rng = random.Random(4)
    a5 = matrix_algebra(2, 5)
    for _ in range(50):
        a = tuple(rng.randrange(5) for _ in range(4))
        b = tuple(rng.randrange(5) for _ in range(4))
        assert a5.multiply(a, b) == brute_matmul2(5, a, b)


def test_unit_acts_trivially():
    rng = random.Random(7)
    for algebra in (M2F2, truncated_poly(3, 3), upper_triangular(2, 2)):
        for _ in range(10):
            a = tuple(rng.randrange(algebra.field.p) for _ in range(algebra.dim))
            assert algebra.multiply(algebra.unit, a) == a
            assert algebra.multiply(a, algebra.unit) == a


def test_componentwise_product():
    split = product_algebra(2, 2)
    assert split.multiply((1, 0), (0, 1)) == (0, 0)
    assert split.unit == (1, 1)
    assert split.dim == 2


def test_power_trajectory_nilpotent():
    t = truncated_poly(2, 2)
    traj = t.power_trajectory((0, 1))  # x with x^2 = 0
    assert traj.tail == ((0, 1),)
    assert traj.cycle == ((0, 0),)


def test_power_trajectory_idempotent():
    traj = M2F2.power_trajectory(E11)
    assert traj.tail == ()
    assert traj.cycle == (E11,)


def test_power_trajectory_order_two_unit():
    one_dim = field_algebra(3)
    traj = one_dim.power_trajectory((2,))  # 2^2 = 1, 2^3 = 2
    assert traj.tail == ()
    assert traj.cycle == ((2,), (1,))


def test_power_accessor_on_the_algebra():
    t = truncated_poly(3, 2)
    x = (0, 1, 0)
    assert t.power(x, 1) == x
    assert t.power(x, 2) == (0, 0, 1)
    assert t.power(x, 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        t.power(x, 0)


def test_power_trajectory_rejects_rationals():
    a = matrix_algebra(2, QQ)
    with pytest.raises(ValueError):
        a.power_trajectory(a.unit)


def test_trajectory_indices_match_power_trajectory_and_need_a_table():
    algebra = matrix_algebra(2, 3)
    for idx in range(algebra.element_count()):
        traj = algebra.power_trajectory(algebra.vector_at(idx))
        assert algebra.trajectory_indices(idx) == (
            tuple(map(algebra.index_of, traj.tail)), tuple(map(algebra.index_of, traj.cycle)))
    # 3125 elements, over TABLE_MAX_ELEMENTS, and over Q: no table, no indices
    for no_table in (truncated_poly(5, 5), matrix_algebra(2, QQ)):
        assert no_table.mult_table() is None
        with pytest.raises(ValueError, match="no multiplication table"):
            no_table.trajectory_indices(1)


def test_element_count_is_the_one_cap_refusal():
    from mathieuspaces.linalg import EnumerationCapExceeded

    algebra = matrix_algebra(2, 3)
    assert algebra.element_count() == algebra.element_count(81) == 81
    with pytest.raises(EnumerationCapExceeded) as err:
        algebra.element_count(80)
    assert (err.value.count, err.value.cap) == (81, 80)
    rational = matrix_algebra(2, QQ)
    for refuse in (rational.element_count, rational.element_list, rational.idempotents):
        with pytest.raises(ValueError, match="finite field"):
            refuse()


def test_trajectory_cycle_rotates_under_multiplication():
    rng = random.Random(11)
    algebra = matrix_algebra(2, 3)
    for _ in range(30):
        a = tuple(rng.randrange(3) for _ in range(4))
        traj = algebra.power_trajectory(a)
        cyc = list(traj.cycle)
        for i, x in enumerate(cyc):
            assert algebra.multiply(x, a) == cyc[(i + 1) % len(cyc)]


def test_power_accessor_matches_repeated_multiplication():
    algebra = matrix_algebra(2, 3)
    a = (1, 2, 0, 1)
    traj = algebra.power_trajectory(a)
    x = a
    for m in range(1, 12):
        assert traj.power(m) == x
        x = algebra.multiply(x, a)


def test_idempotents_one_dimensional():
    assert field_algebra(5).idempotents() == ((0,), (1,))


def test_idempotents_split_pair():
    assert set(product_algebra(2, 2).idempotents()) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_idempotents_matrix_algebra_against_flat_oracle():
    oracle = {m for m in itertools.product(range(2), repeat=4)
              if brute_matmul2(2, m, m) == m}
    assert len(oracle) == 8
    assert set(M2F2.idempotents()) == oracle


def test_idempotent_count_of_componentwise_products():
    for length, p in ((2, 2), (3, 2), (2, 3)):
        assert len(product_algebra(length, p).idempotents()) == 2 ** length


def test_idempotents_contain_zero_and_unit():
    for algebra in (M2F2, truncated_poly(3, 2), upper_triangular(2, 2)):
        idem = set(algebra.idempotents())
        assert algebra.zero() in idem
        assert algebra.unit in idem


def test_nilpotency():
    assert M2F2.is_nilpotent((0, 0, 0, 0))
    assert truncated_poly(2, 2).is_nilpotent((0, 1))
    assert not matrix_algebra(2, 3).is_nilpotent(matrix_algebra(2, 3).unit)
    # nilpotency is decidable over the rationals via bounded powers
    assert matrix_algebra(2, QQ).is_nilpotent((0, 1, 0, 0))


def test_nil_set():
    t = truncated_poly(2, 2)
    assert set(t.nil_set()) == {(0, 0), (0, 1)}


def test_generated_ideal_of_zero():
    for theta in ("left", "right", "pre", "two"):
        assert M2F2.theta_ideal_generated((0, 0, 0, 0), theta).dim == 0


def test_left_ideal_of_corner_unit():
    # all products Y * E11 have zero second column
    left = M2F2.theta_ideal_generated(E11, "left")
    assert left.dim == 2
    for y in itertools.product(range(2), repeat=4):
        prod = brute_matmul2(2, y, E11)
        assert left.contains(prod)
        assert prod[1] == prod[3] == 0


def test_two_sided_ideal_of_corner_unit_is_everything():
    assert M2F2.theta_ideal_generated(E11, "two").is_full()


def test_pre_two_sided_ideal_is_sum_of_both_sides():
    got = M2F2.theta_ideal_generated(E11, "pre")
    rows = [brute_matmul2(2, y, E11) for y in itertools.product(range(2), repeat=4)]
    rows += [brute_matmul2(2, E11, y) for y in itertools.product(range(2), repeat=4)]
    assert got == Subspace(GF(2), 4, rows)


def test_radical_of_full_space_is_everything():
    full = Subspace.full(GF(2), 4)
    assert len(M2F2.radical_of_subspace(full)) == 16


def test_radical_of_zero_is_the_nilpotents():
    t = truncated_poly(2, 2)
    zero = Subspace.zero(GF(2), 2)
    assert set(t.radical_of_subspace(zero)) == {(0, 0), (0, 1)}


def test_radical_of_nilpotent_line():
    t = truncated_poly(2, 2)
    j = Subspace(GF(2), 2, [(0, 1)])
    assert set(t.radical_of_subspace(j)) == {(0, 0), (0, 1)}


def test_nilpotents_lie_in_every_radical():
    t = upper_triangular(2, 2)
    nil = set(t.nil_set())
    for j in enumerate_subspaces(GF(2), t.dim):
        assert nil <= set(t.radical_of_subspace(j))


def test_matrix_algebra_shape():
    assert M2F2.dim == 4
    assert M2F2.unit == (1, 0, 0, 1)


def test_quotient_of_truncated_matches_smaller_truncation():
    big = truncated_poly(3, 2)
    ideal = Subspace(GF(2), 3, [(0, 0, 1)])  # multiples of x^2
    quot, proj = quotient_algebra(big, ideal)
    small = truncated_poly(2, 2)
    assert quot.dim == 2
    assert quot.structure == small.structure
    assert quot.unit == small.unit
    assert proj == ((1, 0, 0), (0, 1, 0))


def test_quotient_projection_holds_canonical_residues():
    # GF(3)[x]/(x^2 - 1) modulo the ideal (x - 1): x maps to 1, and the
    # projection row of the free coordinate x is (-2, 1) = (1, 1) mod 3
    alg = Algebra(GF(3), [[(1, 0), (0, 1)], [(0, 1), (1, 0)]], (1, 0))
    quot, proj = quotient_algebra(alg, Subspace(GF(3), 2, [(2, 1)]))
    assert proj == ((1, 1),)
    assert (quot.structure, quot.unit) == ((((1,),),), (1,))


def test_quotient_rejects_non_ideals():
    # the first column is a left ideal only, the first row a right ideal only
    for rows in ([E11], [E11, E21], [E11, E12]):
        j = Subspace(GF(2), 4, rows)
        with pytest.raises(ValueError, match="two-sided ideal"):
            quotient_algebra(M2F2, j)


def test_opposite_is_an_involution():
    for algebra in (M2F2, upper_triangular(2, 2), truncated_poly(3, 2)):
        opp = opposite(opposite(algebra))
        assert opp.structure == algebra.structure
        assert opp.unit == algebra.unit


def test_opposite_swaps_products():
    opp = opposite(M2F2)
    assert opp.multiply(E11, E12) == M2F2.multiply(E12, E11)
    assert opp.multiply(E12, E21) == M2F2.multiply(E21, E12)


def test_nonassociative_structure_rejected_with_triple():
    bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # e_0*e_0 = e_1, rest zero: no unit
    with pytest.raises(AlgebraAxiomError):
        Algebra(GF(2), bad, [1, 0])
    # perturb one constant of a valid algebra to break associativity
    t = truncated_poly(3, 2)
    structure = [list(list(cell) for cell in row) for row in t.structure]
    structure[1][2] = [1, 0, 0]  # x * x^2 should be 0, force it to 1
    with pytest.raises(AlgebraAxiomError) as err:
        Algebra(GF(2), structure, t.unit)
    assert "triple" in str(err.value) or "unit" in str(err.value)


def test_validation_can_be_disabled_explicitly():
    bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    a = Algebra(GF(2), bad, [1, 0], check=False)
    assert a.dim == 2


def test_builders_validate_on_construction():
    # constructors run the axiom checks; reaching here means they passed
    for algebra in (matrix_algebra(3, 2), product_algebra(3, 3), truncated_poly(4, 2),
                    upper_triangular(3, 2), field_algebra(7), matrix_algebra(2, QQ)):
        assert algebra.multiply(algebra.unit, algebra.unit) == algebra.unit


_vec3 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)


@settings(max_examples=60, deadline=None)
@given(_vec3, _vec3, _vec3)
def test_product_is_bilinear_and_associative(a, b, c):
    algebra = truncated_poly(3, 3)
    f = algebra.field
    summed = tuple(f.add(x, y) for x, y in zip(b, c))
    lhs = algebra.multiply(a, summed)
    rhs = tuple(f.add(x, y) for x, y in zip(algebra.multiply(a, b), algebra.multiply(a, c)))
    assert lhs == rhs
    assert algebra.multiply(algebra.multiply(a, b), c) == \
        algebra.multiply(a, algebra.multiply(b, c))


@settings(max_examples=40, deadline=None)
@given(_vec3)
def test_generated_ideals_absorb_their_generator(a):
    algebra = upper_triangular(2, 2)
    a = tuple(x % 2 for x in a)
    for theta in ("left", "right", "pre", "two"):
        span = algebra.theta_ideal_generated(a, theta)
        assert span.contains(a)


def test_mult_table_matches_direct_products():
    algebra = truncated_poly(2, 3)
    table = algebra.mult_table()
    elems = algebra.element_list()
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert elems[table[i][j]] == algebra.multiply(a, b)


def _naive_table(algebra):
    """The per-pair table: one product and one index per pair (a, b)."""
    elems = algebra.element_list()
    return [[algebra.index_of(algebra.multiply(a, b)) for b in elems] for a in elems]


TABLE_ZOO = [
    field_algebra(2),
    field_algebra(7),
    product_algebra(2, 3),
    product_algebra(3, 5),
    product_algebra(5, 3),
    truncated_poly(3, 2),
    truncated_poly(4, 3),
    upper_triangular(2, 3),
    upper_triangular(3, 2),
    matrix_algebra(2, 2),
    matrix_algebra(2, 3),
    opposite(upper_triangular(3, 2)),
    opposite(upper_triangular(2, 5)),
    quotient_algebra(truncated_poly(4, 3), Subspace(GF(3), 4, [(0, 0, 1, 0), (0, 0, 0, 1)]))[0],
    quotient_algebra(upper_triangular(3, 2),
                     Subspace(GF(2), 6, [(0, 0, 1, 0, 0, 0)]))[0],
]


@pytest.mark.parametrize("algebra", TABLE_ZOO, ids=lambda a: a.name)
def test_mult_table_equals_the_per_pair_table(algebra):
    assert algebra.element_count() <= 729
    assert algebra.mult_table() == _naive_table(algebra)


def test_mult_table_build_multiplies_count_times_dim(monkeypatch):
    algebra = matrix_algebra(2, 5)
    calls = 0
    multiply = algebra.multiply

    def counting(a, b):
        nonlocal calls
        calls += 1
        return multiply(a, b)

    monkeypatch.setattr(algebra, "multiply", counting)
    table = algebra.mult_table()
    assert calls <= algebra.element_count() * algebra.dim == 2500
    assert table[algebra.index_of((1, 2, 3, 4))][algebra.index_of((0, 1, 1, 0))] \
        == algebra.index_of((2, 1, 4, 3))


def test_mult_table_at_the_top_of_its_range():
    algebra = product_algebra(11, 2)
    count = algebra.element_count()
    assert count == 2048
    table = algebra.mult_table()
    elems = algebra.element_list()
    unit, last = algebra.index_of(algebra.unit), count - 1
    for i in {0, unit, last}:  # the unit of GF(2)^11 is the last element
        assert table[i] == [algebra.index_of(algebra.multiply(elems[i], b)) for b in elems]
    rng = random.Random(11)
    for _ in range(2000):
        i, j = rng.randrange(count), rng.randrange(count)
        assert table[i][j] == algebra.index_of(algebra.multiply(elems[i], elems[j]))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_full_subspace_is_an_ideal_without_a_product(kind, monkeypatch):
    build, size = BUILDERS[kind]
    for p in (2, 3):
        algebra = build(2, p) if size else build(p)
        calls = []
        multiply = algebra.multiply
        monkeypatch.setattr(algebra, "multiply",
                            lambda a, b: calls.append(1) or multiply(a, b))
        for theta in THETAS:
            assert ideal_violation_witness(
                algebra, Subspace.full(algebra.field, algebra.dim), theta) is None
        assert not calls
