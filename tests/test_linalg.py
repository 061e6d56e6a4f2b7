import inspect
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathieuspaces.fields import GF, QQ
from mathieuspaces.linalg import (
    BoundedMemo,
    EnumerationCapExceeded,
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
    gaussian_binomial,
    mat_mul,
    mat_vec,
    preimage_subspace,
    rref,
    rref_rows,
    solve_right_kernel,
    subspace_count,
    subspace_intersect,
    subspace_sum,
)

F2, F3 = GF(2), GF(3)


def test_rref_identity_case():
    s, rank = rref(F2, [(1, 0), (0, 1)])
    assert rank == 2
    assert s.basis == ((1, 0), (0, 1))


def test_rref_zero_case():
    s, rank = rref(F2, [(0, 0), (0, 0)])
    assert rank == 0
    assert s.basis == ()


def test_rref_dependent_rows():
    # hand row-reduction: both rows are (1,1), so rank 1 with basis (1,1)
    s, rank = rref(F2, [(1, 1), (1, 1)])
    assert rank == 1
    assert s.basis == ((1, 1),)


def test_rref_rational():
    s, rank = rref(QQ, [(Fraction(2), Fraction(4)), (Fraction(1), Fraction(3))])
    assert rank == 2
    assert s.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_kernel_identity_is_zero():
    k = solve_right_kernel(F2, [(1, 0), (0, 1)], 2)
    assert k.dim == 0


def test_kernel_zero_matrix_is_full():
    k = solve_right_kernel(F2, [(0, 0), (0, 0)], 2)
    assert k.dim == 2


def test_kernel_single_relation_mod_three():
    # x + y = 0 mod 3 has solution line spanned by (1, 2)
    k = solve_right_kernel(F3, [(1, 1)], 2)
    assert k.basis == ((1, 2),)


def test_sum_with_zero_is_identity():
    u = Subspace(F2, 2, [(1, 0)])
    z = Subspace.zero(F2, 2)
    assert subspace_sum(u, z) == u


def test_intersection_of_axes_is_zero():
    u = Subspace(F2, 2, [(1, 0)])
    v = Subspace(F2, 2, [(0, 1)])
    assert subspace_intersect(u, v).dim == 0


def test_sum_of_two_lines_spans_plane():
    # stacked basis has rank 2
    u = Subspace(F2, 2, [(1, 0)])
    v = Subspace(F2, 2, [(1, 1)])
    assert subspace_sum(u, v).is_full()


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        subspace_sum(Subspace(F2, 2, [(1, 0)]), Subspace(F2, 3, [(1, 0, 0)]))


def _random_subspace_strategy(p, dim, max_rows):
    scalars = st.integers(min_value=0, max_value=p - 1)
    row = st.tuples(*[scalars] * dim)
    return st.lists(row, min_size=0, max_size=max_rows).map(
        lambda rows: Subspace(GF(p), dim, rows))


@settings(max_examples=60, deadline=None)
@given(_random_subspace_strategy(3, 4, 4))
def test_rref_is_idempotent(s):
    again = Subspace(s.field, s.ambient_dim, s.basis)
    assert again == s
    assert again.basis == s.basis


@settings(max_examples=60, deadline=None)
@given(_random_subspace_strategy(2, 4, 3), _random_subspace_strategy(2, 4, 3))
def test_dimension_formula(u, v):
    total = subspace_sum(u, v)
    meet = subspace_intersect(u, v)
    assert total.dim + meet.dim == u.dim + v.dim
    assert total.contains_subspace(u)
    assert u.contains_subspace(meet)


@settings(max_examples=40, deadline=None)
@given(_random_subspace_strategy(3, 3, 3), _random_subspace_strategy(3, 3, 3))
def test_equality_agrees_with_mutual_membership(u, v):
    mutual = (all(u.contains(row) for row in v.basis)
              and all(v.contains(row) for row in u.basis))
    assert (u == v) == mutual


def test_enumerate_vectors_dim1():
    assert list(enumerate_vectors(F2, 1)) == [(0,), (1,)]


def test_enumerate_vectors_dim2_count():
    assert len(list(enumerate_vectors(F2, 2))) == 4


def test_enumerate_vectors_lexicographic_endpoints():
    vs = list(enumerate_vectors(F3, 3))
    assert len(vs) == 27
    assert vs[0] == (0, 0, 0)
    assert vs[-1] == (2, 2, 2)
    assert vs == sorted(vs)


def test_enumeration_cap_is_explicit():
    with pytest.raises(EnumerationCapExceeded) as err:
        list(enumerate_vectors(F2, 30, cap=1000))
    assert err.value.count == 2 ** 30


def test_subspace_counts_match_gaussian_binomials():
    # 1 + 3 + 1 lines/planes in F_2^2; 1 + 7 + 7 + 1 in F_2^3
    assert subspace_count(2, 2) == 5
    assert subspace_count(1, 3) == 2
    assert subspace_count(3, 2) == 16
    assert gaussian_binomial(4, 2, 3) == 130


@pytest.mark.parametrize("dim,p", [(2, 2), (3, 2), (2, 3)])
def test_enumerate_subspaces_distinct_and_complete(dim, p):
    fld = GF(p)
    seen = list(enumerate_subspaces(fld, dim))
    assert len(seen) == subspace_count(dim, p)
    assert len({s.basis for s in seen}) == len(seen)
    for s in seen:
        # canonical: re-normalizing must not change the basis
        assert Subspace(fld, dim, s.basis).basis == s.basis


def test_preimage_subspace():
    # map (x, y) -> (x + y) into the zero subspace of F_2^1
    target = Subspace.zero(F2, 1)
    pre = preimage_subspace(F2, [(1, 1)], target, 2)
    assert pre.basis == ((1, 1),)
    full = preimage_subspace(F2, [(1, 1)], Subspace.full(F2, 1), 2)
    assert full.is_full()


def test_reduce_returns_canonical_residues():
    # (0, 5) is zero in GF(5); a residue left at 5 or 7 would miss that
    line = Subspace(GF(5), 2, [(1, 0)])
    assert line.contains((0, 5))
    assert line.contains((12, -10))
    assert line.reduce((0, 7)) == (0, 2)
    assert line.reduce((6, -1)) == (0, 4)
    assert not line.contains((0, 7))


# -- GF(p) integer path against a naive Gauss-Jordan on Field methods ------------


def naive_rref(field, rows):
    """Gauss-Jordan with one Field method call per scalar operation."""
    work = [[field.check_scalar(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots, r = [], 0
    for c in range(ncols):
        found = next((i for i in range(r, len(work)) if work[i][c] != field.zero), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != field.zero:
                f = work[i][c]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work[:r]], pivots


def naive_kernel(field, rows, ncols):
    reduced, pivots = naive_rref(field, rows)
    gens = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, piv in zip(reduced, pivots):
            v[piv] = field.neg(row[fc])
        gens.append(v)
    return naive_rref(field, gens)[0]


def naive_reduce(field, basis, pivots, v):
    w = [field.check_scalar(x) for x in v]
    for row, piv in zip(basis, pivots):
        f = w[piv]
        w = [field.sub(x, field.mul(f, y)) for x, y in zip(w, row)]
    return tuple(w)


def naive_intersect(field, u_basis, v_basis, n):
    k = len(u_basis)
    stacked = [[u_basis[i][c] for i in range(k)] + [field.neg(row[c]) for row in v_basis]
               for c in range(n)]
    gens = []
    for coeff in naive_kernel(field, stacked, k + len(v_basis)):
        w = [field.zero] * n
        for c, row in zip(coeff[:k], u_basis):
            w = [field.add(x, field.mul(c, y)) for x, y in zip(w, row)]
        gens.append(w)
    return naive_rref(field, gens)[0]


def _entries(field):
    """Ints, most of them outside range(p), over GF(p); ints and Fractions over Q."""
    if field.p is None:
        return st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=5))
    return st.integers(-3 * field.p, 3 * field.p)


def _canonical(field, row):
    """Every entry a residue in range(p) over GF(p), or a Fraction over Q."""
    if field.p is None:
        return all(isinstance(x, Fraction) for x in row)
    return all(x in range(field.p) for x in row)


@st.composite
def _int_matrix(draw):
    """A field (a small prime or Q), a width, and rows of `_entries`."""
    field = draw(st.sampled_from((GF(2), GF(3), GF(5), GF(7), QQ)))
    ncols = draw(st.integers(1, 6))
    entries = _entries(field)
    rows = draw(st.lists(st.tuples(*[entries] * ncols), max_size=6))
    return field, ncols, rows


@settings(max_examples=200, deadline=None)
@given(_int_matrix())
def test_integer_rref_and_kernel_match_the_naive_gauss_jordan(case):
    field, ncols, rows = case
    reduced = rref_rows(field, rows)
    assert reduced == naive_rref(field, rows)
    assert all(_canonical(field, row) for row in reduced[0])
    if rows:
        kernel = solve_right_kernel(field, rows, ncols)
        assert kernel.basis == tuple(naive_kernel(field, rows, ncols))
        assert all(_canonical(field, row) for row in kernel.basis)


@settings(max_examples=200, deadline=None)
@given(_int_matrix(), st.data())
def test_integer_reduce_and_intersect_match_the_naive_gauss_jordan(case, data):
    field, ncols, rows = case
    u = Subspace(field, ncols, rows)
    entries = _entries(field)
    other = data.draw(st.lists(st.tuples(*[entries] * ncols), max_size=6))
    v = Subspace(field, ncols, other)
    assert u.basis == tuple(naive_rref(field, rows)[0])
    w = data.draw(st.tuples(*[entries] * ncols))
    residual = u.reduce(w)
    assert residual == naive_reduce(field, u.basis, u.pivots, w)
    assert u.contains(w) == (not any(residual))
    meet = subspace_intersect(u, v)
    assert meet.basis == tuple(naive_intersect(field, u.basis, v.basis, ncols))
    assert all(_canonical(field, row) for row in meet.basis)


def test_rational_routines_return_fractions_for_int_input():
    """Over Q an int entry is read as a Fraction, so no int leaks into a
    result, and no int division turns into a float."""
    def fractions_only(rows):
        return all(isinstance(x, Fraction) for row in rows for x in row)

    basis, pivots = rref_rows(QQ, [(1, 2), (2, 4)])
    assert (basis, pivots) == ([(1, 2)], [0]) and fractions_only(basis)
    kernel = solve_right_kernel(QQ, [(2, 1)], 2)
    assert kernel.basis == ((1, -2),) and fractions_only(kernel.basis)
    assert fractions_only([mat_vec(QQ, [(1, 2), ()], (3, 4))])
    assert mat_vec(QQ, [(1, 2)], (3, 4)) == (11,)
    product = mat_mul(QQ, [(1, 2)], [(3,), (4,)])
    assert product == ((11,),) and fractions_only(product)
    residual = Subspace(QQ, 2, [(2, 1)]).reduce((1, 1))
    assert residual == (0, Fraction(1, 2)) and fractions_only([residual])


def naive_contains(field, basis, pivots, v):
    """Membership by a full reduction on Field methods."""
    return not any(x != field.zero for x in naive_reduce(field, basis, pivots, v))


@st.composite
def _subspace_and_vector(draw):
    """A prime, a subspace of every dimension from zero to full in canonical
    form, and a vector of unreduced ints: a random one, or a combination of
    the basis shifted by multiples of p."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    rows = []
    for piv in pivots:
        row = [0] * n
        row[piv] = 1
        for c in range(piv + 1, n):
            if c not in pivots:
                row[c] = draw(st.integers(0, p - 1))
        rows.append(tuple(row))
    j = Subspace._from_canonical(GF(p), n, rows, pivots)
    entries = st.integers(-3 * p, 3 * p)
    if draw(st.booleans()):
        v = draw(st.tuples(*[entries] * n))
    else:
        coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        shift = draw(st.tuples(*[st.integers(-3, 3)] * n))
        v = tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) + p * s
                  for i, s in enumerate(shift))
    return j, v


@st.composite
def _rational_subspace_and_vector(draw):
    """The twin of `_subspace_and_vector` over Q: the span of rows of ints and
    Fractions, of every dimension from zero to full, and a vector of them or a
    rational combination of the canonical basis."""
    n = draw(st.integers(1, 6))
    entries = _entries(QQ)
    j = Subspace(QQ, n, draw(st.lists(st.tuples(*[entries] * n), max_size=n)))
    if draw(st.booleans()):
        return j, draw(st.tuples(*[entries] * n))
    coeffs = draw(st.lists(entries, min_size=j.dim, max_size=j.dim))
    return j, tuple(sum(c * row[i] for c, row in zip(coeffs, j.basis)) for i in range(n))


@settings(max_examples=600, deadline=None)
@given(st.one_of(_subspace_and_vector(), _rational_subspace_and_vector()))
@example((Subspace.zero(GF(7), 3), (7, -14, 0)))
@example((Subspace.zero(GF(2), 2), (3, 0)))
@example((Subspace.full(GF(5), 3), (12, -1, 26)))
@example((Subspace(QQ, 3, [(2, 1, 0)]), (1, Fraction(1, 2), 0)))
@example((Subspace(QQ, 3, [(2, 1, 0)]), (1, Fraction(1, 3), 0)))
@example((Subspace.zero(QQ, 2), (0, Fraction(0))))
def test_residual_row_membership_matches_the_naive_reduction(case):
    j, v = case
    assert j == Subspace(j.field, j.ambient_dim, j.basis)
    want = naive_contains(j.field, j.basis, j.pivots, v)
    assert j.contains(v) == want
    assert j.contains(v) == want  # again, from the stored residual rows
    if j.is_full():
        assert want
    if j.is_zero():
        assert want == (not any(map(j.field.check_scalar, v)))
    with pytest.raises(ValueError):
        j.contains(v + (0,))


def _every_and_sampled_subspaces():
    """Every subspace of GF(2)^4 and GF(3)^3, then sampled subspaces of Q^n
    spanned by rational rows."""
    yield from enumerate_subspaces(F2, 4)
    yield from enumerate_subspaces(F3, 3)
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 5)
        yield Subspace(QQ, n, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(n)] for _ in range(rng.randint(0, n))])


def test_residual_rows_span_the_annihilator_and_cut_out_the_subspace():
    """N = ker R_N and ker N = span R_N, with one residual row per free column."""
    for s in _every_and_sampled_subspaces():
        field, n = s.field, s.ambient_dim
        assert solve_right_kernel(field, s.basis, n) == Subspace(field, n, s.residual)
        assert solve_right_kernel(field, s.residual, n) == s
        assert len(s.residual) == n - s.dim
        assert s.free == tuple(c for c in range(n) if c not in s.pivots)
        assert all(_canonical(field, row) for row in s.residual)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_elements_in_coefficient_order(p):
    """`elements()` is lazy and lists sum_i c_i * row_i over
    `itertools.product` of the coefficients, first basis row slowest."""
    field, n = GF(p), 4
    rng = random.Random(p)
    spaces = [Subspace.zero(field, n), Subspace.full(field, n)]
    spaces += [Subspace(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(k)])
               for k in (1, 2, 3)]
    for s in spaces:
        gen = s.elements()
        assert inspect.isgenerator(gen)
        expected = []
        for coeffs in itertools.product(range(p), repeat=s.dim):
            v = [0] * n
            for c, row in zip(coeffs, s.basis):
                v = [(x + c * y) % p for x, y in zip(v, row)]
            expected.append(tuple(v))
        assert list(gen) == expected
    assert list(Subspace.full(field, n).elements()) == list(enumerate_vectors(field, n))


def test_rational_subspace_elements_refused():
    with pytest.raises(ValueError):
        next(Subspace(QQ, 2, [(1, 2)]).elements())


def test_bounded_memo_drops_the_oldest_first():
    memo = BoundedMemo(3)
    assert memo.put("a", 1) == 1
    assert memo.put("b", None) is None
    memo.put("c", 3)
    # a stored None is a hit: no recomputation, no eviction
    assert "b" in memo and memo.get("b", "miss") is None
    memo.put("c", 4)  # overwriting a key evicts nothing
    assert list(memo.items()) == [("a", 1), ("b", None), ("c", 4)]
    memo.put("d", 5)
    assert list(memo) == ["b", "c", "d"]
    for k in range(10):
        memo.put(k, k)
        assert len(memo) == 3
    assert list(memo) == [7, 8, 9]


def test_only_bounded_memo_evicts_by_hand():
    """Every oldest-out cache in the package goes through `BoundedMemo.put`."""
    src = Path(inspect.getfile(BoundedMemo)).parent
    found = {path.name: path.read_text().count("next(iter(")
             for path in sorted(src.glob("*.py"))}
    found["linalg.py"] -= inspect.getsource(BoundedMemo).count("next(iter(")
    assert {name: n for name, n in found.items() if n} == {}
