"""Differential tests: a deliberately naive set-based reimplementation of
spans, colon spaces, ideal tests and the Mathieu property, diffed against the
library's linear-algebra implementations on small instances.

Nothing in the raw reimplementation touches Subspace, kernels or echelon
forms: subspaces are plain Python sets built by additive closure and every
quantifier is a raw scan.  The per-element oracle for sigma/tau further down
does use the library's colon spaces and deciders, but computes one colon
space and one decision per element, with no caches and no class reduction.
The brute-force Mathieu scan is also diffed against its own loop without the
work it skips (`unpruned_bruteforce`), also with its product masks and J's
views warm from earlier decisions on the same algebra; the re-validator's
elimination is diffed against `Subspace.contains` and J's view, and its
answers on the benchmark's decider-scan witnesses are pinned.  The
one-kernel `max_submodule` is diffed against the fixpoint descent over
explicit sets (`oracles._fixpoint_submodule`) and, over Q, against a descent
over subspaces (`_subspace_descent`).
"""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mathieuspaces.algebras import (
    builder_spec_to_algebra,
    matrix_algebra,
    opposite,
    product_algebra,
    quotient_algebra,
    truncated_poly,
    upper_triangular,
)
from mathieuspaces.fields import GF, QQ
from mathieuspaces.linalg import (
    DEFAULT_ELEMENT_CAP,
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
    mat_vec,
    preimage_subspace,
    solve_right_kernel,
    subspace_intersect,
)
from mathieuspaces.mathieu import (
    MathieuVerdict,
    is_theta_ideal,
    is_theta_mathieu_bruteforce,
    is_theta_mathieu_idempotent,
    sigma,
    tau,
)
from mathieuspaces.modules import ColonClasses, column_module, natural_module
from mathieuspaces.oracles import (
    _J_VIEWS,
    _PRODUCT_MASKS,
    _fixpoint_submodule,
    _in_span,
    _j_view,
    verify_mathieu_witness,
)
from mathieuspaces.verify import Profile, _module_zoo, _random_subspace

THETAS = ("left", "right", "pre", "two")


def closure_set(p, dim, gens):
    """The span as a raw set: additive closure of the generators from zero."""
    seen = {(0,) * dim}
    changed = True
    while changed:
        changed = False
        for v in list(seen):
            for g in gens:
                w = tuple((a + b) % p for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    changed = True
    return seen


def raw_act(p, actions, a, u):
    dim = len(u)
    out = [0] * dim
    for coef, matrix in zip(a, actions):
        if not coef:
            continue
        for r in range(dim):
            acc = 0
            for c in range(dim):
                acc += matrix[r][c] * u[c]
            out[r] += coef * acc
    return tuple(x % p for x in out)


def raw_multiply(p, structure, a, b):
    dim = len(a)
    out = [0] * dim
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            cell = structure[i][j]
            for k in range(dim):
                out[k] += ai * bj * cell[k]
    return tuple(x % p for x in out)


def raw_is_ideal(p, structure, n_set, theta, elements):
    left = theta in ("left", "pre", "two")
    right = theta in ("right", "pre", "two")
    for v in n_set:
        for a in elements:
            if left and raw_multiply(p, structure, a, v) not in n_set:
                return False
            if right and raw_multiply(p, structure, v, a) not in n_set:
                return False
    return True


def raw_is_mathieu(p, structure, n_set, theta, elements):
    for a in elements:
        seq, seen = [], {}
        x = a
        while x not in seen:
            seen[x] = len(seq)
            seq.append(x)
            x = raw_multiply(p, structure, x, a)
        if any(power not in n_set for power in seq):
            continue
        cycle = seq[seen[x]:]
        for y in cycle:
            if theta in ("left", "pre"):
                for b in elements:
                    if raw_multiply(p, structure, b, y) not in n_set:
                        return False
            if theta in ("right", "pre"):
                for c in elements:
                    if raw_multiply(p, structure, y, c) not in n_set:
                        return False
            if theta == "two":
                for b in elements:
                    by = raw_multiply(p, structure, b, y)
                    for c in elements:
                        if raw_multiply(p, structure, by, c) not in n_set:
                            return False
    return True


def _small_algebras():
    return [
        truncated_poly(2, 2),
        truncated_poly(2, 3),
        product_algebra(3, 2),
        upper_triangular(2, 2),
    ]


def test_algebra_deciders_against_raw_sets():
    rng = random.Random(401)
    for algebra in _small_algebras():
        p, dim = algebra.field.p, algebra.dim
        elements = list(itertools.product(range(p), repeat=dim))
        for _ in range(12):
            gens = [tuple(rng.randrange(p) for _ in range(dim))
                    for _ in range(rng.randrange(dim + 1))]
            n_set = closure_set(p, dim, gens)
            subspace = Subspace(algebra.field, dim, gens)
            assert set(subspace.elements()) == n_set
            for theta in THETAS:
                want_ideal = raw_is_ideal(p, algebra.structure, n_set, theta, elements)
                assert is_theta_ideal(algebra, subspace, theta) == want_ideal
                want_mathieu = raw_is_mathieu(p, algebra.structure, n_set, theta, elements)
                assert is_theta_mathieu_bruteforce(
                    algebra, subspace, theta).is_mathieu == want_mathieu
                assert is_theta_mathieu_idempotent(
                    algebra, subspace, theta).is_mathieu == want_mathieu


def test_stable_sets_against_raw_scans():
    rng = random.Random(409)
    modules = [
        natural_module(truncated_poly(2, 3)),
        natural_module(upper_triangular(2, 2)),
        column_module(matrix_algebra(2, 2), 2),
    ]
    for module in modules:
        algebra = module.algebra
        p = algebra.field.p
        alg_elements = list(itertools.product(range(p), repeat=algebra.dim))
        mod_elements = list(itertools.product(range(p), repeat=module.dim))
        for _ in range(8):
            gens = [tuple(rng.randrange(p) for _ in range(module.dim))
                    for _ in range(rng.randrange(module.dim + 1))]
            n_set = closure_set(p, module.dim, gens)
            n_space = Subspace(module.field, module.dim, gens)
            for theta in THETAS:
                raw_sigma, raw_tau = set(), set()
                for u in mod_elements:
                    colon_set = frozenset(
                        a for a in alg_elements
                        if raw_act(p, module.actions, a, u) in n_set)
                    if raw_is_ideal(p, algebra.structure, colon_set, theta, alg_elements):
                        raw_sigma.add(u)
                    if raw_is_mathieu(p, algebra.structure, colon_set, theta, alg_elements):
                        raw_tau.add(u)
                assert set(sigma(module, n_space, theta)) == raw_sigma
                assert set(tau(module, n_space, theta)) == raw_tau


def per_element_oracle(module, n_space, theta):
    """sigma and tau of N, one colon space and one decision per element."""
    algebra = module.algebra
    raw_sigma, raw_tau = [], []
    for u in enumerate_vectors(module.field, module.dim):
        j = module.colon(n_space, u)
        if is_theta_ideal(algebra, j, theta):
            raw_sigma.append(u)
        if is_theta_mathieu_idempotent(algebra, j, theta).is_mathieu:
            raw_tau.append(u)
    return raw_sigma, raw_tau


def test_class_built_sets_against_the_per_element_oracle():
    rng = random.Random(419)
    for module in _module_zoo(Profile(primes=(2, 3))):
        field, dim = module.field, module.dim
        elements = list(enumerate_vectors(field, dim))
        spaces = [_random_subspace(rng, field, dim) for _ in range(4)]
        for n_space in spaces + [Subspace.zero(field, dim), Subspace.full(field, dim)]:
            for theta in THETAS:
                want_sigma, want_tau = per_element_oracle(module, n_space, theta)
                got_sigma, got_tau = sigma(module, n_space, theta), tau(module, n_space, theta)
                assert list(got_sigma) == want_sigma
                assert list(got_tau) == want_tau
                # membership asks the class map, explicit set or capped
                lazy = sigma(module, n_space, theta, cap=1)
                assert not lazy.is_explicit
                assert [u for u in elements if u in got_sigma] == want_sigma
                assert [u for u in elements if u in got_tau] == want_tau
                assert [u for u in elements if u in lazy] == want_sigma


def test_class_built_sigma_over_q_against_the_per_element_oracle():
    rng = random.Random(421)
    module = natural_module(matrix_algebra(2, QQ))
    algebra = module.algebra

    def rand_vec():
        return tuple(QQ.parse_scalar(f"{rng.randrange(-3, 4)}/{rng.randrange(1, 3)}")
                     for _ in range(module.dim))

    column_ideal = [(1, 0, 0, 0), (0, 0, 1, 0)]  # matrices zero off column one
    for k in range(6):
        gens = [rand_vec() for _ in range(rng.randrange(1, 3))]
        n_space = Subspace(QQ, module.dim, gens + (column_ideal if k % 2 else []))
        inside = module.max_submodule(n_space)
        assert inside.dim >= 2 * (k % 2)
        for theta in THETAS:
            lazy = sigma(module, n_space, theta)
            for _ in range(6):
                u = rand_vec()
                # scalar multiples and shifts by the largest submodule share a class
                c = QQ.parse_scalar(f"{rng.choice((-2, -1, 3))}/{rng.randrange(1, 4)}")
                shifted = tuple(x + y for x, y in zip(u, inside.basis[0])) \
                    if inside.basis else u
                for v in (u, tuple(c * x for x in u), shifted):
                    want = is_theta_ideal(algebra, module.colon(n_space, v), theta)
                    assert (v in lazy) == want


def _subspace_of_dim(rng, field, dim, k):
    """A random subspace of dimension exactly k."""
    while True:
        rows = [tuple(rng.randrange(field.p) for _ in range(dim)) for _ in range(k)]
        n_space = Subspace(field, dim, rows)
        if n_space.dim == k:
            return n_space


def _class_representative(classes, u):
    """u reduced modulo the largest submodule inside N and scaled to first
    nonzero entry 1: the reference for the representatives the class map lists."""
    field = classes.module.field
    v = classes.submodule.reduce(u)
    for x in v:
        if x:
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in v)
    return v


def test_class_map_colon_spaces_against_the_per_query_colon():
    rng = random.Random(433)
    modules = _module_zoo(Profile(primes=(2, 3))) + [natural_module(matrix_algebra(2, 5))]
    for module in modules:
        field, dim = module.field, module.dim
        elements = list(enumerate_vectors(field, dim))
        for k in range(dim + 1):  # every codimension of N, N = 0 and N = M included
            n_space = _subspace_of_dim(rng, field, dim, k)
            module._colons.clear()
            classes = ColonClasses(module, n_space)
            # the listed representatives are those of the elements, once each
            groups = classes.classes(len(elements))
            reps = [r for _colon, members in groups for r in members]
            assert reps[0] == (0,) * dim and len(reps) == len(set(reps))
            assert set(reps) == {_class_representative(classes, u) for u in elements}
            p, free = field.p, dim - classes.submodule.dim
            assert len(reps) == (p ** free - 1) // (p - 1) + 1
            assert sorted(classes.members(reps)) == elements
            for colon, members in groups:
                assert all(module.colon(n_space, r) == colon for r in members)
            # one memo entry per row space, each the kernel of its rows
            assert {colon.basis for colon in module._colons.values()} \
                == {colon.basis for colon, _members in groups}
            for rows, colon in module._colons.items():
                assert colon == solve_right_kernel(field, rows, module.algebra.dim)
            for u in elements:
                want = module.colon(n_space, u)
                # from the composed forms for any u, not only class representatives
                assert classes.colon(u) == want
                assert classes.colon(_class_representative(classes, u)) == want
            # every u of a class found its class's kernel: no new memo entry
            assert len(module._colons) == len(groups)


@pytest.mark.parametrize("build", [
    lambda: natural_module(product_algebra(2, 2)),
    lambda: natural_module(truncated_poly(3, 2)),
    lambda: natural_module(upper_triangular(2, 2)),
    lambda: column_module(matrix_algebra(2, 2), 2),
    lambda: column_module(matrix_algebra(2, 3), 2),
    lambda: _module_zoo(Profile(primes=(2,)))[-1],
], ids=["GF(2)^2", "GF(2)[x]/(x^3)", "UT_2(GF(2))", "M_2(GF(2)) columns",
        "M_2(GF(3)) columns", "zoo quotient"])
def test_kernel_max_submodule_against_the_fixpoint_on_every_subspace(build):
    module = build()
    for n_space in enumerate_subspaces(module.field, module.dim):
        assert frozenset(module.max_submodule(n_space).elements()) == \
            _fixpoint_submodule(module, n_space)


def _subspace_descent(module, n_space):
    """The largest submodule inside N by fixpoint descent over subspaces: each
    round intersects the current space with its preimage under every action
    matrix.  Unlike the explicit-set oracle it runs over Q, but its preimages
    and intersections end in `linalg`'s residual map (`Subspace.residual`),
    which also builds the kernel it is compared with."""
    current = n_space
    while True:
        nxt = current
        for m in module.actions:
            nxt = subspace_intersect(nxt, preimage_subspace(module.field, m, current, module.dim))
        if nxt == current:
            return current
        current = nxt


def test_kernel_max_submodule_against_the_fixpoint_over_q():
    rng = random.Random(439)
    proper = 0
    for algebra in (matrix_algebra(2, QQ), upper_triangular(2, QQ), truncated_poly(3, QQ)):
        module = natural_module(algebra)

        def rand_vec():
            return tuple(QQ.parse_scalar(f"{rng.randrange(-3, 4)}/{rng.randrange(1, 3)}")
                         for _ in range(module.dim))

        for k in range(12):
            gens = [rand_vec() for _ in range(rng.randrange(module.dim))]
            if k % 2:  # add the submodule generated by a random u
                u = rand_vec()
                gens += [mat_vec(QQ, m, u) for m in module.actions]
            n_space = Subspace(QQ, module.dim, gens)
            fixpoint = _subspace_descent(module, n_space)
            assert module.max_submodule(n_space) == fixpoint
            proper += 0 < fixpoint.dim < n_space.dim
    assert proper  # some N hold a nonzero largest submodule smaller than N


def _count_colon_calls(monkeypatch):
    """Count the colon spaces the class map computes (one kernel each)."""
    calls = [0]
    original = ColonClasses.colon

    def counting(self, u):
        calls[0] += 1
        return original(self, u)

    monkeypatch.setattr(ColonClasses, "colon", counting)
    return calls


def test_trace_hyperplane_sets_compute_one_colon_space_per_class(monkeypatch):
    calls = _count_colon_calls(monkeypatch)
    n = 2
    # rank 2: the largest submodule of the hyperplane is zero, so the classes
    # are the 156 lines of GF(5)^4 plus zero; rank 1: it has dimension 2,
    # leaving the 6 lines of the quotient plus zero
    for x, want in (((1, 2, 3, 4), 157), ((1, 0, 0, 0), 7)):
        module = natural_module(matrix_algebra(n, 5))
        functional = tuple(x[j * n + i] for i in range(n) for j in range(n))
        h_x = solve_right_kernel(module.field, [functional], n * n)
        calls[0] = 0
        for theta in THETAS:
            sigma(module, h_x, theta)
            tau(module, h_x, theta)
        assert calls[0] == want


def test_trace_hyperplanes_share_colon_kernels_across_n():
    n, p = 2, 5
    module = natural_module(matrix_algebra(n, p))
    # (H_X : U) = H_(UX), or everything when UX = 0: 156 hyperplanes and the
    # whole algebra, whatever the 36 hyperplanes H_X.  The colon memo gains one
    # entry per colon kernel; it holds more than 157, so eviction cannot hide one.
    xs = [x for x in itertools.product(range(p), repeat=n * n)
          if any(x) and next(v for v in x if v) == 1][:36]
    for x in xs:
        functional = tuple(x[j * n + i] for i in range(n) for j in range(n))
        h_x = solve_right_kernel(module.field, [functional], n * n)
        for theta in ("left", "two"):
            sigma(module, h_x, theta)
            tau(module, h_x, theta)
    assert module._colons.size > 157
    assert 0 < len(module._colons) <= 157


def unpruned_bruteforce(algebra, j, theta, cap):
    """The brute-force scan before it skipped anything: a trajectory for every
    a, a multiplier scan for every cycle element of every such a, and one
    inner scan per b on the two-sided selector."""
    check_left = theta in ("left", "pre")
    check_right = theta in ("right", "pre")
    elems = algebra.element_list(cap)
    for a in elems:
        traj = algebra.power_trajectory(a)
        if not all(map(j.contains, traj.tail + traj.cycle)):
            continue
        for pos, x in enumerate(traj.cycle):
            power = len(traj.tail) + pos + 1
            if check_left:
                for b in elems:
                    if not j.contains(algebra.multiply(b, x)):
                        return MathieuVerdict(False, {
                            "kind": "mathieu", "a": a, "b": b, "c": None, "power": power})
            if check_right:
                for c in elems:
                    if not j.contains(algebra.multiply(x, c)):
                        return MathieuVerdict(False, {
                            "kind": "mathieu", "a": a, "b": None, "c": c, "power": power})
            if theta == "two":
                for b in elems:
                    bx = algebra.multiply(b, x)
                    for c in elems:
                        if not j.contains(algebra.multiply(bx, c)):
                            return MathieuVerdict(False, {
                                "kind": "mathieu", "a": a, "b": b, "c": c, "power": power})
    return MathieuVerdict(True)


def _opposite_upper():
    return opposite(upper_triangular(2, 3))


def _quotient_upper():
    """UT_3(GF(2)) modulo the two-sided ideal spanned by E_12 and E_13, which
    is GF(2) x UT_2(GF(2)): 16 elements, not commutative."""
    ut = upper_triangular(3, 2)
    ideal = Subspace(ut.field, ut.dim, [ut.basis_vector(1), ut.basis_vector(2)])
    return quotient_algebra(ut, ideal)[0]


@pytest.mark.parametrize("spec", [("product", 3, 2), ("truncated", 3, 3),
                                  ("upper", 2, 3), ("matrix", 2, 2),
                                  _opposite_upper, _quotient_upper])
def test_bruteforce_scan_against_the_unpruned_loop(spec):
    """Same verdict and witness on every subspace and side, with the
    multiplication table and with it switched off."""
    build = spec if callable(spec) else lambda: builder_spec_to_algebra(spec)
    indexed = build()
    generic = build()
    generic.mult_table = lambda: None
    assert indexed.mult_table() is not None
    for j in enumerate_subspaces(indexed.field, indexed.dim):
        for theta in THETAS:
            expected = unpruned_bruteforce(generic, j, theta, DEFAULT_ELEMENT_CAP)
            assert is_theta_mathieu_bruteforce(indexed, j, theta) == expected, (j.basis, theta)
            assert is_theta_mathieu_bruteforce(generic, j, theta) == expected, (j.basis, theta)


def test_bruteforce_scan_without_a_table_against_the_unpruned_loop():
    """An algebra above the table limit: products and trajectories are
    computed one at a time, and the scan names the unpruned loop's witness."""
    algebra = truncated_poly(5, 5)
    assert algebra.element_count() == 3125
    rng = random.Random(443)
    # the unit's line is the one line here that is not Mathieu; x^4 spans a
    # nilpotent line whose elements all share the cycle (0)
    lines = [Subspace(algebra.field, algebra.dim, [v]) for v in (algebra.unit, (0, 0, 0, 0, 1))]
    lines += [_subspace_of_dim(rng, algebra.field, algebra.dim, 1) for _ in range(2)]
    for j in lines:
        for theta in ("left", "right"):
            expected = unpruned_bruteforce(algebra, j, theta, DEFAULT_ELEMENT_CAP)
            assert is_theta_mathieu_bruteforce(algebra, j, theta) == expected, (j.basis, theta)
    assert algebra.mult_table() is None
    assert algebra._trajectories == {}


class _ElementSet:
    """J as the explicit set of its elements: membership with no linear algebra."""

    def __init__(self, j):
        self.members = frozenset(j.elements())

    def contains(self, v):
        return tuple(v) in self.members


def _unpruned_verdicts(build, spaces):
    """The unpruned loop's verdict for every subspace of `spaces` and side, on
    an algebra object of its own whose products are memoized."""
    reference = build()
    reference.multiply = functools.lru_cache(maxsize=None)(reference.multiply)
    return {(j, theta): unpruned_bruteforce(reference, _ElementSet(j), theta, DEFAULT_ELEMENT_CAP)
            for j in spaces for theta in THETAS}


def _assert_warm_scans_agree(algebra, spaces, expected):
    """The scan on one algebra object names the expected verdicts over
    `spaces` in order with its product masks and J's views cold, again with
    both warm, then in reverse with the views dropped, so that they are
    filled in reverse order, and in reverse with the masks dropped."""
    for order, dropped in ((spaces, None), (spaces, None), (spaces[::-1], _J_VIEWS),
                           (spaces[::-1], _PRODUCT_MASKS)):
        if dropped is not None:
            dropped.pop(algebra, None)
        for j in order:
            for theta in THETAS:
                assert is_theta_mathieu_bruteforce(algebra, j, theta) == expected[j, theta], (
                    j.basis, theta)
        assert set(_J_VIEWS[algebra]) == {j for j in spaces if not j.is_full()}


@pytest.mark.parametrize("build", [lambda: matrix_algebra(2, 3), lambda: upper_triangular(3, 2),
                                   _opposite_upper],
                         ids=["M_2(GF(3))", "UT_3(GF(2))", "op(UT_2(GF(3)))"])
def test_warm_product_masks_against_the_unpruned_loop(build):
    """The masks and views kept per algebra serve every later decision on it,
    whatever subspace or side built them."""
    algebra = build()
    spaces = list(enumerate_subspaces(algebra.field, algebra.dim))
    _assert_warm_scans_agree(algebra, spaces, _unpruned_verdicts(build, spaces))


def test_warm_product_masks_on_hyperplanes_of_m2_gf5():
    algebra = matrix_algebra(2, 5)
    rng = random.Random(2028)
    spaces = [_subspace_of_dim(rng, algebra.field, algebra.dim, algebra.dim - 1)
              for _ in range(20)]
    _assert_warm_scans_agree(algebra, spaces,
                             _unpruned_verdicts(lambda: matrix_algebra(2, 5), spaces))


@pytest.mark.parametrize("with_table", [True, False], ids=["table", "no-table"])
def test_zero_subspace_and_nilpotent_lines_against_the_unpruned_loop(with_table):
    """The scan skips the products of the zero element: the zero subspace's
    one a is 0, and the powers of x^3 and x^4 end in the cycle (0)."""
    algebra = truncated_poly(5, 3)
    if not with_table:
        algebra.mult_table = lambda: None
    assert (algebra.mult_table() is not None) == with_table
    spaces = [Subspace(algebra.field, algebra.dim, rows)
              for rows in ([], [(0, 0, 0, 1, 0)], [(0, 0, 0, 0, 1)])]
    expected = _unpruned_verdicts(lambda: truncated_poly(5, 3), spaces)
    assert all(expected.values())
    _assert_warm_scans_agree(algebra, spaces, expected)


def _scalar(rng, field):
    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) if field.is_rational else (
        rng.randrange(field.p))


def _combination(rng, field, rows):
    """A random combination of `rows`, canonical over GF(p)."""
    coeffs = [_scalar(rng, field) for _ in rows]
    v = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(len(rows[0]))]
    return tuple(x % field.p for x in v) if field.p else tuple(v)


@pytest.mark.parametrize("field, dim", [(GF(2), 4), (GF(5), 3), (QQ, 4)],
                         ids=["GF(2)", "GF(5)", "Q"])
def test_elimination_against_the_view_and_the_residual_map(field, dim):
    """The re-validator's elimination (`oracles._in_span`), on rows in no
    echelon form with dependent rows among them, agrees on seeded vectors, in
    the span and at random, with `Subspace.contains` and, over GF(p), with
    the bitmap of J's view."""
    rng = random.Random(7919)
    algebra = product_algebra(dim, field)
    for _ in range(30):
        rows = [tuple(_scalar(rng, field) for _ in range(dim)) for _ in range(rng.randrange(4))]
        if rows:  # a dependent row, and the rows shuffled
            rows.append(_combination(rng, field, rows))
            rng.shuffle(rows)
        j = Subspace(field, dim, rows)
        inside = [_combination(rng, field, rows) for _ in range(5) if rows]
        vectors = inside + [tuple(_scalar(rng, field) for _ in range(dim)) for _ in range(10)]
        assert all(_in_span(field, rows, v) for v in inside)
        if not field.is_rational:
            mem = _j_view(algebra, j, algebra.element_count())[0]
        for v in vectors:
            assert _in_span(field, rows, v) == j.contains(v), (rows, v)
            if not field.is_rational:
                assert _in_span(field, rows, v) == mem[algebra.index_of(v)], (rows, v)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_revalidator_answers_on_the_decider_scan_witnesses(monkeypatch):
    """Every verdict, witness and re-validator answer of the benchmark's
    decider-scan requests (seeds 1 and 2, the brute-force scan first, so that
    J's view is cached when its witnesses are re-validated) hashes as it did
    when the re-validator tested membership with `Subspace.contains`, and the
    answers stand with every view dropped."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import decider_scan

    digest = hashlib.md5()
    checked = []
    for seed in (1, 2):
        state = decider_scan.build(decider_scan.make_requests(seed))
        for algebra, j, theta in state["jobs"]:
            for decide in (is_theta_mathieu_bruteforce, is_theta_mathieu_idempotent):
                verdict = decide(algebra, j, theta)
                row = [verdict.is_mathieu, verdict.witness]
                if verdict.witness is not None:
                    row.append(verify_mathieu_witness(algebra, j, theta, verdict.witness))
                    checked.append((algebra, j, theta, verdict.witness, row[-1]))
                digest.update(json.dumps(row).encode())
    assert len(checked) == 5002
    assert digest.hexdigest() == "ca511f2075edfc30732ec7de157583d1"
    for algebra, *_ in checked:
        _J_VIEWS.pop(algebra, None)
    for algebra, j, theta, witness, answer in checked:
        assert verify_mathieu_witness(algebra, j, theta, witness) == answer


def uncached_idempotent_walk(algebra, j, theta):
    """The idempotent criterion with no cache: for each idempotent e in J in
    index order, every theta-multiple b*e*c in witness order, the first one
    outside J named as the witness."""
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    left, right = [(b, None) for b in basis], [(None, c) for c in basis]
    multipliers = {"left": left, "right": right, "pre": left + right,
                   "two": [(b, c) for b in basis for c in basis]}[theta]
    for e in algebra.elements():
        if algebra.multiply(e, e) != e or not j.contains(e):
            continue
        for b, c in multipliers:
            m = e if b is None else algebra.multiply(b, e)
            m = m if c is None else algebra.multiply(m, c)
            if not j.contains(m):
                return MathieuVerdict(False, {"kind": "mathieu", "a": e, "b": b, "c": c,
                                              "power": 1})
    return MathieuVerdict(True)


@pytest.mark.parametrize("spec", [("matrix", 2, 3), ("upper", 3, 2), ("product", 4, 3)],
                         ids=["M_2(GF(3))", "UT_3(GF(2))", "GF(3)^4"])
def test_cached_idempotent_ideals_against_the_uncached_walk(spec):
    """Every subspace on every side, decided cold and then warm on one algebra,
    and in reverse order on a fresh one: the verdict and witness of the
    uncached walk each time, with at most one cached ideal per side and
    idempotent."""
    algebra = builder_spec_to_algebra(spec)
    spaces = list(enumerate_subspaces(algebra.field, algebra.dim))
    expected = {theta: [uncached_idempotent_walk(algebra, j, theta) for j in spaces]
                for theta in THETAS}
    assert any(not v for verdicts in expected.values() for v in verdicts)
    bound = 4 * len(algebra.idempotents())
    for order in ("cold", "warm"):
        for theta in THETAS:
            got = [is_theta_mathieu_idempotent(algebra, j, theta) for j in spaces]
            assert got == expected[theta], (order, theta)
        assert 0 < len(algebra._idempotent_ideals) <= bound
    fresh = builder_spec_to_algebra(spec)
    for theta in reversed(THETAS):
        for j, verdict in zip(reversed(spaces), reversed(expected[theta])):
            assert is_theta_mathieu_idempotent(fresh, j, theta) == verdict, (theta, j.basis)
    assert fresh._idempotent_ideals == algebra._idempotent_ideals
