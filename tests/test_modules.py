import itertools
import random

import pytest

from mathieuspaces.algebras import matrix_algebra, opposite, truncated_poly, upper_triangular
from mathieuspaces.fields import GF
from mathieuspaces.linalg import Subspace, enumerate_subspaces, solve_right_kernel
from mathieuspaces.modules import (
    ModuleAxiomError,
    ModuleHom,
    ModuleSpace,
    column_module,
    module_hom_basis,
    natural_module,
)

F2, F3 = GF(2), GF(3)
M2F2 = matrix_algebra(2, 2)
COL = column_module(M2F2, 2)
E11 = (1, 0, 0, 0)


def test_unit_acts_as_identity():
    for u in itertools.product(range(2), repeat=2):
        assert COL.act(M2F2.unit, u) == u


def test_corner_unit_kills_second_coordinate():
    assert COL.act(E11, (0, 1)) == (0, 0)
    assert COL.act(E11, (1, 1)) == (1, 0)


def test_zero_acts_as_zero():
    assert COL.act((0, 0, 0, 0), (1, 1)) == (0, 0)


def test_colon_of_zero_reference_is_everything():
    n = Subspace(F2, 2, [(1, 0)])
    assert COL.colon(n, (0, 0)).is_full()


def test_colon_matches_annihilator_of_first_basis_vector():
    zero = Subspace.zero(F2, 2)
    got = COL.colon(zero, (1, 0))
    # solve Y e_1 = 0 by hand: first column zero
    brute = [y for y in itertools.product(range(2), repeat=4)
             if (y[0], y[2]) == (0, 0)]
    assert got.dim == 2
    for y in brute:
        assert got.contains(y)


def test_colon_of_trace_hyperplane_twists_the_functional():
    # (H_X : Y) = H_{YX} over the algebra acting on itself
    a5 = matrix_algebra(2, 5)
    nat = natural_module(a5)
    rng = random.Random(3)

    def flat_matmul(a, b):
        return ((a[0] * b[0] + a[1] * b[2]) % 5, (a[0] * b[1] + a[1] * b[3]) % 5,
                (a[2] * b[0] + a[3] * b[2]) % 5, (a[2] * b[1] + a[3] * b[3]) % 5)

    def hyperplane(x):
        functional = (x[0], x[2], x[1], x[3])  # Tr(YX) coefficients of Y
        if not any(functional):
            return Subspace.full(F5, 4)
        return solve_right_kernel(F5, [functional], 4)

    F5 = GF(5)
    for _ in range(25):
        x = tuple(rng.randrange(5) for _ in range(4))
        y = tuple(rng.randrange(5) for _ in range(4))
        assert nat.colon(hyperplane(x), y) == hyperplane(flat_matmul(y, x))


def test_inverse_image_under_unit_is_the_subspace():
    n = Subspace(F2, 2, [(1, 0)])
    assert COL.inverse_image(M2F2.unit, n) == n


def test_inverse_image_under_zero_is_everything():
    n = Subspace.zero(F2, 2)
    assert COL.inverse_image((0, 0, 0, 0), n).is_full()


def test_inverse_image_of_line_under_corner_unit():
    n = Subspace(F2, 2, [(1, 0)])
    assert COL.inverse_image(E11, n).is_full()


def test_max_submodule_of_a_submodule_is_itself():
    nat = natural_module(truncated_poly(3, 2))
    v = Subspace(F2, 3, [(0, 1, 0), (0, 0, 1)])  # the ideal (x)
    assert nat.is_submodule(v)
    assert nat.max_submodule(v) == v


def test_max_submodule_inside_irreducible_module_is_zero():
    n = Subspace(F2, 2, [(1, 0)])
    assert COL.max_submodule(n).dim == 0


def test_max_submodule_of_trace_hyperplane_is_left_annihilator():
    a5 = matrix_algebra(2, 5)
    nat = natural_module(a5)
    x = E11
    h_x = solve_right_kernel(GF(5), [(x[0], x[2], x[1], x[3])], 4)
    got = nat.max_submodule(h_x)
    ann = [y for y in itertools.product(range(5), repeat=4)
           if ((y[0] * x[0] + y[1] * x[2]) % 5, (y[0] * x[1] + y[1] * x[3]) % 5,
               (y[2] * x[0] + y[3] * x[2]) % 5, (y[2] * x[1] + y[3] * x[3]) % 5)
           == (0, 0, 0, 0)]
    assert {v for v in got.elements()} == set(ann)


def test_max_submodule_is_maximal_among_invariant_subspaces():
    nat = natural_module(upper_triangular(2, 2))
    rng = random.Random(5)
    for _ in range(20):
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(4))]
        n = Subspace(F2, 3, rows)
        fix = nat.max_submodule(n)
        assert n.contains_subspace(fix)
        assert nat.is_submodule(fix)
        for v in enumerate_subspaces(F2, 3):
            if n.contains_subspace(v) and nat.is_submodule(v):
                assert fix.contains_subspace(v)


def test_quotient_by_zero_preserves_actions():
    quot, proj = COL.quotient_module(Subspace.zero(F2, 2))
    assert quot.dim == 2
    assert quot.actions == COL.actions
    assert proj.matrix == ((1, 0), (0, 1))


def test_quotient_by_everything_is_trivial():
    nat = natural_module(truncated_poly(2, 2))
    quot, _ = nat.quotient_module(Subspace.full(F2, 2))
    assert quot.dim == 0


def test_quotient_of_truncated_by_its_radical():
    nat = natural_module(truncated_poly(2, 2))
    v = Subspace(F2, 2, [(0, 1)])  # the ideal (x)
    quot, proj = nat.quotient_module(v)
    assert quot.dim == 1
    # x acts as zero downstairs
    assert quot.actions[1] == ((0,),)
    assert proj.apply((1, 1)) == (1,)


def test_quotient_rejects_non_invariant_subspaces():
    n = Subspace(F2, 2, [(1, 0)])
    with pytest.raises(ValueError):
        COL.quotient_module(n)


def test_pullback_through_identity():
    phi = ModuleHom.identity(COL)
    h = Subspace(F2, 2, [(0, 1)])
    assert phi.pullback_subspace(h) == h


def test_pullback_through_zero_map_is_everything():
    nat = natural_module(truncated_poly(2, 2))
    zero_hom = ModuleHom(nat, nat, ((0, 0), (0, 0)))
    h = Subspace(F2, 2, [(0, 1)])
    assert zero_hom.pullback_subspace(h).is_full()


def test_pullback_of_disjoint_line_is_zero():
    # multiplication by x embeds the quotient line into the x-line;
    # pulling back the complementary line leaves only zero
    nat = natural_module(truncated_poly(2, 2))
    mult_x = ModuleHom(nat, nat, ((0, 0), (1, 0)))  # 1 -> x, x -> 0
    h = Subspace(F2, 2, [(1, 0)])
    pulled = mult_x.pullback_subspace(h)
    assert pulled == Subspace(F2, 2, [(0, 1)])


def test_hom_must_commute_with_actions():
    with pytest.raises(ModuleAxiomError):
        ModuleHom(COL, COL, ((1, 1), (0, 0)))


def test_a_hom_refuses_a_module_or_subspace_over_another_field_or_dimension():
    # the structure constants of M_2(GF(2)) and M_2(GF(3)) are equal tuples
    col3 = column_module(matrix_algebra(2, 3), 2)
    with pytest.raises(ValueError, match="common algebra"):
        ModuleHom(COL, col3, ((1, 0), (0, 1)))
    ident = ModuleHom.identity(COL)
    for foreign in (Subspace(F2, 3, [(1, 0, 0)]), Subspace(F3, 2, [(1, 0)])):
        for method in (ident.image_of_subspace, ident.pullback_subspace):
            with pytest.raises(ValueError, match="does not live in this module"):
                method(foreign)


def test_a_hom_applies_only_to_vectors_of_its_source():
    ident = ModuleHom.identity(COL)
    assert ident.apply((3, -1)) == (1, 1)
    for bad in ((1,), (1, 0, 1), (1.5, 0)):
        with pytest.raises(ValueError):
            ident.apply(bad)


def test_module_axioms_checked():
    actions = [((1, 0), (0, 1))] * 4
    with pytest.raises(ModuleAxiomError):
        ModuleSpace(M2F2, actions)  # every unit acting as identity is not multiplicative


def test_colon_respects_the_exponent_shift():
    # (N : a.u) computed in the module equals ((N:u) : a) computed in the algebra
    nat = natural_module(upper_triangular(2, 2))
    alg_nat = natural_module(nat.algebra)
    rng = random.Random(9)
    for _ in range(30):
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(3))]
        n = Subspace(F2, 3, rows)
        a = tuple(rng.randrange(2) for _ in range(3))
        u = tuple(rng.randrange(2) for _ in range(3))
        lhs = nat.colon(n, nat.act(a, u))
        rhs = alg_nat.colon(nat.colon(n, u), a)
        assert lhs == rhs


def test_colon_commutes_with_finite_intersections():
    rng = random.Random(13)
    from mathieuspaces.linalg import subspace_intersect
    for _ in range(20):
        spaces = []
        for _ in range(3):
            rows = [tuple(rng.randrange(2) for _ in range(2))
                    for _ in range(rng.randrange(3))]
            spaces.append(Subspace(F2, 2, rows))
        u = tuple(rng.randrange(2) for _ in range(2))
        meet = spaces[0]
        for s in spaces[1:]:
            meet = subspace_intersect(meet, s)
        lhs = COL.colon(meet, u)
        rhs = COL.colon(spaces[0], u)
        from mathieuspaces.linalg import subspace_intersect as cap
        for s in spaces[1:]:
            rhs = cap(rhs, COL.colon(s, u))
        assert lhs == rhs


def test_colon_of_pullback_matches_image_reference():
    # (H : phi(u)) = (preimage of H : u)
    a = truncated_poly(3, 2)
    nat = natural_module(a)
    quot, proj = nat.quotient_module(Subspace(F2, 3, [(0, 0, 1)]))
    rng = random.Random(17)
    for _ in range(25):
        rows = [tuple(rng.randrange(2) for _ in range(2)) for _ in range(rng.randrange(3))]
        h = Subspace(F2, 2, rows)
        u = tuple(rng.randrange(2) for _ in range(3))
        assert quot.colon(h, proj.apply(u)) == nat.colon(proj.pullback_subspace(h), u)


def test_pullback_through_coordinate_embedding():
    # over the base field every linear map is a module map; embedding the
    # line as the first coordinate pulls the second axis back to zero
    from mathieuspaces.algebras import field_algebra
    base = field_algebra(2)
    line = ModuleSpace(base, [((1,),)])
    plane = ModuleSpace(base, [((1, 0), (0, 1))])
    embed = ModuleHom(line, plane, ((1,), (0,)))
    axis2 = Subspace(F2, 2, [(0, 1)])
    assert embed.pullback_subspace(axis2).dim == 0
    axis1 = Subspace(F2, 2, [(1, 0)])
    assert embed.pullback_subspace(axis1).is_full()


def test_right_action_is_left_action_of_the_opposite():
    ut = upper_triangular(2, 2)
    right = natural_module(opposite(ut))
    rng = random.Random(21)
    for _ in range(20):
        a = tuple(rng.randrange(2) for _ in range(3))
        u = tuple(rng.randrange(2) for _ in range(3))
        assert right.act(a, u) == ut.multiply(u, a)
    # colon in the right module is the right-divisor set
    n = Subspace(F2, 3, [(0, 1, 0)])
    u = (0, 1, 0)
    got = right.colon(n, u)
    brute = [a for a in itertools.product(range(2), repeat=3)
             if n.contains(ut.multiply(u, a))]
    assert set(got.elements()) == set(brute)


def test_hom_space_of_natural_module_is_right_multiplications():
    nat = natural_module(M2F2)
    basis = module_hom_basis(nat, nat)
    # right multiplications commute with left ones; dimension is the algebra's
    assert len(basis) == 4
    for mat in basis:
        hom = ModuleHom(nat, nat, mat)  # constructor validates commutation
        assert hom.source is nat
