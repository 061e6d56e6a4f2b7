"""Every public entry that takes a vector normalizes it through `Field.vector`.

A vector written with residues shifted by multiples of p gets the answer of
its canonical form, and an entry foreign to the field (a float, a str, a bool
or, over GF(p), a `Fraction`) is refused with `ValueError` before any work.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieuspaces.algebras import Algebra, ideal_violation_witness, matrix_algebra, upper_triangular
from mathieuspaces.fields import GF
from mathieuspaces.linalg import Subspace, identity_matrix
from mathieuspaces.mathieu import (
    is_module_mathieu,
    is_theta_mathieu_bruteforce,
    is_theta_mathieu_idempotent,
    sigma,
    tau,
    verify_mathieu_witness,
)
from mathieuspaces.modules import ModuleHom, ModuleSpace, natural_module
from mathieuspaces.polyspaces import EvalConfig, Poly

P = 3
F = GF(P)
UT = upper_triangular(2, P)  # basis E11, E12, E22
FRESH = upper_triangular(2, P)  # no view of J cached: the re-validator eliminates
NAT = natural_module(UT)
J = Subspace(F, 3, [(1, 0, 0)])  # neither a two-sided ideal nor two-sided Mathieu
N = Subspace(F, 3, [(0, 1, 0)])
assert not is_theta_mathieu_bruteforce(UT, J, "two")  # caches J's view on UT
IDEAL = ideal_violation_witness(UT, J, "two")
MATHIEU = is_theta_mathieu_idempotent(UT, J, "two").witness
SIGMA, TAU = sigma(NAT, N, "left"), tau(NAT, N, "left")
POLY = Poly(F, 3, {(1, 0, 0): 1, (0, 2, 1): 2})


def _with_row(rows, v):
    return (v,) + tuple(rows[1:])


def _revalidated(algebra, witness, key):
    return lambda v: verify_mathieu_witness(algebra, J, "two", dict(witness, **{key: v}))


# public name -> a function of one vector of F^3 whose answer is compared
ENTRIES = {
    "Field.vector": lambda v: F.vector(v, 3, "vector"),
    "Algebra": lambda v: Algebra(F, (_with_row(UT.structure[0], v),) + UT.structure[1:],
                                 UT.unit, check=False).structure,
    "Algebra.unit": lambda v: Algebra(F, UT.structure, v, check=False).unit,
    "Algebra.power": lambda v: UT.power(v, 4),
    "Algebra.power_trajectory": UT.power_trajectory,
    "Algebra.is_nilpotent": UT.is_nilpotent,
    "Algebra.theta_ideal_generated": lambda v: UT.theta_ideal_generated(v, "two"),
    "Subspace": lambda v: Subspace(F, 3, [v, (0, 0, 1)]),
    "Subspace.reduce": N.reduce,
    "ModuleSpace": lambda v: ModuleSpace(UT, (_with_row(NAT.actions[0], v),) + NAT.actions[1:],
                                         check=False).actions,
    "ModuleSpace.action_matrix": NAT.action_matrix,
    "ModuleSpace.act(a)": lambda v: NAT.act(v, (1, 2, 0)),
    "ModuleSpace.act(u)": lambda v: NAT.act((0, 1, 2), v),
    "ModuleSpace.colon": lambda v: NAT.colon(N, v),
    "ModuleSpace.colon_cached": lambda v: NAT.colon_cached(N, v),
    "ModuleHom": lambda v: ModuleHom(NAT, NAT, _with_row(identity_matrix(F, 3), v),
                                     check=False).matrix,
    "is_module_mathieu": lambda v: is_module_mathieu(NAT, N, v, "left"),
    "sigma in": lambda v: v in SIGMA,
    "tau in": lambda v: v in TAU,
    "EvalConfig.points": lambda v: EvalConfig(F, (v,), (1,)),
    "EvalConfig.weights": lambda v: EvalConfig(F, ((0,), (1,), (2,)), v),
    "Poly.evaluate": POLY.evaluate,
    **{f"verify_mathieu_witness.{key}{' (no view)' * (algebra is FRESH)}":
       _revalidated(algebra, witness, key)
       for algebra in (UT, FRESH)
       for witness, keys in ((IDEAL, ("element", "left", "right")), (MATHIEU, ("a", "b", "c")))
       for key in keys},
}

CANONICAL = st.tuples(*[st.integers(0, P - 1)] * 3)
SHIFTS = st.tuples(*[st.sampled_from((-2 * P, -P, P, 2 * P))] * 3)
FOREIGN = st.sampled_from([1.0, "1", True, Fraction(1, 2), Fraction(3)])


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=15, deadline=None)
@given(canonical=CANONICAL, shifts=SHIFTS, k=st.integers(0, 2), foreign=FOREIGN)
def test_every_vector_entry_normalizes_through_field_vector(name, canonical, shifts, k, foreign):
    entry = ENTRIES[name]
    shifted = tuple(x + s for x, s in zip(canonical, shifts))
    assert entry(list(shifted)) == entry(canonical)
    with pytest.raises(ValueError):
        entry(canonical[:k] + (foreign,) + canonical[k + 1:])


def test_a_fraction_power_trajectory_is_refused_and_a_shifted_witness_revalidates():
    with pytest.raises(ValueError, match="not a residue mod 3"):
        UT.power_trajectory((Fraction(1, 2), 0, 0))
    # the corner line of M_2(GF(2)): the decider's witness, with a written as
    # (3, 0, 0, 0), is valid as its canonical form is
    algebra = matrix_algebra(2, 2)
    corner = Subspace(GF(2), 4, [(1, 0, 0, 0)])
    witness = is_theta_mathieu_idempotent(algebra, corner, "left").witness
    assert witness["a"] == (1, 0, 0, 0)
    assert verify_mathieu_witness(algebra, corner, "left", dict(witness, a=(3, 0, 0, 0))) == (
        True, "recurring product escapes the subspace")
    # every witness vector, a included, is named by its key when refused
    for key in ("a", "b"):
        with pytest.raises(ValueError, match=f"witness {key} has 3 coordinates, expected 4"):
            verify_mathieu_witness(algebra, corner, "left", dict(witness, **{key: (1, 0, 0)}))
