import gc
import itertools
import random

import pytest

from mathieuspaces import oracles
from mathieuspaces.algebras import (
    THETAS,
    Algebra,
    builder_spec_to_algebra,
    field_algebra,
    ideal_violation_witness,
    matrix_algebra,
    product_algebra,
    quotient_algebra,
    truncated_poly,
    upper_triangular,
)
from mathieuspaces.fields import GF, QQ
from mathieuspaces.linalg import (
    EnumerationCapExceeded,
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
    preimage_subspace,
    solve_right_kernel,
    subspace_intersect,
)
from mathieuspaces.mathieu import (
    decide,
    find_algebra_quasi_stable_violation,
    find_algebra_stable_violation,
    find_quasi_stable_violation,
    find_stable_violation,
    is_module_mathieu,
    is_quasi_stable_algebra_classified,
    is_stable_algebra_classified,
    is_theta_ideal,
    is_theta_mathieu_bruteforce,
    is_theta_mathieu_idempotent,
    sigma,
    tau,
    verify_mathieu_witness,
)
from mathieuspaces.modules import ModuleSpace, column_module, natural_module
from mathieuspaces.oracles import _J_VIEWS, _PRODUCT_MASKS

F2, F3 = GF(2), GF(3)
M2F2 = matrix_algebra(2, 2)
M2F3 = matrix_algebra(2, 3)
E11 = (1, 0, 0, 0)


def trace_zero(p):
    return solve_right_kernel(GF(p), [(1, 0, 0, 1)], 4)


def test_zero_and_everything_are_ideals():
    for theta in THETAS:
        assert is_theta_ideal(M2F2, Subspace.zero(F2, 4), theta)
        assert is_theta_ideal(M2F2, Subspace.full(F2, 4), theta)


def test_trace_zero_hyperplane_is_not_a_one_sided_ideal():
    h = trace_zero(3)
    assert not is_theta_ideal(M2F3, h, "left")
    assert not is_theta_ideal(M2F3, h, "right")


def test_corner_line_is_not_an_ideal():
    j = Subspace(F2, 4, [E11])
    assert not is_theta_ideal(M2F2, j, "two")
    # concrete failure: E21 * E11 = E21 leaves the line
    assert M2F2.multiply((0, 0, 1, 0), E11) == (0, 0, 1, 0)


@pytest.mark.parametrize("theta", THETAS)
def test_trace_hyperplane_mathieu_when_characteristic_exceeds_size(theta):
    verdict = is_theta_mathieu_bruteforce(M2F3, trace_zero(3), theta)
    assert verdict.is_mathieu
    assert is_theta_mathieu_idempotent(M2F3, trace_zero(3), theta).is_mathieu


@pytest.mark.parametrize("theta", THETAS)
def test_trace_hyperplane_not_mathieu_in_small_characteristic(theta):
    verdict = is_theta_mathieu_bruteforce(M2F2, trace_zero(2), theta)
    assert not verdict.is_mathieu
    ok, reason = verify_mathieu_witness(M2F2, trace_zero(2), theta, verdict.witness)
    assert ok, reason
    assert not is_theta_mathieu_idempotent(M2F2, trace_zero(2), theta).is_mathieu


@pytest.mark.parametrize("theta", THETAS)
def test_nilpotent_line_is_mathieu(theta):
    t = truncated_poly(2, 2)
    j = Subspace(F2, 2, [(0, 1)])
    assert is_theta_mathieu_bruteforce(t, j, theta).is_mathieu
    assert is_theta_mathieu_idempotent(t, j, theta).is_mathieu


def test_corner_line_fails_with_idempotent_witness():
    j = Subspace(F2, 4, [E11])
    verdict = is_theta_mathieu_idempotent(M2F2, j, "left")
    assert not verdict.is_mathieu
    assert verdict.witness["a"] == E11
    ok, _ = verify_mathieu_witness(M2F2, j, "left", verdict.witness)
    assert ok


def test_deciders_agree_on_every_upper_triangular_subspace():
    ut = upper_triangular(2, 2)
    for j in enumerate_subspaces(F2, 3):
        for theta in THETAS:
            assert (is_theta_mathieu_bruteforce(ut, j, theta).is_mathieu
                    == is_theta_mathieu_idempotent(ut, j, theta).is_mathieu)


def test_full_subspace_with_unit_is_mathieu_but_proper_ones_are_not():
    # a proper subspace containing the unit is never Mathieu
    rng = random.Random(23)
    for algebra in (M2F2, upper_triangular(2, 2), truncated_poly(3, 2)):
        for j in enumerate_subspaces(F2, algebra.dim):
            if not j.contains(algebra.unit) or j.is_full():
                continue
            for theta in THETAS:
                assert not is_theta_mathieu_idempotent(algebra, j, theta).is_mathieu


def test_mathieu_with_zero_reference_always_holds():
    col = column_module(M2F2, 2)
    n = Subspace(F2, 2, [(1, 0)])
    for theta in THETAS:
        assert is_module_mathieu(col, n, (0, 0), theta).is_mathieu


def test_mathieu_when_orbit_stays_inside():
    nat = natural_module(truncated_poly(2, 2))
    n = Subspace(F2, 2, [(0, 1)])  # the ideal (x), so A.x is inside
    for theta in THETAS:
        assert is_module_mathieu(nat, n, (0, 1), theta).is_mathieu


def test_mathieu_fails_for_reference_outside_invariant_line():
    col = column_module(M2F2, 2)
    n = Subspace(F2, 2, [(1, 0)])
    for theta in THETAS:
        verdict = is_module_mathieu(col, n, (0, 1), theta)
        assert not verdict.is_mathieu


def test_sigma_tau_of_the_whole_module():
    col = column_module(M2F2, 2)
    full = Subspace.full(F2, 2)
    everything = set(itertools.product(range(2), repeat=2))
    for theta in THETAS:
        assert set(sigma(col, full, theta)) == everything
        assert set(tau(col, full, theta)) == everything


def test_sigma_tau_of_zero_split_by_side():
    col = column_module(M2F2, 2)
    zero = Subspace.zero(F2, 2)
    everything = set(itertools.product(range(2), repeat=2))
    assert set(tau(col, zero, "left")) == everything
    assert set(sigma(col, zero, "left")) == everything
    for theta in ("right", "pre", "two"):
        assert set(tau(col, zero, theta)) == {(0, 0)}
        assert set(sigma(col, zero, theta)) == {(0, 0)}


def test_sigma_inside_tau_and_zero_in_sigma():
    rng = random.Random(31)
    nat = natural_module(upper_triangular(2, 2))
    for _ in range(20):
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(4))]
        n = Subspace(F2, 3, rows)
        for theta in THETAS:
            s = set(sigma(nat, n, theta))
            t = set(tau(nat, n, theta))
            assert (0, 0, 0) in s
            assert s <= t


def test_sets_are_closed_under_scalars():
    nat = natural_module(truncated_poly(2, 3))
    rng = random.Random(37)
    for _ in range(15):
        rows = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(rng.randrange(3))]
        n = Subspace(F3, 2, rows)
        for theta in THETAS:
            t = set(tau(nat, n, theta))
            s = set(sigma(nat, n, theta))
            for c in range(3):
                assert {tuple((c * x) % 3 for x in u) for u in t} <= t
                assert {tuple((c * x) % 3 for x in u) for u in s} <= s


def test_left_stable_set_absorbs_left_multiplication():
    nat = natural_module(upper_triangular(2, 2))
    rng = random.Random(41)
    for _ in range(15):
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(4))]
        n = Subspace(F2, 3, rows)
        s = set(sigma(nat, n, "left"))
        for a in itertools.product(range(2), repeat=3):
            assert {nat.act(a, u) for u in s} <= s


def test_intersecting_subspaces_shrinks_sets_compatibly():
    col = column_module(M2F3, 2)
    rng = random.Random(43)
    for _ in range(15):
        pieces = []
        for _ in range(2):
            rows = [tuple(rng.randrange(3) for _ in range(2))
                    for _ in range(rng.randrange(3))]
            pieces.append(Subspace(F3, 2, rows))
        meet = subspace_intersect(pieces[0], pieces[1])
        for theta in THETAS:
            inter_sigma = set(sigma(col, pieces[0], theta)) & set(sigma(col, pieces[1], theta))
            inter_tau = set(tau(col, pieces[0], theta)) & set(tau(col, pieces[1], theta))
            assert inter_sigma <= set(sigma(col, meet, theta))
            assert inter_tau <= set(tau(col, meet, theta))


def test_reference_shift_commutes_with_the_sets():
    # {a : a.u quasi-stable for N} equals the quasi-stable elements of (N:u)
    nat = natural_module(upper_triangular(2, 2))
    alg_nat = natural_module(nat.algebra)
    rng = random.Random(47)
    for _ in range(10):
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(4))]
        n = Subspace(F2, 3, rows)
        u = tuple(rng.randrange(2) for _ in range(3))
        colon = nat.colon(n, u)
        for theta in THETAS:
            t_set = tau(nat, n, theta)
            lhs_tau = {a for a in itertools.product(range(2), repeat=3)
                       if nat.act(a, u) in t_set}
            assert lhs_tau == set(tau(alg_nat, colon, theta))
            s_set = sigma(nat, n, theta)
            lhs_sigma = {a for a in itertools.product(range(2), repeat=3)
                         if nat.act(a, u) in s_set}
            assert lhs_sigma == set(sigma(alg_nat, colon, theta))


def test_max_submodule_matches_set_intersections():
    nat = natural_module(truncated_poly(3, 2))
    rng = random.Random(53)
    for _ in range(15):
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(4))]
        n = Subspace(F2, 3, rows)
        inside = set(nat.max_submodule(n).elements())
        for theta in THETAS:
            assert {u for u in sigma(nat, n, theta) if n.contains(u)} == inside
            assert {u for u in tau(nat, n, theta) if n.contains(u)} == inside


def test_subspace_is_submodule_iff_inside_its_own_sets():
    nat = natural_module(truncated_poly(2, 2))
    everything = set(itertools.product(range(2), repeat=2))
    for n in enumerate_subspaces(F2, 2):
        n_elems = set(n.elements())
        is_sub = nat.is_submodule(n)
        for theta in THETAS:
            t = set(tau(nat, n, theta))
            s = set(sigma(nat, n, theta))
            assert (n_elems <= t) == is_sub
            assert (n_elems <= s) == is_sub
        # one-sided version forces the full module on the left
        assert (set(tau(nat, n, "left")) == everything) == is_sub
        assert (set(sigma(nat, n, "left")) == everything) == is_sub


def test_irreducible_module_characterization():
    # the column module is irreducible: proper subspaces have tiny stable sets
    col = column_module(M2F2, 2)
    for n in enumerate_subspaces(F2, 2):
        if n.is_full():
            continue
        comp_plus_zero = {u for u in itertools.product(range(2), repeat=2)
                          if not n.contains(u)} | {(0, 0)}
        for theta in THETAS:
            assert set(sigma(col, n, theta)) <= comp_plus_zero
            assert set(tau(col, n, theta)) <= comp_plus_zero
    # a reducible module violates the bound at one of its proper submodules
    nat = natural_module(truncated_poly(2, 2))
    line = Subspace(F2, 2, [(0, 1)])
    assert nat.is_submodule(line)
    assert not (set(tau(nat, line, "two")) <= {(0, 0), (1, 0), (1, 1)})


def test_quasi_stable_modules_have_split_tau():
    # over a quasi-stable algebra, tau is the maximum submodule plus complement
    for algebra in (product_algebra(2, 2), truncated_poly(3, 2), truncated_poly(2, 3)):
        nat = natural_module(algebra)
        p = algebra.field.p
        rng = random.Random(59)
        for _ in range(10):
            rows = [tuple(rng.randrange(p) for _ in range(algebra.dim))
                    for _ in range(rng.randrange(algebra.dim + 1))]
            n = Subspace(algebra.field, algebra.dim, rows)
            inside = set(nat.max_submodule(n).elements())
            complement = {u for u in enumerate_vectors(algebra.field, algebra.dim)
                          if not n.contains(u)}
            for theta in THETAS:
                assert set(tau(nat, n, theta)) == inside | complement


def test_quotient_transfer_of_the_mathieu_property():
    algebra = truncated_poly(3, 2)
    ideal = Subspace(F2, 3, [(0, 0, 1)])
    quot, proj = quotient_algebra(algebra, ideal)
    for j_small in enumerate_subspaces(F2, 2):
        j_big = preimage_subspace(F2, proj, j_small, 3)
        assert ideal.basis[0] in [tuple(r) for r in j_big.basis] or j_big.contains((0, 0, 1))
        for theta in THETAS:
            up = is_theta_mathieu_idempotent(algebra, j_big, theta).is_mathieu
            down = is_theta_mathieu_idempotent(quot, j_small, theta).is_mathieu
            assert up == down


def test_quasi_stable_algebras():
    for algebra in (product_algebra(2, 2), truncated_poly(3, 3)):
        assert all(find_algebra_quasi_stable_violation(algebra, th) is None for th in THETAS)
    assert find_algebra_quasi_stable_violation(M2F2, "two") is not None


def test_quasi_stable_module_matches_algebra_verdict():
    for algebra in (product_algebra(2, 2), truncated_poly(2, 2), M2F2):
        nat = natural_module(algebra)
        for theta in THETAS:
            assert ((find_quasi_stable_violation(nat, theta) is None)
                    == (find_algebra_quasi_stable_violation(algebra, theta) is None))


def test_quasi_stability_transfers_to_other_modules():
    # every module of a quasi-stable algebra is quasi-stable
    base = truncated_poly(3, 2)
    nat = natural_module(base)
    quot, _ = nat.quotient_module(Subspace(F2, 3, [(0, 0, 1)]))
    for theta in THETAS:
        assert find_quasi_stable_violation(quot, theta) is None
    # a non-quasi-stable algebra also fails on its column module
    col = column_module(M2F2, 2)
    for theta in THETAS:
        assert find_quasi_stable_violation(col, theta) is not None


@pytest.mark.parametrize("spec", [
    ["field", 2], ["field", 3], ["field", 5],
    ["product", 2, 2], ["product", 2, 3], ["product", 2, 5], ["product", 3, 2],
    ["truncated", 2, 2], ["truncated", 3, 2], ["truncated", 2, 3], ["truncated", 2, 5],
    ["truncated", 3, 3],
    ["upper", 2, 2], ["upper", 2, 3],
    ["matrix", 2, 2], ["matrix", 2, 3],
], ids=lambda spec: "-".join(map(str, spec)))
def test_stable_classification_results(spec):
    # each closed form agrees with its exhaustive scan on every side
    algebra = builder_spec_to_algebra(spec)
    for theta in THETAS:
        assert is_stable_algebra_classified(algebra) == \
            (find_algebra_stable_violation(algebra, theta) is None)
        assert is_quasi_stable_algebra_classified(algebra) == \
            (find_algebra_quasi_stable_violation(algebra, theta) is None)


def test_unstable_split_pair_has_concrete_witness():
    split3 = product_algebra(2, 3)
    j, witness = find_algebra_stable_violation(split3, "two")
    assert witness is not None
    ok, reason = verify_mathieu_witness(split3, j, "two", witness)
    assert ok, reason
    # the diagonal-avoiding line is such a witness
    line = Subspace(F3, 2, [(1, 2)])
    assert not line.contains(split3.unit)
    assert not is_theta_ideal(split3, line, "two")


def test_witness_sides_must_match_the_selector():
    split3 = product_algebra(2, 3)
    j, witness = find_algebra_stable_violation(split3, "left")
    ok, _ = verify_mathieu_witness(split3, j, "left", witness)
    assert ok
    flipped = dict(witness, left=witness["right"], right=witness["left"])
    ok, reason = verify_mathieu_witness(split3, j, "left", flipped)
    assert not ok and "left" in reason
    # a Mathieu witness with a wrong power index is rejected
    v = is_theta_mathieu_idempotent(matrix_algebra(2, 2), Subspace(F2, 4, [(1, 0, 0, 0)]),
                                    "left")
    bad = dict(v.witness, power=0)
    ok, reason = verify_mathieu_witness(matrix_algebra(2, 2),
                                        Subspace(F2, 4, [(1, 0, 0, 0)]), "left", bad)
    assert not ok


def test_malformed_witness_dicts_are_rejected_without_raising():
    j = Subspace(F2, 4, [E11])
    witness = is_theta_mathieu_idempotent(M2F2, j, "left").witness
    ideal = ideal_violation_witness(M2F2, j, "left")
    assert verify_mathieu_witness(M2F2, j, "left", witness)[0]
    assert verify_mathieu_witness(M2F2, j, "left", ideal)[0]
    no_power = {k: v for k, v in witness.items() if k != "power"}
    no_a = {k: v for k, v in witness.items() if k != "a"}
    no_element = {k: v for k, v in ideal.items() if k != "element"}
    for bad in (no_power, no_a, no_element, dict(witness, power=1.5),
                dict(witness, power="1"), dict(witness, power=None)):
        ok, reason = verify_mathieu_witness(M2F2, j, "left", bad)
        assert not ok and reason



E12, E21 = (0, 1, 0, 0), (0, 0, 1, 0)

# (side, kind of the valid witness, keys it is reshaped with, refusal); the
# valid witness is the decider's for the corner line E11 of M_2(GF(2))
REFUSALS = [
    ("left", "ideal", {"element": None}, "ideal violations need an element"),
    ("left", "ideal", {"element": E12}, "claimed element is not in the subspace"),
    ("left", "ideal", {"left": None}, "ideal violations need a multiplier"),
    ("left", "ideal", {"right": E12}, "left-ideal violations admit only a left multiplier"),
    ("right", "ideal", {"left": E21}, "right-ideal violations admit only a right multiplier"),
    ("left", "mathieu", {"a": None}, "Mathieu violations need an element a"),
    ("left", "mathieu", {"power": "1"}, "witness exponent must be an integer"),
    ("left", "mathieu", {"a": E12},
     "witness element does not have all powers in the subspace"),
    ("left", "mathieu", {"power": 0}, "witness exponent does not reach the power cycle"),
    ("left", "mathieu", {"b": None}, "left violations need exactly a left multiplier"),
    ("left", "mathieu", {"c": E12}, "left violations need exactly a left multiplier"),
    ("right", "mathieu", {"c": None}, "right violations need exactly a right multiplier"),
    ("right", "mathieu", {"b": E21}, "right violations need exactly a right multiplier"),
    ("pre", "mathieu", {"b": None}, "one-sided violation expected"),
    ("pre", "mathieu", {"c": E12}, "one-sided violation expected"),
    ("two", "mathieu", {"b": None}, "two-sided violations need both multipliers"),
    ("two", "mathieu", {"c": None}, "two-sided violations need both multipliers"),
    ("left", "mathieu", {"kind": "idem"}, "unknown witness kind 'idem'"),
    ("left", "mathieu", {"b": E11}, "claimed product actually stays in the subspace"),
    ("left", "ideal", {"left": E11}, "claimed product actually stays in the subspace"),
]


@pytest.mark.parametrize("theta, kind, changes, reason", REFUSALS, ids=[
    f"{theta}-{kind}-" + ",".join(f"{k}={v}" for k, v in changes.items())
    for theta, kind, changes, _reason in REFUSALS])
def test_every_refusal_of_the_revalidator(theta, kind, changes, reason):
    j = Subspace(F2, 4, [E11])
    if kind == "ideal":
        witness = ideal_violation_witness(M2F2, j, theta)
    else:
        witness = is_theta_mathieu_idempotent(M2F2, j, theta).witness
    assert verify_mathieu_witness(M2F2, j, theta, witness)[0]
    assert verify_mathieu_witness(M2F2, j, theta, dict(witness, **changes)) == (False, reason)


def test_a_vector_the_cached_view_does_not_index_gets_its_canonical_answer(monkeypatch):
    """After a brute-force scan caches J's view, a vector written with residues
    >= p is answered as its canonical form is: the re-validator normalizes
    the witness's vectors, so the view answers them all."""
    algebra = matrix_algebra(2, 2)  # fresh: no view cached yet
    j = Subspace(F2, 4, [E11])
    assert not is_theta_mathieu_bruteforce(algebra, j, "left").is_mathieu
    assert _J_VIEWS[algebra].get(j) is not None
    eliminations = []
    in_span = oracles._in_span

    def counting(*args):
        eliminations.append(args[2])
        return in_span(*args)

    monkeypatch.setattr(oracles, "_in_span", counting)
    ideal = ideal_violation_witness(algebra, j, "left")
    mathieu = is_theta_mathieu_idempotent(algebra, j, "left").witness
    # as written, (3, 0, 0, 0) would index past the 16 elements, and (0, 0, 0, 3)
    # would index (0, 0, 1, 1), not E22
    for witness, changes in ((ideal, {"element": (3, 0, 0, 0)}),
                             (ideal, {"element": (2, 1, 0, 0)}),
                             (ideal, {"element": (0, 0, 0, 3)}),
                             (ideal, {"left": (2, 0, 3, 0)}),
                             (mathieu, {"b": (0, 2, 3, 0)})):
        canonical = {k: tuple(x % 2 for x in v) for k, v in changes.items()}
        want = verify_mathieu_witness(algebra, j, "left", dict(witness, **canonical))
        assert eliminations == []  # the view answers every canonical vector
        assert verify_mathieu_witness(algebra, j, "left", dict(witness, **changes)) == want
        assert eliminations == []
        eliminations.clear()


def _naive_first_violation(algebra, theta, method, candidates):
    """The first candidate failing `method`, by the public deciders with no memo."""
    for found, j in candidates:
        if method == "ideal":
            witness = ideal_violation_witness(algebra, j, theta)
        elif method == "brute":
            witness = is_theta_mathieu_bruteforce(algebra, j, theta).witness
        else:
            witness = is_theta_mathieu_idempotent(algebra, j, theta).witness
        if witness is not None:
            return (*found, witness)
    return None


def test_finders_match_a_naive_scan():
    # one algebra serves every side, so the memo holds verdicts of all four
    for algebra in (product_algebra(2, 3), matrix_algebra(2, 2)):
        module = natural_module(algebra)

        def unit_avoiding():
            for j in enumerate_subspaces(algebra.field, algebra.dim):
                if not j.contains(algebra.unit):
                    yield (j,), j

        def outside_pairs():
            for n in enumerate_subspaces(module.field, module.dim):
                for u in enumerate_vectors(module.field, module.dim):
                    if not n.contains(u):
                        yield (n, u), module.colon(n, u)

        for theta in THETAS:
            assert (find_algebra_stable_violation(algebra, theta)
                    == _naive_first_violation(algebra, theta, "ideal", unit_avoiding()))
            assert (find_stable_violation(module, theta)
                    == _naive_first_violation(algebra, theta, "ideal", outside_pairs()))
            for method in ("idem", "brute"):
                assert (find_algebra_quasi_stable_violation(algebra, theta, method)
                        == _naive_first_violation(algebra, theta, method, unit_avoiding()))
                assert (find_quasi_stable_violation(module, theta, method)
                        == _naive_first_violation(algebra, theta, method, outside_pairs()))


def test_sets_fall_back_to_predicates_over_the_cap():
    # M_2(GF(2)) acting on 2 x 3 matrices (row-major): 64 module elements
    # against a cap of 16, which the algebra's 16 elements still fit
    k = 3
    wide = ModuleSpace(M2F2, [
        tuple(tuple(m[r // k][s // k] if r % k == s % k else 0 for s in range(2 * k))
              for r in range(2 * k))
        for m in column_module(M2F2, 2).actions])
    zero = Subspace.zero(F2, 2 * k)
    lazy = tau(wide, zero, "right", cap=16)
    assert not lazy.is_explicit
    assert (0,) * 6 in lazy
    assert (0, 0, 0, 1, 0, 0) not in lazy
    with pytest.raises(ValueError):
        iter(lazy)
    # the decisions enumerate the algebra, so a cap below its 16 elements
    # refuses when the set is built, warm caches or not
    with pytest.raises(EnumerationCapExceeded):
        tau(column_module(M2F2, 2), Subspace.zero(F2, 2), "right", cap=2)


def test_cap_is_enforced_for_deciders():
    with pytest.raises(EnumerationCapExceeded):
        is_theta_mathieu_bruteforce(M2F3, trace_zero(3), "two", cap=10)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(Algebra, name)

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Algebra, name, counted)
    return calls


def test_generic_bruteforce_traces_only_elements_of_j(monkeypatch):
    t = truncated_poly(5, 5)
    assert t.mult_table() is None
    line = Subspace(GF(5), 5, [(0, 0, 0, 0, 1)])
    trajectories = _counting(monkeypatch, "power_trajectory")
    products = _counting(monkeypatch, "multiply")
    assert is_theta_mathieu_bruteforce(t, line, "left").is_mathieu
    # one trajectory per a in J (5 of 3125), and the common cycle (0) is
    # scanned against the 3125 multipliers once, not once per a
    assert {a for (a,) in trajectories} <= set(line.elements())
    assert len(trajectories) <= 5
    assert len(products) < 2 * t.element_count()


def test_indexed_bruteforce_traces_only_elements_of_j(monkeypatch):
    t = truncated_poly(3, 5)
    assert t.mult_table() is not None
    line = Subspace(GF(5), 3, [(0, 0, 1)])
    trajectories = _counting(monkeypatch, "trajectory_indices")
    assert is_theta_mathieu_bruteforce(t, line, "left").is_mathieu
    assert {t.vector_at(idx) for (idx,) in trajectories} <= set(line.elements())
    assert len(trajectories) <= 5



def test_generic_bruteforce_skips_the_products_of_zero(monkeypatch):
    t = truncated_poly(5, 5)
    zero = Subspace(GF(5), 5, [])
    products = _counting(monkeypatch, "multiply")
    for theta in THETAS:
        assert is_theta_mathieu_bruteforce(t, zero, theta).is_mathieu
    # only the trajectory of a = 0 multiplies, 0 * 0 once per decision
    assert len(products) == len(THETAS)


def test_product_masks_are_bounded_reused_and_dropped_with_the_algebra():
    gc.collect()
    held = len(_PRODUCT_MASKS)
    ut = upper_triangular(3, 2)
    spaces = list(enumerate_subspaces(ut.field, ut.dim))

    def decide_all():
        for j in spaces:
            for theta in THETAS:
                is_theta_mathieu_bruteforce(ut, j, theta)
        return sum(map(len, _PRODUCT_MASKS[ut]))

    built = decide_all()
    assert 0 < built <= 3 * ut.element_count()
    assert all(len(masks) <= ut.element_count() for masks in _PRODUCT_MASKS[ut])
    assert len(_PRODUCT_MASKS) == held + 1
    # a warm repeat of the same decisions builds no mask
    assert decide_all() == built
    del ut
    gc.collect()
    assert len(_PRODUCT_MASKS) == held


def test_views_of_j_are_shared_by_value_bounded_and_dropped_with_the_algebra(monkeypatch):
    gc.collect()
    held = len(_J_VIEWS)
    ut = upper_triangular(3, 2)
    rows = [ut.basis_vector(0), ut.basis_vector(3)]

    def decide_on_every_side():
        for theta in THETAS:
            is_theta_mathieu_bruteforce(ut, Subspace(ut.field, ut.dim, rows), theta)
        return list(_J_VIEWS[ut].values())

    # four equal subspaces, one object per side, share one view
    built = decide_on_every_side()
    assert len(built) == 1
    assert len(_J_VIEWS) == held + 1
    # a warm repeat builds none
    assert decide_on_every_side()[0] is built[0]
    # with a budget of ten views, deciding every subspace keeps ten, and the
    # verdicts are those of the algebra that keeps them all
    monkeypatch.setattr(oracles, "VIEW_BUDGET", 10 * ut.element_count())
    small = upper_triangular(3, 2)
    for j in enumerate_subspaces(ut.field, ut.dim):
        assert is_theta_mathieu_bruteforce(small, j, "left") == is_theta_mathieu_bruteforce(
            ut, j, "left"), j.basis
        assert len(_J_VIEWS[small]) <= 10
    assert len(_J_VIEWS[small]) == 10
    assert len(_J_VIEWS) == held + 2
    del ut, small
    gc.collect()
    assert len(_J_VIEWS) == held


def _lie_about(monkeypatch, target):
    """Make the library's membership test lie about `target`: `contains`
    flips its answer for it, and the residual map of every subspace is that
    of the subspace with the target's line added, or with a basis row the
    target needs taken out."""
    contains, build = Subspace.contains, Subspace._build_residual

    def honest(space):
        copy = Subspace(space.field, space.ambient_dim, space.basis)
        build(copy)
        return copy

    def lying_contains(self, v):
        return contains(honest(self), v) != (tuple(v) == target)

    def lying_build(self):
        if contains(honest(self), target):
            i = next(i for i, c in enumerate(self.pivots) if target[c])
            rows = self.basis[:i] + self.basis[i + 1:]
        else:
            rows = self.basis + (target,)
        self._residual = build(Subspace(self.field, self.ambient_dim, rows))
        return self._residual

    monkeypatch.setattr(Subspace, "contains", lying_contains)
    monkeypatch.setattr(Subspace, "_build_residual", lying_build)


def _claimed_product(algebra, witness):
    """The product a witness claims to leave J."""
    if witness["kind"] == "ideal":
        prod, b, c = witness["element"], witness["left"], witness["right"]
    else:
        prod = algebra.power_trajectory(witness["a"]).power(witness["power"])
        b, c = witness["b"], witness["c"]
    prod = prod if b is None else algebra.multiply(b, prod)
    return prod if c is None else algebra.multiply(prod, c)


def _fixed_witnesses(algebra, j, theta, kind):
    """A decider's witness of `kind`, and two invalid ones: with the unit as
    every multiplier, so that the product stays in J, and with a basis vector
    outside J as the element."""
    outside = next(e for e in map(algebra.basis_vector, range(algebra.dim))
                   if not j.contains(e))
    if kind == "ideal":
        valid = ideal_violation_witness(algebra, j, theta)
        keys, element = ("left", "right"), {"element": outside}
    else:
        valid = is_theta_mathieu_bruteforce(algebra, j, theta).witness
        keys, element = ("b", "c"), {"a": outside, "power": 1}
    unit = {k: None if valid[k] is None else algebra.unit for k in keys}
    return [valid, dict(valid, **unit), dict(valid, **element)]


@pytest.mark.parametrize("build, rows, theta, kind, warm", [
    (lambda: matrix_algebra(2, 2), [E11], "left", "mathieu", False),
    (lambda: matrix_algebra(2, 2), [E11], "left", "mathieu", True),
    (lambda: matrix_algebra(2, 2), trace_zero(2).basis, "two", "mathieu", False),
    (lambda: matrix_algebra(2, 2), trace_zero(2).basis, "two", "mathieu", True),
    (lambda: matrix_algebra(2, 3), [E11], "right", "ideal", False),
    (lambda: matrix_algebra(2, 3), [E11], "right", "ideal", True),
    (lambda: product_algebra(2, 3), [(1, 2)], "two", "ideal", False),
    (lambda: matrix_algebra(2, QQ), [E11], "left", "ideal", False),
    (lambda: product_algebra(3, QQ), [(1, 2, 0)], "two", "ideal", False),
], ids=["mathieu-M_2(GF(2))-left-cold", "mathieu-M_2(GF(2))-left-warm",
        "mathieu-M_2(GF(2))-two-cold", "mathieu-M_2(GF(2))-two-warm",
        "ideal-M_2(GF(3))-right-cold", "ideal-M_2(GF(3))-right-warm",
        "ideal-GF(3)^2-two-cold", "ideal-M_2(Q)-left", "ideal-Q^3-two"])
def test_the_revalidator_ignores_a_lying_membership_test(monkeypatch, build, rows, theta, kind,
                                                         warm):
    """The re-validator's answers on fixed valid and invalid witnesses stand
    while `Subspace.contains` and the residual map lie about the claimed
    product or the claimed element: it tests membership with J's view, when
    a brute-force scan has cached one, or by an elimination of its own."""
    algebra = build()
    fixed = _fixed_witnesses(algebra, Subspace(algebra.field, algebra.dim, rows), theta, kind)
    expected = [verify_mathieu_witness(build(), Subspace(algebra.field, algebra.dim, rows),
                                       theta, w) for w in fixed]
    assert [ok for ok, _ in expected] == [True, False, False]
    for witness, want in zip(fixed, expected):
        claimed = witness["element"] if kind == "ideal" else witness["a"]
        targets = (_claimed_product(algebra, witness), tuple(claimed))
        for target in filter(any, targets):  # the zero vector lies in every J
            fresh = build()
            j = Subspace(fresh.field, fresh.dim, rows)
            if warm:
                is_theta_mathieu_bruteforce(fresh, j, theta)
            honest = j.contains(target)
            with monkeypatch.context() as patched:
                _lie_about(patched, target)
                lying = Subspace(fresh.field, fresh.dim, rows)
                assert lying.contains(target) != honest
                assert (not any(lying.reduce(target))) != honest
                assert verify_mathieu_witness(fresh, lying, theta, witness) == want, (
                    witness, target)
            assert (lying in _J_VIEWS.get(fresh, ())) == warm


def test_every_negative_verdict_carries_a_valid_witness():
    rng = random.Random(61)
    for algebra in (M2F2, upper_triangular(2, 2), M2F3):
        p = algebra.field.p
        for _ in range(25):
            rows = [tuple(rng.randrange(p) for _ in range(algebra.dim))
                    for _ in range(rng.randrange(algebra.dim))]
            j = Subspace(algebra.field, algebra.dim, rows)
            for theta in THETAS:
                for decide in (is_theta_mathieu_bruteforce, is_theta_mathieu_idempotent):
                    verdict = decide(algebra, j, theta)
                    if not verdict.is_mathieu:
                        ok, reason = verify_mathieu_witness(algebra, j, theta, verdict.witness)
                        assert ok, (algebra.name, theta, reason)


def test_subspace_enumeration_counts():
    assert len(list(enumerate_subspaces(F2, 2))) == 5
    assert len(list(enumerate_subspaces(F3, 1))) == 2
    assert len(list(enumerate_subspaces(F2, 3))) == 16


def test_trace_hyperplane_is_the_only_codimension_one_mathieu_subspace():
    # characteristic above the matrix size: a unique codimension-one winner
    found = [j for j in enumerate_subspaces(F3, 4) if j.dim == 3
             and is_theta_mathieu_idempotent(M2F3, j, "two").is_mathieu]
    assert found == [trace_zero(3)]


def test_no_codimension_one_mathieu_subspace_in_small_characteristic():
    for j in enumerate_subspaces(F2, 4):
        if j.dim != 3:
            continue
        for theta in THETAS:
            assert not is_theta_mathieu_bruteforce(M2F2, j, theta).is_mathieu


def test_radical_containment_characterizes_two_sided_mathieu():
    # J is two-sided Mathieu iff rad(J) lands in rad((a^-1 J : b)) for all a, b
    for algebra in (truncated_poly(2, 2), product_algebra(2, 2), upper_triangular(2, 2)):
        nat = natural_module(algebra)
        p = algebra.field.p
        elements = list(itertools.product(range(p), repeat=algebra.dim))
        rad_cache = {}

        def radical(j, algebra=algebra, rad_cache=rad_cache):
            if j.basis not in rad_cache:
                rad_cache[j.basis] = set(algebra.radical_of_subspace(j))
            return rad_cache[j.basis]

        for j in enumerate_subspaces(algebra.field, algebra.dim):
            brute = is_theta_mathieu_bruteforce(algebra, j, "two").is_mathieu
            rj = radical(j)
            translated = all(
                rj <= radical(nat.colon(nat.inverse_image(a, j), b))
                for a in elements for b in elements)
            assert brute == translated, (algebra.name, j.basis)


def test_translate_containment_characterizes_ideals():
    # left ideal iff J is inside every a^-1 J; right ideal iff inside every (J:a)
    algebra = upper_triangular(2, 2)
    nat = natural_module(algebra)
    elements = list(itertools.product(range(2), repeat=3))
    for j in enumerate_subspaces(F2, 3):
        left = all(nat.inverse_image(a, j).contains_subspace(j) for a in elements)
        right = all(nat.colon(j, a).contains_subspace(j) for a in elements)
        assert left == is_theta_ideal(algebra, j, "left")
        assert right == is_theta_ideal(algebra, j, "right")


def test_subspaces_of_nil_radical_subspaces_are_mathieu():
    # whenever rad(J) consists of nilpotents, every subspace of J is Mathieu
    for algebra in (truncated_poly(3, 2), upper_triangular(2, 2), M2F2):
        nil = set(algebra.nil_set())
        for j in enumerate_subspaces(F2, algebra.dim):
            if not set(algebra.radical_of_subspace(j)) <= nil:
                continue
            for h in enumerate_subspaces(F2, algebra.dim):
                if not j.contains_subspace(h):
                    continue
                assert is_theta_mathieu_bruteforce(algebra, h, "two").is_mathieu


def test_module_quasi_stability_characterized_by_radical_containments():
    # u is two-sided quasi-stable for N iff rad(N:u) lies in every rad((a^-1 N : b u))
    nat = natural_module(truncated_poly(2, 3))
    algebra = nat.algebra
    elements = list(itertools.product(range(3), repeat=2))
    rng = random.Random(67)
    for _ in range(10):
        rows = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(rng.randrange(3))]
        n = Subspace(F3, 2, rows)
        for u in elements:
            direct = is_module_mathieu(nat, n, u, "two").is_mathieu
            r_colon = set(algebra.radical_of_subspace(nat.colon(n, u)))
            translated = all(
                r_colon <= set(algebra.radical_of_subspace(
                    nat.colon(nat.inverse_image(a, n), nat.act(b, u))))
                for a in elements for b in elements)
            assert direct == translated


def test_tau_over_q_refuses_at_construction():
    nat = natural_module(matrix_algebra(2, QQ))
    line = Subspace(QQ, 4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="finite field"):
        tau(nat, line, "left")


def test_unknown_decider_methods_are_refused_before_any_scan():
    algebra = matrix_algebra(2, 2)
    nat = natural_module(algebra)
    zero = Subspace.zero(F2, 4)
    with pytest.raises(ValueError, match="'bogus'"):
        decide(algebra, trace_zero(2), "two", "bogus", 16)
    with pytest.raises(ValueError, match="'nope'"):
        is_module_mathieu(nat, zero, E11, "two", method="nope")
    with pytest.raises(ValueError, match="'Brute'"):
        tau(nat, zero, "two", method="Brute")
    # "ideal" names the stable scan, not a Mathieu decider
    with pytest.raises(ValueError, match="'ideal'"):
        find_quasi_stable_violation(nat, "two", method="ideal")
    with pytest.raises(ValueError, match="'ideal'"):
        find_algebra_quasi_stable_violation(algebra, "two", method="ideal")
    assert len(algebra._memo) == 0 and algebra._idempotents is None


def test_capped_sets_equal_only_themselves():
    nat = natural_module(matrix_algebra(2, QQ))
    line = Subspace(QQ, 4, [(1, 0, 0, 0)])
    plane = Subspace(QQ, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    s_line, s_plane = sigma(nat, line, "left"), sigma(nat, plane, "left")
    assert not s_line.is_explicit and not s_plane.is_explicit
    # the two sets differ: E_21 is stable for the left ideal of column-one
    # matrices but not for the line through E_11
    assert (0, 0, 1, 0) in s_plane and (0, 0, 1, 0) not in s_line
    assert s_line != s_plane
    assert s_line == s_line
    assert s_line != sigma(nat, line, "left")
    col = column_module(M2F2, 2)
    zero = Subspace.zero(F2, 2)
    assert sigma(col, zero, "left") == sigma(col, zero, "left")
    assert sigma(col, zero, "left") != sigma(col, zero, "left", cap=2)


def test_warm_caches_respect_the_callers_cap():
    algebra = matrix_algebra(2, 3)
    j = Subspace(F3, 4, [E11])
    is_theta_mathieu_idempotent(algebra, j, "left")
    algebra.element_list()
    with pytest.raises(EnumerationCapExceeded):
        is_theta_mathieu_idempotent(algebra, j, "left", cap=10)
    with pytest.raises(EnumerationCapExceeded):
        algebra.idempotents(10)
    with pytest.raises(EnumerationCapExceeded):
        algebra.element_list(10)
    # memoized verdicts: the column module has 9 elements, within the cap,
    # but every decision enumerates the 81 elements of the algebra
    col = column_module(algebra, 2)
    zero = Subspace.zero(F3, 2)
    assert tau(col, zero, "left") == tau(col, zero, "left")
    with pytest.raises(EnumerationCapExceeded):
        tau(col, zero, "left", cap=10)
    assert len(algebra.idempotents(81)) == len(algebra.idempotents())


def test_verdict_memo_stays_at_its_bound(monkeypatch):
    from mathieuspaces import algebras

    spaces = list(enumerate_subspaces(F2, 4))[::5]

    def verdicts(algebra):
        module = natural_module(algebra)
        return [(frozenset(sigma(module, n, theta)), frozenset(tau(module, n, theta)))
                for n in spaces for theta in ("left", "two")]

    expected = verdicts(matrix_algebra(2, 2))
    monkeypatch.setattr(algebras, "VERDICT_MEMO_SIZE", 4)
    algebra = matrix_algebra(2, 2)
    assert verdicts(algebra) == expected
    assert len(algebra._memo) == 4
    # a second pass decides the evicted verdicts again
    assert verdicts(algebra) == expected
    assert len(algebra._memo) == 4


def test_point_query_class_memo_stays_at_its_bound(monkeypatch):
    from fractions import Fraction

    from mathieuspaces import modules

    monkeypatch.setattr(modules, "COLON_CACHE_SIZE", 8)
    algebra = matrix_algebra(2, QQ)
    module = natural_module(algebra)
    one, zero = Fraction(1), Fraction(0)
    n_space = Subspace(QQ, 4, [(one, zero, zero, zero), (zero, one, zero, one)])
    rng = random.Random(7)
    us = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
          for _ in range(30)]
    us += [(one, one, zero, zero), (zero, zero, one, -one), (one, -one, one, -one)]
    us += [tuple(3 * x for x in u) for u in us]  # same classes, after eviction
    expected = [is_theta_ideal(algebra, module.colon(n_space, u), "left") for u in us]
    assert any(expected) and not all(expected)
    stable = sigma(module, n_space, "left")
    assert [u in stable for u in us] == expected
    assert len(module._colons) == 8
    assert [u in stable for u in us] == expected


def test_element_index_survives_point_query_eviction(monkeypatch):
    from mathieuspaces import modules

    monkeypatch.setattr(modules, "COLON_CACHE_SIZE", 3)
    algebra = matrix_algebra(2, 3)
    module = natural_module(algebra)
    elements = list(enumerate_vectors(F3, 4))
    for n_space in list(enumerate_subspaces(F3, 4))[::40]:
        expected = [u for u in elements
                    if is_theta_ideal(algebra, module.colon(n_space, u), "two")]
        for u in elements:  # point queries fill and evict the kernel memo first
            module.colon_cached(n_space, u)
        assert list(sigma(module, n_space, "two")) == expected
        assert list(sigma(module, n_space, "two")) == expected
        assert len(module._colons) <= 3 and len(module._colon_classes) <= 3


def test_full_subspace_is_mathieu_without_a_product(monkeypatch):
    algebra = matrix_algebra(3, 2)
    full = Subspace.full(F2, 9)
    calls = []
    multiply = Algebra.multiply
    monkeypatch.setattr(Algebra, "multiply",
                        lambda self, a, b: calls.append(1) or multiply(self, a, b))
    for theta in THETAS:
        verdict = is_theta_mathieu_idempotent(algebra, full, theta)
        assert verdict.is_mathieu and verdict.witness is None
    assert not calls


def test_full_subspace_still_respects_the_cap_and_the_field():
    algebra = matrix_algebra(3, 2)
    with pytest.raises(EnumerationCapExceeded) as err:
        is_theta_mathieu_idempotent(algebra, Subspace.full(F2, 9), "two", cap=511)
    assert (err.value.count, err.value.cap) == (512, 511)
    assert is_theta_mathieu_idempotent(algebra, Subspace.full(F2, 9), "two", cap=512)
    with pytest.raises(ValueError, match="finite field"):
        is_theta_mathieu_idempotent(matrix_algebra(2, QQ), Subspace.full(QQ, 4), "left")


def test_warm_memo_hit_reads_the_stored_element_count(monkeypatch):
    from mathieuspaces import algebras, linalg
    from mathieuspaces.mathieu import _witness

    algebra = matrix_algebra(2, 3)
    j = Subspace(F3, 4, [E11])
    cold = _witness(algebra, j, "left", "idem", 81)
    calls = []

    def counting(field, dim):
        calls.append(dim)
        return linalg.vector_count(field, dim)

    monkeypatch.setattr(algebras, "vector_count", counting)
    assert _witness(algebra, j, "left", "idem", 81) == cold
    with pytest.raises(EnumerationCapExceeded):
        _witness(algebra, j, "left", "idem", 80)
    assert calls == []
    assert algebra.element_count() == 81
    assert algebra.basis_vector(2) == (0, 0, 1, 0)
    assert algebra.basis_vector(2) is algebra.basis_vector(2)


def test_element_set_membership_is_the_same_explicit_or_not():
    algebra = matrix_algebra(2, 5)
    module = column_module(algebra, 2)
    zero = Subspace.zero(GF(5), 2)
    # (0:u) is the left annihilator of u: always a left ideal, a right one
    # only for u = 0
    for theta, inside in (("left", True), ("right", False)):
        explicit = sigma(module, zero, theta)
        lazy = sigma(module, zero, theta, cap=10)
        assert explicit.is_explicit and not lazy.is_explicit
        for s in (explicit, lazy):
            assert (0, 5) in s and (0, 0) in s and (5, -10) in s
            assert ((1, 2) in s) == ((6, -3) in s) == inside
            for bad in ((1, 2, 3), (1,), (0, 0.5), 5, None):
                with pytest.raises(ValueError):
                    bad in s
