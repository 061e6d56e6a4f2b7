"""The failure paths and entry labels of the verify-paper battery.

The `--no-timing` md5 in the acceptance battery covers passing entries only.
Here the library names that `verify` looks up are replaced by wrong stand-ins,
so every check reaches its failure branch, and the resulting report is pinned.
"""

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mathieuspaces import verify
from mathieuspaces.verify import (
    SUITE,
    Profile,
    check_column_module_sets,
    check_product_weight_hyperplanes,
    check_trace_hyperplane_sets,
    run_suite,
)

SMALL = Profile(primes=(2, 3), subspace_samples=3, pair_samples=24, hom_samples=8,
                eval_configs=60, poly_samples=3, integral_samples=5)


def _inverted(decider):
    def wrong(*args, **kwargs):
        return SimpleNamespace(is_mathieu=not decider(*args, **kwargs).is_mathieu)
    return wrong


def _without_zero(builder):
    def wrong(module, *args, **kwargs):
        return [u for u in builder(module, *args, **kwargs) if any(u)]
    return wrong


def _alternating():
    answers = itertools.cycle([True, False])
    return lambda *args: next(answers)


SCENARIOS = {
    "brute-tau-witness": lambda: {
        "is_theta_mathieu_bruteforce": _inverted(verify.is_theta_mathieu_bruteforce),
        "tau": _without_zero(verify.tau),
        "verify_mathieu_witness": lambda *args: (False, "rejected"),
        "nba_member": _alternating(),
        "exact_integral": lambda f, cfg: Fraction(0),
    },
    "idem-sigma-violation": lambda: {
        "is_theta_mathieu_idempotent": _inverted(verify.is_theta_mathieu_idempotent),
        "sigma": _without_zero(verify.sigma),
        "find_algebra_quasi_stable_violation": lambda *args, **kwargs: None,
        "find_algebra_stable_violation": lambda *args, **kwargs: None,
        "nba_sigma_member": lambda *args: None,
        "nq_sigma_member": lambda *args: None,
    },
}

# md5 of the `--no-timing` JSON of each failing report: which sample fails
# first, its payload and the RNG draws after it are part of the report
PINNED = {
    "brute-tau-witness": "0403f63b97427ab3ecae481655eb7eef",
    "idem-sigma-violation": "8a5f2608446eddac138aaa6f0e8851dc",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_failure_paths_report_is_pinned(monkeypatch, scenario):
    for name, stand_in in SCENARIOS[scenario]().items():
        monkeypatch.setattr(verify, name, stand_in)
    report = run_suite(SMALL)
    failing = {e.check for e in report.entries if not e.passed}
    assert failing == {name for name, _fn in SUITE}
    text = json.dumps(report.to_json(with_timing=False), indent=2, sort_keys=True) + "\n"
    assert hashlib.md5(text.encode()).hexdigest() == PINNED[scenario]


@pytest.mark.parametrize("name, fn", SUITE, ids=[name for name, _fn in SUITE])
def test_entries_carry_their_check_name(name, fn):
    entries = fn(SMALL)
    assert entries
    assert {e.check for e in entries} == {name}


@pytest.mark.parametrize("name, check, profile, why, count", [
    ("column-module-sets", check_column_module_sets, Profile(primes=(2,), element_cap=8),
     "enumeration of 16 elements exceeds cap 8", 4),
    ("trace-hyperplane-sets", check_trace_hyperplane_sets,
     Profile(primes=(5,), element_cap=600), "enumeration of 625 elements exceeds cap 600", 1),
    ("product-weight-hyperplane", check_product_weight_hyperplanes, Profile(primes=(2,)),
     "prime not in the profile", 3),
], ids=["column-module-sets", "trace-hyperplane-sets", "product-weight-hyperplane"])
def test_column_module_skipped_entry_is_labelled(name, check, profile, why, count):
    entries = check(profile)
    assert [(e.check, e.expected, e.computed, e.passed) for e in entries] == [
        (name, "skipped", f"skipped: {why}", True)] * count


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL).to_json(with_timing=False)["entries"]


@pytest.mark.parametrize("cap", [1, 16, 100, 600])
def test_a_cap_turns_entries_into_skipped_ones_and_keeps_the_entry_list(small_report, cap):
    entries = run_suite(dataclasses.replace(SMALL, element_cap=cap)).to_json(
        with_timing=False)["entries"]
    assert [(e["check"], e["instance"]) for e in entries] == [
        (e["check"], e["instance"]) for e in small_report]
    for entry, default in zip(entries, small_report):
        assert entry == default or (
            entry["pass"] and entry["expected"] == "skipped"
            and entry["computed"].startswith("skipped: enumeration of")), entry


def test_max_submodule_entry_fails_when_the_kernel_leaves_the_fixpoint(monkeypatch):
    # N itself as the fixpoint: wrong for every N that is not a submodule
    monkeypatch.setattr(verify, "_fixpoint_submodule",
                        lambda module, n_space: frozenset(n_space.elements()))
    entries = verify.check_max_submodule(SMALL)
    failed = [e for e in entries if not e.passed]
    assert failed
    assert all(set(e.computed) == {"subspace", "fixpoint", "max_submodule"} for e in failed)


@pytest.mark.parametrize("kwargs", [
    {"primes": (4,)},
    {"primes": ()},
    {"primes": [2]},
    {"matrix_sizes": (1,)},  # column-module-sets used to skip it without an entry
    {"element_cap": -5},
    {"pair_samples": 2.5},
    {"primes": (2, 2)},
    {"matrix_sizes": (2, 2)},
])
def test_profile_refuses_bad_values_when_built(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        Profile(**kwargs)

