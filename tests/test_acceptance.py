"""Acceptance battery: one test per exit criterion, exact tolerances, with a
printed pass/fail line each.  All arithmetic is exact so every comparison is
equality; the stated wall-clock budgets are asserted as upper bounds.
"""

import hashlib
import json
import time

from mathieuspaces.verify import (
    Profile,
    check_column_module_sets,
    check_division_algebra_sets,
    check_evaluation_subspace_identities,
    check_functorial_identities,
    check_integration_battery,
    check_max_submodule,
    check_oracle_agreement,
    check_product_weight_hyperplanes,
    check_quasi_stable_classification,
    check_stable_classification,
    check_trace_hyperplane_sets,
    run_suite,
)


def _finish(criterion, entries, budget_s, started):
    elapsed = time.time() - started
    failures = [e for e in entries if not e.passed]
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {criterion}: {status} "
          f"({len(entries)} checks in {elapsed:.1f}s, budget {budget_s}s)")
    assert not failures, [f"{e.instance}: {e.computed}" for e in failures[:3]]
    assert elapsed <= budget_s, f"{criterion} exceeded its {budget_s}s budget"


def test_criterion_01_oracle_equivalence():
    started = time.time()
    profile = Profile(subspace_samples=500)
    entries = check_oracle_agreement(profile)
    # four exhaustive algebras and two sampled matrix algebras, four sides each
    assert len(entries) == 6 * 4
    _finish("1 oracle-equivalence", entries, 300, started)


def test_criterion_02_column_module_classification():
    started = time.time()
    profile = Profile(primes=(2, 3), matrix_sizes=(2, 3))
    entries = check_column_module_sets(profile)
    assert any("n=3" in e.instance for e in entries)
    _finish("2 column-module-classification", entries, 600, started)


def test_criterion_03_trace_hyperplanes():
    started = time.time()
    profile = Profile(primes=(2, 5))
    entries = check_trace_hyperplane_sets(profile)
    assert any("GF(5)" in e.instance for e in entries)
    assert any("GF(2)" in e.instance for e in entries)
    _finish("3 trace-hyperplanes", entries, 900, started)


def test_criterion_04_max_submodule_identity():
    started = time.time()
    profile = Profile(pair_samples=1000)
    entries = check_max_submodule(profile)
    total_pairs = sum(int(e.instance.split(", ")[1].split()[0]) for e in entries)
    assert total_pairs >= 1000
    _finish("4 max-submodule-identity", entries, 300, started)


def test_criterion_05_quasi_stable_classification():
    started = time.time()
    entries = check_quasi_stable_classification(Profile())
    negative = [e for e in entries if e.expected is False]
    assert len(negative) == 2
    for e in negative:
        assert e.witness is not None
        assert e.computed["witness_validated"]
    _finish("5 quasi-stable-classification", entries, 300, started)


def test_criterion_06_stable_classification():
    started = time.time()
    entries = check_stable_classification(Profile())
    negative = [e for e in entries if e.expected is False]
    assert len(negative) == 2
    for e in negative:
        assert e.witness is not None
    _finish("6 stable-classification", entries, 60, started)


def test_criterion_07_product_weight_hyperplanes():
    started = time.time()
    entries = check_product_weight_hyperplanes(Profile(primes=(2, 3, 5)))
    scopes = {e.instance.split(",")[0] for e in entries}
    assert scopes == {"length=2 p=3", "length=2 p=5", "length=3 p=3"}
    _finish("7 product-weight-hyperplanes", entries, 300, started)


def test_criterion_08_evaluation_subspace_identities():
    started = time.time()
    profile = Profile(eval_configs=200, poly_samples=50)
    entries = check_evaluation_subspace_identities(profile)
    assert len(entries) == 4  # 200 configs in batches of 50
    _finish("8 evaluation-identities", entries, 120, started)


def test_criterion_09_integration_battery():
    started = time.time()
    profile = Profile(integral_samples=100)
    entries = check_integration_battery(profile)
    assert len(entries) == 3
    _finish("9 integration-battery", entries, 60, started)


def test_criterion_10_functorial_identities():
    started = time.time()
    profile = Profile(hom_samples=100)
    entries = check_functorial_identities(profile)
    assert len(entries) == 3
    _finish("10 functorial-identities", entries, 300, started)


def test_criterion_11_division_algebra_sets():
    started = time.time()
    entries = check_division_algebra_sets(Profile())
    assert len(entries) == 4  # GF(2), GF(3), GF(5), GF(7)
    _finish("11 division-algebra-sets", entries, 60, started)


def test_full_suite_default_profile_under_budget():
    started = time.time()
    report = run_suite(Profile())
    elapsed = time.time() - started
    print(f"[acceptance] full default suite: "
          f"{'PASS' if report.passed else 'FAIL'} ({elapsed:.1f}s)")
    assert report.passed
    assert elapsed <= 1800  # one-core budget
    # the bytes of `mathieuspaces verify-paper --no-timing`
    text = json.dumps(report.to_json(with_timing=False), indent=2, sort_keys=True) + "\n"
    assert hashlib.md5(text.encode()).hexdigest() == "7404b7e163f427dae27253f54a7e2e6c"
