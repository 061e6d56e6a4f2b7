import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from mathieuspaces.algebras import (
    THETA_ALIASES,
    THETAS,
    field_algebra,
    ideal_violation_witness,
    matrix_algebra,
    normalize_theta,
    quotient_algebra,
    truncated_poly,
    upper_triangular,
)
from mathieuspaces.cli import VERBS, build_parser, main
from mathieuspaces.fields import GF, QQ
from mathieuspaces.linalg import DEFAULT_ELEMENT_CAP, Subspace, enumerate_subspaces
from mathieuspaces.mathieu import is_theta_mathieu_bruteforce, is_theta_mathieu_idempotent
from mathieuspaces.serialize import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    module_from_json,
    module_to_json,
    poly_from_json,
    poly_to_json,
    subspace_from_json,
    witness_from_json,
    witness_to_json,
)
from mathieuspaces.modules import column_module, natural_module
from mathieuspaces.polyspaces import Poly, omega_member
from mathieuspaces.verify import CheckEntry, Profile, VerificationReport, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_json_round_trip():
    a = matrix_algebra(2, 2)
    again = algebra_from_json(algebra_to_json(a))
    assert again.structure == a.structure
    assert again.unit == a.unit
    assert again.field == a.field


def test_module_json_round_trip():
    m = natural_module(truncated_poly(3, 2))
    again = module_from_json(module_to_json(m))
    assert again.actions == m.actions
    assert again.algebra.structure == m.algebra.structure


def test_poly_json_round_trip():
    p = Poly(QQ, 2, {(1, 0): 2, (0, 3): QQ.parse_scalar("1/2")})
    assert poly_from_json(QQ, poly_to_json(p)) == p


def test_nonassociative_json_rejected_with_named_triple():
    t = truncated_poly(3, 2)
    obj = algebra_to_json(t)
    obj["structure"][1][2] = [1, 0, 0]  # x * x^2 must be zero
    with pytest.raises(SchemaError) as err:
        algebra_from_json(obj)
    assert "associativity" in str(err.value)
    assert "basis triple (" in str(err.value)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witness_codec_round_trip(p):
    algebra = upper_triangular(2, p)
    field = algebra.field
    found = {"idem": [], "brute": [], "ideal": []}
    for theta in THETAS:
        for j in enumerate_subspaces(field, algebra.dim):
            for name, witness in (
                    ("idem", is_theta_mathieu_idempotent(algebra, j, theta).witness),
                    ("brute", is_theta_mathieu_bruteforce(algebra, j, theta).witness),
                    ("ideal", ideal_violation_witness(algebra, j, theta))):
                if witness is not None and len(found[name]) < len(THETAS):
                    found[name].append(witness)
    for name, witnesses in found.items():
        assert len(witnesses) == len(THETAS), name
        for w in witnesses:
            obj = json.loads(json.dumps(witness_to_json(field, w)))
            assert obj["power"] == w.get("power")
            assert witness_from_json(field, obj) == w


def test_subspace_json_defaults():
    s = subspace_from_json(GF(2), {"ambient": 3, "basis": [[1, 1, 0], [0, 1, 1]]})
    assert s.dim == 2
    assert subspace_from_json(GF(2), s.to_json()) == s


def test_gen_and_decide_round_trip(tmp_path, capsys):
    alg_path = tmp_path / "m2f2.json"
    code, out, _ = run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2",
                           "--out", str(alg_path))
    assert code == 0
    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps(
        {"ambient": 4, "basis": [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]}))
    code, out, _ = run_cli(capsys, "is-mathieu", "--algebra", str(alg_path),
                           "--subspace", str(sub_path), "--theta", "two")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["witness"]["kind"] == "mathieu"

    witness_path = tmp_path / "w.json"
    witness_path.write_text(json.dumps({
        "algebra_builder": ["matrix", 2, 2],
        "theta": "two",
        "subspace": json.loads(sub_path.read_text()),
        "witness": payload["witness"],
    }))
    code, out, _ = run_cli(capsys, "verify-witness", "--input", str(witness_path))
    assert code == 0
    assert json.loads(out)["result"] is True


def test_bogus_witness_is_rejected_with_exit_one(tmp_path, capsys):
    witness_path = tmp_path / "w.json"
    witness_path.write_text(json.dumps({
        "algebra_builder": ["matrix", 2, 2],
        "theta": "two",
        "subspace": {"ambient": 4, "basis": [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]},
        "witness": {"kind": "mathieu", "a": [1, 0, 0, 1], "b": [0, 0, 1, 0],
                    "c": [0, 0, 0, 1], "power": 1},
    }))
    code, out, _ = run_cli(capsys, "verify-witness", "--input", str(witness_path))
    assert code == 1
    assert json.loads(out)["result"] is False


def test_schema_violation_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2}))
    sub = tmp_path / "s.json"
    sub.write_text(json.dumps({"ambient": 2, "basis": []}))
    code, _, err = run_cli(capsys, "is-mathieu", "--algebra", str(bad),
                           "--subspace", str(sub))
    assert code == 2
    assert "missing key" in err


def test_sigma_tau_cli(tmp_path, capsys):
    alg_path = tmp_path / "m2f2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    mod_path = tmp_path / "col.json"
    run_cli(capsys, "gen", "column-module", "--algebra", str(alg_path), "--n", "2",
            "--out", str(mod_path))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"ambient": 2, "basis": []}))
    code, out, _ = run_cli(capsys, "tau", "--module", str(mod_path),
                           "--subspace", str(zero), "--theta", "right")
    assert code == 0
    assert json.loads(out)["result"]["members"] == [[0, 0]]
    code, out, _ = run_cli(capsys, "sigma", "--module", str(mod_path),
                           "--subspace", str(zero), "--theta", "pre")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["members"] == [[0, 0]]
    assert "note" in payload
    # the note gives the ideal convention for pre; tau decides Mathieu-ness
    code, out, _ = run_cli(capsys, "tau", "--module", str(mod_path),
                           "--subspace", str(zero), "--theta", "pre")
    assert code == 0
    assert "note" not in json.loads(out)


def test_quasi_stable_cli(tmp_path, capsys):
    alg_path = tmp_path / "split.json"
    run_cli(capsys, "gen", "product", "--l", "2", "--p", "2", "--out", str(alg_path))
    code, out, _ = run_cli(capsys, "quasi-stable", "--algebra", str(alg_path))
    assert code == 0
    assert json.loads(out)["result"] is True
    bad_path = tmp_path / "m2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(bad_path))
    code, out, _ = run_cli(capsys, "quasi-stable", "--algebra", str(bad_path))
    assert json.loads(out)["result"] is False
    assert "violation" in json.loads(out)


def test_quasi_stable_cli_method_brute(tmp_path, capsys, monkeypatch):
    import mathieuspaces.mathieu as mathieu

    alg_path, mod_path = tmp_path / "m2.json", tmp_path / "nat.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    run_cli(capsys, "gen", "natural-module", "--algebra", str(alg_path), "--out", str(mod_path))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_theta_mathieu_bruteforce(*args, **kwargs)

    monkeypatch.setattr(mathieu, "is_theta_mathieu_bruteforce", counted)
    for source in (("--algebra", str(alg_path)), ("--module", str(mod_path))):
        argv = ("quasi-stable", *source, "--theta", "left")
        code, idem_out, _ = run_cli(capsys, *argv)
        assert code == 0 and not calls
        code, brute_out, _ = run_cli(capsys, *argv, "--method", "brute")
        assert code == 0 and calls
        assert json.loads(brute_out) == json.loads(idem_out)
        calls.clear()


def test_omega_nba_nq_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "omega", "--alpha", "[1, -1]")
    assert code == 0 and json.loads(out)["result"] is False
    code, out, _ = run_cli(capsys, "omega", "--alpha", "[1, 2]", "--field", "3")
    assert code == 0 and json.loads(out)["result"] is False

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "Q", "points": [[0], [1]], "alpha": [1, 1]}))
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"vars": 1, "terms": [{"exp": [0], "coef": 1}]}))
    code, out, _ = run_cli(capsys, "nba", "tau", "--config", str(cfg), "--poly", str(one))
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run_cli(capsys, "nba", "sigma", "--config", str(cfg), "--poly", str(one))
    assert code == 0 and json.loads(out)["result"] is False

    icfg = tmp_path / "icfg.json"
    icfg.write_text(json.dumps({
        "a": "0", "b": "1", "q": {"vars": 1, "terms": [{"exp": [0], "coef": 1}]}}))
    half = tmp_path / "half.json"
    half.write_text(json.dumps(
        {"vars": 1, "terms": [{"exp": [0], "coef": "-1/2"}, {"exp": [1], "coef": 1}]}))
    code, out, _ = run_cli(capsys, "integral", "--config", str(icfg), "--poly", str(half))
    assert code == 0 and json.loads(out)["result"] == "0"
    code, out, _ = run_cli(capsys, "nq", "tau", "--config", str(icfg), "--poly", str(half))
    assert code == 0 and json.loads(out)["result"] is False


def test_report_failure_gives_exit_one(tmp_path, capsys):
    def failing_check(profile):
        return [CheckEntry(check="rigged", instance="always fails", claim="n/a",
                           expected=True, computed=False, passed=False)]

    report = run_suite(Profile(), checks=[("rigged", failing_check)])
    assert not report.passed
    assert report.to_json()["status"] == "fail"


def test_module_json_with_algebra_path_reference(tmp_path, capsys):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(algebra_to_json(truncated_poly(2, 2))))
    nat = natural_module(truncated_poly(2, 2))
    obj = module_to_json(nat)
    obj["algebra"] = "alg.json"  # relative reference
    mod_path = tmp_path / "mod.json"
    mod_path.write_text(json.dumps(obj))
    loaded = module_from_json(json.loads(mod_path.read_text()), base_dir=str(tmp_path))
    assert loaded.actions == nat.actions
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": 2, "basis": [[0, 1]]}))
    code, out, _ = run_cli(capsys, "tau", "--module", str(mod_path),
                           "--subspace", str(line), "--theta", "two")
    assert code == 0


def test_empty_suite_is_an_empty_passing_report():
    report = run_suite(Profile(), checks=[])
    assert report.passed
    assert report.to_json()["entries"] == []
    assert report.to_json()["status"] == "pass"


def test_fail_entry_witnesses_round_trip_through_verify_witness(tmp_path, capsys):
    from mathieuspaces.verify import check_quasi_stable_classification

    entries = check_quasi_stable_classification(Profile())
    payloads = [e.witness for e in entries if e.witness is not None]
    assert payloads
    for payload in payloads:
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify-witness", "--input", str(path))
        assert code == 0
        assert json.loads(out)["result"] is True


def test_module_level_mathieu_with_reference_element(tmp_path, capsys):
    alg_path = tmp_path / "m2f2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    mod_path = tmp_path / "col.json"
    run_cli(capsys, "gen", "column-module", "--algebra", str(alg_path), "--n", "2",
            "--out", str(mod_path))
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": 2, "basis": [[1, 0]]}))
    code, out, _ = run_cli(capsys, "is-mathieu", "--module", str(mod_path),
                           "--subspace", str(line), "--wrt", "[0, 1]", "--theta", "left")
    assert code == 0
    assert json.loads(out)["result"] is False
    code, out, _ = run_cli(capsys, "is-mathieu", "--module", str(mod_path),
                           "--subspace", str(line), "--wrt", "[0, 0]", "--theta", "left")
    assert code == 0
    assert json.loads(out)["result"] is True


def test_report_determinism_modulo_timing():
    profile = Profile(primes=(2,), subspace_samples=5, pair_samples=12,
                      hom_samples=4, eval_configs=4, integral_samples=5)
    a = run_suite(profile).to_json(with_timing=False)
    b = run_suite(profile).to_json(with_timing=False)
    assert a == b


def test_text_report_without_timing_is_byte_stable(tmp_path, capsys):
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps({"primes": [2], "subspace_samples": 5, "pair_samples": 12,
                                "hom_samples": 4, "eval_configs": 4, "integral_samples": 5}))
    argv = ("verify-paper", "--profile", str(prof), "--format", "text", "--no-timing")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv) == (0, first, "")
    assert "ms)" not in first
    entry = CheckEntry(check="c", instance="i", claim="", expected=True, computed=True,
                       passed=True, runtime_ms=12.3)
    report = VerificationReport([entry])
    assert report.to_text().splitlines()[0] == "[PASS] c :: i (12 ms)"
    assert report.to_text(with_timing=False).splitlines()[0] == "[PASS] c :: i"
    skipped = CheckEntry(check="c", instance="i", claim="", expected="skipped",
                         computed="skipped: enumeration of 9 elements exceeds cap 8", passed=True)
    assert VerificationReport([skipped]).to_text().splitlines() == [
        "[SKIP] c :: i (skipped: enumeration of 9 elements exceeds cap 8)", "1 passed, 0 failed"]


def test_gen_opposite_and_quotient(tmp_path, capsys):
    alg_path = tmp_path / "t32.json"
    run_cli(capsys, "gen", "truncated", "--k", "3", "--p", "2", "--out", str(alg_path))
    code, out, _ = run_cli(capsys, "gen", "opposite", "--algebra", str(alg_path))
    assert code == 0
    opp = algebra_from_json(json.loads(out))
    assert opp.structure == truncated_poly(3, 2).structure  # commutative: self-opposite
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"ambient": 3, "basis": [[0, 0, 1]]}))
    code, out, _ = run_cli(capsys, "gen", "quotient", "--algebra", str(alg_path),
                           "--ideal", str(ideal))
    assert code == 0
    quot = algebra_from_json(json.loads(out))
    assert quot.dim == 2
    # quotienting by a non-ideal is a usage error
    bad = tmp_path / "notideal.json"
    bad.write_text(json.dumps({"ambient": 3, "basis": [[1, 0, 0]]}))
    code, _, err = run_cli(capsys, "gen", "quotient", "--algebra", str(alg_path),
                           "--ideal", str(bad))
    assert code == 2
    assert "ideal" in err


def test_nba_over_prime_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"field": {"p": 3}, "points": [[0], [1]], "alpha": [1, 2]}))
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"vars": 1, "terms": [{"exp": [0], "coef": 1}]}))
    code, out, _ = run_cli(capsys, "nba", "tau", "--config", str(cfg), "--poly", str(one))
    assert code == 0
    assert json.loads(out)["result"] is False  # 1 + 2 = 0 mod 3
    code, out, _ = run_cli(capsys, "nba", "member", "--config", str(cfg), "--poly", str(one))
    assert code == 0
    assert json.loads(out)["result"] is True


def test_nba_sparse_huge_degree_poly(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"field": {"p": 5}, "points": [[0], [1]], "alpha": [1, 1]}))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vars": 1, "terms": [{"exp": [10 ** 9], "coef": 1}]}))
    code, out, _ = run_cli(capsys, "nba", "tau", "--config", str(cfg), "--poly", str(big))
    assert code == 0
    assert json.loads(out)["result"] is True  # twist (0, 1)
    code, out, _ = run_cli(capsys, "nba", "member", "--config", str(cfg), "--poly", str(big))
    assert code == 0
    assert json.loads(out)["result"] is False


def test_nba_member_rejects_a_poly_of_the_wrong_arity(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"p": 5}, "points": [[0], [1]], "alpha": [1, 1]}))
    bivariate = tmp_path / "bivariate.json"
    bivariate.write_text(json.dumps({"vars": 2, "terms": [{"exp": [1, 0], "coef": 1}]}))
    for predicate in ("member", "sigma", "tau"):
        code, out, err = run_cli(capsys, "nba", predicate, "--config", str(cfg),
                                 "--poly", str(bivariate))
        assert code == 2 and out == ""
        assert "polynomial does not match the configuration" in err
        assert "Traceback" not in err


def test_omega_cli_and_library_agree_on_unreduced_residues(capsys):
    code, out, _ = run_cli(capsys, "omega", "--field", "5", "--alpha", "[5, 1]")
    assert code == 0 and json.loads(out)["result"] is True
    assert omega_member([5, 1], GF(5)) is True


def test_rational_subspace_round_trip():
    s = subspace_from_json(QQ, {"ambient": 2, "basis": [["1/2", 1]]})
    assert s.basis == ((QQ.parse_scalar("1"), QQ.parse_scalar("2")),)
    assert subspace_from_json(QQ, s.to_json()) == s


def test_unknown_profile_keys_are_usage_errors(tmp_path, capsys):
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps({"primes": [2], "bogus_knob": 4}))
    code, _, err = run_cli(capsys, "verify-paper", "--profile", str(prof))
    assert code == 2
    assert "bogus_knob" in err


@pytest.mark.parametrize("obj,named", [
    ({"primes": 4}, "primes"),
    ({"primes": [2, "3"]}, "primes"),
    ({"matrix_sizes": [1.5]}, "matrix_sizes"),
    ({"element_cap": "x"}, "element_cap"),
    ({"seed": "abc"}, "seed"),
    ({"seed": True}, "seed"),
    ({"hom_samples": -1}, "hom_samples"),
    ({"matrix_sizes": [1]}, "matrix_sizes"),
    ({"matrix_sizes": [-2]}, "matrix_sizes"),
    ({"matrix_sizes": []}, "matrix_sizes"),
    ({"primes": []}, "primes"),
    ({"primes": [4]}, "primes"),
    ([1, 2], "JSON object"),
])
def test_malformed_profiles_are_usage_errors(tmp_path, capsys, obj, named):
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "verify-paper", "--profile", str(prof))
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def _perfbench_profile():
    """The scaled profile of the benchmark's verify-paper workload, read from
    its source as a literal."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "verify_paper.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PROFILE":
            return ast.literal_eval(node.value)
    raise AssertionError("no PROFILE in the verify-paper workload")


def test_a_negative_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--cap", "-5")
    assert (code, out) == (2, "")
    assert "element_cap" in err


def test_an_explicit_cap_overrides_the_profile_even_at_the_default(tmp_path, capsys):
    sizes = {"primes": [5], "subspace_samples": 5, "pair_samples": 12, "hom_samples": 4,
             "eval_configs": 4, "integral_samples": 5}
    capped, uncapped = tmp_path / "capped.json", tmp_path / "uncapped.json"
    capped.write_text(json.dumps({**sizes, "element_cap": 600}))
    uncapped.write_text(json.dumps({**sizes, "element_cap": DEFAULT_ELEMENT_CAP}))
    argv = ("verify-paper", "--no-timing", "--profile")
    at_default = run_cli(capsys, *argv, str(uncapped))
    assert at_default[0] == 0
    assert run_cli(capsys, *argv, str(capped), "--cap", str(DEFAULT_ELEMENT_CAP)) == at_default
    # without --cap the profile's cap holds, and 600 skips the GF(5) trace hyperplanes
    assert run_cli(capsys, *argv, str(capped)) != at_default


def test_a_small_cap_skips_entries_and_still_reports_the_whole_battery(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--no-timing", "--cap", "100")
    report = json.loads(out)
    assert (code, report["status"], len(report["entries"])) == (0, "pass", 81)
    assert "Traceback" not in err


def test_default_and_benchmark_profiles_load():
    default = json.loads(json.dumps(dataclasses.asdict(Profile())))
    assert Profile.from_json(default) == Profile()
    scaled = _perfbench_profile()
    assert Profile.from_json(json.loads(json.dumps(scaled))) == Profile(**scaled)
    assert Profile.from_json({"seed": -5}).seed == -5


@pytest.mark.parametrize("subspace", [
    {"ambient": 99, "basis": []},
    {"ambient": "4", "basis": []},
    {"ambient": -3, "basis": []},
])
def test_is_ideal_refuses_a_subspace_outside_the_algebra(tmp_path, capsys, subspace):
    alg_path = tmp_path / "m2f2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    sub_path = tmp_path / "j.json"
    sub_path.write_text(json.dumps(subspace))
    code, out, err = run_cli(capsys, "is-ideal", "--algebra", str(alg_path),
                             "--subspace", str(sub_path))
    assert (code, out) == (2, "")
    # an ambient that is no integer is refused by the schema, a negative one by
    # `Subspace` itself, and both before the algebra sees them
    ambient = subspace["ambient"]
    if ambient == 99:
        assert "does not live in this algebra" in err
        j = Subspace(GF(2), ambient, [])
        with pytest.raises(ValueError, match="does not live in this algebra"):
            ideal_violation_witness(matrix_algebra(2, 2), j, "two")
        return
    assert ("subspace.ambient: expected an integer" if ambient == "4"
            else "subspace: ambient dimension") in err
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace(GF(2), ambient, [])


@pytest.mark.parametrize("ambient", [4.0, True], ids=["float", "bool"])
def test_subspace_refuses_an_ambient_that_is_no_integer(ambient):
    # 4.0 == 4 and True == 1, so either would pass the deciders' dimension check
    with pytest.raises(ValueError, match=f"ambient dimension .*got {ambient!r}"):
        Subspace(GF(2), ambient, [])


@pytest.mark.parametrize("ambient", [4.0, True], ids=["float", "bool"])
def test_is_ideal_refuses_an_ambient_that_is_no_integer(tmp_path, capsys, ambient):
    alg_path = tmp_path / "m2f2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    sub_path = tmp_path / "j.json"
    sub_path.write_text(json.dumps({"ambient": ambient, "basis": []}))
    code, out, err = run_cli(capsys, "is-ideal", "--algebra", str(alg_path),
                             "--subspace", str(sub_path))
    assert (code, out) == (2, "")
    assert f"subspace.ambient: expected an integer, got {ambient!r}" in err
    with pytest.raises(SchemaError, match="subspace.ambient"):
        subspace_from_json(GF(2), {"ambient": ambient, "basis": []})


@pytest.mark.parametrize("kind", ["algebra", "module"])
@pytest.mark.parametrize("algebra, dim", [
    (matrix_algebra(2, 2), 4.0),
    (field_algebra(2), True),
    (matrix_algebra(2, 2), "4"),
], ids=["float", "bool", "string"])
def test_a_dim_that_is_no_integer_is_refused(tmp_path, capsys, kind, algebra, dim):
    # 4.0 == 4 and True == 1, so only the type tells them from the true dimension
    obj = algebra_to_json(algebra) if kind == "algebra" else module_to_json(natural_module(algebra))
    obj["dim"] = dim
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(obj))
    sub_path = tmp_path / "n.json"
    sub_path.write_text(json.dumps({"ambient": algebra.dim, "basis": []}))
    verb = "is-ideal" if kind == "algebra" else "max-submodule"
    code, out, err = run_cli(capsys, verb, f"--{kind}", str(path), "--subspace", str(sub_path))
    assert (code, out) == (2, "")
    assert f"{kind}.dim: expected an integer, got {dim!r}" in err


@pytest.mark.parametrize("check", [
    lambda a, j: ideal_violation_witness(a, j, "left"),
    lambda a, j: is_theta_mathieu_bruteforce(a, j, "two"),
    lambda a, j: is_theta_mathieu_idempotent(a, j, "two"),
    lambda a, j: a.radical_of_subspace(j),
    lambda a, j: quotient_algebra(a, j),
], ids=["ideal", "brute", "idem", "radical", "quotient"])
def test_every_subspace_consumer_of_an_algebra_checks_where_it_lives(check):
    algebra = matrix_algebra(2, 2)
    for j in (Subspace(GF(2), 3, []), Subspace(GF(3), 4, []), Subspace(GF(2), 5, [])):
        with pytest.raises(ValueError, match="does not live in this algebra"):
            check(algebra, j)
    with pytest.raises(ValueError, match="ambient dimension"):  # refused before any check
        Subspace(GF(2), -3, [])


def test_deciders_over_q_refuse_the_field_before_the_subspace():
    algebra = matrix_algebra(2, QQ)
    for decide in (is_theta_mathieu_bruteforce, is_theta_mathieu_idempotent):
        with pytest.raises(ValueError, match="finite field"):
            decide(algebra, Subspace(QQ, 3, []), "two")


def test_theta_choices_are_the_alias_table(tmp_path, capsys):
    alg_path = tmp_path / "m2f2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    sub_path = tmp_path / "zero.json"
    sub_path.write_text(json.dumps({"ambient": 4, "basis": []}))
    for theta in THETA_ALIASES:
        code, out, _ = run_cli(capsys, "is-ideal", "--algebra", str(alg_path),
                               "--subspace", str(sub_path), "--theta", theta)
        assert code == 0 and json.loads(out)["result"] is True
    help_text = _subparsers(build_parser("tau"))["tau"].format_help()
    assert "twosided" in help_text


def test_max_submodule_and_radical_cli(tmp_path, capsys):
    alg_path = tmp_path / "t22.json"
    run_cli(capsys, "gen", "truncated", "--k", "2", "--p", "2", "--out", str(alg_path))
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": 2, "basis": [[0, 1]]}))
    code, out, _ = run_cli(capsys, "max-submodule", "--algebra", str(alg_path),
                           "--subspace", str(line))
    assert code == 0
    assert json.loads(out)["result"]["basis"] == [[0, 1]]
    code, out, _ = run_cli(capsys, "radical", "--algebra", str(alg_path),
                           "--subspace", str(line))
    assert code == 0
    assert json.loads(out)["result"]["members"] == [[0, 0], [0, 1]]


def test_is_mathieu_wrt_without_module_is_a_usage_error(tmp_path, capsys):
    alg_path = tmp_path / "m2f2.json"
    run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": 4, "basis": [[1, 0, 0, 0]]}))
    code, out, err = run_cli(capsys, "is-mathieu", "--algebra", str(alg_path),
                             "--subspace", str(line), "--wrt", "[0, 1, 0, 0]")
    assert code == 2
    assert out == ""
    assert "--wrt needs --module" in err


def test_tau_over_q_exits_two_without_traceback(tmp_path, capsys):
    alg_path = tmp_path / "m2q.json"
    alg_path.write_text(json.dumps(algebra_to_json(matrix_algebra(2, QQ))))
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": 4, "basis": [[1, 0, 0, 0]]}))
    code, out, err = run_cli(capsys, "tau", "--algebra", str(alg_path),
                             "--subspace", str(line))
    assert code == 2
    assert out == ""
    assert "finite field" in err and "Traceback" not in err
    # sigma over Q stays a membership predicate
    code, out, _ = run_cli(capsys, "sigma", "--algebra", str(alg_path),
                           "--subspace", str(line))
    assert code == 0
    assert json.loads(out)["result"] == {"capped": True}


def test_tau_over_the_cap_exits_two_as_is_mathieu_does(tmp_path, capsys):
    # M_3(GF(2)) has 512 elements: every decision would enumerate them, so tau
    # refuses when it builds the set instead of returning a predicate
    alg_path = tmp_path / "m3.json"
    alg_path.write_text(json.dumps(algebra_to_json(matrix_algebra(3, 2))))
    zero = tmp_path / "z9.json"
    zero.write_text(json.dumps({"ambient": 9, "basis": []}))
    for verb in ("tau", "is-mathieu"):
        code, out, err = run_cli(capsys, verb, "--algebra", str(alg_path),
                                 "--subspace", str(zero), "--cap", "511")
        assert code == 2, verb
        assert out == ""
        assert "enumeration of 512 elements exceeds cap 511" in err and "Traceback" not in err


@pytest.mark.parametrize("missing", ["subspace", "witness", "witness.a", "witness.power"])
def test_witness_file_without_a_key_exits_two(tmp_path, capsys, missing):
    obj = {
        "algebra_builder": ["matrix", 2, 2],
        "subspace": {"ambient": 4, "basis": [[1, 0, 0, 1]]},
        "witness": {"kind": "mathieu", "a": [1, 0, 0, 1], "power": 1},
    }
    *outer, missing = missing.split(".")
    del (obj[outer[0]] if outer else obj)[missing]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify-witness", "--input", str(path))
    assert code == 2
    assert out == ""
    assert f"missing key {missing!r}" in err


@pytest.mark.parametrize("spec", [["matrix", 2], ["matrix", "2", 2], ["matrix", 2, 2, 7],
                                  "matrix", ["product", 0, 3]])
def test_witness_file_with_a_malformed_builder_exits_two(tmp_path, capsys, spec):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "algebra_builder": spec,
        "subspace": {"ambient": 4, "basis": [[1, 0, 0, 1]]},
        "witness": {"kind": "mathieu", "a": [1, 0, 0, 1], "power": 1},
    }))
    code, out, err = run_cli(capsys, "verify-witness", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "builder" in err and "unknown builder 'm'" not in err


def test_witness_with_a_non_integer_power_exits_two(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "algebra_builder": ["matrix", 2, 2],
        "subspace": {"ambient": 4, "basis": [[1, 0, 0, 1]]},
        "witness": {"kind": "mathieu", "a": [1, 0, 0, 1], "power": 1.5},
    }))
    code, _, err = run_cli(capsys, "verify-witness", "--input", str(path))
    assert code == 2
    assert "witness.power: expected an integer" in err


@pytest.mark.parametrize("argv, message", [
    (["matrix", "--p", "2"], "gen matrix needs --n"),
    (["product", "--p", "2"], "gen product needs --l"),
    (["truncated", "--p", "2"], "gen truncated needs --k"),
    (["upper", "--p", "2"], "gen upper needs --n"),
    (["opposite"], "gen opposite needs --algebra"),
    (["matrix", "--n", "0", "--p", "3"], "matrix size must be a positive integer, got 0"),
    (["matrix", "--n", "-2", "--p", "3"], "matrix size must be a positive integer, got -2"),
    (["product", "--l", "0", "--p", "2"], "number of components must be a positive integer"),
    (["upper", "--n", "0", "--p", "2"], "matrix size must be a positive integer, got 0"),
    (["truncated", "--k", "0", "--p", "2"], "truncation exponent must be a positive integer"),
    (["truncated", "--k", "0"], "truncation exponent must be a positive integer"),
])
def test_gen_without_its_size_argument_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_gen_without_a_prime_builds_over_q(capsys):
    code, out, _ = run_cli(capsys, "gen", "matrix", "--n", "2")
    assert code == 0
    assert json.loads(out)["field"] == "Q"


def test_gen_quotient_and_column_module_need_their_inputs(tmp_path, capsys):
    alg_path = tmp_path / "t32.json"
    run_cli(capsys, "gen", "truncated", "--k", "3", "--p", "2", "--out", str(alg_path))
    code, _, err = run_cli(capsys, "gen", "quotient", "--algebra", str(alg_path))
    assert code == 2 and "gen quotient needs --ideal" in err
    code, _, err = run_cli(capsys, "gen", "column-module", "--algebra", str(alg_path))
    assert code == 2 and "gen column-module needs --n" in err


def test_package_runs_as_a_module(tmp_path):
    import os
    import subprocess
    import sys

    import mathieuspaces

    src = os.path.dirname(os.path.dirname(mathieuspaces.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mathieuspaces", "gen", "field", "--p", "3"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert algebra_from_json(json.loads(done.stdout)).dim == 1


def test_pool_size_is_clamped(monkeypatch):
    from mathieuspaces import verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    assert verify._pool_size(10 ** 6, 11) == 4
    assert verify._pool_size(10 ** 6, 2) == 2
    assert verify._pool_size(3, 11) == 3
    assert verify._pool_size(0, 11) == 1
    assert verify._pool_size(8, 0) == 1
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert verify._pool_size(8, 11) == 1


def test_explicit_checks_run_in_parallel_with_the_serial_report(monkeypatch):
    import multiprocessing

    from mathieuspaces import verify

    checks = [("division-algebra-sets", verify.check_division_algebra_sets),
              ("product-weight-hyperplane", verify.check_product_weight_hyperplanes)]
    profile = Profile(primes=(2,), subspace_samples=5, pair_samples=12,
                      hom_samples=4, eval_configs=4, integral_samples=5, element_cap=4)
    serial = run_suite(profile, checks=checks).to_json(with_timing=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    pools = []
    real_pool = multiprocessing.Pool

    def recording_pool(n):
        pools.append(n)
        return real_pool(n)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    parallel = run_suite(profile, checks=checks, jobs=2).to_json(with_timing=False)
    assert pools == [2]
    assert serial["entries"] and parallel == serial


@pytest.mark.parametrize("terms", [
    [{"exp": 1, "coef": 1}],
    [{"exp": [1.5], "coef": 1}],
    [{"exp": ["2"], "coef": 1}],
    [{"exp": [True], "coef": 1}],
    [{"exp": [[1]], "coef": 1}],
    [{"exp": [-1], "coef": 1}],
    [{"exp": [1, 0], "coef": 1}],
    {"exp": [1], "coef": 1},
    7,
])
def test_malformed_poly_exits_two(tmp_path, capsys, terms):
    _assert_poly_rejected(tmp_path, capsys, {"vars": 1, "terms": terms})


@pytest.mark.parametrize("nvars", ["1", True, -1, 1.0, None])
def test_poly_with_a_bad_variable_count_exits_two(tmp_path, capsys, nvars):
    _assert_poly_rejected(tmp_path, capsys, {"vars": nvars, "terms": []})


def _assert_poly_rejected(tmp_path, capsys, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "Q", "points": [[0], [1]], "alpha": [1, -1]}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "nba", "member", "--config", str(cfg), "--poly", str(poly))
    assert code == 2
    assert "Traceback" not in err
    with pytest.raises(SchemaError):
        poly_from_json(QQ, obj)


def test_duplicate_poly_terms_are_summed(tmp_path, capsys):
    assert poly_from_json(QQ, {"vars": 1, "terms": [
        {"exp": [1], "coef": "1"}, {"exp": [1], "coef": "-1"}]}).is_zero()
    assert poly_from_json(GF(3), {"vars": 1, "terms": [
        {"exp": [2], "coef": 2}, {"exp": [0], "coef": 1}, {"exp": [2], "coef": 2}]}) \
        == Poly(GF(3), 1, {(2,): 1, (0,): 1})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "Q", "points": [[0], [1]], "alpha": [1, -1]}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"vars": 1, "terms": [
        {"exp": [1], "coef": "1"}, {"exp": [1], "coef": "-1"}]}))
    code, out, _ = run_cli(capsys, "nba", "member", "--config", str(cfg), "--poly", str(zero))
    assert code == 0 and json.loads(out)["result"] is True


# -- one verb, one parser ------------------------------------------------------------


def _subparsers(parser):
    """verb -> subparser, for the verbs `parser` was built with."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("verb", list(VERBS))
def test_a_lone_verb_parser_has_the_full_parsers_help(verb):
    lone = _subparsers(build_parser(verb))
    assert list(lone) == [verb]
    assert lone[verb].format_help() == _subparsers(build_parser())[verb].format_help()


# One argv per verb that parses; its last two tokens are a required option and
# its value, so dropping them leaves the option out.
_VALID = {
    "gen": ["gen", "matrix", "--p", "3", "--n", "2"],
    "is-ideal": ["is-ideal", "--algebra", "m.json", "--subspace", "h.json"],
    "is-mathieu": ["is-mathieu", "--algebra", "m.json", "--subspace", "h.json"],
    "sigma": ["sigma", "--module", "col.json", "--subspace", "zero.json"],
    "tau": ["tau", "--module", "col.json", "--subspace", "zero.json"],
    "max-submodule": ["max-submodule", "--module", "col.json", "--subspace", "zero.json"],
    "radical": ["radical", "--algebra", "m.json", "--subspace", "h.json"],
    "quasi-stable": ["quasi-stable", "--theta", "left", "--algebra", "m.json"],
    "omega": ["omega", "--alpha", "[1, -1]"],
    "nba": ["nba", "tau", "--config", "cfg.json", "--poly", "one.json"],
    "nq": ["nq", "tau", "--config", "icfg.json", "--poly", "one.json"],
    "integral": ["integral", "--config", "icfg.json", "--poly", "one.json"],
    "verify-paper": ["verify-paper", "--no-timing", "--profile", "prof.json"],
    "verify-witness": ["verify-witness", "--input", "w.json"],
}
# verify-paper has no required option, so it leaves out the value of one
_MISSING = {"verify-paper": ["verify-paper", "--profile"]}
# an int option of the verb; --cap is an unrecognized argument where the verb has none
_INT_OPTION = {"gen": "--n", "verify-paper": "--jobs"}


def _write_corpus_files(directory):
    m22 = matrix_algebra(2, 2)
    h = {"ambient": 4, "basis": [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]}
    one = {"vars": 1, "terms": [{"exp": [0], "coef": 1}]}
    files = {
        "m.json": algebra_to_json(m22),
        "col.json": module_to_json(column_module(m22, 2)),
        "h.json": h,
        "zero.json": {"ambient": 2, "basis": []},
        "cfg.json": {"field": "Q", "points": [[0], [1]], "alpha": [1, 1]},
        "icfg.json": {"a": "0", "b": "1", "q": one},
        "one.json": one,
        "prof.json": {"primes": [2], "subspace_samples": 5, "pair_samples": 12,
                      "hom_samples": 4, "eval_configs": 4, "integral_samples": 5},
        "w.json": {"algebra_builder": ["matrix", 2, 2], "theta": "two", "subspace": h,
                   "witness": {"kind": "mathieu", "a": [1, 0, 0, 1], "b": [0, 0, 1, 0],
                               "c": [0, 0, 0, 1], "power": 1}},
    }
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj))


def _main_with_the_full_parser(argv):
    """What `main` did when every call built the parser of every verb."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(capsys, run, argv):
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_CORPUS = [[], ["--help"], ["frobnicate"]] + [
    argv for verb, valid in _VALID.items() for argv in (
        valid,
        _MISSING.get(verb, valid[:-2]),
        valid + ["--format", "xml"],
        valid + [_INT_OPTION.get(verb, "--cap"), "x"],
        valid + ["--bogus"],
    )]


@pytest.mark.parametrize("argv", _CORPUS, ids=" ".join)
def test_main_answers_as_the_full_parser_does(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    _write_corpus_files(tmp_path)
    assert _outcome(capsys, main, argv) == _outcome(capsys, _main_with_the_full_parser, argv)


def test_each_call_builds_the_parser_of_its_verb_alone(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    for _ in range(2):  # a parser kept between calls would build none the second time
        built.clear()
        assert main(["omega", "--alpha", "[1, 2]"]) == 0
        assert built == ["omega"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == list(VERBS)
    usage = capsys.readouterr().out
    assert all(verb in usage for verb in VERBS)


@pytest.mark.parametrize("theta", [["left"], {"side": "left"}, 2])
def test_a_non_string_side_selector_exits_two(tmp_path, capsys, theta):
    with pytest.raises(ValueError, match="unknown side selector"):
        normalize_theta(theta)
    _write_corpus_files(tmp_path)
    witness = json.loads((tmp_path / "w.json").read_text())
    witness["theta"] = theta
    (tmp_path / "w.json").write_text(json.dumps(witness))
    code, out, err = run_cli(capsys, "verify-witness", "--input", str(tmp_path / "w.json"))
    assert code == 2 and out == ""
    assert f"unknown side selector {theta!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("u", [(1,), (1, 0, 0)])
def test_a_module_element_of_the_wrong_length_is_refused(tmp_path, capsys, u):
    module = column_module(matrix_algebra(2, 2), 2)
    zero = subspace_from_json(module.field, {"ambient": 2, "basis": []})
    message = f"module element has {len(u)} coordinates, expected 2"
    for colon in (module.colon, module.colon_cached):
        with pytest.raises(ValueError, match=message):
            colon(zero, u)
    with pytest.raises(ValueError, match="algebra element has 3 coordinates, expected 4"):
        module.action_matrix((1, 0, 0))
    _write_corpus_files(tmp_path)
    code, out, err = run_cli(capsys, "is-mathieu", "--module", str(tmp_path / "col.json"),
                             "--subspace", str(tmp_path / "zero.json"),
                             "--wrt", json.dumps(list(u)))
    assert code == 2 and out == ""
    assert message in err


def test_a_malformed_action_row_or_structure_cell_is_a_schema_error(tmp_path, capsys):
    m22 = matrix_algebra(2, 2)
    algebra = algebra_to_json(m22)
    algebra["structure"][0][1] = [0, 1, 0]  # a short product e_0*e_1
    with pytest.raises(SchemaError, match="product e_0\\*e_1 has 3 coordinates, expected 4"):
        algebra_from_json(algebra)
    module = module_to_json(column_module(m22, 2))
    module["actions"][0][1] = [0]  # a short row of the first action matrix
    message = "action matrix 0 row has 1 coordinates, expected 2"
    with pytest.raises(SchemaError, match=message):
        module_from_json(module)
    (tmp_path / "module.json").write_text(json.dumps(module))
    (tmp_path / "zero.json").write_text(json.dumps({"ambient": 2, "basis": []}))
    code, out, err = run_cli(capsys, "is-mathieu", "--module", str(tmp_path / "module.json"),
                             "--subspace", str(tmp_path / "zero.json"), "--wrt", "[1, 0]")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_omega_field_zero_is_not_the_rationals(capsys):
    code, out, err = run_cli(capsys, "omega", "--alpha", "[1, -1]", "--field", "0")
    assert code == 2 and out == ""
    assert "field order must be prime, got 0" in err


_ONE = {"vars": 1, "terms": [{"exp": [0], "coef": 1}]}
_NBA_CONFIG = {"field": "Q", "points": [[0], [1]], "alpha": [1, 1]}


@pytest.mark.parametrize("verb, config, poly", [
    ("omega", None, None),
    ("nba", {**_NBA_CONFIG, "alpha": ["1/0", "1"]}, _ONE),
    ("nq", {"a": "1/0", "b": "1", "q": _ONE}, _ONE),
    ("nba", _NBA_CONFIG, {"vars": 1, "terms": [{"exp": [0], "coef": "1/0"}]}),
], ids=["omega-alpha", "nba-alpha", "nq-a", "poly-coef"])
def test_a_zero_denominator_exits_two(tmp_path, capsys, verb, config, poly):
    if config is None:
        argv = [verb, "--alpha", '["1/0", "1"]']
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        (tmp_path / "poly.json").write_text(json.dumps(poly))
        argv = [verb, "member", "--config", str(tmp_path / "cfg.json"),
                "--poly", str(tmp_path / "poly.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "bad rational literal: '1/0' has a zero denominator" in err
    assert "Traceback" not in err


def test_an_empty_denominator_exits_two(capsys):
    code, out, err = run_cli(capsys, "omega", "--alpha", '["1/", "-1"]')
    assert code == 2 and out == ""
    assert "bad rational literal: '1/'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb, payload, named", [
    ("is-ideal", {"ambient": 4, "basis": 5}, "subspace.basis: expected a JSON array"),
    ("is-ideal", {"ambient": 4, "basis": None}, "subspace.basis: expected a JSON array"),
    ("nba", {**_NBA_CONFIG, "points": 5}, "points: expected a JSON array"),
    ("nba", {**_NBA_CONFIG, "points": None}, "points: expected a JSON array"),
    ("verify-witness", "algebra", "top level must be a JSON object"),
    ("verify-witness", 5, "top level must be a JSON object"),
], ids=["basis-number", "basis-null", "points-number", "points-null",
        "witness-file-string", "witness-file-number"])
def test_a_non_array_or_non_object_input_exits_two(tmp_path, capsys, verb, payload, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if verb == "is-ideal":
        alg_path = tmp_path / "m2f2.json"
        run_cli(capsys, "gen", "matrix", "--n", "2", "--p", "2", "--out", str(alg_path))
        argv = [verb, "--algebra", str(alg_path), "--subspace", str(path)]
    elif verb == "nba":
        (tmp_path / "poly.json").write_text(json.dumps(_ONE))
        argv = [verb, "member", "--config", str(path), "--poly", str(tmp_path / "poly.json")]
    else:
        argv = [verb, "--input", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err
    assert "Traceback" not in err


_M2F2_JSON = algebra_to_json(matrix_algebra(2, 2))
_COLUMNS_JSON = module_to_json(column_module(matrix_algebra(2, 2), 2))
_CORNER = {"ambient": 4, "basis": [[1, 0, 0, 0]]}
_WITNESS_FILE = {
    "algebra_builder": ["matrix", 2, 2],
    "theta": "left",
    "subspace": _CORNER,
    "witness": {"kind": "mathieu", "a": [1, 0, 0, 0], "b": [0, 0, 1, 0], "c": None,
                "power": 1},
}
_NO_BUILDER = {k: v for k, v in _WITNESS_FILE.items() if k != "algebra_builder"}
_IS_IDEAL = ["is-ideal", "--algebra", "{alg}", "--subspace", "{sub}"]
_SIGMA = ["sigma", "--module", "{mod}", "--subspace", "{sub}"]
_VERIFY_WITNESS = ["verify-witness", "--input", "{w}"]


# (argv with {name} for the file name.json, the files to write as JSON or raw
# text, exit code, a line of stderr); each exit 2 comes with no traceback
@pytest.mark.parametrize("argv, files, code, named", [
    (_IS_IDEAL, {"sub": _CORNER}, 2, "cannot read JSON from"),
    (_IS_IDEAL, {"alg": "{not json", "sub": _CORNER}, 2, "cannot read JSON from"),
    (_IS_IDEAL, {"alg": {**_M2F2_JSON, "unit": 1}, "sub": _CORNER}, 2,
     "algebra.unit: expected a JSON array"),
    (_IS_IDEAL, {"alg": {**_M2F2_JSON, "structure": _M2F2_JSON["structure"][:3]},
                 "sub": _CORNER}, 2, "algebra.structure: expected 4 rows"),
    (_IS_IDEAL, {"alg": {**_M2F2_JSON, "structure": [_M2F2_JSON["structure"][0][:3]]
                         + _M2F2_JSON["structure"][1:]},
                 "sub": _CORNER}, 2, "algebra.structure[0]: expected 4 cells"),
    (_SIGMA, {"mod": {**_COLUMNS_JSON, "actions": 5}, "sub": {"ambient": 2, "basis": []}},
     2, "module.actions: expected an array of matrices"),
    (_SIGMA, {"mod": {**_COLUMNS_JSON, "actions": [[[0, 0], [0, 0]]] * 4},
              "sub": {"ambient": 2, "basis": []}}, 2, "unit does not act as the identity"),
    (_SIGMA, {"mod": {**_COLUMNS_JSON, "dim": 3}, "sub": {"ambient": 2, "basis": []}},
     2, "module.dim says 3 but actions are 2-dimensional"),
    (_VERIFY_WITNESS, {"w": {**_WITNESS_FILE, "witness": [1, 0, 0, 0]}}, 2,
     "witness file: 'witness' must be an object"),
    (_VERIFY_WITNESS, {"w": {**_WITNESS_FILE, "witness": {**_WITNESS_FILE["witness"],
                                                          "kind": 1}}},
     2, "witness.kind: expected a string"),
    (["nba", "member", "--config", "{cfg}", "--poly", "{poly}"],
     {"cfg": {**_NBA_CONFIG, "points": [[0], [0]]}, "poly": _ONE}, 2,
     "eval config: evaluation points must be distinct"),
    (["integral", "--config", "{cfg}", "--poly", "{poly}"],
     {"cfg": {"a": "1", "b": "1", "q": _ONE}, "poly": _ONE}, 2,
     "integral config: endpoints must differ"),
    (["is-mathieu", "--module", "{mod}", "--subspace", "{sub}"],
     {"mod": _COLUMNS_JSON, "sub": {"ambient": 2, "basis": [[1, 0]]}}, 2,
     "--module needs --wrt with the reference element"),
    (_VERIFY_WITNESS, {"w": _NO_BUILDER}, 2, "witness file needs 'algebra' or 'algebra_builder'"),
    (_VERIFY_WITNESS, {"w": {**_NO_BUILDER, "algebra": _M2F2_JSON}}, 0, None),
], ids=["missing-file", "invalid-json", "unit-not-array", "structure-rows", "structure-cells",
        "actions-not-array", "module-axiom", "module-dim", "witness-not-object",
        "witness-kind-not-string", "duplicate-eval-points", "equal-endpoints",
        "module-without-wrt", "witness-file-without-algebra", "witness-file-inline-algebra"])
def test_each_schema_branch_exits_two_and_an_inline_algebra_is_read(
        tmp_path, capsys, argv, files, code, named):
    for name, payload in files.items():
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (tmp_path / f"{name}.json").write_text(text)
    argv = [str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    if named is None:  # the inline algebra reaches the re-validator
        assert json.loads(out) == {"result": True,
                                   "reason": "recurring product escapes the subspace"}
    else:
        assert out == "" and named in err
