"""The machine-check battery: every named identity of the library is verified
on finite instances and the results are collected in a deterministic report.

Each check compares an independently computed expectation (closed-form
formulas, hand-rolled matrix arithmetic, double-sum integration) against the
library's deciders.  `_timed_entry` is the one entry builder: it times one
scan that returns None when its claim holds or the failure payload.  Every
enumeration runs inside a scan, and a cap refusal (`EnumerationCapExceeded`)
makes the entry a skipped one, so the entry list does not depend on the cap.
The two classification checks share `_classification_entries`; their entries
embed the first violation's witness, which `verify-witness` re-validates.
"""

from __future__ import annotations

import functools
import os
import random
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebras import (
    THETAS,
    builder_spec_to_algebra,
    field_algebra,
    matrix_algebra,
    product_algebra,
    quotient_algebra,
    truncated_poly,
    upper_triangular,
)
from .fields import GF, QQ, Field
from .linalg import (
    DEFAULT_ELEMENT_CAP,
    EnumerationCapExceeded,
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
    mat_vec,
    preimage_subspace,
    solve_right_kernel,
    subspace_count,
)
from .mathieu import (
    find_algebra_quasi_stable_violation,
    find_algebra_stable_violation,
    is_quasi_stable_algebra_classified,
    is_stable_algebra_classified,
    is_theta_mathieu_idempotent,
    sigma,
    tau,
)
from .modules import ModuleHom, column_module, module_hom_basis, natural_module
from .oracles import (_double_sum_integral, _fixpoint_submodule, _flat_matmul, _independent_twist,
                      _is_nonzero_scalar_of_identity, _subset_sums_nonzero,
                      is_theta_mathieu_bruteforce, verify_mathieu_witness)
from .polyspaces import (
    EvalConfig,
    IntegralConfig,
    Poly,
    alpha_f_B,
    exact_integral,
    nba_member,
    nba_sigma_member,
    nba_tau_member,
    nq_member,
    nq_sigma_member,
    nq_tau_member,
    omega_member,
    reduce_to_product_algebra,
)
from .serialize import vector_to_json, witness_to_json


@dataclass
class Profile:
    """Sizes of the battery.  `primes` and `matrix_sizes` are non-empty tuples
    of distinct primes and of distinct sizes of at least 2, every other field
    is an int, and every one but `seed` is a count, which must not be
    negative.  A profile that would drop or repeat a check is refused when it
    is built."""

    primes: tuple = (2, 3, 5)
    matrix_sizes: tuple = (2,)
    element_cap: int = DEFAULT_ELEMENT_CAP
    subspace_samples: int = 500
    pair_samples: int = 1000
    hom_samples: int = 100
    eval_configs: int = 200
    poly_samples: int = 50
    integral_samples: int = 100
    seed: int = 8627

    def __post_init__(self):
        for key, value in vars(self).items():
            if key in ("primes", "matrix_sizes"):
                if (not isinstance(value, tuple) or not value or not all(map(_is_int, value))
                        or len(set(value)) != len(value)):
                    raise ValueError(
                        f"profile key {key!r} must be a non-empty tuple of distinct ints")
            elif not _is_int(value):
                raise ValueError(f"profile key {key!r} must be an int")
            elif value < 0 and key != "seed":
                raise ValueError(f"profile key {key!r} must not be negative")
        if min(self.matrix_sizes) < 2:
            raise ValueError("profile key 'matrix_sizes' must hold sizes of at least 2")
        try:
            for p in self.primes:
                GF(p)
        except ValueError as err:
            raise ValueError(f"profile key 'primes': {err}") from None

    @classmethod
    def from_json(cls, obj: dict) -> "Profile":
        """A profile from a JSON object, its arrays read as tuples."""
        if not isinstance(obj, dict):
            raise ValueError("a profile must be a JSON object")
        bad = set(obj) - set(cls.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown profile keys: {sorted(bad)}")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in obj.items()})


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class CheckEntry:
    check: str
    instance: str
    claim: str
    expected: object
    computed: object
    passed: bool
    witness: dict | None = None
    runtime_ms: float = 0.0

    def to_json(self, with_timing: bool = True) -> dict:
        out = {
            "check": self.check,
            "instance": self.instance,
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if with_timing:
            out["runtime_ms"] = round(self.runtime_ms, 3)
        return out


@dataclass
class VerificationReport:
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def counts(self) -> tuple:
        ok = sum(1 for e in self.entries if e.passed)
        return ok, len(self.entries) - ok

    def to_json(self, with_timing: bool = True) -> dict:
        ok, bad = self.counts
        return {
            "status": "pass" if self.passed else "fail",
            "passed": ok,
            "failed": bad,
            "entries": [e.to_json(with_timing) for e in self.entries],
        }

    def to_text(self, with_timing: bool = True) -> str:
        lines = []
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            timing = f" ({e.runtime_ms:.0f} ms)" if with_timing else ""
            if e.expected == "skipped":
                mark, timing = "SKIP", f" ({e.computed})"
            lines.append(f"[{mark}] {e.check} :: {e.instance}{timing}")
            if not e.passed:
                lines.append(f"       claim:    {e.claim}")
                lines.append(f"       expected: {e.expected}")
                lines.append(f"       computed: {e.computed}")
        ok, bad = self.counts
        lines.append(f"{ok} passed, {bad} failed")
        return "\n".join(lines)


def _rng(profile: Profile, tag: str) -> random.Random:
    return random.Random(profile.seed ^ zlib.crc32(tag.encode()))


def _timed_entry(check: str, instance: str, claim: str, expected, ok, scan) -> CheckEntry:
    """Time `scan()` and build its entry.  `scan` returns None when the claim
    holds, and the entry reports `ok` as computed; otherwise it returns the
    failure payload, which the entry reports instead, or a cap refusal, which
    makes the entry a skipped one."""
    t0 = time.perf_counter()
    try:
        failure = scan()
    except EnumerationCapExceeded as exc:
        return _skipped_entry(check, instance, claim, why=str(exc))
    return CheckEntry(check=check, instance=instance, claim=claim, expected=expected,
                      computed=ok if failure is None else failure, passed=failure is None,
                      runtime_ms=(time.perf_counter() - t0) * 1000.0)


def _skipped_entry(check: str, instance: str, claim: str, why: str) -> CheckEntry:
    """The passing entry of an instance the profile leaves out, and why."""
    return CheckEntry(check=check, instance=instance, claim=claim, expected="skipped",
                      computed=f"skipped: {why}", passed=True)


def _sets(module, n_space: Subspace, theta: str, cap: int) -> tuple:
    """(sigma, tau) of N as frozensets; tau first, as it refuses an algebra over the cap."""
    tau_set = frozenset(tau(module, n_space, theta, cap))
    return frozenset(sigma(module, n_space, theta, cap)), tau_set


def _pulled_back(field: Field, dim: int, apply, target, cap: int) -> frozenset:
    """The elements u of the source space with apply(u) in `target`."""
    return frozenset(u for u in enumerate_vectors(field, dim, cap) if apply(u) in target)


def _pullback_mismatch(source, target, apply, h_space, pulled, cap: int) -> str | None:
    """The first side on which the preimages under `apply` of sigma and tau of
    H in `target` differ from sigma and tau of `pulled` in `source`, or None."""
    for theta in THETAS:
        pulled_sets = tuple(_pulled_back(source.field, source.dim, apply, image_set, cap)
                            for image_set in _sets(target, h_space, theta, cap))
        if pulled_sets != _sets(source, pulled, theta, cap):
            return theta
    return None


def _random_subspace(rng: random.Random, field: Field, dim: int) -> Subspace:
    k = rng.randrange(dim + 1)
    rows = [tuple(field.from_int(rng.randrange(field.p)) for _ in range(dim))
            for _ in range(k)]
    return Subspace(field, dim, rows)


# -- check 1: the two Mathieu deciders agree ----------------------------------------


def check_oracle_agreement(profile: Profile) -> list:
    claim = "brute-force power scan and the idempotent criterion give the same verdict"
    cap, samples = profile.element_cap, profile.subspace_samples
    exhaustive = [["product", 2, 2], ["truncated", 2, 2], ["truncated", 2, 3], ["upper", 2, 2]]
    sampled = [(2, 2), (2, 3)]
    cases = ([(builder_spec_to_algebra(builder), None) for builder in exhaustive]
             + [(matrix_algebra(n, p), _rng(profile, f"oracle/{n}/{p}")) for n, p in sampled])
    entries = []
    for algebra, rng in cases:
        # every subspace, or a sample drawn with `rng`; the four sides share one list
        @functools.cache
        def subspaces():
            pool = list(enumerate_subspaces(algebra.field, algebra.dim, cap))
            if rng is None:
                return pool
            return [pool[rng.randrange(len(pool))] for _ in range(samples)]

        def disagreement(theta):
            for j in subspaces():
                brute = is_theta_mathieu_bruteforce(algebra, j, theta, cap)
                idem = is_theta_mathieu_idempotent(algebra, j, theta, cap)
                if brute.is_mathieu != idem.is_mathieu:
                    return {"subspace": j.to_json(), "brute": brute.is_mathieu,
                            "idempotent": idem.is_mathieu}

        scope = (f"all {subspace_count(algebra.dim, algebra.field.p)} subspaces" if rng is None
                 else f"{samples} sampled subspaces")
        entries += [_timed_entry("oracle-agreement", f"{algebra.name}, theta={theta}, {scope}",
                                 claim, "verdicts agree", "verdicts agree",
                                 lambda: disagreement(theta))
                    for theta in THETAS]
    return entries


# -- check 2: sigma/tau of subspaces of the column module ----------------------------


def check_column_module_sets(profile: Profile) -> list:
    entries = []
    claim = ("over the n x n matrix algebra acting on columns, sigma and tau of a "
             "subspace are: everything for the full space, everything (left) or zero "
             "(other sides) for the zero space, and zero otherwise")
    for p in profile.primes:
        for n in profile.matrix_sizes:
            fld = GF(p)
            module = column_module(matrix_algebra(n, p), n)
            zero_only = frozenset({(0,) * n})

            def mismatch(theta):
                all_vectors = frozenset(enumerate_vectors(fld, n, profile.element_cap))
                for n_space in enumerate_subspaces(fld, n, profile.element_cap):
                    if n_space.is_full():
                        expected = all_vectors
                    elif n_space.is_zero():
                        expected = all_vectors if theta == "left" else zero_only
                    else:
                        expected = zero_only
                    got_sigma, got_tau = _sets(module, n_space, theta, profile.element_cap)
                    if got_sigma != expected or got_tau != expected:
                        return {"subspace": n_space.to_json(), "sigma_size": len(got_sigma),
                                "tau_size": len(got_tau), "expected_size": len(expected)}

            entries += [_timed_entry(
                "column-module-sets",
                f"p={p} n={n} theta={theta}, all {subspace_count(n, p)} subspaces", claim,
                "three-case classification", "matches", lambda: mismatch(theta))
                for theta in THETAS]
    return entries


# -- check 3: trace-pairing hyperplanes in the matrix algebra ------------------------


def check_trace_hyperplane_sets(profile: Profile) -> list:
    entries = []
    n = 2
    claim = ("for the hyperplane of matrices trace-orthogonal to X, sigma is the left "
             "annihilator of X; tau also admits Y with YX a nonzero multiple of the "
             "identity exactly when the characteristic exceeds n")
    for p in profile.primes:
        fld = GF(p)
        module = natural_module(matrix_algebra(n, p))
        zero = (0,) * (n * n)

        def mismatch():
            elements = list(enumerate_vectors(fld, n * n, profile.element_cap))
            # Both expected sets are those of cX for every nonzero scalar c, so
            # they are computed once per X scaled to a leading entry of 1.
            expected = {}
            for x in elements:
                # Tr(YX) as a functional of Y: coefficient of Y[i][j] is X[j][i]
                functional = tuple(x[j * n + i] for i in range(n) for j in range(n))
                h_x = solve_right_kernel(fld, [functional], n * n)  # all of A for X = 0
                inv = pow(next((c for c in x if c), 1), p - 2, p)
                key = tuple(c * inv % p for c in x)
                if key not in expected:
                    products = {y: _flat_matmul(p, n, y, key) for y in elements}
                    annihilator = frozenset(y for y, yx in products.items() if yx == zero)
                    expected_tau = annihilator
                    if p > n:
                        expected_tau |= frozenset(
                            y for y, yx in products.items()
                            if _is_nonzero_scalar_of_identity(p, n, yx))
                    expected[key] = annihilator, expected_tau
                annihilator, expected_tau = expected[key]
                for theta in THETAS:
                    got_sigma, got_tau = _sets(module, h_x, theta, profile.element_cap)
                    if got_sigma != annihilator or got_tau != expected_tau:
                        return {"X": vector_to_json(fld, x), "theta": theta,
                                "sigma_ok": got_sigma == annihilator,
                                "tau_ok": got_tau == expected_tau}

        entries.append(_timed_entry(
            "trace-hyperplane-sets", f"M_{n}(GF({p})), all {p ** (n * n)} matrices X, all sides",
            claim, "annihilator formula", "matches", mismatch))
    return entries


# -- check 4: the maximum-submodule identity ------------------------------------------


def _module_zoo(profile: Profile) -> list:
    zoo = [
        natural_module(product_algebra(2, 2)),
        natural_module(product_algebra(2, 3)),
        natural_module(truncated_poly(2, 2)),
        natural_module(truncated_poly(3, 2)),
        natural_module(truncated_poly(2, 3)),
        natural_module(upper_triangular(2, 2)),
        natural_module(matrix_algebra(2, 2)),
        column_module(matrix_algebra(2, 2), 2),
        column_module(matrix_algebra(2, 3), 2),
        column_module(matrix_algebra(3, 2), 3),
    ]
    if 3 in profile.primes:
        zoo.append(natural_module(matrix_algebra(2, 3)))
    big = natural_module(truncated_poly(3, 2))
    quot, _ = big.quotient_module(Subspace(big.field, 3, [(0, 0, 1)]))
    zoo.append(quot)
    return zoo


def check_max_submodule(profile: Profile) -> list:
    claim = ("the fixpoint maximum submodule of N equals both N intersect sigma(N) "
             "and N intersect tau(N) for every side selector")
    zoo = _module_zoo(profile)
    rng = _rng(profile, "max-submodule")
    per_module = -(-profile.pair_samples // len(zoo))

    def mismatch(module):
        for _ in range(per_module):
            n_space = _random_subspace(rng, module.field, module.dim)
            inside = _fixpoint_submodule(module, n_space)
            kernel = module.max_submodule(n_space)
            if frozenset(kernel.elements()) != inside:
                return {"subspace": n_space.to_json(),
                        "fixpoint": Subspace(module.field, module.dim, inside).to_json(),
                        "max_submodule": kernel.to_json()}
            for theta in THETAS:
                got_sigma, got_tau = _sets(module, n_space, theta, profile.element_cap)
                n_sig = frozenset(filter(n_space.contains, got_sigma))
                n_tau = frozenset(filter(n_space.contains, got_tau))
                if n_sig != inside or n_tau != inside:
                    return {"subspace": n_space.to_json(), "theta": theta,
                            "fixpoint_size": len(inside),
                            "sigma_cut": len(n_sig), "tau_cut": len(n_tau)}

    return [_timed_entry("max-submodule-identity",
                         f"{module.name}, {per_module} sampled subspaces, all sides", claim,
                         "both intersections equal the fixpoint", "equal",
                         lambda: mismatch(module))
            for module in zoo]


# -- checks 5 and 6: quasi-stable and stable algebras ---------------------------------


def _classification_entries(profile: Profile, check: str, claim: str, cases,
                            find_violation, classify) -> list:
    """One entry per (builder, expected) case.  It passes when
    `find_violation` finds a violation on no side exactly when `expected`
    holds, the first violation's witness re-validates, and the closed-form
    verdict `classify(algebra, cap)` equals `expected`."""
    entries = []
    for builder, expected in cases:
        algebra = builder_spec_to_algebra(builder)
        ok = {"verdicts": dict.fromkeys(THETAS, expected), "classified": expected,
              "witness_validated": True}
        payload = {}  # the first violation's, filled by the scan

        def mismatch():
            verdicts = {}
            witness_ok = True
            for theta in THETAS:
                violation = find_violation(algebra, theta, cap=profile.element_cap)
                verdicts[theta] = violation is None
                if violation is not None and not payload:
                    j, witness = violation
                    witness_ok, _why = verify_mathieu_witness(algebra, j, theta, witness)
                    payload.update(algebra_builder=builder, theta=theta, subspace=j.to_json(),
                                   witness=witness_to_json(algebra.field, witness))
            computed = {"verdicts": verdicts,
                        "classified": classify(algebra, cap=profile.element_cap),
                        "witness_validated": witness_ok}
            if computed != ok:
                return computed

        entry = _timed_entry(check, f"{algebra.name}, all sides", claim, expected, ok, mismatch)
        entry.witness = payload or None
        entries.append(entry)
    return entries


def check_quasi_stable_classification(profile: Profile) -> list:
    claim = ("an algebra is quasi-stable exactly when it is local (only trivial "
             "idempotents) or the two-dimensional split pair; verdict is exhaustive "
             "over all unit-avoiding subspaces")
    cases = [
        (["product", 2, 2], True),
        (["truncated", 2, 2], True),
        (["truncated", 3, 2], True),
        (["truncated", 2, 3], True),
        (["field", 2], True),
        (["field", 3], True),
        (["matrix", 2, 2], False),
        (["upper", 2, 2], False),
    ]
    return _classification_entries(
        profile, "quasi-stable-classification", claim, cases,
        find_algebra_quasi_stable_violation, is_quasi_stable_algebra_classified)


def check_stable_classification(profile: Profile) -> list:
    claim = ("an algebra is stable exactly when it is the base field itself or the "
             "split pair over GF(2); verdict is exhaustive over all unit-avoiding "
             "subspaces and cross-checked against the closed form")
    cases = [
        (["field", 2], True),
        (["field", 3], True),
        (["product", 2, 2], True),
        (["product", 2, 3], False),
        (["truncated", 2, 2], False),
    ]
    return _classification_entries(
        profile, "stable-classification", claim, cases, find_algebra_stable_violation,
        is_stable_algebra_classified)


# -- check 7: weight hyperplanes in the componentwise product algebra -----------------


def check_product_weight_hyperplanes(profile: Profile) -> list:
    entries = []
    claim = ("the weight hyperplane is Mathieu in the componentwise product algebra "
             "exactly when every nonempty support subset has a nonzero weight sum; "
             "all four side selectors coincide")

    def mismatch(length, fld):
        for alpha in enumerate_vectors(fld, length, profile.element_cap):
            cfg = EvalConfig(fld, tuple((fld.from_int(i),) for i in range(length)), alpha)
            algebra, hyperplane = reduce_to_product_algebra(cfg)
            expected = omega_member(alpha, fld)
            for theta in THETAS:
                brute = is_theta_mathieu_bruteforce(
                    algebra, hyperplane, theta, profile.element_cap).is_mathieu
                idem = is_theta_mathieu_idempotent(
                    algebra, hyperplane, theta, profile.element_cap).is_mathieu
                if brute != expected or idem != expected:
                    return {"alpha": list(alpha), "theta": theta, "expected": expected,
                            "brute": brute, "idempotent": idem}

    for length, p in [(2, 3), (2, 5), (3, 3)]:
        if p not in profile.primes:
            entries.append(_skipped_entry("product-weight-hyperplane",
                                          f"length={length} p={p}", claim,
                                          why="prime not in the profile"))
            continue
        fld = GF(p)
        entries.append(_timed_entry(
            "product-weight-hyperplane",
            f"length={length} p={p}, all {p ** length} weight vectors, all sides",
            claim, "subset-sum criterion", "matches", lambda: mismatch(length, fld)))
    return entries


# -- check 8: evaluation-functional subspaces -----------------------------------------


def _random_rational(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _random_poly(rng: random.Random, max_degree: int = 8) -> Poly:
    deg = rng.randrange(max_degree + 1)
    coeffs = [_random_rational(rng) for _ in range(deg + 1)]
    return Poly.univariate(QQ, coeffs)


def check_evaluation_subspace_identities(profile: Profile) -> list:
    claim = ("twisting the weights by point values implements the colon operation, "
             "and the stable/quasi-stable membership formulas match an independent "
             "dense-evaluation recomputation")
    rng = _rng(profile, "evaluation")
    chunk = 50

    def failure(todo):
        for _ in range(todo):
            length = rng.randint(1, 4)
            points = rng.sample(range(-6, 7), length)
            cfg = EvalConfig(QQ, tuple((Fraction(pt),) for pt in points),
                             tuple(_random_rational(rng) for _ in range(length)))
            f = _random_poly(rng)
            twisted = EvalConfig(QQ, cfg.points, alpha_f_B(f, cfg))
            for _ in range(profile.poly_samples):
                g = _random_poly(rng)
                if nba_member(g * f, cfg) != nba_member(g, twisted):
                    return {"what": "colon identity", "points": [str(x) for x in points]}
            independent = _independent_twist(cfg, f)
            sigma_expected = sum(1 for v in independent if v) <= 1
            tau_expected = _subset_sums_nonzero(independent)
            if (nba_sigma_member(f, cfg) != sigma_expected
                    or nba_tau_member(f, cfg) != tau_expected):
                return {"what": "membership formula", "points": [str(x) for x in points]}

    entries = []
    for batch_index, start in enumerate(range(0, profile.eval_configs, chunk)):
        todo = min(chunk, profile.eval_configs - start)
        entries.append(_timed_entry(
            "evaluation-subspace-identities",
            f"batch {batch_index}: {todo} random rational configurations, "
            f"{profile.poly_samples} sampled polynomials each",
            claim, "identities hold on every sample", "hold", lambda: failure(todo)))
    return entries


# -- check 9: integration-functional subspaces ----------------------------------------


def check_integration_battery(profile: Profile) -> list:
    rng = _rng(profile, "integration")
    samples = profile.integral_samples

    def nonzero_poly():
        q = _random_poly(rng)
        while q.is_zero():
            q = _random_poly(rng)
        return q

    def routes_differ():
        for _ in range(samples):
            a = _random_rational(rng)
            b = _random_rational(rng)
            if a == b:
                b = a + 1
            f, q = _random_poly(rng), _random_poly(rng)
            if exact_integral(f, IntegralConfig(a, b, q)) != _double_sum_integral(f, q, a, b):
                return {"a": str(a), "b": str(b)}

    def not_positive():
        for _ in range(samples):
            q = nonzero_poly()
            a = _random_rational(rng)
            b = a + Fraction(rng.randint(1, 5), rng.randint(1, 3))
            if exact_integral(q, IntegralConfig(a, b, q)) <= 0:
                return {"a": str(a), "b": str(b)}

    def inconsistent():
        for _ in range(samples):
            q = nonzero_poly()
            a = _random_rational(rng)
            cfg = IntegralConfig(a, a + 1, q)
            h1 = _random_poly(rng)
            pairing = exact_integral(h1, cfg)
            if pairing != 0:
                # outside the subspace: must be quasi-stable
                if not nq_tau_member(h1, cfg) or nq_sigma_member(h1, cfg) != h1.is_zero():
                    return {"case": "complement", "a": str(a)}
            inside = h1.scale(exact_integral(q, cfg)) - q.scale(pairing)
            if not inside.is_zero():
                if not nq_member(inside, cfg) or nq_tau_member(inside, cfg) \
                        or nq_sigma_member(inside, cfg):
                    return {"case": "member", "a": str(a)}
            if not (nq_tau_member(Poly.zero(QQ), cfg) and nq_sigma_member(Poly.zero(QQ), cfg)):
                return {"case": "zero"}

    return [
        _timed_entry("integration-battery",
                     f"antiderivative route vs double-sum route, {samples} samples",
                     "the two exact integration routes agree", "equal values", "equal",
                     routes_differ),
        _timed_entry("integration-battery",
                     f"positivity of the square pairing, {samples} samples",
                     "the integral of q*q over a forward interval is strictly positive",
                     "positive", "positive", not_positive),
        _timed_entry("integration-battery",
                     f"quasi-stable membership consistency, {samples} samples",
                     "the quasi-stable set of the integration subspace is its complement "
                     "plus zero, and the stable set is zero alone",
                     "consistent", "consistent", inconsistent),
    ]


# -- check 10: functorial transfers ---------------------------------------------------


def check_functorial_identities(profile: Profile) -> list:
    rng = _rng(profile, "functorial")
    cap = profile.element_cap

    # module homomorphism pullbacks
    algebras = [truncated_poly(2, 2), truncated_poly(3, 2), product_algebra(2, 2),
                upper_triangular(2, 2), matrix_algebra(2, 2), product_algebra(2, 3)]
    pairs = []
    for algebra in algebras:
        nat = natural_module(algebra)
        pairs.append((nat, nat))
    mats2 = matrix_algebra(2, 2)
    pairs.append((column_module(mats2, 2), natural_module(mats2)))
    pairs.append((natural_module(mats2), column_module(mats2, 2)))

    def hom_failure():
        done = 0
        pair_idx = 0
        while done < profile.hom_samples:
            source, target = pairs[pair_idx % len(pairs)]
            pair_idx += 1
            basis = module_hom_basis(source, target)
            if not basis:
                continue
            p = source.field.p
            coeffs = [rng.randrange(p) for _ in basis]
            rows = [[sum(c * mat[r][s] for c, mat in zip(coeffs, basis)) % p
                     for s in range(source.dim)] for r in range(target.dim)]
            phi = ModuleHom(source, target, rows)
            h_space = _random_subspace(rng, target.field, target.dim)
            pulled = phi.pullback_subspace(h_space)
            if theta := _pullback_mismatch(source, target, phi.apply, h_space, pulled, cap):
                return {"source": source.name, "target": target.name, "theta": theta}
            done += 1

    # quotient maps of modules
    def quotient_failure():
        zoo = _module_zoo(profile)
        for i in range(max(10, profile.hom_samples // 4)):
            module = zoo[i % len(zoo)]
            n_space = _random_subspace(rng, module.field, module.dim)
            quot, proj = module.quotient_module(module.max_submodule(n_space))
            n_image = proj.image_of_subspace(n_space)
            for theta in THETAS:
                sigma_quot, tau_quot = _sets(quot, n_image, theta, cap)
                direct_sigma, direct_tau = _sets(module, n_space, theta, cap)
                pulled_sigma, pulled_tau = (
                    _pulled_back(module.field, module.dim, proj.apply, image_set, cap)
                    for image_set in (sigma_quot, tau_quot))
                comparisons = [
                    ("tau", pulled_tau, direct_tau),
                    ("sigma", pulled_sigma, direct_sigma),
                    # surjectivity: pushing forward gives the quotient-side sets
                    ("tau image", frozenset(map(proj.apply, direct_tau)), tau_quot),
                    ("sigma image", frozenset(map(proj.apply, direct_sigma)), sigma_quot),
                ]
                for name, got, want in comparisons:
                    if got != want:
                        return {"module": module.name, "theta": theta, "set": name}

    # surjective algebra maps
    def algebra_map_failure():
        candidates = [truncated_poly(3, 2), truncated_poly(2, 3), upper_triangular(2, 2),
                      product_algebra(2, 2), product_algebra(3, 2)]
        for algebra in candidates:
            ideals = []
            seen = set()
            for a in enumerate_vectors(algebra.field, algebra.dim, cap):
                gen = algebra.theta_ideal_generated(a, "two")
                if gen.is_full() or gen.basis in seen:
                    continue
                seen.add(gen.basis)
                ideals.append(gen)
            nat_a = natural_module(algebra)
            for ideal in ideals:
                quot, proj = quotient_algebra(algebra, ideal)
                nat_b = natural_module(quot)
                apply = functools.partial(mat_vec, algebra.field, proj)
                for _ in range(3):
                    j_space = _random_subspace(rng, quot.field, quot.dim)
                    pulled = preimage_subspace(algebra.field, proj, j_space, algebra.dim)
                    if theta := _pullback_mismatch(nat_a, nat_b, apply, j_space, pulled, cap):
                        return {"algebra": algebra.name, "theta": theta}

    return [
        _timed_entry("functorial-identities",
                     f"module-hom pullbacks, {profile.hom_samples} sampled maps, all sides",
                     "preimages under module homomorphisms commute with sigma and tau",
                     "equality", "equal", hom_failure),
        _timed_entry("functorial-identities",
                     "quotient-map transfers over the module zoo, all sides",
                     "for the quotient by the maximum submodule of N, sigma and tau of N are "
                     "the full preimages of sigma and tau of the image of N",
                     "equality", "equal", quotient_failure),
        _timed_entry("functorial-identities",
                     "surjective algebra maps (quotients by principal ideals), all sides",
                     "for surjective algebra maps the tau preimage transfer is an equality",
                     "equality", "equal", algebra_map_failure),
    ]


# -- check 11: one-dimensional division algebras --------------------------------------


def check_division_algebra_sets(profile: Profile) -> list:
    claim = ("over a one-dimensional algebra the only subspaces are zero and "
             "everything, and both have full stable and quasi-stable sets")

    def mismatch(p):
        algebra = field_algebra(p)
        module = natural_module(algebra)
        everything = frozenset(enumerate_vectors(algebra.field, 1, profile.element_cap))
        for n_space in enumerate_subspaces(algebra.field, 1, profile.element_cap):
            for theta in THETAS:
                if _sets(module, n_space, theta, profile.element_cap) != (everything, everything):
                    return {"subspace": n_space.to_json(), "theta": theta}

    return [_timed_entry("division-algebra-sets",
                         f"GF({p}) as a one-dimensional algebra, both subspaces, all sides",
                         claim, "full sets", "full", lambda: mismatch(p))
            for p in (2, 3, 5, 7)]


# -- suite assembly -------------------------------------------------------------------


SUITE: list = [
    ("oracle-agreement", check_oracle_agreement),
    ("column-module-sets", check_column_module_sets),
    ("trace-hyperplane-sets", check_trace_hyperplane_sets),
    ("max-submodule-identity", check_max_submodule),
    ("quasi-stable-classification", check_quasi_stable_classification),
    ("stable-classification", check_stable_classification),
    ("product-weight-hyperplane", check_product_weight_hyperplanes),
    ("evaluation-subspace-identities", check_evaluation_subspace_identities),
    ("integration-battery", check_integration_battery),
    ("functorial-identities", check_functorial_identities),
    ("division-algebra-sets", check_division_algebra_sets),
]


def _run_check(args):
    fn, profile = args
    return fn(profile)


def _pool_size(jobs: int, suite_size: int) -> int:
    """Worker processes for `jobs` requested over `suite_size` checks."""
    return max(1, min(jobs, suite_size, os.cpu_count() or 1))


def run_suite(profile: Profile | None = None, checks: Sequence | None = None,
              jobs: int = 1) -> VerificationReport:
    """Run the verification battery and assemble a deterministic report."""
    profile = profile or Profile()
    suite = list(checks) if checks is not None else SUITE
    workers = _pool_size(jobs, len(suite))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_check, [(fn, profile) for _name, fn in suite])
        entries = [e for batch in results for e in batch]
    else:
        entries = []
        for _name, fn in suite:
            entries.extend(fn(profile))
    return VerificationReport(entries)
