"""verify-paper: the verification battery, one check per request.

Each request calls one `SUITE` check, in order and serially, with the
default profile scaled down.  The default battery takes about 18 s, 10.5 s of
it in the GF(5) trace hyperplanes, so a run could make only one or two
passes, and on a machine whose speed drifts for seconds to minutes at a time
that is not a steady figure.  The scaled profile drops GF(5) from `primes`
and takes a fifth to an eighth of the default's samples, so that a pass takes
about 2.5 s with about the default's shares: trace hyperplanes about 55%,
evaluation identities about 20%.

The GF(5) trace hyperplanes, the main target of building all sigma/tau sets
in one pass, come back as six last requests over a fixed-size sample of
them.  The first of them builds M_2(GF(5)) and its natural module afresh,
once per pass as the battery does once per call, and each computes, for
each of its six sampled matrices X, sigma and tau of the hyperplane
trace-orthogonal to X on every side.  The expectation is the annihilator
formula, computed during set-up from the products YX of all 625 matrices Y.

A check request fails when the check raises, reports a failing entry, or
embeds a witness that `verify_mathieu_witness` rejects; every entry already
compares the library against an expectation computed inside the check by an
independent route.
"""

from __future__ import annotations

import itertools
import random

from workloads import THETAS, witness_from_json

PROFILE = {"primes": (2, 3), "subspace_samples": 80, "pair_samples": 100, "hom_samples": 16,
           "eval_configs": 32, "integral_samples": 16}
TRACE_P, TRACE_N = 5, 2
# sampled matrices X per request, by rank.  X and cX give the same
# hyperplane, and a repeat would be answered from the module's colon cache
# at a sixth of the cost, so X is sampled up to a scalar: its first nonzero
# entry is 1 (36 such X have rank 1, 120 rank 2).  Six requests of about
# 200 ms, rather than one long one, put the median request latency of a
# pass among them instead of between two checks of very different length.
TRACE_SAMPLE = {1: 1, 2: 5}
TRACE_REQUESTS = 6
TRACE_CHECK = "trace-hyperplane-sets GF(5) sample"


def _rank(x: tuple) -> int:
    a, b, c, d = x
    if not any(x):
        return 0
    return 2 if (a * d - b * c) % TRACE_P else 1


def _matmul(y: tuple, x: tuple) -> tuple:
    n, p = TRACE_N, TRACE_P
    return tuple(sum(y[i * n + k] * x[k * n + j] for k in range(n)) % p
                 for i in range(n) for j in range(n))


def make_requests(seed: int) -> list:
    import mathieuspaces.verify as verify

    requests = [{"check": name, "seed": seed} for name, _fn in verify.SUITE]
    rng = random.Random(seed)
    matrices = [x for x in itertools.product(range(TRACE_P), repeat=TRACE_N * TRACE_N)
                if any(x) and next(v for v in x if v) == 1]
    by_rank = {rank: rng.sample([x for x in matrices if _rank(x) == rank],
                                count * TRACE_REQUESTS)
               for rank, count in TRACE_SAMPLE.items()}
    for k in range(TRACE_REQUESTS):
        sample = [x for rank, count in TRACE_SAMPLE.items()
                  for x in by_rank[rank][k * count:(k + 1) * count]]
        requests.append({"check": TRACE_CHECK, "fresh": k == 0,
                         "xs": [list(x) for x in sorted(sample)]})
    return requests


def build(requests: list) -> dict:
    import mathieuspaces.verify as verify

    return {"profile": verify.Profile(seed=requests[0]["seed"], **PROFILE),
            "requests": requests, "trace_module": None}


def prepare(state: dict, requests: list, workdir: str) -> list:
    expected = [None] * len(requests)
    ys = list(itertools.product(range(TRACE_P), repeat=TRACE_N * TRACE_N))
    zero = (0,) * (TRACE_N * TRACE_N)
    scalars = {tuple(c if i == j else 0 for i in range(TRACE_N) for j in range(TRACE_N))
               for c in range(1, TRACE_P)}
    for i, req in enumerate(requests):
        if req["check"] != TRACE_CHECK:
            continue
        expected[i] = []
        for x in req["xs"]:
            products = {y: _matmul(y, tuple(x)) for y in ys}
            annihilator = frozenset(y for y, yx in products.items() if yx == zero)
            # the characteristic exceeds n, so tau also takes YX = c I, c != 0
            expected[i].append((annihilator, annihilator | frozenset(
                y for y, yx in products.items() if yx in scalars)))
    return expected


def call(state: dict, index: int):
    import mathieuspaces as ms
    import mathieuspaces.verify as verify

    req = state["requests"][index]
    if req["check"] == TRACE_CHECK:
        if req["fresh"]:
            state["trace_module"] = ms.natural_module(ms.matrix_algebra(TRACE_N, TRACE_P))
        return _trace_sample(ms, state["trace_module"], req["xs"])
    fn = dict(verify.SUITE)[req["check"]]
    # Look the check up by module attribute so that a traced run sees it.
    return getattr(verify, fn.__name__)(state["profile"])


def _trace_sample(ms, module, xs) -> list:
    """[(sigma, tau) per side] per X."""
    n = TRACE_N
    field = module.field
    out = []
    for x in xs:
        # Tr(YX) as a functional of Y: the coefficient of Y[i][j] is X[j][i]
        functional = tuple(x[j * n + i] for i in range(n) for j in range(n))
        h_x = ms.solve_right_kernel(field, [functional], n * n)
        out.append([(frozenset(ms.sigma(module, h_x, theta)),
                     frozenset(ms.tau(module, h_x, theta))) for theta in THETAS])
    return out


def check(state: dict, index: int, result, expected) -> str | None:
    if state["requests"][index]["check"] == TRACE_CHECK:
        return _check_trace_sample(state["requests"][index]["xs"], result, expected)
    import mathieuspaces as ms
    from mathieuspaces.verify import builder_spec_to_algebra

    if not result:
        return "no entries"
    for entry in result:
        if not entry.passed:
            return f"failing entry: {entry.instance}"
        if entry.witness is not None:
            w = entry.witness
            algebra = builder_spec_to_algebra(w["algebra_builder"])
            j = ms.Subspace(algebra.field, w["subspace"]["ambient"], w["subspace"]["basis"])
            ok, why = ms.verify_mathieu_witness(algebra, j, w["theta"],
                                                witness_from_json(w["witness"]))
            if not ok:
                return f"witness rejected in {entry.instance}: {why}"
    return None


def _check_trace_sample(xs, result, expected) -> str | None:
    if len(result) != len(expected):
        return f"{len(result)} answers for {len(expected)} matrices X"
    for x, sets, (want_sigma, want_tau) in zip(xs, result, expected):
        for theta, (got_sigma, got_tau) in zip(THETAS, sets):
            if got_sigma != want_sigma:
                return f"sigma of X={x}, {theta}: not the annihilator"
            if got_tau != want_tau:
                return f"tau of X={x}, {theta}: not the annihilator formula"
    return None
