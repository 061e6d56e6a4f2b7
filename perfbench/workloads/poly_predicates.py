"""poly-predicates: evaluation, integration and subset-sum predicates.

Three kinds of request, in fixed numbers per pass:

- `eval`: a weighted-evaluation configuration over Q and a polynomial f.  The
  request checks the colon identity nba_member(g*f, B) == nba_member(g, B_f)
  for sampled g, and asks nba_sigma_member/nba_tau_member for f.
- `integral`: an integration configuration (a, b, q) and a polynomial f; the
  request asks exact_integral and the three nq_* predicates.
- `omega`: omega_member over Q or GF(p) with supports up to 14.

Answers are known by construction (a planted zero-sum subset, same-sign or
superincreasing rational weights, a GF(p) support of at least p equal
weights) or computed during set-up by another route: dense Horner
evaluation for the evaluation predicates and the double-sum pairing for
integrals.  Support sizes, degrees and lengths cycle through fixed lists, and
a planted rational zero-sum subset sits at fixed positions, so that a pass
does the same amount of work for every seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


EVAL_REQUESTS = 120
G_SAMPLES = 10
INTEGRAL_REQUESTS = 80
# (kind, field order or None for Q, support size) per omega request
OMEGA = ([("same-sign", None, n) for n in (10, 11, 12, 13, 14)]
         + [("superincreasing", None, n) for n in (10, 11, 12, 13, 14)]
         + [("planted", None, n) for n in (8, 9, 10, 11, 12, 13, 14, 14)]
         + [("pigeonhole", p, n) for p in (11, 13) for n in (p, p + 1)]
         + [("planted", p, n) for p in (5, 7, 11, 13) for n in (p - 1,)])


def _rational(rng, span=6, den=4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _nonzero(rng, span=6, den=4) -> Fraction:
    while True:
        x = _rational(rng, span, den)
        if x:
            return x


def _coeffs(rng, degree: int) -> list:
    return [_rational(rng) for _ in range(degree)] + [_nonzero(rng)]


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def double_sum(f, q, a, b) -> Fraction:
    """Integral of f*q over [a, b], term by term, without multiplying f by q."""
    total = Fraction(0)
    for i, fi in enumerate(f):
        for j, qj in enumerate(q):
            k = i + j + 1
            total += fi * qj * (b ** k - a ** k) / k
    return total


def _text(values) -> list:
    return [str(v) for v in values]


def eval_request(rng, index: int) -> dict:
    length = 1 + index % 4
    points = rng.sample(range(-6, 7), length)
    while True:
        f = _coeffs(rng, 3 + index % 6)
        values = [horner(f, Fraction(pt)) for pt in points]
        if all(values):
            break
    plant = ("zero-sum", "same-sign", "single")[index % 3]
    if plant == "single" or length == 1:
        targets = [_nonzero(rng)] + [Fraction(0)] * (length - 1)
        plant = "single"
    elif plant == "same-sign":
        targets = [abs(_nonzero(rng)) for _ in range(length)]
    else:
        targets = [_nonzero(rng) for _ in range(length - 1)]
        targets.append(-sum(targets[: 1 + rng.randrange(length - 1)]))
        if not targets[-1]:
            targets[-1] = -targets[0]
    weights = [t / v for t, v in zip(targets, values)]
    gs = [_coeffs(rng, (index + k) % 9) for k in range(G_SAMPLES)]
    return {"kind": "eval", "points": points, "weights": _text(weights), "f": _text(f),
            "g": [_text(g) for g in gs], "plant": plant}


def integral_request(rng, index: int) -> dict:
    a = _rational(rng)
    b = a + Fraction(rng.randint(1, 5), rng.randint(1, 3))
    q = _coeffs(rng, 1 + index % 5)
    h = _coeffs(rng, 2 + index % 7)
    if index % 2:
        # plant a member of the subspace: f = h*I(q) - q*I(h), so I(f) = 0
        i_q, i_h = double_sum(q, q, a, b), double_sum(h, q, a, b)
        width = max(len(h), len(q))
        pad = [Fraction(0)] * width
        f = [x * i_q - y * i_h for x, y in zip((h + pad)[:width], (q + pad)[:width])]
    else:
        f = h
    return {"kind": "integral", "a": str(a), "b": str(b), "q": _text(q), "f": _text(f)}


def _coprime(rng, den: int) -> int:
    return rng.choice([k for k in range(1, 10) if math.gcd(k, den) == 1])


def _planted_rationals(rng, n: int) -> list:
    """n weights whose first zero-sum subset in the scan's order is
    {0, 1, n-1}: the others are positive, the last is -(w0 + w1), and no
    single weight equals w0 + w1, so no pair sums to zero."""
    while True:
        weights = [Fraction(_coprime(rng, 1 + i % 5), 1 + i % 5) for i in range(n - 1)]
        target = weights[0] + weights[1]
        if target not in weights[2:]:
            return weights + [-target]


def _omega_request(rng, kind: str, p, n: int) -> dict:
    # Rational weights keep fixed denominators (numerators are coprime to
    # them), and a planted rational subset sits at fixed positions, so that
    # the cost of the subset sums does not depend on the seed.
    if kind == "same-sign":
        sign = rng.choice((1, -1))
        weights = [Fraction(sign * _coprime(rng, 1 + i % 5), 1 + i % 5) for i in range(n)]
    elif kind == "superincreasing":
        unit = Fraction(_coprime(rng, 3), 3)
        weights = [rng.choice((1, -1)) * unit * 2 ** i for i in range(n)]
    elif kind == "pigeonhole":
        weights = [rng.randrange(1, p)] * n
    elif p is None:
        return {"kind": "omega", "p": p, "weights": _text(_planted_rationals(rng, n)),
                "plant": kind}
    else:
        weights = [rng.randrange(1, p) for _ in range(n - 1)]
        weights.append(-sum(rng.sample(weights, rng.randint(1, 3))) % p or 1)
    rng.shuffle(weights)
    return {"kind": "omega", "p": p, "weights": weights if p else _text(weights),
            "plant": kind}


def make_requests(seed: int) -> list:
    rng = random.Random(seed)
    requests = [eval_request(rng, i) for i in range(EVAL_REQUESTS)]
    requests += [integral_request(rng, i) for i in range(INTEGRAL_REQUESTS)]
    requests += [_omega_request(rng, kind, p, n) for kind, p, n in OMEGA]
    return requests


def build(requests: list) -> dict:
    import mathieuspaces as ms

    QQ = ms.QQ
    objects = []
    for req in requests:
        if req["kind"] == "eval":
            cfg = ms.EvalConfig(QQ, tuple((Fraction(pt),) for pt in req["points"]),
                                tuple(Fraction(w) for w in req["weights"]))
            objects.append((cfg, ms.Poly.univariate(QQ, [Fraction(c) for c in req["f"]]),
                            [ms.Poly.univariate(QQ, [Fraction(c) for c in g])
                             for g in req["g"]]))
        elif req["kind"] == "integral":
            q = ms.Poly.univariate(QQ, [Fraction(c) for c in req["q"]])
            objects.append((ms.IntegralConfig(Fraction(req["a"]), Fraction(req["b"]), q),
                            ms.Poly.univariate(QQ, [Fraction(c) for c in req["f"]])))
        else:
            field = QQ if req["p"] is None else ms.GF(req["p"])
            parse = Fraction if field is QQ else field.from_int
            objects.append(([parse(w) for w in req["weights"]], field))
    return {"requests": requests, "objects": objects}


def prepare(state: dict, requests: list, workdir: str) -> list:
    expected = []
    for req in requests:
        if req["kind"] == "eval":
            f = [Fraction(c) for c in req["f"]]
            twist = [Fraction(w) * horner(f, Fraction(pt))
                     for w, pt in zip(req["weights"], req["points"])]
            colon = [not sum(t * horner([Fraction(c) for c in g], Fraction(pt))
                             for t, pt in zip(twist, req["points"]))
                     for g in req["g"]]
            expected.append((colon, req["plant"] == "single", req["plant"] != "zero-sum"))
        elif req["kind"] == "integral":
            f = [Fraction(c) for c in req["f"]]
            value = double_sum(f, [Fraction(c) for c in req["q"]],
                               Fraction(req["a"]), Fraction(req["b"]))
            zero = not any(f)
            expected.append((value, value == 0, zero, zero or value != 0))
        else:
            expected.append(req["plant"] in ("same-sign", "superincreasing"))
    return expected


def call(state: dict, index: int):
    import mathieuspaces as ms

    kind = state["requests"][index]["kind"]
    obj = state["objects"][index]
    if kind == "eval":
        cfg, f, gs = obj
        twisted = ms.EvalConfig(cfg.field, cfg.points, ms.alpha_f_B(f, cfg))
        colon = [(ms.nba_member(g * f, cfg), ms.nba_member(g, twisted)) for g in gs]
        return colon, ms.nba_sigma_member(f, cfg), ms.nba_tau_member(f, cfg)
    if kind == "integral":
        cfg, f = obj
        return (ms.exact_integral(f, cfg), ms.nq_member(f, cfg), ms.nq_sigma_member(f, cfg),
                ms.nq_tau_member(f, cfg))
    weights, field = obj
    return ms.omega_member(weights, field)


def check(state: dict, index: int, result, expected) -> str | None:
    kind = state["requests"][index]["kind"]
    if kind == "eval":
        colon, sigma, tau = result
        want_colon, want_sigma, want_tau = expected
        for (lhs, rhs), want in zip(colon, want_colon):
            if lhs != want or rhs != want:
                return f"colon identity gave ({lhs}, {rhs}), expected {want}"
        if (sigma, tau) != (want_sigma, want_tau):
            return f"sigma/tau membership ({sigma}, {tau}), expected ({want_sigma}, {want_tau})"
        return None
    if result != expected:
        return f"{kind} gave {result}, expected {expected}"
    return None
