"""cold-queries: one-shot CLI traffic on small algebras and modules.

Each request calls `cli.main(argv)` in-process on JSON files written during
set-up, with standard output captured.  Every request parses its files,
validates and builds its objects and starts with cold caches, so nothing is
reused between requests.  Verbs come from the README tour in fixed numbers
per pass; algebras, basis sizes and sides cycle with the request index, and
the seed picks the instances.

Expectations are computed during set-up by another route than the verb:
the other Mathieu decider, the column-module classification, the
annihilator formula for trace hyperplanes, the maximum-submodule identity,
an exhaustive element scan for ideals, naive powers for radicals, the
closed-form (quasi-)stable classifications, planted subset sums, dense
Horner evaluation and the double-sum integral.  Witnesses in the output are
re-validated with `verify_mathieu_witness`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from workloads import THETAS, field_and_dim, witness_from_json
from workloads.poly_predicates import double_sum, eval_request, horner, integral_request


SMALL = (("matrix", 2, 2), ("upper", 2, 2), ("truncated", 3, 2), ("product", 2, 3),
         ("truncated", 2, 3), ("matrix", 2, 3))
# algebras for the exhaustive (quasi-)stability verbs
CLASSIFIED = (("product", 2, 2), ("truncated", 2, 2), ("truncated", 3, 2), ("field", 3),
              ("matrix", 2, 2), ("upper", 2, 2), ("product", 2, 3))
COLUMN = (("matrix", 2, 2), ("matrix", 2, 3))

# verb -> requests per pass
MIX = {"is-ideal": 12, "is-mathieu-idem": 12, "is-mathieu-brute": 8, "is-mathieu-module": 8,
       "sigma": 8, "tau-trace": 4, "tau-column": 4, "max-submodule": 8, "radical": 8,
       "quasi-stable": 7, "stable": 5, "omega": 8, "nba": 9, "nq": 6, "integral": 6,
       "verify-witness": 6}


def _random_basis(rng, p: int, dim: int, index: int) -> list:
    """index % (dim + 1) random rows: the number of rows cycles with the index."""
    return [[rng.randrange(p) for _ in range(dim)] for _ in range(index % (dim + 1))]


def _random_vector(rng, p: int, dim: int) -> list:
    return [rng.randrange(p) for _ in range(dim)]


def _request(rng, verb: str, index: int) -> dict:
    # The algebra, the number of basis rows and the side cycle with the
    # index, so that every seed asks the same sizes; the seed picks the rows.
    if verb in ("is-ideal", "is-mathieu-idem", "radical"):
        spec = SMALL[index % len(SMALL)]
        p, dim = field_and_dim(spec)
        return {"algebra": spec, "basis": _random_basis(rng, p, dim, index),
                "theta": THETAS[index % len(THETAS)]}
    if verb == "is-mathieu-brute":
        spec = (("matrix", 2, 3), ("upper", 2, 2))[index % 2]
        p, dim = field_and_dim(spec)
        return {"algebra": spec, "basis": _random_basis(rng, p, dim, index),
                "theta": THETAS[index // 2 % len(THETAS)]}
    if verb in ("is-mathieu-module", "sigma", "tau-column", "max-submodule"):
        natural = verb in ("is-mathieu-module", "max-submodule") and index % 2
        specs = SMALL[:4] if natural else COLUMN
        spec = specs[index // 2 % len(specs)]
        p, dim = field_and_dim(spec)
        mdim = dim if natural else spec[1]
        return {"algebra": spec, "natural": bool(natural),
                "basis": _random_basis(rng, p, mdim, index), "u": _random_vector(rng, p, mdim),
                "theta": THETAS[index // 2 % len(THETAS)]}
    if verb == "tau-trace":
        return {"x": _random_vector(rng, 3, 4), "theta": THETAS[index % len(THETAS)]}
    if verb in ("quasi-stable", "stable"):
        return {"case": index % len(CLASSIFIED), "theta": rng.choice(THETAS)}
    if verb == "omega":
        kind = ("same-sign", "planted", "pigeonhole", "planted-gf")[index % 4]
        n = rng.randint(4, 7)
        if kind == "same-sign":
            weights = [str(Fraction(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(n)]
            return {"weights": weights, "p": None, "expect": True}
        if kind == "planted":
            ws = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in range(n - 1)]
            ws.append(-sum(rng.sample(ws, 2)))
            return {"weights": [str(w) for w in ws], "p": None, "expect": False}
        p = rng.choice((3, 5, 7))
        if kind == "pigeonhole":
            return {"weights": [rng.randrange(1, p)] * p, "p": p, "expect": False}
        ws = [rng.randrange(1, p) for _ in range(n - 1)]
        ws.append((-sum(rng.sample(ws, 2))) % p or 1)
        return {"weights": ws, "p": p, "expect": False}
    if verb == "nba":
        req = eval_request(rng, index)
        return {"points": req["points"], "weights": req["weights"], "f": req["f"],
                "plant": req["plant"], "predicate": ("member", "sigma", "tau")[index % 3]}
    if verb in ("nq", "integral"):
        req = integral_request(rng, index)
        req["predicate"] = ("member", "sigma", "tau")[index % 3]
        return req
    if verb == "verify-witness":
        return {"algebra": ("matrix", 2, 2 + index % 2), "tamper": index % 3 == 2,
                "seed": rng.randrange(1 << 30)}
    raise ValueError(verb)


def make_requests(seed: int) -> list:
    rng = random.Random(seed)
    requests = []
    for verb, count in MIX.items():
        for i in range(count):
            req = _request(rng, verb, i)
            req["verb"] = verb
            requests.append(req)
    rng.shuffle(requests)
    return requests


def build(requests: list) -> dict:
    return {"argv": [], "objects": []}


# -- set-up: input files and expectations -------------------------------------------


def _poly_json(coeffs) -> dict:
    return {"vars": 1, "terms": [{"exp": [k], "coef": str(c)}
                                 for k, c in enumerate(coeffs) if Fraction(c)]}


def _elements(space) -> frozenset:
    return frozenset(space.elements())


def _ideal_by_elements(algebra, j, theta) -> bool:
    members = list(j.elements())
    for v in members:
        for b in algebra.elements():
            if theta in ("left", "pre", "two") and not j.contains(algebra.multiply(b, v)):
                return False
            if theta in ("right", "pre", "two") and not j.contains(algebra.multiply(v, b)):
                return False
    return True


def _radical_by_powers(algebra, j) -> frozenset:
    count = algebra.element_count()
    out = []
    for a in algebra.elements():
        x = algebra.power(a, count)  # a^count lies on the power cycle
        cycle_ok = True
        for _ in range(count):
            x = algebra.multiply(x, a)
            if not j.contains(x):
                cycle_ok = False
                break
        if cycle_ok:
            out.append(a)
    return frozenset(out)


def _flat_matmul(p, n, y, x) -> tuple:
    return tuple(sum(y[i * n + k] * x[k * n + j] for k in range(n)) % p
                 for i in range(n) for j in range(n))


def _annihilator_tau(x, p=3, n=2) -> frozenset:
    """Trace hyperplane of X in M_n(GF(p)), p > n: Y with YX zero or a nonzero
    multiple of the identity."""
    out = []
    for y in itertools.product(range(p), repeat=n * n):
        yx = _flat_matmul(p, n, y, x)
        scalar = all(yx[i * n + j] == (yx[0] if i == j else 0)
                     for i in range(n) for j in range(n))
        if scalar:
            out.append(tuple(y))
    return frozenset(out)


def prepare(state: dict, requests: list, workdir: str) -> list:
    import mathieuspaces as ms
    from mathieuspaces.serialize import algebra_to_json, module_to_json
    from mathieuspaces.verify import builder_spec_to_algebra

    def write(name, obj) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    algebras, algebra_files, module_files = {}, {}, {}

    def algebra(spec):
        spec = tuple(spec)
        if spec not in algebras:
            algebras[spec] = builder_spec_to_algebra(spec)
            algebra_files[spec] = write("alg-" + "-".join(map(str, spec)) + ".json",
                                        algebra_to_json(algebras[spec]))
        return algebras[spec], algebra_files[spec]

    def module_file(spec, natural: bool):
        alg, _ = algebra(spec)
        key = (tuple(spec), natural)
        if key not in module_files:
            mod = ms.natural_module(alg) if natural else ms.column_module(alg, spec[1])
            name = ("nat-" if natural else "col-") + "-".join(map(str, spec)) + ".json"
            module_files[key] = (mod, write(name, module_to_json(mod)))
        return module_files[key]

    expected = []
    for i, req in enumerate(requests):
        verb = req["verb"]
        obj = None
        if verb in ("is-ideal", "is-mathieu-idem", "is-mathieu-brute", "radical"):
            alg, afile = algebra(req["algebra"])
            j = ms.Subspace(alg.field, alg.dim, req["basis"])
            sfile = write(f"r{i}-j.json", j.to_json())
            theta = req["theta"]
            if verb == "is-ideal":
                argv = ["is-ideal", "--algebra", afile, "--subspace", sfile, "--theta", theta]
                want = _ideal_by_elements(alg, j, theta)
            elif verb == "radical":
                argv = ["radical", "--algebra", afile, "--subspace", sfile]
                want = _radical_by_powers(alg, j)
            else:
                method = verb.rsplit("-", 1)[1]
                argv = ["is-mathieu", "--algebra", afile, "--subspace", sfile,
                        "--theta", theta, "--method", method]
                other = (ms.is_theta_mathieu_bruteforce if method == "idem"
                         else ms.is_theta_mathieu_idempotent)
                want = other(alg, j, theta).is_mathieu
            obj = (alg, j, theta)
        elif verb in ("is-mathieu-module", "sigma", "tau-column", "max-submodule"):
            alg, afile = algebra(req["algebra"])
            module, mfile = module_file(req["algebra"], req["natural"])
            # max-submodule reads a natural module from --algebra; is-mathieu
            # needs --module for --wrt to apply
            natural_form = req["natural"] and verb == "max-submodule"
            source = ["--algebra", afile] if natural_form else ["--module", mfile]
            n_space = ms.Subspace(module.field, module.dim, req["basis"])
            sfile = write(f"r{i}-n.json", n_space.to_json())
            theta = req["theta"]
            if verb == "is-mathieu-module":
                u = tuple(req["u"])
                argv = ["is-mathieu", *source, "--subspace", sfile, "--theta", theta,
                        "--wrt", json.dumps(req["u"])]
                j = module.colon(n_space, u)
                want = ms.is_theta_mathieu_bruteforce(alg, j, theta).is_mathieu
                obj = (alg, j, theta)
            elif verb == "max-submodule":
                argv = ["max-submodule", *source, "--subspace", sfile]
                if req["natural"]:
                    stable = ms.sigma(module, n_space, "two")
                    want = frozenset(u for u in stable if n_space.contains(u))
                else:
                    want = _elements(n_space) if n_space.is_full() \
                        else frozenset({(0,) * module.dim})
                obj = module.field
            else:
                argv = [verb.split("-")[0], *source, "--subspace", sfile, "--theta", theta]
                everything = frozenset(ms.enumerate_vectors(module.field, module.dim))
                if n_space.is_full() or (n_space.is_zero() and theta == "left"):
                    want = everything
                else:
                    want = frozenset({(0,) * module.dim})
        elif verb == "tau-trace":
            alg, afile = algebra(("matrix", 2, 3))
            x = req["x"]
            functional = [x[j * 2 + i] for i in range(2) for j in range(2)]
            h = ms.Subspace.full(alg.field, 4) if not any(functional) \
                else ms.solve_right_kernel(alg.field, [functional], 4)
            sfile = write(f"r{i}-h.json", h.to_json())
            argv = ["tau", "--algebra", afile, "--subspace", sfile, "--theta", req["theta"]]
            want = _annihilator_tau(x)
        elif verb in ("quasi-stable", "stable"):
            alg, afile = algebra(CLASSIFIED[req["case"]])
            argv = ["quasi-stable", "--algebra", afile, "--theta", req["theta"]]
            # closed forms: quasi-stable iff local or two-dimensional; stable iff
            # the base field or the split pair over GF(2)
            trivial = {alg.zero(), alg.unit}
            split = any(e not in trivial for e in alg.idempotents())
            if verb == "stable":
                argv.append("--stable")
                want = alg.dim == 1 or (alg.field.p == 2 and alg.dim == 2 and split)
            else:
                want = not split or alg.dim == 2
            obj = (alg, req["theta"])
        elif verb == "omega":
            argv = ["omega", "--alpha", json.dumps(req["weights"])]
            if req["p"]:
                argv += ["--field", str(req["p"])]
            want = req["expect"]
        elif verb == "nba":
            cfile = write(f"r{i}-cfg.json", {"field": "Q", "points": [[p] for p in req["points"]],
                                             "alpha": req["weights"]})
            pfile = write(f"r{i}-f.json", _poly_json(req["f"]))
            argv = ["nba", req["predicate"], "--config", cfile, "--poly", pfile]
            f = [Fraction(c) for c in req["f"]]
            twist = [Fraction(w) * horner(f, Fraction(p))
                     for w, p in zip(req["weights"], req["points"])]
            want = {"member": not sum(twist),
                    "sigma": sum(1 for t in twist if t) <= 1,
                    "tau": req["plant"] != "zero-sum"}[req["predicate"]]
        elif verb in ("nq", "integral"):
            cfile = write(f"r{i}-cfg.json", {"a": req["a"], "b": req["b"],
                                             "q": _poly_json(req["q"])})
            pfile = write(f"r{i}-f.json", _poly_json(req["f"]))
            f = [Fraction(c) for c in req["f"]]
            value = double_sum(f, [Fraction(c) for c in req["q"]],
                               Fraction(req["a"]), Fraction(req["b"]))
            if verb == "integral":
                argv = ["integral", "--config", cfile, "--poly", pfile]
                want = value
            else:
                argv = ["nq", req["predicate"], "--config", cfile, "--poly", pfile]
                zero = not any(f)
                want = {"member": value == 0, "sigma": zero,
                        "tau": zero or value != 0}[req["predicate"]]
        elif verb == "verify-witness":
            alg = builder_spec_to_algebra(req["algebra"])
            rng = random.Random(req["seed"])
            pool = list(ms.enumerate_subspaces(alg.field, alg.dim))
            while True:
                j = rng.choice(pool)
                theta = rng.choice(THETAS)
                verdict = ms.is_theta_mathieu_bruteforce(alg, j, theta)
                if verdict.witness is not None:
                    break
            if req["tamper"]:
                j = ms.Subspace.full(alg.field, alg.dim)
            witness = {k: list(v) if isinstance(v, tuple) else v
                       for k, v in verdict.witness.items()}
            wfile = write(f"r{i}-w.json", {"algebra_builder": list(req["algebra"]),
                                           "theta": theta, "subspace": j.to_json(),
                                           "witness": witness})
            argv = ["verify-witness", "--input", wfile]
            want = not req["tamper"]
        else:
            raise ValueError(verb)
        state["argv"].append(argv)
        state["objects"].append(obj)
        expected.append(want)
    return expected


# -- requests -----------------------------------------------------------------------


def call(state: dict, index: int):
    import mathieuspaces.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(state["argv"][index])
    return code, out.getvalue()


def _members(result) -> frozenset:
    return frozenset(tuple(v) for v in result["members"])


def check(state: dict, index: int, result, expected) -> str | None:
    import mathieuspaces as ms

    code, text = result
    verb = state["argv"][index][0]
    want_code = 1 if verb == "verify-witness" and not expected else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    payload = json.loads(text)
    got = payload["result"]
    obj = state["objects"][index]
    if verb in ("sigma", "tau", "radical"):
        got = _members(got)
    elif verb == "max-submodule":
        space = ms.Subspace(obj, got["ambient"], got["basis"])
        got = _elements(space)
    elif verb == "integral":
        got = Fraction(got)
    if got != expected:
        return f"{verb} gave {got}, expected {expected}"
    if verb == "is-mathieu" and "witness" in payload:
        alg, j, theta = obj
        witness = witness_from_json(payload["witness"])
        ok, why = ms.verify_mathieu_witness(alg, j, theta, witness)
        if not ok:
            return f"witness rejected: {why}"
    if verb == "quasi-stable" and "violation" in payload:
        alg, theta = obj
        violation = payload["violation"]
        j = ms.Subspace(alg.field, alg.dim, violation["subspace"]["basis"])
        witness = witness_from_json(violation["witness"])
        ok, why = ms.verify_mathieu_witness(alg, j, theta, witness)
        if not ok:
            return f"violation witness rejected: {why}"
    return None
