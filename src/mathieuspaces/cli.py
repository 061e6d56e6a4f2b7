"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 a check or witness failed,
2 usage or schema errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .algebras import (
    BUILDERS,
    THETA_ALIASES,
    builder_spec_to_algebra,
    opposite,
    quotient_algebra,
)
from .fields import QQ
from .linalg import DEFAULT_ELEMENT_CAP
from .mathieu import (
    decide,
    find_algebra_quasi_stable_violation,
    find_algebra_stable_violation,
    find_quasi_stable_violation,
    find_stable_violation,
    is_module_mathieu,
    is_theta_ideal,
    sigma,
    tau,
    verify_mathieu_witness,
)
from .modules import column_module, natural_module
from .polyspaces import exact_integral, nba_member, nba_sigma_member, nba_tau_member, \
    nq_member, nq_sigma_member, nq_tau_member, omega_member, support
from .serialize import (
    SchemaError,
    _require,
    algebra_from_json,
    algebra_to_json,
    eval_config_from_json,
    integral_config_from_json,
    load_json,
    module_from_json,
    module_to_json,
    parse_field,
    parse_vector,
    poly_from_json,
    subspace_from_json,
    vector_to_json,
    witness_from_json,
    witness_to_json,
)
from .verify import Profile, run_suite


def _emit(args, payload, text_lines=None):
    if getattr(args, "format", "json") == "text" and text_lines is not None:
        out = "\n".join(text_lines)
    else:
        out = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _option(args, name):
    """The value of --name, which this request cannot do without."""
    value = getattr(args, name)
    if value is None:
        what = f"gen {args.builder}" if args.verb == "gen" else args.verb
        raise SchemaError(f"{what} needs --{name}")
    return value


def _load_algebra(args):
    return algebra_from_json(load_json(_option(args, "algebra")))


def _load_module(args):
    if getattr(args, "module", None):
        return module_from_json(load_json(args.module),
                                base_dir=os.path.dirname(args.module) or ".")
    return natural_module(_load_algebra(args))


def _load_subspace(args, field, name="subspace"):
    return subspace_from_json(field, load_json(getattr(args, name)))


# -- verb implementations ------------------------------------------------------------


def cmd_gen(args):
    if args.builder in BUILDERS:
        build, size = BUILDERS[args.builder]
        sizes = [_option(args, size)] if size else []
        algebra = build(*sizes, args.p)
    elif args.builder == "opposite":
        algebra = opposite(_load_algebra(args))
    elif args.builder == "quotient":
        base = _load_algebra(args)
        ideal = subspace_from_json(base.field, load_json(_option(args, "ideal")))
        algebra, _proj = quotient_algebra(base, ideal)
    elif args.builder == "natural-module":
        module = natural_module(_load_algebra(args))
        _emit(args, module_to_json(module))
        return 0
    elif args.builder == "column-module":
        module = column_module(_load_algebra(args), _option(args, "n"))
        _emit(args, module_to_json(module))
        return 0
    else:
        raise SchemaError(f"unknown builder {args.builder}")
    _emit(args, algebra_to_json(algebra))
    return 0


def cmd_is_ideal(args):
    algebra = _load_algebra(args)
    j = _load_subspace(args, algebra.field)
    result = is_theta_ideal(algebra, j, args.theta)
    _emit(args, {"result": result},
          [f"{'is' if result else 'is not'} a {args.theta} ideal"])
    return 0


def cmd_is_mathieu(args):
    if args.module:
        module = _load_module(args)
        n = _load_subspace(args, module.field)
        if args.wrt is None:
            raise SchemaError("--module needs --wrt with the reference element")
        u = parse_vector(module.field, json.loads(args.wrt), "--wrt")
        verdict = is_module_mathieu(module, n, u, args.theta,
                                    method=args.method, cap=args.cap)
        field = module.field
    else:
        if args.wrt is not None:
            raise SchemaError("--wrt needs --module")
        algebra = _load_algebra(args)
        j = _load_subspace(args, algebra.field)
        verdict = decide(algebra, j, args.theta, args.method, args.cap)
        field = algebra.field
    payload = {"result": verdict.is_mathieu}
    if verdict.witness is not None:
        payload["witness"] = witness_to_json(field, verdict.witness)
    _emit(args, payload,
          [f"{'Mathieu' if verdict.is_mathieu else 'not Mathieu'} ({args.theta})"])
    return 0


def cmd_sigma_tau(args):
    module = _load_module(args)
    n = _load_subspace(args, module.field)
    if args.verb == "sigma":
        out = sigma(module, n, args.theta, args.cap)
    else:
        out = tau(module, n, args.theta, args.cap, method=args.method)
    payload = {"result": out.to_json()}
    if out.note:  # sigma's pre convention; tau takes pre as "left and right"
        payload["note"] = out.note
    text = ["capped; use membership queries via the library"] if not out.is_explicit \
        else [f"{len(out.members)} elements"]
    _emit(args, payload, text)
    return 0


def cmd_max_submodule(args):
    module = _load_module(args)
    n = _load_subspace(args, module.field)
    result = module.max_submodule(n)
    _emit(args, {"result": result.to_json()}, [f"dimension {result.dim}"])
    return 0


def cmd_radical(args):
    algebra = _load_algebra(args)
    j = _load_subspace(args, algebra.field)
    members = algebra.radical_of_subspace(j, args.cap)
    f = algebra.field
    _emit(args, {"result": {"members": [vector_to_json(f, v) for v in members]}},
          [f"{len(members)} elements"])
    return 0


def cmd_quasi_stable(args):
    if args.module:
        target = _load_module(args)
        find = find_stable_violation if args.stable else find_quasi_stable_violation
    else:
        target = _load_algebra(args)
        find = find_algebra_stable_violation if args.stable \
            else find_algebra_quasi_stable_violation
    options = {} if args.stable else {"method": args.method}
    violation = find(target, args.theta, cap=args.cap, **options)
    payload = {"result": violation is None}
    if violation is not None:
        space, *element, witness = violation  # element: u outside N, modules only
        field = target.field
        found = {"subspace": space.to_json(), "witness": witness_to_json(field, witness)}
        if element:
            found["element"] = vector_to_json(field, element[0])
        payload["violation"] = found
    _emit(args, payload, [str(payload["result"])])
    return 0


def cmd_omega(args):
    spec = args.field
    if isinstance(spec, str) and spec.isdigit():
        spec = int(spec)
    field = parse_field(spec) if spec is not None else QQ
    weights = parse_vector(field, json.loads(args.alpha), "--alpha")
    result = omega_member(weights, field)
    _emit(args, {"result": result, "support": list(support(weights))}, [str(result)])
    return 0


def cmd_nba(args):
    cfg = eval_config_from_json(load_json(args.config))
    poly = poly_from_json(cfg.field, load_json(args.poly))
    fn = {"member": nba_member, "sigma": nba_sigma_member, "tau": nba_tau_member}[args.predicate]
    result = fn(poly, cfg)
    _emit(args, {"result": result}, [str(result)])
    return 0


def cmd_nq(args):
    cfg = integral_config_from_json(load_json(args.config))
    poly = poly_from_json(QQ, load_json(args.poly))
    fn = {"member": nq_member, "sigma": nq_sigma_member, "tau": nq_tau_member}[args.predicate]
    result = fn(poly, cfg)
    _emit(args, {"result": result}, [str(result)])
    return 0


def cmd_integral(args):
    cfg = integral_config_from_json(load_json(args.config))
    poly = poly_from_json(QQ, load_json(args.poly))
    value = exact_integral(poly, cfg)
    _emit(args, {"result": QQ.scalar_to_json(value)}, [QQ.scalar_to_json(value)])
    return 0


def cmd_verify_paper(args):
    if args.profile and args.profile != "default":
        profile = Profile.from_json(load_json(args.profile))
    else:
        profile = Profile()
    if args.cap is not None:
        profile = dataclasses.replace(profile, element_cap=args.cap)
    report = run_suite(profile, jobs=args.jobs)
    with_timing = not args.no_timing
    _emit(args, report.to_json(with_timing), [report.to_text(with_timing)])
    return 0 if report.passed else 1


def cmd_verify_witness(args):
    obj = load_json(args.input)
    if not isinstance(obj, dict):
        raise SchemaError("witness file: the top level must be a JSON object")
    if "algebra" in obj:
        algebra = algebra_from_json(obj["algebra"])
    elif "algebra_builder" in obj:
        algebra = builder_spec_to_algebra(obj["algebra_builder"])
    else:
        raise SchemaError("witness file needs 'algebra' or 'algebra_builder'")
    theta = obj.get("theta", "two")
    j = subspace_from_json(algebra.field, _require(obj, "subspace", "witness file"))
    witness = witness_from_json(algebra.field, _require(obj, "witness", "witness file"))
    ok, reason = verify_mathieu_witness(algebra, j, theta, witness)
    _emit(args, {"result": ok, "reason": reason}, [f"{ok}: {reason}"])
    return 0 if ok else 1


# -- argument parsing ------------------------------------------------------------------


def _add_common(sub, theta=False, cap=True, module=False, method=False):
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    if theta:
        sub.add_argument("--theta", default="two", choices=tuple(THETA_ALIASES))
    if cap:
        sub.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                         help="enumeration cap override")
    if module:
        sub.add_argument("--algebra", help="algebra JSON (used as a module over itself)")
        sub.add_argument("--module", help="module JSON")
    if method:
        sub.add_argument("--method", choices=("idem", "brute"), default="idem",
                         help="Mathieu decider: idempotent criterion or power scan")


def _arg(*flags, **options):
    """One `add_argument` call, kept until a parser is built."""
    return flags, options


_SUBSPACE = _arg("--subspace", required=True)
_PREDICATE = _arg("predicate", choices=("member", "sigma", "tau"))
_CONFIG = _arg("--config", required=True)
_POLY = _arg("--poly", required=True)

# verb -> (help, handler, its own arguments, its _add_common flags), in the
# order `mathieuspaces --help` lists them.
VERBS = {
    "gen": ("emit builder algebras/modules as JSON", cmd_gen, (
        _arg("builder", choices=(*BUILDERS, "opposite", "quotient",
                                 "natural-module", "column-module")),
        _arg("--n", type=int, help="matrix size"),
        _arg("--l", type=int, help="number of components"),
        _arg("--k", type=int, help="truncation exponent"),
        _arg("--p", type=int, help="a prime; omitted means Q"),
        _arg("--algebra", help="input algebra JSON (opposite/quotient/modules)"),
        _arg("--ideal", help="two-sided ideal JSON (quotient)"),
    ), {"cap": False}),
    "is-ideal": ("test the one/two-sided ideal property", cmd_is_ideal,
                 (_arg("--algebra", required=True), _SUBSPACE),
                 {"theta": True, "cap": False}),
    "is-mathieu": ("decide the Mathieu property", cmd_is_mathieu, (
        _SUBSPACE,
        _arg("--wrt", help="module element as a JSON array (with --module)"),
    ), {"theta": True, "module": True, "method": True}),
    "sigma": ("stable elements of a subspace", cmd_sigma_tau, (_SUBSPACE,),
              {"theta": True, "module": True}),
    "tau": ("quasi-stable elements of a subspace", cmd_sigma_tau, (_SUBSPACE,),
            {"theta": True, "module": True, "method": True}),
    "max-submodule": ("largest submodule inside a subspace", cmd_max_submodule,
                      (_SUBSPACE,), {"module": True, "cap": False}),
    "radical": ("elements whose power cycle stays inside", cmd_radical,
                (_arg("--algebra", required=True), _SUBSPACE), {}),
    "quasi-stable": ("exhaustive quasi-stability test", cmd_quasi_stable, (
        _arg("--stable", action="store_true",
             help="test stability (ideals) instead of quasi-stability"),
    ), {"theta": True, "module": True, "method": True}),
    "omega": ("subset-sum weight criterion", cmd_omega, (
        _arg("--alpha", required=True, help="weights as a JSON array"),
        _arg("--field", help='"Q" or a prime, default Q'),
    ), {"cap": False}),
    "nba": ("weighted-evaluation subspace predicates", cmd_nba,
            (_PREDICATE, _CONFIG, _POLY), {"cap": False}),
    "nq": ("integration subspace predicates", cmd_nq,
           (_PREDICATE, _CONFIG, _POLY), {"cap": False}),
    "integral": ("exact weighted integral of a polynomial", cmd_integral,
                 (_CONFIG, _POLY), {"cap": False}),
    "verify-paper": ("run the full verification battery of known identities",
                     cmd_verify_paper, (
        _arg("--profile", default="default", help='"default" or a profile JSON path'),
        _arg("--jobs", type=int, default=1),
        _arg("--no-timing", action="store_true",
             help="omit runtime fields for byte-stable output"),
        _arg("--cap", type=int, help="enumeration cap override"),
    ), {"cap": False}),
    "verify-witness": ("re-validate an embedded failure witness", cmd_verify_witness,
                       (_arg("--input", required=True),), {"cap": False}),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with the subparser of `verb` alone, or of every verb.

    A parser with one subparser parses that verb's argv exactly as the full
    parser does; only the top-level usage line differs (see `main`).
    """
    parser = argparse.ArgumentParser(
        prog="mathieuspaces",
        description="Exact deciders for Mathieu subspaces of finite-dimensional "
                    "algebras and their modules")
    subs = parser.add_subparsers(dest="verb", required=True)
    for name in VERBS if verb is None else (verb,):
        help_text, fn, arguments, common = VERBS[name]
        sub = subs.add_parser(name, help=help_text)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        _add_common(sub, **common)
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    verb = argv[0] if argv and argv[0] in VERBS else None
    args, extra = build_parser(verb).parse_known_args(argv)
    if extra:  # the full parser words the error: its usage line lists every verb
        build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # schema, cap and JSON errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
