"""One module per benchmark workload; see perfbench/README.md.

Each module makes its inputs from a seed (`make_requests`), builds the
program's objects and warms their caches (`build`), computes the expected
answers by another route (`prepare`), answers one request (`call`) and
compares an answer with its expectation (`check`).
"""

THETAS = ("left", "right", "pre", "two")


def field_and_dim(spec) -> tuple:
    """(p, dimension) of an algebra given by its builder spec."""
    kind, *args = spec
    if kind == "field":
        return args[0], 1
    a, p = args
    return p, {"matrix": a * a, "product": a, "truncated": a, "upper": a * (a + 1) // 2}[kind]


def witness_from_json(obj: dict) -> dict:
    """A witness as `verify_mathieu_witness` takes it, from its JSON form."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
