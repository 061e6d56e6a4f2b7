"""decider-scan: warm bulk Mathieu decisions on the brute-force/table path.

Each request takes a subspace J and a side selector theta, runs the
brute-force and the idempotent decider, and re-validates every witness with
`verify_mathieu_witness`.  Set-up builds the algebras, their multiplication
tables, power trajectories and idempotents, so table builds land in set-up.
The expectation is the idempotent verdict computed during set-up; the
brute-force verdict of the request is checked against it.

The request list is stratified, so that a pass does the same work for every
seed and only cheap, uniform requests are sampled:

- every subspace of six small algebras, on every side;
- on M_2(GF(5)) and UT_3(GF(3)), every Mathieu hyperplane on every side,
  plus on each side sampled non-Mathieu hyperplanes and sampled subspaces of
  middle dimension.  UT_3(GF(3)) gets no two-sided hyperplanes: a Mathieu one
  takes up to 2.5 s, and the non-Mathieu ones take 3 to 40 ms, so that a
  sample of them would move the tail latency with the seed;
- on truncated_poly(5, 5), above TABLE_MAX_ELEMENTS so the generic scan runs,
  sampled lines on the one-sided selectors (a two-sided generic decision, or
  a larger subspace, takes seconds).

The verdicts that pick the hyperplanes come from the idempotent decider.
"""

from __future__ import annotations

import random

from workloads import THETAS, field_and_dim


ONE_SIDED = ("left", "right")
# M_2(GF(3)) brings a pass above 1100 requests, so that the tail is p99 and
# lands among the Mathieu hyperplanes and generic scans, which every seed has.
EXHAUSTIVE = (("product", 2, 2), ("truncated", 2, 2), ("truncated", 2, 3),
              ("upper", 2, 2), ("matrix", 2, 2), ("matrix", 2, 3))
SAMPLED = (("matrix", 2, 5), ("upper", 3, 3))
SKIP_HYPERPLANES = ((("upper", 3, 3), "two"),)
HYPERPLANES_PER_SIDE = 30
MIDDLE_PER_SIDE = 30
GENERIC = ("truncated", 5, 5)
GENERIC_LINES_PER_SIDE = 3


def _pool(spec):
    import mathieuspaces as ms

    p, dim = field_and_dim(spec)
    return list(ms.enumerate_subspaces(ms.GF(p), dim))


def make_requests(seed: int) -> list:
    import mathieuspaces as ms
    from mathieuspaces.verify import builder_spec_to_algebra

    rng = random.Random(seed)
    requests = []

    def add(spec, spaces, theta):
        requests.extend({"algebra": list(spec), "basis": [list(r) for r in space.basis],
                         "theta": theta} for space in spaces)

    for spec in EXHAUSTIVE:
        for space in _pool(spec):
            for theta in THETAS:
                add(spec, [space], theta)
    for spec in SAMPLED:
        algebra = builder_spec_to_algebra(spec)
        pool = _pool(spec)
        hyper = [s for s in pool if s.dim == algebra.dim - 1]
        middle = [s for s in pool if 0 < s.dim < algebra.dim - 1]
        for theta in THETAS:
            if (spec, theta) not in SKIP_HYPERPLANES:
                mathieu = [ms.is_theta_mathieu_idempotent(algebra, s, theta).is_mathieu
                           for s in hyper]
                add(spec, [s for s, m in zip(hyper, mathieu) if m], theta)
                others = [s for s, m in zip(hyper, mathieu) if not m]
                add(spec, rng.sample(others, HYPERPLANES_PER_SIDE), theta)
            add(spec, rng.sample(middle, MIDDLE_PER_SIDE), theta)
    lines = [s for s in _pool(GENERIC) if s.dim == 1]
    for theta in ONE_SIDED:
        add(GENERIC, rng.sample(lines, GENERIC_LINES_PER_SIDE), theta)
    return requests


def build(requests: list) -> dict:
    import mathieuspaces as ms
    from mathieuspaces.verify import builder_spec_to_algebra

    algebras = {}
    for req in requests:
        key = tuple(req["algebra"])
        if key not in algebras:
            algebra = algebras[key] = builder_spec_to_algebra(key)
            if algebra.mult_table() is not None:
                for idx in range(algebra.element_count()):
                    algebra.trajectory_indices(idx)
            else:
                algebra.element_list()
            algebra.idempotents()
    jobs = []
    for req in requests:
        algebra = algebras[tuple(req["algebra"])]
        jobs.append((algebra, ms.Subspace(algebra.field, algebra.dim, req["basis"]),
                     req["theta"]))
    return {"jobs": jobs}


def prepare(state: dict, requests: list, workdir: str) -> list:
    import mathieuspaces as ms

    return [ms.is_theta_mathieu_idempotent(a, j, theta).is_mathieu
            for a, j, theta in state["jobs"]]


def call(state: dict, index: int):
    import mathieuspaces as ms

    algebra, j, theta = state["jobs"][index]
    out = []
    for verdict in (ms.is_theta_mathieu_bruteforce(algebra, j, theta),
                    ms.is_theta_mathieu_idempotent(algebra, j, theta)):
        valid = None
        if verdict.witness is not None:
            valid, _why = ms.verify_mathieu_witness(algebra, j, theta, verdict.witness)
        out.append((verdict.is_mathieu, valid))
    return out


def check(state: dict, index: int, result, expected: bool) -> str | None:
    for decider, (is_mathieu, valid) in zip(("brute-force", "idempotent"), result):
        if is_mathieu != expected:
            return f"{decider} verdict {is_mathieu}, expected {expected}"
        if is_mathieu != (valid is None):
            return f"{decider} verdict {is_mathieu} with witness validity {valid}"
        if valid is False:
            return f"{decider} witness rejected"
    return None
