"""Deciders for the Mathieu property and the stable/quasi-stable element sets.

Conventions for the side selector theta:
  - "pre" at the ideal level means two-sided (left and right);
  - "pre" at the Mathieu level means left Mathieu AND right Mathieu;
  - "two" tests products with multipliers on both sides.

Negative verdicts always carry a witness that `verify_mathieu_witness`
re-validates from scratch.
"""

from __future__ import annotations

from typing import Sequence

from .algebras import Algebra, ideal_violation_witness, normalize_theta
from .linalg import (
    DEFAULT_ELEMENT_CAP,
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
)
from .modules import ModuleSpace
# `decide` picks the brute-force oracle; all three stay public names of this module
from .oracles import MathieuVerdict, is_theta_mathieu_bruteforce, verify_mathieu_witness

PRE_NOTE = "pre-two-sided ideals are taken to be two-sided ideals"


class ElementSet:
    """A set of module elements: `u in s` asks `predicate`, and the sorted
    members are listed too when enumeration fits the cap."""

    def __init__(self, field, ambient_dim, predicate, members=None, note=None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.predicate = predicate
        self.members = None if members is None else tuple(members)
        self.note = note

    @property
    def is_explicit(self) -> bool:
        return self.members is not None

    def __contains__(self, u) -> bool:
        return self.predicate(self.field.vector(u, self.ambient_dim, "module element"))

    def __iter__(self):
        if self.members is None:
            raise ValueError("cannot iterate a capped element set; use membership queries")
        return iter(self.members)

    def __len__(self):
        if self.members is None:
            raise ValueError("capped element set has no materialized length")
        return len(self.members)

    def __eq__(self, other):
        """Explicit sets compare by members; a capped set equals only itself."""
        if not isinstance(other, ElementSet):
            return NotImplemented
        if self.members is None or other.members is None:
            return self is other
        return self.members == other.members and self.ambient_dim == other.ambient_dim

    def to_json(self):
        if self.members is None:
            return {"capped": True}
        f = self.field
        out = {"members": [[f.scalar_to_json(x) for x in v] for v in self.members]}
        if self.note:
            out["note"] = self.note
        return out


# -- ideal test ------------------------------------------------------------------


def is_theta_ideal(algebra: Algebra, j: Subspace, theta: str) -> bool:
    return ideal_violation_witness(algebra, j, theta) is None


# -- Mathieu deciders -----------------------------------------------------------


def is_theta_mathieu_idempotent(algebra: Algebra, j: Subspace, theta: str,
                                cap: int = DEFAULT_ELEMENT_CAP) -> MathieuVerdict:
    """J is theta-Mathieu iff the theta-ideal of every idempotent in J stays in J.

    Valid here because finite-dimensional algebras over a field are algebraic.
    The whole algebra is Mathieu without a scan, once the field and the cap
    would admit one.  The theta-ideal of an idempotent does not depend on J, so
    its basis rows are cached on the algebra the first time the idempotent
    turns up in some J; only an idempotent whose ideal escapes J has its
    theta-multiples walked, for the first one outside J, the witness.
    """
    theta = normalize_theta(theta)
    algebra.element_count(cap)
    algebra._check_subspace(j)
    if j.is_full():
        return MathieuVerdict(True)
    contains = j.contains
    ideals = algebra._idempotent_ideals
    for e in filter(contains, algebra.idempotents(cap)):
        rows = ideals.get((theta, e))
        if rows is None:
            rows = ideals[theta, e] = algebra.theta_ideal_generated(e, theta).basis
        if all(map(contains, rows)):
            continue
        for _, b, c, m in algebra.theta_multiples([e], theta):
            if not contains(m):
                return MathieuVerdict(False, {"kind": "mathieu", "a": e, "b": b, "c": c,
                                              "power": 1})
    return MathieuVerdict(True)


def _decider(method: str):
    """The Mathieu decider a method names: the idempotent criterion for "idem",
    the brute-force power scan for "brute"; any other name is refused."""
    if method == "idem":
        return is_theta_mathieu_idempotent
    if method == "brute":
        return is_theta_mathieu_bruteforce
    raise ValueError(f"unknown Mathieu decider method {method!r}; use 'idem' or 'brute'")


def decide(algebra: Algebra, j: Subspace, theta: str, method: str, cap: int) -> MathieuVerdict:
    """Is J theta-Mathieu, by the decider `method` names (see `_decider`)."""
    return _decider(method)(algebra, j, theta, cap)


# -- memoized bulk verdicts -------------------------------------------------------


def _witness(algebra: Algebra, j: Subspace, theta: str, method: str, cap: int) -> dict | None:
    """Why J is not a theta-ideal (method "ideal") or not theta-Mathieu (method
    "idem" or "brute"), or None when it is; memoized on the algebra."""
    key = (method, theta, j.basis)
    memo = algebra._memo
    witness = memo.get(key, memo)  # the memo marks a miss, since None is a verdict
    if witness is memo:
        if method == "ideal":
            return memo.put(key, ideal_violation_witness(algebra, j, theta))
        return memo.put(key, decide(algebra, j, theta, method, cap).witness)
    if method != "ideal":  # a cold decision enumerates the algebra and would refuse
        algebra.element_count(cap)
    return witness


# -- module-level tests ------------------------------------------------------------


def is_module_mathieu(module: ModuleSpace, n_space: Subspace, u: Sequence, theta: str,
                      method: str = "idem", cap: int = DEFAULT_ELEMENT_CAP) -> MathieuVerdict:
    """Is N a theta-Mathieu subspace of the module with respect to u."""
    return decide(module.algebra, module.colon(n_space, u), theta, method, cap)


def stable_sets(module: ModuleSpace, n_space: Subspace, cap: int, verdict,
                note: str | None = None) -> ElementSet:
    """Elements u whose colon space (N:u) passes `verdict`.

    Membership asks the verdict of u's class in the colon-space map of N
    (`ColonClasses`).  When the map lists its classes within the cap, the
    verdict runs once per distinct colon space, not once per element, and
    the members are the classes that pass, expanded and sorted into
    `enumerate_vectors` order; over Q or beyond the cap none are listed.
    """
    classes = module.colon_classes(n_space)
    groups = classes.classes(cap)
    members = None
    if groups is not None:
        passed = [reps for colon, reps in groups if verdict(colon)]
        if len(passed) == len(groups):
            members = enumerate_vectors(module.field, module.dim, cap)
        else:
            members = sorted(classes.members([r for reps in passed for r in reps]))
    return ElementSet(module.field, module.dim, lambda u: verdict(classes.colon(u)),
                      members=members, note=note)


def sigma(module: ModuleSpace, n_space: Subspace, theta: str,
          cap: int = DEFAULT_ELEMENT_CAP) -> ElementSet:
    """Elements u with (N:u) a theta-ideal."""
    theta = normalize_theta(theta)
    return stable_sets(module, n_space, cap,
                       lambda j: _witness(module.algebra, j, theta, "ideal", cap) is None,
                       note=PRE_NOTE if theta == "pre" else None)


def tau(module: ModuleSpace, n_space: Subspace, theta: str,
        cap: int = DEFAULT_ELEMENT_CAP, method: str = "idem") -> ElementSet:
    """Elements u with (N:u) a theta-Mathieu subspace (finite fields only).
    Every decision enumerates the algebra, so an algebra over Q or over the
    cap is refused here, even when the set would list no members."""
    theta = normalize_theta(theta)
    _decider(method)  # refuse an unknown method before any scan
    module.algebra.element_count(cap)
    return stable_sets(module, n_space, cap,
                       lambda j: _witness(module.algebra, j, theta, method, cap) is None)


# -- stability of modules and algebras ----------------------------------------------


def _first_violation(algebra: Algebra, theta: str, method: str, cap: int, candidates):
    """The first (*found, witness) from `candidates`, pairs of a tuple `found`
    and a subspace J of the algebra, where J fails `method` (see `_witness`)."""
    for found, j in candidates:
        witness = _witness(algebra, j, theta, method, cap)
        if witness is not None:
            return (*found, witness)
    return None


def _colon_candidates(module: ModuleSpace, cap: int):
    """((N, u), (N:u)) for every proper subspace N and every u outside it."""
    for n_space in enumerate_subspaces(module.field, module.dim, cap):
        if n_space.is_full():
            continue
        for u in enumerate_vectors(module.field, module.dim, cap):
            if not n_space.contains(u):
                yield (n_space, u), module.colon_cached(n_space, u)


def _unit_avoiding_candidates(algebra: Algebra, cap: int):
    """((J,), J) for every subspace J that avoids the unit."""
    for j in enumerate_subspaces(algebra.field, algebra.dim, cap):
        if not j.contains(algebra.unit):
            yield (j,), j


def find_quasi_stable_violation(module: ModuleSpace, theta: str, method: str = "idem",
                                cap: int = DEFAULT_ELEMENT_CAP):
    """First (N, u, witness) with u outside N and (N:u) not theta-Mathieu."""
    _decider(method)
    return _first_violation(module.algebra, normalize_theta(theta), method, cap,
                            _colon_candidates(module, cap))


def find_stable_violation(module: ModuleSpace, theta: str,
                          cap: int = DEFAULT_ELEMENT_CAP):
    """First (N, u, witness) with u outside N and (N:u) not a theta-ideal."""
    return _first_violation(module.algebra, normalize_theta(theta), "ideal", cap,
                            _colon_candidates(module, cap))


def find_algebra_quasi_stable_violation(algebra: Algebra, theta: str, method: str = "idem",
                                        cap: int = DEFAULT_ELEMENT_CAP):
    """First (J, witness) with J avoiding the unit and not theta-Mathieu."""
    _decider(method)
    return _first_violation(algebra, normalize_theta(theta), method, cap,
                            _unit_avoiding_candidates(algebra, cap))


def find_algebra_stable_violation(algebra: Algebra, theta: str,
                                  cap: int = DEFAULT_ELEMENT_CAP):
    """First (J, witness) with J avoiding the unit and not a theta-ideal."""
    return _first_violation(algebra, normalize_theta(theta), "ideal", cap,
                            _unit_avoiding_candidates(algebra, cap))


def is_stable_algebra_classified(algebra: Algebra, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """The closed-form stability verdict: stable iff the algebra is the base
    field itself, or it is the two-dimensional split pair over GF(2)."""
    return algebra.dim == 1 or (algebra.field.p == 2 and algebra.dim == 2
                                and not has_only_trivial_idempotents(algebra, cap))


def is_quasi_stable_algebra_classified(algebra: Algebra,
                                       cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """The closed-form quasi-stability verdict: quasi-stable iff the algebra is
    local (only trivial idempotents) or two-dimensional, where an extra
    idempotent makes it the split pair."""
    return has_only_trivial_idempotents(algebra, cap) or algebra.dim == 2


def has_only_trivial_idempotents(algebra: Algebra, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    trivial = {algebra.zero(), algebra.unit}
    return all(e in trivial for e in algebra.idempotents(cap))
