"""Left modules over a structure-constant algebra.

A module is a list of action matrices, one per algebra basis element.  The
colon space (N:u) = {a : a.u in N} is the bridge from module subspaces to
algebra subspaces and is computed as a kernel, through the class map of N
(`ColonClasses`) alone.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .algebras import Algebra
from .linalg import (
    BoundedMemo,
    Subspace,
    identity_matrix,
    image_subspace,
    mat_mul,
    mat_vec,
    preimage_subspace,
    rref_rows,
    solve_right_kernel,
    vector_count,
)

# Subspaces N whose colon classes one module keeps, and colon spaces one module
# keeps by the row space that defines them.
COLON_CACHE_SIZE = 256


class ModuleAxiomError(ValueError):
    """Action matrices violate a module axiom; the message names it."""


def _check_length(v: Sequence, dim: int, what: str) -> None:
    if len(v) != dim:
        raise ValueError(f"{what} has {len(v)} coordinates, expected {dim}")


class ModuleSpace:
    def __init__(self, algebra: Algebra, actions: Sequence, name: str | None = None,
                 check: bool = True):
        field = algebra.field
        self.algebra = algebra
        self.field = field
        self.actions = tuple(
            tuple(tuple(field.check_scalar(x) for x in row) for row in m)
            for m in actions
        )
        if len(self.actions) != algebra.dim:
            raise ModuleAxiomError(
                f"{len(self.actions)} action matrices for an algebra of dimension {algebra.dim}")
        self.dim = len(self.actions[0]) if self.actions else 0
        for i, m in enumerate(self.actions):
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ModuleAxiomError(f"action matrix {i} is not {self.dim} x {self.dim}")
        self.name = name or f"module(dim {self.dim} over {algebra.name})"
        # row r*dim + s holds entry (r, s) of every action matrix
        self._action_entries = tuple(zip(*(sum(m, ()) for m in self.actions)))
        self._colon_classes = BoundedMemo(COLON_CACHE_SIZE)  # basis of N -> ColonClasses
        self._colons = BoundedMemo(COLON_CACHE_SIZE)  # canonical rows of C_N(u) -> (N:u)
        if check:
            self._validate()

    def _validate(self):
        field = self.field
        ident = identity_matrix(field, self.dim)
        unit_action = self.action_matrix(self.algebra.unit)
        if unit_action != ident:
            raise ModuleAxiomError("unit does not act as the identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                composed = mat_mul(field, self.actions[i], self.actions[j])
                expected = self.action_matrix(self.algebra.structure[i][j])
                if composed != expected:
                    raise ModuleAxiomError(
                        f"action is not multiplicative at basis pair ({i},{j})")

    # -- acting -----------------------------------------------------------------

    def action_matrix(self, a: Sequence) -> tuple:
        """Matrix of the action of an algebra element, sum_i a_i A_i."""
        _check_length(a, self.algebra.dim, "algebra element")
        d = self.dim
        flat = mat_vec(self.field, self._action_entries, a)
        return tuple(flat[r * d:(r + 1) * d] for r in range(d))

    def act(self, a: Sequence, u: Sequence) -> tuple:
        if len(a) != self.algebra.dim or len(u) != self.dim:
            raise ValueError("dimension mismatch in module action")
        return mat_vec(self.field, self.action_matrix(a), u)

    # -- colon spaces and friends ---------------------------------------------------

    def colon(self, n_space: Subspace, u: Sequence) -> Subspace:
        """(N:u) = {a in A : a.u in N}, canonical subspace of the algebra,
        through the class map of N (see ColonClasses)."""
        classes = self.colon_classes(n_space)
        _check_length(u, self.dim, "module element")
        return classes.colon(u)

    # The same method under a second name: the benchmark's tracer counts the
    # calls made under this name, one per candidate (N, u) of the finders,
    # instead of recording a span per call; `tests/test_tracer_targets.py` pins
    # the name, and `mathieu._colon_candidates` calls it.  The tracer patches
    # each class attribute on its own, so each name keeps its own wrapper.
    colon_cached = colon

    def colon_classes(self, n_space: Subspace) -> "ColonClasses":
        """The colon spaces of N, one per class of u; kept for the last
        COLON_CACHE_SIZE subspaces N."""
        self._check_subspace(n_space)
        hit = self._colon_classes.get(n_space.basis)
        if hit is None:
            hit = self._colon_classes.put(n_space.basis, ColonClasses(self, n_space))
        return hit

    def inverse_image(self, a: Sequence, n_space: Subspace) -> Subspace:
        """{v in M : a.v in N}."""
        self._check_subspace(n_space)
        return preimage_subspace(self.field, self.action_matrix(a), n_space, self.dim)

    def is_submodule(self, v_space: Subspace) -> bool:
        self._check_subspace(v_space)
        for b in v_space.basis:
            for m in self.actions:
                if not v_space.contains(mat_vec(self.field, m, b)):
                    return False
        return True

    def max_submodule(self, n_space: Subspace) -> Subspace:
        """Largest action-invariant subspace inside N (see ColonClasses)."""
        return self.colon_classes(n_space).submodule

    # -- quotients --------------------------------------------------------------

    def quotient_module(self, v_space: Subspace):
        """Quotient by a submodule; returns (quotient, projection hom)."""
        self._check_subspace(v_space)
        if not self.is_submodule(v_space):
            raise ValueError("quotient requires an action-invariant subspace")
        proj, free = v_space.residual, v_space.free
        actions = [tuple(tuple(row[c] for c in free) for row in mat_mul(self.field, proj, m))
                   for m in self.actions]
        quot = ModuleSpace(self.algebra, actions,
                           name=f"{self.name}/(submodule dim {v_space.dim})")
        return quot, ModuleHom(self, quot, proj)

    def _check_subspace(self, s: Subspace):
        if s.ambient_dim != self.dim or s.field != self.field:
            raise ValueError("subspace does not live in this module")

    def __repr__(self):
        return f"ModuleSpace({self.name})"


class ColonClasses:
    """(N:u) for every module element u, one kernel per class of u.

    (N:cu) = (N:u) for a scalar c != 0, and (N:u+v) = (N:u) for v in the
    largest submodule V inside N.  The classes are represented by zero and
    the vectors on the non-pivot coordinates of V whose first nonzero entry
    is 1, so over GF(p) `classes` lists them instead of reducing every
    element.

    With R_N the residual map of N (kernel N), a.u lies in N iff
    sum_i a_i F_i u = 0 for F_i = R_N A_i.  V is the common kernel of the
    F_i, {u : e_i.u in N for every i}: the unit acts as the identity, so
    u = 1.u lies in N, and A.(a.u) lies in A.u.  The F_i are composed once
    per N, so a query costs one matrix-vector product and one row reduction; the
    kernel is built only for a row space the module has not seen.  C_N(cu+v)
    has the row space of C_N(u), so every u of a class finds its kernel there.
    """

    def __init__(self, module: ModuleSpace, n_space: Subspace):
        self.module = module
        self.n_space = n_space
        self._codim = len(n_space.residual)
        # row i*codim + r is row r of F_i
        self._forms = tuple(row for action in module.actions
                            for row in mat_mul(module.field, n_space.residual, action))
        self.submodule = solve_right_kernel(module.field, self._forms, module.dim)
        self._classes: list | None = None

    def colon(self, u: Sequence) -> Subspace:
        """(N:u) as the kernel of C_N(u), the codim x dim_A matrix with columns
        F_i u.  The kernel depends only on the row space of C_N(u), so the
        module keeps its kernels by canonical rows, shared by every N."""
        module, k = self.module, self._codim
        field = module.field
        images = mat_vec(field, self._forms, u)
        rows, _ = rref_rows(field, [images[r::k] for r in range(k)])
        key = tuple(rows)
        hit = module._colons.get(key)
        if hit is None:
            hit = module._colons.put(key, solve_right_kernel(field, rows, module.algebra.dim))
        return hit

    def classes(self, cap: int) -> list | None:
        """[(colon, representatives)]: each distinct colon space of N with the
        class representatives that have it, the group of zero first; None
        when the module is over Q or has more than `cap` elements."""
        field, dim = self.module.field, self.module.dim
        if field.is_rational or vector_count(field, dim) > cap:
            return None
        if self._classes is None:
            groups: dict = {}  # colon basis -> (colon, representatives)
            for rep in self._representatives():
                colon = self.colon(rep)
                groups.setdefault(colon.basis, (colon, []))[1].append(rep)
            self._classes = list(groups.values())
        return self._classes

    def _representatives(self):
        """Zero, then every vector on the non-pivot coordinates of the
        submodule with first nonzero entry 1, in lexicographic order."""
        p, dim = self.module.field.p, self.module.dim
        free = self.submodule.free
        yield (0,) * dim
        for t in range(len(free) - 1, -1, -1):
            for tail in itertools.product(range(p), repeat=len(free) - 1 - t):
                v = [0] * dim
                v[free[t]] = 1
                for c, x in zip(free[t + 1:], tail):
                    v[c] = x
                yield tuple(v)

    def members(self, reps: Sequence) -> list:
        """Every u whose class representative is in `reps`, unsorted: the
        submodule V for the zero representative, c*r + V (c != 0) for r."""
        p = self.module.field.p
        inside = list(self.submodule.elements())
        out = []
        for r in reps:
            if not any(r):
                out += inside
                continue
            for c in range(1, p):
                cr = [c * x for x in r]
                out += [tuple((a + b) % p for a, b in zip(cr, v)) for v in inside]
        return out


class ModuleHom:
    """A linear map between modules over the same algebra that commutes
    with every action matrix."""

    def __init__(self, source: ModuleSpace, target: ModuleSpace, matrix, check: bool = True):
        if source.algebra is not target.algebra and source.algebra.structure != target.algebra.structure:
            raise ValueError("module homomorphisms need a common algebra")
        field = source.field
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(field.check_scalar(x) for x in row) for row in matrix)
        if len(self.matrix) != target.dim or any(len(r) != source.dim for r in self.matrix):
            raise ValueError(f"hom matrix must be {target.dim} x {source.dim}")
        if check:
            for i in range(source.algebra.dim):
                lhs = mat_mul(field, self.matrix, source.actions[i])
                rhs = mat_mul(field, target.actions[i], self.matrix)
                if lhs != rhs:
                    raise ModuleAxiomError(
                        f"map does not commute with the action of basis element {i}")

    def apply(self, u: Sequence) -> tuple:
        return mat_vec(self.source.field, self.matrix, u)

    def pullback_subspace(self, h_space: Subspace) -> Subspace:
        """Preimage of a target subspace."""
        if h_space.ambient_dim != self.target.dim:
            raise ValueError("subspace does not live in the target module")
        return preimage_subspace(self.source.field, self.matrix, h_space, self.source.dim)

    def image_of_subspace(self, s: Subspace) -> Subspace:
        return image_subspace(self.source.field, self.matrix, s)

    @classmethod
    def identity(cls, m: ModuleSpace) -> "ModuleHom":
        return cls(m, m, identity_matrix(m.field, m.dim), check=False)


def natural_module(algebra: Algebra) -> ModuleSpace:
    """The algebra as a left module over itself."""
    field = algebra.field
    actions = []
    for i in range(algebra.dim):
        cols = [algebra.structure[i][j] for j in range(algebra.dim)]
        actions.append(tuple(zip(*cols)))
    return ModuleSpace(algebra, actions, name=f"{algebra.name} as module", check=False)


def column_module(algebra: Algebra, n: int) -> ModuleSpace:
    """K^n under a matrix algebra built with matrix_algebra(n, p)."""
    field = algebra.field
    if algebra.dim != n * n:
        raise ValueError("column module needs the full n x n matrix algebra")
    actions = []
    for i in range(n):
        for j in range(n):
            m = [[field.zero] * n for _ in range(n)]
            m[i][j] = field.one
            actions.append(tuple(tuple(r) for r in m))
    return ModuleSpace(algebra, actions, name=f"{field!r}^{n} (columns)")


def module_hom_basis(source: ModuleSpace, target: ModuleSpace) -> list:
    """Basis of the space of module homomorphisms, as matrices."""
    field = source.field
    rows = []
    s, t = source.dim, target.dim
    # unknowns: X[r][c] flattened row-major; constraints: X A_i - B_i X = 0, summed
    # unreduced and reduced by the kernel's row reduction
    for i in range(source.algebra.dim):
        a_i = source.actions[i]
        b_i = target.actions[i]
        for r in range(t):
            for c in range(s):
                row = [field.zero] * (t * s)
                for k in range(s):
                    row[r * s + k] += a_i[k][c]
                for k in range(t):
                    row[k * s + c] -= b_i[r][k]
                rows.append(tuple(row))
    ker = solve_right_kernel(field, rows, t * s)
    mats = []
    for flat in ker.basis:
        mats.append(tuple(tuple(flat[r * s + c] for c in range(s)) for r in range(t)))
    return mats
