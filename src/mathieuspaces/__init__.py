"""Exact computational algebra for Mathieu subspaces of finite-dimensional
associative algebras and their modules."""

from .fields import GF, QQ, Field
from .linalg import (
    DEFAULT_ELEMENT_CAP,
    EnumerationCapExceeded,
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
    gaussian_binomial,
    rref,
    solve_right_kernel,
    subspace_intersect,
    subspace_sum,
)
from .algebras import (
    Algebra,
    AlgebraAxiomError,
    PowerTrajectory,
    THETAS,
    field_algebra,
    matrix_algebra,
    normalize_theta,
    opposite,
    product_algebra,
    quotient_algebra,
    truncated_poly,
    upper_triangular,
)
from .modules import (
    ModuleHom,
    ModuleSpace,
    column_module,
    module_hom_basis,
    natural_module,
)
from .mathieu import (
    ElementSet,
    MathieuVerdict,
    is_module_mathieu,
    is_quasi_stable_algebra_classified,
    is_stable_algebra_classified,
    is_theta_ideal,
    is_theta_mathieu_bruteforce,
    is_theta_mathieu_idempotent,
    sigma,
    tau,
    verify_mathieu_witness,
)
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
    standard_eval_config,
    support,
)

__version__ = "0.1.0"
