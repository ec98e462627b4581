"""Numerical modular theory on matrix algebras.

The package realizes the standard form of a faithful state on the n x n
matrices, the modular flow and its quarter-shift calculus, weighted
Dirichlet forms built from flow-twisted derivations, detailed-balance
Lindblad generators, and the Markovian semigroups the forms generate --
together with verification suites that check the structural identities
numerically.

Quick start::

    import numpy as np
    from mdf import build_standard_form, dirichlet_operator, semigroup_operator

    sf = build_standard_form(np.diag([0.75, 0.25]))
    H = dirichlet_operator(sf, np.array([[0.0, 1.0], [1.0, 0.0]]))
    T = semigroup_operator(H, t=1.0)
"""

__version__ = "0.1.0"

from .errors import (
    BalanceViolated,
    DimMismatch,
    MdfError,
    NoConvergence,
    NotAdmissible,
    NotAState,
    NotFaithful,
    NotJReal,
    NotSelfAdjoint,
    Overflow,
    QuadratureNotConverged,
    SchemaError,
)
from .kernels import (
    AdmissibilityCertificate,
    BoundaryCombination,
    CauchyKernel,
    CosineModulatedF0,
    F0Kernel,
    KernelFunction,
    check_admissible,
    kernel_from_descriptor,
)
from .standard_form import (
    DensityMatrix,
    StandardForm,
    SuperOperator,
    build_standard_form,
    gibbs_state,
    jordan_decompose,
    project_order_interval,
    symmetric_embed,
    symmetric_unembed,
    tracial_state,
)
from .modular import (
    D_MINUS_QUARTER,
    D_PLUS_QUARTER,
    S_MAP,
    T_MAP,
    apply_I0,
    modular_map,
    sigma,
    smear,
    smear_quadrature,
    superop_modular_map,
    superop_sigma,
    superop_smear,
    superop_smear_quadrature,
)
from .dirichlet import (
    DirichletReport,
    DirichletSpec,
    coupling_quadratic,
    crosscheck_engines,
    dirichlet_operator,
    ensure_admissible,
    split_self_adjoint,
    verify_boundary_shift,
    verify_dirichlet,
)
from .lindblad import (
    BalanceReport,
    LindbladSpec,
    build_Q,
    check_balance_condition,
    drift_criterion,
    general_f_embedding_residual,
    general_f_generator,
    induced_adjoint_shifted,
    induced_operator,
    induced_operator_shifted,
    kms_symmetry_residual,
    lindblad_superop,
    selfadjoint_component_decomposition,
    spec_from_couplings,
    y_reconstruction_residual,
)
from .semigroup import (
    MarkovianityReport,
    evolve,
    markovianity_report,
    semigroup_operator,
    spectral_gap,
)

__all__ = [
    "__version__",
    # errors
    "MdfError",
    "NotAState",
    "NotFaithful",
    "DimMismatch",
    "NotJReal",
    "NoConvergence",
    "Overflow",
    "QuadratureNotConverged",
    "BalanceViolated",
    "NotAdmissible",
    "NotSelfAdjoint",
    "SchemaError",
    # kernels
    "KernelFunction",
    "F0Kernel",
    "CauchyKernel",
    "CosineModulatedF0",
    "BoundaryCombination",
    "AdmissibilityCertificate",
    "check_admissible",
    "kernel_from_descriptor",
    # standard form
    "DensityMatrix",
    "StandardForm",
    "SuperOperator",
    "build_standard_form",
    "tracial_state",
    "gibbs_state",
    "jordan_decompose",
    "project_order_interval",
    "symmetric_embed",
    "symmetric_unembed",
    # modular calculus
    "sigma",
    "modular_map",
    "apply_I0",
    "smear",
    "smear_quadrature",
    "superop_sigma",
    "superop_smear",
    "superop_smear_quadrature",
    "superop_modular_map",
    "D_PLUS_QUARTER",
    "D_MINUS_QUARTER",
    "T_MAP",
    "S_MAP",
    # dirichlet forms
    "DirichletSpec",
    "DirichletReport",
    "dirichlet_operator",
    "coupling_quadratic",
    "split_self_adjoint",
    "crosscheck_engines",
    "verify_boundary_shift",
    "verify_dirichlet",
    "ensure_admissible",
    # lindblad
    "LindbladSpec",
    "BalanceReport",
    "lindblad_superop",
    "induced_operator",
    "induced_operator_shifted",
    "induced_adjoint_shifted",
    "build_Q",
    "spec_from_couplings",
    "check_balance_condition",
    "drift_criterion",
    "selfadjoint_component_decomposition",
    "y_reconstruction_residual",
    "kms_symmetry_residual",
    "general_f_generator",
    "general_f_embedding_residual",
    # semigroup
    "MarkovianityReport",
    "semigroup_operator",
    "evolve",
    "spectral_gap",
    "markovianity_report",
]
