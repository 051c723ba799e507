"""Buckling eigenvalues of clamped geodesic caps and their universal bounds.

The package splits into four layers: spectrum (domain and spectrum types
with JSON persistence), bounds (eigenvalue inequalities and the quadratic
recursion bounds), solver (the cap eigenproblem itself), and harness/cli
(verification campaigns and the command line).
"""

from .bounds import (
    BoundReport,
    BoundTerms,
    CheckRecord,
    bound_next,
    bound_terms,
    build_report,
    chebyshev_check,
    check_theorem,
    check_yang,
    compute_S_T,
    default_delta_grid,
    dominance_gap,
    optimal_delta,
    wangxia_rhs,
)
from .errors import (
    AllGapsZero,
    ConfigError,
    InsufficientModes,
    InvalidDelta,
    InvalidInput,
    NegativeDiscriminant,
    NoConvergence,
    NonPositive,
    OrderViolation,
    SingularTerm,
    SphereBuckleError,
    Unsorted,
    UnsupportedMode,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    CaseResult,
    run_campaign,
)
from .spectrum import (
    CapDomain,
    EigenPair,
    Spectrum,
    harmonic_multiplicity,
    load_spectrum,
    merge_modes,
    save_spectrum,
    validate_spectrum,
)
from .solver import (
    angular_eigenvalue,
    assemble_mode,
    convergence_table,
    coordinate_split_residuals,
    solve_cap,
)

__version__ = "0.1.0"

__all__ = [
    "AllGapsZero",
    "BoundReport",
    "BoundTerms",
    "CampaignConfig",
    "CampaignReport",
    "CapDomain",
    "CaseResult",
    "CheckRecord",
    "ConfigError",
    "EigenPair",
    "InsufficientModes",
    "InvalidDelta",
    "InvalidInput",
    "NegativeDiscriminant",
    "NoConvergence",
    "NonPositive",
    "OrderViolation",
    "SingularTerm",
    "SphereBuckleError",
    "Spectrum",
    "Unsorted",
    "UnsupportedMode",
    "angular_eigenvalue",
    "assemble_mode",
    "bound_next",
    "bound_terms",
    "build_report",
    "chebyshev_check",
    "check_theorem",
    "check_yang",
    "compute_S_T",
    "convergence_table",
    "coordinate_split_residuals",
    "default_delta_grid",
    "dominance_gap",
    "harmonic_multiplicity",
    "load_spectrum",
    "merge_modes",
    "optimal_delta",
    "run_campaign",
    "save_spectrum",
    "solve_cap",
    "validate_spectrum",
    "wangxia_rhs",
    "__version__",
]
