"""Dynamics of gonosomal (sex-linked population) evolution operators.

A bilinear evolution operator maps a joint female/male type distribution
to the next generation through inheritance coefficients.  This package
implements the operator for arbitrary type counts, its normalized
restriction to the probability simplex, fixed-point search with spectral
stability classification, the invariant-set structure and trajectory-limit
classifier of the built-in hemophilia model, estimate and convergence
batteries, and a command line front end.
"""

from .invariant_sets import (
    RAW_EQUILIBRIUM,
    InvarianceReport,
    LimitKind,
    LimitVerdict,
    SetCheck,
    SetMembership,
    classify_limit,
    classify_limits,
    closed_form_diagonal,
    membership,
    verify_invariance,
)
from .normalized import (
    ALGEBRAIC_RATE,
    EQUILIBRIUM,
    BoundCheck,
    ConvergenceScanReport,
    EstimateReport,
    check_estimates,
    denormalize_fixed_point,
    normalize_fixed_point,
    preserves_simplex,
    reduced_apply,
    reduced_jacobian_at,
    require_simplex_state,
    sample_simplex,
    scan_global_convergence,
)
from .operator import (
    AnnihilatedStateError,
    DimensionMismatchError,
    GonosomalOperator,
    InheritanceTensor,
    StopReason,
    TensorFormatError,
    TrajectoryRecord,
    dump_tensor,
    hemophilia_operator,
    hemophilia_tensor,
    load_tensor,
)
from .spectral import (
    Classification,
    FixedPointReport,
    FixedPointSearchResult,
    classify,
    eigenvalues,
    find_fixed_points,
    format_report,
)
from .verify import CheckResult, empirical_limits, random_tensor, run_battery

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAIC_RATE",
    "AnnihilatedStateError",
    "BoundCheck",
    "CheckResult",
    "Classification",
    "ConvergenceScanReport",
    "DimensionMismatchError",
    "EQUILIBRIUM",
    "EstimateReport",
    "FixedPointReport",
    "FixedPointSearchResult",
    "GonosomalOperator",
    "InheritanceTensor",
    "InvarianceReport",
    "LimitKind",
    "LimitVerdict",
    "RAW_EQUILIBRIUM",
    "SetCheck",
    "SetMembership",
    "StopReason",
    "TensorFormatError",
    "TrajectoryRecord",
    "check_estimates",
    "classify",
    "classify_limit",
    "classify_limits",
    "closed_form_diagonal",
    "denormalize_fixed_point",
    "dump_tensor",
    "eigenvalues",
    "empirical_limits",
    "find_fixed_points",
    "format_report",
    "hemophilia_operator",
    "hemophilia_tensor",
    "load_tensor",
    "membership",
    "normalize_fixed_point",
    "preserves_simplex",
    "random_tensor",
    "reduced_apply",
    "reduced_jacobian_at",
    "require_simplex_state",
    "run_battery",
    "sample_simplex",
    "scan_global_convergence",
    "verify_invariance",
]
