"""Grassmann-block majorization-minimization: geometry, engine, deconvolution, CLI."""

import types as _types

from .deconv import (
    DeconvProblem,
    DeconvState,
    SyntheticInstance,
    build_block_problem,
    circular_convolution,
    circular_correlation,
    default_init,
    generate_instance,
    heuristic_lambda,
    lasso_warm_start,
    lipschitz_bound,
    recovery_score,
    soft_threshold,
)
from .engine import (
    AuditResult,
    BlockProblem,
    ConvergenceReport,
    InfeasibleBlockError,
    IterationRecord,
    MonotonicityViolation,
    NonFiniteCostError,
    SolverConfig,
    SurrogateOracle,
    audit_assumptions,
    audit_derivative_match,
    audit_homogeneity,
    audit_majorization,
    audit_quasiconvexity,
    audit_tightness,
    builtin_subspace_plus_mean,
    run_block_mm,
    stationarity_check,
    subspace_plus_mean_init,
)
from .grassmann import (
    GrassmannPoint,
    canonical_distance,
    principal_angles,
    random_point,
)
from .linalg import (
    NumericError,
    QRFactors,
    ThinSVD,
    as_matrix,
    qr_orthonormalize,
    random_orthonormal,
    thin_svd,
)

# The submodules imported above are attributes too, but not part of the API.
__all__ = [
    name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
]
