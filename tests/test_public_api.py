import grassmm
from grassmm import deconv, grassmann

PUBLIC_NAMES = [
    "AuditResult",
    "BlockProblem",
    "ConvergenceReport",
    "DeconvProblem",
    "DeconvState",
    "GeodesicNotUnique",
    "GrassmannPoint",
    "InfeasibleBlockError",
    "IterationRecord",
    "IterationTrace",
    "MonotonicityViolation",
    "NonFiniteCostError",
    "NumericError",
    "QRFactors",
    "SolverConfig",
    "SurrogateOracle",
    "SyntheticInstance",
    "ThinSVD",
    "as_matrix",
    "audit_assumptions",
    "audit_derivative_match",
    "audit_homogeneity",
    "audit_majorization",
    "audit_quasiconvexity",
    "audit_tightness",
    "builtin_subspace_plus_mean",
    "canonical_distance",
    "circular_convolution",
    "circular_correlation",
    "default_init",
    "final_state",
    "generate_instance",
    "heuristic_lambda",
    "lasso_warm_start",
    "lipschitz_bound",
    "principal_angles",
    "qr_orthonormalize",
    "random_orthonormal",
    "random_point",
    "recovery_score",
    "run_block_mm",
    "soft_threshold",
    "solve_deconv",
    "stationarity_check",
    "subspace_plus_mean_init",
    "thin_svd",
]

# Single-point references the package does not call; the tests keep them in
# grassmann_oracles.py and deconv_oracles.py.
REMOVED_NAMES = [
    "PrincipalAngles",
    "TangentVector",
    "deconv_cost",
    "exp_map",
    "geodesic",
    "grad_a",
    "grad_x",
    "log_map",
    "make_point",
    "prox_step_x",
    "random_unit_tangent",
    "riemannian_gradient",
    "tangent_project",
]


def test_public_names_are_pinned():
    # No submodule: `from grassmm import *` binds these names and nothing else.
    assert sorted(grassmm.__all__) == PUBLIC_NAMES


def test_removed_names_are_gone():
    for module in (grassmm, grassmann, deconv):
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
