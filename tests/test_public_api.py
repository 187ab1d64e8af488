import grassmm
from grassmm import deconv, engine, grassmann

PUBLIC_NAMES = [
    "AuditResult",
    "BlockProblem",
    "ConvergenceReport",
    "DeconvProblem",
    "DeconvState",
    "GrassmannPoint",
    "InfeasibleBlockError",
    "IterationRecord",
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
    "build_block_problem",
    "builtin_subspace_plus_mean",
    "canonical_distance",
    "circular_convolution",
    "circular_correlation",
    "default_init",
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
    "stationarity_check",
    "subspace_plus_mean_init",
    "thin_svd",
]

# Single-point references the package does not call, which the tests keep in
# grassmann_oracles.py and deconv_oracles.py, and the wrappers run_block_mm
# made redundant: solve_deconv, final_state and IterationTrace.
REMOVED_NAMES = [
    "GeodesicNotUnique",
    "IterationTrace",
    "PrincipalAngles",
    "TangentVector",
    "deconv_cost",
    "exp_map",
    "final_state",
    "geodesic",
    "grad_a",
    "grad_x",
    "log_map",
    "make_point",
    "prox_step_x",
    "random_unit_tangent",
    "riemannian_gradient",
    "solve_deconv",
    "tangent_project",
]


def test_public_names_are_pinned():
    # No submodule: `from grassmm import *` binds these names and nothing else.
    assert sorted(grassmm.__all__) == PUBLIC_NAMES


def test_removed_names_are_gone():
    for module in (grassmm, grassmann, deconv):
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []


def test_deconv_builds_problems_and_the_engine_runs_them():
    assert [name for name in REMOVED_NAMES if hasattr(engine, name)] == []
    runner = ("run_block_mm", "SolverConfig", "ConvergenceReport")
    assert [name for name in runner if hasattr(deconv, name)] == []
