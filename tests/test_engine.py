import gc
import math
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from grassmm import (
    AuditResult,
    BlockProblem,
    DeconvProblem,
    GrassmannPoint,
    InfeasibleBlockError,
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
    canonical_distance,
    default_init,
    generate_instance,
    heuristic_lambda,
    random_orthonormal,
    random_point,
    run_block_mm,
    stationarity_check,
    subspace_plus_mean_init,
)
from grassmm import engine
from grassmm.deconv import build_block_problem
from grassmm.grassmann import _pair_geodesics, _project, _secant_point

from grassmann_oracles import exp_map, log_map, make_point, random_unit_tangent


def subspace_optimum(a, d):
    """Closed-form optimum of the subspace-plus-mean cost: centered SVD."""
    c = a.mean(axis=1)
    b = a - c[:, None]
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    return u[:, :d], c, float(np.sum(s[d:] ** 2))


def identity_constraint(c):
    return c


def line(angle):
    return make_point(np.array([[np.cos(angle)], [np.sin(angle)]]))


def distance_grad(target):
    """The gradient of canonical_distance(g, target) ** 2 in g: -2 log_g(target)."""
    return lambda g, c: -2.0 * log_map(g, target).delta


def zero_g_grad(g, c):
    """The Grassmann gradient of a cost that does not depend on G."""
    return np.zeros_like(g.basis)


def zero_c_grad(g, c):
    """The convex gradient of a cost that does not depend on c."""
    return np.zeros_like(c)


# --- solver basics ------------------------------------------------------------


def test_fixed_point_converges_in_one_iteration():
    a = np.random.default_rng(0).standard_normal((6, 20))
    prob = builtin_subspace_plus_mean(a, 2)
    # land exactly on a fixed point of the two-block update map
    g_star, c_star = subspace_plus_mean_init(a, 2, 0)
    for _ in range(3):
        g_star = prob.grassmann_surrogate.minimize(g_star, c_star)
        c_star = prob.convex_surrogate.minimize(g_star, c_star)
    g_star = prob.grassmann_surrogate.minimize(g_star, c_star)
    trace, report = run_block_mm(prob, g_star, c_star, SolverConfig(seed=0))
    assert report.converged
    assert report.iterations == 1
    assert trace[0].dc_step == 0.0


def test_subspace_plus_mean_matches_svd_oracle():
    for seed in range(5):
        a = np.random.default_rng(seed).standard_normal((10, 40))
        prob = builtin_subspace_plus_mean(a, 2)
        g0, c0 = subspace_plus_mean_init(a, 2, seed)
        _, report = run_block_mm(prob, g0, c0, SolverConfig(seed=seed))
        _, _, best = subspace_optimum(a, 2)
        assert report.converged
        assert abs(report.final_cost - best) <= 1e-8


def test_subspace_plus_mean_counts_follow_the_integer_rule():
    a = np.random.default_rng(1).standard_normal((4, 9))
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got"):
            builtin_subspace_plus_mean(a, bad)
        with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got"):
            subspace_plus_mean_init(a, bad, 0)
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got"):
            subspace_plus_mean_init(a, 2, bad)
    assert builtin_subspace_plus_mean(a, np.int64(2)).dims == (4, 2, 4)
    g, c = subspace_plus_mean_init(a, np.int32(2), np.int64(5))
    assert_array_equal(g.basis, subspace_plus_mean_init(a, 2, 5)[0].basis)


def test_subspace_plus_mean_exact_rank():
    # data that is exactly mean + rank-2 leaves zero residual
    rng = np.random.default_rng(3)
    g = random_point(3, 8, 2).basis
    a = rng.standard_normal(8)[:, None] + g @ rng.standard_normal((2, 30))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 0)
    _, report = run_block_mm(prob, g0, c0, SolverConfig(seed=0))
    assert report.final_cost <= 1e-18


def test_subspace_plus_mean_pure_mean():
    c_star = np.array([2.0, -1.0, 0.5, 3.0])
    a = np.tile(c_star[:, None], (1, 12))
    prob = builtin_subspace_plus_mean(a, 1)
    g0, c0 = subspace_plus_mean_init(a, 1, 1)
    _, report = run_block_mm(prob, g0, c0, SolverConfig(seed=1))
    assert_allclose(report.final_c, c_star, atol=1e-12)
    assert report.final_cost <= 1e-20


def test_descent_chain_within_trace():
    a = np.random.default_rng(7).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 3)
    g0, c0 = subspace_plus_mean_init(a, 3, 7)
    records, _ = run_block_mm(prob, g0, c0, SolverConfig(seed=7))
    for k, r in enumerate(records):
        assert r.f_after_g <= r.f + 1e-10
        if k + 1 < len(records):
            assert records[k + 1].f <= r.f_after_g + 1e-10


def test_trace_is_deterministic():
    a = np.random.default_rng(5).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 5)
    config = SolverConfig(seed=5)
    t1, r1 = run_block_mm(prob, g0, c0, config)
    t2, r2 = run_block_mm(prob, g0, c0, config)
    assert_array_equal([r.f for r in t1], [r.f for r in t2])
    assert_array_equal([r.dc_step for r in t1], [r.dc_step for r in t2])
    assert r1.final_cost == r2.final_cost
    s1, s2 = (stationarity_check(prob, r.final_g, r.final_c, config.audit_samples, config.seed) for r in (r1, r2))
    assert s1 == s2


def test_rerunning_block_update_from_converged_state_stays_put():
    a = np.random.default_rng(2).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 2)
    _, report = run_block_mm(prob, g0, c0, SolverConfig(seed=2))
    g_again = prob.grassmann_surrogate.minimize(report.final_g, report.final_c)
    assert canonical_distance(g_again, report.final_g) <= 1e-6


def test_in_run_audits_recorded():
    a = np.random.default_rng(9).standard_normal((8, 24))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 9)
    trace, report = run_block_mm(prob, g0, c0, SolverConfig(seed=9, audit_every=1, audit_samples=10))
    # Only tightness and majorization run in-run, on purpose: quasiconvexity
    # fails at this run's random start (worst 2.54 over 10 pairs, seed 9), so
    # grassmm audit samples it only at the final anchor.
    summary = report.audit_summary
    assert set(summary) == {"tightness", "majorization"}
    assert all(r.passed for r in summary.values())
    assert summary["tightness"].worst <= 1e-12
    # One anchor per iteration, merged over both blocks and every iteration.
    assert (summary["tightness"].checked, summary["tightness"].block) == (2 * report.iterations, None)
    assert trace[0].audit_ok is True


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(dist_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(audit_samples=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dist_tol", float("nan")),
        ("cost_tol", float("inf")),
        ("dist_tol", True),
        ("max_iter", 2.5),
        ("max_iter", True),
        ("audit_samples", 2.5),
        ("audit_every", 1.0),
        ("seed", 0.5),
        ("seed", -1),
    ],
)
def test_solver_config_rejects_non_finite_and_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_integers_and_integer_tolerances():
    config = SolverConfig(max_iter=np.int64(3), dist_tol=1, seed=np.int32(2))
    assert config.max_iter == 3 and config.dist_tol == 1


# --- failure modes --------------------------------------------------------------


def ascending_cost_problem():
    """Grassmann 'minimizer' that walks away from the target, raising the cost."""
    target = line(0.0)

    def cost(g, c):
        return canonical_distance(g, target) ** 2

    def bad_minimize(g, c):
        angle = np.arctan2(g.basis[1, 0], g.basis[0, 0])
        return line(angle + 0.2)

    g_or = SurrogateOracle(evaluate=lambda cand, g, c: cost(cand, c), minimize=bad_minimize)
    c_or = SurrogateOracle(evaluate=lambda cand, g, c: cost(g, cand), minimize=lambda g, c: c)
    return BlockProblem(
        cost=cost,
        grassmann_surrogate=g_or,
        convex_surrogate=c_or,
        convex_constraint=identity_constraint,
        dims=(2, 1, 1),
        grassmann_grad=distance_grad(target),
        convex_grad=zero_c_grad,
    )


def test_monotonicity_violation_raises():
    prob = ascending_cost_problem()
    with pytest.raises(MonotonicityViolation, match="grassmann update increased"):
        run_block_mm(prob, line(0.4), np.zeros(1), SolverConfig(seed=0))


def test_infeasible_grassmann_block_named():
    prob = ascending_cost_problem()
    broken = replace(
        prob,
        grassmann_surrogate=SurrogateOracle(
            evaluate=prob.grassmann_surrogate.evaluate,
            minimize=lambda g, c: g.basis,  # returns a bare array, not a point
        ),
    )
    with pytest.raises(InfeasibleBlockError, match="grassmann block update must be a GrassmannPoint, got ndarray"):
        run_block_mm(broken, line(0.4), np.zeros(1), SolverConfig(seed=0))
    # a point of the wrong Grassmann manifold names both
    wrong_dims = replace(
        broken, grassmann_surrogate=replace(broken.grassmann_surrogate, minimize=lambda g, c: random_point(0, 3, 1))
    )
    with pytest.raises(InfeasibleBlockError, match=r"grassmann block update is a point of Gr\(3, 1\), expected Gr\(2, 1\)"):
        run_block_mm(wrong_dims, line(0.4), np.zeros(1), SolverConfig(seed=0))


def test_infeasible_convex_block_named():
    target = line(0.0)

    def cost(g, c):
        return canonical_distance(g, target) ** 2 + float(np.sum(c**2))

    prob = BlockProblem(
        cost=cost,
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: cost(cand, c), minimize=lambda g, c: g
        ),
        convex_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: cost(g, cand),
            minimize=lambda g, c: np.zeros(3),  # wrong length
        ),
        convex_constraint=identity_constraint,
        dims=(2, 1, 1),
        grassmann_grad=distance_grad(target),
        convex_grad=lambda g, c: 2.0 * c,
    )
    with pytest.raises(InfeasibleBlockError, match="convex block"):
        run_block_mm(prob, line(0.4), np.zeros(1), SolverConfig(seed=0))


def test_constraint_projection_gap_is_infeasible():
    target = line(0.0)

    def cost(g, c):
        return canonical_distance(g, target) ** 2

    prob = BlockProblem(
        cost=cost,
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: cost(cand, c), minimize=lambda g, c: g
        ),
        convex_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: cost(g, cand),
            minimize=lambda g, c: np.full(1, 5.0),
        ),
        convex_constraint=lambda c: np.clip(c, 0.0, 1.0),
        dims=(2, 1, 1),
        grassmann_grad=distance_grad(target),
        convex_grad=zero_c_grad,
    )
    with pytest.raises(InfeasibleBlockError, match="infeasible"):
        run_block_mm(prob, line(0.4), np.zeros(1), SolverConfig(seed=0))


def test_non_finite_cost_raises_instead_of_iterating():
    # Each kernel step halves the angle to the x-axis; the cost turns NaN at the
    # kernel step of iteration 3. NaN passes every ">" descent check, so without
    # the guard the run would go on to max_iter.
    target = line(0.0)
    steps = []

    def cost(g, c):
        return float("nan") if len(steps) > 3 else canonical_distance(g, target) ** 2

    def halve(g, c):
        steps.append(g)
        return line(0.8 / 2 ** len(steps))

    prob = BlockProblem(
        cost=cost,
        grassmann_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: cost(cand, c), minimize=halve),
        convex_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: cost(g, cand), minimize=lambda g, c: c),
        convex_constraint=identity_constraint,
        dims=(2, 1, 1),
        grassmann_grad=distance_grad(target),
        convex_grad=zero_c_grad,
    )
    with pytest.raises(NonFiniteCostError, match=r"after the grassmann update \(iteration 3\)"):
        run_block_mm(prob, line(0.8), np.zeros(1), SolverConfig(max_iter=50, seed=0))
    assert issubclass(NonFiniteCostError, ValueError)  # the CLI maps ValueError to exit 1


def test_large_data_scale_converges_without_tangency_error():
    # At data scale 1e4 the Euclidean gradient is ~1e9, so rounding alone leaves
    # X^T H entries far above the absolute TANGENCY_TOL after projection.
    a = 1e4 * np.random.default_rng(0).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 0)
    _, report = run_block_mm(prob, g0, c0, SolverConfig(seed=0))
    _, _, best = subspace_optimum(a, 2)
    assert report.converged
    assert abs(report.final_cost - best) <= 1e-8 * best


def deconv_scaled_run(seed, n, scale, max_iter=5000):
    """A deconv solve on y = scale * y_seed from default_init, with the heuristic lambda."""
    y = scale * generate_instance(seed, n, 0.0625, 8, 0.0).y
    init = default_init(y, 8)
    block = build_block_problem(DeconvProblem(y=y, lam=heuristic_lambda(y, init.kernel)))
    return run_block_mm(block, init.a, init.x, SolverConfig(max_iter=max_iter, audit_samples=8, seed=0))[1]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-20, 26),
)
@example(n=64, seed=0, k=300)
@example(n=64, seed=0, k=400)
@example(n=32, seed=1, k=400)
@example(n=64, seed=0, k=-300)
@example(n=64, seed=0, k=-500)
@example(n=1024, seed=0, k=-300)
@example(n=1024, seed=0, k=-500)
def test_deconv_run_is_bit_identical_under_power_of_two_scaling(n, seed, k):
    # Scaling y by 2^k scales every cost by 4^k exactly, so a solver whose
    # decisions compare costs with the initial cost makes the same ones. Only
    # subnormal values scale inexactly: kernel entries that decay below the
    # smallest normal float may differ there. At k = 300 and 400 the kernel
    # gradient (of order 4^k) has a sum of squares past the largest float,
    # while its norm and every cost stay finite; at k = -300 and -500 its sum
    # of squares falls below the smallest float, while its norm does not. At
    # N=1024 the run stops at max_iter, where the gradient is far from 0.
    base = deconv_scaled_run(seed, n, 1.0, max_iter=500)
    scaled = deconv_scaled_run(seed, n, np.ldexp(1.0, k), max_iter=500)
    assert (scaled.converged, scaled.iterations) == (base.converged, base.iterations)
    assert_allclose(scaled.final_g.basis, base.final_g.basis, rtol=0.0, atol=np.finfo(float).tiny)
    assert np.ldexp(scaled.final_cost, -2 * k) == base.final_cost
    # The Riemannian gradient scales by 4^k and the code's by 2^k. A norm
    # scaled into the subnormal range (at k = -500 that of a converged kernel,
    # about 1e-316) is held to its absolute spacing there.
    pairs = ((scaled.grad_norm_g, base.grad_norm_g, 2 * k), (scaled.grad_norm_c, base.grad_norm_c, k))
    for norm, base_norm, power in pairs:
        spacing = np.ldexp(np.finfo(float).smallest_subnormal, -power)
        assert_allclose(np.ldexp(norm, -power), base_norm, rtol=1e-15, atol=4 * spacing)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["deconv", "subspace-mean"]),
    n=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 12.0).filter(lambda v: v != 0.0),  # 10^0 = 1 is a power of two
)
def test_rescaled_data_keeps_the_outcome(kind, n, seed, log_scale):
    def run(s):
        if kind == "deconv":
            return deconv_scaled_run(seed, n, s)
        a = s * np.random.default_rng(seed).standard_normal((n, 40))
        block = builtin_subspace_plus_mean(a, 2)
        return run_block_mm(block, *subspace_plus_mean_init(a, 2, seed), SolverConfig(seed=0))[1]

    scale = 10.0**log_scale

    base, scaled = run(1.0), run(scale)
    assert scaled.converged == base.converged
    assert_allclose(scaled.final_cost / scale**2, base.final_cost, rtol=1e-8)


def test_run_rejects_an_init_that_does_not_fit_the_dims():
    a = np.random.default_rng(0).standard_normal((6, 20))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 0)
    with pytest.raises(ValueError, match="init_g must be a GrassmannPoint, got ndarray"):
        run_block_mm(prob, g0.basis, c0)
    with pytest.raises(ValueError, match=r"init_g is a point of Gr\(6, 3\), expected Gr\(6, 2\)"):
        run_block_mm(prob, random_point(0, 6, 3), c0)
    with pytest.raises(ValueError, match=r"init_c has shape \(5,\), expected \(6,\)"):
        run_block_mm(prob, g0, c0[:5])


def no_cost_call(*args):
    raise AssertionError("the cost was called")


BAD_GRADIENT_DATA = np.random.default_rng(0).standard_normal((6, 20))


def nan_at_the_final_iterate(g, c):
    """A convex gradient that is NaN at the point where the run with the
    built-in gradients stops, and zero everywhere else."""
    prob = builtin_subspace_plus_mean(BAD_GRADIENT_DATA, 2)
    final = run_block_mm(prob, *subspace_plus_mean_init(BAD_GRADIENT_DATA, 2, 0), SolverConfig(seed=0))[1]
    at_final = np.array_equal(g.basis, final.final_g.basis) and np.array_equal(c, final.final_c)
    return np.full(c.shape, np.nan if at_final else 0.0)


@pytest.mark.parametrize(
    "field, value, error, match",
    [
        ("convex_grad", lambda g, c: np.full(c.shape, np.nan), NonFiniteCostError, "gradient norms are"),
        ("convex_grad", lambda g, c: np.zeros(c.size + 1), ValueError, r"convex_grad result has shape \(7,\)"),
        ("grassmann_grad", lambda g, c: np.full(g.basis.shape, np.nan), NonFiniteCostError, "gradient norms are"),
        ("grassmann_grad", lambda g, c: g.basis[:, :1], ValueError, r"grassmann_grad result has shape \(6, 1\)"),
        ("convex_grad", nan_at_the_final_iterate, NonFiniteCostError, r"gradient norms are \S+ \(grassmann\) and nan \(convex\)"),
        # A problem without a gradient is refused before the first cost call.
        ("grassmann_grad", None, ValueError, "^run_block_mm needs the problem's grassmann_grad; it has none$"),
        ("convex_grad", None, ValueError, "^run_block_mm needs the problem's convex_grad; it has none$"),
    ],
    ids=[
        "convex-nan", "convex-shape", "grassmann-nan", "grassmann-shape", "convex-nan-at-final",
        "no-grassmann-grad", "no-convex-grad",
    ],
)
def test_a_bad_gradient_raises_instead_of_converging(field, value, error, match):
    a = BAD_GRADIENT_DATA
    prob = replace(builtin_subspace_plus_mean(a, 2), **{field: value})
    if value is None:
        prob = replace(prob, cost=no_cost_call, costs=no_cost_call)
    g0, c0 = subspace_plus_mean_init(a, 2, 0)
    with pytest.raises(error, match=match):
        run_block_mm(prob, g0, c0, SolverConfig(seed=0))


def builtin_runs():
    """(name, problem, init) of each built-in: deconv on the direct and on the
    FFT path, and subspace-mean on Gr(10, 2)."""
    for n in (64, 128):
        y = generate_instance(0, n, 0.0625, 8, 0.0).y
        init = default_init(y, 8)
        yield f"deconv-{n}", build_block_problem(DeconvProblem(y=y, lam=0.1)), (init.a, init.x)
    a = np.random.default_rng(0).standard_normal((10, 40))
    yield "subspace-mean", builtin_subspace_plus_mean(a, 2), subspace_plus_mean_init(a, 2, 0)


@pytest.mark.parametrize("problem, init", [pytest.param(p, init, id=name) for name, p, init in builtin_runs()])
def test_each_gradient_is_called_once_per_run(problem, init):
    # The gradient norms are the final iterate's certificate: no decision of
    # the run reads them, so each gradient is called once, after the loop.
    calls = {"grassmann_grad": [], "convex_grad": []}

    def counted(field):
        grad = getattr(problem, field)
        return lambda g, c: calls[field].append((g, c)) or grad(g, c)

    counting = replace(problem, **{field: counted(field) for field in calls})
    for max_iter in (1, 7, 5000):
        for seen in calls.values():
            seen.clear()
        _, report = run_block_mm(counting, *init, SolverConfig(max_iter=max_iter, seed=0))
        # subspace-mean converges within 7 iterations
        assert report.converged or (max_iter < 5000 and report.iterations == max_iter)
        for seen in calls.values():
            assert len(seen) == 1
            g, c = seen[0]
            assert g is report.final_g and c is report.final_c


def test_extrapolated_convex_value_is_checked():
    # The constraint's fifth call is the extrapolation try of iteration 2,
    # after the init and the convex steps of iterations 0, 1 and 2.
    target = np.array([1.0, -2.0])
    calls = []

    def constraint(v):
        calls.append(v)
        return np.append(v, 0.0) if len(calls) == 5 else v

    prob = replace(quadratic_pull(np.pi / 4, target), convex_constraint=constraint)
    with pytest.raises(InfeasibleBlockError, match=r"convex_constraint result has shape \(3,\), expected \(2,\)"):
        run_block_mm(prob, line(0.0), np.zeros(2), SolverConfig(max_iter=7, seed=0))
    assert len(calls) == 5


def test_tie_oscillation_is_flagged():
    # constant cost, but the block minimizer cycles through three subspaces at
    # unequal step lengths: the distance trace oscillates without dying out
    points = [line(0.0), line(0.3), line(0.4)]

    def next_point(g, c):
        gaps = [canonical_distance(g, p) for p in points]
        return points[(int(np.argmin(gaps)) + 1) % 3]

    prob = BlockProblem(
        cost=lambda g, c: 1.0,
        grassmann_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 1.0, minimize=next_point),
        convex_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 1.0, minimize=lambda g, c: c),
        convex_constraint=identity_constraint,
        dims=(2, 1, 1),
        grassmann_grad=zero_g_grad,
        convex_grad=zero_c_grad,
    )
    _, report = run_block_mm(prob, points[0], np.zeros(1), SolverConfig(max_iter=21, seed=0))
    assert not report.converged
    assert report.tie_suspected


# --- audits ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_problem():
    a = np.random.default_rng(12).standard_normal((8, 30))
    return builtin_subspace_plus_mean(a, 2)


@pytest.fixture(scope="module")
def exact_anchors(exact_problem):
    rng = np.random.default_rng(13)
    anchors = []
    for seed in range(20):
        g = random_point(seed, 8, 2)
        anchors.append((g, rng.standard_normal(8)))
    return anchors


def test_audit_tightness_exact_and_offset(exact_problem, exact_anchors):
    res = audit_tightness(exact_problem, "grassmann", exact_anchors)
    assert res.passed and res.worst == 0.0

    offset = BlockProblem(
        cost=exact_problem.cost,
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: exact_problem.cost(cand, c) + 1.0,
            minimize=exact_problem.grassmann_surrogate.minimize,
        ),
        convex_surrogate=exact_problem.convex_surrogate,
        convex_constraint=exact_problem.convex_constraint,
        dims=exact_problem.dims,
    )
    bad = audit_tightness(offset, "grassmann", exact_anchors)
    assert not bad.passed
    assert_allclose(bad.worst, 1.0, atol=1e-12)


def test_audit_tightness_without_anchors_fails(exact_problem):
    res = audit_tightness(exact_problem, "grassmann", [])
    assert not res.passed and res.checked == 0


def test_audit_majorization_exact(exact_problem, exact_anchors):
    for block in ("grassmann", "convex"):
        res = audit_majorization(exact_problem, block, exact_anchors[:5], 40, seed=0)
        assert res.passed
        assert res.worst >= -1e-12


def test_audit_derivative_match_exact_and_wrong_gradient(exact_problem):
    anchor = (random_point(30, 8, 2), np.random.default_rng(30).standard_normal(8))
    for block in ("grassmann", "convex"):
        res = audit_derivative_match(exact_problem, block, anchor, 20, seed=1)
        assert res.passed
        assert res.worst <= 1e-8

    tilt = np.random.default_rng(31).standard_normal((8, 2))
    skewed = BlockProblem(
        cost=exact_problem.cost,
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: exact_problem.cost(cand, c)
            + float(np.sum(tilt * cand.basis)),
            minimize=exact_problem.grassmann_surrogate.minimize,
        ),
        convex_surrogate=exact_problem.convex_surrogate,
        convex_constraint=exact_problem.convex_constraint,
        dims=exact_problem.dims,
    )
    bad = audit_derivative_match(skewed, "grassmann", anchor, 20, seed=1)
    assert not bad.passed


def make_quadratic_span_problem(n):
    """Surrogate rewards staying close to the anchor's span (Gr(n,1))."""

    def evaluate(cand, g, c):
        return -float(np.linalg.norm(g.basis.T @ cand.basis) ** 2)

    return BlockProblem(
        cost=lambda g, c: 0.0,
        grassmann_surrogate=SurrogateOracle(evaluate=evaluate, minimize=lambda g, c: g),
        convex_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 0.0, minimize=lambda g, c: c),
        convex_constraint=identity_constraint,
        dims=(n, 1, 1),
    )


def test_audit_quasiconvexity_controls():
    anchor_pt = random_point(44, 6, 1)
    anchor = (anchor_pt, np.zeros(1))

    constant = BlockProblem(
        cost=lambda g, c: 0.0,
        grassmann_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 3.5, minimize=lambda g, c: g),
        convex_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 0.0, minimize=lambda g, c: c),
        convex_constraint=identity_constraint,
        dims=(6, 1, 1),
    )
    assert audit_quasiconvexity(constant, anchor, 50, 9, seed=0).passed

    quad = make_quadratic_span_problem(6)
    res = audit_quasiconvexity(quad, anchor, 100, 9, seed=1)
    assert res.passed

    bump = BlockProblem(
        cost=lambda g, c: 0.0,
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: -np.cos(2.0 * canonical_distance(cand, g)),
            minimize=lambda g, c: g,
        ),
        convex_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 0.0, minimize=lambda g, c: c),
        convex_constraint=identity_constraint,
        dims=(6, 1, 1),
    )
    res = audit_quasiconvexity(bump, anchor, 100, 9, seed=1, radius=np.pi / 2)
    assert not res.passed


def test_audit_homogeneity_controls(exact_problem, exact_anchors):
    res = audit_homogeneity(exact_problem, exact_anchors[:5], 40, seed=2)
    assert res.passed
    assert res.worst <= 1e-12

    trace_cost = BlockProblem(
        cost=lambda g, c: float(np.trace(g.basis[: g.d, :])),
        grassmann_surrogate=exact_problem.grassmann_surrogate,
        convex_surrogate=exact_problem.convex_surrogate,
        convex_constraint=exact_problem.convex_constraint,
        dims=exact_problem.dims,
    )
    bad = audit_homogeneity(trace_cost, exact_anchors[:5], 40, seed=2)
    assert not bad.passed


def test_audit_homogeneity_without_anchors_fails(exact_problem):
    res = audit_homogeneity(exact_problem, [], 10, seed=2)
    assert not res.passed and res.checked == 0


# --- non-finite values fail ------------------------------------------------------


def with_evaluate(problem, value):
    """problem whose surrogates both evaluate to `value` everywhere."""
    return replace(
        problem,
        grassmann_surrogate=replace(
            problem.grassmann_surrogate, evaluate=lambda cand, g, c: value, evaluate_many=None
        ),
        convex_surrogate=replace(problem.convex_surrogate, evaluate=lambda cand, g, c: value, evaluate_many=None),
    )


NON_FINITE = [np.nan, np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_audit_tightness_fails_on_non_finite(exact_problem, exact_anchors, value):
    for block in ("grassmann", "convex"):
        res = audit_tightness(with_evaluate(exact_problem, value), block, exact_anchors[:3])
        assert not res.passed and np.isnan(res.worst)


@pytest.mark.parametrize("value", NON_FINITE)
def test_audit_majorization_fails_on_non_finite(exact_problem, exact_anchors, value):
    for block in ("grassmann", "convex"):
        res = audit_majorization(with_evaluate(exact_problem, value), block, exact_anchors[:2], 10, seed=0)
        assert not res.passed and np.isnan(res.worst)
        assert res.checked == 20


@pytest.mark.parametrize("value", NON_FINITE)
def test_audit_derivative_match_fails_on_non_finite(exact_problem, exact_anchors, value):
    for block in ("grassmann", "convex"):
        res = audit_derivative_match(with_evaluate(exact_problem, value), block, exact_anchors[0], 10, seed=1)
        assert not res.passed and np.isnan(res.worst)
        assert res.checked == 10


@pytest.mark.parametrize("value", NON_FINITE)
def test_audit_quasiconvexity_fails_on_non_finite(exact_problem, exact_anchors, value):
    res = audit_quasiconvexity(with_evaluate(exact_problem, value), exact_anchors[0], 10, 5, seed=2)
    assert not res.passed and np.isnan(res.worst)
    assert res.checked == 10


@pytest.mark.parametrize("value", NON_FINITE)
def test_audit_homogeneity_fails_on_non_finite(exact_problem, exact_anchors, value):
    broken = replace(exact_problem, cost=lambda g, c: value, costs=None)
    res = audit_homogeneity(broken, exact_anchors[:2], 10, seed=3)
    assert not res.passed and np.isnan(res.worst)
    assert res.checked == 20


@pytest.mark.parametrize("value", NON_FINITE)
def test_stationarity_probe_raises_on_non_finite(exact_problem, exact_anchors, value):
    g0, c0 = exact_anchors[0]
    # finite at the iterate itself, non-finite at every point the probe moves G to
    broken = replace(exact_problem, cost=lambda g, c: exact_problem.cost(g, c) if g is g0 else value, costs=None)
    assert np.isfinite(stationarity_check(exact_problem, g0, c0, 10, seed=4))
    with pytest.raises(NonFiniteCostError, match="stationarity probe"):
        stationarity_check(broken, g0, c0, 10, seed=4)


def poison_last(batch, value):
    """The batch call `batch`, with `value` in place of its last member."""

    def poisoned(*args):
        values = list(batch(*args))
        if values:
            values[-1] = value
        return values

    return poisoned


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_batch_member_fails_its_audit(exact_problem, exact_anchors, value):
    p, anchors = exact_problem, exact_anchors[:2]
    gs, cs = p.grassmann_surrogate, p.convex_surrogate
    bad_costs = replace(p, costs=poison_last(p.costs, value))
    bad_evaluations = replace(
        p,
        grassmann_surrogate=replace(gs, evaluate_many=poison_last(gs.evaluate_many, value)),
        convex_surrogate=replace(cs, evaluate_many=poison_last(cs.evaluate_many, value)),
    )
    results = [audit_homogeneity(bad_costs, anchors, 10, seed=3)]
    results.append(audit_quasiconvexity(bad_evaluations, anchors[0], 10, 5, seed=2))
    for broken in (bad_costs, bad_evaluations):
        for block in ("grassmann", "convex"):
            results.append(audit_majorization(broken, block, anchors, 10, seed=0))
            results.append(audit_derivative_match(broken, block, anchors[0], 10, seed=1))
    for res in results:
        assert not res.passed and np.isnan(res.worst), res
        assert res.checked > 0
    with pytest.raises(NonFiniteCostError, match="stationarity probe"):
        stationarity_check(bad_costs, *anchors[0], 10, seed=4)


ANCHOR_ENTRIES = {
    "stationarity_check": lambda p, g, c: stationarity_check(p, g, c, 4, seed=0),
    "audit_tightness": lambda p, g, c: audit_tightness(p, "grassmann", [(g, c)]),
    "audit_majorization": lambda p, g, c: audit_majorization(p, "grassmann", [(g, c)], 4, seed=0),
    "audit_derivative_match": lambda p, g, c: audit_derivative_match(p, "convex", (g, c), 4, seed=0),
    "audit_quasiconvexity": lambda p, g, c: audit_quasiconvexity(p, (g, c), 4, 3, seed=0),
    "audit_homogeneity": lambda p, g, c: audit_homogeneity(p, [(g, c)], 4, seed=0),
}


@pytest.mark.parametrize("entry", sorted(ANCHOR_ENTRIES))
def test_anchor_that_does_not_fit_the_dims_is_rejected(entry, exact_problem, exact_anchors):
    call = ANCHOR_ENTRIES[entry]
    g, c = exact_anchors[0]  # a point of Gr(8, 2) and a c of length 8
    call(exact_problem, g, c)
    call(exact_problem, g, list(c))  # c converts to a float array
    with pytest.raises(ValueError, match=r"anchor g is a point of Gr\(8, 3\), expected Gr\(8, 2\)"):
        call(exact_problem, random_point(0, 8, 3), c)
    with pytest.raises(ValueError, match=r"anchor c has shape \(7,\), expected \(8,\)"):
        call(exact_problem, g, c[:7])
    with pytest.raises(ValueError, match="anchor g must be a GrassmannPoint, got ndarray"):
        call(exact_problem, g.basis, c)


def test_stationarity_check_rejects_zero_directions(exact_problem, exact_anchors):
    with pytest.raises(ValueError, match="directions must be at least 1"):
        stationarity_check(exact_problem, *exact_anchors[0], 0, seed=0)


def test_audit_quasiconvexity_rejects_zero_t_samples(exact_problem, exact_anchors):
    with pytest.raises(ValueError, match="t_samples must be at least 1"):
        audit_quasiconvexity(exact_problem, exact_anchors[0], 5, 0, seed=0)


@pytest.mark.parametrize("count", [2.5, 3.0, True])
@pytest.mark.parametrize(
    "name, call",
    [
        ("directions", lambda problem, anchor, n: stationarity_check(problem, *anchor, n, 0)),
        ("t_samples", lambda problem, anchor, n: audit_quasiconvexity(problem, anchor, 5, n, 0)),
    ],
)
def test_probe_and_quasiconvexity_reject_a_non_integer_count(exact_problem, exact_anchors, name, call, count):
    # A float, even a whole one, or a bool is not a count.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {count!r}$"):
        call(exact_problem, exact_anchors[0], count)


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
@pytest.mark.parametrize(
    "name, call",
    [
        ("samples", lambda problem, anchor, n: audit_majorization(problem, "grassmann", [anchor], n, 0)),
        ("directions", lambda problem, anchor, n: audit_derivative_match(problem, "convex", anchor, n, 0)),
        ("pairs", lambda problem, anchor, n: audit_quasiconvexity(problem, anchor, n, 11, 0)),
        ("rotations", lambda problem, anchor, n: audit_homogeneity(problem, [anchor], n, 0)),
    ],
)
def test_audit_rejects_a_sample_count_below_one(exact_problem, exact_anchors, name, call, count):
    if isinstance(count, bool) or not isinstance(count, int):
        message = rf"^{name} must be an integer >= 1, got {count!r}$"
    else:
        message = rf"{name} must be at least 1, got {count}"
    with pytest.raises(ValueError, match=message):
        call(exact_problem, exact_anchors[0], count)


def test_audit_assumptions_rejects_no_anchors(exact_problem):
    with pytest.raises(ValueError, match=r"anchors must hold at least one \(g, c\) pair"):
        audit_assumptions(exact_problem, [], 5, 0)


def test_audit_quasiconvexity_counts_skipped_pairs(monkeypatch, exact_problem, exact_anchors):
    # Turn the first pair of each batch to right angles: the route leaves it
    # out, and the audit counts it as skipped, never as checked. Two pairs of
    # Gr(8, 2) at 5 times fill 1280 bytes, so 7 pairs make 4 batches.
    pair_geodesics = engine._pair_geodesics

    def first_at_right_angles(x, y):
        y = y.copy()
        y[0] = np.linalg.qr(x[0], mode="complete")[0][:, 2:4]
        return pair_geodesics(x, y)

    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1536)
    monkeypatch.setattr(engine, "_pair_geodesics", first_at_right_angles)
    res = audit_quasiconvexity(exact_problem, exact_anchors[0], 7, 5, seed=0)
    assert (res.checked, res.skipped) == (3, 4) and res.passed


def test_batch_with_a_wrong_count_raises(exact_problem, exact_anchors):
    short = replace(exact_problem, costs=lambda g, c: exact_problem.costs(g, c)[:-1])
    with pytest.raises(ValueError, match="costs returned 9 values for 10 samples"):
        audit_homogeneity(short, exact_anchors[:1], 10, seed=3)


# --- batch evaluation ------------------------------------------------------------


def without_batches(problem):
    """problem with its batch fields cleared, so every sample takes one call."""
    return replace(
        problem,
        costs=None,
        grassmann_surrogate=replace(problem.grassmann_surrogate, evaluate_many=None),
        convex_surrogate=replace(problem.convex_surrogate, evaluate_many=None),
    )


def every_audit(problem, anchors, seed):
    anchor = anchors[-1]
    out = [audit_homogeneity(problem, anchors, 12, seed), audit_quasiconvexity(problem, anchor, 8, 11, seed)]
    for block in ("grassmann", "convex"):
        out.append(audit_tightness(problem, block, anchors))
        out.append(audit_majorization(problem, block, anchors, 12, seed))
        out.append(audit_derivative_match(problem, block, anchor, 12, seed))
    out.append(stationarity_check(problem, *anchor, 12, seed))
    return out


def test_batch_fields_leave_every_audit_unchanged(exact_problem, exact_anchors):
    looped = without_batches(exact_problem)
    for seed in (0, 5):
        assert every_audit(exact_problem, exact_anchors[:3], seed) == every_audit(looped, exact_anchors[:3], seed)


def test_batch_fields_receive_stacks(exact_problem, exact_anchors):
    # Grassmann samples reach the problem as one K x N x D array of bases and
    # convex samples as one K x c_len array, with no per-sample objects.
    p = exact_problem
    n, d, c_len = p.dims
    seen = set()

    def costs(g, c):
        if isinstance(g, GrassmannPoint):
            assert isinstance(c, np.ndarray) and c.shape[1:] == (c_len,)
            seen.add("costs at K values of c")
        else:
            assert isinstance(g, np.ndarray) and g.shape[1:] == (n, d)
            seen.add("costs at K points")
        return p.costs(g, c)

    def evaluate_many(oracle, shape):
        def many(candidates, g, c):
            assert isinstance(candidates, np.ndarray) and candidates.shape[1:] == shape
            seen.add(shape)
            return oracle.evaluate_many(candidates, g, c)

        return replace(oracle, evaluate_many=many)

    checked = replace(
        p,
        costs=costs,
        grassmann_surrogate=evaluate_many(p.grassmann_surrogate, (n, d)),
        convex_surrogate=evaluate_many(p.convex_surrogate, (c_len,)),
    )
    assert every_audit(checked, exact_anchors[:3], 2) == every_audit(p, exact_anchors[:3], 2)
    assert len(seen) == 4


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), read_only=st.booleans())
def test_subspace_batches_equal_single_calls(data, n, seed, read_only):
    d = data.draw(st.integers(1, n - 1), label="d")
    m = data.draw(st.integers(d + 1, 60), label="m")
    rng = np.random.default_rng(seed)
    problem = builtin_subspace_plus_mean(rng.standard_normal((n, m)), d)
    # K reaches past the batch cost's byte budget, so some calls are split.
    k = data.draw(st.integers(0, engine._COST_BATCH_BYTES // (8 * n * m) + 3), label="k")
    g0, c = subspace_plus_mean_init(rng.standard_normal((n, m)), d, seed % 1000)
    # The solver's own G step returns a column slice, which numpy's matmul
    # rounds differently from a contiguous basis at D = 1.
    sliced = problem.grassmann_surrogate.minimize(g0, c)
    pool = [g0, sliced, GrassmannPoint(np.asfortranarray(sliced.basis)), random_point(rng, n, d), random_point(rng, n, d)]
    points = [pool[i] for i in rng.integers(0, len(pool), size=k)]
    stack = np.array([p.basis for p in points]).reshape(k, n, d)
    g = pool[rng.integers(0, len(pool))]
    cs = rng.standard_normal((k, n))
    if read_only:
        c.setflags(write=False)
        cs.setflags(write=False)
        stack.setflags(write=False)
    g_oracle, c_oracle = problem.grassmann_surrogate, problem.convex_surrogate
    assert _bits(problem.costs(stack, c)) == _bits([problem.cost(p, c) for p in points])
    assert _bits(problem.costs(g, cs)) == _bits([problem.cost(g, ck) for ck in cs])
    assert _bits(g_oracle.evaluate_many(stack, g, c)) == _bits([g_oracle.evaluate(p, g, c) for p in points])
    assert _bits(c_oracle.evaluate_many(cs, g, c)) == _bits([c_oracle.evaluate(ck, g, c) for ck in cs])


# --- the subspace-mean batch cost and its last-batch cache -------------------------


def one_expression_costs(a, g, c):
    """The subspace-mean batch cost with each slice's residual built as one
    expression, b - X (X^T b), and squared into a new array: the form the
    in-place batch cost must equal bit for bit."""
    one_g = isinstance(g, GrassmannPoint)
    step = max(1, engine._COST_BATCH_BYTES // a.nbytes)
    out = []
    for lo in range(0, len(c) if one_g else len(g), step):
        if one_g:
            x, b = np.ascontiguousarray(g.basis), a - c[lo : lo + step, :, None]
        else:
            x, b = np.ascontiguousarray(g[lo : lo + step]), a - c[:, None]
        r = b - x @ (np.swapaxes(x, -1, -2) @ b)
        out += (r * r).sum(axis=(-2, -1)).tolist()
    return out


@pytest.mark.parametrize("shape", ["K points", "K values of c"])
@pytest.mark.parametrize("k", [1, 19, 20, 21, 650])
def test_subspace_batch_cost_equals_the_one_expression_form(shape, k):
    # At N=10, M=40 a slice holds 20 members, so K = 19, 20, 21 end a slice
    # short of, at and past its budget, and K = 650 takes 33 slices.
    rng = np.random.default_rng(k)
    a = rng.standard_normal((10, 40))
    problem = builtin_subspace_plus_mean(a, 2)
    g, c = subspace_plus_mean_init(a, 2, k)
    if shape == "K points":
        args = (random_orthonormal(rng, 10, 2, count=k), c)
    else:
        # The solver's own G step returns a column slice of its SVD factor.
        args = (problem.grassmann_surrogate.minimize(g, c), c + rng.standard_normal((k, 10)))
    assert _bits(problem.costs(*args)) == _bits(one_expression_costs(a, *args))


def read_only(array):
    array.setflags(write=False)
    return array


def test_subspace_costs_recompute_a_batch_with_a_writable_argument():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 40))
    problem = builtin_subspace_plus_mean(a, 2)
    g, c = subspace_plus_mean_init(a, 2, 3)
    read_only(g.basis)
    read_only(c)

    def singles(gs, cs):
        if isinstance(gs, GrassmannPoint):
            return [problem.cost(gs, ck) for ck in cs]
        return [problem.cost(GrassmannPoint(b), cs) for b in gs]

    # Writable stacks of both shapes, mutated in place between two queries.
    points, others = random_orthonormal(rng, 10, 2, count=5), random_orthonormal(rng, 10, 2, count=5)
    problem.costs(points, c)
    points[:] = others
    assert _bits(problem.costs(points, c)) == _bits(singles(points, c))
    codes = rng.standard_normal((5, 10))
    problem.costs(g, codes)
    codes += 1.0
    assert _bits(problem.costs(g, codes)) == _bits(singles(g, codes))
    # A read-only stack made writable again, and a read-only stack with a
    # writable c, mutated in place between two queries.
    again = read_only(random_orthonormal(rng, 10, 2, count=5))
    problem.costs(again, c)
    again.setflags(write=True)
    again[:] = others[::-1]
    assert _bits(problem.costs(again, c)) == _bits(singles(again, c))
    stack, c_writable = read_only(others.copy()), c.copy()
    problem.costs(stack, c_writable)
    c_writable += 1.0
    assert _bits(problem.costs(stack, c_writable)) == _bits(singles(stack, c_writable))


def test_subspace_costs_keep_one_read_only_batch():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((10, 40))
    problem = builtin_subspace_plus_mean(a, 2)
    c = read_only(a.mean(axis=1))
    first = read_only(random_orthonormal(rng, 10, 2, count=6))
    values = problem.costs(first, c)
    values[0] = -1.0  # the caller's list is its own
    assert _bits(problem.costs(first, c)) == _bits([problem.cost(GrassmannPoint(b), c) for b in first])
    kept = weakref.ref(first)
    del first
    assert kept() is not None  # the entry holds its stack, so the id cannot be reused
    problem.costs(read_only(random_orthonormal(rng, 10, 2, count=6)), c)
    assert kept() is None  # one entry: the next read-only batch replaces it
    writable = random_orthonormal(rng, 10, 2, count=6)
    problem.costs(writable, c)
    seen = weakref.ref(writable)
    del writable
    assert seen() is None  # a batch with a writable argument is not kept


def test_audits_pass_read_only_sample_stacks(exact_problem, exact_anchors):
    p = exact_problem
    writable = []

    def costs(g, c):
        writable.append((c if isinstance(g, GrassmannPoint) else g).flags.writeable)
        return p.costs(g, c)

    def recorded(oracle):
        def evaluate_many(candidates, g, c):
            writable.append(candidates.flags.writeable)
            return oracle.evaluate_many(candidates, g, c)

        return replace(oracle, evaluate_many=evaluate_many)

    checked = replace(
        p, costs=costs, grassmann_surrogate=recorded(p.grassmann_surrogate), convex_surrogate=recorded(p.convex_surrogate)
    )
    for block in ("grassmann", "convex"):
        audit_majorization(checked, block, exact_anchors[:3], 30, seed=1)
        audit_derivative_match(checked, block, exact_anchors[0], 30, seed=1)
    # Per block: 3 anchors and 1 anchor, each queried for cost and surrogate.
    assert writable == [False] * 16


class CountingNumpy:
    """numpy, counting the members of each in-place square np.multiply takes:
    one per batch-cost member the subspace-mean cost computes."""

    def __init__(self):
        self.members = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, x, y, out=None):
        self.members += 0 if out is None else len(out)
        return np.multiply(x, y, out=out)


def writable_copies(problem):
    """problem with every stack of a batch query copied into a writable array,
    which the last-batch cache never keeps or serves."""
    gs, cs = problem.grassmann_surrogate, problem.convex_surrogate

    def costs(g, c):
        return problem.costs(g, np.array(c)) if isinstance(g, GrassmannPoint) else problem.costs(np.array(g), c)

    return replace(
        problem,
        costs=costs,
        grassmann_surrogate=replace(gs, evaluate_many=lambda x, g, c: gs.evaluate_many(np.array(x), g, c)),
        convex_surrogate=replace(cs, evaluate_many=lambda x, g, c: cs.evaluate_many(np.array(x), g, c)),
    )


def test_audit_suite_is_unchanged_by_the_last_batch_cache(monkeypatch):
    counter = CountingNumpy()
    monkeypatch.setattr(engine, "np", counter)
    for seed in range(5):
        a = np.random.default_rng(seed).standard_normal((10, 40))
        problem = builtin_subspace_plus_mean(a, 2)
        g0, c0 = subspace_plus_mean_init(a, 2, seed)
        read_only(g0.basis)
        read_only(c0)
        _, report = run_block_mm(problem, g0, c0, SolverConfig(seed=seed))
        anchors = [(g0, c0), (report.final_g, report.final_c)]
        runs = []
        for p in (problem, writable_copies(problem)):
            counter.members = 0
            results = audit_assumptions(p, anchors, 50, seed)
            runs.append(({k: (r.passed, r.worst.hex(), r.checked, r.skipped) for k, r in results.items()}, counter.members))
        (cached, computed), (fresh, recomputed) = runs
        assert cached == fresh
        # The surrogate queries answered from the cache: majorization's (2
        # anchors x 2 blocks x 50) and derivative match's (2 blocks x 50
        # directions x 4 steps).
        assert recomputed - computed == 600


def test_audit_suite_queries_the_convex_surrogate_at_read_only_anchors():
    # The convex derivative match is taken at a shifted code; it is read-only,
    # like the anchors, so deconv keeps its context there (see BlockProblem).
    problem, anchors = deconv_problem_and_anchors()
    anchors = [(GrassmannPoint(read_only(g.basis.copy())), read_only(c.copy())) for g, c in anchors]
    seen = []
    evaluate = problem.convex_surrogate.evaluate

    def recording(candidate, g, c):
        seen.append(g.basis.flags.writeable or c.flags.writeable)
        return evaluate(candidate, g, c)

    recorded = replace(problem, convex_surrogate=replace(problem.convex_surrogate, evaluate=recording))
    assert audit_assumptions(recorded, anchors, 10, 0) == audit_assumptions(problem, anchors, 10, 0)
    assert seen and not any(seen)


# --- per-point references for the batched audits ----------------------------------
#
# The audits build their sampled points in batches. These references build
# every point on its own, one draw, one geodesic evaluation and one check at a
# time, as the audits did before; both must give the same AuditResult.


def reference_majorization(problem, block, anchors, samples, seed):
    oracle = engine._oracle_for(problem, block)
    n, d, c_len = problem.dims
    rng = np.random.default_rng(seed)
    worst, checked = np.inf, 0
    for g, c in anchors:
        for _ in range(samples):
            if block == "grassmann":
                candidate = random_point(rng, n, d)
                margin = float(oracle.evaluate(candidate, g, c)) - float(problem.cost(candidate, c))
            else:
                scale = 1.0 + np.linalg.norm(c) / np.sqrt(c_len)
                raw = c + scale * rng.standard_normal(c_len)
                candidate = np.asarray(problem.convex_constraint(raw), dtype=float)
                margin = float(oracle.evaluate(candidate, g, c)) - float(problem.cost(g, candidate))
            worst = min(worst, margin)
            checked += 1
    worst = worst if checked else 0.0
    return AuditResult("majorization", block, checked > 0 and worst >= -engine.MAJORIZATION_TOL,
                       float(worst), engine.MAJORIZATION_TOL, checked, 0)


def reference_derivative_match(problem, block, anchor, directions, seed):
    oracle = engine._oracle_for(problem, block)
    g, c = anchor
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    worst, checked, skipped = 0.0, 0, 0
    for _ in range(directions):
        if block == "grassmann":
            tv = random_unit_tangent(rng, g)
            direction = tv.delta
        else:
            direction = rng.standard_normal(c.size)
            direction /= np.linalg.norm(direction)
        h_guard = max(engine.DERIVATIVE_FD_STEPS)
        if oracle.smooth_along is not None and not oracle.smooth_along(g, c, direction, h_guard):
            skipped += 1
            continue
        for h in engine.DERIVATIVE_FD_STEPS:
            if block == "grassmann":
                p_plus, p_minus = exp_map(g, tv, h), exp_map(g, tv, -h)
                sg = (float(oracle.evaluate(p_plus, g, c)) - float(oracle.evaluate(p_minus, g, c))) / (2 * h)
                sf = (float(problem.cost(p_plus, c)) - float(problem.cost(p_minus, c))) / (2 * h)
            else:
                c_plus, c_minus = c + h * direction, c - h * direction
                sg = (float(oracle.evaluate(c_plus, g, c)) - float(oracle.evaluate(c_minus, g, c))) / (2 * h)
                sf = (float(problem.cost(g, c_plus)) - float(problem.cost(g, c_minus))) / (2 * h)
            worst = max(worst, abs(sg - sf) / max(1.0, abs(sf)))
        checked += 1
    return AuditResult("derivative_match", block, checked > 0 and worst <= engine.DERIVATIVE_MATCH_TOL,
                       worst, engine.DERIVATIVE_MATCH_TOL, checked, skipped)


def reference_quasiconvexity(problem, anchor, pairs, t_samples, seed, radius=engine.QUASICONVEXITY_RADIUS):
    oracle = problem.grassmann_surrogate
    g_anchor, c_anchor = anchor
    directions, radii = np.random.default_rng(seed).spawn(2)
    worst, checked, skipped = 0.0, 0, 0
    for _ in range(pairs):
        x = exp_map(g_anchor, random_unit_tangent(directions, g_anchor), radii.uniform(0.0, radius))
        y = exp_map(g_anchor, random_unit_tangent(directions, g_anchor), radii.uniform(0.0, radius))
        keep, path = _pair_geodesics(x.basis[None], y.basis[None])
        if not keep.size:
            skipped += 1
            continue
        cap = max(float(oracle.evaluate(x, g_anchor, c_anchor)), float(oracle.evaluate(y, g_anchor, c_anchor)))
        for point in path(np.linspace(0.0, 1.0, t_samples))[0]:
            worst = max(worst, float(oracle.evaluate(GrassmannPoint(point), g_anchor, c_anchor)) - cap)
        checked += 1
    return AuditResult("quasiconvexity", "grassmann", checked > 0 and worst <= engine.QUASICONVEXITY_TOL,
                       worst, engine.QUASICONVEXITY_TOL, checked, skipped)


def reference_homogeneity(problem, anchors, rotations, seed):
    rng = np.random.default_rng(seed)
    worst, checked = 0.0, 0
    for g, c in anchors:
        f0 = float(problem.cost(g, c))
        for _ in range(rotations):
            rotated = GrassmannPoint(g.basis @ random_orthonormal(rng, g.d, g.d))
            worst = max(worst, abs(float(problem.cost(rotated, c)) - f0))
            checked += 1
    return AuditResult("homogeneity", None, worst <= engine.HOMOGENEITY_TOL,
                       worst, engine.HOMOGENEITY_TOL, checked)


def deconv_problem_and_anchors():
    inst = generate_instance(3, 32, 0.125, 6)
    start = default_init(inst.y, 6)
    problem = build_block_problem(DeconvProblem(y=inst.y, lam=0.1))
    x = start.x + 0.1 * np.random.default_rng(3).standard_normal(32)
    return problem, [(start.a, start.x), (start.a, x), (random_point(4, 32, 1), x)]


@pytest.mark.parametrize("kind", ["subspace-mean", "deconv"])
def test_batched_audits_match_pointwise_references(kind, exact_problem, exact_anchors):
    if kind == "subspace-mean":
        problem, anchors = exact_problem, exact_anchors[:3]
    else:
        problem, anchors = deconv_problem_and_anchors()
    for seed in (0, 5):
        for block in ("grassmann", "convex"):
            assert audit_majorization(problem, block, anchors, 12, seed) == reference_majorization(
                problem, block, anchors, 12, seed
            )
            for anchor in anchors:
                assert audit_derivative_match(problem, block, anchor, 12, seed) == reference_derivative_match(
                    problem, block, anchor, 12, seed
                )
        for anchor in anchors:
            assert audit_quasiconvexity(problem, anchor, 8, 11, seed) == reference_quasiconvexity(
                problem, anchor, 8, 11, seed
            )
            assert audit_quasiconvexity(problem, anchor, 8, 5, seed, radius=np.pi / 2) == reference_quasiconvexity(
                problem, anchor, 8, 5, seed, radius=np.pi / 2
            )
        assert audit_homogeneity(problem, anchors, 12, seed) == reference_homogeneity(problem, anchors, 12, seed)


def reference_stationarity(problem, g, c, directions, seed):
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    h = engine.STATIONARITY_FD_STEP
    f0 = float(problem.cost(g, c))
    worst = np.inf
    for _ in range(directions):
        worst = min(worst, (float(problem.cost(exp_map(g, random_unit_tangent(rng, g), h), c)) - f0) / h)
    for _ in range(directions):
        direction = rng.standard_normal(c.size)
        direction /= np.linalg.norm(direction)
        probe = np.asarray(problem.convex_constraint(c + h * direction), dtype=float)
        worst = min(worst, (float(problem.cost(g, probe)) - f0) / h)
    return float(worst)


@pytest.mark.parametrize("chunk_bytes", [engine._CHUNK_BYTES, 16384, 32768, 384, 1536])
@pytest.mark.parametrize("kind", ["subspace-mean", "deconv"])
def test_chunked_batches_match_pointwise_references(kind, chunk_bytes, monkeypatch, exact_problem, exact_anchors):
    # An 8 x 2 point takes 128 bytes and a 32 x 1 point 256. At 384 and 1536
    # bytes every batch below is split, into one sample per chunk or into
    # several samples per chunk with a short last one. 16384 and 32768 are
    # the two budgets before the 128 KiB default, kept as whole-batch cases;
    # the next test splits the audit's own draws at 32768.
    monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk_bytes)
    if kind == "subspace-mean":
        problem, anchors = exact_problem, exact_anchors[:2]
    else:
        problem, anchors = deconv_problem_and_anchors()
    for seed, anchor in enumerate(anchors):
        g, c = anchor
        assert stationarity_check(problem, g, c, 10, seed) == reference_stationarity(problem, g, c, 10, seed)
        for block in ("grassmann", "convex"):
            assert audit_derivative_match(problem, block, anchor, 10, seed) == reference_derivative_match(
                problem, block, anchor, 10, seed
            )
        assert audit_quasiconvexity(problem, anchor, 7, 5, seed) == reference_quasiconvexity(problem, anchor, 7, 5, seed)
    for seed in (0, 5):
        for block in ("grassmann", "convex"):
            assert audit_majorization(problem, block, anchors, 10, seed) == reference_majorization(
                problem, block, anchors, 10, seed
            )
        assert audit_homogeneity(problem, anchors, 10, seed) == reference_homogeneity(problem, anchors, 10, seed)


def test_one_seed_draw_is_one_stack_at_the_default_budget(monkeypatch):
    # A quasiconvexity pair of Gr(10, 2) at 11 grid points builds 1760 bytes,
    # so the 50 pairs of a grassmm audit seed take one stack at the default
    # budget and 3 (18, 18 and 14 pairs) at 32 KiB. A Gr(1024, 1) point and a
    # c of length 1024 take 8 KiB each: the probe's 50 directions per block
    # take 4 stacks (3 of 16 and one of 2), where 32 KiB took 13 of at most 4.
    a = np.random.default_rng(2).standard_normal((10, 40))
    subspace = builtin_subspace_plus_mean(a, 2)
    subspace_anchor = subspace_plus_mean_init(a, 2, 2)
    inst = generate_instance(0, 1024, 0.0625, 8)
    start = default_init(inst.y, 8)
    base = build_block_problem(DeconvProblem(y=inst.y, lam=0.1))
    calls = {}

    def pair_geodesics(x, y):
        calls["pairs"] += 1
        return _pair_geodesics(x, y)

    def costs(g, c):
        calls["convex" if isinstance(g, GrassmannPoint) else "grassmann"] += 1
        return base.costs(g, c)

    monkeypatch.setattr(engine, "_pair_geodesics", pair_geodesics)
    deconv = replace(base, costs=costs)

    def counted():
        calls.update(pairs=0, grassmann=0, convex=0)
        quasi = audit_quasiconvexity(subspace, subspace_anchor, 50, 11, seed=0)
        score = stationarity_check(deconv, start.a, start.x, 50, seed=0)
        return quasi, score, dict(calls)

    quasi, score, at_default = counted()
    assert at_default == {"pairs": 1, "grassmann": 4, "convex": 4}
    assert quasi.checked + quasi.skipped == 50
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1 << 15)
    old_quasi, old_score, at_32k = counted()
    assert at_32k == {"pairs": 3, "grassmann": 13, "convex": 13}
    assert quasi == old_quasi
    assert score.hex() == old_score.hex()


def reference_norm(x):
    """engine._norm with np.linalg.norm under np.errstate, and the same
    max|x| rescale where the norm is infinite or below 2^-500."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(x))
    if (math.isinf(norm) or norm < 2.0**-500) and np.isfinite(x).all() and np.any(x):
        big = float(np.max(np.abs(x)))
        norm = big * float(np.linalg.norm(x / big))
    return norm


def quiet_norm(x):
    """engine._norm(x), failing on any warning it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return engine._norm(x)


def test_gradient_norm_equals_the_numpy_norm_bit_for_bit_without_warnings():
    rng = np.random.default_rng(0)
    sizes = [*range(1, 70), 127, 128, 129, 255, 256, 1000, 1023, 1024, 2048, 4095, 4096]
    for n in sizes:
        for scale in (1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150):
            for shape in ((n,), (n, 1)):
                x = scale * rng.standard_normal(shape)
                assert_array_equal(quiet_norm(x), reference_norm(x))
    # Non-contiguous layouts are raveled in memory order, as np.linalg.norm does.
    m = rng.standard_normal((64, 3))
    for x in (np.asfortranarray(m), m.T, m[::2], m[:, 1]):
        assert_array_equal(quiet_norm(x), reference_norm(x))
    # Finite entries whose sum of squares overflows or underflows take the
    # rescale; non-finite ones do not, and a zero vector has norm 0.
    tiny = (
        np.full(4, 1e-170),
        np.full(4, 1e-160),
        np.array([5e-324, -5e-324, 0.0]),
        np.array([1e-200, 3e-170, -2e-160]),
        1e-152 * rng.standard_normal((64, 1)),
        1e-300 * rng.standard_normal(1024),
    )
    for x in (
        np.full(64, 1e200),
        np.array([1e308, -1e308, 3.0]),
        1.5e154 * rng.standard_normal((64, 1)),
        np.array([np.inf, 1.0]),
        np.array([np.nan, 1e200]),
        np.array([np.nan, 1e-200]),
        np.zeros(5),
        *tiny,
    ):
        assert_array_equal(quiet_norm(x), reference_norm(x))
    assert quiet_norm(np.full(64, 1e200)) == 8e200
    assert quiet_norm(np.full(4, 1e-170)) == 2e-170
    assert quiet_norm(np.zeros(5)) == 0.0
    for x in tiny:
        assert_allclose(quiet_norm(x), math.hypot(*x.ravel()), rtol=4e-16, atol=0.0)


def test_grassmann_gradient_norm_on_one_column_is_the_projected_norm_bit_for_bit():
    # Gr(N, 1) takes the same _project as D >= 2, and the norm is
    # np.linalg.norm's of the projection, bit for bit, at every scale.
    rng = np.random.default_rng(1)
    for n, d in ((2, 1), (3, 1), (64, 1), (127, 1), (128, 1), (1024, 1), (10, 2)):
        base = builtin_subspace_plus_mean(rng.standard_normal((n, 5)), d)
        for scale in (1e-150, 1.0, 1e150):
            g = random_point(rng, n, d)
            grad = scale * rng.standard_normal((n, d))
            c_grad = scale * rng.standard_normal(n)
            problem = replace(base, grassmann_grad=lambda g, c: grad, convex_grad=lambda g, c: c_grad)
            gn_g, gn_c = engine._gradient_norms(problem, g, np.zeros(n))
            assert gn_g == reference_norm(_project(g.basis, grad))
            assert gn_c == reference_norm(c_grad)


# --- stationarity ----------------------------------------------------------------


def test_stationarity_at_converged_solution():
    a = np.random.default_rng(21).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 21)
    _, report = run_block_mm(prob, g0, c0, SolverConfig(seed=21))
    assert stationarity_check(prob, report.final_g, report.final_c, 64, seed=3) >= -1e-4

    # a random point of the same problem is visibly non-stationary
    g_rand = random_point(99, 10, 2)
    c_rand = np.random.default_rng(99).standard_normal(10)
    assert stationarity_check(prob, g_rand, c_rand, 64, seed=3) < -1e-2


def test_stationarity_at_leading_eigenspace():
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    a_sym = q @ np.diag(np.arange(1.0, 10.0)) @ q.T  # distinct eigenvalues

    prob = BlockProblem(
        cost=lambda g, c: -float(np.trace(g.basis.T @ a_sym @ g.basis)),
        grassmann_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 0.0, minimize=lambda g, c: g),
        convex_surrogate=SurrogateOracle(evaluate=lambda cand, g, c: 0.0, minimize=lambda g, c: c),
        convex_constraint=identity_constraint,
        dims=(9, 3, 1),
    )
    top = make_point(np.linalg.eigh(a_sym)[1][:, -3:])
    assert stationarity_check(prob, top, np.zeros(1), 64, seed=5) >= -1e-4


def test_run_takes_no_stationarity_probe(monkeypatch):
    # grassmm run takes the probe at the report's final iterate; the run
    # itself makes none, and the report keeps no probe settings.
    calls = []

    def counted(*args):
        calls.append(args)
        return stationarity_check(*args)

    monkeypatch.setattr(engine, "stationarity_check", counted)
    a = np.random.default_rng(21).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 2)
    _, report = run_block_mm(prob, *subspace_plus_mean_init(a, 2, 21), SolverConfig(audit_samples=12, seed=4))
    assert calls == []
    for name in ("stationarity_score", "stationarity_directions", "stationarity_seed", "_problem"):
        assert not hasattr(report, name)
    score = stationarity_check(prob, report.final_g, report.final_c, 12, seed=4)
    assert score == stationarity_check(prob, report.final_g, report.final_c, 12, seed=4)
    assert score >= -1e-4


def test_report_holds_no_reference_to_the_problem():
    a = np.random.default_rng(21).standard_normal((10, 40))
    prob = builtin_subspace_plus_mean(a, 2)
    _, report = run_block_mm(prob, *subspace_plus_mean_init(a, 2, 21), SolverConfig(seed=4))
    ref = weakref.ref(prob)
    del prob
    gc.collect()
    assert ref() is None
    assert report.iterations > 0  # the report is still alive


def test_non_finite_probe_raises_at_the_final_iterate():
    a = np.random.default_rng(3).standard_normal((6, 20))
    prob = builtin_subspace_plus_mean(a, 2)
    g0, c0 = subspace_plus_mean_init(a, 2, 3)
    config = SolverConfig(max_iter=3, seed=0)
    _, plain = run_block_mm(prob, g0, c0, config)

    def cost(g, c):
        # The engine's iterates are read-only arrays and its probe points are
        # not, so this cost is finite along the run and NaN at every probe.
        return prob.cost(g, c) if not (g.basis.flags.writeable or c.flags.writeable) else np.nan

    broken = replace(prob, cost=cost, costs=None)
    _, report = run_block_mm(broken, g0, c0, config)
    assert report.final_cost == plain.final_cost
    with pytest.raises(NonFiniteCostError, match="stationarity probe"):
        stationarity_check(broken, report.final_g, report.final_c, config.audit_samples, config.seed)


# --- extrapolation ---------------------------------------------------------------


class TryLog:
    """Stands in for the engine's extrapolation point: records each try, as
    (beta, the basis returned or None), and returns the real point."""

    def __init__(self):
        self.tries = []

    def __call__(self, x, y, beta):
        out = _secant_point(x, y, beta)
        self.tries.append((beta, out))
        return out

    def holds(self, g) -> bool:
        """Whether g is a point this log returned."""
        return any(g.basis is out for _, out in self.tries)

    def patch(self):
        return mock.patch.object(engine, "_secant_point", self)


def deconv_instance(seed, n=64, lam=0.1):
    inst = generate_instance(seed, n, 0.0625, min(8, n), 0.0)
    p = DeconvProblem(y=inst.y, lam=lam)
    return build_block_problem(p), default_init(p.y, min(8, n))


def quadratic_pull(turn, target):
    """A problem on Gr(2, 1) x R^2 whose Grassmann step turns the line by `turn`
    and leaves the cost alone, and whose convex step halves the distance from
    c to `target`. Every extrapolation try, if made, lands c on the target
    and lowers the cost to 0."""
    return BlockProblem(
        cost=lambda g, c: float(np.sum((c - target) ** 2)),
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: 0.0,
            minimize=lambda g, c: make_point(
                np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]]) @ g.basis
            ),
        ),
        convex_surrogate=SurrogateOracle(
            evaluate=lambda cand, g, c: 0.0, minimize=lambda g, c: 0.5 * (c + target)
        ),
        convex_constraint=identity_constraint,
        dims=(2, 1, 2),
        grassmann_grad=zero_g_grad,
        convex_grad=lambda g, c: 2.0 * (c - target),
    )


def test_extrapolation_skips_a_pair_at_right_angles():
    target = np.array([1.0, -2.0])
    config = SolverConfig(max_iter=7, seed=0)
    # Control: a turn by pi/4 leaves a unique geodesic, and the try is kept.
    _, report = run_block_mm(quadratic_pull(np.pi / 4, target), line(0.0), np.zeros(2), config)
    assert report.extrapolations >= 1
    # A right-angle turn: no unique geodesic, so no try, and the run goes on.
    log = TryLog()
    with log.patch():
        trace, report = run_block_mm(quadratic_pull(np.pi / 2, target), line(0.0), np.zeros(2), config)
    # Iterations 2 and 5 skip their tries, each counted as a rejection: beta stays 1.
    assert log.tries == [(1.0, None), (1.0, None)]
    assert report.extrapolations == 0
    assert report.iterations == 7
    assert [r.dc_step for r in trace] == pytest.approx([np.pi / 2] * 7)
    assert report.final_cost == pytest.approx(float(np.sum(target**2)) / 4**7)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8, 300), lam=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_extrapolation_keeps_descent_on_deconv(n, lam, seed):
    base, init = deconv_instance(seed, n, lam)
    log = TryLog()
    costs = []  # (g, cost) of every cost call, in order
    anchors = []  # the g of every Grassmann step

    def cost(g, c):
        f = base.cost(g, c)
        costs.append((g, f))
        return f

    def minimize(g, c):
        anchors.append(g)
        return base.grassmann_surrogate.minimize(g, c)

    problem = replace(
        base, cost=cost, grassmann_surrogate=replace(base.grassmann_surrogate, minimize=minimize)
    )
    with log.patch():
        trace, report = run_block_mm(problem, init.a, init.x, SolverConfig(max_iter=60, seed=0))
    # f_0 >= f_after_G_0 >= f_1 >= ... >= the final cost
    chain = [v for r in trace for v in (r.f, r.f_after_g)] + [report.final_cost]
    assert all(b <= a + 1e-10 for a, b in zip(chain, chain[1:]))

    # A try is kept when the next step starts from it, or the run ends on it.
    starts = [g.basis for g in anchors] + [report.final_g.basis]

    def kept(out) -> bool:
        return out is not None and any(b is out for b in starts)

    beta = 1.0
    for used, out in log.tries:
        assert used == beta
        beta = min(2.0 * beta, 64.0) if kept(out) else max(0.5 * beta, 1.0)
    assert report.extrapolations == sum(kept(out) for _, out in log.tries)
    # A kept try's first cost call comes right after the one at the MM output,
    # and is lower.
    seen = set()
    for k, (g, f) in enumerate(costs):
        if log.holds(g) and kept(g.basis) and id(g.basis) not in seen:
            seen.add(id(g.basis))
            assert f < costs[k - 1][1]
    assert len(seen) == report.extrapolations


def test_rejected_extrapolation_reproduces_the_plain_trace(monkeypatch):
    base, init = deconv_instance(0)
    config = SolverConfig(max_iter=400, seed=0)
    log = TryLog()

    def cost(g, c):
        # Every extrapolated point costs more than the MM output it competes with.
        return base.cost(g, c) + (1.0 if log.holds(g) else 0.0)

    raised = replace(base, cost=cost)
    with log.patch():
        trace, report = run_block_mm(raised, init.a, init.x, config)
    assert len(log.tries) > 10
    assert report.extrapolations == 0
    monkeypatch.setattr(engine, "EXTRAPOLATION_PERIOD", config.max_iter + 1)
    plain_problem = deconv_instance(0)[0]
    plain_trace, plain = run_block_mm(plain_problem, init.a, init.x, config)
    assert trace == plain_trace
    assert report.final_cost == plain.final_cost
    assert stationarity_check(raised, report.final_g, report.final_c, config.audit_samples, config.seed) == (
        stationarity_check(plain_problem, plain.final_g, plain.final_c, config.audit_samples, config.seed)
    )
    assert_array_equal(report.final_g.basis, plain.final_g.basis)
    assert_array_equal(report.final_c, plain.final_c)


def test_non_finite_cost_at_the_extrapolated_point_raises():
    base, init = deconv_instance(0)
    log = TryLog()
    problem = replace(base, cost=lambda g, c: np.nan if log.holds(g) else base.cost(g, c))
    with log.patch(), pytest.raises(NonFiniteCostError, match="at the extrapolated iterate"):
        run_block_mm(problem, init.a, init.x, SolverConfig(seed=0))
    assert len(log.tries) == 1


def pair_geodesic_secant(x, y, beta):
    """The general extrapolation point: the pair geodesic from y through x at -beta."""
    keep, path = _pair_geodesics(y[None], x[None])
    return path(-beta)[0, 0] if keep.size else None


def test_closed_form_extrapolation_keeps_the_deconv_runs():
    # The kernel block is Gr(N, 1), where the extrapolation point is taken in
    # closed form. With the general builder in its place, every run keeps its
    # iteration and accepted-try counts, and its final cost up to rounding.
    cases = [(64, seed, SolverConfig(seed=seed)) for seed in range(20)]
    cases += [(1024, seed, SolverConfig(max_iter=100, seed=seed)) for seed in range(2)]
    for n, seed, config in cases:
        problem, init = deconv_instance(seed, n)
        _, shipped = run_block_mm(problem, init.a, init.x, config)
        with mock.patch.object(engine, "_secant_point", pair_geodesic_secant):
            _, general = run_block_mm(problem, init.a, init.x, config)
        assert shipped.iterations == general.iterations, (n, seed)
        assert shipped.extrapolations == general.extrapolations, (n, seed)
        assert shipped.final_cost == pytest.approx(general.final_cost, rel=1e-13, abs=0.0), (n, seed)
        if n == 1024:
            assert shipped.extrapolations > 0, seed
