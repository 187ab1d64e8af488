from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from grassmm import (
    BlockProblem,
    DeconvProblem,
    DeconvState,
    SolverConfig,
    SurrogateOracle,
    circular_convolution,
    circular_correlation,
    deconv_cost,
    default_init,
    final_state,
    generate_instance,
    grad_a,
    grad_x,
    heuristic_lambda,
    lasso_warm_start,
    lipschitz_bound,
    prox_step_x,
    random_init,
    random_point,
    recovery_score,
    riemannian_step_a,
    run_block_mm,
    soft_threshold,
    solve_deconv,
)
from grassmm import deconv
from grassmm.deconv import active_sign, build_block_problem, working_state
from grassmm.grassmann import GrassmannPoint


# Lengths on both sides of the direct-sum / FFT crossover deconv._FFT_MIN_N = 128.
CROSSOVER_LENGTHS = (17, 127, 128, 257, 1024)


def drawn_then_crossover_lengths(rng, count, high):
    """count lengths drawn from [2, high) one per step, then CROSSOVER_LENGTHS.

    The draws are lazy, so they interleave with the caller's own draws as a
    plain draw-per-iteration loop would.
    """
    for _ in range(count):
        yield int(rng.integers(2, high))
    yield from CROSSOVER_LENGTHS


def random_state(seed, n, sparsity=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * (rng.random(n) < sparsity)
    return DeconvState(a=random_point(seed, n, 1), x=x)


# --- convolution kernels -----------------------------------------------------


def test_convolution_identity_and_shift():
    x = np.arange(1.0, 7.0)
    delta0 = np.zeros(6)
    delta0[0] = 1.0
    assert_allclose(circular_convolution(delta0, x), x, atol=1e-14)
    delta2 = np.zeros(6)
    delta2[2] = 1.0
    assert_allclose(circular_convolution(delta2, x), np.roll(x, 2), atol=1e-14)


def test_convolution_small_case():
    assert_allclose(circular_convolution([1.0, 2.0], [3.0, 4.0]), [11.0, 10.0], atol=1e-14)


def test_convolution_commutative_and_linear():
    rng = np.random.default_rng(0)
    for n in drawn_then_crossover_lengths(rng, 100, 40):
        a, x, z = rng.standard_normal((3, n))
        t = float(rng.standard_normal())
        assert_allclose(circular_convolution(a, x), circular_convolution(x, a), atol=1e-10)
        assert_allclose(
            circular_convolution(a, x + t * z),
            circular_convolution(a, x) + t * circular_convolution(a, z),
            atol=1e-10,
        )


def test_convolution_matches_dft_oracle():
    rng = np.random.default_rng(1)
    for n in drawn_then_crossover_lengths(rng, 20, 64):
        a, x = rng.standard_normal((2, n))
        got = circular_convolution(a, x)
        via_fft = np.fft.ifft(np.fft.fft(a) * np.fft.fft(x)).real
        assert_allclose(got, via_fft, atol=1e-8)


def test_convolution_length_mismatch():
    with pytest.raises(ValueError):
        circular_convolution([1.0, 2.0], [1.0, 2.0, 3.0])


def test_correlation_is_convolution_adjoint():
    # <a (*) x, r> == <x, corr(a, r)> defines the adjoint used by the gradients
    rng = np.random.default_rng(2)
    for n in CROSSOVER_LENGTHS:
        a, x, r = rng.standard_normal((3, n))
        lhs = float(circular_convolution(a, x) @ r)
        rhs = float(x @ circular_correlation(a, r))
        assert_allclose(lhs, rhs, atol=1e-10)


def test_convolution_and_correlation_are_odd_exactly():
    # the per-anchor context forms y - (-a) (*) x as y + a (*) x
    rng = np.random.default_rng(3)
    for n in (2, 64, *CROSSOVER_LENGTHS, 4096):
        for _ in range(5):
            a, x = rng.standard_normal((2, n))
            assert_array_equal(circular_convolution(-a, x), -circular_convolution(a, x))
            assert_array_equal(circular_correlation(-a, x), -circular_correlation(a, x))


def test_direct_sum_below_fft_crossover():
    # below the crossover, N=64 included, the outputs are the direct gather bit for bit
    rng = np.random.default_rng(4)
    for n in (17, 64, 127):
        a, x = rng.standard_normal((2, n))
        grid = np.arange(n)
        idx = (grid[:, None] - grid[None, :]) % n
        assert_array_equal(circular_convolution(a, x), x[idx] @ a)
        assert_array_equal(circular_correlation(a, x), x @ a[idx])


# --- cost and gradients --------------------------------------------------------


def test_cost_zero_code():
    y = np.random.default_rng(3).standard_normal(16)
    p = DeconvProblem(y=y, lam=0.7)
    s = DeconvState(a=random_point(3, 16, 1), x=np.zeros(16))
    assert_allclose(deconv_cost(p, s), float(y @ y), atol=1e-12)


def test_cost_at_truth_is_zero():
    for n in (32, *CROSSOVER_LENGTHS):
        inst = generate_instance(5, n, 0.1, 6, 0.0)
        p = DeconvProblem(y=inst.y, lam=0.0)
        s = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
        assert deconv_cost(p, s) == 0.0


def test_cost_zero_residual_with_l1():
    a = np.zeros(8)
    a[0] = 1.0
    x = np.zeros(8)
    x[2], x[5] = 2.0, -1.0  # ||x||_1 = 3
    y = circular_convolution(a, x)
    p = DeconvProblem(y=y, lam=2.0)
    assert_allclose(deconv_cost(p, DeconvState(a=GrassmannPoint(a[:, None]), x=x)), 6.0, atol=1e-14)


def test_cost_sign_homogeneity_exact():
    for n in (24, *CROSSOVER_LENGTHS):
        for seed in range(20):
            s = random_state(seed, n)
            y = np.random.default_rng(seed + 100).standard_normal(n)
            p = DeconvProblem(y=y, lam=0.3)
            flipped = DeconvState(a=GrassmannPoint(-s.a.basis), x=s.x)
            assert deconv_cost(p, s) == deconv_cost(p, flipped)


def test_grad_x_closed_forms():
    rng = np.random.default_rng(7)
    n = 12
    y = rng.standard_normal(n)
    delta0 = np.zeros(n)
    delta0[0] = 1.0
    x = rng.standard_normal(n)
    s = DeconvState(a=GrassmannPoint(delta0[:, None]), x=x)
    p = DeconvProblem(y=y, lam=0.1)
    assert_allclose(grad_x(p, s), -2.0 * (y - x), atol=1e-12)

    exact = DeconvState(a=GrassmannPoint(delta0[:, None]), x=y.copy())
    assert_allclose(grad_x(p, exact), 0.0, atol=1e-12)


def fd_gradient(fun, v, h=1e-6):
    out = np.zeros_like(v)
    for i in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        out[i] = (fun(vp) - fun(vm)) / (2.0 * h)
    return out


def test_grad_x_matches_finite_differences():
    for seed in range(50):
        s = random_state(seed, 16)
        y = np.random.default_rng(seed + 500).standard_normal(16)
        p = DeconvProblem(y=y, lam=0.0)

        def smooth(x):
            r = y - circular_convolution(s.a.basis[:, 0], x)
            return float(r @ r)

        g = grad_x(p, s)
        approx = fd_gradient(smooth, s.x)
        assert np.linalg.norm(g - approx) <= 1e-6 * max(1.0, np.linalg.norm(approx))


def test_grad_a_matches_finite_differences():
    for seed in range(50):
        s = random_state(seed, 16)
        y = np.random.default_rng(seed + 900).standard_normal(16)
        p = DeconvProblem(y=y, lam=0.0)

        def smooth(a_vec):
            r = y - circular_convolution(a_vec, s.x)
            return float(r @ r)

        g = grad_a(p, s)
        approx = fd_gradient(smooth, s.a.basis[:, 0])
        assert np.linalg.norm(g - approx) <= 1e-6 * max(1.0, np.linalg.norm(approx))


# --- proximal and geodesic steps -------------------------------------------------


def test_soft_threshold_examples():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
    assert soft_threshold(np.array([-3.0]), 1.0)[0] == -2.0
    assert soft_threshold(np.array([0.5]), 1.0)[0] == 0.0


def test_step_functions_reject_bad_step():
    s = random_state(0, 8)
    p = DeconvProblem(y=np.ones(8), lam=0.1)
    with pytest.raises(ValueError):
        prox_step_x(p, s, 0.0)
    with pytest.raises(ValueError):
        riemannian_step_a(p, s, -1.0)


def test_prox_step_never_increases_cost():
    # at the active-sign representative a 1/L prox step is a surrogate minimizer
    for seed in range(100):
        inst = generate_instance(seed, 32, 0.15, 6, 0.05)
        p = DeconvProblem(y=inst.y, lam=0.1)
        s = working_state(p, DeconvState(a=random_point(1000 + seed, 32, 1), x=inst.true_x))
        f0 = deconv_cost(p, s)
        x1 = prox_step_x(p, s, 1.0 / lipschitz_bound(s.kernel))
        assert deconv_cost(p, DeconvState(a=s.a, x=x1)) <= f0 + 1e-10


def test_riemannian_step_unit_norm_and_descent():
    for seed in range(100):
        inst = generate_instance(seed, 32, 0.15, 6, 0.05)
        p = DeconvProblem(y=inst.y, lam=0.1)
        s = working_state(p, DeconvState(a=random_point(2000 + seed, 32, 1), x=inst.true_x))
        bound = lipschitz_bound(s.x)
        if bound <= 0.0:
            continue
        a1 = riemannian_step_a(p, s, 1.0 / bound)
        assert abs(np.linalg.norm(a1.basis) - 1.0) <= 1e-12
        assert deconv_cost(p, DeconvState(a=a1, x=s.x)) <= deconv_cost(p, s) + 1e-10


def test_riemannian_step_zero_gradient_keeps_kernel():
    inst = generate_instance(3, 24, 0.2, 5, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.0)
    s = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
    a1 = riemannian_step_a(p, s, 0.5)
    assert_array_equal(a1.basis, s.a.basis)


def test_lipschitz_bound_examples():
    delta0 = np.zeros(4)
    delta0[0] = 1.0
    assert_allclose(lipschitz_bound(delta0), 2.0, atol=1e-12)
    assert_allclose(lipschitz_bound(np.array([1.0, 1.0])), 8.0, atol=1e-12)


def test_lipschitz_bound_dominates_gram_eigenvalue():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 24))
        v = rng.standard_normal(n)
        # power iteration on the convolution Gram operator C^T C
        w = rng.standard_normal(n)
        for _ in range(300):
            w = circular_correlation(v, circular_convolution(v, w))
            w /= np.linalg.norm(w)
        rayleigh = float(w @ circular_correlation(v, circular_convolution(v, w)))
        assert 2.0 * rayleigh <= lipschitz_bound(v) + 1e-8


def test_active_sign_and_working_state():
    n = 8
    a = np.zeros(n)
    a[0] = 1.0
    x = np.zeros(n)
    x[1] = 1.0
    pos = DeconvProblem(y=circular_convolution(a, x), lam=0.0)
    neg = DeconvProblem(y=-circular_convolution(a, x), lam=0.0)
    tie = DeconvProblem(y=np.zeros(n), lam=0.0)
    s = DeconvState(a=GrassmannPoint(a[:, None]), x=x)
    assert active_sign(pos, s) == 1.0
    assert active_sign(neg, s) == -1.0
    assert active_sign(tie, s) == 1.0
    assert working_state(pos, s) is s
    assert_array_equal(working_state(neg, s).a.basis, -s.a.basis)


# --- instances and scoring -------------------------------------------------------


def test_generate_instance_deterministic_and_noiseless():
    i1 = generate_instance(11, 48, 0.1, 7, 0.0)
    i2 = generate_instance(11, 48, 0.1, 7, 0.0)
    assert_array_equal(i1.true_a, i2.true_a)
    assert_array_equal(i1.true_x, i2.true_x)
    assert_array_equal(i1.y, i2.y)
    assert_allclose(i1.y, circular_convolution(i1.true_a, i1.true_x), atol=0.0)
    assert abs(np.linalg.norm(i1.true_a) - 1.0) <= 1e-12
    assert_allclose(i1.true_a[7:], 0.0, atol=0.0)  # kernel support is leading indices


def test_generate_instance_parameter_errors():
    with pytest.raises(ValueError):
        generate_instance(0, 16, 0.0, 4, 0.0)
    with pytest.raises(ValueError):
        generate_instance(0, 16, 1.0, 4, 0.0)
    with pytest.raises(ValueError):
        generate_instance(0, 16, 0.1, 17, 0.0)
    with pytest.raises(ValueError):
        generate_instance(0, 16, 0.1, 4, -0.5)


def test_generate_instance_spike_count_statistics():
    counts = [
        np.count_nonzero(generate_instance(seed, 64, 1 / 64, 4, 0.0).true_x)
        for seed in range(300)
    ]
    assert 0.5 <= np.mean(counts) <= 1.5


def test_recovery_score_ambiguity_invariance():
    inst = generate_instance(2, 32, 0.1, 6, 0.0)
    exact = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
    assert_allclose(recovery_score(exact, inst), 1.0, atol=1e-12)
    shifted = -np.roll(inst.true_a, 3)
    est = DeconvState(a=GrassmannPoint(shifted[:, None]), x=inst.true_x)
    assert_allclose(recovery_score(est, inst), 1.0, atol=1e-12)


def test_recovery_score_random_kernel_is_low():
    for seed in range(100):
        inst = generate_instance(seed, 64, 0.05, 8, 0.0)
        est = DeconvState(a=random_point(5000 + seed, 64, 1), x=np.zeros(64))
        assert recovery_score(est, inst) < 0.5


def test_recovery_score_length_mismatch():
    inst = generate_instance(0, 16, 0.1, 4, 0.0)
    with pytest.raises(ValueError):
        recovery_score(DeconvState(a=random_point(0, 8, 1), x=np.zeros(8)), inst)


# --- initialization ---------------------------------------------------------------


def test_default_init_grabs_max_energy_window():
    # a single isolated copy of the kernel makes the windowed init exact
    n = 32
    a = np.zeros(n)
    a[:4] = [0.5, -1.0, 0.25, 0.75]
    a /= np.linalg.norm(a)
    x = np.zeros(n)
    x[10] = 2.0
    y = circular_convolution(a, x)
    init = default_init(DeconvProblem(y=y, lam=0.0), 4)
    assert_allclose(np.abs(init.kernel[:4]), np.abs(a[:4]), atol=1e-12)
    assert_allclose(init.x, 0.0, atol=0.0)

    # the window pick equals the per-offset loop reference bit for bit
    rng = np.random.default_rng(5)
    for n in (9, 64, 300, 1024):
        for window in (1, 3, 8, 9, 17, 129, 300):
            if window > n:
                continue
            y = rng.standard_normal(n) * rng.random(n)
            sq = y * y
            energies = np.array([sq[(i + np.arange(window)) % n].sum() for i in range(n)])
            start = int(np.argmax(energies))
            raw = np.zeros(n)
            raw[:window] = y[(start + np.arange(window)) % n]
            init = default_init(DeconvProblem(y=y, lam=0.0), window)
            assert_array_equal(init.kernel, raw / np.linalg.norm(raw))


def test_default_init_zero_signal_falls_back_to_delta():
    init = default_init(DeconvProblem(y=np.zeros(16), lam=0.0), 4)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert_array_equal(init.kernel, expected)


def test_default_init_window_validation():
    p = DeconvProblem(y=np.ones(8), lam=0.0)
    with pytest.raises(ValueError):
        default_init(p, 0)
    with pytest.raises(ValueError):
        default_init(p, 9)


def test_random_init_unit_and_deterministic():
    p = DeconvProblem(y=np.ones(12), lam=0.0)
    s1 = random_init(p, 4)
    s2 = random_init(p, 4)
    assert_array_equal(s1.kernel, s2.kernel)
    assert abs(np.linalg.norm(s1.kernel) - 1.0) <= 1e-12
    assert_allclose(s1.x, 0.0, atol=0.0)


def test_heuristic_lambda_matches_formula():
    inst = generate_instance(9, 32, 0.1, 6, 0.0)
    init = default_init(DeconvProblem(y=inst.y, lam=0.0), 6)
    lam = heuristic_lambda(inst.y, init.kernel)
    expected = 0.1 * np.max(np.abs(circular_correlation(init.kernel, inst.y)))
    assert_allclose(lam, expected, atol=1e-14)
    assert lam > 0


def test_lasso_warm_start_reduces_cost_with_fixed_kernel():
    inst = generate_instance(6, 48, 0.08, 8, 0.0)
    base = default_init(DeconvProblem(y=inst.y, lam=0.0), 8)
    p = DeconvProblem(y=inst.y, lam=heuristic_lambda(inst.y, base.kernel))
    warm = lasso_warm_start(p, base)
    assert_array_equal(warm.a.basis, base.a.basis)
    assert deconv_cost(p, warm) < deconv_cost(p, base)
    untouched = lasso_warm_start(p, base, max_iter=0)
    assert_array_equal(untouched.x, base.x)
    assert_array_equal(untouched.a.basis, base.a.basis)
    with pytest.raises(ValueError):
        lasso_warm_start(p, base, max_iter=-1)


# --- problem/state validation -------------------------------------------------------


def test_problem_and_state_validation():
    with pytest.raises(ValueError):
        DeconvProblem(y=np.ones(8), lam=-0.1)
    with pytest.raises(ValueError):
        DeconvState(a=random_point(0, 8, 1), x=np.zeros(9))
    with pytest.raises(ValueError):
        build_block_problem(DeconvProblem(y=np.ones(8), lam=0.0), step_scale=0.0)


# --- end to end -----------------------------------------------------------------


def test_solve_from_truth_is_immediately_stationary():
    inst = generate_instance(4, 32, 0.1, 6, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.0)
    init = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
    trace, report = solve_deconv(p, init, SolverConfig(seed=4))
    assert report.converged
    assert report.iterations == 1
    assert report.final_cost == 0.0
    assert report.final_dc == 0.0


def test_solve_monotone_and_deterministic():
    inst = generate_instance(8, 64, 4 / 64, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(p, 8)
    t1, r1 = solve_deconv(p, init, SolverConfig(seed=8))
    t2, r2 = solve_deconv(p, init, SolverConfig(seed=8))
    costs = t1.costs()
    assert np.all(np.diff(costs) <= 1e-10)
    assert_array_equal(costs, t2.costs())
    assert r1.final_cost == r2.final_cost

    state = final_state(p, r1)
    assert_allclose(deconv_cost(p, state), r1.final_cost, atol=1e-12)


def test_solver_step_scale_override_breaks_descent():
    # curvature 10x too small makes the surrogate non-majorizing; the engine
    # must refuse to continue rather than accept an ascending step
    from grassmm import MonotonicityViolation

    inst = generate_instance(0, 64, 4 / 64, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(p, 8)
    with pytest.raises(MonotonicityViolation):
        solve_deconv(p, init, SolverConfig(seed=0), step_scale=10.0)


# --- per-anchor context vs the reference functions ----------------------------------


def reference_block_problem(p):
    """The deconv BlockProblem with every callable computed from scratch by the
    public reference functions; build_block_problem must match it bit for bit."""

    def ws(g, x):
        return working_state(p, DeconvState(a=g, x=x))

    def a_minimize(g, x):
        s = ws(g, x)
        lip = lipschitz_bound(s.x)
        return s.a if lip <= 0.0 else riemannian_step_a(p, s, 1.0 / lip)

    def a_evaluate(candidate, g, x):
        s = ws(g, x)
        r = p.y - circular_convolution(s.kernel, s.x)
        grad, lip = grad_a(p, s), lipschitz_bound(s.x)

        def quad(vec):
            diff = vec - s.kernel
            return float(r @ r) + float(grad @ diff) + 0.5 * lip * float(diff @ diff)

        b = candidate.basis[:, 0]
        return min(quad(b), quad(-b)) + p.lam * float(np.sum(np.abs(s.x)))

    def x_minimize(g, x):
        s = ws(g, x)
        return prox_step_x(p, s, 1.0 / lipschitz_bound(s.kernel))

    def x_evaluate(candidate, g, x):
        s = ws(g, x)
        r = p.y - circular_convolution(s.kernel, s.x)
        diff = candidate - s.x
        return (
            float(r @ r)
            + float(grad_x(p, s) @ diff)
            + 0.5 * lipschitz_bound(s.kernel) * float(diff @ diff)
            + p.lam * float(np.sum(np.abs(candidate)))
        )

    def c_grad(g, x):
        s = ws(g, x)
        lip = lipschitz_bound(s.kernel)
        return lip * (s.x - prox_step_x(p, s, 1.0 / lip))

    return BlockProblem(
        cost=lambda g, x: deconv_cost(p, DeconvState(a=g, x=x)),
        grassmann_surrogate=SurrogateOracle(evaluate=a_evaluate, minimize=a_minimize),
        convex_surrogate=SurrogateOracle(evaluate=x_evaluate, minimize=x_minimize),
        convex_constraint=lambda v: np.asarray(v, dtype=float),
        dims=(p.n, 1, p.n),
        grassmann_grad=lambda g, x: grad_a(p, ws(g, x))[:, None],
        convex_grad=c_grad,
    )


def block_values(bp, g, x, a_candidate, x_candidate):
    return {
        "cost": bp.cost(g, x),
        "g_step": bp.grassmann_surrogate.minimize(g, x).basis,
        "c_step": bp.convex_surrogate.minimize(g, x),
        "g_eval": bp.grassmann_surrogate.evaluate(a_candidate, g, x),
        "c_eval": bp.convex_surrogate.evaluate(x_candidate, g, x),
        "g_grad": bp.grassmann_grad(g, x),
        "c_grad": bp.convex_grad(g, x),
    }


def read_only(state):
    """Copies of the state's arrays marked read-only, as the engine marks its iterates."""
    basis, x = state.a.basis.copy(), state.x.copy()
    basis.setflags(write=False)
    x.setflags(write=False)
    return GrassmannPoint(basis), x


@pytest.mark.parametrize("n", [16, 64, 257])
def test_block_problem_equals_reference_functions_exactly(n):
    signs = set()
    for seed in range(5):
        rng = np.random.default_rng(seed + 7000)
        p = DeconvProblem(y=rng.standard_normal(n), lam=0.2)
        fast, ref = build_block_problem(p), reference_block_problem(p)
        a_candidate = random_point(seed + 8000, n, 1)
        x_candidate = rng.standard_normal(n)
        s = random_state(seed, n)
        for state in (s, DeconvState(a=GrassmannPoint(-s.a.basis), x=s.x)):
            signs.add(active_sign(p, state))
            expected = block_values(ref, state.a, state.x, a_candidate, x_candidate)
            # Writable arrays are recomputed on every call; read-only ones are
            # cached, so the second pass reads the stored context.
            for g, x in ((state.a, state.x), read_only(state), read_only(state)):
                for _ in range(2):
                    got = block_values(fast, g, x, a_candidate, x_candidate)
                    for key, value in expected.items():
                        assert_array_equal(got[key], value, err_msg=key)
    assert signs == {1.0, -1.0}


def test_block_problem_follows_in_place_mutation_of_writable_anchor():
    p = DeconvProblem(y=np.random.default_rng(11).standard_normal(32), lam=0.2)
    fast = build_block_problem(p)
    s = random_state(11, 32)
    basis, x = s.a.basis.copy(), s.x.copy()
    g = GrassmannPoint(basis)

    def assert_follows(before):
        state = DeconvState(a=g, x=x)
        assert fast.cost(g, x) == deconv_cost(p, state) != before
        assert_array_equal(fast.grassmann_grad(g, x)[:, 0], grad_a(p, working_state(p, state)))

    before = fast.cost(g, x)
    x *= 2.0
    assert_follows(before)
    before = fast.cost(g, x)
    basis[:] = np.roll(basis, 3, axis=0)
    assert_follows(before)


@pytest.mark.parametrize("seed", [2, 8])
def test_solver_trace_equals_reference_problem_exactly(seed):
    inst = generate_instance(seed, 64, 4 / 64, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(p, 8)
    config = SolverConfig(seed=seed)
    trace, report = solve_deconv(p, init, config)
    ref_trace, ref_report = run_block_mm(reference_block_problem(p), init.a, init.x, config)
    assert trace.records == ref_trace.records
    assert report.final_cost == ref_report.final_cost
    assert report.stationarity_score == ref_report.stationarity_score
    assert_array_equal(report.final_g.basis, ref_report.final_g.basis)
    assert_array_equal(report.final_c, ref_report.final_c)


def test_work_per_iteration(monkeypatch):
    # Between two consecutive kernel steps the engine evaluates the cost at the
    # two new iterates, and the shared context needs two convolutions (one per
    # new anchor) and three correlations (the code-step gradient and the two
    # diagnostic gradients); the next kernel step reuses the last context.
    counts = {"cost": 0, "conv": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    for name in ("_conv", "_corr"):
        monkeypatch.setattr(deconv, name, counted(getattr(deconv, name), "conv"))
    inst = generate_instance(2, 64, 0.0625, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(p, 8)
    base = build_block_problem(p)
    snapshots = []

    def g_step(g, x):
        snapshots.append(dict(counts))
        return base.grassmann_surrogate.minimize(g, x)

    problem = replace(
        base,
        cost=counted(base.cost, "cost"),
        grassmann_surrogate=replace(base.grassmann_surrogate, minimize=g_step),
    )
    _, report = run_block_mm(problem, init.a, init.x, SolverConfig(seed=2))
    assert report.iterations >= 20
    for before, after in zip(snapshots, snapshots[1:]):
        assert after["cost"] - before["cost"] <= 2
        assert after["conv"] - before["conv"] <= 5
