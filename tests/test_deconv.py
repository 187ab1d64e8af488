from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from grassmm import (
    BlockProblem,
    DeconvProblem,
    DeconvState,
    SolverConfig,
    SurrogateOracle,
    circular_convolution,
    circular_correlation,
    default_init,
    generate_instance,
    heuristic_lambda,
    lasso_warm_start,
    lipschitz_bound,
    random_orthonormal,
    random_point,
    recovery_score,
    run_block_mm,
    soft_threshold,
    stationarity_check,
)
from grassmm import deconv, engine
from grassmm.deconv import _geodesic_step, build_block_problem
from grassmm.grassmann import GrassmannPoint

from deconv_oracles import (
    active_sign,
    deconv_cost,
    geodesic_angle_step,
    grad_a,
    grad_x,
    prox_step_x,
    random_init,
    riemannian_step_a,
    working_state,
)


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


def test_kept_dft_matrices_below_fft_crossover():
    # Below the crossover, N=64 included, the transform pair is a product with
    # kept real-DFT matrices on interleaved (re, im) pairs, and the outputs
    # are those products bit for bit. The forward matrix is rfft of the
    # identity; the inverse one is irfft of each unit spectrum, so the
    # imaginary parts of the DC and Nyquist bins have zero weight.
    rng = np.random.default_rng(4)
    for n in (17, 64, 127):
        fwd, inv = deconv._dft(n)
        h = n // 2 + 1
        assert_allclose(fwd.view(complex), np.fft.rfft(np.eye(n)), rtol=0, atol=1e-14)
        assert_allclose(inv[0::2], np.fft.irfft(np.eye(h), n), rtol=0, atol=1e-15)
        assert_allclose(inv[1::2], np.fft.irfft(1j * np.eye(h), n), rtol=0, atol=1e-15)
        assert not inv[1].any() and (n % 2 == 1 or not inv[-1].any())
        a, x = rng.standard_normal((2, n))
        a_hat, x_hat = a.dot(fwd).view(complex), x.dot(fwd).view(complex)
        assert_array_equal(circular_convolution(a, x), (a_hat * x_hat).view(float).dot(inv))
        assert_array_equal(circular_correlation(a, x), (np.conj(a_hat) * x_hat).view(float).dot(inv))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, deconv._FFT_MIN_N - 1),
    count=st.integers(1, 6),
    scale=st.sampled_from([1e-100, 1.0, 1e100]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, count=3, scale=1.0, seed=0)
@example(n=127, count=5, scale=1.0, seed=1)
def test_kept_dft_rows_equal_single_transforms(n, count, scale, seed):
    # A stack is transformed row by row: each row equals the single call bit
    # for bit, so a batch cost equals the cost. The pair inverts itself up
    # to rounding, and is odd bit for bit, as both routines are.
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, n)) * scale
    spectra = deconv._rfft(stack)
    back = deconv._irfft(spectra, n)
    assert spectra.shape == (count, n // 2 + 1) and back.shape == (count, n)
    for v, t, w in zip(stack, spectra, back):
        assert_array_equal(deconv._rfft(v), t)
        assert_array_equal(deconv._irfft(t, n), w)
        assert np.linalg.norm(w - v) <= 1e-13 * np.linalg.norm(v)
        assert_array_equal(deconv._rfft(-v), -t)
        assert_array_equal(deconv._irfft(-t, n), -w)
    a, x = stack[0], stack[-1]
    assert_array_equal(circular_convolution(-a, x), -circular_convolution(a, x))
    assert_array_equal(circular_correlation(-a, x), -circular_correlation(a, x))


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


@pytest.mark.parametrize("tau", [-0.5, np.nan, np.inf])
def test_soft_threshold_rejects_a_negative_or_non_finite_tau(tau):
    # A negative tau would push entries away from zero: the prox of no l1 term.
    with pytest.raises(ValueError, match=r"^tau must be a finite number >= 0, got"):
        soft_threshold([1.0, -1.0], tau)


@pytest.mark.parametrize(
    "call",
    [deconv_cost, grad_x, grad_a, lambda p, s: prox_step_x(p, s, 0.1), lasso_warm_start],
    ids=["deconv_cost", "grad_x", "grad_a", "prox_step_x", "lasso_warm_start"],
)
def test_state_length_mismatch_is_named(call):
    p = DeconvProblem(y=np.ones(8), lam=0.1)
    with pytest.raises(ValueError, match=r"state has length 9, but y has length 8"):
        call(p, random_state(0, 9))


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


def test_riemannian_step_is_the_sphere_minimizer_of_its_model():
    # The step's closed form (a - step g) / ||a - step g|| against the same
    # minimizer reached along the geodesic from a.
    for seed in range(20):
        inst = generate_instance(seed, 40, 0.1, 6, 0.05)
        p = DeconvProblem(y=inst.y, lam=0.1)
        s = working_state(p, DeconvState(a=random_point(3000 + seed, 40, 1), x=inst.true_x))
        bound = lipschitz_bound(s.x)
        for step in (0.01, 10.0) + ((1.0 / bound,) if bound > 0.0 else ()):
            expected = geodesic_angle_step(s.a, grad_a(p, s), step)
            assert_allclose(riemannian_step_a(p, s, step).basis, expected.basis, atol=1e-12)


def test_plain_kernel_step_keeps_descent_where_the_gradient_opposes_the_kernel():
    # Here <grad, a> < -L at iteration 1: a geodesic step of angle ||P grad|| / L
    # overshoots the model's minimizer on the sphere and raised the cost by 0.083.
    inst = generate_instance(1439, 27, 0.0625, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.5)
    start = default_init(inst.y, 8)
    trace, report = run_block_mm(build_block_problem(p), start.a, start.x, SolverConfig(max_iter=60, seed=0))
    chain = [v for r in trace for v in (r.f, r.f_after_g)] + [report.final_cost]
    assert all(b <= a + 1e-12 for a, b in zip(chain, chain[1:]))


def test_riemannian_step_zero_gradient_keeps_kernel():
    inst = generate_instance(3, 24, 0.2, 5, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.0)
    s = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
    a1 = riemannian_step_a(p, s, 0.5)
    assert_array_equal(a1.basis, s.a.basis)
    # a = step g exactly: the model is flat on the sphere.
    assert_array_equal(_geodesic_step(s.a, s.kernel / 0.5, 0.5).basis, s.a.basis)


def test_geodesic_step_normalizes_by_the_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (2, 27, 64, 128, 1024):
        for scale in (1e-3, 1.0, 1e3):
            a = random_point(rng, n, 1)
            egrad = scale * rng.standard_normal(n)
            b = a.basis[:, 0] - 0.5 * egrad
            assert_array_equal(_geodesic_step(a, egrad, 0.5).basis, (b / np.linalg.norm(b))[:, None])


def stacked_fit(y, u, penalty):
    """deconv._fit by its stacked form for any u: the residuals stacked on a
    new first axis and each squared norm a stacked (1 x N) @ (N x 1) product."""
    r = np.empty((2, *u.shape))
    np.subtract(y, u, out=r[0])
    np.add(y, u, out=r[1])
    d = (r[..., None, :] @ r[..., None])[..., 0, 0]
    return np.minimum(d[0], d[1]) + penalty, r, d


def test_fit_on_one_convolution_equals_its_member_of_a_stack_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (2, 5, 64, 127, 128, 1024, 4096):
        for scale in (1e-150, 1.0, 1e150):
            y = scale * rng.standard_normal(n)
            us = scale * rng.standard_normal((3, n))
            us[2] = y  # an exact fit on the + branch
            penalties = rng.random(3)
            cost, r, d = deconv._fit(y, us, penalties)
            for k in range(3):
                one = deconv._fit(y, us[k], float(penalties[k]))
                reference = stacked_fit(y, us[k], float(penalties[k]))
                assert one[0] == cost[k] == reference[0]
                for branch in (0, 1):
                    assert_array_equal(one[1][branch], r[branch, k])
                    assert_array_equal(one[1][branch], reference[1][branch])
                    assert one[2][branch] == d[branch, k] == reference[2][branch]


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
    # Rejected up front, not reported as noise too large to generate.
    for sigma in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"^noise_sigma must be a finite number >= 0, got"):
            generate_instance(0, 8, 0.2, 3, sigma)
    for bad in (2.5, 16.0, True):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got"):
            generate_instance(0, bad, 0.2, 3)
    for bad in (2.5, 4.0, True):
        with pytest.raises(ValueError, match=r"^kernel_support must be an integer >= 1, got"):
            generate_instance(0, 16, 0.2, bad)
    with pytest.raises(ValueError):
        generate_instance(0, 1, 0.2, 1)
    with pytest.raises(ValueError):
        generate_instance(0, 16, 0.2, 0)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got"):
            generate_instance(bad, 16, 0.2, 3)
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1"):
        generate_instance(-1, 16, 0.2, 3)
    planted = generate_instance(np.int64(0), np.int64(16), 0.2, np.int32(3))
    assert_array_equal(planted.y, generate_instance(0, 16, 0.2, 3).y)


def test_generate_instance_spike_count_statistics():
    counts = [
        np.count_nonzero(generate_instance(seed, 64, 1 / 64, 4, 0.0).true_x)
        for seed in range(300)
    ]
    assert 0.5 <= np.mean(counts) <= 1.5


def test_recovery_score_ambiguity_invariance():
    inst = generate_instance(2, 32, 0.1, 6, 0.0)
    exact = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
    assert_allclose(recovery_score(exact.a, inst), 1.0, atol=1e-12)
    shifted = -np.roll(inst.true_a, 3)
    est = DeconvState(a=GrassmannPoint(shifted[:, None]), x=inst.true_x)
    assert_allclose(recovery_score(est.a, inst), 1.0, atol=1e-12)


def test_recovery_score_random_kernel_is_low():
    for seed in range(100):
        inst = generate_instance(seed, 64, 0.05, 8, 0.0)
        est = DeconvState(a=random_point(5000 + seed, 64, 1), x=np.zeros(64))
        assert recovery_score(est.a, inst) < 0.5


def test_recovery_score_length_mismatch():
    inst = generate_instance(0, 16, 0.1, 4, 0.0)
    with pytest.raises(ValueError):
        recovery_score(DeconvState(a=random_point(0, 8, 1), x=np.zeros(8)).a, inst)


def test_a_kernel_that_is_not_a_point_is_named():
    small = generate_instance(0, 4, 0.5, 2)
    for check in (lambda a: DeconvState(a=a, x=np.zeros(4)), lambda a: recovery_score(a, small)):
        with pytest.raises(ValueError, match=r"^kernel must be a GrassmannPoint, got ndarray$"):
            check(np.ones((4, 1)) / 2)
    # The length message names what the kernel is compared with.
    with pytest.raises(ValueError, match=r"^kernel length 8 does not match code length 9$"):
        DeconvState(a=random_point(0, 8, 1), x=np.zeros(9))
    with pytest.raises(ValueError, match=r"^kernel length 8 does not match true kernel length 16$"):
        recovery_score(random_point(0, 8, 1), generate_instance(0, 16, 0.1, 4))


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
    init = default_init(y, 4)
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
            init = default_init(y, window)
            assert_array_equal(init.kernel, raw / np.linalg.norm(raw))


def test_default_init_zero_signal_falls_back_to_delta():
    init = default_init(np.zeros(16), 4)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert_array_equal(init.kernel, expected)
    # f_0 = 0, so the stop test's bound cost_tol * |f_0| is 0, and the change of 0 meets it.
    block = build_block_problem(DeconvProblem(y=np.zeros(16), lam=0.1))
    _, report = run_block_mm(block, init.a, init.x, SolverConfig(seed=0))
    assert (report.converged, report.iterations, report.final_cost) == (True, 1, 0.0)


def test_default_init_window_validation():
    y = np.ones(8)
    with pytest.raises(ValueError):
        default_init(y, 0)
    with pytest.raises(ValueError):
        default_init(y, 9)
    # A count follows the one integer rule: no bool, no float, even a whole one.
    for window in (2.5, 4.0, True):
        with pytest.raises(ValueError, match=r"^window must be an integer >= 1, got"):
            default_init(y, window)
    assert_array_equal(default_init(y, np.int64(4)).kernel, default_init(y, 4).kernel)
    with pytest.raises(ValueError, match=r"^y must be finite"):
        default_init([1.0, np.nan, 2.0], 2)


def test_random_init_unit_and_deterministic():
    p = DeconvProblem(y=np.ones(12), lam=0.0)
    s1 = random_init(p, 4)
    s2 = random_init(p, 4)
    assert_array_equal(s1.kernel, s2.kernel)
    assert abs(np.linalg.norm(s1.kernel) - 1.0) <= 1e-12
    assert_allclose(s1.x, 0.0, atol=0.0)


def test_heuristic_lambda_matches_formula():
    inst = generate_instance(9, 32, 0.1, 6, 0.0)
    init = default_init(inst.y, 6)
    lam = heuristic_lambda(inst.y, init.kernel)
    expected = 0.1 * np.max(np.abs(circular_correlation(init.kernel, inst.y)))
    assert_allclose(lam, expected, atol=1e-14)
    assert lam > 0


@pytest.mark.parametrize("n", [48, 128, 1024])
def test_lasso_warm_start_reduces_cost_with_fixed_kernel(n):
    inst = generate_instance(6, n, 0.08, 8, 0.0)
    base = default_init(inst.y, 8)
    p = DeconvProblem(y=inst.y, lam=heuristic_lambda(inst.y, base.kernel))
    warm = lasso_warm_start(p, base)
    assert_array_equal(warm.a.basis, base.a.basis)
    # The loop checks nothing per step, and gives the same bits as a loop
    # of the reference proximal step that builds and checks a state at
    # every step, on both sides of the FFT crossover.
    x = base.x
    step = 1.0 / lipschitz_bound(base.kernel)
    for _ in range(500):
        x_next = prox_step_x(p, DeconvState(a=base.a, x=x), step)
        done = np.max(np.abs(x_next - x)) <= 1e-12 * np.max(np.abs(x_next))
        x = x_next
        if done:
            break
    assert_array_equal(warm.x, x)
    assert deconv_cost(p, warm) < deconv_cost(p, base)
    untouched = lasso_warm_start(p, base, max_iter=0)
    assert_array_equal(untouched.x, base.x)
    assert_array_equal(untouched.a.basis, base.a.basis)
    with pytest.raises(ValueError):
        lasso_warm_start(p, base, max_iter=-1)
    for bad in (2.5, 4.0, True):
        with pytest.raises(ValueError, match=r"^max_iter must be an integer >= 0, got"):
            lasso_warm_start(p, base, bad)
    assert_array_equal(lasso_warm_start(p, base, np.int64(3)).x, lasso_warm_start(p, base, 3).x)


def test_lasso_warm_start_transforms_only_the_new_code(monkeypatch):
    # Each step is the solver's code step with the kernel held fixed: one
    # forward real FFT (the new code) and two inverse ones (the convolution
    # and the code gradient). The transforms of y and of the kernel are
    # taken once.
    counts = {"steps": 0, "rfft": 0, "irfft": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    inst = generate_instance(2, 1024, 0.0625, 8, 0.0)
    init = default_init(inst.y, 8)
    p = DeconvProblem(y=inst.y, lam=heuristic_lambda(inst.y, init.kernel))
    monkeypatch.setattr(deconv, "soft_threshold", counted(deconv.soft_threshold, "steps"))
    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft, "rfft"))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft, "irfft"))
    lasso_warm_start(p, init, max_iter=20)
    assert counts["steps"] == 20
    assert counts["rfft"] <= counts["steps"] + 2
    assert counts["irfft"] <= 2 * counts["steps"]


# --- problem/state validation -------------------------------------------------------


def test_problem_and_state_validation():
    with pytest.raises(ValueError):
        DeconvProblem(y=np.ones(8), lam=-0.1)
    with pytest.raises(ValueError):
        DeconvState(a=random_point(0, 8, 1), x=np.zeros(9))
    with pytest.raises(ValueError):
        build_block_problem(DeconvProblem(y=np.ones(8), lam=0.0), step_scale=0.0)


@pytest.mark.parametrize(
    "make, pattern",
    [
        (lambda: DeconvProblem(y=np.ones(8), lam=np.nan), r"lambda must be a finite number >= 0, got nan"),
        (lambda: DeconvProblem(y=np.ones(8), lam=np.inf), r"lambda must be a finite number >= 0, got inf"),
        (lambda: DeconvProblem(y=np.ones(8), lam=-0.1), r"lambda must be a finite number >= 0, got -0\.1"),
        (lambda: build_block_problem(DeconvProblem(y=np.ones(8), lam=0.0), np.nan), r"step_scale .* got nan"),
        (lambda: build_block_problem(DeconvProblem(y=np.ones(8), lam=0.0), np.inf), r"step_scale .* got inf"),
        (lambda: build_block_problem(DeconvProblem(y=np.ones(8), lam=0.0), -1.0), r"step_scale .* got -1\.0"),
    ],
)
def test_boundary_names_a_non_finite_input(make, pattern):
    # Without these checks a NaN or infinite lambda or step_scale surfaces
    # only in the solver, as a NonFiniteCostError that names neither.
    with pytest.raises(ValueError, match=pattern):
        make()


# Each real argument of the public boundary, called with a value v.
REAL_ARGUMENTS = {
    "lambda": lambda v: DeconvProblem(y=np.ones(8), lam=v),
    "step_scale": lambda v: build_block_problem(DeconvProblem(y=np.ones(8), lam=0.0), v),
    "tau": lambda v: soft_threshold(np.ones(3), v),
    "sparsity": lambda v: generate_instance(0, 16, v, 3),
    "noise_sigma": lambda v: generate_instance(0, 16, 0.2, 3, v),
    "dist_tol": lambda v: SolverConfig(dist_tol=v),
    "cost_tol": lambda v: SolverConfig(cost_tol=v),
}


@pytest.mark.parametrize("value", [True, "0.1", None, np.nan, np.inf], ids=["bool", "str", "none", "nan", "inf"])
@pytest.mark.parametrize("name", list(REAL_ARGUMENTS))
def test_real_arguments_follow_one_number_rule(name, value):
    # A bool is not a number here, and a string or None is named, not met
    # by a TypeError from a comparison.
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >=? 0, got"):
        REAL_ARGUMENTS[name](value)


# --- end to end -----------------------------------------------------------------


def test_solve_from_truth_is_immediately_stationary():
    inst = generate_instance(4, 32, 0.1, 6, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.0)
    init = DeconvState(a=GrassmannPoint(inst.true_a[:, None]), x=inst.true_x)
    trace, report = run_block_mm(build_block_problem(p), init.a, init.x, SolverConfig(seed=4))
    assert report.converged
    assert report.iterations == 1
    assert report.final_cost == 0.0
    assert report.final_dc == 0.0


@pytest.mark.parametrize("n", [8, 32, 64, 127, 128, 1024])
def test_solve_from_any_planted_truth_is_immediately_stationary(n):
    # With lambda = 0 and no noise the truth has cost exactly 0, so the rise
    # slack is 0 too: both blocks must keep it bit for bit. A zero kernel
    # gradient keeps the kernel (renormalizing it moved it by rounding), and
    # at and above the FFT crossover an exact fit has a zero residual
    # spectrum. Seeds whose y is all zero have no kernel to recover.
    started = 0
    for seed in range(20):
        inst = generate_instance(seed, n, 0.1, 6, 0.0)
        if not inst.y.any():
            continue
        started += 1
        p = DeconvProblem(y=inst.y, lam=0.0)
        trace, report = run_block_mm(
            build_block_problem(p), GrassmannPoint(inst.true_a[:, None]), inst.true_x, SolverConfig(seed=seed)
        )
        assert (report.converged, report.iterations) == (True, 1), seed
        assert report.final_cost == 0.0 and report.final_dc == 0.0, seed
    assert started >= 12


def test_solve_monotone_and_deterministic():
    inst = generate_instance(8, 64, 4 / 64, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(p.y, 8)
    t1, r1 = run_block_mm(build_block_problem(p), init.a, init.x, SolverConfig(seed=8))
    t2, r2 = run_block_mm(build_block_problem(p), init.a, init.x, SolverConfig(seed=8))
    costs = [r.f for r in t1]
    assert np.all(np.diff(costs) <= 1e-10)
    assert_array_equal(costs, [r.f for r in t2])
    assert r1.final_cost == r2.final_cost

    state = DeconvState(a=r1.final_g, x=r1.final_c)
    assert_allclose(deconv_cost(p, state), r1.final_cost, atol=1e-12)


def test_solver_step_scale_override_breaks_descent():
    # curvature 10x too small makes the surrogate non-majorizing; the engine
    # must refuse to continue rather than accept an ascending step
    from grassmm import MonotonicityViolation

    inst = generate_instance(0, 64, 4 / 64, 8, 0.0)
    p = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(p.y, 8)
    with pytest.raises(MonotonicityViolation):
        run_block_mm(build_block_problem(p, step_scale=10.0), init.a, init.x, SolverConfig(seed=0))


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


def frozen(array):
    """A read-only copy of the array, as the engine marks its iterates."""
    array = array.copy()
    array.setflags(write=False)
    return array


def read_only(state):
    """Copies of the state's arrays marked read-only, as the engine marks its iterates."""
    return GrassmannPoint(frozen(state.a.basis)), frozen(state.x)


@pytest.mark.parametrize("n", [16, 64, 127, 128, 257, 1024])
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
        # Read-only anchors in a row that share a signal with the one before,
        # by identity: two codes of opposite active signs on one kernel, then
        # one code on two kernels, then the second kernel with the first code.
        g, x = read_only(s)
        other_g = GrassmannPoint(frozen(random_point(seed + 9000, n, 1).basis))
        neg_x = frozen(-x)
        fast = build_block_problem(p)
        chain_signs = []
        for anchor_g, anchor_x in ((g, x), (g, neg_x), (other_g, neg_x), (other_g, x)):
            chain_signs.append(active_sign(p, DeconvState(a=anchor_g, x=anchor_x)))
            expected = block_values(ref, anchor_g, anchor_x, a_candidate, x_candidate)
            got = block_values(fast, anchor_g, anchor_x, a_candidate, x_candidate)
            for key, value in expected.items():
                assert_array_equal(got[key], value, err_msg=key)
        assert chain_signs[0] != chain_signs[1] and chain_signs[2] != chain_signs[3]
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
    init = default_init(p.y, 8)
    config = SolverConfig(seed=seed)
    fast, ref = build_block_problem(p), reference_block_problem(p)
    trace, report = run_block_mm(fast, init.a, init.x, config)
    ref_trace, ref_report = run_block_mm(ref, init.a, init.x, config)
    assert trace == ref_trace
    assert report.final_cost == ref_report.final_cost
    assert stationarity_check(fast, report.final_g, report.final_c, config.audit_samples, config.seed) == (
        stationarity_check(ref, ref_report.final_g, ref_report.final_c, config.audit_samples, config.seed)
    )
    assert_array_equal(report.final_g.basis, ref_report.final_g.basis)
    assert_array_equal(report.final_c, ref_report.final_c)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 300),
    count=st.integers(0, 40),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    writable=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=127, count=40, lam=0.1, writable=False, seed=1)  # the largest circulants, one per slice
@example(n=128, count=40, lam=0.0, writable=True, seed=2)  # the shortest FFT path
def test_batch_costs_equal_the_cost_bit_for_bit(n, count, lam, writable, seed):
    # costs takes K kernels (a K x N x 1 stack) with one code, or one kernel
    # with K codes; member k must equal the cost call at that sample.
    rng = np.random.default_rng(seed)
    p = DeconvProblem(y=rng.standard_normal(n), lam=lam)
    bp = build_block_problem(p)
    anchors = [random_state(seed, n), random_state(seed + 1, n)]
    anchors = [(s.a, s.x) if writable else read_only(s) for s in anchors]
    kernels = random_orthonormal(rng, n, 1, count=count)
    codes = rng.standard_normal((count, n)) * (rng.random((count, n)) < 0.3)
    if count:
        kernels[0] = -anchors[0][0].basis  # both active signs among the members
        codes[-1] = 0.0
    if not writable:
        kernels.setflags(write=False)
        codes.setflags(write=False)
    reference = [deconv_cost(p, DeconvState(a=g, x=x)) for g, x in anchors]
    # Both anchors are cached when read-only; costs must leave the cache as it was.
    assert [bp.cost(g, x) for g, x in anchors] == reference
    for g, x in anchors:
        by_kernel = bp.costs(kernels, x)
        by_code = bp.costs(g, codes)
        assert by_kernel == [bp.cost(GrassmannPoint(k), x) for k in kernels]
        assert by_code == [deconv_cost(p, DeconvState(a=g, x=code)) for code in codes]
        assert all(type(v) is float for v in by_kernel + by_code)
        assert [bp.cost(g, x) for g, x in anchors] == reference


@pytest.mark.parametrize("n", [8, 64, 127, 128])
def test_batch_cost_circulants_stay_under_the_cap(n, monkeypatch):
    # No batch builds a circulant, or any N x N array, at any N: it gathers
    # nothing, transforms its K codes as one K x N stack, takes the kept
    # kernel's transform and inverts one K x (N // 2 + 1) stack of spectra.
    seen = []

    def recorded(fn):
        def wrapper(v, *args):
            out = fn(v, *args)
            seen.append((v.shape, out.shape))
            return out

        return wrapper

    take = np.take
    p = DeconvProblem(y=np.random.default_rng(n).standard_normal(n), lam=0.1)
    g, x = read_only(random_state(n, n))
    codes = np.random.default_rng(n + 1).standard_normal((300, n))
    expected = [deconv_cost(p, DeconvState(a=g, x=code)) for code in codes]
    bp = build_block_problem(p)
    bp.cost(g, x)
    monkeypatch.setattr(np, "take", lambda *args, **kwargs: seen.append("take") or take(*args, **kwargs))
    monkeypatch.setattr(deconv, "_rfft", recorded(deconv._rfft))
    monkeypatch.setattr(deconv, "_irfft", recorded(deconv._irfft))
    assert bp.costs(g, codes) == expected
    h = n // 2 + 1
    assert seen == [((300, n), (300, h)), ((300, h), (300, n))]


@pytest.mark.parametrize("n", [128, 257, 1024])
def test_batch_costs_reuse_a_kept_transform(n, monkeypatch):
    # When the one kernel or the one code of a batch is, by identity, an
    # array of a kept context, its real FFT is read from there: the batch
    # transforms only its K kernels or K codes. The values are those of a
    # problem that keeps no context.
    transformed = []
    rfft = np.fft.rfft

    def recorded(a, *args, **kwargs):
        transformed.append(np.shape(a)[:-1])
        return rfft(a, *args, **kwargs)

    rng = np.random.default_rng(n)
    p = DeconvProblem(y=rng.standard_normal(n), lam=0.1)
    g, x = read_only(random_state(n, n))
    kernels = random_orthonormal(rng, n, 1, count=5)
    codes = rng.standard_normal((6, n))
    fresh = build_block_problem(p)
    expected = (fresh.costs(kernels, x), fresh.costs(g, codes))
    kept = build_block_problem(p)
    kept.cost(g, x)
    monkeypatch.setattr(np.fft, "rfft", recorded)
    got = (kept.costs(kernels, x), kept.costs(g, codes))
    assert got == expected
    assert transformed == [(5,), (6,)]


@pytest.mark.parametrize("n", [64, 127, 1024])
def test_stationarity_probe_makes_one_cost_call(n):
    # The probe evaluates the cost once, at the iterate; its samples go through
    # costs, and score as the reference problem's one call per sample does.
    rng = np.random.default_rng(n)
    p = DeconvProblem(y=rng.standard_normal(n), lam=0.2)
    bp = build_block_problem(p)
    calls = []

    def cost(g, x):
        calls.append(g)
        return bp.cost(g, x)

    counted = replace(bp, cost=cost)
    g, x = read_only(random_state(n, n))
    for directions in (1, 7, 33, 120):
        calls.clear()
        score = stationarity_check(counted, g, x, directions, seed=directions)
        assert len(calls) == 1, directions
        assert score == stationarity_check(reference_block_problem(p), g, x, directions, seed=directions)


def test_work_per_iteration(monkeypatch):
    # Between two consecutive kernel steps the engine evaluates the cost at the
    # two new iterates. Each new anchor transforms only its new signal, G or x,
    # and takes one inverse transform, its convolution; the rest comes from
    # the anchor before it. The Lipschitz bounds read the kept transforms of
    # G and x, so they take none. Below the FFT crossover the residual is a
    # signal, transformed when a gradient first needs it, so an iteration
    # takes four forward transforms (the new G and x and the two residuals)
    # and four inverse ones (the two convolutions, the kernel gradient at one
    # anchor and the code gradient at the other). At and above the crossover
    # the residual's transform is the spectrum its convolution is taken from,
    # so an iteration takes two forward transforms (the new G and x) and five
    # inverse ones: the convolution at each of the two anchors, the kernel
    # gradient at each and the code gradient at one. At every N a try adds
    # two forward transforms, its new G and x, and one inverse, its
    # convolution. The engine has checked every kernel it passes, so the
    # solve checks none again. On Gr(N, 1) an iteration takes no SVD, tries
    # included: the stop-test distance and the extrapolation point are taken
    # in closed form.
    counts = {"cost": 0, "transform": 0, "inverse": 0, "kernel_check": 0, "svd": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rows(fn, key):
        # one transform per signal: a K x N stack counts K
        def wrapper(v, *args):
            counts[key] += 1 if v.ndim == 1 else len(v)
            return fn(v, *args)

        return wrapper

    # Both routes of the pair are counted; a full FFT counts too, so a
    # Lipschitz bound taken with one would.
    monkeypatch.setattr(deconv, "_rfft", rows(deconv._rfft, "transform"))
    monkeypatch.setattr(deconv, "_irfft", rows(deconv._irfft, "inverse"))
    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft, "transform"))
    monkeypatch.setattr(deconv, "_check_kernel", counted(deconv._check_kernel, "kernel_check"))
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd, "svd"))
    # n: (forward transforms, inverse transforms), what a try adds to each, max_iter
    for n, bound, try_bound, max_iter in ((64, (4, 4), (2, 1), 5000), (1024, (2, 5), (2, 1), 100)):
        inst = generate_instance(2, n, 0.0625, 8, 0.0)
        p = DeconvProblem(y=inst.y, lam=0.1)
        init = default_init(p.y, 8)
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
        checks_before = counts["kernel_check"]
        _, report = run_block_mm(problem, init.a, init.x, SolverConfig(max_iter=max_iter, seed=2))
        assert counts["kernel_check"] == checks_before
        assert report.iterations >= 20
        assert report.extrapolations > 0
        for i, (before, after) in enumerate(zip(snapshots, snapshots[1:])):
            tried = (i + 1) % engine.EXTRAPOLATION_PERIOD == 0
            assert after["cost"] - before["cost"] <= 2 + tried
            assert after["transform"] - before["transform"] <= bound[0] + try_bound[0] * tried, n
            assert after["inverse"] - before["inverse"] <= bound[1] + try_bound[1] * tried, n
            assert after["svd"] == before["svd"], (n, i)
