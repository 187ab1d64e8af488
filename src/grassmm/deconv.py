"""Blind sparse deconvolution: y ~ a (*) x with unit-norm kernel a and sparse x.

The kernel is a point of Gr(N, 1), which makes the estimate sign-ambiguous:
(a, x) and (-a, -x) explain the data equally well. The cost used everywhere is

    f(a, x) = min over s in {+1, -1} of ||y - s * (a (*) x)||_2^2 + lambda * ||x||_1

so it is exactly invariant under flipping the kernel representative. The sign
attaining the minimum is called the active sign; gradients and surrogate steps
are taken on that branch. Circular convolution and correlation are computed
as the direct O(N^2) sum below _FFT_MIN_N samples and with a real FFT at and
above it, where the FFT is faster. Every caller (instance generator, public
functions, per-anchor context) shares the one routine, so at any length a
planted instance has exactly zero residual at the truth. Both routines are
odd in their first argument bit for bit.

The public functions taking a DeconvState are the reference: each validates
its input and computes its quantity from scratch. The BlockProblem built by
build_block_problem reads everything at an anchor (G, x) from one per-anchor
context instead. The context computes the convolution u = a (*) x once; the
cost, the active sign and the active-sign residual follow from u, and the two
block gradients and the two Lipschitz bounds are filled in on first use. The
results equal the reference functions bit for bit. Contexts are kept for the
two most recent anchors whose arrays are read-only, matched by identity: the
engine marks its iterates read-only, and an anchor with a writable array is
recomputed on every call, so mutating it in place cannot leave a stale value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import (
    BlockProblem,
    ConvergenceReport,
    IterationTrace,
    SolverConfig,
    SurrogateOracle,
    run_block_mm,
)
from .grassmann import GrassmannPoint, _trusted, random_point, riemannian_gradient

ZERO_GRAD_CUTOFF = 1e-14  # Riemannian gradient norms at or below this skip the kernel step
_KERNEL_NORM_TOL = 1e-10

_FFT_MIN_N = 128  # measured crossover: rfft beats the direct sum from here on


@lru_cache(maxsize=None)  # bounded: only lengths below _FFT_MIN_N are cached
def _conv_index(n: int) -> np.ndarray:
    grid = np.arange(n)
    return (grid[:, None] - grid[None, :]) % n


def _as_signal(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


# The unchecked kernels below take 1-d float arrays of equal length that the
# caller has already validated; the public wrappers check outside input.


def _conv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = a.size
    if n < _FFT_MIN_N:
        return x[_conv_index(n)] @ a
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(x), n)


def _corr(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    n = v.size
    if n < _FFT_MIN_N:
        return w @ v[_conv_index(n)]
    return np.fft.irfft(np.conj(np.fft.rfft(v)) * np.fft.rfft(w), n)


def _lipschitz(v: np.ndarray) -> float:
    return float(2.0 * np.max(np.abs(np.fft.fft(v)) ** 2))


def circular_convolution(a, x) -> np.ndarray:
    """Circular convolution out[i] = sum_k a[k] * x[(i - k) mod N]: the direct
    sum below _FFT_MIN_N samples, a real FFT at and above it."""
    a = _as_signal(a, "a")
    x = _as_signal(x, "x")
    if a.size != x.size:
        raise ValueError(f"length mismatch: {a.size} vs {x.size}")
    return _conv(a, x)


def circular_correlation(v, w) -> np.ndarray:
    """Circular cross-correlation out[k] = sum_i v[(i - k) mod N] * w[i]: the
    direct sum below _FFT_MIN_N samples, a real FFT at and above it."""
    v = _as_signal(v, "v")
    w = _as_signal(w, "w")
    if v.size != w.size:
        raise ValueError(f"length mismatch: {v.size} vs {w.size}")
    return _corr(v, w)


def soft_threshold(v, tau: float) -> np.ndarray:
    """Proximal operator of tau * ||.||_1: shrink each entry toward zero by tau."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def lipschitz_bound(v) -> float:
    """Curvature bound 2 * max |DFT(v)|^2 for w -> ||y - v (*) w||_2^2."""
    return _lipschitz(_as_signal(v, "v"))


@dataclass(frozen=True)
class DeconvProblem:
    """Observed signal plus the sparsity weight of the cost."""

    y: np.ndarray
    lam: float

    def __post_init__(self):
        y = _as_signal(self.y, "y")
        object.__setattr__(self, "y", y)
        if self.lam < 0.0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class DeconvState:
    """Current kernel estimate (a point of Gr(N, 1)) and sparse code estimate."""

    a: GrassmannPoint
    x: np.ndarray

    def __post_init__(self):
        x = _as_signal(self.x, "x")
        object.__setattr__(self, "x", x)
        _check_kernel(self.a, x.size)

    @property
    def kernel(self) -> np.ndarray:
        return self.a.basis[:, 0]


def _check_kernel(a: GrassmannPoint, n: int) -> None:
    if a.d != 1:
        raise ValueError("kernel must be a point of Gr(N, 1)")
    if a.n != n:
        raise ValueError(f"kernel length {a.n} does not match code length {n}")
    nrm = float(np.linalg.norm(a.basis[:, 0]))
    if abs(nrm - 1.0) > _KERNEL_NORM_TOL:
        raise ValueError(f"kernel norm deviates from 1 by {abs(nrm - 1.0):.3e}")


@dataclass(frozen=True)
class SyntheticInstance:
    """Ground-truth planted instance: y = true_a (*) true_x + noise."""

    seed: int
    true_a: np.ndarray
    true_x: np.ndarray
    y: np.ndarray
    sparsity: float
    kernel_support: int
    noise_sigma: float

    @property
    def n(self) -> int:
        return self.y.size


def active_sign(problem: DeconvProblem, state: DeconvState) -> float:
    """Sign s minimizing ||y - s * (a (*) x)||; +1 on ties."""
    u = _conv(state.kernel, state.x)
    return 1.0 if float(problem.y @ u) >= 0.0 else -1.0


def working_state(problem: DeconvProblem, state: DeconvState) -> DeconvState:
    """The same state with the kernel representative flipped to its active sign."""
    if active_sign(problem, state) >= 0.0:
        return state
    return _trusted(DeconvState, a=_trusted(GrassmannPoint, basis=-state.a.basis), x=state.x)


def deconv_cost(problem: DeconvProblem, state: DeconvState) -> float:
    """Sign-invariant cost: best-sign squared residual plus lambda * ||x||_1."""
    u = _conv(state.kernel, state.x)
    r_plus = problem.y - u
    r_minus = problem.y + u
    data = min(float(r_plus @ r_plus), float(r_minus @ r_minus))
    return data + problem.lam * float(np.sum(np.abs(state.x)))


def grad_x(problem: DeconvProblem, state: DeconvState) -> np.ndarray:
    """Gradient of ||y - a (*) x||^2 in x for the given kernel representative."""
    r = problem.y - _conv(state.kernel, state.x)
    return -2.0 * _corr(state.kernel, r)


def grad_a(problem: DeconvProblem, state: DeconvState) -> np.ndarray:
    """Gradient of ||y - a (*) x||^2 in the kernel representative."""
    r = problem.y - _conv(state.kernel, state.x)
    return -2.0 * _corr(state.x, r)


def prox_step_x(problem: DeconvProblem, state: DeconvState, step: float) -> np.ndarray:
    """One proximal gradient step on the code: shrink(x - step * grad, step * lambda)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return soft_threshold(state.x - step * grad_x(problem, state), step * problem.lam)


def riemannian_step_a(problem: DeconvProblem, state: DeconvState, step: float) -> GrassmannPoint:
    """One geodesic gradient step on the kernel.

    Moves along the Gr(N, 1) geodesic a cos(||h||) + (h / ||h||) sin(||h||)
    with h = -step * (tangent-projected gradient); returns the kernel unchanged
    when the projected gradient norm is at or below ZERO_GRAD_CUTOFF.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return _geodesic_step(state.a, grad_a(problem, state), step)


def _geodesic_step(a: GrassmannPoint, egrad: np.ndarray, step: float) -> GrassmannPoint:
    rg = riemannian_gradient(a, egrad[:, None])
    if rg.norm() <= ZERO_GRAD_CUTOFF:
        return a
    h = -step * rg.delta[:, 0]
    hn = float(np.linalg.norm(h))
    new = a.basis[:, 0] * np.cos(hn) + (h / hn) * np.sin(hn)
    return GrassmannPoint(new[:, None])


def generate_instance(
    seed: int,
    n: int,
    sparsity: float,
    kernel_support: int,
    noise_sigma: float = 0.0,
) -> SyntheticInstance:
    """Planted instance: Bernoulli-Gaussian code, unit Gaussian kernel on the
    first `kernel_support` samples, plus white noise. Deterministic per seed;
    the draw order is code mask, code amplitudes, kernel, noise."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < sparsity < 1.0:
        raise ValueError(f"sparsity must lie strictly between 0 and 1, got {sparsity}")
    if not 1 <= kernel_support <= n:
        raise ValueError(f"kernel_support must lie in [1, {n}], got {kernel_support}")
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < sparsity
    amplitudes = rng.standard_normal(n)
    true_x = np.where(mask, amplitudes, 0.0)
    raw = np.zeros(n)
    raw[:kernel_support] = rng.standard_normal(kernel_support)
    true_a = raw / np.linalg.norm(raw)
    y = circular_convolution(true_a, true_x) + noise_sigma * rng.standard_normal(n)
    return SyntheticInstance(
        seed=seed,
        true_a=true_a,
        true_x=true_x,
        y=y,
        sparsity=sparsity,
        kernel_support=kernel_support,
        noise_sigma=noise_sigma,
    )


def recovery_score(estimate: DeconvState, truth: SyntheticInstance) -> float:
    """Best absolute inner product between the estimated kernel and the true
    kernel over all circular shifts and both signs; 1 means perfect recovery."""
    if estimate.a.n != truth.n:
        raise ValueError(f"length mismatch: {estimate.a.n} vs {truth.n}")
    return float(min(np.max(np.abs(circular_correlation(estimate.kernel, truth.true_a))), 1.0))


def heuristic_lambda(y, a0_kernel) -> float:
    """Sparsity weight 0.1 * ||corr(a0, y)||_inf used when none is configured."""
    return float(0.1 * np.max(np.abs(circular_correlation(a0_kernel, y))))


def default_init(problem: DeconvProblem, window: int) -> DeconvState:
    """Data-driven start: the max-energy length-`window` segment of y as kernel
    (placed at the leading indices), zero code."""
    y = problem.y
    n = problem.n
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    sq = y * y
    energies = sliding_window_view(np.concatenate([sq, sq[: window - 1]]), window).sum(axis=1)
    start = int(np.argmax(energies))
    raw = np.zeros(n)
    raw[:window] = y[(start + np.arange(window)) % n]
    nrm = np.linalg.norm(raw)
    if nrm <= 1e-12:
        raw[:] = 0.0
        raw[0] = 1.0
        nrm = 1.0
    return DeconvState(a=GrassmannPoint((raw / nrm)[:, None]), x=np.zeros(n))


def random_init(problem: DeconvProblem, seed: int) -> DeconvState:
    """Seeded random unit kernel, zero code."""
    return DeconvState(a=random_point(seed, problem.n, 1), x=np.zeros(problem.n))


def lasso_warm_start(problem: DeconvProblem, init: DeconvState, max_iter: int = 500) -> DeconvState:
    """Refine the code by proximal gradient steps with the kernel held fixed.

    Useful before a joint solve: with the kernel frozen this is a plain
    l1-regularized least-squares solve, so the code settles on a stable
    sparse support before the kernel is allowed to move.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    bound = lipschitz_bound(init.kernel)
    if bound <= 0.0:
        return init
    step = 1.0 / bound
    x = init.x
    for _ in range(max_iter):
        x_next = prox_step_x(problem, DeconvState(a=init.a, x=x), step)
        done = np.max(np.abs(x_next - x)) <= 1e-12
        x = x_next
        if done:
            break
    return DeconvState(a=init.a, x=x)


class _Anchor:
    """The deconvolution quantities at one anchor (G, x), each computed once.

    `ws_a` is the active-sign representative of G, `kernel` its vector,
    `resid` = y - kernel (*) x and `base` = ||resid||^2. The gradients and
    Lipschitz bounds are computed on first use.
    """

    def __init__(self, problem: DeconvProblem, g: GrassmannPoint, x: np.ndarray, prev: Optional[_Anchor]):
        if x.shape != problem.y.shape:
            raise ValueError(f"code has shape {x.shape}, expected {problem.y.shape}")
        _check_kernel(g, x.size)
        self.g = g
        self.x = x
        self.lam = problem.lam
        y = problem.y
        u = _conv(g.basis[:, 0], x)
        # y + u is y - (-a) (*) x bit for bit: negating a negates every product
        # of the direct sum and every coefficient of the FFT path.
        r_plus = y - u
        r_minus = y + u
        d_plus = float(r_plus @ r_plus)
        d_minus = float(r_minus @ r_minus)
        self.penalty = problem.lam * float(np.sum(np.abs(x)))
        self.cost = min(d_plus, d_minus) + self.penalty
        if float(y @ u) >= 0.0:
            self.ws_a, self.resid, self.base = g, r_plus, d_plus
        else:
            self.ws_a = _trusted(GrassmannPoint, basis=-g.basis)
            self.resid, self.base = r_minus, d_minus
        self.kernel = self.ws_a.basis[:, 0]
        if prev is not None and prev.g is g and "lip_a" in vars(prev):
            # |DFT(a)| does not depend on the sign of a, so anchors on one G share it.
            self.lip_a = prev.lip_a

    @cached_property
    def grad_a(self) -> np.ndarray:
        """Gradient of ||y - a (*) x||^2 in the active kernel representative."""
        grad = -2.0 * _corr(self.x, self.resid)
        grad.setflags(write=False)
        return grad

    @cached_property
    def grad_x(self) -> np.ndarray:
        """Gradient of ||y - a (*) x||^2 in x for the active kernel representative."""
        grad = -2.0 * _corr(self.kernel, self.resid)
        grad.setflags(write=False)
        return grad

    @cached_property
    def lip_a(self) -> float:
        """Curvature bound of the data term in x: it depends on the kernel."""
        return _lipschitz(self.kernel)

    @cached_property
    def lip_x(self) -> float:
        """Curvature bound of the data term in the kernel: it depends on x."""
        return _lipschitz(self.x)

    def prox(self, step: float) -> np.ndarray:
        """The code after one proximal gradient step of length `step`."""
        return soft_threshold(self.x - step * self.grad_x, step * self.lam)


def build_block_problem(problem: DeconvProblem, step_scale: float = 1.0) -> BlockProblem:
    """Wire the deconvolution cost and its two surrogates into a BlockProblem.

    Both surrogates are Lipschitz quadratic models of the data term around the
    active-sign representative, with curvature L / step_scale where L is the
    Fourier bound from the current fixed block; step_scale = 1 makes them true
    majorants. The kernel surrogate is minimized by one geodesic gradient step
    of length step_scale / L, the code surrogate by one proximal step. Every
    callable reads its anchor's quantities from one shared per-anchor context
    (see the module docstring).
    """
    if step_scale <= 0.0:
        raise ValueError(f"step_scale must be positive, got {step_scale}")
    n = problem.n
    recent: list[_Anchor] = []  # newest last; anchors whose arrays are read-only

    def at(g: GrassmannPoint, x) -> _Anchor:
        for ctx in recent:
            if ctx.g is g and ctx.x is x:
                return ctx
        x = np.asarray(x, dtype=float)
        ctx = _Anchor(problem, g, x, recent[-1] if recent else None)
        if not (g.basis.flags.writeable or x.flags.writeable):
            recent.append(ctx)
            del recent[:-2]
        return ctx

    def cost(g: GrassmannPoint, x: np.ndarray) -> float:
        return at(g, x).cost

    # --- kernel block -----------------------------------------------------
    def a_minimize(g: GrassmannPoint, x: np.ndarray) -> GrassmannPoint:
        ctx = at(g, x)
        if ctx.lip_x <= 0.0:
            return ctx.ws_a
        return _geodesic_step(ctx.ws_a, ctx.grad_a, step_scale / ctx.lip_x)

    def a_evaluate(candidate: GrassmannPoint, g: GrassmannPoint, x: np.ndarray) -> float:
        ctx = at(g, x)
        curvature = ctx.lip_x / step_scale

        def quad(vec: np.ndarray) -> float:
            diff = vec - ctx.kernel
            return ctx.base + float(ctx.grad_a @ diff) + 0.5 * curvature * float(diff @ diff)

        b = candidate.basis[:, 0]
        return min(quad(b), quad(-b)) + ctx.penalty

    # --- code block --------------------------------------------------------
    def x_minimize(g: GrassmannPoint, x: np.ndarray) -> np.ndarray:
        ctx = at(g, x)
        return ctx.prox(step_scale / ctx.lip_a)

    def x_evaluate(candidate: np.ndarray, g: GrassmannPoint, x: np.ndarray) -> float:
        ctx = at(g, x)
        candidate = np.asarray(candidate, dtype=float)
        curvature = ctx.lip_a / step_scale
        diff = candidate - ctx.x
        return (
            ctx.base
            + float(ctx.grad_x @ diff)
            + 0.5 * curvature * float(diff @ diff)
            + problem.lam * float(np.sum(np.abs(candidate)))
        )

    def x_smooth_along(g: GrassmannPoint, x: np.ndarray, direction: np.ndarray, h: float) -> bool:
        # The l1 term has kinks where a coordinate of x crosses zero; reject
        # directions whose +/- h sweep reaches or touches such a crossing.
        x = np.asarray(x, dtype=float)
        margin = np.abs(x) - h * np.abs(np.asarray(direction, dtype=float))
        return bool(np.all(margin > 1e-12))

    # --- diagnostics --------------------------------------------------------
    def g_grad(g: GrassmannPoint, x: np.ndarray) -> np.ndarray:
        return at(g, x).grad_a[:, None]

    def c_grad(g: GrassmannPoint, x: np.ndarray) -> np.ndarray:
        # Proximal-gradient residual, scaled to gradient units; zero exactly at
        # fixed points of the code update.
        ctx = at(g, x)
        lip = ctx.lip_a
        return lip * (ctx.x - ctx.prox(1.0 / lip))

    return BlockProblem(
        cost=cost,
        grassmann_surrogate=SurrogateOracle(evaluate=a_evaluate, minimize=a_minimize),
        convex_surrogate=SurrogateOracle(
            evaluate=x_evaluate, minimize=x_minimize, smooth_along=x_smooth_along
        ),
        convex_constraint=lambda v: np.asarray(v, dtype=float),
        dims=(n, 1, n),
        grassmann_grad=g_grad,
        convex_grad=c_grad,
    )


def solve_deconv(
    problem: DeconvProblem,
    init: DeconvState,
    config: SolverConfig = SolverConfig(),
    step_scale: float = 1.0,
) -> tuple[IterationTrace, ConvergenceReport]:
    """Alternate kernel and code surrogate steps from `init` until stagnation."""
    block_problem = build_block_problem(problem, step_scale=step_scale)
    return run_block_mm(block_problem, init.a, init.x, config)


def final_state(problem: DeconvProblem, report: ConvergenceReport) -> DeconvState:
    """The converged iterate of a solve_deconv run as a DeconvState."""
    return DeconvState(a=report.final_g, x=report.final_c)
