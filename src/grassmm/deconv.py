"""Blind sparse deconvolution: y ~ a (*) x with unit-norm kernel a and sparse x.

The kernel is a point of Gr(N, 1), which makes the estimate sign-ambiguous:
(a, x) and (-a, -x) explain the data equally well. The cost used everywhere is

    f(a, x) = min over s in {+1, -1} of ||y - s * (a (*) x)||_2^2 + lambda * ||x||_1

so it is exactly invariant under flipping the kernel representative. The sign
attaining the minimum is called the active sign; gradients and surrogate steps
are taken on that branch. Circular convolution and correlation are computed
as the direct O(N^2) sum below _FFT_MIN_N samples and with a real FFT at and
above it, where the FFT is faster. Both work on a per-signal transform (see
_Signal): the circulant of a signal on the direct path, its real FFT on the
FFT path. Every caller (instance generator, public functions, per-anchor
context) shares the one routine, so at any length a planted instance has
exactly zero residual at the truth. Both routines are odd in their first
argument bit for bit, and so is the transform.

The public functions taking a DeconvState are the reference: each validates
its input and computes its quantity from scratch. The BlockProblem built by
build_block_problem reads everything at an anchor (G, x) from one per-anchor
context instead. The context computes the convolution u = a (*) x once; the
cost, the active sign and the active-sign residual follow from u, and the two
block gradients and the two Lipschitz bounds are filled in on first use. The
transforms are kept per signal: the residual's serves both gradients, an
anchor whose G or x is, by identity, the previous anchor's takes that
signal's transform from it, and the active kernel's transform is G's,
negated for the negative sign. At and above _FFT_MIN_N the Lipschitz bounds
read the stored real FFTs of G and x. The results equal the reference
functions bit for bit. Contexts are kept for the two most recently used
anchors whose arrays are read-only, matched by identity, so an anchor
that follows an extrapolation the engine rejected still shares its signals
with the iterate it continues from: the engine marks its iterates read-only,
and an anchor with a writable array is recomputed on every call, so mutating
it in place cannot leave a stale value. The callables trust their arguments,
which the engine has checked (see the check policy in grassmm.engine).
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
from .grassmann import GrassmannPoint, _trusted

_KERNEL_NORM_TOL = 1e-10  # absolute: a unit kernel has no scale; stricter than the Gram check

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


class _Signal:
    """A signal v and its transform t, computed on first use and then kept:
    the circulant v[_conv_index(N)] below _FFT_MIN_N samples, rfft(v) at and
    above. A given t must be the transform of v bit for bit; the negated
    transform of a signal is that of its negation. Its Lipschitz bound is
    kept the same way."""

    __slots__ = ("v", "_t", "_lip")

    def __init__(self, v: np.ndarray, t: Optional[np.ndarray] = None):
        self.v = v
        self._t = t
        self._lip = None

    @property
    def t(self) -> np.ndarray:
        if self._t is None:
            n = self.v.size
            self._t = self.v[_conv_index(n)] if n < _FFT_MIN_N else np.fft.rfft(self.v)
        return self._t

    @property
    def lip(self) -> float:
        """_lipschitz(v), from the transform when that is the real FFT."""
        if self._lip is None:
            self._lip = _lipschitz(self.v, self.t if self.v.size >= _FFT_MIN_N else None)
        return self._lip


def _convolve(a: _Signal, x: _Signal) -> np.ndarray:
    n = a.v.size
    if n < _FFT_MIN_N:
        return x.t @ a.v
    return np.fft.irfft(a.t * x.t, n)


def _correlate(v: _Signal, w: _Signal) -> np.ndarray:
    n = v.v.size
    if n < _FFT_MIN_N:
        return w.v @ v.t
    return np.fft.irfft(np.conj(v.t) * w.t, n)


def _conv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _convolve(_Signal(a), _Signal(x))


def _corr(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _correlate(_Signal(v), _Signal(w))


def _lipschitz(v: np.ndarray, spectrum: Optional[np.ndarray] = None) -> float:
    """2 max |rfft(v)|^2; spectrum, when given, must be rfft(v) bit for bit."""
    # The moduli of the full DFT are those of the real FFT, mirrored. Rounding
    # is monotone, so the square of the largest modulus is the largest
    # rounded square bit for bit.
    m = float(np.abs(np.fft.rfft(v) if spectrum is None else spectrum).max())
    return 2.0 * (m * m)


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
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"lambda must be a finite number >= 0, got {self.lam}")

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


def _check_length(problem: DeconvProblem, state: DeconvState) -> None:
    if state.x.size != problem.n:
        raise ValueError(f"state has length {state.x.size}, but y has length {problem.n}")


def deconv_cost(problem: DeconvProblem, state: DeconvState) -> float:
    """Sign-invariant cost: best-sign squared residual plus lambda * ||x||_1."""
    _check_length(problem, state)
    u = _conv(state.kernel, state.x)
    r_plus = problem.y - u
    r_minus = problem.y + u
    data = min(float(r_plus @ r_plus), float(r_minus @ r_minus))
    return data + problem.lam * float(np.sum(np.abs(state.x)))


def _grad_x(problem: DeconvProblem, kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    return -2.0 * _corr(kernel, problem.y - _conv(kernel, x))


def grad_x(problem: DeconvProblem, state: DeconvState) -> np.ndarray:
    """Gradient of ||y - a (*) x||^2 in x for the given kernel representative."""
    _check_length(problem, state)
    return _grad_x(problem, state.kernel, state.x)


def grad_a(problem: DeconvProblem, state: DeconvState) -> np.ndarray:
    """Gradient of ||y - a (*) x||^2 in the kernel representative."""
    _check_length(problem, state)
    r = problem.y - _conv(state.kernel, state.x)
    return -2.0 * _corr(state.x, r)


def prox_step_x(problem: DeconvProblem, state: DeconvState, step: float) -> np.ndarray:
    """One proximal gradient step on the code: shrink(x - step * grad, step * lambda)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    _check_length(problem, state)
    return soft_threshold(state.x - step * _grad_x(problem, state.kernel, state.x), step * problem.lam)


def _geodesic_step(a: GrassmannPoint, egrad: np.ndarray, step: float) -> GrassmannPoint:
    """The kernel step from a, with egrad the data term's gradient g at a: the
    exact minimizer over the unit sphere of the model f(a) + <g, b - a> +
    ||b - a||^2 / (2 step), which majorizes the data term when 1 / step is at
    least its Lipschitz constant, so the step then never raises the cost.

    On the sphere the model is <g - a / step, b> plus a constant, so its
    minimizer is (a - step g) / ||a - step g||. A geodesic step of angle
    step ||P g|| overshoots it where <g, a> < -1 / step, and raised the cost
    (N=27, seed 1439, lambda 0.5, iteration 1). The new kernel's constructor
    checks it.
    """
    b = a.basis[:, 0] - step * egrad
    nrm = float(np.linalg.norm(b))
    if nrm == 0.0:  # a = step g: the model is flat on the sphere, so a is kept
        return a
    return GrassmannPoint((b / nrm)[:, None])


def generate_instance(
    seed: int,
    n: int,
    sparsity: float,
    kernel_support: int,
    noise_sigma: float = 0.0,
) -> SyntheticInstance:
    """Planted instance: Bernoulli-Gaussian code, unit Gaussian kernel on the
    first `kernel_support` samples, plus white noise. Deterministic per seed;
    the draw order is code mask, code amplitudes, kernel, noise. Raises
    ValueError naming noise_sigma when the noise is so large that y or y @ y
    overflows."""
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
    with np.errstate(over="ignore"):  # overflow is reported below, naming its cause
        y = circular_convolution(true_a, true_x) + noise_sigma * rng.standard_normal(n)
        energy = y @ y
    if not (np.all(np.isfinite(y)) and np.isfinite(energy)):
        raise ValueError(
            f"noise_sigma {noise_sigma:g} is too large: the observation y or its energy y @ y is not finite"
        )
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
    if nrm == 0.0:  # y is all zero
        raw[0] = 1.0
        nrm = 1.0
    return DeconvState(a=GrassmannPoint((raw / nrm)[:, None]), x=np.zeros(n))


def lasso_warm_start(problem: DeconvProblem, init: DeconvState, max_iter: int = 500) -> DeconvState:
    """Refine the code by proximal gradient steps with the kernel held fixed.

    Useful before a joint solve: with the kernel frozen this is a plain
    l1-regularized least-squares solve, so the code settles on a stable
    sparse support before the kernel is allowed to move.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    _check_length(problem, init)
    step = 1.0 / lipschitz_bound(init.kernel)  # at least 2: a unit kernel's spectrum has energy N
    x = init.x
    for _ in range(max_iter):
        x_next = soft_threshold(x - step * _grad_x(problem, init.kernel, x), step * problem.lam)
        done = np.max(np.abs(x_next - x)) <= 1e-12 * np.max(np.abs(x_next))
        x = x_next
        if done:
            break
    return DeconvState(a=init.a, x=x)


class _Anchor:
    """The deconvolution quantities at one anchor (G, x), each computed once.

    `ws_a` is the active-sign representative of G, `kernel` its vector,
    `resid` the signal r = y - kernel (*) x and `base` = ||r||^2. The
    gradients are computed on first use, and so are the transforms of G, x
    and the residual and the Lipschitz bounds of G and x (see _Signal); both
    gradients read the residual's transform.
    An anchor whose G or x is the previous anchor's, by identity, takes that
    signal, with its transform and bound, from there, with the l1 penalty of
    x.
    """

    def __init__(self, problem: DeconvProblem, g: GrassmannPoint, x: np.ndarray, prev: Optional[_Anchor]):
        self.g = g
        self.x = x
        self.lam = problem.lam
        self.g_signal = prev.g_signal if prev is not None and prev.g is g else _Signal(g.basis[:, 0])
        if prev is not None and prev.x is x:
            self.x_signal, self.penalty = prev.x_signal, prev.penalty
        else:
            self.x_signal, self.penalty = _Signal(x), problem.lam * float(np.abs(x).sum())
        y = problem.y
        u = _convolve(self.g_signal, self.x_signal)
        # y + u is y - (-a) (*) x bit for bit: negating a negates every product
        # of the direct sum and every coefficient of the FFT path.
        r_plus = y - u
        r_minus = y + u
        d_plus = float(r_plus @ r_plus)
        d_minus = float(r_minus @ r_minus)
        self.cost = min(d_plus, d_minus) + self.penalty
        if float(y @ u) >= 0.0:
            self.ws_a, resid, self.base = g, r_plus, d_plus
        else:
            self.ws_a = _trusted(GrassmannPoint, basis=-g.basis)
            resid, self.base = r_minus, d_minus
        self.resid = _Signal(resid)
        self.kernel = self.ws_a.basis[:, 0]

    @cached_property
    def kernel_signal(self) -> _Signal:
        """The active kernel as a signal: the signal of G, or for the negative
        sign its negation, whose transform is the negated transform of G."""
        if self.ws_a is self.g:
            return self.g_signal
        return _Signal(self.kernel, -self.g_signal.t)

    @cached_property
    def grad_a(self) -> np.ndarray:
        """Gradient of ||y - a (*) x||^2 in the active kernel representative."""
        grad = -2.0 * _correlate(self.x_signal, self.resid)
        grad.setflags(write=False)
        return grad

    @cached_property
    def grad_x(self) -> np.ndarray:
        """Gradient of ||y - a (*) x||^2 in x for the active kernel representative."""
        grad = -2.0 * _correlate(self.kernel_signal, self.resid)
        grad.setflags(write=False)
        return grad

    @property
    def lip_a(self) -> float:
        """Curvature bound of the data term in x: it depends on the kernel."""
        return self.g_signal.lip

    @property
    def lip_x(self) -> float:
        """Curvature bound of the data term in the kernel: it depends on x."""
        return self.x_signal.lip

    def prox(self, step: float) -> np.ndarray:
        """The code after one proximal gradient step of length `step`."""
        return soft_threshold(self.x - step * self.grad_x, step * self.lam)


def build_block_problem(problem: DeconvProblem, step_scale: float = 1.0) -> BlockProblem:
    """Wire the deconvolution cost and its two surrogates into a BlockProblem.

    Both surrogates are Lipschitz quadratic models of the data term around the
    active-sign representative, with curvature L / step_scale where L is the
    Fourier bound from the current fixed block; step_scale = 1 makes them true
    majorants. The kernel surrogate is minimized exactly over the unit sphere
    by one geodesic step (see _geodesic_step, with step step_scale / L),
    the code surrogate by one proximal step. Every callable reads its
    anchor's quantities from one shared per-anchor context (see the module
    docstring).
    """
    if not 0.0 < step_scale < np.inf:  # NaN fails too
        raise ValueError(f"step_scale must be a finite number > 0, got {step_scale}")
    n = problem.n
    recent: list[_Anchor] = []  # most recently used last; anchors whose arrays are read-only

    def at(g: GrassmannPoint, x) -> _Anchor:
        for ctx in recent:
            if ctx.g is g and ctx.x is x:
                recent.remove(ctx)
                recent.append(ctx)
                return ctx
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
        if ctx.lip_x <= 0.0:  # x = 0: the cost does not depend on the kernel
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
        margin = np.abs(x) - h * np.abs(direction)
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
        convex_constraint=lambda v: v,  # unconstrained: c ranges over R^N
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
