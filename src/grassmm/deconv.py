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
exactly zero residual at the truth, and a zero cost with lambda = 0. Both
routines are odd in their first argument bit for bit, and so is the
transform.

The BlockProblem built by build_block_problem reads everything at an anchor
(G, x) from one per-anchor context. The context computes the convolution
u = a (*) x once; the cost, the active sign and the active-sign residual
follow from u, and the two block gradients and the two Lipschitz bounds are
filled in on first use. The cost has one formula, _fit, on both paths: the
residuals y -/+ u are signals and their squared norms dot products. The
transforms are kept per signal: both gradients read the residual's, an
anchor whose G or x is, by identity, the previous anchor's takes that
signal's transform from it, and the code gradient reads G's transform, its
sign flipped for the negative sign. At and above _FFT_MIN_N the context
forms the spectrum a^ x^ of u once, from the real FFTs of G and x, and
takes u from it; the residual's transform is then the spectrum
rfft(y) -/+ a^ x^, with rfft(y) taken once per problem, so no residual is
transformed. The Lipschitz bounds read the stored real FFTs of G and x
there. The results equal, bit for bit, the same quantities computed from
scratch.
Contexts are kept for the two most recently used anchors whose arrays are
read-only, matched by identity, so an anchor that follows an extrapolation
the engine rejected still shares its signals with the iterate it continues
from: the engine marks its iterates read-only, and an anchor with a writable
array is recomputed on every call, so mutating it in place cannot leave a
stale value. The callables trust their arguments, which the engine has
checked (see the check policy in grassmm.engine).

The batch cost, BlockProblem.costs, takes K kernels with one code or one
kernel with K codes, builds no context and only reads the kept ones: at and
above _FFT_MIN_N, when its one kernel or one code is, by identity, an array
of a kept context, it takes that signal's real FFT. It convolves all K pairs
in one call (_convolve_rows: stacked circulant products below _FFT_MIN_N, in
slices of at most _COST_BATCH_BYTES of circulants, and row-wise real FFTs at
and above it), and shares _fit with the context: each member of a stack
takes the dot product the context takes. Member k equals the cost call at
its pair bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import _COST_BATCH_BYTES, BlockProblem, SurrogateOracle
from .grassmann import GrassmannPoint, _trusted
from .linalg import _check_count

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
    above. Its Lipschitz bound is kept the same way. A signal known only by
    its real FFT, an active residual at and above _FFT_MIN_N, has v None."""

    __slots__ = ("v", "_t", "_lip")

    def __init__(self, v: Optional[np.ndarray], t: Optional[np.ndarray] = None):
        self.v = v
        self._t = t
        self._lip = None

    @property
    def t(self) -> np.ndarray:
        if self._t is None:
            n = self.v.size
            # take makes the C-contiguous copy fancy indexing makes, faster
            self._t = self.v.take(_conv_index(n)) if n < _FFT_MIN_N else np.fft.rfft(self.v)
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


def _convolve_rows(
    kernels: np.ndarray, codes: np.ndarray, kernel: Optional[_Signal] = None, code: Optional[_Signal] = None
) -> np.ndarray:
    """The K x N stack of the convolutions a_k (*) x_k of the rows of two
    stacks: K kernels and one code, or one kernel and K codes. At and above
    _FFT_MIN_N, `kernel` or `code`, when given, is the _Signal of the one
    kernel or the one code, whose kept real FFT serves in place of a new one.
    Row k equals _convolve of its pair bit for bit: the circulants are
    C-contiguous, as _Signal's, so each takes the same matrix-vector product,
    and the real FFTs are taken row by row. Below _FFT_MIN_N each of K codes
    builds its own N x N circulant, at most _COST_BATCH_BYTES of them at a
    time."""
    n = kernels.shape[1]
    if n >= _FFT_MIN_N:
        a = np.fft.rfft(kernels) if kernel is None else kernel.t
        return np.fft.irfft(a * (np.fft.rfft(codes) if code is None else code.t), n)
    index = _conv_index(n)
    if len(codes) == 1:
        return (np.take(codes, index, axis=1) @ kernels[:, :, None])[:, :, 0]
    out = np.empty(codes.shape)
    step = max(1, _COST_BATCH_BYTES // (8 * n * n))
    for lo in range(0, len(codes), step):
        circulants = np.take(codes[lo : lo + step], index, axis=1)
        out[lo : lo + step] = (circulants @ kernels[:, :, None])[:, :, 0]
    return out


def _fit(y: np.ndarray, u: np.ndarray, penalty) -> tuple:
    """The cost min(||y - u||^2, ||y + u||^2) + penalty at a convolution u,
    with penalty = lambda ||x||_1; u is one convolution, or a K x N stack of
    them with K penalties or one shared. Also returns the residuals y - u and
    y + u and their squared norms: a pair of residuals and a pair of floats
    for one convolution, stacked on a new first axis for a stack. Each norm is
    the dot product r . r, for a stack a stacked (1 x N) @ (N x 1) product,
    so member k does not depend on K and equals the cost of its convolution
    alone."""
    # y + u is y - (-a) (*) x bit for bit: negating a negates every product
    # of the direct sum and every coefficient of the FFT path.
    if u.ndim == 1:
        r = (y - u, y + u)
        d = (float(r[0].dot(r[0])), float(r[1].dot(r[1])))
        # y is finite, so d[0] is NaN exactly when d[1] is, and min agrees
        # with np.minimum.
        return min(d) + penalty, r, d
    r = np.empty((2, *u.shape))
    np.subtract(y, u, out=r[0])
    np.add(y, u, out=r[1])
    d = (r[..., None, :] @ r[..., None])[..., 0, 0]
    return np.minimum(d[0], d[1]) + penalty, r, d


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
    if not 0.0 <= tau < np.inf:  # NaN fails too
        raise ValueError(f"tau must be a finite number >= 0, got {tau}")
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
        _check_kernel(self.a, x.size, "code")

    @property
    def kernel(self) -> np.ndarray:
        return self.a.basis[:, 0]


def _check_kernel(a: GrassmannPoint, n: int, against: str) -> None:
    """Check that a is a unit kernel of length n, the length of `against`."""
    if not isinstance(a, GrassmannPoint):
        raise ValueError(f"kernel must be a GrassmannPoint, got {type(a).__name__}")
    if a.d != 1:
        raise ValueError("kernel must be a point of Gr(N, 1)")
    if a.n != n:
        raise ValueError(f"kernel length {a.n} does not match {against} length {n}")
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


def _grad_x(problem: DeconvProblem, kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    return -2.0 * _corr(kernel, problem.y - _conv(kernel, x))


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
    nrm = math.sqrt(float(b.dot(b)))  # np.linalg.norm(b), bit for bit
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
    ValueError naming noise_sigma when it is negative or not finite, or when
    the noise is so large that y or y @ y overflows. The seed and the counts
    follow the integer rule of _check_count."""
    _check_count("seed", seed, 0)
    _check_count("n", n, 2)
    if not 0.0 < sparsity < 1.0:
        raise ValueError(f"sparsity must lie strictly between 0 and 1, got {sparsity}")
    _check_count("kernel_support", kernel_support)
    if kernel_support > n:
        raise ValueError(f"kernel_support must lie in [1, {n}], got {kernel_support}")
    if not 0.0 <= noise_sigma < np.inf:  # NaN fails too
        raise ValueError(f"noise_sigma must be a finite number >= 0, got {noise_sigma}")
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


def recovery_score(kernel: GrassmannPoint, truth: SyntheticInstance) -> float:
    """Best absolute inner product between the estimated kernel and the true
    kernel over all circular shifts and both signs; 1 means perfect recovery."""
    _check_kernel(kernel, truth.n, "true kernel")
    return float(min(np.max(np.abs(circular_correlation(kernel.basis[:, 0], truth.true_a))), 1.0))


def heuristic_lambda(y, a0_kernel) -> float:
    """Sparsity weight 0.1 * ||corr(a0, y)||_inf used when none is configured."""
    return float(0.1 * np.max(np.abs(circular_correlation(a0_kernel, y))))


def default_init(y, window: int) -> DeconvState:
    """Data-driven start: the max-energy length-`window` segment of y as kernel
    (placed at the leading indices), zero code."""
    y = _as_signal(y, "y")
    n = y.size
    _check_count("window", window)
    if window > n:
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
    _check_count("max_iter", max_iter, 0)
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
    `resid` the residual r = y - kernel (*) x and `base` = ||r||^2. The
    gradients are computed on first use, and so are the transforms of G and
    x and the Lipschitz bounds of G and x (see _Signal); both gradients read
    the residual's transform. Below _FFT_MIN_N the residual is a signal; at
    and above it, it is kept only as that transform, rfft(y) -/+ a^ x^ from
    the spectrum a^ x^ that u is taken from, so it is never transformed.
    An anchor whose G or x is the previous anchor's, by identity, takes that
    signal, with its transform and bound, from there, with the l1 penalty of
    x. `y` is the observation, its real FFT kept for the whole problem.
    """

    def __init__(self, y: _Signal, lam: float, g: GrassmannPoint, x: np.ndarray, prev: Optional[_Anchor]):
        self.g = g
        self.x = x
        self.lam = lam
        self.g_signal = prev.g_signal if prev is not None and prev.g is g else _Signal(g.basis[:, 0])
        if prev is not None and prev.x is x:
            self.x_signal, self.penalty = prev.x_signal, prev.penalty
        else:
            self.x_signal, self.penalty = _Signal(x), lam * float(np.abs(x).sum())
        n = x.size
        if n < _FFT_MIN_N:
            u = _convolve(self.g_signal, self.x_signal)
        else:
            spectrum = self.g_signal.t * self.x_signal.t
            u = np.fft.irfft(spectrum, n)  # _convolve, bit for bit
        self.cost, r, d = _fit(y.v, u, self.penalty)
        sign = 0 if float(y.v.dot(u)) >= 0.0 else 1
        if n < _FFT_MIN_N:
            self.resid = _Signal(r[sign])
        else:
            # y - (-a) (*) x has the spectrum y^ + a^ x^: negation is exact.
            self.resid = _Signal(None, y.t - spectrum if sign == 0 else y.t + spectrum)
        self.base = d[sign]
        self.ws_a = g if sign == 0 else _trusted(GrassmannPoint, basis=-g.basis)
        self.kernel = self.ws_a.basis[:, 0]
        self._grad_a = self._grad_x = None

    @property
    def grad_a(self) -> np.ndarray:
        """Gradient of ||y - a (*) x||^2 in the active kernel representative."""
        if self._grad_a is None:
            self._grad_a = -2.0 * _correlate(self.x_signal, self.resid)
            self._grad_a.setflags(write=False)
        return self._grad_a

    @property
    def grad_x(self) -> np.ndarray:
        """Gradient of ||y - a (*) x||^2 in x for the active kernel representative.
        The correlation is odd in the kernel bit for bit, so the negative sign
        flips the factor -2 and reads G's own transform."""
        if self._grad_x is None:
            self._grad_x = (-2.0 if self.ws_a is self.g else 2.0) * _correlate(self.g_signal, self.resid)
            self._grad_x.setflags(write=False)
        return self._grad_x

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
    the code surrogate by one proximal step. Every callable but costs reads
    its anchor's quantities from one shared per-anchor context (see the
    module docstring).
    """
    if not 0.0 < step_scale < np.inf:  # NaN fails too
        raise ValueError(f"step_scale must be a finite number > 0, got {step_scale}")
    n = problem.n
    y = _Signal(problem.y)
    recent: list[_Anchor] = []  # most recently used last; anchors whose arrays are read-only

    def at(g: GrassmannPoint, x) -> _Anchor:
        for ctx in recent:
            if ctx.g is g and ctx.x is x:
                recent.remove(ctx)
                recent.append(ctx)
                return ctx
        ctx = _Anchor(y, problem.lam, g, x, recent[-1] if recent else None)
        if not (g.basis.flags.writeable or x.flags.writeable):
            recent.append(ctx)
            del recent[:-2]
        return ctx

    def cost(g: GrassmannPoint, x: np.ndarray) -> float:
        return at(g, x).cost

    def costs(g, c) -> list[float]:
        # K kernels (a K x N x 1 stack) with one code, or one kernel with K
        # codes; _fit and _convolve_rows keep each member equal to cost. No
        # anchor context is built, and the kept ones are only read: at and
        # above _FFT_MIN_N the one kernel or code, when a kept context holds
        # it by identity, lends its real FFT.
        one_g = isinstance(g, GrassmannPoint)
        kernels = g.basis[None, :, 0] if one_g else g[:, :, 0]
        codes = c if one_g else c[None]
        kernel = code = None
        if n >= _FFT_MIN_N:
            if one_g:
                kernel = next((ctx.g_signal for ctx in recent if ctx.g is g), None)
            else:
                code = next((ctx.x_signal for ctx in recent if ctx.x is c), None)
        penalty = problem.lam * np.abs(codes).sum(axis=1)
        return _fit(y.v, _convolve_rows(kernels, codes, kernel, code), penalty)[0].tolist()

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
        costs=costs,
    )

