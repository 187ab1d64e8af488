"""Reference oracles for the deconvolution tests: the cost, the two block
gradients and the proximal code step of a DeconvState, each validating its
input and computed from scratch, as the solver's per-anchor context must
reproduce them bit for bit; and the active sign, the working state, the plain
kernel step, the kernel step by its geodesic angle and a random start.

Below _FFT_MIN_N the gradients correlate against the residual signal
y - a (*) x. At and above it they correlate against its spectrum
rfft(y) - rfft(a) rfft(x), with no transform of the residual."""

import math

import numpy as np

from grassmm import DeconvProblem, DeconvState, GrassmannPoint, random_point, soft_threshold
from grassmm.deconv import _FFT_MIN_N, _check_length, _conv, _corr, _geodesic_step, _trusted
from grassmm.grassmann import _project


def deconv_cost(problem: DeconvProblem, state: DeconvState) -> float:
    """Sign-invariant cost: best-sign squared residual plus lambda * ||x||_1."""
    _check_length(problem, state)
    u = _conv(state.kernel, state.x)
    r_plus = problem.y - u
    r_minus = problem.y + u
    data = min(float(r_plus @ r_plus), float(r_minus @ r_minus))
    return data + problem.lam * float(np.sum(np.abs(state.x)))


def _grad(problem: DeconvProblem, v: np.ndarray, state: DeconvState) -> np.ndarray:
    """-2 corr(v, y - a (*) x) for the given kernel representative a."""
    _check_length(problem, state)
    n = problem.n
    if n < _FFT_MIN_N:
        return -2.0 * _corr(v, problem.y - _conv(state.kernel, state.x))
    r = np.fft.rfft(problem.y) - np.fft.rfft(state.kernel) * np.fft.rfft(state.x)
    return -2.0 * np.fft.irfft(np.conj(np.fft.rfft(v)) * r, n)


def grad_x(problem: DeconvProblem, state: DeconvState) -> np.ndarray:
    """Gradient of ||y - a (*) x||^2 in x for the given kernel representative."""
    return _grad(problem, state.kernel, state)


def grad_a(problem: DeconvProblem, state: DeconvState) -> np.ndarray:
    """Gradient of ||y - a (*) x||^2 in the kernel representative."""
    return _grad(problem, state.x, state)


def prox_step_x(problem: DeconvProblem, state: DeconvState, step: float) -> np.ndarray:
    """One proximal gradient step on the code: shrink(x - step * grad, step * lambda)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return soft_threshold(state.x - step * grad_x(problem, state), step * problem.lam)


def active_sign(problem: DeconvProblem, state: DeconvState) -> float:
    """Sign s minimizing ||y - s * (a (*) x)||; +1 on ties."""
    u = _conv(state.kernel, state.x)
    return 1.0 if float(problem.y @ u) >= 0.0 else -1.0


def working_state(problem: DeconvProblem, state: DeconvState) -> DeconvState:
    """The same state with the kernel representative flipped to its active sign."""
    if active_sign(problem, state) >= 0.0:
        return state
    return _trusted(DeconvState, a=_trusted(GrassmannPoint, basis=-state.a.basis), x=state.x)


def riemannian_step_a(problem: DeconvProblem, state: DeconvState, step: float) -> GrassmannPoint:
    """One geodesic step on the kernel, to the minimizer over the unit sphere
    of the quadratic model of the data term (see deconv._geodesic_step)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return _geodesic_step(state.a, grad_a(problem, state), step)


def geodesic_angle_step(a: GrassmannPoint, egrad: np.ndarray, step: float) -> GrassmannPoint:
    """The sphere minimizer of the kernel step's model, reached along the
    geodesic a cos(t) - u sin(t), u = P g / ||P g||, at the angle
    t = atan2(step ||P g||, 1 - step <g, a>); a itself when P g = 0."""
    rg = _project(a.basis, egrad[:, None])
    gn = float(np.linalg.norm(rg))
    if gn == 0.0:
        return a
    b = a.basis[:, 0]
    angle = math.atan2(step * gn, 1.0 - step * float(egrad @ b))
    return GrassmannPoint((b * math.cos(angle) - rg[:, 0] * (math.sin(angle) / gn))[:, None])


def random_init(problem: DeconvProblem, seed: int) -> DeconvState:
    """Seeded random unit kernel, zero code."""
    return DeconvState(a=random_point(seed, problem.n, 1), x=np.zeros(problem.n))
