"""Reference oracles for the deconvolution tests: the active sign, the
working state, the plain kernel step, the kernel step by its geodesic angle
and a random start, each computed from scratch with the public functions of
grassmm.deconv."""

import math

import numpy as np

from grassmm import DeconvProblem, DeconvState, GrassmannPoint, grad_a, random_point
from grassmm.deconv import _conv, _geodesic_step, _trusted
from grassmm.grassmann import _project


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
