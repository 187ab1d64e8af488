"""Reference oracles for the deconvolution tests: the active sign, the
working state, the plain kernel step and a random start, each computed from
scratch with the public functions of grassmm.deconv."""

import numpy as np

from grassmm import DeconvProblem, DeconvState, GrassmannPoint, grad_a, random_point
from grassmm.deconv import _conv, _geodesic_step, _trusted


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


def random_init(problem: DeconvProblem, seed: int) -> DeconvState:
    """Seeded random unit kernel, zero code."""
    return DeconvState(a=random_point(seed, problem.n, 1), x=np.zeros(problem.n))
