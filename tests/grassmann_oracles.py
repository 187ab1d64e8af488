"""Reference oracles for the geometry tests: a checked tangent vector, a point
from any full-rank matrix, a random unit tangent, the tangent projection, the
Riemannian gradient, and the log map (with GeodesicNotUnique, the error it
raises), geodesic and exp map of one point or one tangent vector. Each is the
stack of one of a private function of grassmm.grassmann, which the solver and
the audits call on stacks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from grassmm.grassmann import (
    GrassmannPoint,
    _check_same_space,
    _check_tangents,
    _geodesics,
    _log_factors,
    _project,
    _trusted,
    _unit_tangents,
)
from grassmm.linalg import as_matrix, qr_orthonormalize


class GeodesicNotUnique(ValueError):
    """The subspaces meet at an angle of pi/2, so no unique geodesic joins them."""


@dataclass(frozen=True)
class TangentVector:
    """An N x D matrix in the tangent space at `base`: base.T @ delta = 0."""

    base: GrassmannPoint
    delta: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.delta)
        object.__setattr__(self, "delta", m)
        if m.shape != self.base.basis.shape:
            raise ValueError(
                f"tangent shape {m.shape} does not match base shape {self.base.basis.shape}"
            )
        _check_tangents(self.base.basis, m[None])

    def norm(self) -> float:
        return float(np.linalg.norm(self.delta))


def make_point(m) -> GrassmannPoint:
    """Orthonormalize the columns of a full-rank N x D matrix into a point."""
    return GrassmannPoint(qr_orthonormalize(m).q)


def random_unit_tangent(rng: np.random.Generator, x: GrassmannPoint) -> TangentVector:
    """Random tangent vector at x with unit Frobenius norm (see _unit_tangents)."""
    return _trusted(TangentVector, base=x, delta=_unit_tangents(rng, x.basis, 1)[0])


def tangent_project(x: GrassmannPoint, a) -> TangentVector:
    """Project an ambient N x D matrix onto the tangent space at x.

    The result is tangent by construction, so it is not checked against the
    absolute TANGENCY_TOL: for a large input the rounding left in X^T H scales
    with the input and would fail that check spuriously.
    """
    m = as_matrix(a)
    if m.shape != x.basis.shape:
        raise ValueError(f"expected shape {x.basis.shape}, got {m.shape}")
    return _trusted(TangentVector, base=x, delta=_project(x.basis, m))


def riemannian_gradient(x: GrassmannPoint, euclidean_grad) -> TangentVector:
    """Tangent projection of the ambient gradient of a cost on representatives."""
    return tangent_project(x, euclidean_grad)


def log_map(x: GrassmannPoint, y: GrassmannPoint) -> TangentVector:
    """Tangent vector H at x with exp_map(x, H, 1) equal to y.

    Requires the smallest singular value of x.T @ y to exceed
    UNIQUE_GEODESIC_CUTOFF; otherwise the geodesic is not unique and
    GeodesicNotUnique is raised.
    """
    _check_same_space(x, y)
    xs = np.array([x.basis])
    keep, f = _log_factors(xs, np.array([y.basis]))
    if not keep.size:
        smallest = np.linalg.svd(x.basis.T @ y.basis, compute_uv=False)[-1]
        raise GeodesicNotUnique(
            f"subspaces meet near pi/2 (smallest cross-Gram singular value {smallest:.3e})"
        )
    h = (f.u * np.arctan(f.s)[:, None, :]) @ np.swapaxes(f.v, 1, 2)
    # Kill the numerical drift out of the tangent space left by the inverse.
    h = _project(xs, h)
    _check_tangents(xs, h)
    return _trusted(TangentVector, base=x, delta=h[0])


def geodesic(x: GrassmannPoint, h: TangentVector) -> Callable[[float], GrassmannPoint]:
    """The geodesic t -> exp_map(x, h, t) from x with velocity h.

    h is checked and factored once, so evaluating the returned function at
    many t costs no further SVD.
    """
    if h.base is not x and not np.array_equal(h.base.basis, x.basis):
        raise ValueError("tangent vector is not based at the given point")
    path = _geodesics(x.basis, h.delta[None])
    return lambda t: _trusted(GrassmannPoint, basis=path(float(t))[0, 0])


def exp_map(x: GrassmannPoint, h: TangentVector, t: float) -> GrassmannPoint:
    """Point reached after time t along the geodesic from x with velocity h."""
    return geodesic(x, h)(t)
