"""Geometry of the Grassmann manifold Gr(N, D).

A point is a subspace, represented by an orthonormal N x D basis matrix; two
bases related by a right D x D rotation represent the same point. Tangent
vectors at X are N x D matrices H with X.T @ H = 0. Distances and geodesics
are expressed through the principal angles between subspaces, which this
module stores in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .linalg import as_matrix, qr_orthonormalize, random_orthonormal, thin_svd

POINT_ORTHONORMALITY_TOL = 1e-9
TANGENCY_TOL = 1e-9
# Smallest singular value of X.T @ Y required for a unique connecting geodesic.
UNIQUE_GEODESIC_CUTOFF = 1e-8


class GeodesicNotUnique(ValueError):
    """The subspaces meet at an angle of pi/2, so no unique geodesic joins them."""


def _trusted(cls, **fields):
    """An instance of a frozen dataclass built from values this package computed
    and knows to be valid, skipping the checks its public constructor runs."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_bases(b: np.ndarray) -> None:
    """Check that each N x D matrix of the K x N x D float stack b is a point of
    Gr(N, D): a non-empty finite orthonormal basis with 1 <= D < N.

    This is the one basis check in the package; GrassmannPoint runs it on a
    stack of one. A failing stack raises the message its first failing member
    raises on its own.
    """
    _, n, d = b.shape
    if n < 1 or d < 1:
        raise ValueError(f"matrix must have at least one row and column, got shape {(n, d)}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= D < N, got N={n}, D={d}")
    dev = np.abs(np.swapaxes(b, 1, 2) @ b - np.eye(d))
    if not dev.max(initial=0.0) <= POINT_ORTHONORMALITY_TOL:  # NaN fails too
        per_member = dev.max(axis=(1, 2))
        err = per_member[np.argmin(per_member <= POINT_ORTHONORMALITY_TOL)]
        raise ValueError(f"basis is not orthonormal (max Gram deviation {err:.3e})")


def _points(stack: np.ndarray) -> list[GrassmannPoint]:
    """The points of a K x N x D stack of bases, checked as one batch."""
    _check_bases(stack)
    return [_trusted(GrassmannPoint, basis=b) for b in stack]


@dataclass(frozen=True)
class GrassmannPoint:
    """A D-dimensional subspace of R^N held as an orthonormal basis matrix."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={b.ndim}")
        _check_bases(b[None])
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


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
        err = np.max(np.abs(self.base.basis.T @ m))
        if err > TANGENCY_TOL:
            raise ValueError(f"matrix is not tangent at base (max X^T H entry {err:.3e})")

    def norm(self) -> float:
        return float(np.linalg.norm(self.delta))


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles between two subspaces, ascending, each in [0, pi/2]."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        object.__setattr__(self, "angles", a)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("angles must form a non-empty 1-d array")
        if np.any(a < 0.0) or np.any(a > np.pi / 2):
            raise ValueError("principal angles must lie in [0, pi/2]")
        if np.any(np.diff(a) < 0.0):
            raise ValueError("principal angles must be sorted ascending")

    def norm(self) -> float:
        return float(np.linalg.norm(self.angles))


def make_point(m) -> GrassmannPoint:
    """Orthonormalize the columns of a full-rank N x D matrix into a point."""
    return GrassmannPoint(qr_orthonormalize(m).q)


def random_point(
    seed, n: int, d: int, count: Optional[int] = None
) -> Union[GrassmannPoint, list[GrassmannPoint]]:
    """Draw from the rotation-invariant distribution on Gr(n, d).

    seed is an int or a caller-owned np.random.Generator, which the draw advances.
    With `count`, a list of `count` points drawn, factored and checked as one
    batch, equal bit for bit to `count` single draws; a single draw is the
    batch of one.
    """
    if d >= n:
        raise ValueError(f"Gr(N, D) requires D < N, got N={n}, D={d}")
    points = _points(random_orthonormal(seed, n, d, count=1 if count is None else count))
    return points[0] if count is None else points


def random_unit_tangent(rng: np.random.Generator, x: GrassmannPoint) -> TangentVector:
    """Random tangent vector at x with unit Frobenius norm."""
    h = tangent_project(x, rng.standard_normal(x.basis.shape)).delta
    nrm = np.linalg.norm(h)
    while nrm < 1e-12:  # essentially impossible, but keep the draw well-defined
        h = tangent_project(x, rng.standard_normal(x.basis.shape)).delta
        nrm = np.linalg.norm(h)
    return TangentVector(base=x, delta=h / nrm)


def tangent_project(x: GrassmannPoint, a) -> TangentVector:
    """Project an ambient N x D matrix onto the tangent space at x.

    The result is tangent by construction, so it is not checked against the
    absolute TANGENCY_TOL: for a large input the rounding left in X^T H scales
    with the input and would fail that check spuriously.
    """
    m = as_matrix(a)
    if m.shape != x.basis.shape:
        raise ValueError(f"expected shape {x.basis.shape}, got {m.shape}")
    delta = m - x.basis @ (x.basis.T @ m)
    return _trusted(TangentVector, base=x, delta=delta)


def riemannian_gradient(x: GrassmannPoint, euclidean_grad) -> TangentVector:
    """Tangent projection of the ambient gradient of a cost on representatives."""
    return tangent_project(x, euclidean_grad)


def _check_same_space(x: GrassmannPoint, y: GrassmannPoint) -> None:
    if x.basis.shape != y.basis.shape:
        raise ValueError(
            f"points live on different manifolds: {x.basis.shape} vs {y.basis.shape}"
        )


def principal_angles(x: GrassmannPoint, y: GrassmannPoint) -> PrincipalAngles:
    """Principal angles between two subspaces, ascending.

    The angles are arccos of the clamped singular values of X^T Y; to keep
    small angles accurate they are evaluated as arctan2 of paired sine/cosine
    singular values (the sines coming from the projection residual
    Y - X X^T Y), which is the same quantity without the precision loss of
    arccos near 1. Operands are ordered canonically first so the result is
    exactly symmetric in (x, y).
    """
    _check_same_space(x, y)
    x_bytes, y_bytes = x.basis.tobytes(), y.basis.tobytes()
    if x_bytes == y_bytes:
        return _trusted(PrincipalAngles, angles=np.zeros(x.d))
    a, b = (x, y) if x_bytes <= y_bytes else (y, x)
    w = a.basis.T @ b.basis
    cos_vals = np.clip(np.linalg.svd(w, compute_uv=False), 0.0, 1.0)
    sin_vals = np.sort(np.clip(np.linalg.svd(b.basis - a.basis @ w, compute_uv=False), 0.0, 1.0))
    theta = np.arctan2(sin_vals, cos_vals)
    # Sorted and clamped to [0, pi/2] here, so the result is valid as built.
    theta = np.minimum(np.maximum.accumulate(theta), np.pi / 2)
    return _trusted(PrincipalAngles, angles=theta)


def canonical_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Geodesic (arc-length) distance: the 2-norm of the principal angles."""
    return principal_angles(x, y).norm()


def log_map(x: GrassmannPoint, y: GrassmannPoint) -> TangentVector:
    """Tangent vector H at x with exp_map(x, H, 1) equal to y.

    Requires the smallest singular value of x.T @ y to exceed
    UNIQUE_GEODESIC_CUTOFF; otherwise the geodesic is not unique and
    GeodesicNotUnique is raised.
    """
    _check_same_space(x, y)
    w = x.basis.T @ y.basis
    u, s, vt = np.linalg.svd(w)
    if s[-1] <= UNIQUE_GEODESIC_CUTOFF:
        raise GeodesicNotUnique(
            f"subspaces meet near pi/2 (smallest cross-Gram singular value {s[-1]:.3e})"
        )
    resid = y.basis - x.basis @ w
    l = (resid @ vt.T / s) @ u.T  # resid @ inv(w), from the same SVD
    f = thin_svd(l)
    h = (f.u * np.arctan(f.s)) @ f.v.T
    # Kill the numerical drift out of the tangent space left by the inverse.
    h = h - x.basis @ (x.basis.T @ h)
    return TangentVector(base=x, delta=h)


def geodesic(x: GrassmannPoint, h: TangentVector) -> Callable:
    """The geodesic t -> exp_map(x, h, t) from x with velocity h.

    h is checked and factored once, so evaluating the returned function at
    many t costs no further SVD. The function takes a scalar t and returns a
    point, or a 1-d array of t and returns the list of its points, built as
    one stack and checked as one batch. Each point equals, bit for bit, the
    point at that t alone.
    """
    if not np.array_equal(h.base.basis, x.basis):
        raise ValueError("tangent vector is not based at the given point")
    f = thin_svd(h.delta)
    if f.s.size and f.s[0] > np.pi / 2 + 1e-9:
        raise ValueError(
            f"tangent singular values must not exceed pi/2, largest is {f.s[0]:.6f}"
        )
    xv = x.basis @ f.v

    def at(t):
        ts = np.asarray(t, dtype=float)
        st = ts.reshape(-1, 1) * f.s
        c = np.cos(st)[:, None, :]
        s = np.sin(st)[:, None, :]
        points = _points(xv * c @ f.v.T + (f.u * s) @ f.v.T)
        return points[0] if ts.ndim == 0 else points

    return at


def exp_map(x: GrassmannPoint, h: TangentVector, t: float) -> GrassmannPoint:
    """Point reached after time t along the geodesic from x with velocity h."""
    return geodesic(x, h)(t)
