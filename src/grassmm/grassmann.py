"""Geometry of the Grassmann manifold Gr(N, D).

A point is a subspace, represented by an orthonormal N x D basis matrix; two
bases related by a right D x D rotation represent the same point. Tangent
vectors at X are N x D matrices H with X.T @ H = 0. Distances and geodesics
are expressed through the principal angles between subspaces, which this
module stores in ascending order.

The batch work of the sampled audits is done by private functions on plain
K x N x D stacks: K unit tangents at a basis (`_unit_tangents`), the
geodesics of K tangents over a t-grid (`_geodesics`) and the logs of K pairs
(`_log_maps`). The geodesics and the logs take one thin SVD per stack, each
function checks its output stack once, and member k equals, bit for bit, the
public single call, which is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _check_tangents(x: np.ndarray, deltas: np.ndarray) -> None:
    """Check that each matrix H of the K x N x D stack `deltas` is tangent at
    its base, X^T H = 0 to TANGENCY_TOL; x is one N x D basis or K of them.

    This is the one tangency check in the package; TangentVector runs it on a
    stack of one. A failing stack raises the message of its first failing member.
    """
    dev = np.abs(np.swapaxes(x, -1, -2) @ deltas)
    if not dev.max(initial=0.0) <= TANGENCY_TOL:
        per_member = dev.max(axis=(1, 2))
        err = per_member[np.argmin(per_member <= TANGENCY_TOL)]
        raise ValueError(f"matrix is not tangent at base (max X^T H entry {err:.3e})")


def _project(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The tangent part m - X X^T m of each matrix m of a stack, at basis x."""
    return m - x @ (np.swapaxes(x, -1, -2) @ m)


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
        _check_tangents(self.base.basis, m[None])

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


def random_point(seed, n: int, d: int) -> GrassmannPoint:
    """Draw from the rotation-invariant distribution on Gr(n, d).

    seed is an int or a caller-owned np.random.Generator, which the draw advances.
    """
    if d >= n:
        raise ValueError(f"Gr(N, D) requires D < N, got N={n}, D={d}")
    return GrassmannPoint(random_orthonormal(seed, n, d))


def _unit_tangents(rng: np.random.Generator, x: np.ndarray, count: int) -> np.ndarray:
    """A count x N x D stack of random unit-norm tangents at the basis x.

    A draw whose tangent part has norm below 1e-12 is discarded and drawn
    again. The stack equals, bit for bit, `count` calls of random_unit_tangent
    on the same generator, redraws included, and advances it as they would.
    """
    kept = [np.empty((0, *x.shape))]
    while count > 0:
        h = _project(x, rng.standard_normal((count, *x.shape)))
        flat = h.reshape(count, 1, -1)
        # Each (1 x ND) @ (ND x 1) product is the dot product np.linalg.norm takes.
        nrm = np.sqrt(flat @ np.swapaxes(flat, 1, 2))
        good = ~(nrm[:, 0, 0] < 1e-12)
        kept.append(h[good] / nrm[good])
        count -= int(np.count_nonzero(good))
    deltas = np.concatenate(kept)
    _check_tangents(x, deltas)
    return deltas


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
    arccos near 1. On Gr(N, 1) the cosine is |X^T Y| itself, with no SVD.
    Operands are ordered canonically first so the result is exactly
    symmetric in (x, y).
    """
    _check_same_space(x, y)
    x_bytes, y_bytes = x.basis.tobytes(), y.basis.tobytes()
    if x_bytes == y_bytes:
        return _trusted(PrincipalAngles, angles=np.zeros(x.d))
    a, b = (x, y) if x_bytes <= y_bytes else (y, x)
    w = a.basis.T @ b.basis
    # Singular values are non-negative, so only the upper clamp can act.
    sin_vals = np.minimum(np.linalg.svd(b.basis - a.basis @ w, compute_uv=False), 1.0)
    if x.d == 1:
        # The singular value of the 1 x 1 w is |w| bit for bit, and the one
        # angle arctan2 gives for non-negative operands lies in [0, pi/2].
        return _trusted(PrincipalAngles, angles=np.arctan2(sin_vals, np.minimum(np.abs(w[0]), 1.0)))
    cos_vals = np.minimum(np.linalg.svd(w, compute_uv=False), 1.0)
    theta = np.arctan2(np.sort(sin_vals), cos_vals)
    # Sorted and clamped to [0, pi/2] here, so the result is valid as built.
    theta = np.minimum(np.maximum.accumulate(theta), np.pi / 2)
    return _trusted(PrincipalAngles, angles=theta)


def canonical_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Geodesic (arc-length) distance: the 2-norm of the principal angles."""
    return principal_angles(x, y).norm()


def _log_maps(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The logs of the K pairs of the K x N x D stacks x and y.

    Returns the indices of the pairs with a unique geodesic, in order, and the
    stack of their logs, each at its own base; the other pairs are left out.
    Each log equals, bit for bit, log_map of its pair alone.
    """
    w = np.swapaxes(x, 1, 2) @ y
    u, s, vt = np.linalg.svd(w)
    keep = np.flatnonzero(s[:, -1] > UNIQUE_GEODESIC_CUTOFF)
    xk, wk = x[keep], w[keep]
    resid = y[keep] - xk @ wk
    # resid @ inv(w), from the same SVD
    l = (resid @ np.swapaxes(vt[keep], 1, 2) / s[keep, None, :]) @ np.swapaxes(u[keep], 1, 2)
    f = thin_svd(l)
    h = (f.u * np.arctan(f.s)[:, None, :]) @ np.swapaxes(f.v, 1, 2)
    # Kill the numerical drift out of the tangent space left by the inverse.
    h = _project(xk, h)
    _check_tangents(xk, h)
    return keep, h


def log_map(x: GrassmannPoint, y: GrassmannPoint) -> TangentVector:
    """Tangent vector H at x with exp_map(x, H, 1) equal to y.

    Requires the smallest singular value of x.T @ y to exceed
    UNIQUE_GEODESIC_CUTOFF; otherwise the geodesic is not unique and
    GeodesicNotUnique is raised.
    """
    _check_same_space(x, y)
    keep, h = _log_maps(np.array([x.basis]), np.array([y.basis]))
    if not keep.size:
        smallest = np.linalg.svd(x.basis.T @ y.basis, compute_uv=False)[-1]
        raise GeodesicNotUnique(
            f"subspaces meet near pi/2 (smallest cross-Gram singular value {smallest:.3e})"
        )
    return _trusted(TangentVector, base=x, delta=h[0])


def _geodesics(x: np.ndarray, deltas: np.ndarray) -> Callable:
    """The geodesics from x with the velocities of the K x N x D stack deltas.

    x is one N x D basis, shared by all K, or a K x N x D stack with one base
    per velocity. The velocities are factored once, with one stacked SVD. The
    returned function takes a scalar t, a 1-d array of T times shared by all
    geodesics, or a K x T array whose row k holds the times of geodesic k,
    and returns the K x T x N x D stack of the points, checked once. Point
    [k, i] equals, bit for bit, exp_map of velocity k at its time i alone.
    """
    f = thin_svd(deltas)
    over = f.s[:, 0] > np.pi / 2 + 1e-9
    if np.any(over):
        raise ValueError(
            f"tangent singular values must not exceed pi/2, largest is {f.s[np.argmax(over), 0]:.6f}"
        )
    xv = (x @ f.v)[:, None]
    u = f.u[:, None]
    vt = np.swapaxes(f.v, 1, 2)[:, None]

    def at(t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        grid = ts if ts.ndim == 2 else ts.reshape(1, -1)
        st = grid[:, :, None] * f.s[:, None, :]
        c = np.cos(st)[:, :, None, :]
        s = np.sin(st)[:, :, None, :]
        stack = xv * c @ vt + (u * s) @ vt
        _check_bases(stack.reshape(-1, *stack.shape[2:]))
        return stack

    return at


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
