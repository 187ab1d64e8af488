"""Geometry of the Grassmann manifold Gr(N, D).

A point is a subspace, represented by an orthonormal N x D basis matrix; two
bases related by a right D x D rotation represent the same point. Tangent
vectors at X are N x D matrices H with X.T @ H = 0. Distances and geodesics
are expressed through the principal angles between subspaces, which this
module stores in ascending order.

Batch work is done by private functions on plain K x N x D stacks, and
member k of a stack equals, bit for bit, the stack of one. `_unit_tangents`
draws K unit tangents at a basis. One evaluator, `_walk`, turns stacked
geodesic factors (base, U, theta, V) into the checked points over a t-grid,
fed by two builders of one thin SVD per stack: `_geodesics`, from K
velocities (the stack of one is the public exp_map), and `_pair_geodesics`,
through K pairs from their log factors. The solver's extrapolation point,
`_secant_point`, is a pair geodesic at a negative time. For D >= 2 it is
taken through `_pair_geodesics`; on Gr(N, 1), where every geodesic is a great
circle of the unit sphere, it is taken in closed form, with no SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import ThinSVD, as_matrix, qr_orthonormalize, random_orthonormal, thin_svd

POINT_ORTHONORMALITY_TOL = 1e-9  # absolute: the Gram matrix of an orthonormal basis has no scale
TANGENCY_TOL = 1e-9  # absolute: the engine's tangents are unit directions and log maps (angles)
# Smallest singular value of X.T @ Y (a cosine, so absolute) required for a unique connecting geodesic.
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


def _log_factors(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ThinSVD]:
    """The indices of the pairs of the K x N x D stacks x and y that have a
    unique geodesic, in order, and the thin SVD U diag(tan theta) V^T of the
    matrix (Y - X X^T Y)(X^T Y)^-1 of each such pair. The log at x is then
    U diag(theta) V^T: theta holds the principal angles of the pair."""
    w = np.swapaxes(x, 1, 2) @ y
    u, s, vt = np.linalg.svd(w)
    keep = np.flatnonzero(s[:, -1] > UNIQUE_GEODESIC_CUTOFF)
    resid = y[keep] - x[keep] @ w[keep]
    # resid @ inv(w), from the same SVD
    l = (resid @ np.swapaxes(vt[keep], 1, 2) / s[keep, None, :]) @ np.swapaxes(u[keep], 1, 2)
    return keep, thin_svd(l)


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


def _walk(x: np.ndarray, u: np.ndarray, theta: np.ndarray, v: np.ndarray) -> Callable:
    """The geodesics t -> (X V cos(t theta) + U sin(t theta)) V^T of K stacked
    factors (Edelman, Arias and Smith, SIAM J. Matrix Anal. Appl. 1998).

    u is K x N x D, theta K x D and v K x D x D; x is one N x D basis, shared
    by all K, or a K x N x D stack with one base per geodesic. The returned
    function takes a scalar t, a 1-d array of T times shared by all geodesics,
    or a K x T array whose row k holds the times of geodesic k, and returns
    the K x T x N x D stack of the points, checked once.
    """
    xv = (x @ v)[:, None]
    u = u[:, None]
    vt = np.swapaxes(v, 1, 2)[:, None]

    def at(t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        grid = ts if ts.ndim == 2 else ts.reshape(1, -1)
        st = grid[:, :, None] * theta[:, None, :]
        c = np.cos(st)[:, :, None, :]
        s = np.sin(st)[:, :, None, :]
        stack = xv * c @ vt + (u * s) @ vt
        _check_bases(stack.reshape(-1, *stack.shape[2:]))
        return stack

    return at


def _geodesics(x: np.ndarray, deltas: np.ndarray) -> Callable:
    """_walk of the geodesics from x with the velocities of the K x N x D
    stack deltas, each of singular values at most pi/2. Point [k, i] equals,
    bit for bit, exp_map of velocity k at its time i alone."""
    f = thin_svd(deltas)
    over = f.s[:, 0] > np.pi / 2 + 1e-9
    if np.any(over):
        raise ValueError(
            f"tangent singular values must not exceed pi/2, largest is {f.s[np.argmax(over), 0]:.6f}"
        )
    return _walk(x, f.u, f.s, f.v)


def _pair_geodesics(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The indices of the pairs of the K x N x D stacks x and y that have a
    unique geodesic, in order, and _walk of their geodesics from x through y:
    at time t, exp_map(x, log_map(x, y), t) up to rounding."""
    keep, f = _log_factors(x, y)
    xk = x[keep]
    # Project U at x once more: dividing by a small sin(theta) amplifies the
    # drift out of the tangent space left by an x orthonormal only to rounding.
    return keep, _walk(xk, _project(xk, f.u), np.arctan(f.s), f.v)


def _secant_point(x: np.ndarray, y: np.ndarray, beta: float) -> Optional[np.ndarray]:
    """The N x D basis of the point at time 1 + beta on the geodesic from the
    basis x through the basis y, that is the pair geodesic from y through x at
    time -beta; None when x and y have no unique geodesic between them.

    For D >= 2 the point comes from _pair_geodesics. On Gr(N, 1) every
    geodesic is a great circle, and the same point is taken in closed form
    with no SVD: with w = y^T x, the direction r = sign(w) x - |w| y points
    from y toward x on the sphere, at the angle theta = atan2(|r|, |w|), and
    the point is cos(beta theta) y - sin(beta theta) r / |r|.
    """
    if x.shape[1] > 1:
        keep, path = _pair_geodesics(y[None], x[None])
        return path(-beta)[0, 0] if keep.size else None
    w = float(y[:, 0] @ x[:, 0])
    # |w| is the singular value _log_factors tests on the 1 x 1 cross-Gram.
    if not abs(w) > UNIQUE_GEODESIC_CUTOFF:
        return None
    r = math.copysign(1.0, w) * x - abs(w) * y
    # Project r off y once more, as _pair_geodesics does for rounded iterates.
    r -= y * (y[:, 0] @ r[:, 0])
    r_norm = float(np.linalg.norm(r))
    if r_norm == 0.0:
        return y.copy()
    theta = math.atan2(r_norm, abs(w))
    out = math.cos(beta * theta) * y - (math.sin(beta * theta) / r_norm) * r
    _check_bases(out[None])
    return out


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
