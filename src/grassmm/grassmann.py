"""Geometry of the Grassmann manifold Gr(N, D).

A point is a subspace, represented by an orthonormal N x D basis matrix; two
bases related by a right D x D rotation represent the same point. Tangent
vectors at X are N x D matrices H with X.T @ H = 0. Distances and geodesics
are expressed through the principal angles between subspaces, which this
module stores in ascending order.

The samplers, `geodesic` and `log_map` also take a batch: K draws, K tangents at one base or one per base,
or K pairs. A batch is computed as one K x N x D stack, with one thin SVD
per stack, and checked by one vectorized check; each member equals, bit for
bit, the single call, which is the batch of one.
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


def _tangents(base, x: np.ndarray, deltas: np.ndarray) -> list[TangentVector]:
    """The tangent vectors of a K x N x D stack, checked as one batch.

    x is one N x D basis, the point `base`, or a stack of K bases, the points
    of the list `base`, one per member.
    """
    _check_tangents(x, deltas)
    bases = [base] * len(deltas) if isinstance(base, GrassmannPoint) else base
    return [_trusted(TangentVector, base=b, delta=m) for b, m in zip(bases, deltas)]


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


def random_unit_tangent(rng: np.random.Generator, x: GrassmannPoint, count: Optional[int] = None):
    """Random tangent vector at x with unit Frobenius norm.

    A draw whose tangent part has norm below 1e-12 is discarded and drawn
    again. With `count`, a list of `count` vectors drawn, projected and
    normalized as stacks; it equals, bit for bit, `count` single draws from
    the same generator, redraws included, and advances it as they would.
    """
    k = 1 if count is None else count
    kept = [np.empty((0, *x.basis.shape))]
    while k > 0:
        h = _project(x.basis, rng.standard_normal((k, *x.basis.shape)))
        flat = h.reshape(k, 1, -1)
        # Each (1 x ND) @ (ND x 1) product is the dot product np.linalg.norm takes.
        nrm = np.sqrt(flat @ np.swapaxes(flat, 1, 2))
        good = ~(nrm[:, 0, 0] < 1e-12)
        kept.append(h[good] / nrm[good])
        k -= int(np.count_nonzero(good))
    tangents = _tangents(x, x.basis, np.concatenate(kept))
    return tangents[0] if count is None else tangents


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


def log_map(x, y):
    """Tangent vector H at x with exp_map(x, H, 1) equal to y.

    Requires the smallest singular value of x.T @ y to exceed
    UNIQUE_GEODESIC_CUTOFF; otherwise the geodesic is not unique and
    GeodesicNotUnique is raised. x and y may also be lists of K points, whose
    K logs are computed as stacks; the result is then a list with the tangent
    vector at x[k] for each unique pair and None for each pair that is not.
    """
    single = isinstance(x, GrassmannPoint)
    xs, ys = ([x], [y]) if single else (list(x), list(y))
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} base points for {len(ys)} targets")
    for a, b in zip(xs, ys):
        _check_same_space(a, b)
    logs: list[Optional[TangentVector]] = [None] * len(xs)
    if not xs:
        return logs
    xb = np.array([p.basis for p in xs])
    yb = np.array([p.basis for p in ys])
    w = np.swapaxes(xb, 1, 2) @ yb
    u, s, vt = np.linalg.svd(w)
    unique = s[:, -1] > UNIQUE_GEODESIC_CUTOFF
    if single and not unique[0]:
        raise GeodesicNotUnique(
            f"subspaces meet near pi/2 (smallest cross-Gram singular value {s[0, -1]:.3e})"
        )
    keep = np.flatnonzero(unique)
    if keep.size:
        xk, wk = xb[keep], w[keep]
        resid = yb[keep] - xk @ wk
        # resid @ inv(w), from the same SVD
        l = (resid @ np.swapaxes(vt[keep], 1, 2) / s[keep, None, :]) @ np.swapaxes(u[keep], 1, 2)
        f = thin_svd(l)
        h = (f.u * np.arctan(f.s)[:, None, :]) @ np.swapaxes(f.v, 1, 2)
        # Kill the numerical drift out of the tangent space left by the inverse.
        h = _project(xk, h)
        for i, tv in zip(keep, _tangents([xs[i] for i in keep], xk, h)):
            logs[i] = tv
    return logs[0] if single else logs


def geodesic(x, h) -> Callable:
    """The geodesic t -> exp_map(x, h, t) from x with velocity h.

    h is checked and factored once, so evaluating the returned function at
    many t costs no further SVD. The function takes a scalar t and returns a
    point, or a 1-d array of t and returns the list of its points, built as
    one stack and checked as one batch. Each point equals, bit for bit, the
    point at that t alone.

    h may also be a list of K tangent vectors, all at the point x or each at
    its own point of the list x; their K geodesics are factored with one
    stacked SVD. The function then returns one entry per geodesic: a point for
    a scalar t, or a list of points for a 1-d array of t or for a K x T array,
    whose row k holds the times of geodesic k.
    """
    single = isinstance(h, TangentVector)
    hs = [h] if single else list(h)
    xs = [x] * len(hs) if isinstance(x, GrassmannPoint) else list(x)
    if len(xs) != len(hs):
        raise ValueError(f"{len(xs)} base points for {len(hs)} tangent vectors")
    for p, tv in zip(xs, hs):
        if tv.base is not p and not np.array_equal(tv.base.basis, p.basis):
            raise ValueError("tangent vector is not based at the given point")
    if not hs:
        return lambda t: []
    f = thin_svd(np.array([tv.delta for tv in hs]))
    over = f.s[:, 0] > np.pi / 2 + 1e-9
    if np.any(over):
        raise ValueError(
            f"tangent singular values must not exceed pi/2, largest is {f.s[np.argmax(over), 0]:.6f}"
        )
    bases = x.basis if isinstance(x, GrassmannPoint) else np.array([p.basis for p in xs])
    xv = (bases @ f.v)[:, None]
    u = f.u[:, None]
    vt = np.swapaxes(f.v, 1, 2)[:, None]

    def at(t):
        ts = np.asarray(t, dtype=float)
        grid = ts if ts.ndim == 2 else ts.reshape(1, -1)
        st = grid[:, :, None] * f.s[:, None, :]
        c = np.cos(st)[:, :, None, :]
        s = np.sin(st)[:, :, None, :]
        stack = xv * c @ vt + (u * s) @ vt
        points = _points(stack.reshape(-1, *stack.shape[2:]))
        rows = [points[i : i + stack.shape[1]] for i in range(0, len(points), stack.shape[1])]
        if ts.ndim == 0:
            rows = [row[0] for row in rows]
        return rows[0] if single else rows

    return at


def exp_map(x: GrassmannPoint, h: TangentVector, t: float) -> GrassmannPoint:
    """Point reached after time t along the geodesic from x with velocity h."""
    return geodesic(x, h)(t)
