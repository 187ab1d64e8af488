"""Geometry of the Grassmann manifold Gr(N, D).

A point is a subspace, represented by an orthonormal N x D basis matrix; two
bases related by a right D x D rotation represent the same point. Tangent
vectors at X are N x D matrices H with X.T @ H = 0. Distances and geodesics
are expressed through the principal angles between subspaces, which
principal_angles returns as an ascending 1-d array.

Batch work is done by private functions on plain K x N x D stacks, and
member k of a stack equals, bit for bit, the stack of one. `_unit_tangents`
draws K unit tangents at a basis. One evaluator, `_walk`, turns stacked
geodesic factors (base, U, theta, V) into the checked points over a t-grid,
fed by two builders of one thin SVD per stack: `_geodesics`, from K
velocities, and `_pair_geodesics`, through K pairs from their log factors.
The solver's extrapolation point, `_secant_point`, is a pair geodesic at a
negative time. For D >= 2 it is taken through `_pair_geodesics`; on
Gr(N, 1), where every geodesic is a great circle of the unit sphere, it is
taken in closed form, with no SVD. The single-point exp map, log map and
tangent vector are not part of the package: the tests keep them, as the
stacks of one that the stacks are checked against.

On Gr(N, 1) the solver's other per-iteration geometry takes no SVD either:
principal_angles takes its one angle as atan2(|y - x w|, |w|) with
w = x^T y, and _check_bases passes a one-column stack on |x^T x - 1| alone,
leaving a failing stack to the general check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import ThinSVD, _check_count, random_orthonormal, thin_svd

POINT_ORTHONORMALITY_TOL = 1e-9  # absolute: the Gram matrix of an orthonormal basis has no scale
TANGENCY_TOL = 1e-9  # absolute: the engine's tangents are unit directions and log maps (angles)
# Smallest singular value of X.T @ Y (a cosine, so absolute) required for a unique connecting geodesic.
UNIQUE_GEODESIC_CUTOFF = 1e-8


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

    A one-column stack with N >= 2 first takes a shortcut: its Gram matrices
    are the 1 x 1 products x^T x, finite only when x is (a sum of squares
    cannot cancel an infinity or a NaN), so it passes when each lies within
    POINT_ORTHONORMALITY_TOL of 1. Otherwise the general check below decides,
    and raises its own message.
    """
    _, n, d = b.shape
    if d == 1 and n >= 2:
        # The same products as the general Gram matrix, so the same verdicts.
        gram = (np.swapaxes(b, 1, 2) @ b).ravel().tolist()
        if all(abs(s - 1.0) <= POINT_ORTHONORMALITY_TOL for s in gram):
            return
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

    This is the one tangency check in the package. A failing stack raises the
    message of its first failing member.
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


def random_point(seed, n: int, d: int) -> GrassmannPoint:
    """Draw from the rotation-invariant distribution on Gr(n, d).

    seed is an int >= 0 or a caller-owned np.random.Generator, which the draw
    advances. n, d and an int seed follow the integer rule of _check_count.
    """
    _check_count("n", n)
    _check_count("d", d)
    if not isinstance(seed, np.random.Generator):
        _check_count("seed", seed, 0)
    if d >= n:
        raise ValueError(f"Gr(N, D) requires D < N, got N={n}, D={d}")
    return GrassmannPoint(random_orthonormal(seed, n, d))


def _unit_tangents(rng: np.random.Generator, x: np.ndarray, count: int) -> np.ndarray:
    """A count x N x D stack of random unit-norm tangents at the basis x.

    A draw whose tangent part has norm below 1e-12 is discarded and drawn
    again. The stack equals, bit for bit, `count` draws of one tangent on the
    same generator, redraws included, and advances it as they would.
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


def _check_same_space(x: GrassmannPoint, y: GrassmannPoint) -> None:
    if x.basis.shape != y.basis.shape:
        raise ValueError(
            f"points live on different manifolds: {x.basis.shape} vs {y.basis.shape}"
        )


def principal_angles(x: GrassmannPoint, y: GrassmannPoint) -> np.ndarray:
    """The principal angles between two subspaces as a 1-d array, ascending,
    each in [0, pi/2].

    The angles are arccos of the clamped singular values of X^T Y; to keep
    small angles accurate they are evaluated as arctan2 of paired sine/cosine
    singular values (the sines coming from the projection residual
    Y - X X^T Y), which is the same quantity without the precision loss of
    arccos near 1. On Gr(N, 1) the one angle is atan2(|y - x w|, |w|) with
    w = x^T y, and no SVD is taken. A basis and its exact negation give
    zero angles, as identical bases do. Operands are ordered canonically
    first so the result is exactly symmetric in (x, y).
    """
    _check_same_space(x, y)
    x_bytes, y_bytes = x.basis.tobytes(), y.basis.tobytes()
    if x_bytes == y_bytes:
        return np.zeros(x.d)
    a, b = (x, y) if x_bytes <= y_bytes else (y, x)
    if x.d == 1:
        # The singular value of the 1 x 1 cross-Gram is |w|, and that of the
        # N x 1 residual its 2-norm. Both are non-negative, so only the upper
        # clamps can act, and atan2 of them lies in [0, pi/2].
        a0, b0 = a.basis[:, 0], b.basis[:, 0]
        w = float(a0 @ b0)
        # A basis and its negation span one subspace. The residual would
        # read a basis a few eps off unit norm as an angle of a few eps.
        if w < 0.0 and np.array_equal(b0, -a0):
            return np.zeros(1)
        r = b0 - a0 * w
        angle = math.atan2(min(math.sqrt(float(r @ r)), 1.0), min(abs(w), 1.0))
        return np.array([angle])
    # As on Gr(N, 1): a negated basis reads zero angles, not a few eps.
    if np.array_equal(b.basis, -a.basis):
        return np.zeros(x.d)
    w = a.basis.T @ b.basis
    # Singular values are non-negative, so only the upper clamp can act.
    sin_vals = np.minimum(np.linalg.svd(b.basis - a.basis @ w, compute_uv=False), 1.0)
    cos_vals = np.minimum(np.linalg.svd(w, compute_uv=False), 1.0)
    theta = np.arctan2(np.sort(sin_vals), cos_vals)
    # Sorted and clamped to [0, pi/2] here.
    return np.minimum(np.maximum.accumulate(theta), np.pi / 2)


def canonical_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Geodesic (arc-length) distance: the 2-norm of the principal angles,
    the square root of the one dot product np.linalg.norm takes."""
    theta = principal_angles(x, y)
    return math.sqrt(float(theta.dot(theta)))


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
    bit for bit, the stack of velocity k alone at its time i."""
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
    at time t, the geodesic from x with velocity the log of y at x, up to
    rounding."""
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
    r_norm = math.sqrt(float(r[:, 0].dot(r[:, 0])))  # np.linalg.norm(r), bit for bit
    if r_norm == 0.0:
        return y.copy()
    theta = math.atan2(r_norm, abs(w))
    out = math.cos(beta * theta) * y - (math.sin(beta * theta) / r_norm) * r
    _check_bases(out[None])
    return out
