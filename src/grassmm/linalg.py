"""Dense kernels: thin SVD and QR with deterministic sign conventions, seeded sampling.

Everything here works on plain 2-d float numpy arrays at desk scale; factorizations
are delegated to LAPACK and then post-processed so repeated calls on the same input
produce bit-identical factors. The thin SVD, QR and the sampler also take a
K x N x D stack, factored in one LAPACK call, whose members come out
bit-identical to one-at-a-time calls; a single matrix is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

RANK_CUTOFF = 1e-12  # relative singular value at or below which a column counts as dependent


class NumericError(RuntimeError):
    """A dense factorization failed to converge."""


def _check_count(name: str, count, low: int = 1) -> None:
    """Raise a ValueError naming a count that is not an integer >= low: a bool
    or a non-integer such as 2.5, or an integer below low."""
    if isinstance(count, bool) or not isinstance(count, Integral):
        raise ValueError(f"{name} must be an integer >= {low}, got {count!r}")
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {count}")


def _check_real(name: str, value, low: float, strict: bool = False) -> None:
    """Raise a ValueError naming a bool, or a value that is not a finite
    number >= low (> low when strict). A float skips the slow ABC check."""
    number = type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))
    if not (number and (value > low if strict else value >= low) and value < np.inf):  # NaN fails too
        shown = value if number else repr(value)
        raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {low:g}, got {shown}")


def as_matrix(a) -> np.ndarray:
    """Validate `a` as a finite 2-d float matrix with at least one row and column."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _as_matrices(a) -> np.ndarray:
    """`a` validated as one matrix (see as_matrix) or a K x N x D stack of them."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 3:
        return as_matrix(m)
    if m.shape[1] < 1 or m.shape[2] < 1 or not np.all(np.isfinite(m)):
        raise ValueError(f"expected a stack of finite non-empty matrices, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class ThinSVD:
    """Factors of A = U @ diag(s) @ V.T with orthonormal U, V columns, s descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class QRFactors:
    """Factors of A = Q @ R with orthonormal Q columns and non-negative diag(R)."""

    q: np.ndarray
    r: np.ndarray


def thin_svd(a) -> ThinSVD:
    """Thin SVD with a deterministic sign convention.

    In each column of U the entry of largest magnitude (first index on ties) is
    made non-negative and the corresponding column of V is flipped to match, so
    the factorization of a given matrix is unique and reproducible. `a` is one
    N x D matrix or a K x N x D stack of them, whose factors are stacked the
    same way and equal, bit for bit, the factors of each matrix alone.
    """
    m = _as_matrices(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD failed to converge for a {m.shape[-2]}x{m.shape[-1]} matrix"
        ) from exc
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(np.swapaxes(vt, -1, -2))
    top = np.take_along_axis(u, np.argmax(np.abs(u), axis=-2)[..., None, :], axis=-2)
    signs = np.where(top < 0.0, -1.0, 1.0)  # a product with -1.0 is an exact negation
    u *= signs
    v *= signs
    return ThinSVD(u=u, s=s, v=v)


def qr_orthonormalize(a) -> QRFactors:
    """Reduced QR of a full-column-rank matrix, with diag(R) >= 0.

    `a` is one N x D matrix or a K x N x D stack of them, factored in one
    LAPACK call; each factor of a stack equals, bit for bit, the factor of
    that matrix alone. Raises ValueError naming the offending column when a
    matrix is (numerically) rank deficient relative to RANK_CUTOFF. The rank
    check reads the singular values of the D x D factor R, which equal the
    input's.
    """
    m = _as_matrices(a)
    n, d = m.shape[-2:]
    if d > n:
        raise ValueError(
            f"matrix with {d} columns in {n} rows cannot have full column rank "
            f"(column {n} is necessarily dependent)"
        )
    q, r = np.linalg.qr(m)
    sv = np.linalg.svd(r, compute_uv=False)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    deficient = (sv[..., 0] == 0.0) | (sv[..., -1] <= RANK_CUTOFF * sv[..., 0])
    if np.any(deficient):
        first = np.argmax(deficient)  # the first deficient matrix of a stack
        bad = int(np.argmin(np.abs(diag.reshape(-1, d)[first])))
        raise ValueError(f"matrix is rank deficient at column {bad}")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return QRFactors(q=q * signs[..., None, :], r=r * signs[..., :, None])


def random_orthonormal(seed, n: int, d: int, count: Optional[int] = None) -> np.ndarray:
    """Orthonormal n x d matrix from a Gaussian draw; bit-reproducible.

    seed is an int or a caller-owned np.random.Generator, which the draw advances.
    With `count`, a count x n x d stack drawn and factored at once; it equals,
    bit for bit, `count` single draws from the same generator, and a single
    draw is the stack of one. n and d (at least 1), count and an int seed
    (at least 0) follow the integer rule of _check_count.
    """
    _check_count("n", n)
    _check_count("d", d)
    if count is not None:
        _check_count("count", count, 0)
    if not isinstance(seed, np.random.Generator):
        _check_count("seed", seed, 0)
    if d > n:
        raise ValueError(f"cannot draw {d} orthonormal columns in dimension {n}")
    k = 1 if count is None else count
    q = qr_orthonormalize(np.random.default_rng(seed).standard_normal((k, n, d))).q
    return q[0] if count is None else q
