"""Dense kernels: thin SVD and QR with deterministic sign conventions, seeded sampling.

Everything here works on plain 2-d float numpy arrays at desk scale; factorizations
are delegated to LAPACK and then post-processed so repeated calls on the same input
produce bit-identical factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_CUTOFF = 1e-12  # relative singular value at or below which a column counts as dependent


class NumericError(RuntimeError):
    """A dense factorization failed to converge."""


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
    the factorization of a given matrix is unique and reproducible.
    """
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD failed to converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(vt.T)
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return ThinSVD(u=u, s=s, v=v)


def qr_orthonormalize(a) -> QRFactors:
    """Reduced QR of a full-column-rank matrix, with diag(R) >= 0.

    Raises ValueError naming the offending column when the input is (numerically)
    rank deficient relative to RANK_CUTOFF. The rank check reads the singular
    values of the D x D factor R, which equal the input's.
    """
    m = as_matrix(a)
    n, d = m.shape
    if d > n:
        raise ValueError(
            f"matrix with {d} columns in {n} rows cannot have full column rank "
            f"(column {n} is necessarily dependent)"
        )
    q, r = np.linalg.qr(m)
    sv = np.linalg.svd(r, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_CUTOFF * sv[0]:
        bad = int(np.argmin(np.abs(np.diag(r))))
        raise ValueError(f"matrix is rank deficient at column {bad}")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return QRFactors(q=q * signs, r=r * signs[:, None])


def random_orthonormal(seed, n: int, d: int) -> np.ndarray:
    """Orthonormal n x d matrix from a Gaussian draw; bit-reproducible.

    seed is an int or a caller-owned np.random.Generator, which the draw advances.
    """
    if d > n:
        raise ValueError(f"cannot draw {d} orthonormal columns in dimension {n}")
    g = np.random.default_rng(seed).standard_normal((n, d))
    return qr_orthonormalize(g).q
