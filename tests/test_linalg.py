import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from grassmm import (
    NumericError,
    QRFactors,
    ThinSVD,
    as_matrix,
    qr_orthonormalize,
    random_orthonormal,
    thin_svd,
)


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="2-d"):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError, match="at least one row"):
        as_matrix(np.empty((0, 2)))
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.nan]])


def test_thin_svd_identity():
    f = thin_svd(np.eye(3))
    assert_allclose(f.u, np.eye(3), atol=1e-14)
    assert_allclose(f.s, np.ones(3), atol=1e-14)
    assert_allclose(f.v, np.eye(3), atol=1e-14)


def test_thin_svd_diagonal():
    f = thin_svd(np.diag([3.0, 2.0]))
    assert_allclose(f.s, [3.0, 2.0], atol=1e-14)


def test_thin_svd_reconstruction_seeded():
    a = np.random.default_rng(11).standard_normal((5, 3))
    f = thin_svd(a)
    assert_allclose(f.u @ np.diag(f.s) @ f.v.T, a, atol=1e-9)
    assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-10)
    assert_allclose(f.v.T @ f.v, np.eye(3), atol=1e-10)
    assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)


def test_thin_svd_sign_convention():
    # The largest-magnitude entry of each U column must come out non-negative,
    # so flipping the sign of the input flips V, not U.
    a = np.random.default_rng(3).standard_normal((6, 2))
    f = thin_svd(a)
    for j in range(2):
        i = int(np.argmax(np.abs(f.u[:, j])))
        assert f.u[i, j] >= 0
    g = thin_svd(-a)
    assert_allclose(g.u, f.u, atol=1e-12)
    assert_allclose(g.v, -f.v, atol=1e-12)


def test_thin_svd_matches_eigensolver_oracle():
    # Independent oracle: singular values are the square roots of the
    # eigenvalues of A^T A computed by the symmetric eigensolver.
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 17))
        a = rng.standard_normal((m, n))
        s = thin_svd(a).s
        w = np.linalg.eigvalsh(a.T @ a)[::-1]
        expected = np.sqrt(np.clip(w, 0.0, None))[: min(m, n)]
        assert_allclose(s, expected, atol=1e-8)


def test_thin_svd_deterministic():
    a = np.random.default_rng(5).standard_normal((8, 4))
    f1 = thin_svd(a)
    f2 = thin_svd(a.copy())
    assert_array_equal(f1.u, f2.u)
    assert_array_equal(f1.s, f2.s)
    assert_array_equal(f1.v, f2.v)


def test_thin_svd_one_by_one():
    f = thin_svd([[-3.0]])
    assert_allclose(f.s, [3.0])
    assert_allclose(f.u, [[1.0]])
    assert_allclose(f.v, [[-1.0]])
    z = thin_svd([[0.0]])
    assert_allclose(z.s, [0.0])
    assert_allclose(z.u, [[1.0]])


def test_qr_identity_columns():
    a = np.eye(4)[:, :2]
    f = qr_orthonormalize(a)
    assert_allclose(f.q, a, atol=1e-14)
    assert_allclose(f.r, np.eye(2), atol=1e-14)


def test_qr_gram_oracle():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    f = qr_orthonormalize(a)
    assert_allclose(f.q.T @ f.q, np.eye(2), atol=1e-10)
    assert_allclose(f.q @ f.r, a, atol=1e-9)
    assert np.all(np.diag(f.r) >= 0)
    assert_allclose(np.tril(f.r, -1), 0.0, atol=1e-14)


def test_qr_scaling_in_r():
    f = qr_orthonormalize(5.0 * np.eye(2))
    assert_allclose(f.q, np.eye(2), atol=1e-14)
    assert_allclose(f.r, 5.0 * np.eye(2), atol=1e-14)


def test_qr_of_orthonormal_is_identity_map():
    q0 = random_orthonormal(2, 7, 3)
    f = qr_orthonormalize(q0)
    assert_allclose(f.q, q0, atol=1e-12)


def test_qr_rank_deficiency_names_column():
    a = np.ones((4, 2))  # second column repeats the first
    with pytest.raises(ValueError, match="rank deficient at column 1"):
        qr_orthonormalize(a)
    tall = np.random.default_rng(5).standard_normal((40, 3))
    tall[:, 2] = tall[:, 0] + tall[:, 1]
    with pytest.raises(ValueError, match="rank deficient at column 2"):
        qr_orthonormalize(tall)


def test_qr_rejects_wide_matrix():
    with pytest.raises(ValueError, match="full column rank"):
        qr_orthonormalize(np.ones((2, 3)))


def test_random_orthonormal_gram_and_determinism():
    m1 = random_orthonormal(7, 4, 4)
    m2 = random_orthonormal(7, 4, 4)
    assert_allclose(m1.T @ m1, np.eye(4), atol=1e-10)
    assert_array_equal(m1, m2)
    assert not np.array_equal(m1, random_orthonormal(8, 4, 4))


def test_random_orthonormal_dimension_error():
    with pytest.raises(ValueError, match="orthonormal columns"):
        random_orthonormal(7, 3, 5)


def test_random_orthonormal_consumes_generator():
    rng = np.random.default_rng(0)
    a = random_orthonormal(rng, 5, 2)
    b = random_orthonormal(rng, 5, 2)
    assert_allclose(a.T @ a, np.eye(2), atol=1e-10)
    assert not np.array_equal(a, b)
    assert_array_equal(a, random_orthonormal(0, 5, 2))


def test_factor_types_are_plain_records():
    f = thin_svd(np.eye(2))
    assert isinstance(f, ThinSVD)
    g = qr_orthonormalize(np.eye(2))
    assert isinstance(g, QRFactors)


def test_numeric_error_is_runtime_error():
    assert issubclass(NumericError, RuntimeError)
