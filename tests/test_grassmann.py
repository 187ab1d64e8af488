import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from grassmm import (
    GrassmannPoint,
    canonical_distance,
    principal_angles,
    random_orthonormal,
    random_point,
    thin_svd,
)
from grassmm.grassmann import (
    POINT_ORTHONORMALITY_TOL,
    _check_bases,
    _check_tangents,
    _geodesics,
    _pair_geodesics,
    _secant_point,
    _unit_tangents,
)

from grassmann_oracles import (
    GeodesicNotUnique,
    TangentVector,
    exp_map,
    geodesic,
    log_map,
    make_point,
    random_unit_tangent,
    riemannian_gradient,
    tangent_project,
)


def planar_line(angle):
    """Point of Gr(2,1) spanned by (cos angle, sin angle)."""
    return make_point(np.array([[np.cos(angle)], [np.sin(angle)]]))


def rotation(rng, d):
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --- types ------------------------------------------------------------------


def test_point_validates_orthonormality():
    with pytest.raises(ValueError):
        GrassmannPoint(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        GrassmannPoint(np.eye(3))  # D < N required


def test_tangent_vector_validates_tangency():
    x = random_point(0, 5, 2)
    with pytest.raises(ValueError, match="tangent"):
        TangentVector(x, x.basis)
    tv = tangent_project(x, np.random.default_rng(1).standard_normal((5, 2)))
    assert tv.norm() > 0


# --- construction -----------------------------------------------------------


def test_make_point_examples():
    e12 = np.eye(4)[:, :2]
    assert_allclose(make_point(e12).basis, e12, atol=1e-14)
    assert_allclose(make_point(2.0 * np.eye(3)[:, :1]).basis, np.eye(3)[:, :1], atol=1e-14)
    with pytest.raises(ValueError, match="rank deficient"):
        make_point(np.ones((3, 2)))


def test_random_point_determinism_and_errors():
    x1 = random_point(9, 8, 3)
    x2 = random_point(9, 8, 3)
    assert_array_equal(x1.basis, x2.basis)
    assert_allclose(x1.basis.T @ x1.basis, np.eye(3), atol=1e-10)
    with pytest.raises(ValueError):
        random_point(9, 3, 3)
    # n, d and an int seed follow the engine's integer rule
    for name, args in (("n", lambda v: (9, v, 1)), ("d", lambda v: (9, 8, v)), ("seed", lambda v: (v, 8, 3))):
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {0 if name == 'seed' else 1}, got"):
                random_point(*args(bad))
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1"):
        random_point(-1, 8, 3)
    assert_array_equal(random_point(np.int64(9), np.int32(8), np.int64(3)).basis, x1.basis)
    # a caller-owned Generator gives the same draw as its seed, and advances
    for s in (0, 9, 123):
        rng = np.random.default_rng(s)
        assert_array_equal(random_point(rng, 8, 3).basis, random_point(s, 8, 3).basis)
        assert not np.array_equal(random_point(rng, 8, 3).basis, random_point(s, 8, 3).basis)


def test_tangent_project_examples():
    x = random_point(4, 6, 2)
    assert_allclose(tangent_project(x, x.basis).delta, 0.0, atol=1e-14)

    e1 = make_point(np.array([[1.0], [0.0]]))
    tv = tangent_project(e1, np.array([[3.0], [4.0]]))
    assert_allclose(tv.delta, [[0.0], [4.0]], atol=1e-14)

    a = np.random.default_rng(2).standard_normal((6, 2))
    tv = tangent_project(x, a)
    assert np.max(np.abs(x.basis.T @ tv.delta)) <= 1e-12


def test_riemannian_gradient_examples():
    x = random_point(1, 7, 3)
    assert_allclose(riemannian_gradient(x, x.basis).delta, 0.0, atol=1e-14)

    # a direction already orthogonal to the span passes through unchanged
    rng = np.random.default_rng(3)
    perp = rng.standard_normal((7, 3))
    perp -= x.basis @ (x.basis.T @ perp)
    assert_allclose(riemannian_gradient(x, perp).delta, perp, atol=1e-12)

    # stationarity of -tr(X^T A X) at an eigenvector basis of symmetric A
    a = rng.standard_normal((7, 7))
    a = a + a.T
    _, vecs = np.linalg.eigh(a)
    x_eig = make_point(vecs[:, -3:])
    grad = riemannian_gradient(x_eig, -2.0 * a @ x_eig.basis)
    assert grad.norm() <= 1e-8


# --- angles, distance -------------------------------------------------------


def test_principal_angles_examples():
    rng = np.random.default_rng(0)
    x = random_point(5, 6, 2)
    rotated = GrassmannPoint(x.basis @ rotation(rng, 2))
    assert_allclose(principal_angles(x, rotated), 0.0, atol=1e-7)

    e1, e2 = planar_line(0.0), planar_line(np.pi / 2)
    assert_allclose(principal_angles(e1, e2), [np.pi / 2], atol=1e-12)
    assert_allclose(principal_angles(e1, planar_line(0.3)), [0.3], atol=1e-10)

    # mutually orthogonal planes in R^4 meet at pi/2 in every direction
    a = make_point(np.eye(4)[:, :2])
    b = make_point(np.eye(4)[:, 2:])
    assert_allclose(principal_angles(a, b), [np.pi / 2, np.pi / 2], atol=1e-12)


@pytest.mark.parametrize("n, d", [(2, 1), (7, 1), (6, 2), (9, 4)])
def test_principal_angles_are_a_sorted_array_in_range(n, d):
    # The result is a plain 1-d array of D angles, ascending and in [0, pi/2],
    # for random pairs and for the shortcuts: identical and negated bases.
    for seed in range(20):
        x = random_point(seed, n, d)
        for y in (random_point(100 + seed, n, d), x, GrassmannPoint(-x.basis)):
            angles = principal_angles(x, y)
            assert type(angles) is np.ndarray and angles.shape == (d,) and angles.dtype == float
            assert np.all(np.diff(angles) >= 0.0)
            assert np.all((0.0 <= angles) & (angles <= np.pi / 2))


def test_principal_angles_dimension_mismatch():
    with pytest.raises(ValueError):
        principal_angles(random_point(0, 6, 2), random_point(0, 6, 3))
    with pytest.raises(ValueError):
        principal_angles(random_point(0, 6, 2), random_point(0, 7, 2))


def test_canonical_distance_examples():
    x = random_point(7, 6, 2)
    assert canonical_distance(x, x) == 0.0
    assert_allclose(
        canonical_distance(planar_line(0.0), planar_line(np.pi / 2)), np.pi / 2, atol=1e-12
    )
    # two independent in-plane rotations in disjoint coordinate planes compose
    c1, s1 = np.cos(0.2), np.sin(0.2)
    c2, s2 = np.cos(0.5), np.sin(0.5)
    x4 = make_point(np.eye(4)[:, [0, 2]])
    y4 = make_point(np.array([[c1, 0.0], [s1, 0.0], [0.0, c2], [0.0, s2]]))
    assert_allclose(canonical_distance(x4, y4), np.hypot(0.2, 0.5), atol=1e-9)
    assert_allclose(principal_angles(x4, y4), [0.2, 0.5], atol=1e-9)


def test_canonical_distance_is_the_numpy_norm_of_the_angles_bit_for_bit():
    # canonical_distance takes the one dot product np.linalg.norm takes; the
    # reference is np.linalg.norm itself.
    rng = np.random.default_rng(5)
    for n, d in ((2, 1), (3, 1), (64, 1), (1024, 1), (4, 2), (10, 2), (64, 2)):
        for _ in range(10):
            x = random_point(rng, n, d)
            q = random_orthonormal(rng, n, 2 * d)
            pairs = (
                (x, x),
                (x, GrassmannPoint(-x.basis)),
                (GrassmannPoint(q[:, :d]), GrassmannPoint(q[:, d:])),
                (x, random_point(rng, n, d)),
            )
            for a, b in pairs:
                assert canonical_distance(a, b) == float(np.linalg.norm(principal_angles(a, b)))


def two_svd_distance(x, y):
    """canonical_distance by the general route, which takes the cosines from
    the SVD of X^T Y and sorts and accumulates the angles."""
    x_bytes, y_bytes = x.basis.tobytes(), y.basis.tobytes()
    if x_bytes == y_bytes or np.array_equal(x.basis, -y.basis):
        return float(np.linalg.norm(np.zeros(x.d)))
    a, b = (x, y) if x_bytes <= y_bytes else (y, x)
    w = a.basis.T @ b.basis
    cos_vals = np.clip(np.linalg.svd(w, compute_uv=False), 0.0, 1.0)
    sin_vals = np.sort(np.clip(np.linalg.svd(b.basis - a.basis @ w, compute_uv=False), 0.0, 1.0))
    theta = np.minimum(np.maximum.accumulate(np.arctan2(sin_vals, cos_vals)), np.pi / 2)
    return float(np.linalg.norm(theta))


def longdouble_line_distance(x, y):
    """The angle between two lines of R^N, evaluated in np.longdouble from
    the bases normalized in that precision: atan2(||b - a w||, |w|), w = a^T b."""
    a, b = (p.basis[:, 0].astype(np.longdouble) for p in (x, y))
    a, b = a / np.sqrt(np.sum(a * a)), b / np.sqrt(np.sum(b * b))
    w = np.sum(a * b)
    r = b - a * w
    return np.arctan2(np.sqrt(np.sum(r * r)), abs(w))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 1100),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "identical", "negated", "near", "orthogonal", "angle"]),
    log_angle=st.floats(-14.0, float(np.log10(np.pi / 2))),
)
def test_line_distance_matches_two_svd_route(n, seed, kind, log_angle):
    # On Gr(N, 1) the sine is the 2-norm of the residual, with no SVD. It is
    # rounded along another sequence of operations than the SVD's singular
    # value, so the two routes agree to a few eps, as both agree with a
    # long-double evaluation of the same angle.
    x = random_point(seed, n, 1)
    rng = np.random.default_rng(seed + 1)
    if kind == "random":
        y = random_point(rng, n, 1)
    elif kind == "identical":
        y = GrassmannPoint(x.basis.copy())
    elif kind == "negated":
        y = GrassmannPoint(-x.basis)
    elif kind == "near":
        v = x.basis + 1e-12 * rng.standard_normal((n, 1))
        y = GrassmannPoint(v / np.linalg.norm(v))
    else:
        v = rng.standard_normal((n, 1))
        v -= x.basis @ (x.basis.T @ v)
        v /= np.linalg.norm(v)
        if kind == "angle":
            angle = 10.0**log_angle
            v = np.cos(angle) * x.basis + np.sin(angle) * v
        y = GrassmannPoint(v / np.linalg.norm(v))
    dist = canonical_distance(x, y)
    assert dist == canonical_distance(y, x)
    eps = np.finfo(float).eps
    assert abs(dist - two_svd_distance(x, y)) <= 4 * eps
    assert abs(dist - longdouble_line_distance(x, y)) <= 4 * eps
    if kind == "identical":
        assert dist == 0.0
    elif kind == "negated":
        assert dist <= 1e-7
    elif kind == "near":
        assert dist <= 1e-10
    elif kind == "orthogonal":
        assert abs(dist - np.pi / 2) <= 1e-12


# --- geodesics ---------------------------------------------------------------


def test_log_map_examples():
    x = random_point(10, 8, 3)
    assert log_map(x, x).norm() <= 1e-12

    h = log_map(planar_line(0.0), planar_line(0.3))
    assert_allclose(h.delta, [[0.0], [0.3]], atol=1e-10)


def test_log_map_uniqueness_guard():
    with pytest.raises(GeodesicNotUnique):
        log_map(planar_line(0.0), planar_line(np.pi / 2))
    with pytest.raises(GeodesicNotUnique):
        log_map(make_point(np.eye(4)[:, :2]), make_point(np.eye(4)[:, 2:]))


def test_exp_map_examples():
    for x, y in [
        (random_point(12, 8, 3), random_point(13, 8, 3)),
        (random_point(31, 6, 2), random_point(32, 6, 2)),
    ]:
        h = log_map(x, y)
        assert canonical_distance(exp_map(x, h, 0.0), x) <= 1e-12
        assert canonical_distance(exp_map(x, h, 1.0), y) <= 1e-8
        for t in np.linspace(0.1, 0.9, 9):
            b = exp_map(x, h, t).basis
            assert_allclose(b.T @ b, np.eye(x.d), atol=1e-8)

    # the self pair: zero velocity, and the geodesic stays at x
    x = random_point(30, 6, 2)
    path = geodesic(x, log_map(x, x))
    for t in (0.0, 0.3, 1.0):
        assert canonical_distance(path(t), x) <= 1e-8

    e1 = planar_line(0.0)
    h2 = TangentVector(e1, np.array([[0.0], [np.pi / 2]]))
    mid = exp_map(e1, h2, 0.5)
    assert_allclose(np.abs(mid.basis), [[np.cos(np.pi / 4)], [np.sin(np.pi / 4)]], atol=1e-12)


def test_exp_map_base_mismatch():
    x = random_point(0, 6, 2)
    other = random_point(1, 6, 2)
    h = log_map(x, random_point(2, 6, 2))
    with pytest.raises(ValueError):
        exp_map(other, h, 1.0)
    with pytest.raises(ValueError, match="not based"):
        geodesic(other, h)
    with pytest.raises(ValueError, match="must not exceed pi/2"):
        geodesic(x, TangentVector(x, 2.0 * h.delta / np.linalg.norm(h.delta, 2)))


def test_geodesic_is_exp_map_bit_for_bit():
    # the reference keeps exp_map's arithmetic order, which solver traces depend on
    for seed in range(10):
        x = random_point(seed, 8, 3)
        h = log_map(x, random_point(500 + seed, 8, 3))
        f = thin_svd(h.delta)
        path = geodesic(x, h)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, -0.4, 1.3):
            ref = (x.basis @ f.v) * np.cos(f.s * t) @ f.v.T + (f.u * np.sin(f.s * t)) @ f.v.T
            assert_array_equal(path(t).basis, ref)
            assert_array_equal(exp_map(x, h, t).basis, ref)


def test_exp_log_roundtrip_seeded():
    for seed in range(25):
        x = random_point(seed, 8, 3)
        y = random_point(1000 + seed, 8, 3)
        h = log_map(x, y)
        assert canonical_distance(exp_map(x, h, 1.0), y) <= 1e-8
        # geodesic speed: tangent magnitude equals the distance travelled
        assert abs(h.norm() - canonical_distance(x, y)) <= 1e-8


def test_log_map_singular_values_are_angles():
    x = random_point(21, 8, 3)
    y = random_point(22, 8, 3)
    sv = np.sort(np.linalg.svd(log_map(x, y).delta, compute_uv=False))
    assert_allclose(sv, principal_angles(x, y), atol=1e-8)


# --- metric properties ---------------------------------------------------------


def test_metric_axioms_seeded_triples():
    rng = np.random.default_rng(99)
    for _ in range(200):
        seeds = rng.integers(0, 2**31, size=3)
        x, y, z = (random_point(int(s), 8, 3) for s in seeds)
        dxy = canonical_distance(x, y)
        assert dxy == canonical_distance(y, x)  # exact, not approximate
        assert dxy >= 0
        assert canonical_distance(x, z) <= dxy + canonical_distance(y, z) + 1e-8
    assert canonical_distance(x, x) == 0.0


def test_zero_distance_iff_same_span():
    rng = np.random.default_rng(8)
    x = random_point(40, 8, 3)
    same = GrassmannPoint(x.basis @ rotation(rng, 3))
    assert canonical_distance(x, same) <= 1e-7
    assert np.all(principal_angles(x, same) <= 1e-7)
    other = random_point(41, 8, 3)
    assert canonical_distance(x, other) > 1e-3


def test_representative_invariance():
    rng = np.random.default_rng(17)
    x = random_point(50, 8, 3)
    y = random_point(51, 8, 3)
    base = principal_angles(x, y)
    for _ in range(20):
        xr = GrassmannPoint(x.basis @ rotation(rng, 3))
        assert_allclose(principal_angles(xr, y), base, atol=1e-9)
        assert abs(canonical_distance(xr, y) - canonical_distance(x, y)) <= 1e-9


def test_arclength_additivity():
    for seed in range(10):
        x = random_point(seed, 8, 3)
        y = random_point(700 + seed, 8, 3)
        h = log_map(x, y)
        d = canonical_distance(x, y)
        for t in (0.25, 0.5, 0.75):
            assert abs(canonical_distance(x, exp_map(x, h, t)) - t * d) <= 1e-7


def test_random_unit_tangent_is_unit_and_tangent():
    rng = np.random.default_rng(4)
    x = random_point(3, 8, 3)
    for _ in range(10):
        tv = random_unit_tangent(rng, x)
        assert abs(tv.norm() - 1.0) <= 1e-12
        assert np.max(np.abs(x.basis.T @ tv.delta)) <= 1e-9


# --- batches ---------------------------------------------------------------------


def reference_basis(rng, n, d):
    """One sampled basis, drawn and factored on its own with plain numpy."""
    q, r = np.linalg.qr(rng.standard_normal((n, d)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def assert_orthonormal(b):
    assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) <= POINT_ORTHONORMALITY_TOL


@st.composite
def grassmann_shapes(draw):
    n = draw(st.integers(2, 24))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=150, deadline=None)
@given(shape=grassmann_shapes(), count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_batched_sampler_equals_single_draws(shape, count, seed):
    # the audits draw K candidate points as one checked stack of bases
    n, d = shape
    batch = random_orthonormal(seed, n, d, count=count)
    _check_bases(batch)
    assert batch.shape == (count, n, d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for basis in batch:
        assert_array_equal(basis, random_point(rng, n, d).basis)
        assert_array_equal(basis, reference_basis(ref_rng, n, d))
        assert_orthonormal(basis)
    assert_array_equal(random_point(seed, n, d).basis, batch[0])


@settings(max_examples=150, deadline=None)
@given(
    shape=grassmann_shapes(),
    seed=st.integers(0, 2**32 - 1),
    ts=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=12),
)
def test_stacked_geodesic_equals_pointwise(shape, seed, ts):
    n, d = shape
    x = random_point(seed, n, d)
    rng = np.random.default_rng(seed + 1)
    tv = random_unit_tangent(rng, x)
    h = TangentVector(x, rng.uniform(0.0, np.pi / 2) * tv.delta)
    f = thin_svd(h.delta)
    points = _geodesics(x.basis, h.delta[None])(np.array(ts))
    assert points.shape == (1, len(ts), n, d)
    for t, point in zip(ts, points[0]):
        ref = (x.basis @ f.v) * np.cos(f.s * t) @ f.v.T + (f.u * np.sin(f.s * t)) @ f.v.T
        assert_array_equal(point, ref)
        assert_array_equal(point, exp_map(x, h, t).basis)
        assert_orthonormal(point)


@st.composite
def stacked_cases(draw):
    n = draw(st.integers(2, 64))
    count = draw(st.integers(1, 60))
    return n, draw(st.integers(1, n - 1)), count, draw(st.integers(0, count))


@settings(max_examples=40, deadline=None)
@given(case=stacked_cases(), seed=st.integers(0, 2**32 - 1), degenerate=st.booleans())
def test_stacked_primitives_equal_single_calls(case, seed, degenerate):
    n, d, count, split = case
    x = random_point(seed, n, d)
    # Seeded like the anchor, the first Gaussian draw is the matrix whose QR
    # factor x is: its tangent part is rounding noise and must be redrawn.
    rng_seed = seed if degenerate else seed + 1
    if degenerate:
        first = np.random.default_rng(seed).standard_normal((n, d))
        assert np.linalg.norm(first - x.basis @ (x.basis.T @ first)) < 1e-12
    rng, ref = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    # two batches from one generator, as a batch split at a chunk boundary is drawn
    tangents = np.concatenate([_unit_tangents(rng, x.basis, split), _unit_tangents(rng, x.basis, count - split)])
    singles = [random_unit_tangent(ref, x) for _ in range(count)]
    assert rng.bit_generator.state == ref.bit_generator.state
    assert tangents.shape == (count, n, d)
    for delta, single in zip(tangents, singles):
        assert single.base is x
        assert_array_equal(delta, single.delta)

    # thin SVD of the stack, member by member
    f = thin_svd(tangents)
    for k, m in enumerate(tangents):
        single = thin_svd(m)
        for got, want in ((f.u[k], single.u), (f.s[k], single.s), (f.v[k], single.v)):
            assert_array_equal(got, want)

    # geodesics at one base: a shared t-grid, and one time per geodesic
    hs = rng.uniform(0.0, np.pi / 2, count)[:, None, None] * tangents
    ts = rng.uniform(-1.0, 1.0, 3)
    radii = rng.uniform(0.0, 1.0, count)
    ends = _geodesics(x.basis, hs)(radii[:, None])
    paths = _geodesics(x.basis, hs)(ts)
    assert ends.shape == (count, 1, n, d) and paths.shape == (count, 3, n, d)
    for h, path, r, (end,) in zip(hs, paths, radii, ends):
        tv = TangentVector(x, h)
        for t, point in zip(ts, path):
            assert_array_equal(point, exp_map(x, tv, t).basis)
        assert_array_equal(end, exp_map(x, tv, r).basis)
    # a scalar t gives one point per geodesic
    assert_array_equal(_geodesics(x.basis, hs)(ts[0]), _geodesics(x.basis, hs)(ts[:1]))

    # geodesics through K pairs, with a pair meeting at pi/2 when the dimensions allow one
    xs = ends[:, 0]
    ys = random_orthonormal(rng, n, d, count=count)
    if 2 * d <= n:
        ys[-1] = np.linalg.qr(xs[-1], mode="complete")[0][:, d : 2 * d]
    keep, pairs = _pair_geodesics(xs, ys)
    pair_paths = pairs(ts)
    assert pair_paths.shape == (keep.size, 3, n, d)
    logs, unique = [], []
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        try:
            logs.append(log_map(GrassmannPoint(xk), GrassmannPoint(yk)).delta)
        except GeodesicNotUnique:
            continue
        unique.append(k)
        single_keep, single = _pair_geodesics(xk[None], yk[None])
        assert single_keep.tolist() == [0]
        assert_array_equal(pair_paths[len(unique) - 1], single(ts)[0])
    assert keep.tolist() == unique
    if 2 * d <= n:
        assert count - 1 not in unique

    # geodesics with one tangent per base
    paths = _geodesics(xs[keep], np.reshape(logs, (-1, n, d)))(ts)
    for xk, log, path in zip(xs[keep], logs, paths):
        x_k = GrassmannPoint(xk)
        for t, point in zip(ts, path):
            assert_array_equal(point, exp_map(x_k, TangentVector(x_k, log), t).basis)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_geodesics_follow_the_log(d):
    # the geodesic through each pair is exp_map(x, log_map(x, y), t) up to
    # rounding, on both sides of the segment; a pair at right angles has
    # none and is left out of the kept indices
    n, count = 9, 12
    rng = np.random.default_rng(d)
    xs = random_orthonormal(rng, n, d, count=count)
    ys = np.empty_like(xs)
    for k, r in enumerate(np.linspace(0.05, 1.4, count)):
        x = GrassmannPoint(xs[k])
        ys[k] = exp_map(x, TangentVector(x, r * random_unit_tangent(rng, x).delta), 1.0).basis
    ys[-1] = np.linalg.qr(xs[-1], mode="complete")[0][:, d : 2 * d]
    keep, paths = _pair_geodesics(xs, ys)
    assert keep.tolist() == list(range(count - 1))
    ts = np.linspace(-1.0, 2.0, 13)
    for k, path in zip(keep, paths(ts)):
        x = GrassmannPoint(xs[k])
        h = log_map(x, GrassmannPoint(ys[k]))
        for t, point in zip(ts, path):
            assert_allclose(point, exp_map(x, h, t).basis, rtol=0.0, atol=1e-12)


def test_empty_batches():
    x = random_point(0, 5, 2)
    empty = np.empty((0, 5, 2))
    assert _unit_tangents(np.random.default_rng(0), x.basis, 0).shape == (0, 5, 2)
    assert _geodesics(x.basis, empty)(np.array([0.0, 1.0])).shape == (0, 2, 5, 2)
    keep, paths = _pair_geodesics(empty, empty)
    assert keep.size == 0 and paths(np.array([0.0, 1.0])).shape == (0, 2, 5, 2)


def test_stacked_tangents_are_checked():
    x = random_point(0, 5, 2)
    h = random_unit_tangent(np.random.default_rng(1), x)
    long = 2.0 * h.delta / np.linalg.norm(h.delta, 2)
    expected = message_of(geodesic, x, TangentVector(x, long))
    assert expected.startswith("tangent singular values must not exceed pi/2")
    assert message_of(_geodesics, x.basis, np.stack([h.delta, long])) == expected
    with pytest.raises(ValueError, match="not tangent at base"):
        _check_tangents(x.basis, np.stack([h.delta, x.basis]))


def message_of(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@settings(max_examples=60, deadline=None)
@given(shape=grassmann_shapes(), count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_stack_check_rejects_its_last_member(shape, count, seed):
    # only the last member is bad, so a check that reads only [0] would pass
    n, d = shape
    stack = random_orthonormal(seed, n, d, count=count)
    _check_bases(stack)
    for bad_value in (1.5 * stack[-1], np.where(np.arange(n)[:, None] == 0, np.nan, stack[-1])):
        bad = stack.copy()
        bad[-1] = bad_value
        expected = message_of(GrassmannPoint, bad_value)
        assert expected.startswith(("basis is not orthonormal", "matrix entries must be finite"))
        assert message_of(_check_bases, bad) == expected


def general_check_bases(b):
    """The general basis check, for every D: the reference for the
    one-column shortcut of _check_bases."""
    _, n, d = b.shape
    if n < 1 or d < 1:
        raise ValueError(f"matrix must have at least one row and column, got shape {(n, d)}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= D < N, got N={n}, D={d}")
    dev = np.abs(np.swapaxes(b, 1, 2) @ b - np.eye(d))
    if not dev.max(initial=0.0) <= POINT_ORTHONORMALITY_TOL:
        per_member = dev.max(axis=(1, 2))
        err = per_member[np.argmin(per_member <= POINT_ORTHONORMALITY_TOL)]
        raise ValueError(f"basis is not orthonormal (max Gram deviation {err:.3e})")


def check_outcome(check, stack):
    """None when the check passes the stack, else the message it raises."""
    try:
        with np.errstate(over="ignore"):  # the overflowing member's Gram matrix
            check(stack)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
def test_one_column_check_matches_the_general_check(n):
    rng = np.random.default_rng(n)
    good = random_orthonormal(rng, n, 1, count=3) if n > 1 else np.ones((3, 1, 1))
    members = {"unit": good[1]}
    for name, scale in (("long", 1 + 1e-8), ("short", 1 - 1e-8), ("inside", 1 + 1e-10), ("overflow", 1e200)):
        members[name] = scale * good[1]
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        members[name] = good[1].copy()
        members[name][n // 2, 0] = value
    members["zero"] = np.zeros((n, 1))
    for name, member in members.items():
        for stack in (member[None], np.stack([good[0], member, good[2]]), np.stack([member, good[0], member])):
            expected = check_outcome(general_check_bases, stack)
            assert check_outcome(_check_bases, stack) == expected, (n, name)
            if n == 1:
                assert expected == "need 1 <= D < N, got N=1, D=1" or expected.startswith("matrix entries"), name
            elif name in ("unit", "inside"):
                assert expected is None
            else:
                assert expected is not None, name
    # The verdicts at the tolerance itself, where the shortcut decides alone.
    if n > 1:
        for dev in np.linspace(0.99, 1.01, 81) * POINT_ORTHONORMALITY_TOL:
            stack = np.sqrt(1.0 + dev) * good
            assert check_outcome(_check_bases, stack) == check_outcome(general_check_bases, stack), dev


def test_stack_check_shape_messages():
    assert message_of(GrassmannPoint, np.ones(3)) == "expected a 2-d matrix, got ndim=1"
    assert message_of(GrassmannPoint, np.eye(3)) == "need 1 <= D < N, got N=3, D=3"
    assert message_of(GrassmannPoint, np.zeros((0, 2))).startswith("matrix must have at least one row")
    assert message_of(GrassmannPoint, np.full((3, 1), np.inf)) == "matrix entries must be finite"
    _check_bases(np.zeros((0, 3, 1)))  # an empty batch holds no bad member


# --- the extrapolation point past a geodesic segment --------------------------------


@pytest.mark.parametrize("n, d", [(2, 1), (9, 1), (300, 1), (9, 3), (40, 3)])
def test_secant_point_is_the_geodesic_past_its_end(n, d):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = random_point(seed, n, d)
        h = random_unit_tangent(rng, x)
        y = exp_map(x, TangentVector(base=x, delta=rng.uniform(0.01, 1.2) * h.delta), 1.0)
        for beta in (1.0, 2.0, 5.0, 64.0):
            got = _secant_point(x.basis, y.basis, beta)
            expected = exp_map(y, log_map(y, x), -beta).basis
            assert_allclose(got, expected, rtol=0.0, atol=1e-12)
            # the point sits at arc length (1 + beta) * dist(x, y) from x, modulo the period
            angles = (1.0 + beta) * principal_angles(x, y)
            expected_dist = np.linalg.norm(np.abs(np.remainder(angles + np.pi / 2, np.pi) - np.pi / 2))
            assert canonical_distance(x, GrassmannPoint(got)) == pytest.approx(expected_dist, abs=1e-9)


def test_secant_point_through_the_same_point_stays_there():
    # A basis vector meets itself at w = 1 exactly, so the direction toward it is exactly 0.
    for x in (random_point(3, 7, 1).basis, np.eye(7)[:, :1]):
        for start in (x, -x):
            assert_allclose(_secant_point(start, x, 8.0), x, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2])
def test_secant_point_at_right_angles_is_none(d):
    x = np.eye(5)[:, :d]
    y = np.eye(5)[:, d : 2 * d]
    assert _secant_point(x, y, 1.0) is None
    tilted = make_point(y + 1e-10 * x).basis
    assert _secant_point(x, tilted, 1.0) is None


@pytest.mark.parametrize("d", [1, 3])
def test_secant_point_keeps_unit_norm_from_rounded_iterates(d):
    # Iterates of norm 1 - 3e-11, inside the tolerance a deconv kernel is
    # held to, and a short step: the tangent direction divides by
    # sin(theta) ~ 1e-3, which would amplify the deviation past the basis check.
    rng = np.random.default_rng(5)
    x = random_point(5, 64, d)
    h = random_unit_tangent(rng, x)
    y = exp_map(x, TangentVector(base=x, delta=1e-3 * h.delta), 1.0)
    x, y = (1.0 - 3e-11) * x.basis, (1.0 - 3e-11) * y.basis
    for beta in (1.0, 32.0, 64.0):
        out = _secant_point(x, y, beta)
        assert np.abs(out.T @ out - np.eye(d)).max() <= 1e-10


def pair_geodesic_secant(x, y, beta):
    """The general extrapolation point: the pair geodesic from y through x at -beta."""
    keep, path = _pair_geodesics(y[None], x[None])
    return path(-beta)[0, 0] if keep.size else None


def line_at(y, cos_angle, seed):
    """The basis of a line at the angle arccos(cos_angle) from the line y."""
    rng = np.random.default_rng(seed)
    d = _unit_tangents(rng, y, 1)[0]
    return cos_angle * y + np.sqrt(1.0 - cos_angle**2) * d


def closed_form_secant(x, y, beta):
    """The one-column _secant_point with its norm taken by np.linalg.norm."""
    w = float(y[:, 0] @ x[:, 0])
    if not abs(w) > 1e-8:
        return None
    r = math.copysign(1.0, w) * x - abs(w) * y
    r -= y * (y[:, 0] @ r[:, 0])
    r_norm = float(np.linalg.norm(r))
    if r_norm == 0.0:
        return y.copy()
    theta = math.atan2(r_norm, abs(w))
    return math.cos(beta * theta) * y - (math.sin(beta * theta) / r_norm) * r


@pytest.mark.parametrize("n", [2, 9, 64, 1024])
def test_secant_point_on_lines_takes_the_numpy_norm_bit_for_bit(n):
    for seed in range(5):
        y = random_point(seed, n, 1).basis
        for k, angle in enumerate((1e-7, 1e-4, 0.1, 0.7, 1.5)):
            x = line_at(y, np.cos(angle), 100 * seed + k)
            for start in (x, -x):
                for beta in (1.0, 2.0, 64.0):
                    assert_array_equal(_secant_point(start, y, beta), closed_form_secant(start, y, beta))


@pytest.mark.parametrize("n", [2, 9, 64, 1024])
def test_secant_point_on_lines_matches_the_pair_geodesic(n):
    # On Gr(N, 1) the point is taken in closed form; the general builder is its reference.
    angles = [1e-9, 1e-7, 1e-4, 0.1, 0.7, 1.2, 1.5, np.pi / 2 - 1e-4, np.pi / 2 - 1e-7]
    for seed in range(3):
        y = random_point(seed, n, 1).basis
        for k, angle in enumerate(angles):
            x = line_at(y, np.cos(angle), 100 * seed + k)
            for start in (x, -x):
                for beta in (1.0, 2.0, 5.0, 64.0):
                    got = _secant_point(start, y, beta)
                    assert_allclose(got, pair_geodesic_secant(start, y, beta), rtol=0.0, atol=1e-13)
        # None exactly where the general builder keeps no pair, at the cutoff.
        for scale, kept in ((1.0 - 1e-3, False), (1.0 + 1e-3, True)):
            x = line_at(y, 1e-8 * scale, seed)
            for start in (x, -x):
                got, expected = _secant_point(start, y, 2.0), pair_geodesic_secant(start, y, 2.0)
                assert (got is not None) is kept
                assert (expected is not None) is kept
                if kept:
                    assert_allclose(got, expected, rtol=0.0, atol=1e-13)
