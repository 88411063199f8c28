import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symcap.errors import (
    DimensionMismatch,
    GradientUndefinedAtZero,
    NonConvexParameters,
    OriginNotInterior,
    SpecParseError,
    SymcapError,
)
from symcap.geometry import (
    Ellipsoid,
    LpBall,
    Polytope,
    ball,
    body_from_dict,
    cube,
    lp_ball,
)

from helpers import (
    JSON_VALUES,
    bisect_gauge,
    edited_specs,
    fixture_bodies,
    gauge_scaling_lp,
    random_spd_matrix,
    random_symmetric_polytope,
    reference_gauge,
    reference_gauge_gradient,
    reference_smoothed_support_and_point,
    reference_support,
    reference_support_and_point,
    reference_support_point,
)


BODIES = fixture_bodies()


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_gauge_homogeneous_and_boundary(name, body):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1000, body.dim))
    s = rng.uniform(0.1, 10.0, size=1000)
    g = body.gauge(x)
    assert np.all(g > 0)
    assert np.allclose(body.gauge(x * s[:, None]), g * s, rtol=1e-9, atol=1e-12)
    bp = body.boundary_point(x)
    assert np.max(np.abs(body.gauge(bp) - 1.0)) <= 1e-12


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_gauge_subadditive(name, body):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1000, body.dim))
    y = rng.normal(size=(1000, body.dim))
    lhs = body.gauge(x + y)
    rhs = body.gauge(x) + body.gauge(y)
    assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, rhs))


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_symmetry_flag_matches_gauge(name, body):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(500, body.dim))
    if body.is_symmetric:
        assert np.allclose(body.gauge(-x), body.gauge(x), rtol=1e-9)
    else:
        assert np.max(np.abs(body.gauge(-x) - body.gauge(x))) > 1e-6


def test_gauge_known_values():
    assert ball(4).gauge(np.array([1.0, 0, 0, 0])) == pytest.approx(1.0, abs=1e-12)
    assert cube(4).gauge(np.full(4, 0.5)) == pytest.approx(0.5, abs=1e-12)
    e = Ellipsoid.from_radii([1.0, 2.0])
    assert e.gauge(np.array([0.0, 2.0])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name,body",
    [(n, b) for n, b in BODIES if n in ("ellipsoid-1-2", "shifted-ellipsoid", "l4ball", "poly-v")],
    ids=["ellipsoid-1-2", "shifted-ellipsoid", "l4ball", "poly-v"],
)
def test_gauge_against_bisection_oracle(name, body):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=body.dim)
        assert body.gauge(x) == pytest.approx(bisect_gauge(body, x), rel=1e-9)


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_support_gauge_polar_duality(name, body):
    rng = np.random.default_rng(17)
    u = rng.normal(size=(1000, body.dim))
    polar = body.polar()
    assert np.allclose(body.support(u), polar.gauge(u), rtol=1e-9, atol=1e-12)
    assert np.allclose(body.gauge(u), polar.support(u), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_double_polar_is_identity(name, body):
    rng = np.random.default_rng(19)
    u = rng.normal(size=(1000, body.dim))
    double = body.polar().polar()
    assert np.allclose(body.gauge(u), double.gauge(u), rtol=1e-9, atol=1e-12)
    # the polar is built once and linked back
    assert double is body and body.polar() is body.polar()


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_support_and_point_matches_parts(name, body):
    rng = np.random.default_rng(43)
    u = rng.normal(size=(200, body.dim))
    h, pt = body.support_and_point(u)
    assert np.allclose(h, body.support(u), rtol=0.0, atol=1e-12)
    assert np.allclose(pt, body.support_point(u), rtol=0.0, atol=1e-12)
    if not body.is_smooth:
        # the p-norm of m vertex scores lies between h and m^(1/p) h
        smoothed, _ = body.smoothed_support_and_point(u, 40.0)
        assert np.all(smoothed >= h - 1e-12)
        assert np.all(smoothed <= h * len(body.vertices) ** (1.0 / 40.0) + 1e-12)


# weights that are not powers of two, so |u| w and |u| / (1 / w) differ in
# the last bit, and p = 4, whose polar's conjugate q / (q - 1) is not 4
ODD_LP = LpBall(4.0, np.array([1.0, 3.0, 1.0, 0.7]))
LP_BODIES = [(n, b) for n, b in BODIES if isinstance(b, LpBall)] + [
    ("l4-polar", lp_ball(4.0, np.ones(4)).polar()),
    ("lp4-odd-weights", ODD_LP),
    ("lp4-odd-weights-polar", ODD_LP.polar()),
]


@pytest.mark.parametrize("name,body", LP_BODIES, ids=[n for n, _ in LP_BODIES])
def test_lp_support_and_point_is_exactly_the_parts(name, body):
    # the fused form shares the polar's gauge argument, its maximum and the
    # power sum; its value is ``support``, the polar's gauge, to the last
    # bit, and a zero direction still has no support point
    rng = np.random.default_rng(47)
    u = rng.normal(size=(200, body.dim))
    u[0, 1] = 0.0
    h, pt = body.support_and_point(u)
    assert np.array_equal(h, body.support(u))
    assert np.array_equal(pt, body.support_point(u))
    # the point is the gradient of h_K, the gauge of the polar
    assert np.allclose(pt, body.polar().gauge_gradient(u), rtol=1e-12, atol=0.0)
    u[5] = 0.0
    with pytest.raises(GradientUndefinedAtZero):
        body.support_and_point(u)


def test_support_known_values():
    rng = np.random.default_rng(23)
    u = rng.normal(size=(100, 4))
    assert np.allclose(ball(4).support(u), np.linalg.norm(u, axis=1), rtol=1e-12)
    assert np.allclose(cube(4).support(u), np.sum(np.abs(u), axis=1), rtol=1e-12)


def test_polar_known_pairs():
    rng = np.random.default_rng(29)
    u = rng.normal(size=(200, 4))
    assert np.allclose(ball(4, 2.0).polar().gauge(u), ball(4, 0.5).gauge(u), rtol=1e-12)
    cross = lp_ball(1, np.ones(4))
    assert np.allclose(cube(4).polar().gauge(u), cross.gauge(u), rtol=1e-9)


@pytest.mark.parametrize(
    "name,body",
    [(n, b) for n, b in BODIES if b.is_smooth],
    ids=[n for n, b in BODIES if b.is_smooth],
)
def test_gradient_euler_identity_and_fd(name, body):
    rng = np.random.default_rng(31)
    x = rng.normal(size=(200, body.dim))
    grad = body.gauge_gradient(x)
    euler = np.sum(grad * x, axis=1) - body.gauge(x)
    assert np.max(np.abs(euler)) <= 1e-9
    # 0-homogeneity
    assert np.allclose(body.gauge_gradient(3.7 * x), grad, rtol=1e-9, atol=1e-12)
    # central finite differences
    h = 1e-5
    for i in range(10):
        for j in range(body.dim):
            xp = x[i].copy()
            xm = x[i].copy()
            xp[j] += h
            xm[j] -= h
            fd = (body.gauge(xp) - body.gauge(xm)) / (2 * h)
            assert abs(fd - grad[i, j]) <= 1e-4


def _longdouble_gauge_gradient(body, x):
    """nu / <nu, y> with nu = M (y - c) at y = x / g(x), in np.longdouble."""
    ld = np.longdouble
    mat, c, x = body.matrix.astype(ld), body.center.astype(ld), x.astype(ld)
    e = c @ mat @ c
    a = np.einsum("...i,ij,...j->...", x, mat, x)
    b = x @ (mat @ c)
    y = x / ((np.sqrt(b * b + (1 - e) * a) - b) / (1 - e))[:, None]
    nu = (y - c) @ mat
    return nu / np.sum(nu * y, axis=1)[:, None]


@pytest.mark.parametrize("shift", [0.0, 0.5], ids=["centered", "shifted"])
def test_gauge_gradient_is_accurate_at_cond_1e10(shift):
    # The polar is handed its inverse matrix in closed form; inverting the
    # polar's matrix again costs about cond(M) eps, errors near 1e-8 here.
    # The shifted center lies on the stiffest axis, c^T M c = shift^2: a
    # center with a component on the soft axes loses up to cond(M) eps in
    # the gauge itself, with or without the polar.
    rng = np.random.default_rng(67)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    w = np.logspace(0, 10, 4)
    body = Ellipsoid((q * w) @ q.T, center=shift * q[:, 3] / np.sqrt(w[3]))
    assert np.linalg.cond(body.matrix) == pytest.approx(1e10, rel=1e-3)
    x = rng.normal(size=(64, 4))
    ref = _longdouble_gauge_gradient(body, x).astype(float)
    err = np.linalg.norm(body.gauge_gradient(x) - ref) / np.linalg.norm(ref)
    assert err <= 1e-12


def test_polar_of_an_ill_conditioned_ellipsoid_builds():
    # at cond(M) = 1e14 the computed M^-1 can miss symmetry by more than the
    # constructor allows (2.6e-8 here); the polar's matrix is symmetrized
    rng = np.random.default_rng(117)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    body = Ellipsoid((q * np.logspace(0, 14, 4)) @ q.T)
    u = rng.normal(size=(16, 4))
    h, point = body.support_and_point(u)
    assert np.allclose(body.support(u), h, rtol=1e-9, atol=0.0)
    assert np.array_equal(body.polar().gauge_gradient(u), point)


def _rotated_matrix(k, seed):
    # a rotated 4-d matrix with eigenvalues logspace(0, k, 4), cond(M) = 10^k
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    return (q * np.logspace(0, k, 4)) @ q.T


def test_a_matrix_eigh_finds_indefinite_is_rejected():
    # Cholesky accepts this matrix, but eigh, whose spectrum gives M^{1/2}
    # and the outer radius, finds a negative least eigenvalue
    matrix = _rotated_matrix(16, 8)
    matrix = 0.5 * (matrix + matrix.T)
    np.linalg.cholesky(matrix)
    assert np.linalg.eigvalsh(matrix)[0] < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvexParameters):
            Ellipsoid(matrix)


@pytest.mark.parametrize("k", [10, 14, 15, 16, 17])
def test_ill_conditioned_ellipsoids_raise_only_symcap_errors(k):
    accepted = 0
    for seed in range(200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                Ellipsoid(_rotated_matrix(k, seed)).support(np.ones(4))
            except SymcapError:
                continue
        accepted += 1
    if k <= 15:
        assert accepted == 200


def test_polytope_subgradient_facet_normal():
    c = cube(4)
    x = np.array([1.0, 0.2, -0.3, 0.1])  # interior point of the facet x0 = 1
    grad = c.gauge_gradient(x)
    assert np.allclose(grad, [1.0, 0, 0, 0], atol=1e-12)
    assert np.sum(grad * x) == pytest.approx(c.gauge(x), abs=1e-12)


def test_polytope_subgradient_deterministic_on_ridge():
    c = cube(2)
    x = np.array([1.0, 1.0])  # corner: two maximizing facets
    g1 = c.gauge_gradient(x)
    g2 = c.gauge_gradient(x.copy())
    assert np.array_equal(g1, g2)


def test_polytope_v_gauge_matches_lp():
    rng = np.random.default_rng(37)
    body = random_symmetric_polytope(rng, 4, 12)
    for _ in range(25):
        x = rng.normal(size=4)
        assert body.gauge(x) == pytest.approx(gauge_scaling_lp(body, x), rel=1e-7)


def test_vertex_built_polytope_keeps_one_row_per_facet():
    # Qhull triangulates every facet; coplanar simplices collapse to one row
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
    body = Polytope(vertices=corners)
    assert body.normals.shape == (8, 4) and body.offsets.shape == (8,)
    x = np.random.default_rng(41).normal(size=(500, 4))
    assert np.allclose(body.gauge(x), cube(4).gauge(x), rtol=1e-12, atol=0.0)
    assert np.allclose(
        body.gauge_gradient(x), cube(4).gauge_gradient(x), rtol=0.0, atol=1e-12
    )
    t = 2.0 * np.pi * np.arange(6) / 6
    hexagon = np.stack([np.cos(t), np.sin(t)], axis=1)
    product = np.array([np.concatenate([a, b]) for a in hexagon for b in hexagon])
    assert len(Polytope(vertices=product).normals) == 12


def test_lp_polyhedral_cases_are_polytopes():
    assert isinstance(lp_ball(1, np.ones(4)), Polytope)
    assert isinstance(lp_ball(np.inf, np.ones(4)), Polytope)
    assert isinstance(lp_ball(2.5, np.ones(4)), LpBall)
    with pytest.raises(NonConvexParameters):
        lp_ball(1, np.ones(10))


def test_constructor_validation():
    with pytest.raises(NonConvexParameters):
        Ellipsoid(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NonConvexParameters):
        lp_ball(0.5, np.ones(4))
    with pytest.raises(NonConvexParameters):
        lp_ball(2.0, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(OriginNotInterior):
        Ellipsoid.from_radii([1.0, 1.0], center=[2.0, 0.0])
    with pytest.raises(OriginNotInterior):
        Polytope(vertices=np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(NonConvexParameters):
        Polytope(vertices=np.array([[1.0, 0.0], [2.0, 0.0]]))


KERNEL_BODIES = BODIES + [
    ("spd-ellipsoid", Ellipsoid(random_spd_matrix(np.random.default_rng(3), 4)))
]


def _kernels(body):
    """(name, library kernel, reference formula) for each per-point kernel."""
    if isinstance(body, Ellipsoid):
        return [
            ("gauge", body.gauge, reference_gauge),
            ("support", body.support, reference_support),
            ("gauge_gradient", body.gauge_gradient, reference_gauge_gradient),
            ("support_point", body.support_point, reference_support_point),
            ("support_and_point", body.support_and_point, reference_support_and_point),
        ]
    if isinstance(body, LpBall):
        return [
            ("gauge", body.gauge, reference_gauge),
            ("support", body.support, reference_support),
            ("gauge_gradient", body.gauge_gradient, reference_gauge_gradient),
            ("support_point", body.support_point, reference_support_point),
            ("support_and_point", body.support_and_point, reference_support_and_point),
        ]
    return [
        ("gauge", body.gauge, reference_gauge),
        ("support", body.support, reference_support),
        ("support_point", body.support_point, reference_support_point),
        ("support_and_point", body.support_and_point, reference_support_and_point),
        *[
            (
                f"smoothed_support_and_point-{p:g}",
                lambda u, p=p: body.smoothed_support_and_point(u, p),
                lambda b, u, p=p: reference_smoothed_support_and_point(b, u, p),
            )
            for p in (40.0, 10240.0)
        ],
    ]


def _as_bytes(result):
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(r).tobytes() for r in parts]


@pytest.mark.parametrize(
    "name,body", KERNEL_BODIES, ids=[n for n, _ in KERNEL_BODIES]
)
def test_kernels_are_bit_identical_to_the_wrapper_formulas(name, body):
    # np.add.reduce, np.maximum.reduce and c.any() in place of np.sum, np.max
    # and np.any: on single vectors and on batches, not one bit may move;
    # signed zeros and exact ties included
    rng = np.random.default_rng(53)
    x = rng.normal(size=(64, body.dim))
    x[1, 0] = 0.0
    x[2, 0] = -0.0
    x[3] = 0.5
    x[4, :2] = [-2.0, 2.0]
    for kernel_name, kernel, reference in _kernels(body):
        assert _as_bytes(kernel(x)) == _as_bytes(reference(body, x)), kernel_name
        for row in x[:8]:
            assert _as_bytes(kernel(row)) == _as_bytes(reference(body, row)), (
                kernel_name
            )


ZERO_RAISES = [
    (name, body, method)
    for name, body in KERNEL_BODIES
    for method in ("gauge_gradient", "support_point", "support_and_point")
]


@pytest.mark.parametrize(
    "name,body,method", ZERO_RAISES, ids=[f"{n}-{m}" for n, _, m in ZERO_RAISES]
)
def test_zero_vector_still_raises(name, body, method):
    batch = np.random.default_rng(59).normal(size=(4, body.dim))
    batch[2] = 0.0
    for x in (np.zeros(body.dim), batch):
        with pytest.raises(GradientUndefinedAtZero):
            getattr(body, method)(x)


TINY_BODIES = [
    ("cube", cube(4)),
    ("l4-ball", lp_ball(4, [1.0, 1.0, 1.0, 1.0])),
    ("ball", ball(4)),
    (
        "shifted-ellipsoid",
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]),
    ),
]
TINY_CASES = [
    (name, body, method)
    for name, body in TINY_BODIES
    for method in ("support_and_point", "gauge_gradient", "boundary_point")
]


@pytest.mark.parametrize(
    "name,body,method", TINY_CASES, ids=[f"{n}-{m}" for n, _, m in TINY_CASES]
)
def test_tiny_rows_raise_or_answer_for_their_direction(name, body, method):
    # a kernel may raise on a row too small to tell from 0 (an underflowing
    # quadratic form or norm, a polytope row whose scores all tie), but it
    # never answers for another direction
    kernel = getattr(body, method)
    with pytest.raises(GradientUndefinedAtZero):
        kernel(np.zeros(4))
    for sign in (1.0, -1.0):
        unit = sign * np.ones(4)
        try:
            tiny = kernel(1e-170 * unit)
        except GradientUndefinedAtZero:
            continue
        if method == "support_and_point":
            (h_tiny, tiny), (h_unit, at_unit) = tiny, kernel(unit)
            assert h_tiny == pytest.approx(1e-170 * h_unit, rel=1e-12)
        else:
            at_unit = kernel(unit)
        assert np.allclose(tiny, at_unit, rtol=1e-12, atol=0.0), (sign, tiny)


def test_small_polytope_rows_tie_within_their_own_scale():
    # polytope near ties are taken relative to the row's own maximum, so a
    # row below scale 1 keeps the answer of its direction at scale 1, not a
    # facet or vertex whose score is merely within 1e-12 of it in absolute terms
    body = cube(4)
    u = 1e-12 * np.array([1.0, 0.1, 0.0, 0.0])
    assert np.array_equal(body.gauge_gradient(u), [1.0, 0.0, 0.0, 0.0])
    h, point = body.support_and_point(u)
    assert h == pytest.approx(1.1e-12, rel=1e-12)
    assert np.array_equal(point, [1.0, 1.0, -1.0, -1.0])
    assert np.array_equal(point, body.support_point(u / 1e-12))


@pytest.mark.parametrize(
    "name,body", KERNEL_BODIES, ids=[n for n, _ in KERNEL_BODIES]
)
def test_support_point_is_the_point_of_support_and_point(name, body):
    # one support-point kernel per body; the support value is defined at 0
    u = np.random.default_rng(61).normal(size=(64, body.dim))
    u[3, 0] = 0.0
    for v in (u, u[0]):
        assert _as_bytes(body.support_point(v)) == _as_bytes(
            body.support_and_point(v)[1]
        )
    assert body.support(np.zeros(body.dim)) == 0.0
    assert np.array_equal(body.support(np.vstack([u[:2], 0 * u[:1]]))[2:], [0.0])


def test_gradient_undefined_at_zero():
    with pytest.raises(GradientUndefinedAtZero):
        ball(4).gauge_gradient(np.zeros(4))
    with pytest.raises(GradientUndefinedAtZero):
        ball(4).boundary_point(np.zeros(4))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ball(4).gauge(np.ones(3))


def test_json_round_trip():
    for name, body in BODIES:
        data = body.to_dict()
        clone = body_from_dict(json.loads(json.dumps(data)))
        rng = np.random.default_rng(43)
        x = rng.normal(size=(100, body.dim))
        assert np.allclose(body.gauge(x), clone.gauge(x), rtol=1e-12), name


def test_body_from_dict_errors():
    with pytest.raises(SpecParseError):
        body_from_dict({"kind": "torus", "dim": 4, "params": {}})
    with pytest.raises(SpecParseError):
        body_from_dict({"kind": "ellipsoid", "dim": 6, "params": {"radii": [1, 1]}})
    with pytest.raises(SpecParseError):
        body_from_dict({"kind": "ellipsoid", "dim": 2, "params": {}})
    with pytest.raises(SpecParseError):
        body_from_dict([1, 2, 3])


@settings(deadline=None, max_examples=300)
@given(spec=edited_specs() | JSON_VALUES)
@example(spec={"kind": "ellipsoid", "dim": 1e400, "params": {"radii": [1, 1]}})
@example(spec={"kind": "ellipsoid", "dim": 2, "params": {"radii": [1, 1], "center": 5}})
@example(spec={"kind": "lp", "dim": 2, "params": {"p": 10**400, "weights": [1, 1]}})
@example(
    spec={"kind": "ellipsoid", "dim": 4, "params": {"radii": [1] * 4, "center": [0, 0]}}
)
@example(
    spec={
        "kind": "ellipsoid",
        "dim": 2,
        "params": {"radii": [1, 1], "center": [np.nan, 0]},
    }
)
@example(spec={"kind": "lp", "dim": 2, "params": {"p": 4, "weights": [5e-324, 1]}})
def test_body_from_dict_builds_or_raises_spec_parse_error(spec):
    # any JSON a body file can hold either builds a body or is a SpecParseError,
    # and a body it builds has a finite, positive gauge on every +-e_i
    try:
        body = body_from_dict(spec)
    except SpecParseError:
        return
    assert body.dim == body.to_dict()["dim"]
    axes = np.vstack([np.eye(body.dim), -np.eye(body.dim)])
    gauges = body.gauge(axes)
    assert np.all(np.isfinite(gauges)) and np.all(gauges > 0), gauges


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 100.0))
def test_gauge_homogeneity_property(seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=4)
    for body in (ball(4), cube(4), Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])):
        assert body.gauge(scale * x) == pytest.approx(
            scale * body.gauge(x), rel=1e-9
        )
