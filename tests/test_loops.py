import math

import numpy as np
import pytest

from symcap.errors import (
    DegenerateLoop,
    DimensionMismatch,
    InvalidParameter,
    OptimizerDidNotConverge,
    SpecParseError,
    TooFewVertices,
)
from symcap import loops
from symcap.geometry import Ellipsoid, ball, cube, lp_ball
from symcap.loops import (
    DiscreteLoop,
    containment_score,
    gauge_length,
    resample_polyline,
    split_closed_at_fractions,
)
from symcap.symplectic import SymplecticFrame

from helpers import (
    fourier_loop,
    reference_resample_polyline,
    reference_split_closed_at_fractions,
    regular_polygon,
)


def circle_loop(n=512, radius=1.0, frame=None):
    frame = frame or SymplecticFrame(1)
    return DiscreteLoop(frame, regular_polygon(frame, n, radius=radius, plane=0))


def test_construction_validation():
    frame = SymplecticFrame(2)
    with pytest.raises(TooFewVertices):
        DiscreteLoop(frame, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        DiscreteLoop(frame, np.zeros((5, 3)))
    with pytest.raises(DimensionMismatch):
        DiscreteLoop(frame, np.zeros(4))
    with pytest.raises(SpecParseError):
        DiscreteLoop.from_dict({"dim": 3, "vertices": [[0, 0, 0]] * 4})
    with pytest.raises(SpecParseError):
        DiscreteLoop.from_dict({"vertices": [[0, 0]] * 4})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vertices_are_invalid(bad):
    frame = SymplecticFrame(2)
    v = regular_polygon(frame, 16)
    v[3, 1] = bad
    with pytest.raises(InvalidParameter, match="finite"):
        DiscreteLoop(frame, v)
    # a loop file keeps its parse error
    with pytest.raises(SpecParseError, match="finite"):
        DiscreteLoop.from_dict({"dim": 4, "vertices": v.tolist()})


def test_circle_action_inscribed_formula():
    n = 512
    loop = circle_loop(n)
    exact_inscribed = 0.5 * n * math.sin(2 * math.pi / n)
    assert loop.action() == pytest.approx(exact_inscribed, rel=1e-12)
    assert loop.action() == pytest.approx(math.pi, abs=1e-4)
    assert loop.action() < math.pi  # inscribed polygons lose area


def test_action_orientation_and_translation():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(0)
    v = fourier_loop(rng, frame, n_pts=40)
    loop = DiscreteLoop(frame, v)
    reversed_loop = DiscreteLoop(frame, v[::-1])
    assert reversed_loop.action() == pytest.approx(-loop.action(), rel=1e-12)
    shifted = DiscreteLoop(frame, v + np.array([1.0, -2.0, 0.5, 3.0]))
    assert shifted.action() == pytest.approx(loop.action(), rel=1e-10, abs=1e-12)


def test_scaling_homogeneity():
    frame = SymplecticFrame(1)
    loop = circle_loop(64)
    body = ball(2)
    for s in (0.5, 2.0, 7.3):
        scaled = loop.scaled(s)
        assert scaled.action() == pytest.approx(s**2 * loop.action(), rel=1e-12)
        assert gauge_length(scaled, body) == pytest.approx(
            s * gauge_length(loop, body), rel=1e-12
        )


def test_square_gauge_lengths():
    frame = SymplecticFrame(1)
    square = DiscreteLoop(
        frame, np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    )
    assert gauge_length(square, cube(2)) == pytest.approx(8.0, abs=1e-12)
    assert gauge_length(square, ball(2)) == pytest.approx(8.0, abs=1e-12)
    assert gauge_length(square, ball(2, 2.0)) == pytest.approx(4.0, abs=1e-12)


def test_forth_and_back_edge_length_exact():
    # traverse half an edge of the cube, then back: lengths 1 + 1 + 2
    frame = SymplecticFrame(2)
    v1 = np.array([1.0, 1.0, 1.0, 1.0])
    v2 = np.array([1.0, 1.0, 1.0, -1.0])
    mid = 0.5 * (v1 + v2)
    loop = DiscreteLoop(frame, np.vstack([v1, mid, v2]))
    assert gauge_length(loop, cube(4)) == 4.0
    assert loop.action() == 0.0


def test_gauge_length_requires_normalized_loop():
    frame = SymplecticFrame(1)
    dup = DiscreteLoop(frame, np.array([[1.0, 0], [1.0, 0], [0, 1.0], [-1.0, 0]]))
    with pytest.raises(DegenerateLoop):
        gauge_length(dup, ball(2))
    cleaned = dup.normalize()
    assert len(cleaned) == 3
    assert gauge_length(cleaned, ball(2)) > 0
    with pytest.raises(DegenerateLoop):
        DiscreteLoop(frame, np.ones((5, 2))).normalize()
    with pytest.raises(DimensionMismatch):
        gauge_length(circle_loop(16), ball(4))


def test_resample_recovers_corners_and_preserves_metrics():
    frame = SymplecticFrame(1)
    square = DiscreteLoop(
        frame, np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    )
    body = ball(2)
    # the closed loop as an open path back to its first vertex, whose
    # repeated endpoint is dropped
    path = np.vstack([square.vertices, square.vertices[:1]])
    fine = DiscreteLoop(frame, resample_polyline(path, body.gauge, 65)[:-1])
    assert len(fine) == 64
    # corners sit at multiples of the quarter length, so they are all kept
    for corner in square.vertices:
        d = np.min(np.linalg.norm(fine.vertices - corner, axis=1))
        assert d <= 1e-12
    assert gauge_length(fine, body) == pytest.approx(
        gauge_length(square, body), rel=1e-9
    )
    assert fine.action() == pytest.approx(square.action(), rel=1e-9)
    assert np.allclose(fine.vertices[0], square.vertices[0])


def test_resample_random_loop_preserves_length_within_refinement():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(1)
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    loop = DiscreteLoop(frame, fourier_loop(rng, frame, n_pts=32))
    base = gauge_length(loop, body)
    path = np.vstack([loop.vertices, loop.vertices[:1]])
    fine = DiscreteLoop(frame, resample_polyline(path, body.gauge, 481)[:-1])
    # resampling can only cut corners, so the length never grows
    val = gauge_length(fine.normalize(), body)
    assert val <= base + 1e-9
    assert val >= base - 1e-2 * base


def test_split_into_many_pieces_recombines():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(2)
    body = ball(4)
    loop = DiscreteLoop(frame, fourier_loop(rng, frame, n_pts=48))
    pieces = split_closed_at_fractions(loop.vertices, body.gauge, 5)
    assert len(pieces) == 5
    total = gauge_length(loop, body)
    lens = [float(np.sum(body.gauge(p[1:] - p[:-1]))) for p in pieces]
    assert np.allclose(lens, total / 5, rtol=1e-9)
    rebuilt = np.vstack([p[:-1] for p in pieces])
    rebuilt_loop = DiscreteLoop(frame, rebuilt).normalize()
    assert gauge_length(rebuilt_loop, body) == pytest.approx(total, rel=1e-9)
    assert rebuilt_loop.action() == pytest.approx(loop.action(), rel=1e-9)


def test_arclength_cuts_are_bitwise_the_references():
    # the vectorized cut must reproduce the vertex-by-vertex walks exactly,
    # also where repeated vertices leave zero-length edges
    rng = np.random.default_rng(11)
    norms = (ball(4).gauge, cube(4).gauge, lambda e: np.linalg.norm(e, axis=-1))
    for k in range(90):
        v = rng.normal(size=((5, 17, 65)[k % 3], 4))
        if k % 2:
            dup = rng.choice(len(v) - 1, size=len(v) // 4, replace=False)
            v[dup + 1] = v[dup]
        norm_fn = norms[k % 3]
        count = (3, 16, 64)[(k // 3) % 3]
        out = resample_polyline(v, norm_fn, count)
        ref = reference_resample_polyline(v, norm_fn, count)
        assert out.tobytes() == ref.tobytes()
        for pieces in (2, 3, 5):
            out = split_closed_at_fractions(v, norm_fn, pieces)
            ref = reference_split_closed_at_fractions(v, norm_fn, pieces)
            assert [p.tobytes() for p in out] == [p.tobytes() for p in ref]


def test_containment_tiny_triangle():
    frame = SymplecticFrame(1)
    tri = 1e-3 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]) + 0.3
    sigma = containment_score(DiscreteLoop(frame, tri), ball(2))
    assert sigma <= 2e-3


def test_containment_forth_and_back_edge():
    frame = SymplecticFrame(2)
    v1 = np.array([1.0, 1.0, 1.0, 1.0])
    v2 = np.array([1.0, 1.0, 1.0, -1.0])
    loop = DiscreteLoop(frame, np.vstack([v1, 0.5 * (v1 + v2), v2]))
    details = containment_score(loop, cube(4), return_details=True)
    assert details.method == "lp"
    assert details.sigma == pytest.approx(1.0, abs=1e-9)


def test_containment_circle_in_ball():
    loop = circle_loop(128)
    sigma = containment_score(loop, ball(2))
    assert sigma == pytest.approx(1.0, abs=1e-9)
    shifted = DiscreteLoop(loop.frame, loop.vertices + np.array([0.7, -0.4]))
    assert containment_score(shifted, ball(2)) == pytest.approx(1.0, abs=1e-7)


def test_containment_homogeneity():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(3)
    pts = fourier_loop(rng, frame, n_pts=24)
    loop = DiscreteLoop(frame, pts)
    for body in (cube(4), ball(4)):
        s1 = containment_score(loop, body, rng=np.random.default_rng(0))
        s3 = containment_score(loop.scaled(3.0), body, rng=np.random.default_rng(0))
        assert s3 == pytest.approx(3.0 * s1, rel=1e-6)


def test_containment_ellipsoid_matches_lp_on_polytope_points():
    # cross-check SLSQP against the exact LP by using the same point set
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(4)
    pts = fourier_loop(rng, frame, n_pts=20)
    loop = DiscreteLoop(frame, pts)
    sigma_lp = containment_score(loop, cube(4))
    sigma_slsqp = containment_score(
        loop, lp_ball(40.0, np.ones(4)), rng=np.random.default_rng(1)
    )
    # an l^40 ball is a rounded cube: gauges differ by at most d^(1/40)
    assert sigma_slsqp == pytest.approx(sigma_lp, rel=4 ** (1 / 40.0) - 1 + 1e-6)


def test_containment_smooth_certificate_is_tight():
    # SLSQP alone certifies gaps near 1e-9; the root solve of the tie system
    # is what brings the certified gap down to rounding level
    rng = np.random.default_rng(11)
    bodies = (
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]),
        lp_ball(4.0, np.ones(4)),
        Ellipsoid.from_radii(
            [1.0, 1.2, 1.5, 1.0, 1.2, 1.5], center=[0.1, 0.0, -0.2, 0.0, 0.05, 0.0]
        ),
        lp_ball(4.0, np.ones(6)),
    )
    for body in bodies:
        d = body.dim
        for _ in range(10):
            pts = rng.normal(size=(64, d)) * rng.uniform(0.5, 2.0) + rng.normal(size=d)
            details = containment_score(pts, body, return_details=True)
            assert details.method == "slsqp"
            assert details.gap <= 1e-12 * max(1.0, details.sigma)
            values = body.gauge(pts - details.translation)
            assert details.sigma == pytest.approx(values.max(), rel=1e-15)


def test_containment_keeps_slsqp_point_when_more_than_d_plus_1_tie(monkeypatch):
    # all 32 vertices of a circle polygon tie, so the tie system has no
    # unique multipliers: the polish is skipped and SLSQP's point stands
    def no_root(*args, **kwargs):
        raise AssertionError("the tie polish ran")

    monkeypatch.setattr(loops, "root", no_root)
    details = containment_score(circle_loop(32), ball(2), return_details=True)
    assert details.sigma == pytest.approx(1.0, abs=1e-7)
    assert np.abs(details.translation).max() <= 1e-7
    assert details.gap <= 1e-7


def test_containment_unreachable_gap_raises(monkeypatch):
    loop = circle_loop(32)
    monkeypatch.setattr(loops, "_GAP_TOL", 1e-18)
    with pytest.raises(OptimizerDidNotConverge) as info:
        containment_score(loop, ball(2))
    assert info.value.best == pytest.approx(1.0, abs=1e-6)
    assert info.value.gap > 1e-18


def test_sigma_normalized_loops_meet_general_length_bound():
    # rescaling any loop by 1 / sigma pins sigma = 1, where the general
    # lower bound length >= 2 + 2/d applies
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3):
        frame = SymplecticFrame(n)
        d = 2 * n
        bodies = [ball(d), cube(d)]
        if d == 4:
            bodies.append(Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]))
        for body in bodies:
            for _ in range(5):
                cases.append((frame, body, fourier_loop(rng, frame, n_pts=28)))
    for frame, body, pts in cases:
        loop = DiscreteLoop(frame, pts)
        sigma = containment_score(loop, body, rng=rng)
        normalized = loop.scaled(1.0 / sigma)
        length = gauge_length(normalized, body)
        d = frame.dim
        assert length >= 2 + 2 / d - 1e-6, (body, length)


def test_loop_json_round_trip():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(6)
    loop = DiscreteLoop(frame, fourier_loop(rng, frame, n_pts=12))
    clone = DiscreteLoop.from_dict(loop.to_dict())
    assert clone.frame.n == 2
    assert np.array_equal(clone.vertices, loop.vertices)
