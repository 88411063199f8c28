import json
import math

import numpy as np
import pytest

from symcap import capacity
from symcap.capacity import OptimizerConfig, clarke_minimize
from symcap.errors import (
    BodyNotSymmetric,
    BodyNotSymmetricUnderW,
    ZeroAction,
)
from symcap.geometry import Ellipsoid, LpBall, Polytope, ball, cube, lp_ball
from symcap.loops import DiscreteLoop
from symcap.capacity import clarke_edge_norm
from symcap.symmetry import symmetrize_central, symmetrize_mfold
from symcap.symplectic import SymplecticFrame

from helpers import (
    central_residual,
    nonzero_action_loop,
    reference_symmetrize_central,
    regular_polygon,
)


def circle(n=128, radius=1.0, center=None, frame=None):
    frame = frame or SymplecticFrame(1)
    pts = regular_polygon(frame, n, radius=radius, plane=0)
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return DiscreteLoop(frame, pts)


def test_central_fixed_point():
    loop = circle(128)
    out = symmetrize_central(loop, ball(2))
    assert out.normalized_post_length() == pytest.approx(
        out.normalized_pre_length(), rel=1e-12
    )
    assert out.residuals["symmetry"] <= 1e-12
    assert out.residuals["action_additivity"] <= 1e-12
    assert out.post_action == pytest.approx(1.0, rel=1e-12)


def test_central_translated_circle_recovers_symmetric_length():
    # an off-center circle is not symmetric, but its symmetrization is a
    # centered circle again: normalized length 2 sqrt(pi) either way
    loop = circle(256, center=[0.8, -0.3])
    out = symmetrize_central(loop, ball(2))
    assert central_residual(out.output.vertices) <= 1e-9
    assert out.normalized_post_length() == pytest.approx(
        2 * math.sqrt(math.pi), rel=1e-2
    )
    assert out.normalized_post_length() <= out.normalized_pre_length() + 1e-9


def test_central_bulk_random_loops_never_lengthen():
    rng = np.random.default_rng(0)
    frame = SymplecticFrame(2)
    bodies = [ball(4), Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]), cube(4)]
    for i in range(100):
        loop = nonzero_action_loop(rng, frame, n_pts=40)
        body = bodies[i % len(bodies)]
        out = symmetrize_central(loop, body)
        assert out.residuals["symmetry"] == 0.0  # W = -I is exact
        assert out.residuals["action_additivity"] <= 1e-9
        assert (
            out.normalized_post_length()
            <= out.normalized_pre_length() * (1 + 1e-12) + 1e-9
        )
        assert out.post_action == pytest.approx(1.0, rel=1e-9)
        assert central_residual(out.output.vertices) <= 1e-9


def test_central_orientation_normalization():
    frame = SymplecticFrame(1)
    loop = DiscreteLoop(frame, regular_polygon(frame, 64)[::-1])  # negative action
    assert loop.action() < 0
    out = symmetrize_central(loop, ball(2))
    assert out.pre_action > 0
    assert out.post_action == pytest.approx(1.0, rel=1e-12)


def test_mfold_bulk_identity_and_invariance():
    rng = np.random.default_rng(1)
    frame = SymplecticFrame(2)
    body = ball(4)
    for i in range(60):
        m = (2, 3, 4, 6)[i % 4]
        loop = nonzero_action_loop(rng, frame, n_pts=36)
        out = symmetrize_mfold(loop, body, m)
        # the exact decomposition was already verified internally; re-check
        # the reported records independently
        for rec in out.decomposition:
            predicted = m * rec["closed_action"] + rec["polygon_term"]
            assert rec["candidate_action"] == pytest.approx(
                predicted, rel=1e-9, abs=1e-9
            )
        actions = [r["candidate_action"] for r in out.decomposition]
        best = max(actions)
        assert best >= out.pre_action - 1e-8
        assert out.residuals["symmetry"] <= 1e-9
        assert out.post_action == pytest.approx(1.0, rel=1e-9)
        # the output is the checked candidate, the first of largest action,
        # scaled to unit action
        assert out.chosen_index == int(np.argmax(actions))
        candidate = out.output.vertices * math.sqrt(actions[out.chosen_index])
        assert frame.polygon_action(candidate) == pytest.approx(best, rel=1e-12)
        # exact invariance of the output under the rotation
        for v in (out.output.vertices, candidate):
            block = len(v) // m
            assert np.max(
                np.abs(np.roll(v, -block, axis=0) - frame.root_multiply(m, 1, v))
            ) <= 1e-9
            if m in (2, 4):  # W = -I and W = J are signed permutations
                assert out.residuals["symmetry"] == 0.0
                assert np.array_equal(
                    np.roll(v, -block, axis=0), frame.root_multiply(m, 1, v)
                )


def test_mfold_two_equals_central():
    # m = 2 must reproduce the arc-doubling construction it replaced
    rng = np.random.default_rng(2)
    frame = SymplecticFrame(2)
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    for _ in range(10):
        loop = nonzero_action_loop(rng, frame, n_pts=30)
        ref_index, ref_loop = reference_symmetrize_central(loop, body)
        via_mfold = symmetrize_mfold(loop, body, 2)
        assert via_mfold.chosen_index == ref_index
        ref_edges = np.roll(ref_loop.vertices, -1, axis=0) - ref_loop.vertices
        ref_length = float(np.sum(clarke_edge_norm(body, ref_edges)))
        assert via_mfold.normalized_post_length() == pytest.approx(
            ref_length, rel=1e-9
        )
        assert np.allclose(via_mfold.output.vertices, ref_loop.vertices, atol=1e-9)
        assert symmetrize_central(loop, body).to_dict() == via_mfold.to_dict()


@pytest.mark.parametrize("m", [3, 4, 6])
def test_mfold_reports_exact_action_additivity(m):
    # the chord-closed segment actions plus the polygon of the cut points
    # add up to the input action
    rng = np.random.default_rng(7)
    frame = SymplecticFrame(2)
    for _ in range(20):
        loop = nonzero_action_loop(rng, frame, n_pts=36)
        out = symmetrize_mfold(loop, ball(4), m)
        assert out.residuals["action_additivity"] <= 1e-12 * max(
            1.0, abs(out.pre_action)
        )


def test_mfold_circle_is_fixed_point():
    for m in (3, 4, 5):
        loop = circle(120)
        out = symmetrize_mfold(loop, ball(2), m)
        assert out.normalized_post_length() == pytest.approx(
            out.normalized_pre_length(), rel=1e-12
        )


def test_mfold_idempotent():
    rng = np.random.default_rng(3)
    frame = SymplecticFrame(2)
    loop = nonzero_action_loop(rng, frame, n_pts=33)
    once = symmetrize_mfold(loop, ball(4), 3)
    twice = symmetrize_mfold(once.output, ball(4), 3)
    assert twice.normalized_post_length() == pytest.approx(
        once.normalized_post_length(), rel=1e-9
    )
    assert twice.residuals["symmetry"] <= 1e-12


def test_mfold_never_lengthens_with_cube_norm():
    # the cube is invariant under the quarter turn, so m = 4 and m = 2 apply
    rng = np.random.default_rng(4)
    frame = SymplecticFrame(2)
    for m in (2, 4):
        for _ in range(10):
            loop = nonzero_action_loop(rng, frame, n_pts=28)
            out = symmetrize_mfold(loop, cube(4), m)
            assert (
                out.normalized_post_length()
                <= out.normalized_pre_length() * (1 + 1e-12) + 1e-9
            )


def hexagon_product():
    """The product of regular hexagons in the (q_1, p_1) and (q_2, p_2)
    planes, with vertices at multiples of 60 degrees in each."""
    t = np.pi / 3 * np.arange(6)
    a, b = np.meshgrid(t, t, indexing="ij")
    a, b = a.ravel(), b.ravel()
    vertices = np.column_stack([np.cos(a), np.cos(b), np.sin(a), np.sin(b)])
    return Polytope(vertices=vertices)


ORDERS = (1, 2, 3, 4, 6)


@pytest.mark.parametrize(
    "body,invariant_orders",
    [
        (ball(3), (1, 2)),  # odd dimension: W undefined beyond -I
        # per-plane round, cross-plane anisotropic: every m
        (Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]), ORDERS + (5, 7)),
        # anisotropic within a plane: the half turn only
        (Ellipsoid.from_radii([1.0, 1.0, 2.0, 2.0]), (1, 2)),
        (Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]), (1,)),
        (ball(4), ORDERS + (7,)),
        (lp_ball(4.0, np.ones(4)), (1, 2, 4)),
        (LpBall(2.0, [1.0, 2.0, 1.0, 2.0]), ORDERS),
        (LpBall(2.0, [1.0, 1.0, 2.0, 2.0]), (1, 2)),
        (cube(4), (1, 2, 4)),
        (hexagon_product(), (1, 2, 3, 6)),
    ],
    ids=[
        "ball3",
        "ellipsoid-1-2-1-2",
        "ellipsoid-1-1-2-2",
        "shifted-ellipsoid-1-2",
        "ball4",
        "l4ball",
        "l2-paired",
        "l2-unpaired",
        "cube4",
        "hexagon-product",
    ],
)
def test_is_invariant_per_class(body, invariant_orders):
    for m in sorted(set(ORDERS) | set(invariant_orders)):
        assert body.is_invariant(m) == (m in invariant_orders), m
    assert body.is_symmetric == body.is_invariant(2)


def test_mfold_on_hexagon_product_needs_w_invariance():
    rng = np.random.default_rng(6)
    frame = SymplecticFrame(2)
    loop = nonzero_action_loop(rng, frame, n_pts=24)
    hexagons = hexagon_product()
    out = symmetrize_mfold(loop, hexagons, 3)
    assert set(out.residuals) == {"action_additivity", "symmetry"}
    with pytest.raises(BodyNotSymmetricUnderW):
        symmetrize_mfold(loop, hexagons, 4)


def test_error_taxonomy():
    rng = np.random.default_rng(5)
    frame = SymplecticFrame(2)
    loop = nonzero_action_loop(rng, frame, n_pts=24)
    shifted = Ellipsoid.from_radii(
        [1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]
    )
    with pytest.raises(BodyNotSymmetric):
        symmetrize_central(loop, shifted)
    plane_aniso = Ellipsoid.from_radii([1.0, 1.0, 2.0, 2.0])
    with pytest.raises(BodyNotSymmetricUnderW):
        symmetrize_mfold(loop, plane_aniso, 3)
    symmetrize_mfold(loop, plane_aniso, 2)  # the half turn is always fine
    flat = DiscreteLoop(
        SymplecticFrame(1), np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    )
    with pytest.raises(ZeroAction):
        symmetrize_central(flat, ball(2))
    with pytest.raises(ZeroAction):
        symmetrize_mfold(flat, ball(2), 3)
    with pytest.raises(ValueError):
        symmetrize_mfold(loop, ball(4), 1)


def test_outcome_serialization():
    loop = circle(32)
    out = symmetrize_central(loop, ball(2))
    text = json.dumps(out.to_dict())
    data = json.loads(text)
    assert data["chosen_index"] in (0, 1)
    assert len(data["decomposition"]) == 2


@pytest.mark.parametrize(
    "body",
    [ball(4), Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])],
    ids=["ball4", "ellipsoid-1-2"],
)
def test_smooth_minimizer_is_nearly_centrally_symmetric(monkeypatch, body):
    # for smooth bodies the minimizing loop is centrally symmetric; the
    # unrestricted optimizer should land on one up to discretization noise,
    # so the solve is forced onto all N free vertices
    with monkeypatch.context() as patch:
        patch.setattr(capacity, "symmetry_order", lambda body, config: 1)
        res = clarke_minimize(body, OptimizerConfig(points=128, restarts=4, seed=9))
    assert res.diagnostics["symmetry_order"] == 1
    v = res.witness.vertices
    defect = central_residual(v - v.mean(axis=0))
    assert defect <= 1e-2 * (2.0 * body.outer_radius())
