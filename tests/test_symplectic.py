import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symcap.errors import DimensionMismatch, TooFewVertices
from symcap.symplectic import SymplecticFrame, alpha_m

from helpers import regular_polygon, shoelace_area


def test_j_matrix_squares_to_minus_identity():
    for n in (1, 2, 3):
        j = SymplecticFrame(n).j_matrix()
        assert np.array_equal(j @ j, -np.eye(2 * n))


def test_apply_j_matches_matrix():
    frame = SymplecticFrame(3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 6))
    assert np.allclose(frame.apply_j(x), x @ frame.j_matrix().T, atol=1e-14)


def test_omega_antisymmetric_bilinear_nondegenerate():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(1)
    x, y, z = rng.normal(size=(3, 200, 4))
    a, b = rng.normal(size=(2, 200))
    assert np.allclose(frame.omega(x, y), -frame.omega(y, x), atol=1e-12)
    assert np.allclose(
        frame.omega(a[:, None] * x + b[:, None] * z, y),
        a * frame.omega(x, y) + b * frame.omega(z, y),
        atol=1e-10,
    )
    e = np.eye(4)
    assert frame.omega(e[0], e[2]) == 1.0
    assert frame.omega(e[1], e[3]) == 1.0
    assert frame.omega(e[0], e[1]) == 0.0


def test_root_multiply_identities():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=4)
    for m in (2, 3, 4, 6, 7):
        # w^m = identity
        y = x.copy()
        for _ in range(m):
            y = frame.root_multiply(m, 1, y)
        assert np.allclose(y, x, atol=1e-12)
        # the m copies of x under the rotation group sum to zero
        total = sum(frame.root_multiply(m, k, x) for k in range(m))
        assert np.max(np.abs(total)) <= 1e-12
    # multiples of the quarter turn are the signed permutations x, Jx, -x,
    # -Jx, bit for bit; the quarter turn is J itself
    jx = frame.apply_j(x)
    assert frame.root_multiply(4, 1, x).tobytes() == jx.tobytes()
    assert frame.root_multiply(2, 1, x).tobytes() == (-x).tobytes()
    cases = [(4, 0, x), (4, 3, -jx), (4, -1, -jx), (8, 2, jx), (12, -6, -x)]
    for m, k, expected in cases:
        assert frame.root_multiply(m, k, x).tobytes() == expected.tobytes()


def test_root_multiply_preserves_omega():
    frame = SymplecticFrame(3)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 6))
    for m, k in [(3, 1), (5, 2), (8, 3)]:
        assert frame.omega(
            frame.root_multiply(m, k, x), frame.root_multiply(m, k, y)
        ) == pytest.approx(frame.omega(x, y), rel=1e-12)


def test_triangle_action_exact():
    frame = SymplecticFrame(1)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert frame.polygon_action(tri) == 0.5
    assert frame.polygon_action(tri[::-1]) == -0.5


def test_action_translation_invariant():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(4)
    verts = rng.normal(size=(40, 4))
    shift = rng.normal(size=4)
    assert frame.polygon_action(verts + shift) == pytest.approx(
        frame.polygon_action(verts), rel=1e-12, abs=1e-12
    )


def test_action_matches_shoelace_in_each_plane():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(5)
    verts = rng.normal(size=(30, 4))
    planar = verts[:, [0, 2]]  # (q_1, p_1)
    other = verts[:, [1, 3]]  # (q_2, p_2)
    expected = shoelace_area(planar) + shoelace_area(other)
    assert frame.polygon_action(verts) == pytest.approx(expected, rel=1e-12)


def test_regular_polygon_action_vs_shoelace():
    frame = SymplecticFrame(1)
    for m in (3, 4, 5, 6, 12):
        poly = regular_polygon(frame, m, radius=1.0, plane=0)
        assert frame.polygon_action(poly) == pytest.approx(
            shoelace_area(poly), rel=1e-12
        )
        # inscribed-polygon area formula
        assert frame.polygon_action(poly) == pytest.approx(
            0.5 * m * math.sin(2 * math.pi / m), rel=1e-12
        )


def test_unit_side_square_has_unit_action():
    frame = SymplecticFrame(1)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert frame.polygon_action(square) == pytest.approx(1.0, abs=1e-15)
    assert alpha_m(4) == pytest.approx(1.0, abs=1e-15)


def test_action_rotation_invariant():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(6)
    verts = rng.normal(size=(25, 4))
    rotated = frame.root_multiply(12, 5, verts)
    assert frame.polygon_action(rotated) == pytest.approx(
        frame.polygon_action(verts), rel=1e-12
    )


def test_action_batched():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(8, 20, 4))
    vals = frame.polygon_action(batch)
    assert vals.shape == (8,)
    for i in range(8):
        assert vals[i] == pytest.approx(frame.polygon_action(batch[i]), rel=1e-14)


def test_errors():
    frame = SymplecticFrame(2)
    with pytest.raises(TooFewVertices):
        frame.polygon_action(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        frame.omega(np.ones(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        SymplecticFrame(0)
    with pytest.raises(ValueError):
        alpha_m(1)


def test_alpha_m_values():
    assert alpha_m(2) == 0.0
    assert alpha_m(3) == pytest.approx(math.sqrt(3) / 4, rel=1e-15)
    assert alpha_m(4) == pytest.approx(1.0, rel=1e-15)
    assert alpha_m(6) == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-15)
    ms = np.arange(3, 200)
    vals = np.array([alpha_m(int(m)) for m in ms])
    # increases with m and approaches the circle value m^2 / (4 pi)
    assert np.all(np.diff(vals / ms**2) > 0)
    assert vals[-1] / ms[-1] ** 2 == pytest.approx(1 / (4 * math.pi), rel=1e-3)


def test_planar_isoperimetric_bound_for_polygons():
    # |area| <= (alpha_m / m^2) * (perimeter)^2 with equality iff regular,
    # which implies the looser edge-sum form (alpha_m / m) * (sum |v_i|)^2
    frame = SymplecticFrame(1)
    rng = np.random.default_rng(9)
    for m in (3, 4, 5, 6, 8):
        verts = rng.normal(size=(500, m, 2))
        areas = np.abs(frame.polygon_action(verts))
        edges = np.roll(verts, -1, axis=1) - verts
        perims = np.sum(np.linalg.norm(edges, axis=2), axis=1)
        tight = alpha_m(m) / m**2 * perims**2
        assert np.all(areas <= tight * (1 + 1e-12))
        assert np.all(areas <= alpha_m(m) / m * perims**2 * (1 + 1e-12))
        reg = regular_polygon(frame, m, radius=1.0, plane=0)
        p_reg = m * np.linalg.norm(reg[1] - reg[0])
        assert abs(frame.polygon_action(reg)) == pytest.approx(
            alpha_m(m) / m**2 * p_reg**2, rel=1e-12
        )


def test_isoperimetric_edge_sum_bound_in_four_dimensions():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(10)
    for m in (3, 5, 8):
        verts = rng.normal(size=(500, m, 4))
        areas = np.abs(frame.polygon_action(verts))
        edges = np.roll(verts, -1, axis=1) - verts
        edge_sum = np.sum(np.linalg.norm(edges, axis=2), axis=1)
        assert np.all(areas <= alpha_m(m) / m * edge_sum**2 * (1 + 1e-12))


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(3, 12),
    k=st.integers(-24, 24),
)
def test_root_multiply_group_law(seed, m, k):
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=4)
    one_shot = frame.root_multiply(m, k, x)
    stepped = frame.root_multiply(m, k - 1, frame.root_multiply(m, 1, x))
    assert np.allclose(one_shot, stepped, atol=1e-10)
