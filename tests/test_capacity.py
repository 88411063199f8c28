import importlib.resources
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from symcap import capacity
from symcap.capacity import (
    MAX_POINTS,
    MAX_RESTARTS,
    METHOD_CLARKE,
    METHOD_ELLIPSOID_EIGEN,
    METHOD_EXACT_SPECTRAL,
    METHOD_EXACT_VERTEX_PAIR,
    METHOD_MULTISTART,
    SMOOTHING_LEVELS,
    CapacityResult,
    OptimizerConfig,
    c_j,
    calibration_self_test,
    clarke_edge_norm,
    clarke_functional,
    clarke_minimize,
    ellipsoid_ehz_exact,
    frame_for,
    symmetry_order,
    _edge_gradient,
    _functional_with_grad,
    _levels,
    _refine,
    _to_edges,
    _to_vertices,
)
from symcap.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonConvexParameters,
    ZeroActionStart,
)
from symcap.geometry import (
    Ellipsoid,
    Polytope,
    ball,
    body_from_dict,
    cube,
    lp_ball,
)
from symcap.loops import DiscreteLoop, containment_score
from symcap.symplectic import SymplecticFrame
from symcap.verify import _derived_seed

from helpers import (
    fixture_bodies,
    fourier_loop,
    random_spd_matrix,
    random_symmetric_polytope,
    random_symplectic_matrix,
    reference_c_j_ascent,
    reference_functional_with_grad,
    reference_restart_values,
    regular_polygon,
)

BODIES = fixture_bodies()


@pytest.fixture(scope="module")
def clarke_ball2():
    return clarke_minimize(ball(2), OptimizerConfig(points=64, restarts=3, seed=1))


@pytest.fixture(scope="module")
def clarke_ball4():
    return clarke_minimize(ball(4), OptimizerConfig(points=96, restarts=4, seed=2))


@pytest.fixture(scope="module")
def clarke_e12():
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    return body, clarke_minimize(body, OptimizerConfig(points=128, restarts=4, seed=3))


def test_calibration_self_test_idempotent():
    calibration_self_test()
    calibration_self_test()


def test_circle_functional_matches_polygon_closed_form():
    # the inscribed regular N-gon evaluates to exactly N tan(pi/N)
    frame = SymplecticFrame(1)
    for n in (16, 64, 256):
        poly = regular_polygon(frame, n, radius=1.0, plane=0)
        assert clarke_functional(ball(2), poly) == pytest.approx(
            n * math.tan(math.pi / n), rel=1e-12
        )
    # and the same polygon pushed into a coordinate plane of R^4
    frame4 = SymplecticFrame(2)
    poly4 = regular_polygon(frame4, 256, radius=1.0, plane=1)
    assert clarke_functional(ball(4), poly4) == pytest.approx(
        256 * math.tan(math.pi / 256), rel=1e-12
    )


def test_functional_scale_and_translation_invariance():
    frame = SymplecticFrame(2)
    rng = np.random.default_rng(0)
    loop = fourier_loop(rng, frame, n_pts=48)
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    base = clarke_functional(body, loop)
    assert clarke_functional(body, 3.7 * loop) == pytest.approx(base, rel=1e-12)
    assert clarke_functional(body, loop + np.array([0.3, -1.0, 2.0, 0.7])) == (
        pytest.approx(base, rel=1e-10)
    )


def test_zero_action_raises():
    forth_back = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]]
    )
    with pytest.raises(ZeroActionStart):
        clarke_functional(ball(4), forth_back)


def test_a_start_without_positive_action_raises(monkeypatch):
    # every start is drawn once with positive action; one that is not is a
    # fault in the start, not something to redraw or flip
    init = capacity._planar_ellipse_init

    def reversed_init(*args):
        return init(*args)[::-1]

    monkeypatch.setattr(capacity, "_planar_ellipse_init", reversed_init)
    with pytest.raises(ZeroActionStart):
        clarke_minimize(ball(4), OptimizerConfig(points=16, restarts=1))


def test_edge_norm_is_support_of_rotated_edge():
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    frame = frame_for(body)
    rng = np.random.default_rng(1)
    v = rng.normal(size=(20, 4))
    expected = body.support(-frame.apply_j(v))
    assert np.allclose(clarke_edge_norm(body, v), expected, rtol=1e-12)


def test_functional_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for body in [
        ball(4),
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]),
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]),
        Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5]),
        cube(4),  # smoothed support
        lp_ball(4.0, np.ones(4)),
    ]:
        frame = frame_for(body)
        # on a J-invariant body also the reduced objective on the 12 free
        # vertices of a loop with x_(k + 12) = W x_k, W = -I or J; the cube
        # at the first and the last smoothing level
        orders = (1, 2, 4) if body.is_invariant(4) else (1,)
        exponents = (
            (None,) if body.is_smooth else (SMOOTHING_LEVELS[0], SMOOTHING_LEVELS[-1])
        )
        for m, p in itertools.product(orders, exponents):
            loop = fourier_loop(rng, frame, n_pts=12 * m)
            blocks = np.split(loop, m)
            x = np.mean(
                [frame.root_multiply(m, -j, b) for j, b in enumerate(blocks)], axis=0
            )
            val, grad = _functional_with_grad(body, x, m, p)
            full = np.vstack([frame.root_multiply(m, j, x) for j in range(m)])
            full_val, full_grad = _functional_with_grad(body, full, 1, p)
            assert val == pytest.approx(full_val, rel=1e-12)
            assert np.allclose(grad, m * full_grad[:12], rtol=1e-9, atol=1e-12)
            h = 1e-6
            for _ in range(6):
                i = rng.integers(0, x.shape[0])
                j = rng.integers(0, body.dim)
                xp = x.copy()
                xm = x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fp, _ = _functional_with_grad(body, xp, m, p)
                fm, _ = _functional_with_grad(body, xm, m, p)
                fd = (fp - fm) / (2 * h)
                assert fd == pytest.approx(grad[i, j], rel=1e-4, abs=1e-7)


# a center in general position: there the order in which BLAS sums u @ c
# shows in the value, so a transposed u is caught
GUARD_BODIES = BODIES + [
    (
        "shifted-ellipsoid-general",
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.3, 0.2, -0.2, 0.1]),
    )
]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name,body", GUARD_BODIES, ids=[n for n, _ in GUARD_BODIES])
def test_functional_with_grad_is_bitwise_the_reference(name, body, order):
    # precomputed shifts and the signed column permutation must reproduce the
    # np.roll / apply_j / polygon_action formulation exactly, whatever the
    # memory layout of the loop
    frame = frame_for(body)
    rng = np.random.default_rng(5)
    for k in range(60):
        x = fourier_loop(rng, frame, n_pts=(3, 12, 128)[k % 3])
        if k % 2 and body.dim >= 4:
            x[:, 1] = 0.0  # zero edge components: the signs of zeros must agree
        val, grad = _functional_with_grad(body, np.asarray(x, order=order), 1, 40.0)
        ref_val, ref_grad = reference_functional_with_grad(body, frame, x, 40.0)
        assert val.hex() == ref_val.hex()
        assert grad.tobytes() == ref_grad.tobytes()


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(points=2)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    # every solve keeps the body's symmetry, and an odd count solves at m = 1
    with pytest.raises(ValueError):
        OptimizerConfig(symmetric=False)
    assert OptimizerConfig(points=31).points == 31
    with pytest.raises(ValueError):
        OptimizerConfig(points=MAX_POINTS + 1)
    assert OptimizerConfig(points=MAX_POINTS).points == MAX_POINTS
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=MAX_RESTARTS + 1)
    assert OptimizerConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    # counts and seeds are integers; numpy integers are accepted as ints
    for bad in (
        dict(points=16.5),
        dict(points=1e3),
        dict(restarts=2.5),
        dict(seed=1.5),
        dict(seed="0"),
        dict(seed=-1),
    ):
        with pytest.raises(InvalidParameter):
            OptimizerConfig(**bad)
    config = OptimizerConfig(
        seed=np.uint32(7), restarts=np.int64(2), points=np.int32(16)
    )
    assert (config.seed, config.restarts, config.points) == (7, 2, 16)
    assert all(type(v) is int for v in (config.seed, config.restarts, config.points))


SIMPLEX4 = Polytope(vertices=np.vstack([np.eye(4), np.full((1, 4), -0.25)]))


@pytest.mark.parametrize(
    "body,order",
    [
        (ball(4), 4),
        (Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]), 4),
        (cube(4), 4),
        (lp_ball(1, np.ones(4)), 4),
        (lp_ball(4.0, np.ones(4)), 4),
        (Ellipsoid.from_radii([1.0, 2.0, 2.0, 1.0]), 2),
        (lp_ball(np.inf, np.array([1.0, 2.0, 3.0, 4.0])), 2),
        (lp_ball(4.0, np.array([1.0, 2.0, 1.0, 1.0])), 2),
        (SIMPLEX4, 1),
        (Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]), 1),
    ],
    ids=[
        "ball4",
        "ellipsoid-1-2-1-2",
        "cube4",
        "cross4",
        "l4ball",
        "ellipsoid-1-2-2-1",
        "box-1-2-3-4",
        "l4ball-1-2-1-1",
        "simplex4",
        "shifted-ellipsoid",
    ],
)
def test_symmetry_order_per_body_class(body, order):
    assert symmetry_order(body, OptimizerConfig(points=64)) == order
    # the order divides the point count
    assert symmetry_order(body, OptimizerConfig(points=66)) == min(order, 2)
    assert symmetry_order(body, OptimizerConfig(points=63)) == 1


# the solver's edge variables at every symmetry order: (body, points, m)
EDGE_CASES = [
    (SIMPLEX4, 33, 1),
    (lp_ball(4, [1.0, 2.0, 1.0, 3.0]), 64, 2),
    (cube(4), 64, 4),
    (lp_ball(4, np.ones(4)), 64, 4),
]
EDGE_IDS = ["simplex4", "l4ball-1-2-1-3", "cube4", "l4ball"]


def _free_vertices(body, points, m, seed):
    # the W-invariant part of a smooth loop, as clarke_minimize takes its starts
    frame = frame_for(body)
    loop = fourier_loop(np.random.default_rng(seed), frame, n_pts=points)
    assert symmetry_order(body, OptimizerConfig(points=points)) == m
    return np.mean(
        [frame.root_multiply(m, -j, b) for j, b in enumerate(np.split(loop, m))],
        axis=0,
    )


@pytest.mark.parametrize("body,points,m", EDGE_CASES, ids=EDGE_IDS)
def test_edge_map_round_trip(body, points, m):
    frame = frame_for(body)
    y = _free_vertices(body, points, m, seed=m)
    u = _to_edges(frame, y, m)
    # n free edges close the loop through y_0 for m in {2, 4}; at m = 1 the
    # last edge is minus the sum of the others and y_0 stays where it is;
    # both to rounding at the size of the vertices
    assert u.shape == (len(y) - (m == 1), body.dim)
    back = _to_vertices(u, m, y[0])
    assert np.abs(back - y).max() <= 1e-15 * np.abs(y).max()
    # and the other way: the vertices of any edges have those edges
    v = np.random.default_rng(m).normal(size=u.shape)
    w = _to_vertices(v, m, y[0])
    assert np.abs(_to_edges(frame, w, m) - v).max() <= 1e-15 * np.abs(w).max()


@pytest.mark.parametrize("body,points,m", EDGE_CASES, ids=EDGE_IDS)
def test_edge_gradient_matches_central_differences(body, points, m):
    # the objective L-BFGS-B sees: the functional of the vertices of edges u
    frame = frame_for(body)
    y = _free_vertices(body, points, m, seed=10 + m)
    u = _to_edges(frame, y, m)

    def value(edges):
        x = _to_vertices(edges, m, y[0])
        return _functional_with_grad(body, x, m, 40.0)[0]

    grad = _edge_gradient(_functional_with_grad(body, y, m, 40.0)[1], m)
    h = 1e-6
    fd = np.empty_like(u)
    for idx in np.ndindex(u.shape):
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        fd[idx] = (value(up) - value(um)) / (2 * h)
    assert np.abs(fd - grad).max() <= 1e-5 * np.abs(grad).max()


SUITE =importlib.resources.files("symcap") / "data" / "default_suite.json"
SYMMETRIC_SUITE = [
    e for e in json.loads(SUITE.read_text())["bodies"] if body_from_dict(e).is_symmetric
]


@pytest.mark.parametrize("entry", SYMMETRIC_SUITE, ids=lambda entry: entry["id"])
def test_symmetric_solve_is_no_worse_than_the_full_solve(monkeypatch, entry):
    # the restriction to W-invariant loops loses nothing in the continuum;
    # a wrong W, factor or gradient would raise the re-evaluated value above
    # that of the same solve on all N free vertices
    body = body_from_dict(entry)
    for seed in (0, 1):
        config = OptimizerConfig(points=64, restarts=1, seed=seed)
        reduced = clarke_minimize(body, config)
        with monkeypatch.context() as patch:
            patch.setattr(capacity, "symmetry_order", lambda body, config: 1)
            full = clarke_minimize(body, config)
        assert full.diagnostics["symmetry_order"] == 1
        assert reduced.diagnostics["symmetry_order"] == 4
        assert reduced.value <= full.value * (1.0 + 1e-3)
        if isinstance(body, Ellipsoid):
            assert reduced.value >= ellipsoid_ehz_exact(body).value * (1.0 - 1e-9)


def test_clarke_ball_planar(clarke_ball2):
    res = clarke_ball2
    assert res.method == METHOD_CLARKE
    assert res.value == pytest.approx(math.pi, rel=0.01)
    # the discrete optimum over 64-gons is exactly N tan(pi/N)
    assert res.value == pytest.approx(64 * math.tan(math.pi / 64), rel=1e-6)
    assert res.value >= math.pi  # discrete loops can only overshoot the ball value


def test_clarke_ball_four_dimensional(clarke_ball4):
    res = clarke_ball4
    assert res.value == pytest.approx(math.pi, rel=0.01)
    assert res.value == pytest.approx(96 * math.tan(math.pi / 96), rel=1e-6)


def test_clarke_witness_properties(clarke_ball4):
    res = clarke_ball4
    loop = res.witness
    assert isinstance(loop, DiscreteLoop)
    assert loop.action() == pytest.approx(1.0, rel=1e-9)
    assert len(loop) == 96
    assert clarke_functional(ball(4), loop) == pytest.approx(res.value, rel=1e-12)
    assert res.diagnostics["points"] == 96
    assert len(res.diagnostics["restart_values"]) == 4
    assert min(res.diagnostics["restart_values"]) == pytest.approx(
        res.value, rel=1e-9
    )


def test_clarke_witness_reaches_boundary(clarke_ball4, clarke_e12):
    # scaling the unit-action witness by sqrt(value) puts it on the boundary:
    # it cannot be translated into the interior.  All vertices are active and
    # coplanar here, the flattest case for the sigma certificate, so the
    # assertion uses the certified lower bound sigma - gap.
    body4, res4 = ball(4), clarke_ball4
    body12, res12 = clarke_e12
    for body, res in [(body4, res4), (body12, res12)]:
        scaled = res.witness.scaled(math.sqrt(res.value))
        details = containment_score(scaled, body, return_details=True)
        assert details.sigma - details.gap >= 1.0 - 1e-3
        assert details.sigma <= 1.0 + 1e-2


def test_clarke_matches_ellipsoid_closed_form(clarke_e12):
    body, res = clarke_e12
    exact = ellipsoid_ehz_exact(body)
    assert res.value == pytest.approx(exact.value, rel=0.01)
    assert res.value >= exact.value - 1e-9  # upper bound side


def test_clarke_six_dimensional_ellipsoid():
    body = Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5])
    res = clarke_minimize(body, OptimizerConfig(points=128, restarts=4, seed=4))
    exact = ellipsoid_ehz_exact(body)
    assert res.value == pytest.approx(exact.value, rel=0.01)
    assert res.value >= exact.value - 1e-9


def test_clarke_symmetric_mode(monkeypatch):
    config = OptimizerConfig(points=96, restarts=4, seed=6)
    res = clarke_minimize(ball(4), config)
    half = res.witness.vertices[:48]
    assert np.allclose(res.witness.vertices[48:], -half, atol=1e-12)
    # the ball is J-invariant: x_(k + N/4) = J x_k, bit for bit
    assert res.diagnostics["symmetry_order"] == 4
    v = res.witness.vertices
    assert np.array_equal(np.roll(v, -24, axis=0), frame_for(ball(4)).apply_j(v))
    # against the same solve on all N free vertices
    with monkeypatch.context() as patch:
        patch.setattr(capacity, "symmetry_order", lambda body, config: 1)
        full = clarke_minimize(ball(4), config)
    assert full.diagnostics["symmetry_order"] == 1
    assert res.value == pytest.approx(full.value, rel=0.02)


def test_clarke_polytope_reports_smoothed_value():
    config = OptimizerConfig(points=64, restarts=2, seed=7)
    for body in (lp_ball(1, [1.0, 1.0, 1.0, 1.0]), cube(4)):
        res = clarke_minimize(body, config)
        assert res.diagnostics["smoothing_p"] == 10240.0  # the last level's
        # the functional the last level minimized, at the witness
        smoothed = reference_functional_with_grad(
            body, frame_for(body), res.witness.vertices, 10240.0
        )[0]
        assert res.diagnostics["smoothed_value"] == smoothed
        # smoothed support dominates the exact one, so the reported value is
        # tighter
        assert res.value <= smoothed + 1e-12
    # cube capacity is 4; the coarse run must stay in its neighbourhood above
    assert res.value >= 4.0 - 1e-6
    assert res.value <= 4.0 * 1.1


@pytest.mark.parametrize("seed", [0, 1])
def test_clarke_cube_is_within_1e3_of_its_capacity(seed):
    # c_EHZ([-1, 1]^4) = 4, attained by a 2-bounce billiard; the smoothing
    # continuation must reach it from above, and a value below it is a bug
    res = clarke_minimize(cube(4), OptimizerConfig(points=32, restarts=1, seed=seed))
    assert 4.0 * (1 - 1e-9) <= res.value <= 4.0 * (1 + 1e-3)


# the config seeds that `perfbench/run.py --workload capacity-symmetric`
# derives for the cube at benchmark seeds 43, 86 and 135; solved on vertex
# coordinates, both restarts missed the basin there (5.3946, 4.7218 and
# 4.4128 against c_EHZ = 4)
@pytest.mark.parametrize("seed", [3990053934, 4067358397, 1522633335])
def test_clarke_cube_at_the_capacity_workload_seeds(seed):
    suite = json.loads(SUITE.read_text())["bodies"]
    entry = next(e for e in suite if e["id"] == "cube-d4")
    config = OptimizerConfig(seed=seed, restarts=2, points=256)
    res = clarke_minimize(body_from_dict(entry), config)
    assert 4.0 * (1 - 1e-9) <= res.value <= 4.0 * (1 + 1e-3)
    assert res.diagnostics["converged"] == [True, True]


CONVERGENCE_IDS = ["cube-d4", "cross-polytope-d4", "l4-ball-d4"]


@pytest.mark.parametrize("body_id", CONVERGENCE_IDS)
def test_clarke_restarts_converge(body_id):
    # `converged` is L-BFGS-B's own stop on the last level each restart ran,
    # not its iteration cap, on the polytopes and on the l4 ball alike
    suite = json.loads(SUITE.read_text())["bodies"]
    body = body_from_dict(next(e for e in suite if e["id"] == body_id))
    for seed in range(3):
        res = clarke_minimize(body, OptimizerConfig(points=128, restarts=4, seed=seed))
        assert res.diagnostics["converged"] == [True] * 4


# summed L-BFGS-B iterations of `verify --seed 0 --profile fast` per body,
# at most 1.5 times those of the race cut after the first level (799, 1141
# and 2524; cut before the last level 1202, 1743 and 4745; on vertex
# coordinates 7264, 8072 and 8890).  Iteration counts do not depend on the
# host, so a change that undoes the conditioning or the early cut fails here.
ITERATION_CEILINGS = {
    "cube-d4": 1.5 * 799,
    "cross-polytope-d4": 1.5 * 1141,
    "l4-ball-d4": 1.5 * 2524,
}


def _verify_seed_0_fast(body_id):
    """The suite body and the Clarke config of `verify --seed 0 --profile
    fast` for it."""
    suite = json.loads(SUITE.read_text())
    index = next(i for i, e in enumerate(suite["bodies"]) if e["id"] == body_id)
    fast = suite["profiles"]["fast"]
    config = OptimizerConfig(
        seed=_derived_seed(0, index), restarts=fast["restarts"], points=fast["points"]
    )
    return body_from_dict(suite["bodies"][index]), config


@pytest.mark.parametrize("body_id", ITERATION_CEILINGS)
def test_clarke_iterations_of_verify_seed_0(body_id):
    res = clarke_minimize(*_verify_seed_0_fast(body_id))
    assert sum(res.diagnostics["iterations"]) <= ITERATION_CEILINGS[body_id]


def test_continuation_levels():
    assert _levels(cube(4), 64, 4) == [(64, p, 500) for p in SMOOTHING_LEVELS]
    counts = lambda n, m: [lvl[0] for lvl in _levels(ball(4), n, m)]
    assert counts(256, 4) == [32, 64, 128, 256]
    assert counts(96, 4) == [24, 48, 96]  # 12 points would be below 4m
    assert counts(66, 2) == [66]  # 33 is not a multiple of 2
    assert counts(40, 1) == [5, 10, 20, 40]
    assert counts(7, 1) == [7]
    levels = _levels(ball(4), 256, 4)
    assert [lvl[2] for lvl in levels] == [500, 500, 500, 5000]
    assert all(lvl[1] is None for lvl in levels)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_refine_is_the_midpoints_of_the_continued_loop(m):
    frame = SymplecticFrame(2)
    y = fourier_loop(np.random.default_rng(m), frame, n_pts=6)
    full = np.vstack([frame.root_multiply(m, j, y) for j in range(m)])
    mid = 0.5 * (full + np.roll(full, -1, axis=0))
    expected = np.empty((2 * len(full), 4))
    expected[0::2] = full
    expected[1::2] = mid
    refined = _refine(frame, y, m)
    assert refined.tobytes() == expected[: 2 * len(y)].tobytes()
    # the refined free vertices continue by W as the coarse ones did
    cont = np.vstack([frame.root_multiply(m, j, refined) for j in range(m)])
    assert cont.tobytes() == expected.tobytes()


RACE_BODIES = {
    "ball4": ball(4),
    "e12": Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]),
    "l4": lp_ball(4, np.ones(4)),
    "cube": cube(4),
    "cross": lp_ball(1, np.ones(4)),
    "simplex": SIMPLEX4,  # asymmetric: the solve at m = 1
}


@pytest.mark.parametrize("points", [32, 64])
@pytest.mark.parametrize("name", RACE_BODIES)
def test_clarke_race_matches_the_reference(name, points):
    # only the restart that leads after the first level runs the later
    # ones; it follows the restart-major solve bit for bit, and the pruned
    # restarts still compete with their refined iterates
    body = RACE_BODIES[name]
    for seed in range(3):
        config = OptimizerConfig(seed=seed, restarts=3, points=points)
        res = clarke_minimize(body, config)
        ref_values, ref_value = reference_restart_values(body, config)
        n_levels = len(_levels(body, points, symmetry_order(body, config)))
        levels_run = res.diagnostics["levels_run"]
        assert n_levels > 1
        leaders = [k for k, n in enumerate(levels_run) if n == n_levels]
        assert len(leaders) == 1
        k = leaders[0]
        values = res.diagnostics["restart_values"]
        assert values[k] == ref_values[k]
        assert res.value <= ref_value * (1 + 1e-5)
        assert min(values) == res.value
        assert len(res.witness) == points


@pytest.mark.parametrize(
    "body, points, n_levels",
    [
        (cube(2), 16, 5),  # the smoothing levels
        (ball(4), 64, 3),  # m = 4: 16, 32 and 64 points
        (ball(4), 16, 1),  # m = 4: 8 points would be below 4m
    ],
)
def test_clarke_later_levels_run_once(monkeypatch, body, points, n_levels):
    # every restart runs the first level, only the leader the later ones
    calls = []
    minimize = capacity.minimize

    def counting_minimize(*args, **kwargs):
        calls.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(capacity, "minimize", counting_minimize)
    config = OptimizerConfig(points=points, restarts=3)
    res = clarke_minimize(body, config)
    assert len(_levels(body, points, symmetry_order(body, config))) == n_levels
    if n_levels == 1:
        assert len(calls) == 3
        assert res.diagnostics["levels_run"] == [1, 1, 1]
    else:
        assert len(calls) == 3 + (n_levels - 1)
        assert sorted(res.diagnostics["levels_run"]) == [1, 1, n_levels]
    assert len(res.diagnostics["converged"]) == 3
    assert len(res.witness) == points


@pytest.mark.parametrize("body_id", ["cube-d4", "cross-polytope-d4"])
def test_clarke_race_keeps_the_polytope_basin(body_id):
    # the restart that leads after p = 40 is the one that leads after
    # p = 10240: at the seeds of `verify --seed 0 --profile fast` the race
    # gives the least of the restarts solved alone through every level
    body, config = _verify_seed_0_fast(body_id)
    value = clarke_minimize(body, config).value
    assert value == reference_restart_values(body, config)[1]


def test_clarke_shifted_ellipsoid_solves_centered():
    # the functional is translation invariant: the shifted ellipsoid is
    # solved on its J-invariant centered copy and gives the same value
    shifted = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1])
    centered = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    config = OptimizerConfig(points=64, restarts=2, seed=3)
    res = clarke_minimize(shifted, config)
    ref = clarke_minimize(centered, config)
    assert res.diagnostics["symmetry_order"] == 4
    assert res.value == pytest.approx(ref.value, rel=1e-12)
    assert res.value == pytest.approx(clarke_functional(shifted, res.witness), rel=0)
    assert res.value >= ellipsoid_ehz_exact(shifted).value - 1e-9


def test_c_j_ball_radius_squared():
    for r in (1.0, 0.5, 3.0):
        res = c_j(ball(4, r))
        assert res.method == METHOD_EXACT_SPECTRAL
        assert res.value == pytest.approx(r * r, rel=1e-12)
        x, y = res.witness
        frame = SymplecticFrame(2)
        assert frame.omega(x, y) == pytest.approx(1.0 / res.value, rel=1e-12)
        polar = ball(4, r).polar()
        assert polar.gauge(x) == pytest.approx(1.0, abs=1e-9)
        assert polar.gauge(y) == pytest.approx(1.0, abs=1e-9)


def test_c_j_planar_ellipse_against_dense_pair_oracle():
    a, b = 1.0, 2.0
    body = Ellipsoid.from_radii([a, b])
    res = c_j(body)
    assert res.value == pytest.approx(a * b, rel=1e-12)
    # independent dense sampling of polar boundary pairs
    frame = SymplecticFrame(1)
    t = 2 * math.pi * np.arange(4000) / 4000
    dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
    z = body.polar().boundary_point(dirs)
    omega = frame.apply_j(z) @ z.T
    assert 1.0 / float(np.max(omega)) == pytest.approx(res.value, rel=1e-4)


def test_c_j_scaling():
    # each body next to its copy scaled by 3
    r = np.array([1.0, 2.0, 1.0, 2.0])
    pairs = [
        (ball(4), Ellipsoid(ball(4).matrix / 9)),
        (cube(4), cube(4, 3.0)),
        (Ellipsoid.from_radii(r), Ellipsoid.from_radii(3 * r)),
    ]
    for body, scaled in pairs:
        v1 = c_j(body).value
        v3 = c_j(scaled).value
        assert v3 == pytest.approx(9.0 * v1, rel=1e-9)


def test_c_j_polytope_known_values():
    res_cube = c_j(cube(4))
    assert res_cube.method == METHOD_EXACT_VERTEX_PAIR
    assert res_cube.value == pytest.approx(1.0, rel=1e-12)
    res_cross = c_j(lp_ball(1, np.ones(4)))
    assert res_cross.value == pytest.approx(0.25, rel=1e-12)
    x, y = res_cube.witness
    frame = SymplecticFrame(2)
    assert frame.omega(x, y) == pytest.approx(1.0, rel=1e-12)


def test_c_j_polytope_vertex_pairs_vs_general_path():
    rng = np.random.default_rng(3)
    for _ in range(5):
        body = random_symmetric_polytope(rng, 4, n_pairs=int(rng.integers(5, 11)))
        exact = c_j(body)
        opt = c_j(body, method="optimize", seed=11)
        assert opt.method == METHOD_MULTISTART
        assert opt.value == pytest.approx(exact.value, rel=1e-6)
        assert opt.diagnostics["sample_lower_bound"] <= (
            1.0 / opt.value + 1e-9
        )


def test_c_j_spectral_vs_general_path():
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    exact = c_j(body)
    opt = c_j(body, method="optimize", seed=12)
    assert opt.value == pytest.approx(exact.value, rel=1e-9)


def test_c_j_shifted_ellipsoid_general_path():
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1])
    res = c_j(body, seed=13)
    assert res.method == METHOD_MULTISTART
    # the witness pair certifies the value: both in the polar, omega attained
    x, y = res.witness
    polar = body.polar()
    frame = SymplecticFrame(2)
    assert polar.gauge(x) <= 1.0 + 1e-9
    assert polar.gauge(y) <= 1.0 + 1e-9
    assert frame.omega(x, y) == pytest.approx(1.0 / res.value, rel=1e-12)
    # shrinking the body can only shrink the polar pairing value's inverse:
    # K shifted inside the centered ellipsoid means polar contains the
    # centered polar, so c_j(shifted) <= c_j(centered)
    assert res.value <= c_j(
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    ).value + 1e-9


def test_c_j_smooth_non_ellipsoid():
    body = lp_ball(4.0, np.ones(4))
    res = c_j(body, seed=14)
    assert res.method == METHOD_MULTISTART
    lower = res.diagnostics["sample_lower_bound"]
    assert 1.0 / res.value >= lower - 1e-12
    assert res.value == pytest.approx(1.0, rel=1e-6)


def _ascent_bodies():
    """(name, body, exact c_J or None) for the ascent comparisons."""
    rng = np.random.default_rng(17)
    w4 = np.array([1.0, 1.3, 0.8, 1.1])
    out = [(f"lp{p}", lp_ball(p, w4), None) for p in (1.1, 1.5, 2, 3, 4, 6, 10, 40)]
    w6 = np.array([1.0, 0.9, 1.2, 1.1, 1.0, 0.7])
    spd = random_spd_matrix(rng, 6)
    e12 = Ellipsoid.from_radii([1, 2, 1, 2], center=[0.2, 0, 0, 0.1])
    shifted_ball = Ellipsoid.from_radii([1, 1, 1, 1], center=[0, 0.3, 0.1, 0])
    out += [
        ("lp4-d6", lp_ball(4.0, w6), None),
        ("shifted-e12", e12, None),
        ("shifted-ball", shifted_ball, None),
        ("shifted-spd6", Ellipsoid(spd, center=0.1 * rng.normal(size=6)), None),
    ]
    for name, body in [
        ("e12", Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])),
        ("cube", cube(4)),
        ("cross", lp_ball(1, np.ones(4))),
        ("polytope", random_symmetric_polytope(rng, 4, n_pairs=7)),
    ]:
        out.append((name, body, c_j(body).value))
    return out


def test_c_j_ascent_matches_or_beats_the_pair_matrix_reference():
    for name, body, exact in _ascent_bodies():
        frame = frame_for(body)
        for seed in range(3):
            res = c_j(body, method="optimize", seed=seed)
            ref = reference_c_j_ascent(
                body, frame, 16, 2048, np.random.default_rng(seed)
            )
            top = res.diagnostics["omega_max"]
            assert top >= ref.diagnostics["omega_max"] * (1 - 1e-15), (name, seed)
            assert res.diagnostics["sample_lower_bound"] <= top, (name, seed)
            assert res.value == 1.0 / top
            x, y = res.witness
            assert frame.omega(x, y) == pytest.approx(top, rel=1e-15)
            if exact is not None:
                assert res.value == pytest.approx(exact, rel=1e-9), (name, seed)


def test_c_j_ascent_allocates_no_pair_matrix():
    body = lp_ball(4, np.ones(4))
    c_j(body, seed=1)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        c_j(body, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_c_j_method_validation():
    for method in ("bogus", "exact"):
        with pytest.raises(InvalidParameter):
            c_j(ball(4), method=method)
    with pytest.raises(DimensionMismatch):
        c_j(ball(3))


def test_ellipsoid_ehz_exact_values():
    for r in (0.5, 1.0, 2.0):
        res = ellipsoid_ehz_exact(ball(4, r))
        assert res.method == METHOD_ELLIPSOID_EIGEN
        assert res.value == pytest.approx(math.pi * r * r, rel=1e-12)
    res = ellipsoid_ehz_exact(Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]))
    assert res.value == pytest.approx(math.pi, rel=1e-12)
    assert res.diagnostics["frequencies"] == pytest.approx([0.25, 1.0], rel=1e-9)
    res6 = ellipsoid_ehz_exact(Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5]))
    assert res6.value == pytest.approx(math.pi, rel=1e-12)


def test_ellipsoid_ehz_symplectic_invariance():
    rng = np.random.default_rng(4)
    m = np.diag([1.0, 1.0 / 4.0, 1.0, 1.0 / 4.0])
    base = ellipsoid_ehz_exact(Ellipsoid(m)).value
    for _ in range(5):
        s = random_symplectic_matrix(rng, 2)
        congruent = Ellipsoid(s.T @ m @ s)
        assert ellipsoid_ehz_exact(congruent).value == pytest.approx(base, rel=1e-8)


def test_ellipsoid_ehz_translation_invariance():
    centered = ellipsoid_ehz_exact(Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]))
    shifted = ellipsoid_ehz_exact(
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1])
    )
    assert shifted.value == centered.value


def test_ellipsoid_ehz_rejects_non_ellipsoids():
    with pytest.raises(NonConvexParameters):
        ellipsoid_ehz_exact(cube(4))


def test_capacity_dominates_pairing_capacity(clarke_ball4, clarke_e12):
    # c_j is a lower bound for the dual-action value on these fixtures
    assert clarke_ball4.value >= c_j(ball(4)).value - 1e-9
    body, res = clarke_e12
    assert res.value >= c_j(body).value - 1e-9


def test_capacity_result_serialization(clarke_ball2):
    as_dict = clarke_ball2.to_dict()
    text = json.dumps(as_dict)
    back = json.loads(text)
    assert back["method"] == METHOD_CLARKE
    assert back["value"] == pytest.approx(clarke_ball2.value)
    assert len(back["witness"]["vertices"]) == 64

    pair = c_j(cube(4)).to_dict()
    assert set(pair["witness"]) == {"x", "y"}
    json.dumps(pair)

    none_witness = ellipsoid_ehz_exact(ball(4)).to_dict()
    assert none_witness["witness"] is None
    json.dumps(none_witness)
