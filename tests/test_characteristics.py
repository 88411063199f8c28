import csv
import math

import numpy as np
import pytest

from symcap.capacity import c_j, ellipsoid_ehz_exact
from symcap import characteristics
from symcap.characteristics import (
    Trajectory,
    closed_orbit_action,
    export_trajectory,
    integrate_characteristic,
)
from symcap.errors import (
    CalibrationError,
    DimensionMismatch,
    InvalidParameter,
    NotSmoothBody,
    OrbitNotClosed,
    StepUnstable,
)
from symcap.geometry import Ellipsoid, ball, cube, lp_ball
from symcap.loops import DiscreteLoop, containment_score, gauge_length
from symcap.symplectic import SymplecticFrame

from helpers import (
    ellipsoid_flow_states,
    random_spd_matrix,
    reference_integrate_characteristic,
)


@pytest.fixture(scope="module")
def e12():
    return Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])


@pytest.fixture(scope="module")
def ball4_orbit():
    return integrate_characteristic(
        ball(4), np.array([1.0, 0.0, 0.0, 0.0]), t_max=13.0, step=1e-3
    )


@pytest.fixture(scope="module")
def e12_orbit(e12):
    # start mixing both planes: closure needs the slow plane to complete a turn
    v = np.ones(4)
    return integrate_characteristic(e12, v / e12.gauge(v), t_max=26.0, step=2e-3)


@pytest.fixture(scope="module")
def e12_fast_orbit(e12):
    return integrate_characteristic(
        e12, np.array([1.0, 0.0, 0.0, 0.0]), t_max=7.0, step=1e-3
    )


@pytest.fixture(scope="module")
def incommensurate_orbit():
    body = Ellipsoid.from_radii([1.0, 1.3, 1.0, 1.3])
    v = np.ones(4)
    return integrate_characteristic(body, v / body.gauge(v), t_max=20.0, step=2e-3)


def orbit_gradient_integral(traj):
    """Trapezoid quadrature of grad g along one detected period."""
    k = int(traj.period / traj.step)
    frac = traj.period - k * traj.step
    grads = traj.body.gauge_gradient(traj.states[: k + 1])
    full = traj.step * (0.5 * grads[0] + grads[1:k].sum(axis=0) + 0.5 * grads[k])
    tail = 0.5 * frac * (grads[k] + grads[0])
    return full + tail


def test_ball_orbit_period_and_crossings(ball4_orbit):
    traj = ball4_orbit
    assert traj.dim == 4
    assert traj.states.shape == (13001, 4)
    assert traj.times.shape == (13001,)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(13.0, rel=1e-12)
    assert traj.period == pytest.approx(2.0 * math.pi, abs=1e-4)
    assert traj.closure_residual is not None and traj.closure_residual <= 1e-6
    # the circle recrosses its start section once per revolution
    assert len(traj.crossings) == 2
    assert traj.crossings[0]["time"] == traj.period
    assert traj.crossings[1]["time"] == pytest.approx(2.0 * traj.period, rel=1e-6)
    assert all(c["residual"] <= 1e-6 for c in traj.crossings)


def test_orbits_stay_on_boundary(ball4_orbit, e12_orbit, e12_fast_orbit):
    for traj in (ball4_orbit, e12_orbit, e12_fast_orbit):
        assert traj.boundary_residual() <= 1e-12


def test_ball_orbit_action_is_half_period(ball4_orbit):
    a = closed_orbit_action(ball4_orbit)
    assert a == pytest.approx(math.pi, abs=1e-4)
    assert a == pytest.approx(0.5 * ball4_orbit.period, rel=1e-3)


def test_integrator_matches_linear_flow_oracle(ball4_orbit, e12_orbit, e12_fast_orbit):
    for traj in (ball4_orbit, e12_orbit, e12_fast_orbit):
        exact = ellipsoid_flow_states(traj.body, traj.states[0], traj.times)
        assert np.max(np.abs(traj.states - exact)) <= 1e-10


def test_mixed_orbit_closes_at_commensurate_period(e12_orbit):
    traj = e12_orbit
    # plane frequencies 1 and 1/4 recombine after four fast turns
    assert traj.period == pytest.approx(8.0 * math.pi, abs=1e-3)
    assert traj.closure_residual <= 1e-4
    assert any(c["time"] == traj.period for c in traj.crossings)
    assert closed_orbit_action(traj) == pytest.approx(4.0 * math.pi, rel=1e-4)


def test_fast_plane_orbit_realizes_minimal_action(e12, e12_fast_orbit):
    traj = e12_fast_orbit
    assert traj.period == pytest.approx(2.0 * math.pi, abs=1e-4)
    # the fast coordinate plane is invariant under the flow
    assert np.max(np.abs(traj.states[:, [1, 3]])) <= 1e-12
    a = closed_orbit_action(traj)
    assert a == pytest.approx(math.pi, abs=1e-4)
    assert a == pytest.approx(ellipsoid_ehz_exact(e12).value, rel=1e-4)


def test_orbit_scaling_is_quadratic():
    t1 = integrate_characteristic(ball(2), [1.0, 0.0], t_max=7.0, step=1e-3)
    t2 = integrate_characteristic(ball(2, 1.5), [1.5, 0.0], t_max=15.0, step=1e-3)
    assert t2.period / t1.period == pytest.approx(1.5**2, rel=1e-3)
    a1 = closed_orbit_action(t1)
    a2 = closed_orbit_action(t2)
    assert a2 / a1 == pytest.approx(1.5**2, rel=1e-3)


def test_quartic_ball_orbit_encloses_its_area():
    body = lp_ball(4, [1.0, 1.0])
    traj = integrate_characteristic(body, [1.0, 0.0], t_max=8.0, step=1e-3)
    assert traj.period is not None
    area = 4.0 * math.gamma(1.25) ** 2 / math.gamma(1.5)
    assert closed_orbit_action(traj) == pytest.approx(area, rel=1e-3)
    assert traj.period == pytest.approx(2.0 * area, rel=1e-3)


def test_normal_combination_integral_vanishes(ball4_orbit, e12_orbit, e12_fast_orbit):
    for traj in (ball4_orbit, e12_orbit, e12_fast_orbit):
        assert np.linalg.norm(orbit_gradient_integral(traj)) <= 1e-4


def test_closed_orbit_is_certifiably_on_boundary(ball4_orbit, e12_orbit):
    # the orbit samples touch the boundary and their normals average to zero,
    # so no recentering can shrink the containment score below 1
    for traj, stride in ((ball4_orbit, 10), (e12_orbit, 20)):
        k = int(traj.period / traj.step)
        pts = traj.states[:k:stride]
        details = containment_score(pts, traj.body, rng=0, return_details=True)
        assert details.sigma <= 1.0 + 1e-6
        assert details.sigma - details.gap >= 1.0 - 1e-3


def test_orbit_length_bounded_by_action_over_capacity(
    ball4_orbit, e12_orbit, e12_fast_orbit
):
    frame = SymplecticFrame(2)
    for traj in (ball4_orbit, e12_fast_orbit, e12_orbit):
        k = int(traj.period / traj.step)
        loop = DiscreteLoop(frame, traj.states[: k + 1])
        length = gauge_length(loop, traj.body)
        bound = 2.0 * closed_orbit_action(traj) / c_j(traj.body).value
        assert length <= bound + 1e-3
    # equality for the round and single-plane orbits ...
    for traj in (ball4_orbit, e12_fast_orbit):
        k = int(traj.period / traj.step)
        loop = DiscreteLoop(frame, traj.states[: k + 1])
        bound = 2.0 * closed_orbit_action(traj) / c_j(traj.body).value
        assert gauge_length(loop, traj.body) >= bound - 1e-2
    # ... but strict slack for the two-plane orbit
    k = int(e12_orbit.period / e12_orbit.step)
    loop = DiscreteLoop(frame, e12_orbit.states[: k + 1])
    bound = 2.0 * closed_orbit_action(e12_orbit) / c_j(e12_orbit.body).value
    assert gauge_length(loop, e12_orbit.body) <= bound - 1.0


def test_flow_rejects_nonsmooth_and_odd_dimensional_bodies():
    with pytest.raises(NotSmoothBody, match="smooth"):
        integrate_characteristic(cube(4), [1.0, 0.0, 0.0, 0.0], t_max=1.0)
    with pytest.raises(DimensionMismatch, match="even"):
        integrate_characteristic(ball(3), [1.0, 0.0, 0.0], t_max=1.0)


def test_flow_validates_start_point_and_step():
    with pytest.raises(ValueError, match="boundary"):
        integrate_characteristic(ball(4), [0.5, 0.0, 0.0, 0.0], t_max=1.0)
    with pytest.raises(ValueError, match="step"):
        integrate_characteristic(ball(4), [1.0, 0.0, 0.0, 0.0], t_max=1.0, step=0.0)
    with pytest.raises(ValueError, match="step"):
        integrate_characteristic(ball(4), [1.0, 0.0, 0.0, 0.0], t_max=1.0, step=2.0)


@pytest.mark.parametrize(
    "t_max,step",
    [
        (math.nan, 1e-3),
        (math.inf, 1e-3),
        (1.0, math.nan),
        (1e300, 1e-300),  # the quotient overflows to inf
        (1e9, 1e-3),  # 1e12 steps, 29 TiB of states at dim 4
    ],
    ids=["tmax-nan", "tmax-inf", "step-nan", "steps-overflow", "too-many-steps"],
)
def test_flow_rejects_non_finite_and_oversized_runs(t_max, step):
    with pytest.raises(InvalidParameter, match="step"):
        integrate_characteristic(
            ball(4), [1.0, 0.0, 0.0, 0.0], t_max=t_max, step=step
        )


# (name, body, start direction, t_max, step): every smooth body kind, the
# shifted centre, a full matrix and the 6-d ellipsoid.  The first two close
# within t_max, and the shifted and full-matrix ellipsoids cross their start
# section without closing.
FLOW_CASES = [
    ("ball2", ball(2), [1.0, 0.0], 7.0, 5e-3),
    ("ellipsoid-1-2", Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]),
     [1.0, 0.0, 0.0, 0.0], 7.0, 4e-3),
    ("ellipsoid-r6", Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5]),
     [1.0, 0.3, -0.2, 0.5, 0.1, 0.7], 4.0, 2e-3),
    ("shifted-ellipsoid",
     Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]),
     [1.0, 0.3, -0.2, 0.5], 7.0, 4e-3),
    ("spd-ellipsoid", Ellipsoid(random_spd_matrix(np.random.default_rng(3), 4)),
     [1.0, 0.3, -0.2, 0.5], 4.0, 2e-3),
    ("l4ball", lp_ball(4.0, np.ones(4)), [1.0, 0.3, -0.2, 0.5], 4.0, 2e-3),
]


@pytest.mark.parametrize(
    "name,body,direction,t_max,step", FLOW_CASES, ids=[c[0] for c in FLOW_CASES]
)
def test_flow_matches_the_exact_flow_or_the_rk4_reference(
    name, body, direction, t_max, step
):
    # the adaptive solve keeps no integrator's bits, so it is held to the
    # exact flow where one exists and to fixed-step RK4 elsewhere
    x0 = body.boundary_point(np.array(direction))
    got = integrate_characteristic(body, x0, t_max=t_max, step=step)
    ref = reference_integrate_characteristic(body, x0, t_max=t_max, step=step)
    assert np.array_equal(got.times, ref.times)
    if isinstance(body, Ellipsoid) and body.is_symmetric:
        exact = ellipsoid_flow_states(body, x0, got.times)
        assert np.max(np.abs(got.states - exact)) <= 1e-11
    else:
        assert np.max(np.abs(got.states - ref.states)) <= 1e-10
    assert (got.period is None) == (ref.period is None)
    assert len(got.crossings) == len(ref.crossings)
    for a, b in zip(got.crossings, ref.crossings):
        assert a["time"] == pytest.approx(b["time"], abs=1e-9)
    if name in ("ball2", "ellipsoid-1-2"):
        assert got.period is not None


def test_long_sample_spacing_on_a_thin_ellipse_stays_exact():
    # the spacing only samples the orbit: a spacing of 2.0 on the steep thin
    # ellipse, which overshot badly as a fixed step, is still the exact flow
    thin = Ellipsoid.from_radii([1.0, 0.05])
    traj = integrate_characteristic(thin, [1.0, 0.0], t_max=20.0, step=2.0)
    exact = ellipsoid_flow_states(thin, traj.states[0], traj.times)
    assert np.max(np.abs(traj.states - exact)) <= 1e-8


def test_non_finite_field_is_reported_unstable():
    body = ball(4)
    kernel, calls = body.gauge_gradient, [0]

    def failing_gradient(x):
        calls[0] += 1
        return kernel(x) if calls[0] <= 50 else np.full(np.shape(x), np.nan)

    body.gauge_gradient = failing_gradient
    with pytest.raises(StepUnstable, match="step size"):
        integrate_characteristic(body, [1.0, 0.0, 0.0, 0.0], t_max=10.0, step=1e-2)


def test_gauge_off_the_boundary_is_reported_unstable():
    body = ball(4)
    kernel = body.gauge

    def drifting_gauge(x):
        # exact at the start point, three times too large on the samples
        return kernel(x) if np.ndim(x) == 1 else 3.0 * kernel(x)

    body.gauge = drifting_gauge
    with pytest.raises(StepUnstable, match=r"gauge drifted to 3 at t = 0\.1$"):
        integrate_characteristic(body, [1.0, 0.0, 0.0, 0.0], t_max=1.0, step=0.1)


def test_solver_work_is_bounded_whatever_the_spacing(monkeypatch):
    # 1e6 samples pass MAX_STEPS, but t_max = 1e12 would take the solve days
    monkeypatch.setattr(characteristics, "MAX_EVALS", 1000)
    with pytest.raises(StepUnstable, match="1000 field evaluations by t = "):
        integrate_characteristic(ball(4), [1.0, 0.0, 0.0, 0.0], t_max=1e12, step=1e6)


def test_exact_flow_requires_centered_ellipsoid():
    with pytest.raises(NotSmoothBody, match="centered ellipsoid"):
        ellipsoid_flow_states(lp_ball(4, [1.0, 1.0]), [1.0, 0.0], [0.0])
    shifted = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.1, 0.0, 0.0, 0.0])
    with pytest.raises(NotSmoothBody, match="centered ellipsoid"):
        ellipsoid_flow_states(shifted, [1.1, 0.0, 0.0, 0.0], [0.0])


def test_incommensurate_orbit_never_closes(incommensurate_orbit):
    traj = incommensurate_orbit
    assert traj.period is None
    assert len(traj.crossings) > 0
    assert traj.closure_residual is not None
    assert traj.closure_residual > 1e-4 * (2.0 * traj.body.outer_radius())
    with pytest.raises(OrbitNotClosed, match="best crossing residual"):
        closed_orbit_action(traj)


def test_action_half_period_mismatch_is_detected():
    # a quarter arc closed by a chord encloses far less than half the
    # claimed period, which the calibration guard must flag
    times = np.arange(0.0, 2.0 * math.pi, 1e-2)
    states = np.column_stack([np.cos(times), np.sin(times)])
    traj = Trajectory(
        body=ball(2),
        times=times,
        states=states,
        step=1e-2,
        period=0.5 * math.pi,
        closure_residual=0.0,
    )
    with pytest.raises(CalibrationError, match="deviates"):
        closed_orbit_action(traj)


def test_integration_is_deterministic():
    a = integrate_characteristic(ball(2), [1.0, 0.0], t_max=1.0, step=1e-2)
    b = integrate_characteristic(ball(2), [1.0, 0.0], t_max=1.0, step=1e-2)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_export_trajectory_csv(tmp_path):
    traj = integrate_characteristic(ball(2), [1.0, 0.0], t_max=1.0, step=1e-2)
    path = tmp_path / "orbit.csv"
    export_trajectory(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x0", "x1", "gauge_residual"]
    assert len(rows) == 1 + len(traj.times)
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(1.0, rel=1e-12)
    residuals = np.array([float(r[3]) for r in rows[1:]])
    assert np.max(np.abs(residuals)) <= 1e-9
    states = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert np.allclose(states, traj.states, atol=1e-10)
