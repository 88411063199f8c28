"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

from symcap.capacity import SMOOTHING_P
from symcap.errors import NonConvexParameters
from symcap.geometry import Ellipsoid, Polytope, ball, cross_polytope, cube, lp_ball
from symcap.loops import DiscreteLoop
from symcap.symplectic import SymplecticFrame


def fourier_loop(rng, frame, n_pts=64, modes=4, amplitude=1.0):
    """Random smooth closed loop from a low-order trigonometric sum."""
    t = 2.0 * np.pi * np.arange(n_pts) / n_pts
    x = np.zeros((n_pts, frame.dim))
    for k in range(1, modes + 1):
        a = rng.normal(size=frame.dim) * amplitude / k
        b = rng.normal(size=frame.dim) * amplitude / k
        x += np.cos(k * t)[:, None] * a + np.sin(k * t)[:, None] * b
    return x


def nonzero_action_loop(rng, frame, n_pts=64, modes=4, min_action=1e-6):
    """Fourier loop redrawn until its action is solidly nonzero."""
    for _ in range(50):
        x = fourier_loop(rng, frame, n_pts, modes)
        if abs(frame.polygon_action(x)) > min_action:
            return DiscreteLoop(frame, x)
    raise AssertionError("could not draw a loop with nonzero action")


def regular_polygon(frame, n_pts, radius=1.0, plane=0):
    """Regular n-gon in coordinate plane (q_plane, p_plane)."""
    t = 2.0 * np.pi * np.arange(n_pts) / n_pts
    x = np.zeros((n_pts, frame.dim))
    x[:, plane] = radius * np.cos(t)
    x[:, frame.n + plane] = radius * np.sin(t)
    return x


def random_symplectic_matrix(rng, n, scale=0.3):
    """exp(J S) with S symmetric is a symplectic matrix."""
    frame = SymplecticFrame(n)
    s = rng.normal(size=(2 * n, 2 * n)) * scale
    s = 0.5 * (s + s.T)
    return expm(frame.j_matrix() @ s)


def random_spd_matrix(rng, dim, spread=1.0):
    a = rng.normal(size=(dim, dim)) * spread
    return a @ a.T + 0.5 * np.eye(dim)


def random_symmetric_polytope(rng, dim, n_pairs=8):
    pts = rng.normal(size=(n_pairs, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.7, 1.3, size=(n_pairs, 1))
    return Polytope(vertices=np.vstack([pts, -pts]))


def random_symmetric_ellipsoid(rng, dim):
    return Ellipsoid(random_spd_matrix(rng, dim))


def dense_symmetric_boundary_loop(rng, body, n_half=200):
    """Dense centrally symmetric closed curve on the boundary.

    A path of directions is swept from a random direction to its antipode
    (with a transversal wobble so it is not a plane curve), projected to the
    boundary, and completed by its own reflection.  Vertex i and vertex
    i + n_half are exact antipodes by construction.
    """
    a = rng.normal(size=body.dim)
    a /= np.linalg.norm(a)
    b = rng.normal(size=body.dim)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    c = rng.normal(size=body.dim)
    t = np.arange(n_half) / n_half
    dirs = (
        np.cos(np.pi * t)[:, None] * a
        + np.sin(np.pi * t)[:, None] * b
        + (0.25 * np.sin(2.0 * np.pi * t))[:, None] * c
    )
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    half = body.boundary_point(dirs)
    return np.vstack([half, -half])


def shoelace_area(points_2d):
    """Signed planar polygon area, the classical cross-product sum."""
    x = np.asarray(points_2d, dtype=float)
    x2 = np.roll(x, -1, axis=0)
    return 0.5 * float(np.sum(x[:, 0] * x2[:, 1] - x2[:, 0] * x[:, 1]))


def bisect_gauge(body, x, lo=1e-9, hi=1e9, iters=200):
    """Gauge by bisection on containment: the s with x/s on the boundary."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if body.contains(np.asarray(x) / mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gauge_scaling_lp(body, x):
    """Polytope gauge of a single point from the scaling problem min{t : x in tK}.

    Solved as min sum(mu) subject to V^T mu = x, mu >= 0 over convex
    combination coefficients: slower than the facet form but independent of
    it.
    """
    m = body.vertices.shape[0]
    res = linprog(
        c=np.ones(m),
        A_eq=body.vertices.T,
        b_eq=np.asarray(x, dtype=float),
        bounds=[(0, None)] * m,
        method="highs",
    )
    if not res.success:
        raise NonConvexParameters(f"scaling LP failed: {res.message}")
    return float(res.fun)


def reference_functional_with_grad(body, frame, x):
    """The Clarke functional and its gradient from np.roll, apply_j and
    polygon_action: the formulation ``capacity._functional_with_grad`` must
    reproduce bit for bit."""
    edges = np.roll(x, -1, axis=0) - x
    u = -frame.apply_j(edges)
    # the l^p ball as two separate calls, as before its fused support_and_point
    if isinstance(body, Ellipsoid):
        h, s = body.support_and_point(u)
    elif body.is_smooth:
        h, s = body.support(u), body.support_point(u)
    else:
        h, s = body.smoothed_support_and_point(u, SMOOTHING_P)
    length = float(np.sum(h))
    a = float(frame.polygon_action(x))
    grad_len = -frame.apply_j(s - np.roll(s, 1, axis=0))
    grad_act = 0.5 * frame.apply_j(np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0))
    val = length**2 / (4.0 * abs(a))
    grad = (length / (2.0 * abs(a))) * grad_len - math.copysign(
        length**2 / (4.0 * a * a), a
    ) * grad_act
    return val, grad


def fixture_bodies():
    """(name, body) pairs: every body kind, the shifted and the 6-d ellipsoid."""
    rng = np.random.default_rng(20240)
    return [
        ("ball2", ball(2)),
        ("ball4", ball(4)),
        ("ellipsoid-1-2", Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])),
        ("ellipsoid-r6", Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5])),
        (
            "shifted-ellipsoid",
            Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0], center=[0.2, 0.0, 0.0, 0.1]),
        ),
        ("cube4", cube(4)),
        ("cross4", cross_polytope(4)),
        ("l4ball", lp_ball(4.0, np.ones(4))),
        ("lp-weighted", lp_ball(3.0, np.array([1.0, 0.5, 2.0, 1.0]))),
        ("poly-v", random_symmetric_polytope(rng, 4, 10)),
        ("poly-h", cube(4).polar().polar()),
    ]
