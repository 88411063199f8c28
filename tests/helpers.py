"""Shared generators and independent oracles for the test suite."""

import copy
import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linprog
from scipy.sparse.csgraph import dijkstra

from symcap import capacity
from symcap.capacity import (
    METHOD_MULTISTART,
    CapacityResult,
    OptimizerConfig,
    clarke_edge_norm,
)
from symcap.characteristics import Trajectory
from symcap.errors import (
    GradientUndefinedAtZero,
    NonConvexParameters,
    NotSmoothBody,
    StepUnstable,
)
from symcap.geometry import (
    Ellipsoid,
    LpBall,
    Polytope,
    ball,
    cube,
    lp_ball,
)
from symcap.girth import (
    REFINE_POINTS,
    _neighbor_graph,
    build_boundary_graph,
    refine_symmetric_half,
)
from symcap.loops import DiscreteLoop, resample_polyline, split_closed_at_fractions
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
        if body.gauge(np.asarray(x) / mid) <= 1.0:
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


def reference_functional_with_grad(body, frame, x, p):
    """The Clarke functional and its gradient from np.roll, apply_j and
    polygon_action, polytope supports smoothed with exponent p: the
    formulation ``capacity._functional_with_grad`` must reproduce bit for
    bit."""
    edges = np.roll(x, -1, axis=0) - x
    u = -frame.apply_j(edges)
    # the l^p ball as two separate calls, as before its fused support_and_point
    if isinstance(body, Ellipsoid):
        h, s = body.support_and_point(u)
    elif body.is_smooth:
        h, s = body.support(u), body.support_point(u)
    else:
        h, s = body.smoothed_support_and_point(u, p)
    length = float(np.sum(h))
    a = float(frame.polygon_action(x))
    grad_len = -frame.apply_j(s - np.roll(s, 1, axis=0))
    grad_act = 0.5 * frame.apply_j(np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0))
    val = length**2 / (4.0 * abs(a))
    grad = (length / (2.0 * abs(a))) * grad_len - math.copysign(
        length**2 / (4.0 * a * a), a
    ) * grad_act
    return val, grad


def _reference_edge_norms(v, norm_fn, closed):
    diffs = (np.roll(v, -1, axis=0) - v) if closed else (v[1:] - v[:-1])
    return np.asarray(norm_fn(diffs), dtype=float)


def _reference_point_at(v, cumlen, s, closed):
    n_edges = len(cumlen) - 1
    idx = int(np.searchsorted(cumlen, s, side="right") - 1)
    idx = min(max(idx, 0), n_edges - 1)
    seg_len = cumlen[idx + 1] - cumlen[idx]
    t = 0.0 if seg_len <= 0 else (s - cumlen[idx]) / seg_len
    a = v[idx]
    b = v[(idx + 1) % len(v)] if closed else v[idx + 1]
    return a + t * (b - a)


def _reference_cumlen(v, norm_fn, closed):
    lens = _reference_edge_norms(v, norm_fn, closed)
    total = float(lens.sum())
    cumlen = np.concatenate([[0.0], np.cumsum(lens)])
    cumlen[-1] = total
    return cumlen, total


def reference_resample_polyline(vertices, norm_fn, count):
    """Equal-arclength resampling of an open polyline one target at a time:
    the formulation ``loops.resample_polyline`` must reproduce bit for bit."""
    v = np.asarray(vertices, dtype=float)
    cumlen, total = _reference_cumlen(v, norm_fn, False)
    out = np.empty((count, v.shape[1]))
    for i, s in enumerate(np.linspace(0.0, total, count)):
        out[i] = _reference_point_at(v, cumlen, min(s, total), False)
    return out


def reference_split_closed_at_fractions(vertices, norm_fn, pieces):
    """Equal-length split walking the vertices of each piece one by one and
    dropping a point within 1e-13 * scale of the last kept one: the
    formulation ``loops.split_closed_at_fractions`` must reproduce bit for
    bit.  (That one compares each point with its predecessor, which differs
    only on runs of steps each shorter than the tolerance.)"""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    cumlen, total = _reference_cumlen(v, norm_fn, True)
    cuts = [k * total / pieces for k in range(pieces + 1)]
    scale = max(1.0, float(np.abs(v).max()))
    paths = []
    for k in range(pieces):
        s0, s1 = cuts[k], cuts[k + 1]
        path = [_reference_point_at(v, cumlen, s0, True)]
        for j in range(1, n + 1):
            if s0 < cumlen[j] < s1:
                path.append(v[j % n])
        path.append(_reference_point_at(v, cumlen, s1, True))
        arr = np.asarray(path)
        keep = [0]
        for j in range(1, len(arr)):
            if np.linalg.norm(arr[j] - arr[keep[-1]]) > 1e-13 * scale:
                keep.append(j)
        paths.append(arr[keep])
    return paths


def central_residual(vertices):
    """max |x_i + x_(i + N/2)|: zero exactly for a centrally symmetric loop."""
    n = len(vertices)
    if n % 2 != 0:
        return math.inf
    return float(np.max(np.abs(vertices + np.roll(vertices, -(n // 2), axis=0))))


def reference_symmetrize_central(loop, norm_body):
    """Central symmetrization by arc doubling, independent of the m-fold
    chain: cut the loop into two arcs of equal dual length, center the cut
    points at +-a, double the arc of larger chord-closed action through the
    origin and scale to unit action.  Returns (chosen arc, output loop)."""
    verts = loop.vertices if loop.action() > 0 else loop.vertices[::-1]
    arcs = split_closed_at_fractions(
        verts, lambda e: clarke_edge_norm(norm_body, e), 2
    )
    mid = 0.5 * (arcs[0][0] + arcs[0][-1])
    actions = [
        float(loop.frame.polygon_action(a - mid)) if len(a) >= 3 else 0.0
        for a in arcs
    ]
    chosen = 0 if actions[0] >= actions[1] else 1
    arc = arcs[chosen][:-1] - mid
    out = DiscreteLoop(loop.frame, np.vstack([arc, -arc])).normalize()
    return chosen, out.scaled(1.0 / math.sqrt(out.action()))


# JSON-like values: what json.loads can return, with numbers a file can spell
# that overflow a float or an int conversion (1e400 parses as inf)
NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, 1e308, 5e-324])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=6)
    | st.sampled_from(["inf", "nan", "1", "2.5"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)
VECTORS = st.lists(NUMBERS | st.floats(0.2, 3.0), max_size=6)
FIELD_VALUES = JSON_VALUES | VECTORS | st.lists(VECTORS, max_size=8)
VALID_SPECS = [
    {"kind": "ellipsoid", "dim": 4, "params": {"radii": [1, 2, 1, 2]}},
    {
        "kind": "ellipsoid",
        "dim": 2,
        "params": {"matrix": [[2, 0], [0, 1]], "center": [0.1, 0]},
    },
    {"kind": "lp", "dim": 4, "params": {"p": 4, "weights": [1, 1, 1, 1]}},
    {"kind": "lp", "dim": 2, "params": {"p": "inf", "weights": [1, 2]}},
    {
        "kind": "polytope_v",
        "dim": 2,
        "params": {"vertices": [[1, 0], [0, 1], [-1, -1]]},
    },
    {
        "kind": "polytope_h",
        "dim": 2,
        "params": {
            "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "offsets": [1, 1, 1, 1],
        },
    },
]
TOP_FIELDS = ["kind", "dim", "params"]
PARAM_FIELDS = ["matrix", "radii", "center", "p", "weights"]
PARAM_FIELDS += ["vertices", "normals", "offsets"]


@st.composite
def edited_specs(draw):
    """A valid body description with up to two fields set to any value."""
    spec = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
    fields = st.sampled_from(TOP_FIELDS + PARAM_FIELDS)
    for key, value in draw(st.lists(st.tuples(fields, FIELD_VALUES), max_size=2)):
        target = spec if key in TOP_FIELDS else spec["params"]
        if isinstance(target, dict):
            target[key] = value
    return spec


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
        ("cross4", lp_ball(1, np.ones(4))),
        ("l4ball", lp_ball(4.0, np.ones(4))),
        ("lp-weighted", lp_ball(3.0, np.array([1.0, 0.5, 2.0, 1.0]))),
        ("poly-v", random_symmetric_polytope(rng, 4, 10)),
        ("poly-h", cube(4).polar().polar()),
    ]


def reference_antipodal_distances(bgraph):
    """d(x, -x) for every x < p/2, one full undirected Dijkstra per source in
    chunks of 512 (inf where x cannot reach -x): the sweep whose minimum
    ``girth._shortest_antipodal_source`` must find."""
    sources = np.arange(bgraph.size // 2)
    out = np.empty(len(sources))
    for start in range(0, len(sources), 512):
        batch = sources[start : start + 512]
        dist = dijkstra(bgraph.graph, directed=False, indices=batch)
        out[start : start + len(batch)] = dist[
            np.arange(len(batch)), bgraph.antipode[batch]
        ]
    return out


def reference_symmetric_girth(
    body, n_samples, k_neighbors, rng, source, directions=None
):
    """``symmetric_girth`` from the full sweep and a given source: double k
    until every d(x, -x) is finite, trace the path from ``source`` with an
    undirected search, then resample and refine as the library does.
    Returns (final k, d(x, -x) for every x < p/2, length, loop vertices)."""
    bgraph = build_boundary_graph(
        body, n_samples=n_samples, k_neighbors=k_neighbors, rng=rng,
        directions=directions,
    )
    dists = reference_antipodal_distances(bgraph)
    while not np.all(np.isfinite(dists)):
        k = 2 * bgraph.k_neighbors
        bgraph = replace(
            bgraph, graph=_neighbor_graph(body, bgraph.samples, k), k_neighbors=k
        )
        dists = reference_antipodal_distances(bgraph)
    target = int(bgraph.antipode[source])
    _, pred = dijkstra(
        bgraph.graph, directed=False, indices=source, return_predecessors=True
    )
    path = [target]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    half = resample_polyline(
        bgraph.samples[path[::-1]],
        lambda e: np.linalg.norm(e, axis=-1),
        REFINE_POINTS + 1,
    )[:-1]
    half, half_len = refine_symmetric_half(body, body.boundary_point(half))
    return bgraph.k_neighbors, dists, 2.0 * half_len, np.vstack([half, -half])


# The per-point kernels written with numpy's Python-level wrappers (np.sum,
# np.max, np.any), read from the body's public attributes only: the
# formulas the ufunc-reduction kernels of ``geometry`` must reproduce bit
# for bit.

def _reference_scaled_norm(z, expo):
    m = np.max(z, axis=-1)
    safe = np.where(m == 0.0, 1.0, m)
    s = np.sum((z / safe[..., None]) ** expo, axis=-1)
    return np.where(m == 0.0, 0.0, safe * s ** (1.0 / expo))


def reference_gauge(body, x):
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ellipsoid):
        mat, c = body.matrix, body.center
        a = np.einsum("...i,ij,...j->...", x, mat, x)
        e = float(c @ mat @ c)
        if e == 0.0:
            return np.sqrt(np.maximum(a, 0.0))
        b = x @ (mat @ c)
        return (np.sqrt(np.maximum(b * b + (1.0 - e) * a, 0.0)) - b) / (1.0 - e)
    if isinstance(body, LpBall):
        return _reference_scaled_norm(np.abs(x) / body.weights, body.p)
    return np.max(x @ (body.normals / body.offsets[:, None]).T, axis=-1)


def reference_gauge_gradient(body, x):
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ellipsoid):
        g = np.asarray(reference_gauge(body, x))
        if np.any(g == 0.0):
            raise GradientUndefinedAtZero("gauge gradient undefined at 0")
        y = x / g[..., None]
        nu = (y - body.center) @ body.matrix
        return nu / np.sum(nu * y, axis=-1)[..., None]
    t = np.abs(x) / body.weights
    m = np.max(t, axis=-1)
    if np.any(m == 0.0):
        raise GradientUndefinedAtZero("gauge gradient undefined at 0")
    tn = t / m[..., None]
    s = np.sum(tn**body.p, axis=-1)
    return (
        np.sign(x)
        * tn ** (body.p - 1.0)
        / body.weights
        / s[..., None] ** ((body.p - 1.0) / body.p)
    )


def reference_support(body, u):
    u = np.asarray(u, dtype=float)
    if isinstance(body, LpBall):
        return _reference_scaled_norm(np.abs(u) * body.weights, body.q)
    return np.max(u @ body.vertices.T, axis=-1)


def reference_support_point(body, u):
    return reference_support_and_point(body, u)[1]


def reference_support_and_point(body, u):
    u = np.asarray(u, dtype=float)
    if np.any(~np.any(u, axis=-1)):
        raise GradientUndefinedAtZero("support point undefined for direction 0")
    if isinstance(body, Ellipsoid):
        mu = u @ np.linalg.inv(body.matrix)
        root = np.sqrt(np.sum(mu * u, axis=-1))
        return u @ body.center + root, body.center + mu / root[..., None]
    if isinstance(body, Polytope):
        # the first vertex in lexicographic order whose score is within
        # 1e-12 (relative) of the largest
        scores = u @ body.vertices.T
        h = np.max(scores, axis=-1)
        order = np.lexsort(body.vertices.T[::-1])
        tied = scores[..., order] >= (h - 1e-12 * np.abs(h))[..., None]
        return h, body.vertices[order][np.argmax(tied, axis=-1)]
    z = np.abs(u) * body.weights
    m = np.max(z, axis=-1)
    zn = z / m[..., None]
    s = np.sum(zn**body.q, axis=-1)
    point = body.weights * np.sign(u) * zn ** (body.q - 1.0) / s[..., None] ** (
        (body.q - 1.0) / body.q
    )
    return m * s ** (1.0 / body.q), point


def reference_smoothed_support_and_point(body, u, p):
    u = np.asarray(u, dtype=float)
    verts = body.vertices
    z = u @ verts.T
    zmax = np.max(z, axis=-1)
    safe = np.where(zmax <= 0.0, 1.0, zmax)
    zc = np.clip(z, 0.0, None) / safe[..., None]
    s = np.sum(zc**p, axis=-1)
    s_safe = np.where(s <= 0.0, 1.0, s)
    h = np.where(s <= 0.0, 0.0, safe * s_safe ** (1.0 / p))
    w = zc ** (p - 1.0) / s_safe[..., None] ** ((p - 1.0) / p)
    return h, w @ verts


def _reference_field(body, x):
    frame = SymplecticFrame(x.shape[-1] // 2)
    return frame.apply_j(reference_gauge_gradient(body, x))


def reference_integrate_characteristic(body, x0, t_max, step=1e-3):
    """RK4 with a SymplecticFrame and an apply_j per stage, on the reference
    kernels above: the formulation ``characteristics.integrate_characteristic``
    must reproduce bit for bit.  Expects a smooth even-dimensional body, a
    boundary start point and 0 < step < t_max."""
    x0 = np.asarray(x0, dtype=float)
    closure_tol = 1e-4 * (2.0 * body.outer_radius())

    n_steps = int(math.ceil(t_max / step))
    states = np.empty((n_steps + 1, body.dim))
    states[0] = x0
    f0 = _reference_field(body, x0)
    section = lambda x: float((x - x0) @ f0)

    period = None
    closure_residual = None
    crossings = []
    s_prev = 0.0
    x = x0
    for k in range(n_steps):
        k1 = _reference_field(body, x)
        k2 = _reference_field(body, x + 0.5 * step * k1)
        k3 = _reference_field(body, x + 0.5 * step * k2)
        k4 = _reference_field(body, x + step * k3)
        x_new = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x_new)):
            raise StepUnstable(f"non-finite state at t = {(k + 1) * step!r}")
        g = float(reference_gauge(body, x_new))
        if not 0.5 < g < 2.0:
            raise StepUnstable(
                f"gauge drifted to {g!r} in one step; reduce the step size"
            )
        x_new = x_new / g
        states[k + 1] = x_new
        s_new = section(x_new)
        if k > 0 and s_prev < 0.0 <= s_new:
            theta = -s_prev / (s_new - s_prev)
            t_cross = (k + theta) * step
            x_cross = states[k] + theta * (x_new - states[k])
            residual = float(np.linalg.norm(x_cross - x0))
            crossings.append({"time": t_cross, "residual": residual})
            if period is None and residual <= closure_tol:
                period = t_cross
                closure_residual = residual
        s_prev = s_new
        x = x_new

    if period is None and crossings:
        closure_residual = min(c["residual"] for c in crossings)
    return Trajectory(
        body=body,
        times=step * np.arange(n_steps + 1),
        states=states,
        step=step,
        period=period,
        closure_residual=closure_residual,
        crossings=crossings,
    )


def ellipsoid_flow_states(body, x0, times):
    """Exact characteristic flow on a centered ellipsoid boundary.

    On the boundary the field reduces to the linear map J M, whose flow is
    evaluated through the eigendecomposition, giving reference states to
    machine precision for oracle comparisons.
    """
    if not isinstance(body, Ellipsoid) or not body.is_symmetric:
        raise NotSmoothBody("exact flow needs a centered ellipsoid")
    frame = SymplecticFrame(body.dim // 2)
    a = frame.j_matrix() @ body.matrix
    evals, vecs = np.linalg.eig(a)
    coeffs = np.linalg.solve(vecs, np.asarray(x0, dtype=float).astype(complex))
    times = np.asarray(times, dtype=float)
    phases = np.exp(np.outer(times, evals))
    return np.real((phases * coeffs) @ vecs.T)


def reference_c_j_ascent(body, frame, restarts, samples, rng) -> CapacityResult:
    """Block coordinate support ascent over pairs in the polar body.

    The pair-matrix start and random-restart loop that ``capacity._c_j_ascent``
    replaced, kept as the value it must match or beat.

    Each half step maximizes omega exactly in one argument (a support point
    of the polar), so the objective never decreases.  Dense boundary sampling
    supplies both starting pairs and an independent lower bound on the
    attained maximum.
    """
    polar = body.polar()
    dirs = rng.normal(size=(samples, body.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = polar.boundary_point(dirs)
    omega = frame.apply_j(z) @ z.T
    flat_best = np.argmax(omega)
    i0, j0 = np.unravel_index(flat_best, omega.shape)
    sample_max = float(omega[i0, j0])

    def ascend(x, y):
        val = float(frame.omega(x, y))
        for _ in range(200):
            y = polar.support_point(frame.apply_j(x))
            x = polar.support_point(-frame.apply_j(y))
            new = float(frame.omega(x, y))
            if new - val <= 1e-15 * max(1.0, abs(new)):
                val = max(val, new)
                break
            val = new
        return val, x, y

    best_val, best_x, best_y = ascend(z[i0].copy(), z[j0].copy())
    for _ in range(restarts):
        x = polar.boundary_point(rng.normal(size=body.dim))
        y = polar.boundary_point(rng.normal(size=body.dim))
        val, x, y = ascend(x, y)
        if val > best_val:
            best_val, best_x, best_y = val, x, y

    if best_val <= 0:
        raise NonConvexParameters("could not find a positive omega pair")
    return CapacityResult(
        value=1.0 / best_val,
        method=METHOD_MULTISTART,
        witness=(best_x, best_y),
        diagnostics={
            "omega_max": best_val,
            "sample_lower_bound": sample_max,
            "samples": int(samples),
            "restarts": int(restarts),
        },
    )


# The restart-major Clarke solve that the level-major race of
# ``capacity.clarke_minimize`` replaced: every restart runs every level.  With
# one restart the race prunes nothing, so that restart's solve is
# ``clarke_minimize`` at restarts=1, handed the restart's own generator.

def reference_restart_values(body, config: OptimizerConfig):
    """Each restart of ``config`` solved alone through every level: the
    per-restart values and their minimum."""
    original = capacity.spawn_rngs
    values = []
    try:
        for rng in original(config.seed, config.restarts):
            capacity.spawn_rngs = lambda seed, count, rng=rng: [rng]
            one = OptimizerConfig(seed=config.seed, restarts=1, points=config.points)
            res = capacity.clarke_minimize(body, one)
            values.append(res.diagnostics["restart_values"][0])
    finally:
        capacity.spawn_rngs = original
    return values, min(values)
