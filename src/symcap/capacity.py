"""Capacity estimates for convex bodies in R^{2n}.

Three quantities are computed here:

* ``c_j``                  the pairing invariant 1 / max{omega(x, y) : x, y in
                           the polar body}, exact for polytopes (vertex pairs)
                           and centered ellipsoids (spectral), otherwise a
                           support ascent run from every one of CJ_SAMPLES
                           polar boundary samples at once
* ``clarke_minimize``      the discrete dual minimization of
                           L(gamma)^2 / (4 |A(gamma)|) over closed loops,
                           where L uses the edge norm ||v|| = h_K(-J v);
                           every discrete value is an upper bound for the
                           continuum minimum
* ``ellipsoid_ehz_exact``  closed form pi / lambda_max from the spectrum of
                           J M, valid for any ellipsoid (translation leaves
                           the value unchanged)

The normalization of the dual functional is checked once per process against
the round ball, where the minimizing polygon is the regular N-gon in a
coordinate plane with value N tan(pi / N).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from ._util import as_rng, spawn_rngs
from .errors import (
    CalibrationError,
    DimensionMismatch,
    InvalidParameter,
    NonConvexParameters,
    ZeroActionStart,
)
from .geometry import ConvexBody, Ellipsoid, Polytope, ball
from .loops import DiscreteLoop, closed_length
from .symplectic import SymplecticFrame

METHOD_EXACT_VERTEX_PAIR = "ExactVertexPair"
METHOD_EXACT_SPECTRAL = "ExactSpectral"
METHOD_MULTISTART = "MultistartOptimize"
METHOD_CLARKE = "ClarkeMinimize"
METHOD_ELLIPSOID_EIGEN = "EllipsoidEigen"


@dataclass
class CapacityResult:
    """Value of a capacity computation plus the evidence behind it."""

    value: float
    method: str
    witness: object = None  # DiscreteLoop, point pair, or None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }
        if isinstance(self.witness, DiscreteLoop):
            out["witness"] = self.witness.to_dict()
        elif self.witness is not None:
            x, y = self.witness
            out["witness"] = {"x": list(map(float, x)), "y": list(map(float, y))}
        else:
            out["witness"] = None
        return out


# L-BFGS-B settings and the continuation levels of one restart (see
# ``_levels``).  Polytopes sharpen the p-norm that smooths their support, at
# the full point count; smooth bodies start at N / 2^POINT_HALVINGS points and
# double them.  The reported value always re-evaluates with the exact support.
# MAX_POINTS and MAX_RESTARTS bound the loop size and the restart count a
# caller may ask for; every restart's generator is spawned up front.
MAX_ITERATIONS = 5000
LEVEL_ITERATIONS = 500
F_RTOL = 1e-12
G_TOL = 1e-10
SMOOTHING_LEVELS = (40.0, 160.0, 640.0, 2560.0, 10240.0)
POINT_HALVINGS = 3
MAX_POINTS = 1 << 16
MAX_RESTARTS = 1 << 16


@dataclass
class OptimizerConfig:
    """Knobs for the Clarke dual minimization.

    ``points`` is the loop size of the last continuation level: every
    restart solves the coarsest loop or smoothest support, and only the
    leading one runs the finer levels (``clarke_minimize``), on a fixed
    schedule that has no knob here.  Every solve keeps the body's own
    symmetry (``symmetry_order``).  ``symmetric`` has no effect and must
    stay True; it is kept only because the benchmark's workloads pass it,
    and goes with the next benchmark change, next to
    ``containment_score(rng)``.
    """

    seed: int = 0
    restarts: int = 8
    points: int = 256
    symmetric: bool = True

    def __post_init__(self):
        for name in ("seed", "restarts", "points"):  # numpy integers become int
            try:
                setattr(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InvalidParameter(f"{name} must be an integer") from None
        if self.seed < 0:
            raise InvalidParameter(f"seed must be non-negative, got {self.seed}")
        if self.points < 3:
            raise InvalidParameter("need at least 3 loop points")
        if self.points > MAX_POINTS:
            raise InvalidParameter(
                f"at most {MAX_POINTS} loop points, got {self.points}"
            )
        if self.restarts < 1:
            raise InvalidParameter("need at least 1 restart")
        if self.restarts > MAX_RESTARTS:
            raise InvalidParameter(
                f"at most {MAX_RESTARTS} restarts, got {self.restarts}"
            )
        if not self.symmetric:
            raise InvalidParameter("every solve keeps the body's own symmetry")


def frame_for(body: ConvexBody) -> SymplecticFrame:
    if body.dim % 2 != 0:
        raise DimensionMismatch(
            f"symplectic operations need an even dimension, body has {body.dim}"
        )
    return SymplecticFrame(body.dim // 2)


# ---------------------------------------------------------------------------
# Edge norm ||v|| = h_K(-J v) and the dual functional
# ---------------------------------------------------------------------------

def clarke_edge_norm(body: ConvexBody, v):
    """The dual edge norm ||v|| = h_K(-J v), vectorized.

    The sign of J is a convention: reversing a loop maps one choice onto the
    other and keeps |A|, so the minimum does not depend on it.
    """
    frame = frame_for(body)
    return body.support(-frame.apply_j(np.asarray(v, dtype=float)))


def clarke_functional(body: ConvexBody, vertices) -> float:
    """c(gamma) = L(gamma)^2 / (4 |A(gamma)|) for a discrete loop, its
    length L in the edge norm ``clarke_edge_norm``; scale invariant."""
    if not isinstance(vertices, DiscreteLoop):
        vertices = DiscreteLoop(frame_for(body), vertices)
    a = vertices.action()
    if a == 0.0:
        raise ZeroActionStart("loop has zero symplectic action")
    length = closed_length(vertices.vertices, functools.partial(clarke_edge_norm, body))
    return length**2 / (4.0 * abs(a))


# stacked with a loop as [x, -x], so that a flat index picks a signed copy
_PLUS_MINUS = np.array([1.0, -1.0])


@functools.lru_cache(maxsize=16)
def _loop_plan(n_pts: int, dim: int, m: int):
    """Index plan for the n_pts free vertices of a loop continued by
    x_{k + n_pts} = W x_k, with W = root_multiply(m, 1): I, -I or J.

    Flat indices into [x, -x] of x_{k+1} (x_{n_pts} = W x_0), x_{k-1}
    (x_{-1} = W^-1 x_{n_pts - 1}) and J x, and J as w -> w[:, perm] * j_sign.
    They come from applying these signed permutations to the signed labels
    1 + (flat index) of x.  A product with +-1 is exact, signed zeros
    included, so at m = 1 this matches the np.roll / apply_j formulation.
    """
    frame = SymplecticFrame(dim // 2)
    label = np.arange(1.0, n_pts * dim + 1.0).reshape(n_pts, dim)
    nxt = np.roll(label, -1, axis=0)
    nxt[-1] = frame.root_multiply(m, 1, label[0])
    prv = np.roll(label, 1, axis=0)
    prv[0] = frame.root_multiply(m, -1, label[-1])
    jx = frame.apply_j(label)
    perm = (np.abs(jx[0]) - 1).astype(np.intp)
    j_sign = np.sign(jx[0])

    def flat(signed):
        return (np.where(signed < 0, n_pts * dim - signed, signed) - 1).astype(np.intp)

    plan = (flat(nxt), flat(prv), flat(jx), perm, -j_sign, 0.5 * j_sign)
    for arr in plan:
        arr.flags.writeable = False  # shared by every caller
    return plan


def _functional_with_grad(body, x, m, p):
    """The functional and its gradient in the free vertices x of a loop
    continued by W = root_multiply(m, 1); polytope supports are smoothed
    with exponent p, which smooth bodies ignore.

    The body must be invariant under W.  Then the loop's length and action
    are m times those of its first block, and by equivariance the gradient
    in x is m times the loop's gradient on that block.  At m = 1 these are
    the operations of the np.roll / apply_j / polygon_action formulation,
    so the same bits.  u must be C-ordered, as np.take makes it: on the
    transposed layout that column fancy-indexing gives, BLAS sums
    ``u @ center`` in ``Ellipsoid.support_and_point`` in another order.
    """
    nxt, prv, jx_idx, perm, minus_j_sign, half_j_sign = _loop_plan(*x.shape, m)
    xx = np.multiply.outer(_PLUS_MINUS, x)
    x_next = xx.take(nxt)
    u = (x_next - x).take(perm, axis=1) * minus_j_sign
    a = m * float(0.5 * (xx.take(jx_idx) * x_next).sum(axis=-1).sum())
    if body.is_smooth:
        h, s = body.support_and_point(u)
    else:
        h, s = body.smoothed_support_and_point(u, p)
    length = m * float(h.sum())
    # dL/dx_k = -J (s_k - s_{k-1});  dA/dx_k = J (x_{k-1} - x_{k+1}) / 2
    s_prev = np.multiply.outer(_PLUS_MINUS, s).take(prv)
    grad_len = (s - s_prev).take(perm, axis=1) * minus_j_sign
    grad_act = (xx.take(prv) - x_next).take(perm, axis=1) * half_j_sign
    val = length**2 / (4.0 * abs(a))
    grad = (m * length / (2.0 * abs(a))) * grad_len - m * math.copysign(
        length**2 / (4.0 * a * a), a
    ) * grad_act
    return val, grad


@functools.lru_cache(maxsize=16)
def _edge_plan(dim: int, m: int):
    """R = (W - I)^-1 acting on rows, W = root_multiply(m, 1), m in {2, 4}:
    the n free edges sum to (W - I) y_0, so y_0 = (sum_k u_k) R."""
    eye = np.eye(dim)
    close = np.linalg.inv(SymplecticFrame(dim // 2).root_multiply(m, 1, eye) - eye)
    close.flags.writeable = False  # shared by every caller
    return close


def _to_edges(frame, y, m):
    """Edges u_k = y_{k+1} - y_k of the free vertices, y_n = W y_0: all n for
    m in {2, 4}, the first n - 1 at m = 1 (the last is minus their sum)."""
    u = np.diff(y, axis=0, append=frame.root_multiply(m, 1, y[:1]))
    return u[:-1] if m == 1 else u


def _to_vertices(u, m, y0):
    """Inverse of ``_to_edges``: y_k = y_0 + u_0 + ... + u_{k-1}.  At m = 1
    the edges leave y_0 free and the given y0 is kept (the functional is
    translation invariant); otherwise y_0 closes the loop and y0 is unused."""
    if m > 1:
        y0, u = u.sum(axis=0) @ _edge_plan(u.shape[1], m), u[:-1]
    return np.cumsum(np.vstack([y0, u]), axis=0)


def _edge_gradient(g, m):
    """A gradient g in the vertices pulled back through ``_to_vertices``:
    dF/du_j = sum_{k > j} g_k, plus (sum_k g_k) R^T for m in {2, 4}."""
    out = np.zeros_like(g)
    np.cumsum(g[:0:-1], axis=0, out=out[-2::-1])
    return out[:-1] if m == 1 else out + g.sum(axis=0) @ _edge_plan(g.shape[1], m).T


# ---------------------------------------------------------------------------
# Startup calibration
# ---------------------------------------------------------------------------

@functools.cache
def calibration_self_test():
    """Check the functional normalization against closed forms, once.

    The regular N-gon inscribed in the unit circle of a coordinate plane must
    evaluate to exactly N tan(pi/N), which is within one percent of pi for
    N = 256, and the spectral ellipsoid value for semi-axes (1, 2) must be pi.
    A failing check raises, which is not cached, so the next call runs again.
    """
    n_pts = 256
    t = 2.0 * math.pi * np.arange(n_pts) / n_pts
    x = np.zeros((n_pts, 2))
    x[:, 0] = np.cos(t)
    x[:, 1] = np.sin(t)
    value = clarke_functional(ball(2), x)
    target = n_pts * math.tan(math.pi / n_pts)
    if not math.isclose(value, target, rel_tol=1e-9):
        raise CalibrationError(
            f"ball functional {value!r} differs from N tan(pi/N) = {target!r}"
        )
    if abs(value - math.pi) > 0.01 * math.pi:
        raise CalibrationError(f"ball functional {value!r} not within 1% of pi")
    spectral = ellipsoid_ehz_exact(Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]))
    if not math.isclose(spectral.value, math.pi, rel_tol=1e-12):
        raise CalibrationError(
            f"ellipsoid closed form {spectral.value!r} should be pi"
        )


# ---------------------------------------------------------------------------
# Clarke dual minimization
# ---------------------------------------------------------------------------

def _planar_ellipse_init(frame, rng, n_pts, scale):
    """Random planar ellipse in a complex line plus mild low-order ripples.

    The ellipse in the plane of u and J u has action (N/2) sin(2 pi / N) r2
    scale^2 >= 0.78 scale^2, and with the ripples 32,400 draws (n = 1-3,
    N = 3-256) gave at least 0.71 scale^2, so each start is drawn once.
    """
    d = frame.dim
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    v = frame.apply_j(u)
    r2 = rng.uniform(0.6, 1.6)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = 2.0 * math.pi * np.arange(n_pts) / n_pts + phase
    x = scale * (np.cos(t)[:, None] * u + r2 * np.sin(t)[:, None] * v)
    for m in (2, 3):
        am = rng.normal(size=d) * 0.05 * scale / m
        bm = rng.normal(size=d) * 0.05 * scale / m
        x += np.cos(m * t)[:, None] * am + np.sin(m * t)[:, None] * bm
    x += rng.normal(size=d) * 0.1 * scale
    return x


def symmetry_order(body: ConvexBody, config: OptimizerConfig) -> int:
    """The order m of the symmetry W = root_multiply(m, 1) that every Clarke
    solve keeps: the larger of 4 (W = J) and 2 (W = -I) for which W maps the
    body onto itself and m divides ``config.points``, else 1 (an asymmetric
    body, or an odd point count).  A closed characteristic of minimal action
    on a body that W maps onto itself is W-invariant (the source paper's
    structural result), so the continuum minimum is kept."""
    for m in (4, 2):
        if config.points % m == 0 and body.is_invariant(m):
            return m
    return 1


def _levels(body: ConvexBody, n_pts: int, m: int):
    """(point count, smoothing p, iteration cap) per continuation level,
    coarsest first.  A count is halved only while it stays a multiple of m
    and at least 4m.  The last point level alone may run to MAX_ITERATIONS,
    every other level to LEVEL_ITERATIONS: 1 of 544 smoothing levels of the
    cube and the cross-polytope reach it (128 and 256 points, seeds 0-7, 4
    restarts), and a cap of 5000 changes none of their values."""
    if not body.is_smooth:
        return [(n_pts, p, LEVEL_ITERATIONS) for p in SMOOTHING_LEVELS]
    counts = [n_pts]
    for _ in range(POINT_HALVINGS):
        if counts[0] % (2 * m) or counts[0] < 8 * m:
            break
        counts.insert(0, counts[0] // 2)
    caps = [LEVEL_ITERATIONS] * (len(counts) - 1) + [MAX_ITERATIONS]
    return [(n, None, cap) for n, cap in zip(counts, caps)]


def _refine(frame, y, m):
    """The free vertices y interleaved with the edge midpoints of their loop
    continued by x_{len(y)} = W x_0: twice as many, same continuation."""
    nxt = np.vstack([y[1:], frame.root_multiply(m, 1, y[:1])])
    return np.stack([y, 0.5 * (y + nxt)], axis=1).reshape(-1, y.shape[1])


def _unit_action_loop(frame, x) -> DiscreteLoop:
    """The loop x oriented positively and scaled to unit action, the form in
    which every restart is evaluated and the witness reported."""
    act = float(frame.polygon_action(x))
    if act == 0.0:
        raise ZeroActionStart("loop has zero symplectic action")
    if act < 0:
        x, act = x[::-1].copy(), -act
    return DiscreteLoop(frame, x / math.sqrt(act))


def clarke_minimize(
    body: ConvexBody, config: Optional[OptimizerConfig] = None
) -> CapacityResult:
    """Minimize the dual action functional over discrete loops.

    Multistart quasi-Newton descent over the loops with x_{k + N/m} =
    W x_k, where m = ``symmetry_order``: only the first N/m vertices are
    free, all N when m = 1.  L-BFGS-B's variables are their edges
    (``_to_edges``): Clarke's principle is posed on velocities, and in the
    vertices the length's Hessian is a discrete Laplacian, conditioned like
    N^2.  Each level maps its start to edges and its result back; all else
    works on vertices.  The restarts run the levels of ``_levels``
    together, each warm-started from its own last iterate: on a polytope
    the smoothing exponent p = 40, 160, ..., 10240 at N points, on a smooth
    body N/8, N/4, N/2 and N points, each finer loop seeded by ``_refine``.
    Every restart runs the first level; only the one with the least exact
    value after it (the first on ties) runs the later ones (diagnostics
    ``levels_run``), and the others are carried to N points by
    ``_refine``, which keeps their value.  On the suite's symmetric smooth
    bodies at 128 and 256 points the restarts share one basin, though not
    at every point count: on the l4 ball at 32 points the restarts mostly
    end the 16-point level within 1e-7 of each other, so rounding picks the
    leader, whose 32-point level ends in one of two minima 2.5e-5 apart.
    On the suite's cube and cross-polytope, ranking after p = 40 gives the
    same value as ranking after p = 2560, bit for bit, at ``verify`` seeds
    0-7 of both profiles.  (A polytope's smoothed value ranks worse: at
    p = 2560 the cross-polytope's restarts agree in it to 4e-8 and differ
    in the exact value by up to 1.3e-4.)  A translated ellipsoid is solved
    on its centered copy, whose symmetry may be larger: h_{K+c}(u) = h_K(u) +
    <u, c> and the edges u_k sum to zero, so the functional is the same.
    Every restart's full loop is evaluated on the body itself with the
    exact support function, oriented and at unit action
    (``_unit_action_loop``), so each is a genuine discrete upper bound; the
    least is the value, its loop the witness.  A restart's ``converged``
    is L-BFGS-B's own stop, not its iteration cap, on the last level that
    restart ran: the first level for a pruned one.  For polytopes the
    smoothed value of the last level is kept in the diagnostics.
    """
    calibration_self_test()
    config = config or OptimizerConfig()
    frame = frame_for(body)
    n_pts = config.points
    solve_body = Ellipsoid(body.matrix) if isinstance(body, Ellipsoid) else body
    m = symmetry_order(solve_body, config)
    levels = _levels(solve_body, n_pts, m)
    scale = 0.5 * solve_body.outer_radius()

    def objective(flat, p, y0):
        y = _to_vertices(flat.reshape(-1, frame.dim), m, y0)
        val, grad = _functional_with_grad(solve_body, y, m, p)
        return val, _edge_gradient(grad, m).ravel()

    def full_loop(y):
        while m * len(y) < n_pts:
            y = _refine(frame, y, m)
        return np.vstack([frame.root_multiply(m, j, y) for j in range(m)])

    ys = []
    for rng in spawn_rngs(config.seed, config.restarts):
        x0 = _planar_ellipse_init(frame, rng, levels[0][0], scale)
        if not frame.polygon_action(x0) > 0:
            raise ZeroActionStart("a Clarke start has no positive action")
        # the W-invariant part of the start: sum_j W^-j x0_j / m over blocks
        y = np.mean(
            [frame.root_multiply(m, -j, b) for j, b in enumerate(np.split(x0, m))],
            axis=0,
        )
        ys.append(y)
    results = [None] * config.restarts
    iterations = [0] * config.restarts
    levels_run = [0] * config.restarts
    racing = range(config.restarts)
    for level, (n, p, max_iterations) in enumerate(levels):
        if level == 1:
            racing = [
                min(racing, key=lambda k: clarke_functional(body, full_loop(ys[k])))
            ]
        for k in racing:
            if n > m * len(ys[k]):
                ys[k] = _refine(frame, ys[k], m)
            res = results[k] = minimize(
                objective,
                _to_edges(frame, ys[k], m).ravel(),
                args=(p, ys[k][0]),
                jac=True,
                method="L-BFGS-B",
                options=dict(
                    maxiter=max_iterations, ftol=F_RTOL, gtol=G_TOL, maxcor=20
                ),
            )
            ys[k] = _to_vertices(res.x.reshape(-1, frame.dim), m, ys[k][0])
            iterations[k] += int(res.nit)
            levels_run[k] += 1

    loops = [_unit_action_loop(frame, full_loop(y)) for y in ys]
    restart_values = [clarke_functional(body, loop) for loop in loops]
    best = int(np.argmin(restart_values))
    witness, value = loops[best], restart_values[best]
    diagnostics = {
        "restart_values": restart_values,
        "iterations": iterations,
        "converged": [bool(res.success) for res in results],
        "levels_run": levels_run,
        "points": n_pts,
        "symmetry_order": m,
    }
    if not body.is_smooth:
        last_p = levels[-1][1]
        diagnostics["smoothing_p"] = last_p
        diagnostics["smoothed_value"] = _functional_with_grad(
            body, witness.vertices, 1, last_p
        )[0]
    return CapacityResult(
        value=value, method=METHOD_CLARKE, witness=witness, diagnostics=diagnostics
    )


# ---------------------------------------------------------------------------
# c_j
# ---------------------------------------------------------------------------

# boundary samples of the polar that the ascent starts from, and its round cap
CJ_SAMPLES = 2048
CJ_ROUNDS = 200


def c_j(body: ConvexBody, method: str = "auto", seed=0) -> CapacityResult:
    """The pairing capacity: 1 over the largest omega value on the polar.

    Polytopes (vertex pairs) and centered ellipsoids (spectral) have an
    exact path; other bodies take the support ascent of ``_c_j_ascent``.
    ``method="optimize"`` forces the ascent, mainly for cross-checks.
    """
    frame = frame_for(body)
    if method not in ("auto", "optimize"):
        raise InvalidParameter(f"unknown method {method!r}")
    if method == "auto":
        if isinstance(body, Polytope):
            return _c_j_vertex_pairs(body, frame)
        if isinstance(body, Ellipsoid) and body.is_symmetric:
            return _c_j_spectral(body)
    return _c_j_ascent(body, frame, as_rng(seed))


def _c_j_vertex_pairs(body: Polytope, frame) -> CapacityResult:
    polar = body.polar()
    w = polar.vertices
    omega = frame.apply_j(w) @ w.T
    i, j = np.unravel_index(np.argmax(omega), omega.shape)
    top = float(omega[i, j])
    if top <= 0:
        raise NonConvexParameters("polar polytope is degenerate for omega")
    return CapacityResult(
        value=1.0 / top,
        method=METHOD_EXACT_VERTEX_PAIR,
        witness=(w[i].copy(), w[j].copy()),
        diagnostics={"polar_vertices": int(len(w)), "omega_max": top},
    )


def _c_j_spectral(body: Ellipsoid) -> CapacityResult:
    # polar points are M^{1/2} u with |u| <= 1, so the largest omega value is
    # the top singular value of S = M^{1/2} J M^{1/2}
    frame = frame_for(body)
    root = body.sqrt_matrix()
    s_mat = root @ frame.j_matrix() @ root
    u_svd, sing, vt = np.linalg.svd(s_mat)
    top = float(sing[0])
    x = root @ vt[0]
    y = root @ u_svd[:, 0]
    if frame.omega(x, y) < 0:  # fix the sign of the singular pair
        y = -y
    return CapacityResult(
        value=1.0 / top,
        method=METHOD_EXACT_SPECTRAL,
        witness=(x, y),
        diagnostics={"omega_max": top},
    )


def _c_j_ascent(body, frame, rng) -> CapacityResult:
    """Block coordinate support ascent over pairs in the polar body, run
    from CJ_SAMPLES random boundary points of the polar at once.

    Each half step maximizes omega exactly in one argument (a support point
    of the polar), so no pair's value decreases.  The first half step pairs
    each sample x with its exact best partner y = sp(J x); the largest of
    those values, ``sample_lower_bound``, is attained by a pair.  The rounds
    stop once no pair's value grows, and the best pair is the witness.
    """
    polar = body.polar()
    x = polar.boundary_point(rng.normal(size=(CJ_SAMPLES, body.dim)))
    y = polar.support_point(frame.apply_j(x))
    val = frame.omega(x, y)
    sample_max = float(val.max())
    for _ in range(CJ_ROUNDS):
        x = polar.support_point(-frame.apply_j(y))
        y = polar.support_point(frame.apply_j(x))
        new = frame.omega(x, y)
        grew = (new - val > 1e-15 * np.maximum(1.0, np.abs(new))).any()
        val = new
        if not grew:
            break
    best = int(np.argmax(val))
    best_val = float(val[best])
    if best_val <= 0:
        raise NonConvexParameters("could not find a positive omega pair")
    return CapacityResult(
        value=1.0 / best_val,
        method=METHOD_MULTISTART,
        witness=(x[best].copy(), y[best].copy()),
        diagnostics={
            "omega_max": best_val,
            "sample_lower_bound": sample_max,
            "samples": CJ_SAMPLES,
        },
    )


# ---------------------------------------------------------------------------
# Exact ellipsoid capacity
# ---------------------------------------------------------------------------

def ellipsoid_ehz_exact(body: Ellipsoid) -> CapacityResult:
    """pi / lambda_max over the purely imaginary spectrum {+-i lambda} of J M.

    J M is similar to the antisymmetric M^{1/2} J M^{1/2}, so its spectrum is
    purely imaginary; the fastest rotation gives the shortest closed orbit.
    The value only depends on M, a translated ellipsoid has the same
    capacity, so a nonzero center is accepted and ignored.
    """
    if not isinstance(body, Ellipsoid):
        raise NonConvexParameters("ellipsoid_ehz_exact needs an Ellipsoid")
    frame = frame_for(body)
    root = body.sqrt_matrix()
    s_mat = root @ frame.j_matrix() @ root
    eigs = np.linalg.eigvalsh(1j * s_mat)
    lam_max = float(np.max(np.abs(eigs)))
    return CapacityResult(
        value=math.pi / lam_max,
        method=METHOD_ELLIPSOID_EIGEN,
        witness=None,
        diagnostics={
            "frequencies": sorted(float(v) for v in np.abs(eigs[eigs > 1e-14])),
            "lambda_max": lam_max,
        },
    )
