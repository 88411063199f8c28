"""Capacity estimates for convex bodies in R^{2n}.

Three quantities are computed here:

* ``c_j``                  the pairing invariant 1 / max{omega(x, y) : x, y in
                           the polar body}, exact for polytopes (vertex pairs)
                           and centered ellipsoids (spectral), otherwise a
                           multistart support ascent with a sampling bound
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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from ._util import as_rng, random_unit_vector, spawn_rngs
from .errors import (
    CalibrationError,
    DimensionMismatch,
    InvalidParameter,
    NonConvexParameters,
    ZeroActionStart,
)
from .geometry import ConvexBody, Ellipsoid, Polytope, ball
from .loops import DiscreteLoop
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


# L-BFGS-B settings and the p-norm that smooths polytope supports for the
# optimizer; the reported value always re-evaluates with the exact support
MAX_ITERATIONS = 5000
F_RTOL = 1e-12
G_TOL = 1e-10
SMOOTHING_P = 40.0


@dataclass
class OptimizerConfig:
    """Knobs for the Clarke dual minimization."""

    seed: int = 0
    restarts: int = 8
    points: int = 256
    symmetric: bool = False

    def __post_init__(self):
        if self.points < 3:
            raise InvalidParameter("need at least 3 loop points")
        if self.restarts < 1:
            raise InvalidParameter("need at least 1 restart")
        if self.symmetric and self.points % 2 != 0:
            raise InvalidParameter("symmetric mode needs an even number of points")


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


def clarke_functional(
    body: ConvexBody,
    vertices,
    smoothing_p: Optional[float] = None,
) -> float:
    """c(gamma) = L(gamma)^2 / (4 |A(gamma)|) for a discrete loop.

    Scale invariant by construction.  With ``smoothing_p`` set, polytope
    support values use the smoothed form the optimizer works with.
    """
    frame = frame_for(body)
    x = np.asarray(
        vertices.vertices if isinstance(vertices, DiscreteLoop) else vertices,
        dtype=float,
    )
    edges = np.roll(x, -1, axis=0) - x
    u = -frame.apply_j(edges)
    if smoothing_p is None:
        lengths = body.support(u)
    else:
        lengths, _ = body.smoothed_support_and_point(u, smoothing_p)
    length = float(np.sum(lengths))
    a = float(frame.polygon_action(x))
    if a == 0.0:
        raise ZeroActionStart("loop has zero symplectic action")
    return length**2 / (4.0 * abs(a))


def _functional_with_grad(body, frame, x):
    """The functional and its gradient; polytope supports are smoothed."""
    edges = np.roll(x, -1, axis=0) - x
    u = -frame.apply_j(edges)
    if body.is_smooth:
        h, s = body.support_and_point(u)
    else:
        h, s = body.smoothed_support_and_point(u, SMOOTHING_P)
    length = float(np.sum(h))
    a = float(frame.polygon_action(x))
    # dL/dx_k = -J (s_k - s_{k-1});  dA/dx_k = J (x_{k-1} - x_{k+1}) / 2
    grad_len = -frame.apply_j(s - np.roll(s, 1, axis=0))
    grad_act = 0.5 * frame.apply_j(np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0))
    val = length**2 / (4.0 * abs(a))
    grad = (length / (2.0 * abs(a))) * grad_len - math.copysign(
        length**2 / (4.0 * a * a), a
    ) * grad_act
    return val, grad


# ---------------------------------------------------------------------------
# Startup calibration
# ---------------------------------------------------------------------------

_CALIBRATED = False


def calibration_self_test():
    """Check the functional normalization against closed forms, once.

    The regular N-gon inscribed in the unit circle of a coordinate plane must
    evaluate to exactly N tan(pi/N), which is within one percent of pi for
    N = 256, and the spectral ellipsoid value for semi-axes (1, 2) must be pi.
    """
    global _CALIBRATED
    if _CALIBRATED:
        return
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
    _CALIBRATED = True


# ---------------------------------------------------------------------------
# Clarke dual minimization
# ---------------------------------------------------------------------------

def _planar_ellipse_init(frame, rng, n_pts, scale):
    """Random planar ellipse in a complex line plus mild low-order ripples.

    Complex-line planes guarantee a solidly nonzero starting action.
    """
    d = frame.dim
    u = random_unit_vector(rng, d)
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


def clarke_minimize(
    body: ConvexBody, config: Optional[OptimizerConfig] = None
) -> CapacityResult:
    """Minimize the dual action functional over discrete loops.

    Multistart quasi-Newton descent on the vertex coordinates.  The reported
    value re-evaluates the best loop with the exact support function, so it
    is always a genuine discrete upper bound; for polytopes the smoothed
    value that was actually optimized is kept in the diagnostics.
    """
    calibration_self_test()
    config = config or OptimizerConfig()
    frame = frame_for(body)
    n_pts = config.points
    half = n_pts // 2
    scale = 0.5 * body.outer_radius()

    # symmetric mode optimizes the half y of the loop (y, -y): the same
    # functional composed with this expansion, its gradient folded back
    def expand(flat):
        x = flat.reshape(-1, frame.dim)
        return np.vstack([x, -x]) if config.symmetric else x

    def objective(flat):
        val, grad = _functional_with_grad(body, frame, expand(flat))
        if config.symmetric:
            grad = grad[:half] - grad[half:]
        return val, grad.ravel()

    best_x = None
    best_val = math.inf
    restart_values = []
    iterations = []
    converged_flags = []
    for rng in spawn_rngs(config.seed, config.restarts):
        x0 = None
        for _ in range(10):
            cand = _planar_ellipse_init(frame, rng, n_pts, scale)
            if abs(frame.polygon_action(cand)) > 1e-10 * scale**2:
                x0 = cand
                break
        if x0 is None:
            raise ZeroActionStart("could not draw a start with nonzero action")
        if frame.polygon_action(x0) < 0:
            x0 = x0[::-1].copy()
        if config.symmetric:
            x0 = 0.5 * (x0[:half] - np.roll(x0, -half, axis=0)[:half])
        res = minimize(
            objective,
            x0.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": MAX_ITERATIONS,
                "ftol": F_RTOL,
                "gtol": G_TOL,
                "maxcor": 20,
            },
        )
        x_final = expand(res.x)
        value = clarke_functional(body, x_final)
        restart_values.append(value)
        iterations.append(int(res.nit))
        converged_flags.append(bool(res.success))
        if value < best_val:
            best_val = value
            best_x = x_final

    # orient positively and rescale the witness to unit action
    act = float(frame.polygon_action(best_x))
    if act < 0:
        best_x = best_x[::-1].copy()
        act = -act
    witness = DiscreteLoop(frame, best_x / math.sqrt(act))
    value = clarke_functional(body, witness)
    diagnostics = {
        "restart_values": restart_values,
        "iterations": iterations,
        "converged": converged_flags,
        "points": n_pts,
        "symmetric": config.symmetric,
    }
    if not body.is_smooth:
        diagnostics["smoothing_p"] = SMOOTHING_P
        diagnostics["smoothed_value"] = clarke_functional(
            body, witness, smoothing_p=SMOOTHING_P
        )
    return CapacityResult(
        value=value, method=METHOD_CLARKE, witness=witness, diagnostics=diagnostics
    )


# ---------------------------------------------------------------------------
# c_j
# ---------------------------------------------------------------------------

def c_j(
    body: ConvexBody,
    method: str = "auto",
    restarts: int = 16,
    samples: int = 2048,
    seed=0,
) -> CapacityResult:
    """The pairing capacity: 1 over the largest omega value on the polar.

    ``method`` may be "auto", "exact" (error if no exact path applies), or
    "optimize" (force the general path, mainly for cross-checks).
    """
    frame = frame_for(body)
    if method not in ("auto", "exact", "optimize"):
        raise ValueError(f"unknown method {method!r}")

    if method != "optimize":
        if isinstance(body, Polytope):
            return _c_j_vertex_pairs(body, frame)
        if isinstance(body, Ellipsoid) and body.is_symmetric:
            return _c_j_spectral(body)
        if method == "exact":
            raise NonConvexParameters(
                "no exact c_j path for this body; use method='auto' or 'optimize'"
            )
    return _c_j_ascent(body, frame, restarts, samples, as_rng(seed))


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


def _c_j_ascent(body, frame, restarts, samples, rng) -> CapacityResult:
    """Block coordinate support ascent over pairs in the polar body.

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
