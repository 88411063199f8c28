"""Discrete closed loops: gauge lengths, actions, resampling, containment.

A loop is a cyclic vertex list; edges are straight segments and the edge
i -> i+1 has gauge length g_K(x_{i+1} - x_i).  Splitting and resampling are
done by linear interpolation along edges, which is exact for 1-homogeneous
gauges: a point a fraction t along an edge sits at gauge distance t * g(edge)
from its start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize, nnls, root

from .errors import (
    DegenerateLoop,
    DimensionMismatch,
    InvalidParameter,
    OptimizerDidNotConverge,
    SpecParseError,
    SymcapError,
    TooFewVertices,
)
from .geometry import ConvexBody, Polytope
from .symplectic import SymplecticFrame


@dataclass
class DiscreteLoop:
    """A closed polygonal loop in a symplectic vector space."""

    frame: SymplecticFrame
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch("vertices must be an (N, 2n) array")
        if v.shape[1] != self.frame.dim:
            raise DimensionMismatch(
                f"vertices have dim {v.shape[1]}, frame has dim {self.frame.dim}"
            )
        if v.shape[0] < 3:
            raise TooFewVertices(f"a loop needs at least 3 vertices, got {v.shape[0]}")
        if not np.isfinite(v).all():
            raise InvalidParameter("loop vertices must be finite")
        # finite vertices near the float limit can still overflow the action
        with np.errstate(over="ignore", invalid="ignore"):
            action = self.frame.polygon_action(v)
        if not np.isfinite(action):
            raise InvalidParameter("loop action must be finite")
        self.vertices = v

    def __len__(self):
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.dim

    def action(self) -> float:
        return float(self.frame.polygon_action(self.vertices))

    def scaled(self, s: float) -> "DiscreteLoop":
        return DiscreteLoop(self.frame, self.vertices * float(s))

    def normalize(self) -> "DiscreteLoop":
        """Drop consecutive duplicate vertices (cyclically)."""
        out = self.vertices[~_repeats_previous(self.vertices)]
        if out.shape[0] < 3:
            raise DegenerateLoop("loop collapses to fewer than 3 distinct vertices")
        return DiscreteLoop(self.frame, out)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "vertices": self.vertices.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "DiscreteLoop":
        try:
            dim = int(obj["dim"])
            vertices = np.asarray(obj["vertices"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecParseError(f"malformed loop description: {exc}") from exc
        if dim < 2 or dim % 2 != 0:
            raise SpecParseError(f"loop dim must be even and positive, got {dim}")
        try:
            return cls(SymplecticFrame(dim // 2), vertices)
        except SymcapError as exc:  # wrong shape, too few vertices, not finite
            raise SpecParseError(str(exc)) from exc


def closed_length(vertices, norm_fn) -> float:
    """Total norm length sum_i norm(x_{i+1} - x_i) of a closed polygon."""
    return float(np.sum(norm_fn(np.roll(vertices, -1, axis=0) - vertices)))


def _repeats_previous(v):
    """Whether each vertex lies within 1e-12 * max(1, max |x|) of the one
    before it, cyclically: the duplicates ``normalize`` drops."""
    scale = max(1.0, float(np.abs(v).max()))
    return np.linalg.norm(v - np.roll(v, 1, axis=0), axis=1) <= 1e-12 * scale


def gauge_length(loop: DiscreteLoop, body: ConvexBody) -> float:
    """Total gauge length sum_i g_K(x_{i+1} - x_i) around the loop."""
    if body.dim != loop.dim:
        raise DimensionMismatch("loop and body dimensions differ")
    if _repeats_previous(loop.vertices).any():
        raise DegenerateLoop("consecutive duplicate vertices; call normalize first")
    return closed_length(loop.vertices, body.gauge)


# ---------------------------------------------------------------------------
# Arclength cuts shared by resampling, splitting and symmetrization
# ---------------------------------------------------------------------------

def _cumulative_lengths(v, norm_fn):
    """The norm arclength at each vertex of the open polyline v."""
    lens = np.asarray(norm_fn(v[1:] - v[:-1]), dtype=float)
    total = float(lens.sum())
    if total <= 0:
        raise DegenerateLoop("polyline has zero total length")
    cumlen = np.concatenate([[0.0], np.cumsum(lens)])
    cumlen[-1] = total
    return cumlen


def _points_at(v, cumlen, s):
    """Points a + t (b - a) at arclengths s, each on the edge a -> b holding it."""
    idx = np.clip(np.searchsorted(cumlen, s, side="right") - 1, 0, len(cumlen) - 2)
    seg = cumlen[idx + 1] - cumlen[idx]
    t = np.divide(s - cumlen[idx], seg, out=np.zeros(len(idx)), where=seg > 0)
    a = v[idx]
    return a + t[:, None] * (v[idx + 1] - a)


def resample_polyline(vertices, norm_fn, count):
    """Resample an open polyline at equal norm-arclength spacing: ``count``
    vertices, both endpoints included."""
    v = np.asarray(vertices, dtype=float)
    cumlen = _cumulative_lengths(v, norm_fn)
    targets = np.linspace(0.0, cumlen[-1], count)
    return _points_at(v, cumlen, np.minimum(targets, cumlen[-1]))


def split_closed_at_fractions(vertices, norm_fn, pieces):
    """Split a closed polygonal loop into pieces of equal norm length.

    Returns a list of open vertex paths; consecutive paths share their
    endpoint, and the last path ends at vertex 0 again.  Split points landing
    inside an edge are inserted by linear interpolation, and a point within
    1e-13 * max(1, max |x|) of its predecessor on the path is dropped.
    """
    v = np.asarray(vertices, dtype=float)
    v = np.vstack([v, v[:1]])  # the open polyline that ends back at vertex 0
    cumlen = _cumulative_lengths(v, norm_fn)
    cuts = np.arange(pieces + 1) * cumlen[-1] / pieces
    ends = _points_at(v, cumlen, cuts)
    tol = 1e-13 * max(1.0, float(np.abs(v).max()))
    paths = []
    for k in range(pieces):
        # vertex j sits at arclength cumlen[j]; keep those strictly inside
        # the piece, between its interpolated endpoints
        inside = np.nonzero((cuts[k] < cumlen[1:]) & (cumlen[1:] < cuts[k + 1]))[0]
        path = np.vstack([ends[k], v[inside + 1], ends[k + 1]])
        step = np.linalg.norm(np.diff(path, axis=0), axis=1)
        paths.append(path[np.concatenate([[True], step > tol])])
    return paths


# ---------------------------------------------------------------------------
# Containment score
# ---------------------------------------------------------------------------

# the certified gap containment_score accepts, relative to max(1, sigma)
_GAP_TOL = 1e-7


@dataclass
class ContainmentDetails:
    """``gap`` bounds sigma minus the true minimum (nominal for the LP);
    ``method`` is "lp" for polytopes and "slsqp" otherwise."""

    sigma: float
    translation: np.ndarray
    gap: float
    method: str = "slsqp"


def containment_score(loop, body: ConvexBody, rng=None, return_details: bool = False):
    """sigma = min over translations t of max_i g_K(x_i - t).

    The objective is convex in t.  Polytope bodies are solved exactly as a
    linear program.  Smooth bodies solve the epigraph form
    (min s s.t. s >= g_K(x_i - t)) by SLSQP from the centroid, polish the
    tie point with a root solve of its stationarity and equal-value
    equations, and bound the remaining gap by a simplex certificate.  Raises
    OptimizerDidNotConverge when the certified gap exceeds ``_GAP_TOL`` times
    max(1, sigma).  Both paths are deterministic: ``rng`` has no effect and
    is accepted for compatibility.

    Accepts a DiscreteLoop or a plain (N, d) array of points.
    """
    pts = loop.vertices if isinstance(loop, DiscreteLoop) else np.asarray(loop, float)
    if pts.ndim != 2 or pts.shape[1] != body.dim:
        raise DimensionMismatch("points must be (N, d) matching the body dimension")

    if isinstance(body, Polytope):
        details = _containment_lp(pts, body)
    else:
        details = _containment_slsqp(pts, body)
    if details.gap > _GAP_TOL * max(1.0, details.sigma):
        raise OptimizerDidNotConverge(
            f"containment score gap {details.gap:.3e} above tolerance",
            best=details.sigma,
            gap=details.gap,
        )
    return details if return_details else details.sigma


def _containment_lp(pts, body: Polytope) -> ContainmentDetails:
    # minimize s  s.t.  <A_j, x_i> - <A_j, t> <= s * b_j  for all i, j
    a, b = body.normals, body.offsets
    n_pts, d = pts.shape
    a_ub = np.hstack(
        [np.tile(-a, (n_pts, 1)), np.repeat(-b[None, :], n_pts, axis=0).reshape(-1, 1)]
    )
    b_ub = -(pts @ a.T).ravel()
    res = linprog(
        c=np.concatenate([np.zeros(d), [1.0]]),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * d + [(0, None)],
        method="highs",
    )
    if not res.success:
        raise OptimizerDidNotConverge(f"containment LP failed: {res.message}")
    t = res.x[:d]
    sigma = float(np.max(body.gauge(pts - t)))
    return ContainmentDetails(
        sigma=sigma, translation=t, gap=1e-9 * max(1.0, sigma), method="lp"
    )


def _containment_slsqp(pts, body) -> ContainmentDetails:
    # epigraph form: min s over z = (t, s) s.t. s - g_K(x_i - t) >= 0.  The
    # default ftol (1e-6, absolute) stops too early on nearly flat gauges such
    # as an l^40 ball; a tight one often ends in a failed line search at the
    # optimum, so SLSQP's status is ignored and the certificate decides
    d = pts.shape[1]

    def objective(t):
        return float(np.max(body.gauge(pts - t)))

    ones = np.ones((len(pts), 1))
    t0 = pts.mean(axis=0)
    f0 = objective(t0)
    e_s = np.eye(d + 1)[d]
    res = minimize(
        lambda z: z[d],
        np.append(t0, f0),
        jac=lambda z: e_s,
        constraints={
            "type": "ineq",
            "fun": lambda z: z[d] - body.gauge(pts - z[:d]),
            "jac": lambda z: np.hstack([body.gauge_gradient(pts - z[:d]), ones]),
        },
        method="SLSQP",
        options={"ftol": 1e-14},
    )
    best_t = res.x[:d]
    best_f = objective(best_t)
    gap = _containment_certificate(pts, body, best_t, best_f)

    # SLSQP alone certifies gaps up to ~1e-7; solving the stationarity and
    # equal-value equations of the tie recovers the point to rounding level,
    # which is what makes the certificate tight.  The polished point is kept
    # only when it certifies a lower gap, so a non-finite one loses
    t_tie = _tie_polish(pts, body, best_t)
    if t_tie is not None:
        f_tie = objective(t_tie)
        gap_tie = _containment_certificate(pts, body, t_tie, f_tie)
        if gap_tie < gap:
            best_t, best_f, gap = t_tie, f_tie, gap_tie

    return ContainmentDetails(
        sigma=best_f, translation=best_t, gap=gap, method="slsqp"
    )


def _containment_certificate(pts, body, t_hat, f_hat):
    """Certified optimality gap from a simplex combination of subgradients.

    For any simplex weights lam supported on the points, convexity gives
    F(t) >= sum lam_i g_i(t_hat) - |sum lam_i grad_i| * |t - t_hat|, and the
    minimizer is known to lie within a computable radius R of t_hat.  The
    active cutoff trades the value spread against the hull norm, so several
    cutoffs are tried and the best certified bound wins.
    """
    values = body.gauge(pts - t_hat)
    radius = float(
        np.min(np.linalg.norm(pts - t_hat, axis=1)) + body.outer_radius() * f_hat
    )
    best_gap = np.inf
    for rel_cut in (1e-12, 1e-9, 1e-6):
        cutoff = f_hat - rel_cut * max(1.0, f_hat)
        active = np.nonzero(values >= cutoff)[0]
        if len(active) == 0:
            continue
        grads = body.gauge_gradient(pts[active] - t_hat)  # (k, d)
        # min-norm point in the convex hull of the gradients, augmented NNLS
        g_mat = grads.T
        rho = 10.0 * max(1.0, float(np.abs(g_mat).max()))
        a_mat = np.vstack([g_mat, rho * np.ones((1, len(active)))])
        b_vec = np.concatenate([np.zeros(g_mat.shape[0]), [rho]])
        lam, _ = nnls(a_mat, b_vec)
        s = lam.sum()
        if s <= 0:
            lam = np.full(len(active), 1.0 / len(active))
        else:
            lam = lam / s
        r = float(np.linalg.norm(g_mat @ lam))
        lower = float(lam @ values[active]) - r * radius
        best_gap = min(best_gap, max(f_hat - lower, 0.0))
    return best_gap


def _tie_polish(pts, body, t0):
    """Solve the minimax tie system at the active set of ``t0``.

    Unknowns (t, lam); equations: sum_i lam_i dg_i/dt = 0, g_i(t) = g_0(t)
    over the active samples, sum lam = 1, solved by MINPACK's
    Levenberg-Marquardt from (t0, 1/k).  Returns the solved translation, or
    None unless 2 <= k <= d + 1 samples are active.
    """
    d = pts.shape[1]
    values = body.gauge(pts - t0)
    fmax = float(values.max())
    x = pts[values >= fmax - 1e-6 * max(1.0, fmax)]
    k = len(x)
    if k < 2 or k > d + 1:
        return None

    def residual(z):
        t, lam = z[:d], z[d:]
        g = body.gauge(x - t)
        stationarity = -body.gauge_gradient(x - t).T @ lam
        return np.concatenate([stationarity, g[1:] - g[0], [lam.sum() - 1.0]])

    sol = root(residual, np.concatenate([t0, np.full(k, 1.0 / k)]), method="lm")
    return sol.x[:d]
