"""Convex bodies with the origin inside: gauges, supports, polars.

Every body K exposes the same small contract:

* ``gauge(x)``          Minkowski gauge g_K, 1-homogeneous, 1 on the boundary
* ``support(u)``        support function h_K(u) = max_{y in K} <u, y>
* ``support_and_point(u)`` h_K(u) and a maximizer of <u, .> over K, one kernel
* ``support_point(u)``  that maximizer alone, defined once in ``ConvexBody``
* ``gauge_gradient(x)`` gradient (or a deterministic subgradient selection)
* ``polar()``           the polar body, satisfying h_K = g_{K polar}
* ``boundary_point(d)`` the boundary point on the ray through d
* ``is_invariant(m)``    whether W = ``root_multiply(m, 1)`` maps K onto itself
  (W = -I at m = 2, J at m = 4), exact per class up to one tolerance;
  ``is_symmetric`` is its m = 2 case, K = -K

All evaluation methods are vectorized over leading axes, so ``gauge`` on an
``(N, d)`` array returns ``(N,)`` values.  At 0 the values are defined,
gauge(0) = support(0) = 0; the points are not: ``support_and_point``,
``gauge_gradient`` and ``boundary_point`` raise GradientUndefinedAtZero on a
batch holding a zero row, for every body, and on a nonzero row too small to
tell from 0 rather than answer for another direction: ellipsoid kernels and
``boundary_point`` where their quadratic form or norm underflows to 0,
polytope kernels where all scores tie within 1e-12 of the row's maximum.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError, cKDTree

from ._util import lexicographic_rank
from .errors import (
    DimensionMismatch,
    GradientUndefinedAtZero,
    NonConvexParameters,
    OriginNotInterior,
    SpecParseError,
    SymcapError,
)
from .symplectic import SymplecticFrame

_SYM_TOL = 1e-9


def _has_zero(a) -> bool:
    """Whether a holds an exact 0 (NaN is nonzero); scalar cost at ndim 0."""
    return a == 0.0 if a.ndim == 0 else np.count_nonzero(a) < a.size


def _finite(name, values) -> np.ndarray:
    """``values`` as a float array; NonConvexParameters unless all finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonConvexParameters(f"{name} must be finite")
    return values


class ConvexBody:
    """Common behavior for all body kinds; not instantiated directly."""

    kind: str = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    # -- subclass responsibilities -------------------------------------
    def gauge(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def support(self, u):  # pragma: no cover - abstract
        raise NotImplementedError

    def support_and_point(self, u):  # pragma: no cover - abstract
        raise NotImplementedError

    def gauge_gradient(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def polar(self) -> "ConvexBody":  # pragma: no cover - abstract
        raise NotImplementedError

    def _maps_onto_itself(self, m: int, w) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_smooth(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def outer_radius(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------
    def _check_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got shape {x.shape}"
            )
        return x

    def boundary_point(self, direction) -> np.ndarray:
        """The unique boundary point on the open ray spanned by direction."""
        d = self._check_vec(direction)
        if _has_zero(np.linalg.norm(d, axis=-1)):
            raise GradientUndefinedAtZero("boundary ray undefined for direction 0")
        g = self.gauge(d)
        return d / np.asarray(g)[..., None]

    def support_point(self, u):
        """A maximizer of <u, .> over K: the point of ``support_and_point``."""
        return self.support_and_point(u)[1]

    def is_invariant(self, m: int) -> bool:
        """Whether W = ``root_multiply(m, 1)`` maps K onto itself.

        W turns every (q_i, p_i) plane by 2 pi / m: the identity at m = 1, -I
        at m = 2 (defined in every dimension), J at m = 4.  Each body class
        answers exactly, up to the one tolerance ``_SYM_TOL``; where W is
        undefined (odd dimension, m > 2) the answer is False.
        """
        if m == 1:
            return True
        if m == 2:
            return self._maps_onto_itself(m, np.negative)
        if self.dim % 2:
            return False
        frame = SymplecticFrame(self.dim // 2)
        return self._maps_onto_itself(m, lambda x: frame.root_multiply(m, 1, x))

    @property
    def is_symmetric(self) -> bool:
        """K = -K, the case m = 2 of ``is_invariant``."""
        return self.is_invariant(2)

    def to_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Ellipsoid(ConvexBody):
    """Solid ellipsoid {x : (x - c)^T M (x - c) <= 1} with M positive definite.

    The center c defaults to the origin; a nonzero center gives the standard
    example of a non-symmetric smooth body.  The origin must stay strictly
    inside, which for a shifted ellipsoid means c^T M c < 1.
    """

    kind = "ellipsoid"

    def __init__(self, matrix, center=None):
        matrix = _finite("ellipsoid matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise NonConvexParameters(f"matrix must be square, got {matrix.shape}")
        super().__init__(matrix.shape[0])
        if not np.allclose(matrix, matrix.T, atol=1e-10 * (1 + np.abs(matrix).max())):
            raise NonConvexParameters("ellipsoid matrix must be symmetric")
        self.matrix = 0.5 * (matrix + matrix.T)
        try:
            np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError:
            raise NonConvexParameters("ellipsoid matrix must be positive definite")
        center = np.zeros(self.dim) if center is None else self._check_vec(center)
        self.center = _finite("ellipsoid center", center).copy()
        self._e = float(self.center @ self.matrix @ self.center)
        if self._e >= 1.0:
            raise OriginNotInterior(
                "origin lies outside the shifted ellipsoid (c^T M c >= 1)"
            )
        self._inv = np.linalg.inv(self.matrix)
        w, u = np.linalg.eigh(self.matrix)
        self._eigvals = w
        self._sqrt = (u * np.sqrt(w)) @ u.T

    @classmethod
    def from_radii(cls, radii, center=None) -> "Ellipsoid":
        """Axis-aligned ellipsoid with the given semi-axis per coordinate."""
        radii = _finite("semi-axes", radii)
        if np.any(radii <= 0):
            raise NonConvexParameters("semi-axes must be positive")
        return cls(np.diag(1.0 / radii**2), center=center)

    def sqrt_matrix(self) -> np.ndarray:
        """The symmetric square root M^{1/2}."""
        return self._sqrt.copy()

    def gauge(self, x):
        return self._quad_and_gauge(self._check_vec(x))[1]

    def _quad_and_gauge(self, x):
        a = np.einsum("...i,ij,...j->...", x, self.matrix, x)
        if self._e == 0.0:
            return a, np.sqrt(np.maximum(a, 0.0))
        b = x @ (self.matrix @ self.center)
        one_e = 1.0 - self._e
        return a, (np.sqrt(np.maximum(b * b + one_e * a, 0.0)) - b) / one_e

    def support(self, u):
        u = self._check_vec(u)
        quad = np.einsum("...i,ij,...j->...", u, self._inv, u)
        return u @ self.center + np.sqrt(np.maximum(quad, 0.0))

    def support_and_point(self, u):
        # one product u M^-1 serves both
        u = self._check_vec(u)
        mu = u @ self._inv
        quad = np.add.reduce(mu * u, axis=-1)
        if _has_zero(quad):
            raise GradientUndefinedAtZero("support point undefined for direction 0")
        root = np.sqrt(quad)
        return u @ self.center + root, self.center + mu / root[..., None]

    def gauge_gradient(self, x):
        # 0-homogeneous: evaluate the outward normal at the boundary point
        # y = x / g(x) and rescale so that <grad, x> = g(x).
        x = self._check_vec(x)
        quad, g = self._quad_and_gauge(x)
        if _has_zero(quad) or _has_zero(g):
            raise GradientUndefinedAtZero("gauge gradient undefined at 0")
        y = x / g[..., None]
        nu = (y - self.center) @ self.matrix
        denom = np.add.reduce(nu * y, axis=-1)
        return nu / denom[..., None]

    def polar(self) -> "Ellipsoid":
        if self._e == 0.0:
            return Ellipsoid(self._inv)
        # The polar of a shifted ellipsoid is again a shifted ellipsoid:
        # {y : <y,c> + sqrt(y^T M^-1 y) <= 1} has the quadratic description
        # y^T Q y + 2<c,y> - 1 <= 0 with Q = M^-1 - c c^T.
        c = self.center
        one_e = 1.0 - self._e
        q = self._inv - np.outer(c, c)
        center_p = -(self.matrix @ c) / one_e
        k = 1.0 / one_e
        return Ellipsoid(q / k, center=center_p)

    def _maps_onto_itself(self, m, w) -> bool:
        # centered, and W M W^T = M; at m = 2 and 4 both products are signed
        # copies of M, so there the comparison is exact
        return not self.center.any() and _close(w(w(self.matrix).T), self.matrix)

    @property
    def is_smooth(self) -> bool:
        return True

    def outer_radius(self) -> float:
        return float(np.linalg.norm(self.center) + 1.0 / np.sqrt(self._eigvals[0]))

    def to_dict(self) -> dict:
        params = {"matrix": self.matrix.tolist()}
        if not self.is_symmetric:
            params["center"] = self.center.tolist()
        return {"kind": self.kind, "dim": self.dim, "params": params}


class LpBall(ConvexBody):
    """Weighted l^p ball {x : sum |x_i / w_i|^p <= 1} for 1 < p < infinity.

    The exponents 1 and infinity are handled as polytopes (see ``lp_ball``),
    since their gauges are polyhedral.
    """

    kind = "lp"

    def __init__(self, p: float, weights):
        weights = _finite("weights", weights)
        super().__init__(weights.shape[-1])
        if weights.ndim != 1 or np.any(weights <= 0):
            raise NonConvexParameters("weights must be a vector of positive numbers")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(1.0 / weights)):  # the polar's weights
                raise NonConvexParameters("weights must have finite reciprocals")
        if not (1.0 < p < np.inf):
            raise NonConvexParameters(
                f"LpBall requires 1 < p < inf, got p={p}; use lp_ball for 1 and inf"
            )
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.weights = weights

    def _scaled_norm(self, z, expo):
        # max-factored power sum, stable for large exponents
        m = np.maximum.reduce(z, axis=-1)
        safe = np.where(m == 0.0, 1.0, m)
        s = np.add.reduce((z / safe[..., None]) ** expo, axis=-1)
        return np.where(m == 0.0, 0.0, safe * s ** (1.0 / expo))

    def gauge(self, x):
        x = self._check_vec(x)
        return self._scaled_norm(np.abs(x) / self.weights, self.p)

    def support(self, u):
        u = self._check_vec(u)
        return self._scaled_norm(np.abs(u) * self.weights, self.q)

    def support_and_point(self, u):
        # z = |u| w, its row maximum and power sum serve both, bit for bit
        u = self._check_vec(u)
        z = np.abs(u) * self.weights
        m = np.maximum.reduce(z, axis=-1)
        if _has_zero(m):
            raise GradientUndefinedAtZero("support point undefined for direction 0")
        zn = z / m[..., None]
        s = np.add.reduce(zn**self.q, axis=-1)
        point = self.weights * np.sign(u) * zn ** (self.q - 1.0) / s[..., None] ** (
            (self.q - 1.0) / self.q
        )
        return m * s ** (1.0 / self.q), point

    def gauge_gradient(self, x):
        x = self._check_vec(x)
        t = np.abs(x) / self.weights
        m = np.maximum.reduce(t, axis=-1)
        if _has_zero(m):
            raise GradientUndefinedAtZero("gauge gradient undefined at 0")
        tn = t / m[..., None]
        s = np.add.reduce(tn**self.p, axis=-1)
        return (
            np.sign(x)
            * tn ** (self.p - 1.0)
            / self.weights
            / s[..., None] ** ((self.p - 1.0) / self.p)
        )

    def polar(self) -> "LpBall":
        return LpBall(self.q, 1.0 / self.weights)

    def _maps_onto_itself(self, m, w) -> bool:
        # beyond -I, W mixes each (q_i, p_i) pair, so the pair needs equal
        # weights, and then a quarter turn is a signed swap and p = 2 is round
        n = self.dim // 2
        return m == 2 or (
            _close(self.weights[:n], self.weights[n:]) and (m == 4 or self.p == 2)
        )

    @property
    def is_smooth(self) -> bool:
        return True

    def outer_radius(self) -> float:
        return float(np.max(self.weights))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "params": {"p": self.p, "weights": self.weights.tolist()},
        }


class Polytope(ConvexBody):
    """Bounded polytope with the origin inside, in both representations.

    Constructed either from vertices or from halfspaces {x : A x <= b}; the
    missing representation is computed once with Qhull.  ``kind`` records the
    originally supplied description.  Gauge queries use the facet form
    max_i <n_i, x> / c_i, which is exact.
    """

    def __init__(self, vertices=None, normals=None, offsets=None):
        if vertices is not None and normals is None:
            vertices = _finite("vertices", vertices)
            if vertices.ndim != 2:
                raise NonConvexParameters("vertices must be a 2d array")
            super().__init__(vertices.shape[1])
            self.kind = "polytope_v"
            self._build_from_vertices(vertices)
        elif normals is not None and vertices is None:
            normals = _finite("normals", normals)
            offsets = _finite("offsets", offsets)
            if normals.ndim != 2 or offsets.shape != (normals.shape[0],):
                raise NonConvexParameters("normals/offsets shapes do not match")
            super().__init__(normals.shape[1])
            self.kind = "polytope_h"
            self._build_from_halfspaces(normals, offsets)
        else:
            raise NonConvexParameters(
                "give either vertices or normals+offsets, not both"
            )
        # scaled normals used for gauge and its subgradient selection
        self._facet_grads = self.normals / self.offsets[:, None]
        self._grad_rank = lexicographic_rank(self._facet_grads)
        self._vertex_rank = lexicographic_rank(self.vertices)

    def _build_from_vertices(self, vertices):
        if vertices.shape[0] < self.dim + 1:
            raise NonConvexParameters(
                f"a full-dimensional polytope in R^{self.dim} needs at least "
                f"{self.dim + 1} vertices"
            )
        try:
            hull = ConvexHull(vertices)
        except QhullError as exc:
            reason = str(exc).partition("\n")[0]  # Qhull appends its whole report
            raise NonConvexParameters(f"degenerate vertex set: {reason}") from exc
        self.vertices = vertices[hull.vertices]
        # Qhull equations are [A | d] with A x + d <= 0, one row per simplex
        # of the triangulated hull; coplanar simplices share a facet row
        eq = _dedupe_rows(hull.equations)
        self.normals = eq[:, :-1].copy()
        self.offsets = -eq[:, -1].copy()
        if np.min(self.offsets) <= 1e-12:
            raise OriginNotInterior("origin is not strictly inside the polytope")

    def _build_from_halfspaces(self, normals, offsets):
        if np.any(offsets <= 0):
            raise OriginNotInterior(
                "all offsets must be positive so the origin is interior"
            )
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms == 0):
            raise NonConvexParameters("zero facet normal")
        self.normals = normals
        self.offsets = offsets
        halfspaces = np.hstack([normals, -offsets[:, None]])
        try:
            hs = HalfspaceIntersection(halfspaces, np.zeros(self.dim))
            pts = hs.intersections
            if not np.all(np.isfinite(pts)):
                raise NonConvexParameters("halfspace intersection is unbounded")
            pts = _dedupe_rows(pts)
            hull = ConvexHull(pts)
        except QhullError as exc:
            reason = str(exc).partition("\n")[0]
            raise NonConvexParameters(
                f"halfspaces do not bound a full-dimensional polytope: {reason}"
            ) from exc
        self.vertices = pts[hull.vertices]

    def gauge(self, x):
        x = self._check_vec(x)
        return np.maximum.reduce(x @ self._facet_grads.T, axis=-1)

    def support(self, u):
        u = self._check_vec(u)
        return np.maximum.reduce(u @ self.vertices.T, axis=-1)

    def support_and_point(self, u):
        # the top vertex score; its vertex is the first in rank among near ties
        u = self._check_vec(u)
        h, idx = _ranked_argmax(u @ self.vertices.T, self._vertex_rank, "support point")
        return h, self.vertices[idx]

    def smoothed_support_and_point(self, u, p: float):
        """Smooth upper approximation of ``support_and_point``.

        The support max_i <u, v_i> is replaced by the p-norm of the positive
        vertex scores, and the point by its gradient.  The smoothed value
        dominates the exact support, so capacity values computed with it keep
        their upper bound meaning.
        """
        u = self._check_vec(u)
        verts = self.vertices
        z = u @ verts.T
        zmax = np.maximum.reduce(z, axis=-1)
        safe = np.where(zmax <= 0.0, 1.0, zmax)
        zc = np.clip(z, 0.0, None) / safe[..., None]
        s = np.add.reduce(zc**p, axis=-1)
        # a zero edge gives z == 0 everywhere; its support is 0 and the zero
        # vector is a valid subgradient there
        s_safe = np.where(s <= 0.0, 1.0, s)
        h = np.where(s <= 0.0, 0.0, safe * s_safe ** (1.0 / p))
        w = zc ** (p - 1.0) / s_safe[..., None] ** ((p - 1.0) / p)
        return h, w @ verts

    def gauge_gradient(self, x):
        """Subgradient selection: the scaled outward normal n_i / c_i of a
        maximizing facet, lexicographically smallest among exact ties."""
        x = self._check_vec(x)
        _, idx = _ranked_argmax(
            x @ self._facet_grads.T, self._grad_rank, "gauge gradient"
        )
        return self._facet_grads[idx]

    def polar(self) -> "Polytope":
        if self.kind == "polytope_v":
            return Polytope(normals=self.vertices, offsets=np.ones(len(self.vertices)))
        return Polytope(vertices=self._facet_grads)

    def _maps_onto_itself(self, m, w) -> bool:
        v = self.vertices
        dist, _ = cKDTree(v).query(w(v))
        return bool(np.max(dist) <= _SYM_TOL * (1.0 + np.abs(v).max()))

    @property
    def is_smooth(self) -> bool:
        return False

    def outer_radius(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def to_dict(self) -> dict:
        if self.kind == "polytope_v":
            params = {"vertices": self.vertices.tolist()}
        else:
            params = {
                "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist(),
            }
        return {"kind": self.kind, "dim": self.dim, "params": params}


def _close(a, b) -> bool:
    return bool(np.max(np.abs(a - b)) <= _SYM_TOL * (1.0 + np.abs(b).max()))


def _dedupe_rows(pts, rel_tol=1e-9):
    scale = max(1.0, float(np.abs(pts).max()))
    key = np.round(pts / (scale * rel_tol)).astype(np.int64)
    _, keep = np.unique(key, axis=0, return_index=True)
    return pts[np.sort(keep)]


def _ranked_argmax(scores, rank, what, rel_tol=1e-12):
    """Max and argmax along the last axis, ties within rel_tol of the row's
    own maximum broken by smallest rank.  A row whose scores all tie raises."""
    mx = np.maximum.reduce(scores, axis=-1)
    tied = scores >= (mx - rel_tol * np.abs(mx))[..., None]
    if tied.all(axis=-1).any():
        raise GradientUndefinedAtZero(f"{what} undefined for direction 0")
    ranked = np.where(tied, rank, np.iinfo(np.int64).max)
    return mx, np.argmin(ranked, axis=-1)


def cube(dim: int, radius: float = 1.0) -> Polytope:
    """The cube [-radius, radius]^dim as a halfspace polytope."""
    eye = np.eye(dim)
    normals = np.vstack([eye, -eye])
    return Polytope(normals=normals, offsets=np.full(2 * dim, float(radius)))


def lp_ball(p, weights) -> ConvexBody:
    """Weighted l^p ball for any p in [1, inf].

    The smooth range 1 < p < inf returns an ``LpBall``.  The polyhedral cases
    p = 1 and p = inf are stored as polytopes (exact gauges, no smoothing)
    for dimensions up to 8, which covers every fixture here.
    """
    weights = np.asarray(weights, dtype=float)
    d = weights.shape[-1]
    if np.any(weights <= 0):
        raise NonConvexParameters("weights must be positive")
    if p == 1 or p == np.inf:
        if d > 8:
            raise NonConvexParameters(
                "polyhedral lp balls are only materialized for dim <= 8"
            )
        if p == 1:
            return Polytope(vertices=np.vstack([np.diag(weights), -np.diag(weights)]))
        eye = np.eye(d)
        return Polytope(
            normals=np.vstack([eye, -eye]),
            offsets=np.concatenate([weights, weights]),
        )
    return LpBall(float(p), weights)


def ball(dim: int, radius: float = 1.0) -> Ellipsoid:
    """The Euclidean ball of the given radius."""
    return Ellipsoid.from_radii(np.full(dim, float(radius)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def body_from_dict(obj: dict) -> ConvexBody:
    """Build a body from the {"kind", "dim", "params"} description.

    Parameters of the wrong type or shape, and parameters that parse but
    describe no convex body with the origin inside, raise SpecParseError.
    """
    if not isinstance(obj, dict):
        raise SpecParseError(f"body description must be an object, got {type(obj)}")
    try:
        kind = obj["kind"]
        dim = int(obj["dim"])
        params = obj.get("params", {})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecParseError(f"malformed body description: {exc}") from exc
    try:
        body = _body_from_params(kind, params)
    except SpecParseError:
        raise
    except SymcapError as exc:  # no convex body, origin outside, wrong length
        raise SpecParseError(f"invalid {kind!r} params: {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise SpecParseError(f"malformed {kind!r} params: {exc}") from exc
    if body.dim != dim:
        raise SpecParseError(
            f"declared dim {dim} does not match params (dim {body.dim})"
        )
    return body


def _body_from_params(kind, params) -> ConvexBody:
    if kind == "ellipsoid":
        if "matrix" in params:
            return Ellipsoid(params["matrix"], center=params.get("center"))
        if "radii" in params:
            return Ellipsoid.from_radii(params["radii"], center=params.get("center"))
        raise SpecParseError("ellipsoid params need 'matrix' or 'radii'")
    if kind == "lp":
        p = params.get("p")
        if p == "inf":
            p = np.inf
        if p is None or "weights" not in params:
            raise SpecParseError("lp params need 'p' and 'weights'")
        return lp_ball(float(p), params["weights"])
    if kind == "polytope_v":
        if "vertices" not in params:
            raise SpecParseError("polytope_v params need 'vertices'")
        return Polytope(vertices=params["vertices"])
    if kind == "polytope_h":
        if "normals" not in params or "offsets" not in params:
            raise SpecParseError("polytope_h params need 'normals' and 'offsets'")
        return Polytope(normals=params["normals"], offsets=params["offsets"])
    raise SpecParseError(f"unknown body kind {kind!r}")

