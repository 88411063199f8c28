"""Short centrally symmetric closed curves on the boundary of a symmetric body.

The minimal gauge length of such a curve (the girth-type quantity of the
body in its own norm) is approached from above in two stages: a k-nearest
neighbor graph over antipodally paired boundary samples, built at one sample
of each pair and mirrored, supplies globally reasonable half-curves from a
point to its antipode, and a projected, strictly monotone local descent
tightens the half while keeping every vertex on the boundary.  The
half-curve starts at a sample x of least graph distance d(x, -x), any one of
them: a shortest path from such an x to -x crosses x0 = 0 on an edge whose
two ends are both such x, so the ends nearer x0 = 0 of the crossing edges
hold one, and Dijkstra searches from them cut off at about half of d(x, -x),
where the searches from x and -x meet, find it.  The curve is stored as one
half plus its reflection, so central symmetry is exact by construction.

``check_schaffer_bound`` reports the margin of a symmetric boundary loop
against the guaranteed lower bound 4 + 4/d (even dimension; 4 + 4/(d-1) in
odd dimension).  A negative margin beyond tolerance would indicate a bug,
not a discovery, and is flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from ._util import as_rng
from .errors import (
    BodyNotSymmetric,
    CalibrationError,
    GraphDisconnected,
    InvalidParameter,
    LoopNotOnBoundary,
    LoopNotSymmetric,
)
from .geometry import ConvexBody
from .loops import closed_length, resample_polyline


# vertices of the refined half-curve, and the projected descent's step budget
REFINE_POINTS = 64
REFINE_ITERATIONS = 400
SEARCH_CHUNK = 128  # sources between lowerings of best and the search radius
BLOCK_FLOATS = 1 << 17  # floats in one Dijkstra call's rows or gauge slice: 1 MiB
MAX_SAMPLES = 1 << 16  # boundary samples a caller may ask for
NEIGHBORS = 12  # few edges keep the search cheap; gaps on a 2-d boundary double it


def schaffer_bound(dim: int) -> float:
    """Lower bound for the symmetric girth: 4 + 4/d, improved for odd d."""
    if dim < 2:
        raise InvalidParameter(f"girth needs dimension at least 2, got {dim}")
    return 4.0 + 4.0 / (dim - 1 if dim % 2 else dim)


def check_sample_count(n_samples: int) -> None:
    """Raise InvalidParameter unless n_samples is even and in [4, MAX_SAMPLES]."""
    if not 4 <= n_samples <= MAX_SAMPLES or n_samples % 2 != 0:
        raise InvalidParameter(
            f"n_samples must be an even number in [4, {MAX_SAMPLES}] "
            "(antipodal pairing)"
        )


@dataclass
class BoundaryGraph:
    """Antipodally paired boundary samples with gauge-weighted kNN edges."""

    samples: np.ndarray
    antipode: np.ndarray
    graph: csr_matrix
    k_neighbors: int  # the count the doubling reached

    @property
    def size(self) -> int:
        return len(self.samples)


def build_boundary_graph(
    body: ConvexBody,
    n_samples: int = 4096,
    rng=None,
    directions=None,
) -> BoundaryGraph:
    """Sample the boundary in antipodal pairs and connect near neighbors.

    Each drawn direction contributes the pair +-x of boundary points, so the
    antipodal map is the exact index shift by n_samples/2.  Edges are gauged
    at the first half only and mirrored onto the second: an undirected,
    antipodally invariant graph for a symmetric gauge.  Each sample is
    joined to its NEIGHBORS nearest, doubled on the same samples until
    every sample lies in its antipode's component or k >= p - 1.
    """
    if not body.is_symmetric:
        raise BodyNotSymmetric("boundary graph needs a centrally symmetric body")
    if directions is None:
        check_sample_count(n_samples)
        rng = as_rng(rng if rng is not None else 0)
        directions = rng.normal(size=(n_samples // 2, body.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    else:
        directions = np.asarray(directions, dtype=float)
        if not directions.size or not np.all(np.isfinite(directions)):
            raise InvalidParameter("directions need at least one row, all finite")
    half = body.boundary_point(directions)
    samples = np.vstack([half, -half])
    p = len(samples)
    antipode = np.concatenate(
        [np.arange(p // 2, p), np.arange(0, p // 2)]
    )
    # a 1-dimensional boundary (d = 2) is cut in two by any gap between
    # samples wider than k neighbors reach; doubling k on the same samples
    # closes it, and a graph that is already connected stays as it is
    k = NEIGHBORS
    graph = _neighbor_graph(body, samples, k)
    labels = connected_components(graph)[1]
    while np.any(labels != labels[antipode]) and k < p - 1:
        k *= 2
        graph = _neighbor_graph(body, samples, k)
        labels = connected_components(graph)[1]
    return BoundaryGraph(
        samples=samples, antipode=antipode, graph=graph, k_neighbors=k
    )


def _neighbor_graph(body, samples, k) -> csr_matrix:
    """Each first-half sample joined to its k nearest, weighted by the gauge,
    and its edges mirrored by x -> -x onto the second half's samples."""
    p = len(samples)
    h = p // 2
    idx = cKDTree(samples).query(samples[:h], k=min(k + 1, p))[1]
    rows = np.repeat(np.arange(h), idx.shape[1] - 1)
    cols = idx[:, 1:].ravel()
    # a chord to a sample's own antipode passes through 0, where no
    # boundary ray is defined
    keep = cols != rows + h
    rows, cols = rows[keep], cols[keep]
    # the gauge in n equal slices of at most BLOCK_FLOATS differences'
    # coordinates: a slice of 1 row can move bits (polytope matvec), one of
    # 2+ rows moves none, and with n > 1 each holds more than half of
    # BLOCK_FLOATS // d >= 4 rows, so the weights are one call's bits
    e = len(rows)
    n = -(-e // max(1, BLOCK_FLOATS // samples.shape[1]))
    weights = np.empty(e)
    for i in range(n):
        part = slice(i * e // n, (i + 1) * e // n)
        weights[part] = body.gauge(samples[cols[part]] - samples[rows[part]])
    rows, cols = np.append(rows, rows + h), np.append(cols, (cols + h) % p)
    graph = csr_matrix((np.tile(weights, 2), (rows, cols)), shape=(p, p))
    return graph.maximum(graph.T)  # symmetrize the neighbor relation


def shortest_antipodal_path(bgraph: BoundaryGraph, source: int):
    """Graph-shortest path from one sample to its antipode.

    Returns (length, vertex index list).  Raises if the two are not
    connected, as on a graph built from one pair of directions.
    """
    target = int(bgraph.antipode[source])
    dist, pred = dijkstra(bgraph.graph, indices=source, return_predecessors=True)
    if not np.isfinite(dist[target]):
        raise GraphDisconnected("no boundary path between antipodes")
    path = [target]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return float(dist[target]), path


def _band_sources(bgraph: BoundaryGraph) -> np.ndarray:
    """Pair indices (mod p/2) of one end of each cut edge (u, w), u in S and w
    not: u if |x0[u]| <= |x0[w]|, else w.  S = {x0 > 0} plus the samples at
    x0 = 0 of index below p/2, one of each antipodal pair, so -w is in S and
    the set is part of the band, the samples in S with a neighbor outside S."""
    p = bgraph.size
    x0 = bgraph.samples[:, 0]
    inside = (x0 > 0) | ((x0 == 0) & (np.arange(p) < p // 2))
    edges = bgraph.graph.tocoo()
    cut = inside[edges.row] & ~inside[edges.col]
    u, w = edges.row[cut], edges.col[cut]
    return np.unique(np.where(np.abs(x0[u]) <= np.abs(x0[w]), u, w) % (p // 2))


def _meet_values(graph, antipode, sources, best) -> np.ndarray:
    """min_y d(x, y) + d(x, -y) for each source x: never below D = d(x, -x).

    A shortest x -> -x path passes a y with d(x, y) and d(x, -y) = d(-x, y)
    both at most (D + w_max)/2, w_max the longest edge, so rows cut off there
    with ``best`` >= D, lowered as they come in, meet D whenever D <= best.

    ``best`` and the radius are lowered after every SEARCH_CHUNK sources,
    however many Dijkstra calls of at most BLOCK_FLOATS distances those
    take.  The cadence, not the call size, sets each row's cut-off, and the
    cut-offs decide which of several minimizers, equal up to rounding, has
    the least meet value: lowered after every 32 sources, the l4 ball graph
    of ``verify`` seed 7 (fast profile) gives source 545, not 247.
    """
    w_max = float(graph.data.max())
    step = max(1, BLOCK_FLOATS // graph.shape[0])
    meet = np.empty(len(sources))
    for start in range(0, len(sources), SEARCH_CHUNK):
        stop = min(start + SEARCH_CHUNK, len(sources))
        radius = 0.5 * (best + w_max) * (1 + 1e-9)
        for lo in range(start, stop, step):
            rows = slice(lo, min(lo + step, stop))
            dist = dijkstra(graph, indices=sources[rows], limit=radius)
            dist += dist[:, antipode]
            meet[rows] = dist.min(axis=1)
        best = min(best, float(meet[start:stop].min()))
    return meet


def _shortest_antipodal_source(bgraph: BoundaryGraph) -> int:
    """A sample x < p/2 of minimal graph distance D(x) = d(x, -x).

    Lemma: S (see ``_band_sources``) is odd, so a shortest path P from x to
    -x has an edge (u, w) with u in S and w not.  u and w both lie on the
    closed walk P + (-P), whose two arcs from a vertex v to -v have length
    D(x): D(u) <= D(x), D(w) <= D(x) and d(v, x) + d(v, -x) <= D(x).  So
    any set holding one endpoint of every cut edge, as ``_band_sources``
    does, holds a minimizer, whose cut-off row reads its D exactly, and no
    meet value is below its source's D: the source of least meet value is a
    minimizer.  Which one, on a graph with several, is left to rounding.
    """
    graph, antipode = bgraph.graph, bgraph.antipode
    sources = _band_sources(bgraph)
    best = float(dijkstra(graph, indices=sources[0])[antipode[sources[0]]])
    return int(sources[np.argmin(_meet_values(graph, antipode, sources, best))])


def _half_length_and_grad(body, half):
    """Gauge length of the half-curve closed at -half[0], with gradient.

    The represented closed curve is the half followed by its reflection; its
    total length is exactly twice this value.
    """
    edges = np.diff(np.vstack([half, -half[:1]]), axis=0)
    grads = body.gauge_gradient(edges)
    length = float(np.sum(body.gauge(edges)))
    # vertex i is the tail of edge i and the head of edge i-1; the head of
    # the final edge is the reflection -half[0], flipping that term's sign
    g = -grads.copy()
    g[1:] += grads[:-1]
    g[0] -= grads[-1]
    return length, g


def refine_symmetric_half(body: ConvexBody, half):
    """Monotone projected descent on the half-curve's gauge length.

    Every trial point is re-projected to the boundary before evaluation and
    steps are only accepted when the objective strictly decreases, so the
    returned half is on-boundary and never longer than the input.
    """
    half = body.boundary_point(np.asarray(half, dtype=float))
    length, grad = _half_length_and_grad(body, half)
    step = 0.1 * body.outer_radius()
    for _ in range(REFINE_ITERATIONS):
        gn = float(np.max(np.linalg.norm(grad, axis=1)))
        if gn == 0.0 or step < 1e-12:
            break
        trial = body.boundary_point(half - step * grad)
        trial_len, trial_grad = _half_length_and_grad(body, trial)
        if trial_len < length - 1e-15 * max(1.0, abs(length)):
            half, length, grad = trial, trial_len, trial_grad
            step *= 1.3
        else:
            step *= 0.5
    return half, length


def symmetric_girth(body: ConvexBody, n_samples: int = 4096, rng=None):
    """Upper bound for the minimal symmetric closed boundary curve length.

    Finds the sample nearest its antipode in the boundary graph, doubles
    that half-path into an exactly symmetric closed loop, and tightens it by
    projected descent.  Returns ``(length, vertices)``, the half-curve and
    its negation as one (N, d) array in every dimension: a curve measured
    in the gauge, with no symplectic action to carry.
    """
    bound = schaffer_bound(body.dim)
    bgraph = build_boundary_graph(body, n_samples=n_samples, rng=rng)
    _, path = shortest_antipodal_path(bgraph, _shortest_antipodal_source(bgraph))
    half = bgraph.samples[path]

    # equalize spacing, then descend; both steps keep the curve on-boundary.
    # the final path vertex is the antipode -half[0], which the half-curve
    # representation keeps implicit, so it is dropped after resampling
    half = resample_polyline(
        half, lambda e: np.linalg.norm(e, axis=-1), REFINE_POINTS + 1
    )[:-1]
    half = body.boundary_point(half)
    half, half_len = refine_symmetric_half(body, half)

    length = 2.0 * half_len
    if length < bound - 1e-2:
        raise CalibrationError(
            f"computed symmetric curve length {length!r} undercuts the "
            f"guaranteed bound {bound!r}; the search must be buggy"
        )
    return length, np.vstack([half, -half])


def check_schaffer_bound(body: ConvexBody, loop) -> dict:
    """Margin of a symmetric boundary loop against the guaranteed bound.

    The (N, d) vertex array ``loop`` must pair vertex i with vertex i + N/2
    under negation and sit on the boundary.  A margin below -1e-2 raises
    the violation flag; the bound holds for every genuine symmetric boundary
    curve, so a violation means an implementation error somewhere.
    """
    vertices = np.asarray(loop, dtype=float)
    n = len(vertices)
    diameter = 2.0 * body.outer_radius()
    if n % 2 != 0:
        raise LoopNotSymmetric("symmetric loops need an even vertex count")
    defect = float(
        np.max(np.abs(vertices + np.roll(vertices, -n // 2, axis=0)))
    )
    if defect > 1e-6 * diameter:
        raise LoopNotSymmetric(
            f"central symmetry defect {defect:.2e} exceeds 1e-6 * diameter"
        )
    gauges = body.gauge(vertices)
    boundary_defect = float(np.max(np.abs(gauges - 1.0)))
    if boundary_defect > 1e-3:
        raise LoopNotOnBoundary(
            f"vertex gauge deviates from 1 by {boundary_defect:.2e}"
        )
    length = closed_length(vertices, body.gauge)
    bound = schaffer_bound(body.dim)
    margin = length - bound
    return {
        "length": length,
        "bound": bound,
        "margin": margin,
        "dim": body.dim,
        "symmetry_defect": defect,
        "boundary_defect": boundary_defect,
        "violation": bool(margin < -1e-2),
    }
