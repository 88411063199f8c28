import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.spatial import cKDTree

from symcap import girth
from symcap.errors import (
    BodyNotSymmetric,
    CalibrationError,
    GraphDisconnected,
    InvalidParameter,
    LoopNotOnBoundary,
    LoopNotSymmetric,
)
from symcap.geometry import Ellipsoid, Polytope, ball, cube, lp_ball
from symcap.girth import (
    MAX_SAMPLES,
    build_boundary_graph,
    check_schaffer_bound,
    refine_symmetric_half,
    schaffer_bound,
    shortest_antipodal_path,
    symmetric_girth,
)
from symcap.symplectic import SymplecticFrame
from symcap.verify import _derived_seed

from helpers import (
    dense_symmetric_boundary_loop,
    random_symmetric_ellipsoid,
    random_symmetric_polytope,
    reference_antipodal_distances,
    reference_antipodal_source,
    reference_meet_values,
    reference_neighbor_graph,
    reference_symmetric_girth,
    regular_polygon,
)


def test_schaffer_bound_values():
    assert schaffer_bound(2) == pytest.approx(6.0)
    assert schaffer_bound(3) == pytest.approx(6.0)
    assert schaffer_bound(4) == pytest.approx(5.0)
    assert schaffer_bound(5) == pytest.approx(5.0)
    assert schaffer_bound(6) == pytest.approx(4.0 + 4.0 / 6.0)
    # a 1-d body has no closed curve; the search must not start
    with pytest.raises(InvalidParameter, match="dimension at least 2"):
        schaffer_bound(1)
    with pytest.raises(InvalidParameter, match="dimension at least 2"):
        symmetric_girth(ball(1), n_samples=8)


def test_boundary_graph_invariants():
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    bg = build_boundary_graph(body, n_samples=512, rng=0)
    assert bg.size == 512
    assert bg.k_neighbors == girth.NEIGHBORS == 12  # connected as first built
    # samples on the boundary
    assert np.max(np.abs(body.gauge(bg.samples) - 1.0)) <= 1e-9
    # exact antipodal involution
    assert np.allclose(bg.samples[bg.antipode], -bg.samples, atol=0.0)
    assert np.array_equal(bg.antipode[bg.antipode], np.arange(bg.size))
    # symmetric weights
    asym = (bg.graph - bg.graph.T).toarray()
    assert np.max(np.abs(asym)) <= 1e-12
    with pytest.raises(BodyNotSymmetric):
        build_boundary_graph(
            Ellipsoid.from_radii([1.0, 1.0], center=[0.3, 0.0]), n_samples=64
        )
    with pytest.raises(ValueError):
        build_boundary_graph(ball(2), n_samples=33)
    with pytest.raises(InvalidParameter):
        build_boundary_graph(ball(2), n_samples=2)
    # and at most MAX_SAMPLES = 65536
    with pytest.raises(InvalidParameter, match="65536"):
        build_boundary_graph(ball(2), n_samples=MAX_SAMPLES + 2)


def test_shortest_path_on_circle():
    # equally spaced directions make graph distances an explicit polygon sum
    t = math.pi * np.arange(180) / 180
    directions = np.stack([np.cos(t), np.sin(t)], axis=1)
    bg = build_boundary_graph(ball(2), directions=directions)
    length, path = shortest_antipodal_path(bg, 0)
    # with 6 neighbors on either side: half circle as 30 chords of central
    # angle 6 pi/180, each shorter than its arc
    expected = 60 * math.sin(math.pi / 60)
    assert length == pytest.approx(expected, rel=1e-9)
    assert len(path) == 31
    assert path[0] == 0
    assert path[-1] == bg.antipode[0]
    assert math.pi * (1 - 1e-3) < length < math.pi


def arc_directions(n, arc):
    """n directions evenly spaced over the angles [0, arc) of the plane: with
    their antipodes, two arcs of samples separated by gaps of pi - arc."""
    t = arc * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_graph_disconnected_raises():
    # a gap of 0.2 pi, 32 sample spacings wide: 12 and 24 neighbors leave
    # the two arcs apart, 48 join them
    bg = build_boundary_graph(ball(2), directions=arc_directions(128, 0.8 * np.pi))
    assert bg.k_neighbors == 48
    assert np.isfinite(shortest_antipodal_path(bg, 0)[0])
    # one pair of samples has no edge but the chord through 0, left out
    bg = build_boundary_graph(ball(2), directions=[[1.0, 0.0]])
    assert bg.graph.nnz == 0
    with pytest.raises(GraphDisconnected):
        shortest_antipodal_path(bg, 0)


@pytest.mark.parametrize(
    "directions",
    [np.empty((0, 2)), [[np.nan, 1.0]], [[1.0, 0.0], [np.inf, 1.0]]],
    ids=["empty", "nan", "inf"],
)
def test_bad_directions_raise_invalid_parameter(directions):
    # numpy's empty reduction and cKDTree's finiteness check were the errors
    with pytest.raises(InvalidParameter, match="at least one row, all finite"):
        build_boundary_graph(ball(2), directions=directions)


def test_refinement_monotone_and_on_boundary():
    body = Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0])
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(40, 4))
    half0 = body.boundary_point(raw)
    from symcap.girth import _half_length_and_grad

    start_len, _ = _half_length_and_grad(body, half0)
    half, refined_len = refine_symmetric_half(body, half0)
    assert refined_len <= start_len + 1e-12
    assert np.max(np.abs(body.gauge(half) - 1.0)) <= 1e-9


def test_girth_ball_planar():
    length, loop = symmetric_girth(ball(2), n_samples=512, rng=1)
    assert length == pytest.approx(2 * math.pi, rel=1e-3)
    report = check_schaffer_bound(ball(2), loop)
    assert not report["violation"]
    assert report["margin"] == pytest.approx(2 * math.pi - 6.0, abs=1e-2)


@pytest.mark.parametrize("seed", [42, 218])
def test_girth_ball_planar_wide_sample_gap(seed):
    # the girth stream verify draws for the 2-d ball at these seeds leaves a
    # gap on the circle that 12 neighbors do not bridge
    rng = _derived_seed(seed, 0, 2)
    length, loop = symmetric_girth(ball(2), n_samples=2048, rng=rng)
    assert length == pytest.approx(2 * math.pi, rel=1e-3)
    assert not check_schaffer_bound(ball(2), loop)["violation"]


def test_girth_ball_four_dimensional():
    length, loop = symmetric_girth(ball(4), n_samples=2048, rng=2)
    # the minimal symmetric curve on the round sphere is a great circle
    assert length == pytest.approx(2 * math.pi, rel=1e-3)
    report = check_schaffer_bound(ball(4), loop)
    assert report["bound"] == pytest.approx(5.0)
    assert report["margin"] > 0
    assert isinstance(loop, np.ndarray)
    assert loop.shape == (2 * girth.REFINE_POINTS, 4)


@pytest.mark.parametrize("n_samples", [4, 8])
@pytest.mark.parametrize(
    "body", [ball(2), ball(4), cube(4)], ids=["ball2", "ball4", "cube4"]
)
def test_girth_few_samples_skips_antipodal_chord(body, n_samples):
    # with so few samples the kNN graph reaches each sample's antipode; that
    # chord passes through the origin, so it is left out of the graph
    bg = build_boundary_graph(body, n_samples=n_samples)
    rows, cols = bg.graph.nonzero()
    assert not np.any(cols == bg.antipode[rows])
    length, _ = symmetric_girth(body, n_samples=n_samples)
    assert length >= schaffer_bound(body.dim) - 1e-2


def grid_directions(dim, n_random, seed):
    """One of each +-pair of nonzero vectors in {-1, 0, 1}^dim, a third of
    them with x0 exactly 0, followed by n_random Gaussian directions."""
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=dim)))
    leading = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    random = np.random.default_rng(seed).normal(size=(n_random, dim))
    return np.vstack([grid[leading > 0], random])


def hexagon_bipyramid():
    """The bipyramid over the regular hexagon in x0 = 0 with apexes +-e0.

    Its hexagon is a shortest symmetric closed curve: own-norm length 6,
    Schaffer's bound in R^3."""
    t = np.arange(6) * np.pi / 3
    hexagon = np.stack([np.zeros(6), np.cos(t), np.sin(t)], axis=1)
    return Polytope(vertices=np.vstack([hexagon, np.eye(3)[:1], -np.eye(3)[:1]]))


def equator_directions(n_equator, n_random, seed):
    """n_equator directions with x0 exactly 0, then n_random Gaussian ones."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, np.pi, n_equator)
    equator = np.stack([np.zeros(n_equator), np.cos(t), np.sin(t)], axis=1)
    return np.vstack([equator, rng.normal(size=(n_random, 3))])


@pytest.mark.parametrize(
    "body, n_samples, directions",
    [
        # gaps of 0.2 pi that 12 neighbors leave: the doubling runs to 24, 48
        (ball(2), None, arc_directions(64, 0.8 * np.pi)),
        (ball(2), None, arc_directions(128, 0.8 * np.pi)),
        (ball(3), 512, None),  # odd dimension
        (ball(4), 1024, None),
        (Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]), 1024, None),
        (Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5]), 1024, None),
        (cube(4), 1024, None),
        (lp_ball(1, np.ones(4)), 512, None),
        (lp_ball(4.0, np.ones(4)), 512, None),
        # samples with x0 = 0 exactly, which the band splits by index
        (ball(4), None, grid_directions(4, 40, 0)),
        (cube(4), None, grid_directions(4, 160, 0)),
    ],
    ids=[
        "ball2-gap24", "ball2-gap48", "ball3", "ball4", "e12", "e6", "cube4",
        "cross4", "l4", "ball4-grid", "cube4-grid",
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_girth_source_is_the_full_sweep_argmin(
    monkeypatch, body, n_samples, directions, seed
):
    # the band search must pick a source of least d(x, -x) over a full
    # Dijkstra from every sample, on a graph with the same neighbor count,
    # and the girth from it must come out bit for bit as the full-sweep
    # pipeline's from the same source
    chosen = []
    search = girth._shortest_antipodal_source

    def spy(bgraph):
        chosen.append((bgraph.k_neighbors, search(bgraph)))
        return chosen[-1][1]

    monkeypatch.setattr(girth, "_shortest_antipodal_source", spy)
    monkeypatch.setattr(
        girth, "build_boundary_graph",
        partial(build_boundary_graph, directions=directions),
    )
    length, loop = symmetric_girth(body, n_samples, rng=seed)
    assert len(chosen) == 1
    k, source = chosen[0]
    ref_k, dists, ref_length, ref_vertices = reference_symmetric_girth(
        body, n_samples, seed, source, directions
    )
    assert k == ref_k
    assert dists[source] == pytest.approx(dists.min(), rel=1e-12, abs=0)
    assert length.hex() == ref_length.hex()
    assert np.array_equal(loop, ref_vertices)
    assert (k > girth.NEIGHBORS) == (body.dim == 2)


@pytest.mark.parametrize(
    "body, n_samples, directions",
    [
        (ball(2), 512, None),
        (ball(4), 1024, None),
        (Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5]), 1024, None),
        (cube(4), 1024, None),
        (lp_ball(4.0, np.ones(4)), 1024, None),
        (ball(4), None, grid_directions(4, 200, 3)),
        # every shortest pair lies on the hexagon, at x0 = 0
        (hexagon_bipyramid(), None, equator_directions(120, 150, 0)),
    ],
    ids=["ball2", "ball4", "e6", "cube4", "l4", "ball4-grid", "bipyramid"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_girth_band_holds_a_shortest_antipodal_pair(body, n_samples, directions, seed):
    # every x -> -x path leaves S through a cut edge (u, w), and d(u, -u) and
    # d(w, -w) are both at most the path's length, as long as x -> -x maps
    # the graph onto itself, also where neighbor distances tie (the grid):
    # so one endpoint of each cut edge is enough
    bg = build_boundary_graph(
        body, n_samples=n_samples, rng=seed, directions=directions
    )
    assert (bg.graph != bg.graph[bg.antipode][:, bg.antipode]).nnz == 0
    sources = girth._band_sources(bg)
    cut, band = cut_edges_and_band(bg)
    half = bg.size // 2
    assert np.all(np.isin(cut % half, sources).any(axis=1))
    assert np.all(np.isin(sources, band))
    dists = reference_antipodal_distances(bg)
    assert len(sources) < half
    assert dists[sources].min() == pytest.approx(dists.min(), rel=1e-12, abs=0)


def cut_edges_and_band(bgraph):
    """The edges (u, w) with u in S and w not, and the band: the pair indices
    (mod p/2) of the samples in S with a neighbor outside S."""
    p = bgraph.size
    x0 = bgraph.samples[:, 0]
    inside = (x0 > 0) | ((x0 == 0) & (np.arange(p) < p // 2))
    edges = bgraph.graph.tocoo()
    cut = np.stack([edges.row, edges.col], axis=1)
    cut = cut[inside[cut[:, 0]] & ~inside[cut[:, 1]]]
    return cut, np.unique(cut[:, 0] % (p // 2))


def test_girth_sources_are_fewer_than_the_band():
    # one endpoint per cut edge: on a suite body at the full profile's
    # sample count, fewer sources than the band has
    bg = build_boundary_graph(Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]), 4096)
    sources = girth._band_sources(bg)
    _, band = cut_edges_and_band(bg)
    assert np.all(np.isin(sources, band))
    assert len(sources) < len(band)


@pytest.mark.parametrize(
    "body, n_samples, seed, directions, slice_rows",
    [
        (Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]), 4096, 0, None, 7),
        (lp_ball(4.0, np.ones(4)), 4096, 0, None, 7),
        (lp_ball(1, np.ones(4)), 4096, 0, None, 7),
        # 6144 edges in slices of at most 6143 rows: slices cut from the
        # front would leave a last one of 1 row, whose gauge takes BLAS's
        # matvec path
        (lp_ball(1, np.ones(4)), 512, 5, None, 6143),
        # a gap that 12 neighbors leave: every doubled graph is checked
        (ball(2), None, 0, arc_directions(128, 0.8 * np.pi), 7),
    ],
    ids=["e12", "l4", "cross4", "cross4-6143-rows", "ball2-gap48"],
)
def test_blocked_graph_and_search_match_the_one_batch_references(
    monkeypatch, body, n_samples, seed, directions, slice_rows
):
    # gauge slices of at most slice_rows differences, and Dijkstra calls of
    # 48 sources, so that each 128-source radius block runs as 48 + 48 + 32:
    # weights, graph and meet values must come out bit for bit as from one
    # gauge call and one Dijkstra call per radius block
    graph_calls, searched = [], []
    build, meet_values = girth._neighbor_graph, girth._meet_values

    def blocked_build(body, samples, k):
        monkeypatch.setattr(girth, "BLOCK_FLOATS", slice_rows * samples.shape[1])
        graph = build(body, samples, k)
        ref = reference_neighbor_graph(body, samples, k)
        for part in ("indptr", "indices", "data"):
            assert getattr(graph, part).tobytes() == getattr(ref, part).tobytes()
        graph_calls.append(k)
        return graph

    def blocked_meet_values(graph, antipode, sources, best):
        monkeypatch.setattr(girth, "BLOCK_FLOATS", 48 * graph.shape[0])
        meet = meet_values(graph, antipode, sources, best)
        ref = reference_meet_values(graph, antipode, sources, best)
        assert meet.tobytes() == ref.tobytes()
        searched.append(len(sources))
        return meet

    monkeypatch.setattr(girth, "_neighbor_graph", blocked_build)
    monkeypatch.setattr(girth, "_meet_values", blocked_meet_values)
    monkeypatch.setattr(
        girth, "build_boundary_graph",
        partial(build_boundary_graph, directions=directions),
    )
    symmetric_girth(body, n_samples, rng=seed)
    assert len(searched) == 1
    if body.dim == 2:
        assert len(graph_calls) > 1
    elif n_samples == 4096:
        assert searched[0] > girth.SEARCH_CHUNK  # several radius blocks


@pytest.mark.parametrize(
    "make_body, one_row_short",
    [
        (partial(lp_ball, 4.0, np.ones(4)), False),
        (partial(lp_ball, 1, np.ones(4)), True),
    ],
    ids=["l4", "cross4-one-row-short"],
)
def test_boundary_graph_gauges_one_sample_of_each_pair(
    monkeypatch, make_body, one_row_short
):
    # the first half's edges are gauged, and only they: the second half's
    # are their mirror images, and the graph is the one-batch reference's
    body = make_body()
    samples = build_boundary_graph(body, 4096, rng=0).samples
    k, half = girth.NEIGHBORS, len(samples) // 2
    nearest = cKDTree(samples).query(samples[:half], k=k + 1)[1][:, 1:]
    kept = np.count_nonzero(nearest != np.arange(half)[:, None] + half)
    if one_row_short:
        # slices of kept - 1 rows cut from the front would leave one of 1
        # row, whose gauge takes BLAS's matvec path
        monkeypatch.setattr(girth, "BLOCK_FLOATS", (kept - 1) * body.dim)
    kernel, gauged = body.gauge, []

    def counting_gauge(x):
        gauged.append(len(x))
        return kernel(x)

    body.gauge = counting_gauge
    graph = girth._neighbor_graph(body, samples, k)
    del body.gauge
    assert sum(gauged) == kept <= k * half
    assert min(gauged) > 1
    ref = reference_neighbor_graph(body, samples, k)
    for part in ("indptr", "indices", "data"):
        assert getattr(graph, part).tobytes() == getattr(ref, part).tobytes()


def test_girth_source_keeps_the_radius_cadence():
    # two samples of the l4 ball graph of verify seed 7 (fast profile) are
    # minimizers up to rounding; which one wins depends on how often best
    # and the search radius are lowered, so the cadence stays at 128
    # sources whatever the size of a Dijkstra call
    bg = build_boundary_graph(
        lp_ball(4.0, np.ones(4)), 2048, rng=_derived_seed(7, 7, 2)
    )
    source = girth._shortest_antipodal_source(bg)
    assert source == reference_antipodal_source(bg) == 247


@pytest.mark.parametrize(
    "body", [lp_ball(1, np.ones(4)), lp_ball(4.0, np.ones(4))],
    ids=["cross4", "l4"],
)
def test_girth_graph_and_search_memory_is_bounded(body):
    # traced peaks at 4096 samples: the build 6.9 MiB on the cross-polytope
    # and 6.1 MiB on the l4 ball, the search 2.1 MiB; one gauge call for all
    # weights took 9.5 and 8.4 MiB, one Dijkstra call per 128 sources 11 MiB
    bg = build_boundary_graph(body, 4096, rng=0)
    tracemalloc.start()
    try:
        girth._neighbor_graph(body, bg.samples, bg.k_neighbors)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        girth._shortest_antipodal_source(bg)
        search = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build < 8 * 2**20, build
    assert search < 4 * 2**20, search


# FOUND in CHANGES.md: `refine_symmetric_half` can push a 2-d girth below
# Schaffer's bound on coarse graphs; mending the refinement flips this test
@pytest.mark.xfail(strict=True, raises=CalibrationError)
def test_girth_coarse_planar_graph_meets_the_bound():
    length, _ = symmetric_girth(ball(2), n_samples=8, rng=2)
    assert length >= schaffer_bound(2) - 1e-2


def test_girth_odd_dimension():
    length, loop = symmetric_girth(ball(3), n_samples=1024, rng=3)
    assert length == pytest.approx(2 * math.pi, rel=1e-2)
    assert isinstance(loop, np.ndarray)  # no symplectic frame in odd dimension
    report = check_schaffer_bound(ball(3), loop)
    assert report["bound"] == pytest.approx(6.0)
    assert report["margin"] > 0.2


def test_girth_cube():
    length, loop = symmetric_girth(cube(4), n_samples=2048, rng=4)
    assert length >= 5.0 - 1e-2
    assert length <= 8.0 + 1e-6  # a coordinate square gives 8, search must beat it
    report = check_schaffer_bound(cube(4), loop)
    assert not report["violation"]


def test_girth_planar_bodies_reach_six():
    # in the plane the bound 6 is sharp over all symmetric bodies
    rng = np.random.default_rng(5)
    bodies = [
        random_symmetric_polytope(rng, 2, n_pairs=6),
        random_symmetric_ellipsoid(rng, 2),
    ]
    for body in bodies:
        length, loop = symmetric_girth(body, n_samples=720, rng=6)
        assert length >= 6.0 - 1e-2
        report = check_schaffer_bound(body, loop)
        assert not report["violation"]


def test_girth_anisotropic_ellipse():
    body = Ellipsoid.from_radii([1.0, 2.0])
    length, _ = symmetric_girth(body, n_samples=720, rng=7)
    # own-norm lengths are scale invariant, and E(1, 2) stays close to the
    # round value
    assert length >= 6.0 - 1e-2
    assert length <= 2 * math.pi + 0.1


def test_dense_random_symmetric_boundary_loops_meet_bound():
    rng = np.random.default_rng(8)
    fixtures = [
        ball(2),
        random_symmetric_ellipsoid(rng, 2),
        ball(4),
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]),
        cube(4),
        lp_ball(4.0, np.ones(4)),
        ball(6),
        random_symmetric_ellipsoid(rng, 6),
    ]
    for body in fixtures:
        for _ in range(12):
            loop = dense_symmetric_boundary_loop(rng, body, n_half=150)
            report = check_schaffer_bound(body, loop)
            assert report["margin"] >= -1e-2, (body, report)
            assert not report["violation"]


def test_check_schaffer_bound_validation():
    body = ball(2)
    frame = SymplecticFrame(1)
    circle = regular_polygon(frame, 64)
    # odd vertex count
    with pytest.raises(LoopNotSymmetric):
        check_schaffer_bound(body, circle[:63])
    # symmetric but off the boundary
    with pytest.raises(LoopNotOnBoundary):
        check_schaffer_bound(body, 0.5 * circle)
    # asymmetric: rotate one half only
    broken = circle.copy()
    broken[40] = broken[40] * 1.5
    with pytest.raises(LoopNotSymmetric):
        check_schaffer_bound(body, broken)
    # the plain circle passes and pins the planar margin
    report = check_schaffer_bound(body, circle)
    assert report["margin"] == pytest.approx(2 * math.pi - 6.0, abs=1e-2)
