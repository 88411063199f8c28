"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single ``criterion N: PASS`` line (visible with ``-s``
or in captured output on failure) summarizing the measured quantities, so
a log of this file doubles as the acceptance report.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from symcap.capacity import (
    OptimizerConfig,
    c_j,
    clarke_minimize,
    ellipsoid_ehz_exact,
)
from symcap.characteristics import closed_orbit_action, integrate_characteristic
from symcap.cli import main as cli_main
from symcap.geometry import Ellipsoid, ball, cube, lp_ball
from symcap.girth import symmetric_girth
from symcap.loops import DiscreteLoop, containment_score, gauge_length
from symcap.symmetry import symmetrize_central, symmetrize_mfold
from symcap.symplectic import SymplecticFrame, alpha_m
from symcap.verify import run_verify

from helpers import (
    dense_symmetric_boundary_loop,
    nonzero_action_loop,
    random_symmetric_ellipsoid,
    random_symmetric_polytope,
    reference_mfold_candidates,
)


def _report(number, detail):
    print(f"criterion {number}: PASS — {detail}", flush=True)


def test_criterion_1_ball_calibration():
    details = []
    for n in (1, 2):
        body = ball(2 * n)
        cj_value = c_j(body).value
        assert abs(cj_value - 1.0) <= 1e-6
        start = time.perf_counter()
        result = clarke_minimize(body, OptimizerConfig(seed=0, restarts=8, points=256))
        elapsed = time.perf_counter() - start
        assert abs(result.value - math.pi) <= 0.01 * math.pi
        assert elapsed <= 60.0
        details.append(
            f"n={n} c_j={cj_value:.8f} clarke={result.value:.6f} ({elapsed:.1f}s)"
        )
    _report(1, "; ".join(details))


def test_criterion_2_ellipsoid_cross_check():
    details = []
    for radii in ([1.0, 2.0, 1.0, 2.0], [1.0, 1.2, 1.5, 1.0, 1.2, 1.5]):
        body = Ellipsoid.from_radii(radii)
        exact = ellipsoid_ehz_exact(body).value
        estimate = clarke_minimize(
            body, OptimizerConfig(seed=0, restarts=8, points=256)
        ).value
        assert abs(estimate - exact) <= 0.01 * exact

        # the exact value is itself validated against the flow: the orbit in
        # the minimal plane closes with A = T/2 and A equal to the capacity
        x0 = np.zeros(body.dim)
        x0[0] = radii[0]
        trajectory = integrate_characteristic(body, x0, t_max=7.0, step=1e-3)
        action = closed_orbit_action(trajectory)
        assert abs(action - 0.5 * trajectory.period) <= 1e-3 * trajectory.period
        assert abs(action - exact) <= 1e-3 * exact
        details.append(
            f"radii {radii[: body.dim // 2]}: est={estimate:.6f} "
            f"exact={exact:.6f} flow A={action:.6f}"
        )
    _report(2, "; ".join(details))


def test_criterion_3_capacity_ratio_suite(tmp_path):
    suite = json.loads(
        resources.files("symcap").joinpath("data/default_suite.json").read_text()
    )
    start = time.perf_counter()
    exit_code, records = run_verify(
        suite, tmp_path / "reports", seed=0, profile="full", tol=1e-2
    )
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0
    assert exit_code == 0
    assert len(records) == len(suite["bodies"])
    for record in records:
        assert record.status == "ok"
        assert record.margin_general >= -1e-2
        if record.symmetric:
            assert record.margin_symmetric >= -1e-2
    shifted = next(r for r in records if "shifted" in r.body_id)
    assert shifted.symmetric is False
    assert shifted.margin_symmetric is None  # only the general bound applies
    worst = min(min(r.margins()) for r in records)
    _report(3, f"{len(records)} bodies, worst margin {worst:.4f}, {elapsed:.0f}s")


def test_criterion_4_central_symmetrization_bulk():
    rng = np.random.default_rng(4)
    frame = SymplecticFrame(2)
    body = ball(4)
    worst_sym = worst_add = 0.0
    for _ in range(1000):
        loop = nonzero_action_loop(rng, frame, n_pts=64)
        out = symmetrize_central(loop, body)
        worst_sym = max(worst_sym, out.residuals["symmetry"])
        worst_add = max(worst_add, out.residuals["action_additivity"])
        assert out.residuals["symmetry"] <= 1e-9
        assert out.residuals["action_additivity"] <= 1e-9
        assert (
            out.normalized_post_length()
            <= out.normalized_pre_length() * (1 + 1e-12) + 1e-9
        )
    _report(
        4,
        f"1000 loops (d=4, N=64): max symmetry residual {worst_sym:.2e}, "
        f"max additivity residual {worst_add:.2e}, lengths never grew",
    )


def test_criterion_5_mfold_identities_bulk():
    rng = np.random.default_rng(5)
    frame = SymplecticFrame(2)
    body = ball(4)
    worst_identity = 0.0
    for _ in range(1000):
        loop = nonzero_action_loop(rng, frame, n_pts=48)
        for m in (2, 3, 4, 6):
            out = symmetrize_mfold(loop, body, m)
            # each prediction against the candidate built and measured
            ref = reference_mfold_candidates(loop, body, m)
            for rec, (_, measured) in zip(out.decomposition, ref, strict=True):
                gap = abs(rec["candidate_action"] - measured)
                worst_identity = max(worst_identity, gap)
                assert gap <= 1e-8 * max(1.0, abs(rec["candidate_action"]))
            built, built_action = ref[out.chosen_index]
            assert np.array_equal(
                out.output.vertices, built * (1.0 / math.sqrt(built_action))
            )
            best = max(r["candidate_action"] for r in out.decomposition)
            assert best >= out.pre_action - 1e-8
    _report(
        5,
        "1000 loops x m in {2,3,4,6}: decomposition identity within "
        f"{worst_identity:.2e}, best candidate never lost action",
    )


def test_criterion_6_isoperimetric_bulk():
    rng = np.random.default_rng(6)
    total = 0
    worst_ratio = 0.0
    for m in range(3, 9):
        bound_coeff = alpha_m(m) / m
        for frame in (SymplecticFrame(1), SymplecticFrame(2)):
            polygons = rng.normal(size=(10_000, m, frame.dim))
            actions = np.abs(frame.polygon_action(polygons))
            edges = np.roll(polygons, -1, axis=1) - polygons
            perimeters = np.linalg.norm(edges, axis=2).sum(axis=1)
            bounds = bound_coeff * perimeters**2
            violations = int(np.count_nonzero(actions > bounds))
            assert violations == 0
            worst_ratio = max(worst_ratio, float(np.max(actions / bounds)))
            total += len(polygons)
    _report(
        6,
        f"{total} random m-gons (m=3..8, d in {{2,4}}): zero violations, "
        f"max action/bound ratio {worst_ratio:.4f}",
    )


def _length_bound_fixtures():
    rng = np.random.default_rng(77)
    return [
        ball(2),
        Ellipsoid.from_radii([1.0, 1.7]),
        random_symmetric_polytope(rng, 2, n_pairs=8),
        ball(4),
        Ellipsoid.from_radii([1.0, 2.0, 1.0, 2.0]),
        cube(4),
        lp_ball(1, np.ones(4)),
        lp_ball(4, [1.0, 1.0, 1.0, 1.0]),
        ball(6),
        Ellipsoid.from_radii([1.0, 1.2, 1.5, 1.0, 1.2, 1.5]),
    ]


def test_criterion_7_length_bounds():
    rng = np.random.default_rng(7)
    worst_boundary = math.inf
    for body in _length_bound_fixtures():
        frame = SymplecticFrame(body.dim // 2)
        bound = 4.0 + 4.0 / body.dim
        for _ in range(1000):
            loop = DiscreteLoop(frame, dense_symmetric_boundary_loop(rng, body))
            margin = gauge_length(loop, body) - bound
            worst_boundary = min(worst_boundary, margin)
            assert margin >= -1e-2

    worst_sigma = math.inf
    for body in _length_bound_fixtures():
        frame = SymplecticFrame(body.dim // 2)
        bound = 2.0 + 2.0 / body.dim
        for _ in range(10):
            loop = nonzero_action_loop(rng, frame, n_pts=32)
            sigma = containment_score(loop, body, rng=rng)
            margin = gauge_length(loop.scaled(1.0 / sigma), body) - bound
            worst_sigma = min(worst_sigma, margin)
            assert margin >= -1e-2

    v1 = np.ones(4)
    v2 = np.array([1.0, 1.0, 1.0, -1.0])
    forth_back = DiscreteLoop(SymplecticFrame(2), np.vstack([v1, 0.5 * (v1 + v2), v2]))
    length = gauge_length(forth_back, cube(4))
    assert length == 4.0
    sigma = containment_score(forth_back, cube(4))
    assert abs(sigma - 1.0) <= 1e-9
    _report(
        7,
        f"10x1000 boundary loops: worst margin {worst_boundary:.4f}; "
        f"100 sigma-normalized loops: worst margin {worst_sigma:.4f}; "
        f"forth-and-back length {length} with sigma {sigma:.9f}",
    )


def test_criterion_8_planar_girth():
    rng = np.random.default_rng(8)
    bodies = [
        random_symmetric_polytope(rng, 2, n_pairs=8),
        random_symmetric_ellipsoid(rng, 2),
        random_symmetric_polytope(rng, 2, n_pairs=5),
        random_symmetric_ellipsoid(rng, 2),
        random_symmetric_polytope(rng, 2, n_pairs=12),
    ]
    lengths = []
    for index, body in enumerate(bodies):
        length, _ = symmetric_girth(body, n_samples=1024, k_neighbors=12, rng=index)
        assert length >= 6.0 - 1e-2
        lengths.append(length)
    _report(8, "five planar bodies, girths " + ", ".join(f"{v:.3f}" for v in lengths))


def test_criterion_9_verify_determinism(tmp_path, capsys):
    reports = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_main(["verify", "--seed", "7", "--out", str(out_dir)])
        assert code == 0
        reports.append(
            (
                (out_dir / "report.csv").read_bytes(),
                (out_dir / "report.json").read_bytes(),
            )
        )
    capsys.readouterr()
    assert reports[0] == reports[1]
    _report(9, "verify --seed 7 twice: report.csv and report.json byte-identical")
