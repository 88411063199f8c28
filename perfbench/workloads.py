"""The three benchmark workloads.

Each workload builds its inputs from the seed when it is constructed (that
is the timed set-up), and ``run_pass`` repeats the same work on the same
inputs, so every pass of a run must produce identical outputs.  Only the
public API of the symcap modules is used; functions are looked up on their
modules at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symcap import capacity, characteristics, geometry, girth, loops, symmetry, verify
from symcap.loops import DiscreteLoop
from symcap.symplectic import SymplecticFrame

import checks

# c_EHZ([-1, 1]^4) = 4: the 2-bounce Minkowski billiard of [-1,1]^2 x [-1,1]^2
EXACT_EHZ = {"cube-d4": 4.0}

# Girth sample directions come from these fixed streams, not from the seed:
# the girth error of a 4- or 6-dimensional ellipsoid moves by a factor of
# eight between sample sets (4e-4 to 3.2e-3 on ellipsoid-1-1.2-1.5), which
# would drown any change in girth_rel_err_max.  The seed varies the rest.
GIRTH_STREAM = 0


def packaged_suite() -> dict:
    text = (importlib.resources.files("symcap") / "data" / "default_suite.json").read_text()
    return json.loads(text)


def _bodies(ids):
    entries = {e["id"]: e for e in packaged_suite()["bodies"]}
    return {i: geometry.body_from_dict(entries[i]) for i in ids}


def _rng(seed, *salt):
    return np.random.default_rng([seed, *salt])


def _exact_ehz(body_id, body):
    if isinstance(body, geometry.Ellipsoid):
        return capacity.ellipsoid_ehz_exact(body).value
    return EXACT_EHZ.get(body_id)


def _fastest_plane(body):
    """Orthonormal-ish pair (a, b) spanning the fastest closed characteristic
    of a centered ellipsoid: the eigenplane of J M with the largest |lambda|."""
    frame = SymplecticFrame(body.dim // 2)
    evals, vecs = np.linalg.eig(frame.j_matrix() @ body.matrix)
    v = vecs[:, int(np.argmax(evals.imag))]
    return v.real, v.imag


@dataclass
class PassOutput:
    """What one pass produced, beyond its timing."""

    digest: list = field(default_factory=list)  # exact values; equal across passes
    clarke: list = field(default_factory=list)  # Clarke values (upper bounds)
    clarke_excess: list = field(default_factory=list)  # clarke / exact - 1
    girth_err: list = field(default_factory=list)  # |L / 2 pi - 1|, ellipsoids
    layer: dict = field(default_factory=dict)  # accuracy values per layer

    def sha(self) -> str:
        return hashlib.sha256(repr(self.digest).encode()).hexdigest()


class Outcomes:
    """Counts operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, label):
        return _Op(self, label)


class _Op:
    """One operation: it fails when its body raises or a check gives a reason."""

    def __init__(self, outcomes, label):
        self.outcomes = outcomes
        self.label = label
        self.reasons = []

    def check(self, reason):
        if reason is not None:
            self.reasons.append(reason)

    def __enter__(self):
        self.outcomes.attempted += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            if not isinstance(exc, Exception):
                return False
            self.reasons.append(f"{type(exc).__name__}: {exc}")
        if self.reasons:
            self.outcomes.failed += 1
            self.outcomes.failures.append(f"{self.label}: {'; '.join(self.reasons)}")
        return True


class VerifyFast:
    """``run_verify`` with the fast profile on packaged suite bodies.

    A full pass over the 8-body suite takes ~71 s on 2 cores, longer than a
    whole benchmark run may take, so a pass verifies two bodies, each in its
    own ``run_verify`` call:

    - the l4 ball with the run's seed: the smooth-body paths (gradient
      support, multistart c_J, girth).  Every L-BFGS run on it goes to the
      5000-iteration cap, so its cost does not depend on the seed.
    - the 4-d ball with the fixed seed ``BALL_SEED``: the ellipsoid paths
      (spectral c_J, exact capacity, girth against its exact value).  With
      the run's seed its L-BFGS runs would stop anywhere from 630 to 3800
      iterations, moving the pass time by ~10% between seeds, and its girth
      error would move between 4e-5 and 1e-4 with the sample set.

    Not the 2-d ball: its girth graph is disconnected for about 3% of seeds
    (11 of seeds 0-399), and ``verify`` then reports GraphDisconnected for
    it, a defect of ``girth`` on 2-d bodies.  The polytope paths run in
    ``CapacitySymmetric``.
    """

    bodies = ("l4-ball-d4", "ball-r1-n2")
    BALL_SEED = 0

    def __init__(self, seed: int, out_dir: Path):
        suite = packaged_suite()
        entries = {e["id"]: e for e in suite["bodies"]}
        self.suites = {i: {"bodies": [entries[i]], "profiles": suite["profiles"]}
                       for i in self.bodies}
        self.seeds = {"l4-ball-d4": seed, "ball-r1-n2": self.BALL_SEED}
        self.body = {i: geometry.body_from_dict(entries[i]) for i in self.bodies}
        self.out_dir = out_dir
        self.passes = 0

    def run_pass(self, outcomes: Outcomes) -> PassOutput:
        out = PassOutput()
        pass_dir = self.out_dir / f"pass{self.passes}"
        self.passes += 1
        for body_id in self.bodies:
            records = []
            with outcomes.op(f"verify.run_verify.{body_id}") as op:
                code, records = verify.run_verify(self.suites[body_id], pass_dir / body_id,
                                                  seed=self.seeds[body_id], profile="fast")
                op.check(checks.verify_run(code, records))
                out.digest.append((pass_dir / body_id / "report.csv").read_text())
            for rec in records:
                with outcomes.op(f"verify.{rec.body_id}") as op:
                    if rec.status != "ok":
                        raise RuntimeError(rec.status)
                    body = self.body[rec.body_id]
                    out.clarke.append(rec.clarke)
                    exact = _exact_ehz(rec.body_id, body)
                    if exact is not None:
                        out.clarke_excess.append(rec.clarke / exact - 1.0)
                        op.check(checks.clarke_vs_exact(rec.clarke, exact))
                    if rec.girth_length is not None:
                        op.check(checks.schaffer(rec.schaffer_margin))
                        if isinstance(body, geometry.Ellipsoid):
                            out.girth_err.append(checks.girth_rel_err(rec.girth_length))
                            op.check(checks.girth_vs_exact(rec.girth_length))
        return out


class CapacitySymmetric:
    """Symmetric-mode Clarke at 256 points and c_J, one body per support kind.

    The half-loop parametrization and the doubled point count are paths
    ``verify`` never takes.  One restart per body, two on the cube, keeps a
    pass near 7 s, so that a run holds several passes.  The ellipsoid is E(1, 2), not the 4-d ball: on
    the ball a run of L-BFGS stops anywhere from 950 to 5100 iterations,
    depending on its start, which moved the pass time by up to 15% from
    seed to seed; on E(1, 2), as on the cube and the l4 ball, nearly every
    run goes to the iteration cap.  The ball's symmetric girth at the fast
    profile's 2048 samples (~4% of a pass) gives the workload a girth
    accuracy value.
    """

    bodies = ("ellipsoid-1-2", "cube-d4", "l4-ball-d4")
    # one restart of a symmetric Clarke run on the cube overshoots
    # c_EHZ = 4 by up to 1.84% (seeds 0-57), close to the 2% check; the
    # better of two stays near 1%
    restarts = {"ellipsoid-1-2": 1, "cube-d4": 2, "l4-ball-d4": 1}

    def __init__(self, seed: int, out_dir: Path):
        self.body = _bodies(self.bodies + ("ball-r1-n2",))
        self.configs = [
            capacity.OptimizerConfig(seed=int(_rng(seed, i).integers(2**32)),
                                     restarts=self.restarts[body_id], points=256,
                                     symmetric=True)
            for i, body_id in enumerate(self.bodies)
        ]
        self.cj_seeds = [int(_rng(seed, i, 1).integers(2**32))
                         for i in range(len(self.bodies))]

    def run_pass(self, outcomes: Outcomes) -> PassOutput:
        out = PassOutput()
        for i, body_id in enumerate(self.bodies):
            body = self.body[body_id]
            clarke = math.nan
            with outcomes.op(f"clarke_minimize.{body_id}") as op:
                res = capacity.clarke_minimize(body, self.configs[i])
                out.clarke.append(res.value)
                out.digest.append((res.value, res.diagnostics["iterations"]))
                exact = _exact_ehz(body_id, body)
                if exact is not None:
                    out.clarke_excess.append(res.value / exact - 1.0)
                    op.check(checks.clarke_vs_exact(res.value, exact))
                clarke = res.value
            with outcomes.op(f"c_j.{body_id}") as op:
                cj = capacity.c_j(body, seed=self.cj_seeds[i])
                out.digest.append(cj.value)
                op.check(checks.capacity_ratio(clarke, cj.value, body.dim // 2, True))
        with outcomes.op("symmetric_girth.ball-r1-n2") as op:
            body = self.body["ball-r1-n2"]
            length, loop = girth.symmetric_girth(body, n_samples=2048,
                                                 rng=_rng(GIRTH_STREAM, 0))
            out.digest.append(length)
            out.girth_err.append(checks.girth_rel_err(length))
            op.check(checks.girth_vs_exact(length))
            report = girth.check_schaffer_bound(body, loop)
            op.check(checks.schaffer(report["margin"], report["violation"]))
        return out


class BoundaryGeometry:
    """Many small geometry calls and no Clarke minimization.

    Symmetric girth at 4096 samples with the Schaffer check, containment
    scores of seed-generated 64-point loops, central and 3-fold
    symmetrization on the W-invariant ellipsoids, 8000 characteristic steps
    on two ellipsoids and the l4 ball, and c_J by ascent.  This is the
    control workload for changes to the Clarke minimizer.
    """

    girth_bodies = ("ellipsoid-1-2", "ellipsoid-1-1.2-1.5", "cross-polytope-d4")
    containment_bodies = ("shifted-ellipsoid-1-2", "l4-ball-d4", "cube-d4",
                          "cross-polytope-d4")
    symmetric_bodies = ("ball-r1-n2", "ellipsoid-1-2", "ellipsoid-1-1.2-1.5")
    flow_bodies = ("ellipsoid-1-2", "ellipsoid-1-1.2-1.5", "l4-ball-d4")
    cj_bodies = ("ellipsoid-1-2", "shifted-ellipsoid-1-2", "l4-ball-d4")
    loops_per_body = 2
    loop_points = 64
    flow_steps = 8000
    flow_step = 1e-3

    def __init__(self, seed: int, out_dir: Path):
        ids = set(self.girth_bodies + self.containment_bodies + self.symmetric_bodies
                  + self.flow_bodies + self.cj_bodies)
        self.body = _bodies(sorted(ids))
        rng = _rng(seed, 2)
        self.containment_loops = [
            (body_id, rng.normal(size=(self.loop_points, self.body[body_id].dim))
             * rng.uniform(0.5, 2.0) + rng.normal(size=self.body[body_id].dim))
            for body_id in self.containment_bodies for _ in range(self.loops_per_body)
        ]
        self.sym_loops = [
            (body_id, self._near_orbit_loop(self.body[body_id], rng))
            for body_id in self.symmetric_bodies for _ in range(self.loops_per_body)
        ]
        self.flow_starts = []
        for body_id in self.flow_bodies:
            body = self.body[body_id]
            if isinstance(body, geometry.Ellipsoid):
                a, b = _fastest_plane(body)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                direction = math.cos(phase) * a + math.sin(phase) * b
            else:
                direction = rng.normal(size=body.dim)
            self.flow_starts.append((body_id, body.boundary_point(direction)))
        self.cj_seeds = [int(rng.integers(2**32)) for _ in self.cj_bodies]

    def _near_orbit_loop(self, body, rng):
        """A rippled copy of the fastest closed characteristic, moved by a
        random symmetry of the body.

        The shape is fixed: the orbit circle in the coordinate plane of the
        smallest radius plus 2nd/3rd harmonic ripples in every plane.  The
        seed picks a rotation of each (q_j, p_j) plane, which preserves a
        W-invariant ellipsoid and the symplectic form, and an offset.  The
        symmetrizations and Clarke values are equivariant under both, so the
        loops differ from seed to seed while their values stay comparable.
        (The start vertex is fixed: it decides where the loop is cut.)
        """
        n = body.dim // 2
        radii = 1.0 / np.sqrt(np.diag(body.matrix))
        fast = int(np.argmin(radii[:n]))
        t = 2.0 * math.pi * np.arange(self.loop_points) / self.loop_points
        q = 0.05 * radii[:n] * np.cos(2.0 * t)[:, None]
        p = 0.05 * radii[:n] * np.sin(3.0 * t)[:, None]
        q[:, fast] += radii[fast] * np.cos(t)
        p[:, fast] += radii[fast] * np.sin(t)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        x = np.hstack([np.cos(theta) * q - np.sin(theta) * p,
                       np.sin(theta) * q + np.cos(theta) * p])
        return DiscreteLoop(SymplecticFrame(n), x + rng.normal(size=body.dim))

    def run_pass(self, outcomes: Outcomes) -> PassOutput:
        out = PassOutput()
        for j, body_id in enumerate(self.girth_bodies):
            body = self.body[body_id]
            with outcomes.op(f"symmetric_girth.{body_id}") as op:
                length, loop = girth.symmetric_girth(body, n_samples=4096,
                                                     rng=_rng(GIRTH_STREAM, 1, j))
                out.digest.append(length)
                report = girth.check_schaffer_bound(body, loop)
                op.check(checks.schaffer(report["margin"], report["violation"]))
                if isinstance(body, geometry.Ellipsoid):
                    out.girth_err.append(checks.girth_rel_err(length))
                    op.check(checks.girth_vs_exact(length))

        gaps = []
        for body_id, pts in self.containment_loops:
            with outcomes.op(f"containment_score.{body_id}") as op:
                det = loops.containment_score(pts, self.body[body_id], rng=0,
                                              return_details=True)
                out.digest.append(det.sigma)
                if det.method != "lp":  # the LP reports a nominal gap
                    gaps.append(det.gap)
                op.check(checks.containment_gap(det.gap, det.sigma))
        out.layer["loops.containment_gap_max"] = max(gaps, default=0.0)

        for body_id, loop in self.sym_loops:
            body = self.body[body_id]
            exact = capacity.ellipsoid_ehz_exact(body).value
            for label, fn in (("central", lambda: symmetry.symmetrize_central(loop, body)),
                              ("mfold", lambda: symmetry.symmetrize_mfold(loop, body, 3))):
                with outcomes.op(f"symmetrize_{label}.{body_id}") as op:
                    outcome = fn()
                    op.check(checks.symmetrization(outcome))
                    value = capacity.clarke_functional(body, outcome.output)
                    out.digest.append(value)
                    out.clarke.append(value)
                    out.clarke_excess.append(value / exact - 1.0)
                    op.check(checks.upper_bound(value, exact))

        action_errs = []
        for body_id, x0 in self.flow_starts:
            body = self.body[body_id]
            with outcomes.op(f"integrate_characteristic.{body_id}") as op:
                traj = characteristics.integrate_characteristic(
                    body, x0, t_max=self.flow_steps * self.flow_step,
                    step=self.flow_step)
                op.check(checks.boundary_residual(traj.boundary_residual()))
                if isinstance(body, geometry.Ellipsoid):
                    action = characteristics.closed_orbit_action(traj)
                    exact = capacity.ellipsoid_ehz_exact(body).value
                    action_errs.append(abs(action / exact - 1.0))
                    op.check(checks.orbit_action(action, exact))
                    out.digest.append(action)
                out.digest.append(traj.states[-1].tolist())
        out.layer["characteristics.action_rel_err_max"] = max(action_errs, default=0.0)

        for body_id, cj_seed in zip(self.cj_bodies, self.cj_seeds):
            body = self.body[body_id]
            with outcomes.op(f"c_j.optimize.{body_id}") as op:
                res = capacity.c_j(body, method="optimize", seed=cj_seed)
                out.digest.append(res.value)
                if isinstance(body, geometry.Ellipsoid) and body.is_symmetric:
                    op.check(checks.cj_vs_exact(res.value, capacity.c_j(body).value))
                elif not res.value > 0:
                    op.check(f"c_J {res.value!r} is not positive")
        return out


WORKLOADS = {
    "verify-fast": VerifyFast,
    "capacity-symmetric": CapacitySymmetric,
    "boundary-geometry": BoundaryGeometry,
}
