"""Characteristic flow on smooth convex boundaries.

The boundary flow solves dx/dt = J grad g(x), with J as a signed
permutation built once per call.  One adaptive Dormand-Prince 8(5,3) solve
(DOP853) at fixed tight tolerances integrates it, and its dense output
samples the orbit on the fixed grid of the requested spacing.  The gauge is
a first integral of the field, so orbits stay on the boundary analytically;
the samples are nevertheless re-projected radially to squash the slow
numerical drift.  Closure is detected on the samples by upward crossings of
the hyperplane through the start point normal to the initial velocity; on a
closed orbit the enclosed symplectic action equals half the period, which
``closed_orbit_action`` verifies and returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CalibrationError,
    DimensionMismatch,
    InvalidParameter,
    NotSmoothBody,
    OrbitNotClosed,
    StepUnstable,
)
from .geometry import ConvexBody
from .symplectic import SymplecticFrame

MAX_STEPS = 1 << 22  # samples a caller may ask for: a flow peaks near 550 MB at dim 6
MAX_EVALS = 4 * MAX_STEPS  # field evaluations a solve may make, whatever the spacing
RTOL = 3e-14  # just above solve_ivp's floor of 100 eps, below which it warns


@dataclass
class Trajectory:
    """Sampled boundary trajectory with optional detected period."""

    body: ConvexBody
    times: np.ndarray
    states: np.ndarray
    step: float
    period: Optional[float] = None
    closure_residual: Optional[float] = None
    crossings: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def boundary_residual(self) -> float:
        return float(np.max(np.abs(self.body.gauge(self.states) - 1.0)))


def integrate_characteristic(
    body: ConvexBody,
    x0,
    t_max: float,
    step: float = 1e-3,
) -> Trajectory:
    """Integrate the boundary characteristic field from a boundary point.

    One DOP853 solve with relative tolerance ``RTOL`` and absolute tolerance
    1e-15 * outer_radius(); its dense output gives the states at the times
    ``step * k``, so ``step`` is the sample spacing, not the integrator's
    step.  The samples are re-projected radially onto the boundary.  Upward
    crossings of the start section between samples are recorded with
    linearly interpolated crossing times; the first crossing that returns to
    within 1e-4 * 2 * outer_radius() of the start fixes the period estimate.
    """
    if not body.is_smooth:
        raise NotSmoothBody(
            "characteristic flow needs a smooth gauge; polytopes have none"
        )
    if body.dim % 2 != 0:
        raise DimensionMismatch("characteristic flow needs an even-dimensional body")
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise InvalidParameter(f"start point must be finite, got {x0.tolist()}")
    g0 = float(body.gauge(x0))
    if abs(g0 - 1.0) > 1e-9:
        raise InvalidParameter(
            f"start point must be on the boundary, gauge is {g0!r}"
        )
    if not (math.isfinite(t_max) and 0 < step < t_max):
        raise InvalidParameter(f"need finite 0 < step < t_max, got {step!r}, {t_max!r}")
    if t_max / step > MAX_STEPS:  # before the states are allocated
        raise InvalidParameter(f"t_max / step is {t_max / step!r}, above {MAX_STEPS}")
    times = step * np.arange(math.ceil(t_max / step) + 1)
    closure_tol = 1e-4 * (2.0 * body.outer_radius())

    # J as a signed permutation: a product with +-1 is exact, signed zeros too
    labels = SymplecticFrame(body.dim // 2).apply_j(np.arange(1.0, body.dim + 1.0))
    perm, sign = (np.abs(labels) - 1).astype(np.intp), np.sign(labels)

    budget = iter(range(MAX_EVALS))  # bounds the solve's work, not only its samples

    def field(t, x):
        if next(budget, None) is None:
            raise StepUnstable(f"solver used {MAX_EVALS} field evaluations by t = {t:g}")
        return body.gauge_gradient(x)[perm] * sign

    f0 = field(0.0, x0)
    # imported here so that verify and capacity, which never flow, skip its cost
    from scipy.integrate import solve_ivp

    sol = solve_ivp(field, (0.0, times[-1]), x0, method="DOP853", t_eval=times,
                    rtol=RTOL, atol=1e-15 * body.outer_radius())
    if sol.status != 0:
        t_last = float(sol.t[-1]) if sol.t.size else 0.0
        raise StepUnstable(f"solver stopped after t = {t_last!r}: {sol.message}")
    states = sol.y.T
    g = body.gauge(states[1:])  # a non-finite sample fails the range test too
    off = ~((0.5 < g) & (g < 2.0))
    if off.any():
        k = np.argmax(off)
        raise StepUnstable(f"gauge drifted to {g[k]:g} at t = {times[k + 1]:g}")
    states[1:] /= g[:, None]

    s = (states - x0) @ f0
    k = np.flatnonzero((s[1:-1] < 0.0) & (s[2:] >= 0.0)) + 1
    theta = -s[k] / (s[k + 1] - s[k])
    x_cross = states[k] + theta[:, None] * (states[k + 1] - states[k])
    residuals = np.linalg.norm(x_cross - x0, axis=1)
    crossings = [
        {"time": float(t), "residual": float(r)}
        for t, r in zip((k + theta) * step, residuals)
    ]
    closing = [c for c in crossings if c["residual"] <= closure_tol]
    period = closing[0]["time"] if closing else None
    closure_residual = (closing[0]["residual"] if closing
                        else min(map(float, residuals), default=None))
    return Trajectory(body=body, times=times, states=states, step=step, period=period,
                      closure_residual=closure_residual, crossings=crossings)


def closed_orbit_action(trajectory: Trajectory) -> float:
    """Enclosed action of a detected closed orbit; checks action = T/2.

    Truncates the sampled states at the interpolated closure time, closes
    the polygon, and compares its action with half the period — the two
    agree for characteristics in this normalization, so a mismatch beyond
    1e-3 relative signals an integration problem.
    """
    if trajectory.period is None:
        residual = trajectory.closure_residual
        raise OrbitNotClosed(
            "no closure within tolerance"
            + (f"; best crossing residual {residual!r}" if residual else "")
        )
    t = trajectory.period
    k = int(t / trajectory.step)
    theta = (t - k * trajectory.step) / trajectory.step
    states = trajectory.states
    x_end = states[k] + theta * (states[min(k + 1, len(states) - 1)] - states[k])
    polygon = np.vstack([states[: k + 1], x_end[None, :]])
    frame = SymplecticFrame(trajectory.dim // 2)
    action = float(frame.polygon_action(polygon))
    if abs(action - 0.5 * t) > 1e-3 * t:
        raise CalibrationError(
            f"orbit action {action!r} deviates from half period {0.5 * t!r}"
        )
    return action


def export_trajectory(trajectory: Trajectory, path) -> None:
    """Write (t, state components, gauge residual) rows as CSV."""
    residuals = trajectory.body.gauge(trajectory.states) - 1.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"x{i}" for i in range(trajectory.dim)]
            + ["gauge_residual"]
        )
        for t, row, res in zip(trajectory.times, trajectory.states, residuals):
            writer.writerow(
                [f"{t:.12g}"]
                + [f"{v:.12g}" for v in row]
                + [f"{res:.12g}"]
            )
