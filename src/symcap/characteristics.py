"""Characteristic flow on smooth convex boundaries.

The boundary flow solves dx/dt = J grad g(x).  The gauge is a first
integral of that field, so trajectories stay on the boundary analytically;
each accepted step is nevertheless re-projected radially to squash the
slow numerical drift.  The field is built once per call, with J as a signed
permutation, so a step costs four gradient calls and one gauge call.
Closure is detected by upward crossings of the hyperplane through the
start point normal to the initial velocity; on a closed orbit the enclosed
symplectic action equals half the period, which ``closed_orbit_action``
verifies and returns.
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

MAX_STEPS = 1 << 22  # RK4 steps a caller may ask for: 200 MB of states at dim 6


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

    Classical fourth-order Runge-Kutta with radial re-projection after each
    step.  Upward crossings of the start section are recorded with linearly
    interpolated crossing times; the first crossing that returns to within
    1e-4 * 2 * outer_radius() of the start fixes the period estimate.
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
    n_steps = math.ceil(t_max / step)
    closure_tol = 1e-4 * (2.0 * body.outer_radius())

    # J as a signed permutation: a product with +-1 is exact, signed zeros too
    labels = SymplecticFrame(body.dim // 2).apply_j(np.arange(1.0, body.dim + 1.0))
    perm, sign = (np.abs(labels) - 1).astype(np.intp), np.sign(labels)
    gauge, gradient = body.gauge, body.gauge_gradient
    half, sixth = 0.5 * step, step / 6.0

    states = np.empty((n_steps + 1, body.dim))
    states[0] = x0
    f0 = gradient(x0)[perm] * sign

    period = None
    closure_residual = None
    crossings = []
    s_prev = 0.0
    x = x0
    for k in range(n_steps):
        k1 = gradient(x)[perm] * sign
        k2 = gradient(x + half * k1)[perm] * sign
        k3 = gradient(x + half * k2)[perm] * sign
        k4 = gradient(x + step * k3)[perm] * sign
        x_new = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x_new).all():
            raise StepUnstable(f"non-finite state at t = {(k + 1) * step!r}")
        g = float(gauge(x_new))
        if not 0.5 < g < 2.0:
            raise StepUnstable(
                f"gauge drifted to {g!r} in one step; reduce the step size"
            )
        x_new = x_new / g
        states[k + 1] = x_new
        s_new = float((x_new - x0) @ f0)
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
    times = step * np.arange(n_steps + 1)
    return Trajectory(
        body=body,
        times=times,
        states=states,
        step=step,
        period=period,
        closure_residual=closure_residual,
        crossings=crossings,
    )


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
