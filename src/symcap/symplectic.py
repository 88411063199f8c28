"""Standard symplectic structure on R^{2n} and discrete loop actions.

Coordinates are ordered (q_1, ..., q_n, p_1, ..., p_n).  The complex
structure J sends (q, p) to (-p, q), and the symplectic form is
omega(x, y) = <J x, y>, normalized so that omega(e_{q_1}, e_{p_1}) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewVertices


@dataclass(frozen=True)
class SymplecticFrame:
    """The symplectic vector space R^{2n} with the standard form."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"need n >= 1, got n={self.n}")

    @property
    def dim(self) -> int:
        return 2 * self.n

    def j_matrix(self) -> np.ndarray:
        """The matrix of J in block form [[0, -I], [I, 0]]."""
        n = self.n
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = -np.eye(n)
        j[n:, :n] = np.eye(n)
        return j

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got shape {x.shape}"
            )
        return x

    def apply_j(self, x) -> np.ndarray:
        """J x = (-p, q), applied along the last axis."""
        x = self._check(x)
        n = self.n
        return np.concatenate([-x[..., n:], x[..., :n]], axis=-1)

    def omega(self, x, y) -> np.ndarray:
        """omega(x, y) = <J x, y>, broadcasting over leading axes."""
        x = self._check(x)
        y = self._check(y)
        return np.sum(self.apply_j(x) * y, axis=-1)

    def root_multiply(self, m: int, k: int, x) -> np.ndarray:
        """Multiply by the m-th root of unity w^k = exp(2*pi*i*k/m).

        Acts as the simultaneous rotation by angle 2*pi*k/m of every
        (q_j, p_j) plane, which is the same as cos(t) I + sin(t) J.  At a
        multiple of the quarter turn it is the exact signed permutation
        x, Jx, -x or -Jx, so these rotations compose without rounding.
        """
        if m < 1:
            raise ValueError(f"root order must be positive, got {m}")
        x = self._check(x)
        quarters, rest = divmod(4 * k, m)
        if rest == 0:
            y = self.apply_j(x) if quarters % 2 else x.copy()
            return -y if quarters % 4 >= 2 else y
        t = 2.0 * math.pi * k / m
        return math.cos(t) * x + math.sin(t) * self.apply_j(x)

    def polygon_action(self, vertices) -> np.ndarray:
        """Symplectic action (1/2) sum_i omega(x_i, x_{i+1}) of closed polygons.

        Accepts shape (..., N, 2n) and reduces over the vertex axis, so a batch
        of polygons is evaluated in one call.  The value is translation
        invariant and changes sign when the orientation is reversed.
        """
        v = self._check(vertices)
        if v.shape[-2] < 3:
            raise TooFewVertices(
                f"polygon needs at least 3 vertices, got {v.shape[-2]}"
            )
        nxt = np.roll(v, -1, axis=-2)
        return 0.5 * np.sum(self.omega(v, nxt), axis=-1)


def alpha_m(m: int) -> float:
    """Area of the regular m-gon with unit side length, m / (4 tan(pi/m)).

    The degenerate two-gon has zero area (tan(pi/2) is infinite), which is
    exactly the value the doubling construction needs at m = 2.
    """
    if m < 2:
        raise ValueError(f"need m >= 2 for the polygon area constant, got {m}")
    if m == 2:
        return 0.0
    return m / (4.0 * math.tan(math.pi / m))

