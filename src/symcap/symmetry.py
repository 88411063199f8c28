"""Loop symmetrization.

One construction, ``symmetrize_mfold``, never increases the normalized dual
length of a closed loop.  The loop is cut into m pieces of equal dual
length; each piece, with endpoint gap v, spawns a candidate loop made of its
m copies under the m-th root of unity W (acting diagonally on all coordinate
planes), each copy starting where the previous one ends.  That chain is
invariant under x -> W x + v, so translated to the fixed point of that map
it is the W-orbit of its first block, and that orbit is the candidate.  Its
action is exactly m times the piece's chord-closed action plus a regular
m-gon term alpha_m |v|^2, and the best candidate always carries at least the
original action; the best piece is chosen by that exact value, and only its
candidate is built.  The norm body must be one that the rotation maps onto
itself; the one exact check is ``ConvexBody.is_invariant(m)``.

Central symmetrization is the case m = 2 (``symmetrize_central``): the root
of unity is -I, the m-gon term vanishes, and the chosen half, centred at
the midpoint of its chord, is doubled through the origin.

Lengths here are measured in the dual edge norm ||v|| = h_K(-J v) of the
supplied norm body, the same norm the capacity functional uses, so the
output is directly usable as a capacity candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .capacity import clarke_edge_norm
from .errors import (
    BodyNotSymmetricUnderW,
    CalibrationError,
    DegenerateLoop,
    InvalidParameter,
    ZeroAction,
)
from .geometry import ConvexBody
from .loops import DiscreteLoop, closed_length, split_closed_at_fractions
from .symplectic import alpha_m

MAX_ORDER = 1 << 9  # orders a caller may ask for: input validation, not a cost bound


@dataclass
class SymmetrizationOutcome:
    """Result of a symmetrization pass, with the bookkeeping to audit it."""

    output: DiscreteLoop
    chosen_index: int
    pre_action: float
    post_action: float
    pre_length: float
    post_length: float
    decomposition: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)

    def normalized_pre_length(self) -> float:
        return self.pre_length / math.sqrt(abs(self.pre_action))

    def normalized_post_length(self) -> float:
        return self.post_length / math.sqrt(abs(self.post_action))

    def to_dict(self) -> dict:
        return {
            "output": self.output.to_dict(),
            "chosen_index": self.chosen_index,
            "pre_action": self.pre_action,
            "post_action": self.post_action,
            "pre_length": self.pre_length,
            "post_length": self.post_length,
            "decomposition": self.decomposition,
            "residuals": self.residuals,
        }


def symmetrize_central(
    loop: DiscreteLoop, norm_body: ConvexBody
) -> SymmetrizationOutcome:
    """Replace a loop by a centrally symmetric one of no greater length.

    The order-2 case of ``symmetrize_mfold``: the loop is cut into two arcs
    of equal dual length, and the arc holding at least half the action is
    doubled through the origin.  Requires a centrally symmetric norm body.
    """
    return symmetrize_mfold(loop, norm_body, 2)


def symmetrize_mfold(
    loop: DiscreteLoop, norm_body: ConvexBody, m: int
) -> SymmetrizationOutcome:
    """Make a loop invariant under the diagonal m-th root of unity rotation.

    Splits the loop into m segments of equal dual length; the segments'
    chord-closed actions A_i and the polygon of the cut points add up to the
    input action, reported as ``residuals["action_additivity"]``.  Segment i
    with endpoint gap v_i stands for the candidate [W^k f_i]_{k<m}, the
    W-orbit of f_i = seg[:-1] - seg[0] - c_i, where c_i = (v_i + cot(pi/m)
    J v_i) / 2 is the fixed point of x -> W x + v_i: the chain of the
    segment's rotated copies, each starting where the previous one ends,
    translated by -c_i.  Its action is exactly m * A_i + alpha_m |v_i|^2
    (A_i = action of the segment closed by its chord), the record's
    ``candidate_action``, and the best one is never below the input action
    — the quantitative core of the m-fold symmetrization argument.  Only the
    first best candidate is built (m rotations); its measured action must
    match the prediction, else CalibrationError, and ``residuals["symmetry"]``
    is its own.  Rescaled to unit action it is the result.  For m = 2 and 4
    the rotations are exact signed permutations, so the output symmetry is
    exact.

    The norm body must be one that W = ``root_multiply(m, 1)`` maps onto
    itself, the one exact check ``ConvexBody.is_invariant(m)``; otherwise
    ``BodyNotSymmetricUnderW`` (for m = 2: not centrally symmetric).  An m
    outside [2, MAX_ORDER] is an InvalidParameter.
    """
    if not 2 <= m <= MAX_ORDER:
        raise InvalidParameter(f"symmetry order m must be in [2, {MAX_ORDER}], got {m}")
    if loop.dim != norm_body.dim:
        raise InvalidParameter(
            f"loop has dimension {loop.dim}, norm body has dimension {norm_body.dim}"
        )
    if not norm_body.is_invariant(m):
        raise BodyNotSymmetricUnderW(
            f"order-{m} symmetrization needs a norm body that the order-{m} "
            "rotation maps onto itself"
        )
    frame = loop.frame
    pre_action = loop.action()
    if pre_action == 0.0:
        raise ZeroAction("cannot symmetrize a loop of zero action")
    verts = loop.vertices
    if pre_action < 0:
        verts = verts[::-1].copy()
        pre_action = -pre_action
    norm_fn = partial(clarke_edge_norm, norm_body)
    pre_length = closed_length(verts, norm_fn)
    scale = float(np.max(np.abs(verts))) or 1.0

    segments = split_closed_at_fractions(verts, norm_fn, m)
    if min(len(seg) for seg in segments) < 2:
        raise DegenerateLoop("split produced a segment with fewer than 2 points")
    cuts = np.array([seg[0] for seg in segments])
    cut_action = float(frame.polygon_action(cuts)) if m >= 3 else 0.0
    const = alpha_m(m)
    # the fixed point of x -> W x + v is c = (v + cot(pi/m) J v) / 2, and
    # cot(pi/m) = 4 alpha_m / m, which is exactly 0 at m = 2
    half_cot = 2.0 * const / m
    decomposition = []
    for i, seg in enumerate(segments):
        v_i = seg[-1] - seg[0]
        a_i = float(frame.polygon_action(seg)) if len(seg) >= 3 else 0.0
        s_i = const * float(v_i @ v_i)
        decomposition.append(
            {
                "segment": i,
                "closed_action": a_i,
                "polygon_term": s_i,
                "gap": [float(c) for c in v_i],
                "candidate_action": m * a_i + s_i,
            }
        )
    predicted = [d["candidate_action"] for d in decomposition]
    chosen_index = int(np.argmax(predicted))  # the first maximum wins
    seg = segments[chosen_index]
    v = seg[-1] - seg[0]
    first = seg[:-1] - seg[0] - (0.5 * v + half_cot * frame.apply_j(v))
    chosen = np.vstack([frame.root_multiply(m, k, first) for k in range(m)])
    # a one-point-per-block candidate is a degenerate zero-action polygon
    best_action = float(frame.polygon_action(chosen)) if len(chosen) >= 3 else 0.0
    if abs(best_action - predicted[chosen_index]) > 1e-8 * max(1.0, scale**2):
        raise CalibrationError(
            f"candidate action {best_action!r} deviates from the exact "
            f"decomposition m*A + alpha_m |v|^2 = {predicted[chosen_index]!r}"
        )

    additivity = abs(
        sum(d["closed_action"] for d in decomposition) + cut_action - pre_action
    )
    if best_action < pre_action - 1e-8 * max(1.0, abs(pre_action)):
        raise CalibrationError(
            "no candidate reaches the input action; the discrete isoperimetric "
            "bound must have been violated"
        )
    if best_action <= 0:
        raise ZeroAction("symmetrized loop has nonpositive action")
    rotated = frame.root_multiply(m, 1, chosen)
    sym_residual = float(
        np.max(np.abs(np.roll(chosen, -(len(chosen) // m), axis=0) - rotated))
    )
    out_loop = DiscreteLoop(frame, chosen * (1.0 / math.sqrt(best_action)))
    post_action = out_loop.action()
    post_length = closed_length(out_loop.vertices, norm_fn)

    return SymmetrizationOutcome(
        output=out_loop,
        chosen_index=chosen_index,
        pre_action=pre_action,
        post_action=post_action,
        pre_length=pre_length,
        post_length=post_length,
        decomposition=decomposition,
        residuals={
            "action_additivity": additivity,
            "symmetry": sym_residual,
        },
    )
