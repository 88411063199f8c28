"""Exception types shared across the package."""


class SymcapError(Exception):
    """Base class for all package-specific errors."""


class NonConvexParameters(SymcapError, ValueError):
    """Body parameters do not describe a bounded convex body (matrix not
    positive definite, exponent below 1, degenerate or unbounded polytope)."""


class OriginNotInterior(SymcapError, ValueError):
    """The origin is not strictly inside the body, so the gauge is not finite
    and positive on all rays."""


class GradientUndefinedAtZero(SymcapError, ValueError):
    """Gauge gradient, support point or boundary ray requested at the zero
    vector, where none of them is defined."""


class DimensionMismatch(SymcapError, ValueError):
    """Array shapes do not agree with the ambient dimension."""


class TooFewVertices(SymcapError, ValueError):
    """A polygon or loop was given fewer than three vertices."""


class DegenerateLoop(SymcapError, ValueError):
    """A loop contains consecutive duplicate vertices; call normalize first."""


class ZeroAction(SymcapError, ValueError):
    """An operation that rescales by the action received a loop whose
    symplectic action vanishes."""


class ZeroActionStart(ZeroAction):
    """A loop given to the Clarke functional has zero symplectic action, or a
    Clarke start has no positive action, which its construction rules out
    (see ``capacity._planar_ellipse_init``): a fault, not a bad seed."""


class BodyNotSymmetric(SymcapError, ValueError):
    """The operation requires a centrally symmetric body."""


class BodyNotSymmetricUnderW(BodyNotSymmetric):
    """The operation requires a body invariant under the simultaneous
    rotation by a given root of unity."""


class GraphDisconnected(SymcapError, RuntimeError):
    """No antipodal path exists in the boundary graph, as in one built from
    a single pair of directions."""


class LoopNotSymmetric(SymcapError, ValueError):
    """A loop claimed to be centrally symmetric is not, within tolerance."""


class LoopNotOnBoundary(SymcapError, ValueError):
    """A loop claimed to lie on the boundary of a body does not, within
    tolerance."""


class NotSmoothBody(SymcapError, ValueError):
    """Characteristic flow integration requires a smooth body."""


class StepUnstable(SymcapError, RuntimeError):
    """The flow solver stopped short of the end time or ran past its budget
    of field evaluations, or a sample's gauge came out outside (0.5, 2)."""


class OrbitNotClosed(SymcapError, ValueError):
    """No return to the start was detected within the integration window."""


class CalibrationError(SymcapError, RuntimeError):
    """A computed value contradicts a closed form or a guaranteed bound."""


class OptimizerDidNotConverge(SymcapError, RuntimeError):
    """An iterative solver stopped before reaching its target tolerance.

    Carries the best value found and the remaining certificate gap so callers
    can decide whether the bound is still usable.
    """

    def __init__(self, message, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


class InvalidParameter(SymcapError, ValueError):
    """A value given by the caller is out of range: too few loop points or
    restarts, an odd count where pairs are needed, a symmetry order below 2,
    a flow sample spacing outside (0, t_max) or a start point off the boundary."""


class SpecParseError(SymcapError, ValueError):
    """A JSON body, loop or suite description does not match the schema."""
