"""Exception hierarchy shared across the package."""


class SphflexError(Exception):
    """Base class for all domain errors raised by this package."""


# graph construction / manipulation


class GraphError(SphflexError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


# colorings and cuts


class BudgetExceededError(SphflexError):
    """Input exceeds an enumeration budget.

    NAP-colorings are enumerated pole set by pole set and valid cuts by
    per-vertex label counts, but the number of results can still grow
    exponentially, so graphs beyond ``coloring.MAX_ENUM_EDGES`` edges
    (colorings and the flexibility certificate) or 8 vertices (cuts) are
    refused rather than sampled.
    """


class NotNapError(SphflexError):
    pass


class InvalidCutError(SphflexError):
    pass


class UnknownRowError(SphflexError):
    pass


class InconsistentTypesError(SphflexError):
    pass


# quadrilateral classification


class AmbiguousToleranceError(SphflexError):
    """Two incompatible length patterns both match within tolerance."""


class NoSymmetryFoundError(SphflexError):
    pass


# motion generators


class DomainViolationError(SphflexError):
    pass


class NoRealSolutionError(SphflexError):
    pass


class DegenerateAxisError(SphflexError):
    pass


class OutOfRangeError(SphflexError):
    pass


class PoleError(SphflexError):
    """Requested parameter value sits on a pole of the parametrization."""


class NegativeDiscriminantError(SphflexError):
    pass


class ZeroDivisorError(SphflexError):
    pass


class DegenerateTrajectoryError(SphflexError):
    """Trajectory fails a structural invariant (too few distinct samples)."""


# numeric continuation


class SeedNotOnCurveError(SphflexError):
    pass


class RankDeficientError(SphflexError):
    """Jacobian corank at the seed is not 1 (0 means the framework is rigid)."""

    def __init__(self, corank: int, message: str = ""):
        self.corank = corank
        super().__init__(message or f"Jacobian corank {corank} at seed")


class StepFailureError(SphflexError):
    pass


class UnderConstrainedError(SphflexError):
    pass


class InsufficientSamplesError(SphflexError):
    pass


class DegenerateRealizationError(SphflexError):
    pass
