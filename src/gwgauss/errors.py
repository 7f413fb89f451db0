"""Exception hierarchy shared across the library.

Every semantic failure raises a subclass of :class:`GwgaussError` so callers
(and the CLI) can map error classes to exit codes without string matching.
"""


class GwgaussError(Exception):
    """Base class for all library errors."""


class AsymmetricMatrix(GwgaussError):
    """Matrix violates the scale-relative symmetry tolerance."""


class NotPositiveDefinite(GwgaussError):
    """Matrix fails the strict positive-definiteness floor."""


class DimensionMismatch(GwgaussError):
    """Operands have incompatible shapes."""


class InconsistentIndices(GwgaussError):
    """Component counts are negative, unbalanced, or disagree with data."""


class SingularValueOutOfRange(GwgaussError):
    """A raw canonical correlation exceeded 1 beyond numerical tolerance."""


class QWOutOfFamily(GwgaussError):
    """State covariance violates the two-sided order constraints of the family."""


class SingularFactor(GwgaussError):
    """A factor that must be nonsingular (or full rank) is not."""


class NonpositiveDistortion(GwgaussError):
    """Distortion budgets must be strictly positive."""


class QWNotDiagonal(GwgaussError):
    """Operation requires a diagonal state covariance."""


class AllocationOutOfRange(GwgaussError):
    """Per-component distortion allocation outside (0, conditional variance]."""


class OutsideDW(GwgaussError):
    """Distortion pair falls outside the region where the closed forms hold.

    Carries the scalar region bound so callers can report how far off the
    request was.
    """

    def __init__(self, message: str, bound: float | None = None):
        super().__init__(message)
        self.bound = bound


class TooFewSamples(GwgaussError):
    """Monte Carlo validation needs more draws than were provided."""


class MissingReconstruction(GwgaussError):
    """Sample block has no reconstruction rows to validate against."""
