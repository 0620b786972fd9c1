"""Exception types shared across the package."""


class LorenzError(Exception):
    """Base class for every error raised by this package."""


class InvalidBranch(LorenzError, ValueError):
    """A branch specification violates the required structure."""


class InvalidSlopes(InvalidBranch):
    """An affine slope is at most 1."""


class DomainError(LorenzError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class LengthMismatch(LorenzError, ValueError):
    """Two words that must have equal length do not."""


class MissingPeriodicForm(LorenzError):
    """Periodic evaluation was requested but no periodic form is attached."""


class NoRootFound(LorenzError):
    """The kneading polynomial has no admissible root in the bracket."""


class ResourceLimit(LorenzError):
    """An iteration exceeded its configured resource cap."""


class RangeError(LorenzError, ValueError):
    """A sweep range is not contained in the admissible parameter interval."""


class GridMismatch(LorenzError, ValueError):
    """Two sweeps that must share a parameter grid do not."""


class InsufficientData(LorenzError):
    """Not enough successful records to compute the requested statistic."""
