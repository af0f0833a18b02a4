"""Exception types shared across the package."""


class ChiralwalkError(ValueError):
    """Base class for all package-specific errors."""


class DimensionMismatchError(ChiralwalkError):
    """Fiber dimensions of two operands disagree."""


class NormalizationError(ChiralwalkError):
    """Coin or coefficient data violates its unit-norm constraint."""


class PreconditionError(ChiralwalkError):
    """An operation's stated precondition fails beyond tolerance."""


class NotFredholmError(ChiralwalkError):
    """Symbol data touches the unit circle / determinant degenerates;
    no finite kernel or winding is guaranteed."""


class ScenarioError(ChiralwalkError):
    """Scenario or sweep file is malformed."""
