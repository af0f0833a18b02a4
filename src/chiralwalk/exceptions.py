"""Exception types shared across the package, and its one residual rule: every
relation check decides by ``check_residual``, so a NaN residual, which a finite
input gives whenever its defect overflows, is refused as one above tol is.  A
defect that can overflow is evaluated under ``overflow_as_nan``, so that the
refusal is the only thing a huge input prints."""

import numpy as np


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
    """Scenario or sweep file is malformed, or asks for a larger model than is solved."""


def overflow_as_nan():
    """numpy's error state for evaluating a relation defect: an overflow gives inf or NaN
    without a RuntimeWarning, and ``check_residual`` refuses the defect."""
    return np.errstate(over="ignore", invalid="ignore")


def check_residual(defect, tol, message=None, error=PreconditionError):
    """Whether ``defect`` (an array, a list or a number) passes at ``tol``: its residual, the
    largest |entry|, NaN when any entry is and 0.0 for none, must be <= tol.  A refused
    residual raises ``error(message % residual)``, or returns False without a message."""
    residual = float(np.abs(defect).max(initial=0.0))
    if not residual <= tol and message is not None:
        raise error(message % residual)
    return residual <= tol
