"""Exception types shared across the package."""


class QGameError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QGameError):
    """An object failed one of its defining physical-validity checks."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotPositive(ValidationError):
    """Matrix is not positive semidefinite within tolerance."""


class TraceNotOne(ValidationError):
    """State trace differs from 1 beyond tolerance."""


class TraceConditionViolation(ValidationError):
    """Chi matrix violates the trace-preservation sum conditions."""


class CompletenessViolation(ValidationError):
    """Operator set does not satisfy the completeness sum."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class LengthMismatch(ValidationError):
    """Payoff vector length does not match the measurement outcome count."""


class NotInOmega(ValidationError):
    """Matrix is not a valid strategy (fails the chi-matrix invariants)."""


class UnsupportedDimension(ValidationError):
    """Operation only defined for a restricted operator dimension."""


class NonRealPayoff(QGameError):
    """Payoff contraction produced a significant imaginary part.

    Always indicates a corrupted tensor or strategy, never legitimate input.
    """


class NoConvergence(QGameError):
    """Iterative routine exhausted its budget without certifying a result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class WeakDualityViolation(QGameError):
    """A solver's primal value exceeded its certified dual bound.

    Weak duality rules this out, so it signals an internal bug.
    """


class InconsistentMeasurement(QGameError):
    """Measurement plus payoff vectors do not reproduce the game's payoff operators."""


class CrossCheckFailure(QGameError):
    """Two independent evaluation paths disagreed beyond tolerance."""


class ParseError(QGameError):
    """Input file could not be parsed."""


class FixtureCorrupt(QGameError):
    """Bundled fixture document failed its checksum or holds grids that are not 16x16."""
