"""Exception hierarchy shared across the package."""


class QsAffineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QsAffineError, ValueError):
    """A constructor or CLI input violates a structural invariant."""


class InvalidDigit(QsAffineError, ValueError):
    """A digit lies outside the alphabet of the system in use."""


class OutOfDomain(QsAffineError, ValueError):
    """A point argument lies outside [0, 1]."""


class AlphabetMismatch(QsAffineError, ValueError):
    """Two objects built over different alphabet sizes were combined."""


class InsufficientDepth(QsAffineError, ValueError):
    """A truncated digit string does not carry enough digits for the request."""


class HypothesisViolated(QsAffineError, ValueError):
    """The input falls outside the hypotheses of the formula being applied."""


class ConditionsNotMet(QsAffineError, ValueError):
    """The closed-form extremum regime (one negative ratio with offset above 1) does not hold."""


class PreconditionViolated(QsAffineError, ValueError):
    """An operation-specific precondition failed."""


class CertificationError(QsAffineError, ArithmeticError):
    """An internal cross-check failed: a library fault, not bad input."""
