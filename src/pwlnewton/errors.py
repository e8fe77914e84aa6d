"""Exception types raised across the package."""


class PwlNewtonError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PwlNewtonError, ValueError):
    """Inputs have incompatible or invalid shapes."""


class SingularMatrixError(PwlNewtonError):
    """A factorization or solve hit a (numerically) singular matrix."""


class NotPositiveDefiniteError(PwlNewtonError):
    """A symmetric matrix required to be positive definite is nonsingular and indefinite."""


class SizeGuardError(PwlNewtonError, ValueError):
    """An input is larger than its size limit, such as a problem file above MAX_JSON_BYTES."""


class GeneratorError(PwlNewtonError):
    """The random-instance generator failed to produce valid data."""


class EquivalenceUnavailableError(PwlNewtonError):
    """Q - I is singular, so the problem cannot be rewritten in T/b form."""


class ProblemFormatError(PwlNewtonError, ValueError):
    """A problem file is malformed; the message names the offending field."""
