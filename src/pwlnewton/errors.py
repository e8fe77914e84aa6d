"""Exception types raised across the package."""


class PwlNewtonError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PwlNewtonError, ValueError):
    """Inputs have incompatible or invalid shapes."""


class SingularMatrixError(PwlNewtonError):
    """A factorization or solve hit a (numerically) singular matrix."""


class AsymmetricMatrixError(PwlNewtonError, ValueError):
    """A symmetric-only routine received an asymmetric matrix."""


class ContractionHypothesisError(PwlNewtonError):
    """The fixed-point map is not a contraction (||T^-1|| >= 1)."""


class SizeGuardError(PwlNewtonError, ValueError):
    """An exhaustive routine was called above its dimension guard."""


class GeneratorError(PwlNewtonError):
    """The random-instance generator failed to produce valid data."""


class EquivalenceUnavailableError(PwlNewtonError):
    """Q - I is singular, so the problem cannot be rewritten in T/b form."""


class ProblemFormatError(PwlNewtonError, ValueError):
    """A problem file is malformed; the message names the offending field."""
