"""Exception types shared across the package.

``pcreg.cli._FAILURES`` maps each concrete class to its CLI exit code.
"""


class PcregError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PcregError):
    """Bad argument or malformed configuration (bounds, non-finite input, ...)."""


class DataFormatError(PcregError):
    """A CSV or JSON input could not be parsed."""


class RankDeficiencyError(PcregError):
    """A required singular value sits at or below the rank tolerance."""


class DegreesOfFreedomError(PcregError):
    """Too few observations for the requested fit (n <= p)."""


class ConvergenceError(PcregError):
    """LAPACK did not converge while factoring the design."""
