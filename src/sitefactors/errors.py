"""Exception hierarchy shared across the package.

Each class carries the stable CLI exit code of its errors as `exit_code`,
which library callers can read from the exception too.
"""


class SiteFactorsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(SiteFactorsError):
    """Input file is not readable as the documented CSV layout."""

    exit_code = 2


class SchemaError(SiteFactorsError):
    """Structurally valid file violating the table schema (duplicates, bad cells)."""

    exit_code = 2


class DegenerateDataError(SiteFactorsError):
    """Too little data for a nonsingular correlation matrix."""

    exit_code = 2


class ZeroVarianceError(SiteFactorsError):
    """An attribute row is constant and cannot be standardized."""

    exit_code = 2


class NoFactorRetainedError(SiteFactorsError):
    """No eigenvalue met the retention threshold at selection time."""

    exit_code = 3


class SingularCorrelationError(SiteFactorsError):
    """Correlation matrix too ill-conditioned to invert (ridge fallback off)."""

    exit_code = 4


class DimensionMismatchError(SiteFactorsError):
    """Matrix operands do not conform."""

    exit_code = 5


class IncompleteDefinitionError(SiteFactorsError):
    """Composite definition does not cover the retained factors exactly."""

    exit_code = 5


class AlphaRangeError(SiteFactorsError):
    """Weighting parameter outside [0, 1]."""

    exit_code = 5


class KRangeError(SiteFactorsError):
    """Requested ranking depth outside [1, number of regions]."""

    exit_code = 5
