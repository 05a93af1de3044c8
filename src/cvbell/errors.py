"""Exception hierarchy shared across the package.

Physics-domain failures (cutoff, truncation budgets, bad measurement
settings) are kept distinct from plain usage errors so the
CLI can map them to different exit codes.
"""


class CvBellError(Exception):
    """Base class for all package-specific errors."""


class CutoffError(CvBellError):
    """An occupation number reached or exceeded the Fock cutoff."""


class TruncationError(CvBellError):
    """A truncation-error budget was exceeded during state construction."""


class SettingsError(CvBellError):
    """Invalid quadrature measurement settings (e.g. |delta| >= pi/2)."""


class BipartitionError(CvBellError):
    """A trivial or malformed bipartition where a proper one is required."""


class NumericalConsistencyError(CvBellError):
    """A quantity that must be real (or Hermitian) carries too large a residue."""
