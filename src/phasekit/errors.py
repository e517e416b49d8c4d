"""Exception types shared across the package."""


class PhasekitError(Exception):
    """Base class for all computation errors raised by this package."""


class DomainError(PhasekitError):
    """The density psi^2 underflows to 0 or overflows on a grid: its entropy is undefined."""


class NormalizationError(PhasekitError):
    """The configuration-space density cannot be normalized on the box."""


class AccuracyError(PhasekitError):
    """A quadrature did not converge to the requested tolerance.

    Carries the estimated truncation error in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NoRealTemperatureError(PhasekitError):
    """No finite real temperature: matching at a non-minimum, or a beta or a
    T = 1 / (2 beta k_B) that under- or overflows."""


class ForbiddenRegionError(PhasekitError):
    """An energy below the local potential value (no classical motion)."""


class SeparatrixError(PhasekitError):
    """Energy indistinguishable from an unstable maximum of a periodic potential."""


class BracketError(PhasekitError):
    """A root bracket could not be grown to contain the requested target."""


class TrajectoryError(PhasekitError):
    """The boundary-value trajectory solver failed to converge."""


class ConjugatePointError(TrajectoryError):
    """Boundary-value problem posed at a focal time of the harmonic family."""


class BoxError(PhasekitError):
    """Eigensolver box too small: wall amplitudes are not negligible."""


class ResolutionError(PhasekitError):
    """Periodic eigensolver grid so fine that its kinetic scale leaves the
    shifted operator singular to rounding."""


class ConfigError(PhasekitError):
    """Invalid run configuration (strict parsing).

    ``field`` names the offending entry when one can be identified.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
