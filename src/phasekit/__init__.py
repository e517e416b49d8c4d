"""Phase-space semiclassics toolkit.

Canonical-ensemble characteristic functions, curvature-temperature
matching, action quantization, sliced propagator phases, and an
independent finite-difference eigenvalue oracle, all for 1D potentials.
"""

from .ensemble import CanonicalEnsemble, beta_for_temperature, ensemble_from_json
from .errors import (
    AccuracyError,
    BoxError,
    BracketError,
    ConfigError,
    ConjugatePointError,
    DomainError,
    ForbiddenRegionError,
    NormalizationError,
    NoRealTemperatureError,
    PhasekitError,
    ResolutionError,
    SeparatrixError,
    TrajectoryError,
)
from .potentials import (
    EquilibriumPoint,
    Harmonic,
    Morse,
    Pendulum,
    Polynomial,
    Potential,
    Quartic,
    Rotor,
    Stability,
    find_equilibria,
    potential_from_json,
)

__all__ = [
    "AccuracyError",
    "BoxError",
    "BracketError",
    "CanonicalEnsemble",
    "ConfigError",
    "ConjugatePointError",
    "DomainError",
    "EquilibriumPoint",
    "ForbiddenRegionError",
    "Harmonic",
    "Morse",
    "NormalizationError",
    "NoRealTemperatureError",
    "Pendulum",
    "PhasekitError",
    "Polynomial",
    "Potential",
    "Quartic",
    "ResolutionError",
    "Rotor",
    "SeparatrixError",
    "Stability",
    "TrajectoryError",
    "beta_for_temperature",
    "ensemble_from_json",
    "find_equilibria",
    "potential_from_json",
]

__version__ = "0.1.0"
