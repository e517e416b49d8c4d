"""Canonical ensemble parameters.

The distribution weight is exp(-2 beta H), so the temperature associated
with beta is T = 1 / (2 beta k_B).  Natural units (hbar = k_B = 1) are the
defaults; the mass belongs to the potential.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import NoRealTemperatureError
from .potentials import json_number


@dataclass(frozen=True)
class CanonicalEnsemble:
    beta: float
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and positive")

    @property
    def temperature(self) -> float:
        """T = 1 / (2 beta k_B); NoRealTemperatureError where 2 beta k_B underflows."""
        product = 2.0 * self.beta * self.k_B
        T = 1.0 / product if product > 0.0 else math.inf
        if T == math.inf:
            raise NoRealTemperatureError(
                f"T = 1 / (2 beta k_B) overflows (beta={self.beta:g}, k_B={self.k_B:g}); "
                "no finite temperature exists")
        return T

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def ensemble_from_json(obj: dict) -> CanonicalEnsemble:
    if not isinstance(obj, dict) or "beta" not in obj:
        raise ValueError("ensemble JSON must be an object with a 'beta' field")
    names = [f.name for f in dataclasses.fields(CanonicalEnsemble)]
    extra = set(obj) - set(names)
    if extra:
        raise ValueError(f"unknown ensemble field(s): {sorted(extra)}")
    try:
        kwargs = {k: json_number(obj[k]) for k in names if k in obj}
    except (TypeError, OverflowError):
        raise ValueError("ensemble fields must be numbers")
    return CanonicalEnsemble(**kwargs)
