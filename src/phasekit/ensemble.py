"""Canonical ensemble parameters.

The distribution weight is exp(-2 beta H), so the temperature associated
with beta is T = 1 / (2 beta k_B).  Natural units (hbar = k_B = 1) are the
defaults; the mass belongs to the potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CanonicalEnsemble:
    beta: float
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        for name in ("beta", "hbar", "k_B"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")

    @property
    def temperature(self) -> float:
        return 1.0 / (2.0 * self.beta * self.k_B)

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "hbar": self.hbar,
            "k_B": self.k_B,
        }


def ensemble_from_json(obj: dict) -> CanonicalEnsemble:
    if not isinstance(obj, dict) or "beta" not in obj:
        raise ValueError("ensemble JSON must be an object with a 'beta' field")
    extra = set(obj) - {"beta", "hbar", "k_B"}
    if extra:
        raise ValueError(f"unknown ensemble field(s): {sorted(extra)}")
    try:
        kwargs = {k: float(obj[k]) for k in ("beta", "hbar", "k_B") if k in obj}
    except (TypeError, ValueError):
        raise ValueError("ensemble fields must be numbers")
    return CanonicalEnsemble(**kwargs)


def beta_for_temperature(T: float, k_B: float = 1.0) -> float:
    """Invert T = 1 / (2 beta k_B)."""
    if T <= 0:
        raise ValueError("temperature must be positive")
    return 1.0 / (2.0 * T * k_B)
