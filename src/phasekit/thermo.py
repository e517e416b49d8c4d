"""Curvature-temperature matching, equilibrium energy, and the entropy bridge.

Matching the Gaussian width of the characteristic function to the local
curvature of V fixes beta = sqrt(m / V''(q0)) / hbar, i.e. a temperature
k_B T = (hbar/2) sqrt(V''/m).  For a harmonic well that temperature's
thermal energy equals the ground-state energy hbar omega / 2, and the
equilibrium energy V(q0) + N k_B T reproduces the quantum ground level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import CanonicalEnsemble
from .errors import DomainError, NoRealTemperatureError
from .potentials import EquilibriumPoint, Potential, Stability
from .wigner import equilibrium_density


@dataclass(frozen=True)
class MatchingReport:
    q0: float
    matched_beta: float
    matched_temperature: float
    curvature: float


@dataclass(frozen=True)
class ThermoProfile:
    q: np.ndarray
    potential: np.ndarray
    psi_sq: np.ndarray
    entropy: np.ndarray
    free_energy: np.ndarray
    temperature: float
    normalization: str


def matching_temperature(potential: Potential, point: EquilibriumPoint,
                         hbar: float = 1.0, k_B: float = 1.0) -> MatchingReport:
    """Width-matching inverse temperature at a stable equilibrium.

    Requires positive curvature; maxima and degenerate points admit no
    real matched temperature.
    """
    curvature = float(point.curvature)
    if curvature <= 0.0:
        raise NoRealTemperatureError(
            f"curvature {curvature:g} at q0={point.q0:g} is not positive; "
            "no real matched temperature exists"
        )
    beta = math.sqrt(potential.mass / curvature) / hbar
    return MatchingReport(
        q0=point.q0,
        matched_beta=beta,
        matched_temperature=1.0 / (2.0 * beta * k_B),
        curvature=curvature,
    )


def equilibrium_energy(potentials: Potential | Sequence[Potential],
                       points: EquilibriumPoint | Sequence[EquilibriumPoint],
                       T: float, k_B: float = 1.0,
                       N: int | None = None) -> float:
    """Separable equilibrium energy V(q0_1, .., q0_N) + N k_B T.

    Each coordinate contributes its potential minimum; the reservoir adds
    k_B T per degree of freedom.  At T = 0 only the mechanical minimum
    survives.
    """
    if isinstance(potentials, Potential):
        potentials = [potentials]
    if isinstance(points, EquilibriumPoint):
        points = [points]
    if len(potentials) != len(points):
        raise ValueError("need one equilibrium point per potential")
    n_dof = len(points)
    if N is not None and N != n_dof:
        raise ValueError(f"N={N} does not match the {n_dof} supplied coordinates")
    for pt in points:
        if pt.stability is Stability.MAXIMUM:
            raise ValueError(f"q0={pt.q0:g} is a maximum, not a mechanical equilibrium")
    v0 = sum(float(p.value(pt.q0)) for p, pt in zip(potentials, points))
    return v0 + n_dof * k_B * T


def schrodinger_residual(potential: Potential, ens: CanonicalEnsemble, q):
    """Stationarity defect of the amplitude e^{-beta V} under the Hamiltonian.

    Evaluates (beta hbar^2 / 2m) V'' + V - (beta^2 hbar^2 / 2m) (V')^2
    minus the equilibrium energy at the matched temperature, taken at the
    potential's global minimum.  Quadratic potentials at matched beta
    cancel exactly for every q; other shapes leave a q-dependent residual.
    """
    m = potential.mass
    beta, hbar = ens.beta, ens.hbar
    qa = np.asarray(q, dtype=float)
    v = np.asarray(potential.value(qa), dtype=float)
    dv = np.asarray(potential.derivative(qa), dtype=float)
    d2v = np.asarray(potential.second_derivative(qa), dtype=float)
    lhs = (beta * hbar**2 / (2.0 * m)) * d2v + v - (beta**2 * hbar**2 / (2.0 * m)) * dv**2

    q0 = potential.landscape.minimum.q0
    v0 = float(potential.value(q0))
    curvature = max(float(potential.second_derivative(q0)), 0.0)
    e_ref = v0 + 0.5 * hbar * math.sqrt(curvature / m)
    out = lhs - e_ref
    return float(out) if np.isscalar(q) or np.ndim(q) == 0 else out


def thermo_profile(potential: Potential, ens: CanonicalEnsemble, grid,
                   normalization: str = "paper") -> ThermoProfile:
    """Entropy S = k_B ln(psi^2) and free energy F_G = -T S on a grid.

    With the unnormalized amplitude convention psi^2 = e^{-2 beta V}, the
    free energy equals V(q) pointwise; the normalized convention is the
    equilibrium density exp(-2 beta (V - V_min)) / Z, which shifts S and F_G
    by a q-independent constant.
    """
    if normalization not in ("paper", "normalized"):
        raise ValueError(f"unknown normalization {normalization!r}")
    qs = np.asarray(grid, dtype=float)
    v = np.asarray(potential.value(qs), dtype=float)
    with np.errstate(over="ignore"):  # an overflow is reported below
        psi_sq = (np.exp(-2.0 * ens.beta * v) if normalization == "paper"
                  else equilibrium_density(potential, ens, qs))
    for bad, what in ((psi_sq == 0.0, "underflowed to 0"),
                      (np.isinf(psi_sq), "overflowed")):
        if bad.any():
            raise DomainError(
                f"psi^2 {what} at q={qs[np.argmax(bad)]:g}; entropy undefined there")
    T = ens.temperature
    entropy = ens.k_B * np.log(psi_sq)
    return ThermoProfile(
        q=qs,
        potential=v,
        psi_sq=psi_sq,
        entropy=entropy,
        free_energy=-T * entropy,
        temperature=T,
        normalization=normalization,
    )
