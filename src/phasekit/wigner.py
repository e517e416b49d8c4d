"""Infinitesimal characteristic function of the canonical phase-space density.

The density F(q, p) = C exp(-2 beta H) has a Gaussian momentum profile, so
its Fourier transform over p at small displacement delta_q has the closed
form

    rho(q, delta_q) = C1 exp(-2 beta V(q)) exp(-m delta_q^2 / (4 beta hbar^2)).

This module evaluates that closed form, cross-checks it against direct
momentum quadrature, verifies the stationary transport identity it
satisfies, compares against the curvature product form, and checks the
factorization of F built from phase-space amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

from .ensemble import CanonicalEnsemble
from .errors import AccuracyError, NormalizationError
from .potentials import Potential

#: relative wall weight below which the normalization box is accepted
WALL_WEIGHT = 1e-12

#: displacements larger than this multiple of sqrt(beta hbar^2 / m) are no
#: longer "infinitesimal" for the second-order expansions
INFINITESIMAL_FACTOR = 0.2


@dataclass(frozen=True)
class CharacteristicSample:
    q: float
    delta_q: float
    value: complex


def infinitesimal_scale(ens: CanonicalEnsemble, mass: float) -> float:
    """Largest displacement still treated as infinitesimal."""
    return INFINITESIMAL_FACTOR * math.sqrt(ens.beta * ens.hbar**2 / mass)


def normalization_box(potential: Potential, ens: CanonicalEnsemble) -> tuple[float, float]:
    """Finite interval on which exp(-2 beta V) integrates to the normalizer.

    Periodic-coordinate potentials use one period.  On the line the box
    grows from the global minimum until the wall weight relative to the
    peak falls below WALL_WEIGHT on both sides; densities that never decay
    (periodic V on the line, V unbounded below) raise NormalizationError.
    """
    if potential.periodic_coordinate:
        return (0.0, potential.period)

    beta = ens.beta
    center = potential.landscape.minimum.q0

    half = 1.0
    for _ in range(60):
        lo, hi = center - half, center + half
        vmin = float(np.min(potential.value(np.linspace(lo, hi, 4097))))
        w_lo = math.exp(-2.0 * beta * (float(potential.value(lo)) - vmin))
        w_hi = math.exp(-2.0 * beta * (float(potential.value(hi)) - vmin))
        if w_lo <= WALL_WEIGHT and w_hi <= WALL_WEIGHT:
            return (lo, hi)
        half *= 2.0
    raise NormalizationError(
        f"exp(-2 beta V) does not decay below {WALL_WEIGHT:g} of its peak on any "
        f"finite box for {type(potential).__name__}; the density is not normalizable"
    )


@lru_cache(maxsize=32)
def _hermgauss(order: int):
    return hermgauss(order)


@lru_cache(maxsize=256)
def _normalizer(potential: Potential, ens: CanonicalEnsemble, box: tuple | None) -> float:
    lo, hi = normalization_box(potential, ens) if box is None else box
    beta = ens.beta
    z, _ = quad(lambda q: math.exp(-2.0 * beta * float(potential.value(q))), lo, hi,
                epsabs=0.0, epsrel=1e-12, limit=200)
    if not (z > 0.0 and math.isfinite(z)):
        raise NormalizationError(f"normalizer integral came out {z!r}")
    return z


def equilibrium_density(potential: Potential, ens: CanonicalEnsemble, q,
                        box: tuple[float, float] | None = None):
    """Normalized configuration density exp(-2 beta V(q)) / Z."""
    z = _normalizer(potential, ens, box)
    return np.exp(-2.0 * ens.beta * np.asarray(potential.value(q), dtype=float)) / z


def characteristic_closed_form(ens: CanonicalEnsemble, potential: Potential,
                               q: float, delta_q: float,
                               box: tuple[float, float] | None = None) -> CharacteristicSample:
    """Closed-form value, normalized so the delta_q = 0 slice integrates to 1."""
    z = _normalizer(potential, ens, box)
    m = potential.mass
    beta, hbar = ens.beta, ens.hbar
    value = (math.exp(-2.0 * beta * float(potential.value(q)))
             * math.exp(-m * delta_q**2 / (4.0 * beta * hbar**2)) / z)
    return CharacteristicSample(q=float(q), delta_q=float(delta_q), value=complex(value))


def characteristic_quadrature(ens: CanonicalEnsemble, potential: Potential,
                              q: float, delta_q: float,
                              box: tuple[float, float] | None = None,
                              order: int = 48,
                              tolerance: float = 1e-10) -> CharacteristicSample:
    """Direct momentum quadrature of exp(i p delta_q / hbar) F(q, p).

    The p-profile of F is the Gaussian exp(-beta p^2 / m), so Gauss-Hermite
    nodes under the substitution p = t sqrt(m/beta) integrate it exactly up
    to the oscillatory factor.  Doubling the order estimates the truncation
    error; an estimate above `tolerance` (relative) raises AccuracyError.
    """
    m = potential.mass
    beta, hbar = ens.beta, ens.hbar
    scale = math.sqrt(m / beta)

    def p_integral(n: int) -> complex:
        t, w = _hermgauss(n)
        phase = t * (scale * delta_q / hbar)
        return scale * complex(np.sum(w * np.cos(phase)), np.sum(w * np.sin(phase)))

    coarse = p_integral(order)
    fine = p_integral(2 * order)
    estimate = abs(fine - coarse) / max(abs(fine), 1e-300)
    if estimate > tolerance:
        raise AccuracyError(
            f"momentum quadrature did not converge at order {2 * order}",
            estimate=estimate,
        )

    z = _normalizer(potential, ens, box)
    c = 1.0 / (math.sqrt(math.pi * m / beta) * z)
    value = c * math.exp(-2.0 * beta * float(potential.value(q))) * fine
    return CharacteristicSample(q=float(q), delta_q=float(delta_q), value=value)


def pde_residual(ens: CanonicalEnsemble, potential: Potential,
                 q: float, delta_q: float,
                 box: tuple[float, float] | None = None) -> float:
    """Residual of the stationary transport identity at (q, delta_q).

    Evaluates -(hbar^2/m) d^2 rho / dq d(delta_q) + V'(q) delta_q rho with
    the mixed derivative taken analytically from the closed form.  The
    closed form solves the identity, so the residual is rounding-level.
    """
    m = potential.mass
    beta, hbar = ens.beta, ens.hbar
    rho = characteristic_closed_form(ens, potential, q, delta_q, box=box).value.real
    dv = float(potential.derivative(q))
    # d rho/d(delta_q) = -(m delta_q / (2 beta hbar^2)) rho;
    # another d/dq brings down -2 beta V'
    mixed = (-2.0 * beta * dv) * (-m * delta_q / (2.0 * beta * hbar**2)) * rho
    return -(hbar**2 / m) * mixed + dv * delta_q * rho


def product_form_characteristic(ens: CanonicalEnsemble, potential: Potential,
                                q: float, delta_q: float,
                                box: tuple[float, float] | None = None) -> CharacteristicSample:
    """Curvature product form exp(-2 beta [V + (1/8) delta_q^2 V'']) / Z.

    Shares the closed form's normalizer, so the two routes coincide at
    delta_q = 0; they agree at second order in delta_q exactly when
    beta^2 hbar^2 V'' = m.
    """
    z = _normalizer(potential, ens, box)
    beta = ens.beta
    v = float(potential.value(q))
    v2 = float(potential.second_derivative(q))
    value = math.exp(-2.0 * beta * (v + 0.125 * delta_q**2 * v2)) / z
    return CharacteristicSample(q=float(q), delta_q=float(delta_q), value=complex(value))


@dataclass(frozen=True)
class PhaseSpaceAmplitudeSpec:
    """Separable phase-space amplitude phi(q, p) = g(q) h(p).

    Both profiles must decay inside the truncation window |p| <= p_max;
    `n_p` trapezoid points resolve the momentum integrals.
    """

    g: Callable
    h: Callable
    p_max: float = 12.0
    n_p: int = 1025


def gaussian_amplitude(sigma_p: float = 1.0) -> PhaseSpaceAmplitudeSpec:
    return PhaseSpaceAmplitudeSpec(
        g=lambda q: np.exp(-np.asarray(q, dtype=float) ** 2 / 2.0),
        h=lambda p: np.exp(-np.asarray(p, dtype=float) ** 2 / (2.0 * sigma_p**2)),
    )


@dataclass(frozen=True)
class FactorizationCheck:
    lhs: complex
    rhs: complex
    ratio: complex


def amplitude_factorization_check(amp: PhaseSpaceAmplitudeSpec, ens: CanonicalEnsemble,
                                  q: float, delta_q: float) -> FactorizationCheck:
    """Compare the two routes from phi to the characteristic function.

    lhs builds F(q, p) = int conj(phi)(q, 2p - p') phi(q, p') dp' and then
    Fourier transforms over p; rhs multiplies the two half-argument
    transforms int exp(i p delta_q / 2 hbar) phi dp.  The convolution
    theorem makes their ratio a delta_q-independent constant.
    """
    hbar = ens.hbar
    p = np.linspace(-amp.p_max, amp.p_max, amp.n_p)
    dp = p[1] - p[0]
    h = np.asarray(amp.h(p), dtype=complex)
    g = complex(amp.g(q))

    tail = max(abs(h[0]), abs(h[-1]))
    peak = float(np.max(np.abs(h)))
    if peak == 0.0 or tail > 1e-12 * peak:
        raise AccuracyError(
            "momentum profile does not decay inside the truncation window",
            estimate=tail / peak if peak else math.inf,
        )

    # f(q, p; p') integrated over p' for every p on the grid
    h_mirror = np.asarray(amp.h(2.0 * p[:, None] - p[None, :]), dtype=complex)
    f_of_p = np.trapezoid(np.conj(h_mirror) * h[None, :], dx=dp, axis=1)
    lhs = abs(g) ** 2 * complex(np.trapezoid(np.exp(1j * p * delta_q / hbar) * f_of_p, dx=dp))

    half_kernel = np.exp(1j * p * delta_q / (2.0 * hbar))
    psi = g * complex(np.trapezoid(half_kernel * h, dx=dp))
    psi_dag = np.conj(g) * complex(np.trapezoid(half_kernel * np.conj(h), dx=dp))
    rhs = psi_dag * psi

    if rhs == 0:
        raise AccuracyError("half-argument transform vanished; ratio undefined")
    return FactorizationCheck(lhs=lhs, rhs=rhs, ratio=lhs / rhs)
