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

from .bohr_sommerfeld import _leggauss
from .ensemble import CanonicalEnsemble
from .errors import AccuracyError, NormalizationError
from .potentials import Potential, Stability

#: relative weight below which a box wall, or a minimum left outside the box, is negligible
WALL_WEIGHT = 1e-12

#: Gauss-Legendre nodes of a normalizer panel's coarse sum; its fine sum has twice as many
PANEL_ORDER = 16
#: relative accuracy of Z the normalizer's panel rule certifies
NORMALIZER_TOLERANCE = 1e-13
#: the panel rule gives up once it would split the box into more panels than this
MAX_PANELS = 4096
#: the largest relative difference of a panel's sums that may be rounding in exp(-2 beta V)
ROUNDING_FLOOR = 1e-10

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
    grows from the landscape's global minimum until the weight
    exp(-2 beta (V - V_min)) is at most WALL_WEIGHT at both walls and the
    box holds every landscape minimum whose weight exceeds WALL_WEIGHT.
    Densities that never decay (a periodic V on the line, V unbounded below)
    raise NormalizationError.
    """
    if potential.periodic_coordinate:
        return (0.0, potential.period)

    land = potential.landscape
    center = land.minimum.q0
    # the rise of V above its minimum at which exp(-2 beta V) falls to WALL_WEIGHT of its peak
    rise = -math.log(WALL_WEIGHT) / (2.0 * ens.beta)
    # a well the box left out would be missing from Z, not merely clipped
    heavy = [pt.q0 for pt in land.equilibria if pt.stability is not Stability.MAXIMUM
             and float(potential.value(pt.q0)) - land.v_min < rise] + [center]

    half = 1.0
    # a periodic V repeats its wells forever, so no box holds them all; a
    # steep wall that overflows to inf at a wide half weighs nothing
    with np.errstate(over="ignore"):
        for _ in range(60 if potential.period is None else 0):
            lo, hi = center - half, center + half
            if (min(float(potential.value(lo)), float(potential.value(hi))) - land.v_min >= rise
                    and lo < min(heavy) and max(heavy) < hi):
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
    """Z = integral of exp(-2 beta V) over the box, by adaptive composite Gauss-Legendre.

    The box starts as 16 equal panels.  Each pass takes a PANEL_ORDER-node
    and a 2 PANEL_ORDER-node sum on every live panel, in one call of V.  A
    panel is accepted with its fine sum once the two sums agree within
    NORMALIZER_TOLERANCE times the mean of that sum and the panel's width
    share of Z, Z being the running estimate, so the accepted error adds up
    to at most NORMALIZER_TOLERANCE * Z; the other panels are halved.  A
    halved panel whose relative difference is at most ROUNDING_FLOOR and
    at least half its parent's has reached the rounding floor of the
    integrand (a resolved panel gains far more than a factor 2 from a
    halving) and is accepted too.  A split past MAX_PANELS raises
    AccuracyError.
    """
    lo, hi = normalization_box(potential, ens) if box is None else box
    (t_coarse, w_coarse), (t_fine, w_fine) = _leggauss(PANEL_ORDER), _leggauss(2 * PANEL_ORDER)
    nodes = np.concatenate([t_coarse, t_fine]) + 1.0
    left, width = np.linspace(lo, hi, 17)[:-1], np.full(16, (hi - lo) / 16)
    parent = np.full(16, np.inf)  # relative difference of each panel's parent
    accepted: list[float] = []
    while True:
        q = left[:, None] + 0.5 * width[:, None] * nodes
        with np.errstate(over="ignore"):  # an overflow is caught as a non-finite Z
            f = np.exp(-2.0 * ens.beta * potential.value(q))
        coarse = 0.5 * width * (f[:, :PANEL_ORDER] @ w_coarse)
        fine = 0.5 * width * (f[:, PANEL_ORDER:] @ w_fine)
        z = math.fsum(accepted) + float(np.sum(fine))
        if not math.isfinite(z):
            raise NormalizationError(f"normalizer integral came out {z!r}")
        error = np.abs(fine - coarse)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = error / fine
        done = ((error <= 0.5 * NORMALIZER_TOLERANCE * (fine + z * width / (hi - lo)))
                | ((rel <= ROUNDING_FLOOR) & (rel >= 0.5 * parent)))
        accepted += fine[done].tolist()
        if done.all():
            break
        left, width, parent = left[~done], 0.5 * width[~done], np.tile(rel[~done], 2)
        if len(accepted) + 2 * len(left) > MAX_PANELS:
            raise AccuracyError(f"normalizer not converged on {MAX_PANELS} panels",
                                estimate=float(np.sum(error[~done]) / z))
        left, width = np.concatenate([left, left + width]), np.concatenate([width, width])
    z = math.fsum(accepted)
    if not z > 0.0:
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
