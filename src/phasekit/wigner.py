"""Infinitesimal characteristic function of the canonical phase-space density.

The density F(q, p) = C exp(-2 beta H) has a Gaussian momentum profile, so
its Fourier transform over p at small displacement delta_q has the closed
form

    rho(q, delta_q) = C1 exp(-2 beta V(q)) exp(-m delta_q^2 / (4 beta hbar^2)).

This module evaluates that closed form, cross-checks it against direct
momentum quadrature, verifies the stationary transport identity it
satisfies, and compares against the curvature product form.  Each route
takes q and delta_q that broadcast like numpy arrays, so a whole q x
delta_q grid is one call; scalar arguments give a scalar.

Every density is divided by the normalizer Z of exp(-2 beta (V - V_min)),
V_min being the landscape minimum, so Z stays finite wherever the
normalized density is.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .bohr_sommerfeld import _rules
from .ensemble import CanonicalEnsemble
from .errors import AccuracyError, NormalizationError
from .potentials import Potential, well_box

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

#: Gauss-Hermite nodes of the coarse momentum sum; the fine sum has twice as many
QUADRATURE_ORDER = 48
#: relative difference of the two momentum sums above which the quadrature raises
QUADRATURE_TOLERANCE = 1e-10

def normalization_box(potential: Potential, ens: CanonicalEnsemble) -> tuple[float, float]:
    """Finite interval on which exp(-2 beta V) integrates to the normalizer.

    The `well_box` at the rise of V above V_min where the weight
    exp(-2 beta (V - V_min)) falls to WALL_WEIGHT: one period for a cyclic
    coordinate; on the line both walls weigh at most WALL_WEIGHT and the
    box holds every minimum that weighs more, so no well is missing from Z.
    Densities that never decay (a periodic V on the line, whose wells
    repeat forever, or V unbounded below) raise NormalizationError.
    """
    box = None
    if potential.period is None or potential.periodic_coordinate:
        rise = -math.log(WALL_WEIGHT) / (2.0 * ens.beta)  # where the weight is WALL_WEIGHT
        box = well_box(potential, potential.landscape.v_min + rise)
    if box is None:
        raise NormalizationError(
            f"exp(-2 beta V) does not decay below {WALL_WEIGHT:g} of its peak on any "
            f"finite box for {type(potential).__name__}; the density is not normalizable"
        )
    return box


@lru_cache(maxsize=32)
def _hermgauss(order: int):
    return hermgauss(order)


@lru_cache(maxsize=256)
def _normalizer(potential: Potential, ens: CanonicalEnsemble) -> float:
    """Z = integral of exp(-2 beta (V - V_min)) over the box, by adaptive composite Gauss-Legendre.

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
    lo, hi = normalization_box(potential, ens)
    v_min = potential.landscape.v_min
    nodes, _, _, weights = _rules(PANEL_ORDER, 2.0)  # both rules on [0, 2], end to end
    w_coarse, w_fine = weights[:PANEL_ORDER], weights[PANEL_ORDER:]
    left, width = np.linspace(lo, hi, 17)[:-1], np.full(16, (hi - lo) / 16)
    parent = np.full(16, np.inf)  # relative difference of each panel's parent
    accepted: list[float] = []
    while True:
        q = left[:, None] + 0.5 * width[:, None] * nodes
        with np.errstate(over="ignore"):  # an overflow is caught as a non-finite Z
            f = np.exp(-2.0 * ens.beta * (potential.value(q) - v_min))
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


def equilibrium_density(potential: Potential, ens: CanonicalEnsemble, q):
    """Normalized configuration density exp(-2 beta (V(q) - V_min)) / Z."""
    v = np.asarray(potential.value(q), dtype=float) - potential.landscape.v_min
    return np.exp(-2.0 * ens.beta * v) / _normalizer(potential, ens)


def characteristic_closed_form(ens: CanonicalEnsemble, potential: Potential, q, delta_q):
    """Closed-form value, normalized so the delta_q = 0 slice integrates to 1."""
    dq = np.asarray(delta_q, dtype=float)
    return (equilibrium_density(potential, ens, q)
            * np.exp(-potential.mass * dq**2 / (4.0 * ens.beta * ens.hbar**2)))


def characteristic_quadrature(ens: CanonicalEnsemble, potential: Potential, q, delta_q):
    """Direct momentum quadrature of exp(i p delta_q / hbar) F(q, p).

    The p-profile of F is the Gaussian exp(-beta p^2 / m), so Gauss-Hermite
    nodes under the substitution p = t sqrt(m/beta) integrate it exactly up
    to the oscillatory factor.  The momentum sums depend on delta_q alone and
    are taken once per delta_q, each along its own node axis, so a grid call
    gives the bits of point calls.  Doubling QUADRATURE_ORDER estimates the
    truncation error; the worst estimate above QUADRATURE_TOLERANCE
    (relative) raises AccuracyError.
    """
    m, beta = potential.mass, ens.beta
    scale = math.sqrt(m / beta)

    def p_integral(n: int):
        t, w = _hermgauss(n)
        phase = t * wavenumber
        return scale * (np.sum(w * np.cos(phase), axis=-1)
                        + 1j * np.sum(w * np.sin(phase), axis=-1))

    # an overflowing wavenumber makes NaN sums, which fail the gate below
    with np.errstate(over="ignore", invalid="ignore"):
        wavenumber = scale * np.asarray(delta_q, dtype=float)[..., None] / ens.hbar
        coarse = p_integral(QUADRATURE_ORDER)
        fine = p_integral(2 * QUADRATURE_ORDER)
    estimate = float(np.max(np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)))
    if not estimate <= QUADRATURE_TOLERANCE:  # a NaN fails
        raise AccuracyError(
            f"momentum quadrature did not converge at order {2 * QUADRATURE_ORDER}",
            estimate=estimate,
        )
    return equilibrium_density(potential, ens, q) * fine / math.sqrt(math.pi * m / beta)


def pde_residual(ens: CanonicalEnsemble, potential: Potential, q, delta_q):
    """Residual of the stationary transport identity at (q, delta_q).

    Evaluates -(hbar^2/m) d^2 rho / dq d(delta_q) + V'(q) delta_q rho with
    the mixed derivative taken analytically from the closed form.  The
    closed form solves the identity, so the residual is rounding-level.
    """
    m = potential.mass
    beta, hbar = ens.beta, ens.hbar
    dq = np.asarray(delta_q, dtype=float)
    rho = characteristic_closed_form(ens, potential, q, dq)
    dv = np.asarray(potential.derivative(q), dtype=float)
    # d rho/d(delta_q) = -(m delta_q / (2 beta hbar^2)) rho;
    # another d/dq brings down -2 beta V'
    mixed = (-2.0 * beta * dv) * (-m * dq / (2.0 * beta * hbar**2)) * rho
    return -(hbar**2 / m) * mixed + dv * dq * rho


def product_form_characteristic(ens: CanonicalEnsemble, potential: Potential, q, delta_q):
    """Curvature product form exp(-2 beta [V - V_min + (1/8) delta_q^2 V'']) / Z.

    Shares the closed form's normalizer, so the two routes coincide at
    delta_q = 0; they agree at second order in delta_q exactly when
    beta^2 hbar^2 V'' = m.
    """
    v = np.asarray(potential.value(q), dtype=float) - potential.landscape.v_min
    v2 = np.asarray(potential.second_derivative(q), dtype=float)
    dq = np.asarray(delta_q, dtype=float)
    return np.exp(-2.0 * ens.beta * (v + 0.125 * dq**2 * v2)) / _normalizer(potential, ens)
