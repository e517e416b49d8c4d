"""Action quantization: on-shell momentum, turning points, and level search.

Librations (two turning points) quantize the loop action as (n + 1/2) h;
rotations (cyclic coordinate, energy above the potential's crest) use n h.
The action integral regularizes the square-root turning-point singularity
with a cosine substitution so fixed-order Gauss-Legendre converges fast.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AccuracyError,
    BracketError,
    ForbiddenRegionError,
    SeparatrixError,
)
from .potentials import Potential
from .schrodinger import EigenSolution

#: |E - crest| below this (relative) is treated as a separatrix energy
SEPARATRIX_TOL = 1e-9


class MotionKind(enum.Enum):
    LIBRATION = "libration"
    ROTATION = "rotation"


@dataclass(frozen=True)
class MotionClass:
    kind: MotionKind
    period_length: float | None = None


@dataclass(frozen=True)
class ActionProfile:
    energy: float
    action: float
    dJ_dE: float | None = None


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    energy: float
    oracle_energy: float | None = None
    relative_error: float | None = None


@dataclass(frozen=True)
class SpectrumResult:
    motion: MotionClass
    levels: tuple


def on_shell_momentum(potential: Potential, E: float, q):
    """Positive momentum branch sqrt(2m(E - V(q)))."""
    v = np.asarray(potential.value(q), dtype=float)
    gap = E - v
    if np.any(gap < 0):
        q_bad = np.asarray(q, dtype=float).reshape(-1)[np.argmax(np.atleast_1d(gap) < 0)]
        raise ForbiddenRegionError(
            f"E={E:g} < V({float(q_bad):g}); no real momentum in the forbidden region"
        )
    p = np.sqrt(2.0 * potential.mass * gap)
    return float(p) if np.ndim(q) == 0 else p


def _cross(potential: Potential, E: float, inside: float, outside: float) -> float:
    """Bisect V(q) = E between a classically allowed and a forbidden point."""
    lo, hi = inside, outside
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(potential.value(mid)) <= E:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) <= 1e-15 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def turning_points(potential: Potential, E: float) -> tuple[float, float] | None:
    """Pair (a, b) with V(a) = V(b) = E around the global minimum, or None.

    Returns None when the motion is unbounded on either side (rotation or
    escape).  E below the potential minimum has no classical motion.
    """
    land = potential.landscape
    q0, v_min = land.minimum.q0, land.v_min
    if E < v_min:
        raise ForbiddenRegionError(f"E={E:g} below the potential minimum {v_min:g}")
    if E == v_min:
        return (q0, q0)

    extrema = [pt.q0 for pt in land.equilibria]

    def outward(direction: float) -> float | None:
        # V is monotone between adjacent equilibria, so walking them in
        # order can never step over a thin barrier
        q = q0
        ahead = [x for x in extrema if direction * (x - q0) > 1e-9]
        if direction < 0:
            ahead = ahead[::-1]
        if potential.period is not None:
            half = q0 + direction * 0.5 * potential.period
            ahead = [x for x in ahead if direction * (x - half) <= 1e-9] + [half]
        for x in ahead:
            if float(potential.value(x)) > E:
                return _cross(potential, E, q, x)
            q = x
        if potential.period is not None:
            # a periodic orbit that clears every crest in the cell rotates
            return None
        step = 1e-3
        for _ in range(80):
            q_next = q + direction * step
            if float(potential.value(q_next)) > E:
                return _cross(potential, E, q, q_next)
            q = q_next
            step *= 2.0
        return None

    b = outward(+1.0)
    a = outward(-1.0)
    if a is None or b is None:
        return None
    return (a, b)


def classify_motion(potential: Potential, E: float) -> MotionClass:
    """Libration when turning points exist; rotation above a periodic crest."""
    if potential.period is not None:
        crest, v_min = potential.landscape.crest, potential.landscape.v_min
        if crest > v_min and abs(E - crest) <= SEPARATRIX_TOL * max(1.0, abs(crest)):
            raise SeparatrixError(
                f"E={E:g} sits on the crest {crest:g}; the orbit period diverges"
            )
        if E >= crest:
            # a flat periodic potential has no crest to cross: all E rotate
            return MotionClass(kind=MotionKind.ROTATION, period_length=potential.period)
    pair = turning_points(potential, E)
    if pair is not None:
        return MotionClass(kind=MotionKind.LIBRATION)
    if potential.period is not None:
        return MotionClass(kind=MotionKind.ROTATION, period_length=potential.period)
    raise ForbiddenRegionError(
        f"E={E:g} gives unbounded non-periodic motion; no closed orbit to quantize"
    )


@lru_cache(maxsize=16)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gauss_legendre(f, lo: float, hi: float, order: int) -> float:
    t, w = _leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return half * float(np.sum(w * f(mid + half * t)))


def action(potential: Potential, E: float,
           motion: MotionClass | None = None,
           order: int = 128,
           with_period: bool = False) -> ActionProfile:
    """Loop action J(E) = closed integral of p dq over one period.

    Librations substitute q = c + r cos(theta), which absorbs the
    square-root endpoint singularity; rotations integrate p over one
    coordinate period directly.  Doubling the quadrature order bounds the
    truncation error; disagreement beyond 1e-8 relative raises
    AccuracyError.  `with_period` adds the finite-difference dJ/dE.
    """
    if motion is None:
        motion = classify_motion(potential, E)
    m = potential.mass

    def j_of(e: float, n: int) -> float:
        if motion.kind is MotionKind.LIBRATION:
            pair = turning_points(potential, e)
            if pair is None:
                raise ForbiddenRegionError(f"E={e:g} has no libration turning points")
            a, b = pair
            c, r = 0.5 * (a + b), 0.5 * (b - a)
            if r == 0.0:
                return 0.0

            def integrand(theta):
                q = c + r * np.cos(theta)
                gap = np.maximum(e - np.asarray(potential.value(q), dtype=float), 0.0)
                return np.sqrt(2.0 * m * gap) * r * np.sin(theta)

            return 2.0 * _gauss_legendre(integrand, 0.0, math.pi, n)

        length = motion.period_length or potential.period

        def integrand(q):
            gap = np.maximum(e - np.asarray(potential.value(q), dtype=float), 0.0)
            return np.sqrt(2.0 * m * gap)

        return _gauss_legendre(integrand, 0.0, length, n)

    j = j_of(E, 2 * order)
    estimate = abs(j - j_of(E, order))
    if estimate > 1e-8 * max(abs(j), 1.0):
        raise AccuracyError(
            f"action quadrature not converged at order {2 * order}", estimate=estimate
        )

    dj = None
    if with_period:
        delta = 1e-6 * (abs(E) + 1.0)
        dj = (j_of(E + delta, 2 * order) - j_of(E - delta, 2 * order)) / (2.0 * delta)
    return ActionProfile(energy=E, action=j, dJ_dE=dj)


def _target_action(n: int, motion: MotionClass, hbar: float) -> float:
    h = 2.0 * math.pi * hbar
    if motion.kind is MotionKind.LIBRATION:
        return (n + 0.5) * h
    return n * h


def _oracle_level(oracle: EigenSolution, n: int, motion: MotionClass) -> float | None:
    if motion.kind is MotionKind.ROTATION and oracle.boundary == "periodic":
        # periodic spectra pair +-n degenerate levels after the ground state
        idx = 0 if n == 0 else 2 * n - 1
    else:
        idx = n
    if idx >= len(oracle.eigenvalues):
        return None
    return float(oracle.eigenvalues[idx])


def quantize(potential: Potential, n_range, hbar: float = 1.0,
             motion: MotionClass | None = None,
             oracle: EigenSolution | None = None,
             order: int = 128) -> SpectrumResult:
    """Solve J(E) = target(n) for each requested level by bisection.

    The search bracket starts at the bottom of the classically allowed
    band and doubles its width until J exceeds the target; monotonicity of
    J on the bracket is spot-checked by sampling.  Failure to bracket
    (e.g. levels beyond a dissociation threshold) raises BracketError
    naming the level.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns or ns[0] < 0:
        raise ValueError("levels must be a non-empty set of n >= 0")

    land = potential.landscape
    if motion is None:
        # classify at a probe energy: crest + margin for periodic coords,
        # slightly above the minimum otherwise
        probe = land.crest + 1.0 if potential.periodic_coordinate else land.v_min + 1e-3
        motion = classify_motion(potential, probe)

    e_lo = land.v_min if motion.kind is MotionKind.LIBRATION else land.crest
    if e_lo is None:
        raise ValueError("rotation quantization needs a periodic potential")

    h_quantum = 2.0 * math.pi * hbar
    tol_j = 1e-10 * h_quantum

    def j_at(e: float) -> float:
        return action(potential, e, motion=motion, order=order).action

    def j_floor() -> float:
        # loop action at the bottom of the band; evaluated without the
        # accuracy gate because a crest kink slows the quadrature there
        if motion.kind is MotionKind.LIBRATION:
            return 0.0
        length = motion.period_length or potential.period
        m = potential.mass

        def integrand(q):
            gap = np.maximum(e_lo - np.asarray(potential.value(q), dtype=float), 0.0)
            return np.sqrt(2.0 * m * gap)

        return _gauss_legendre(integrand, 0.0, length, 512)

    levels = []
    for n in ns:
        target = _target_action(n, motion, hbar)
        j_lo = j_floor()
        if target < j_lo - tol_j:
            raise BracketError(
                f"level n={n}: target action {target:g} below the minimum loop action "
                f"{j_lo:g}; no such rotation state"
            )
        if abs(target - j_lo) <= tol_j:
            e_n = e_lo
        else:
            width = max(abs(e_lo), 1.0) * 1e-3
            hi = e_lo + width
            last_closed = e_lo
            lo = e_lo
            grown = False
            for _ in range(80):
                try:
                    j_hi = j_at(hi)
                except ForbiddenRegionError:
                    # the orbit opened up between last_closed and hi; walk
                    # back toward the escape energy, keeping the highest
                    # energy whose action quadrature still certifies, and
                    # see whether the bounded action reaches the target
                    lo_e, hi_e = last_closed, hi
                    best = None
                    for _ in range(80):
                        mid = 0.5 * (lo_e + hi_e)
                        try:
                            j_mid = j_at(mid)
                        except (ForbiddenRegionError, AccuracyError):
                            hi_e = mid
                        else:
                            best = (mid, j_mid)
                            lo_e = mid
                            if j_mid >= target:
                                break
                    if best is None or best[1] < target - tol_j:
                        reach = best[1] if best is not None else j_at(last_closed)
                        raise BracketError(
                            f"level n={n}: the certified bound-orbit action only "
                            f"reaches {reach:g} below the escape energy, short of "
                            f"the target {target:g}"
                        )
                    hi = best[0]
                    grown = True
                    break
                except AccuracyError:
                    # a kink at the band bottom defeats the quadrature gate
                    # just above e_lo; certified energies start further up
                    width *= 2.0
                    hi = e_lo + width
                    continue
                if j_hi >= target:
                    grown = True
                    break
                last_closed = hi
                lo = hi
                width *= 2.0
                hi = e_lo + width
            if not grown:
                raise BracketError(f"level n={n}: bracket growth exhausted before J reached {target:g}")

            lo_probe = lo if lo > e_lo else e_lo + 1e-12 * max(1.0, abs(e_lo))
            samples = [j_at(e) for e in np.linspace(lo_probe, hi, 7)]
            if any(b < a - tol_j for a, b in zip(samples, samples[1:])):
                raise BracketError(f"level n={n}: J(E) is not monotone on the search bracket")

            for _ in range(200):
                mid = 0.5 * (lo + hi)
                j_mid = j_at(mid)
                if abs(j_mid - target) <= tol_j:
                    lo = hi = mid
                    break
                if j_mid < target:
                    lo = mid
                else:
                    hi = mid
            e_n = 0.5 * (lo + hi)

        oracle_e = _oracle_level(oracle, n, motion) if oracle is not None else None
        rel = None
        if oracle_e is not None:
            rel = (e_n - oracle_e) / max(abs(oracle_e), 1e-300)
        levels.append(SpectrumLevel(n=n, energy=e_n, oracle_energy=oracle_e, relative_error=rel))

    return SpectrumResult(motion=motion, levels=tuple(levels))
