"""Action quantization: turning points, the loop action and level search.

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
from .potentials import Potential, _solve
from .schrodinger import EigenSolution

#: |E - crest| below this (relative) is treated as a separatrix energy
SEPARATRIX_TOL = 1e-9
#: Gauss-Legendre order of a certified J(E), checked against twice this order
ORDER = 128


class MotionKind(enum.Enum):
    LIBRATION = "libration"
    ROTATION = "rotation"


@dataclass(frozen=True)
class ActionProfile:
    energy: float
    action: float
    #: the classical period T(E); None at the bottom of a well
    dJ_dE: float | None


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    energy: float
    oracle_energy: float | None = None
    relative_error: float | None = None
    #: certified J(E) and period T(E) of the level's final iterate
    action: float | None = None
    period: float | None = None


@dataclass(frozen=True)
class SpectrumResult:
    motion: MotionKind
    levels: tuple


def _cross(potential: Potential, E: float, inside: float, outside: float) -> float:
    """Solve V(q) = E between an allowed point (V <= E) and a forbidden one (V > E)."""
    return _solve(potential.value, potential.derivative, E, inside, outside)


def turning_points(potential: Potential, E: float) -> tuple[float, float] | None:
    """Pair (a, b) with V(a) = V(b) = E around the global minimum, or None.

    Returns None when the motion is unbounded on either side (rotation or
    escape).  E below the potential minimum has no classical motion.  Each
    side brackets its crossing between the first stop of its walk
    (`Landscape.walks`) with V > E and the stop before it.
    """
    land = potential.landscape
    q0, v_min = land.minimum.q0, land.v_min
    if E < v_min:
        raise ForbiddenRegionError(f"E={E:g} below the potential minimum {v_min:g}")
    if E == v_min:
        return (q0, q0)

    # a periodic orbit that clears every crest in the cell rotates
    b, a = (_wall(potential, walk, E) for walk in land.walks)
    return None if a is None or b is None else (a, b)


def _wall(potential: Potential, walk, E: float) -> float | None:
    """The first crossing of V = E along a walk's (stops, peaks) (`Landscape.walks`), or
    None where V stays at or below E."""
    stops, peaks = walk
    i = peaks.searchsorted(E, side="right")
    if i == len(peaks):
        return None
    return _cross(potential, E, float(stops[i]), float(stops[i + 1]))


def classify_motion(potential: Potential, E: float) -> MotionKind:
    """Libration when turning points exist; rotation above a periodic crest."""
    if potential.period is not None:
        crest, v_min = potential.landscape.crest, potential.landscape.v_min
        if crest > v_min and abs(E - crest) <= SEPARATRIX_TOL * max(1.0, abs(crest)):
            raise SeparatrixError(
                f"E={E:g} sits on the crest {crest:g}; the orbit period diverges"
            )
        if E >= crest:
            # a flat periodic potential has no crest to cross: all E rotate
            return MotionKind.ROTATION
    pair = turning_points(potential, E)
    if pair is not None:
        return MotionKind.LIBRATION
    if potential.period is not None:
        return MotionKind.ROTATION
    raise ForbiddenRegionError(
        f"E={E:g} gives unbounded non-periodic motion; no closed orbit to quantize"
    )


@lru_cache(maxsize=16)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=16)
def _rules(order: int, span: float):
    """Nodes x, cos x, sin x and weights of the `order` and `2 order` Gauss-Legendre rules
    on [0, span], laid end to end and read-only: every caller shares them."""
    t, w = (np.concatenate(pair) for pair in zip(_leggauss(order), _leggauss(2 * order)))
    x = 0.5 * span * (t + 1.0)
    tables = x, np.cos(x), np.sin(x), 0.5 * span * w
    for table in tables:
        table.flags.writeable = False
    return tables


def _integrals(potential: Potential, E: float, q, dq, order: int) -> tuple:
    """Integrals of p dq at `order` and `2 order`, and of m dq / p at `2 order`, on nodes q
    and weights dq laid out as `_rules` lays them, at energy E: one V call.

    A node with p = 0 (a rotation at the crest of a flat potential) makes m dq / p infinite.
    """
    m = potential.mass
    gap = np.maximum(E - np.asarray(potential.value(q), dtype=float), 0.0)
    p = np.sqrt(2.0 * m * gap)
    wp = dq * p
    with np.errstate(divide="ignore"):
        return (float(wp[:order].sum()), float(wp[order:].sum()),
                m * float((dq[order:] / p[order:]).sum()))


def _loop_integrals(potential: Potential, E: float, motion: MotionKind,
                    order: int) -> tuple[float, float, float | None]:
    """J(E) at `order` and `2 order`, and the period T(E) at `2 order`, on one orbit.

    Librations substitute q = c + r cos(theta) between the turning points, so
    J's integrand p r sin(theta) is smooth and T's, m r sin(theta) / p, stays
    finite at both ends.  Rotations integrate over one coordinate period.
    Both rules share one V call on their joined nodes (`_integrals`).  T is None
    where the orbit is the bottom of the well.
    """
    libration = motion is MotionKind.LIBRATION
    if libration:
        pair = turning_points(potential, E)
        if pair is None:
            raise ForbiddenRegionError(f"E={E:g} has no libration turning points")
        c, r = 0.5 * (pair[0] + pair[1]), 0.5 * (pair[1] - pair[0])
        if r == 0.0:
            return 0.0, 0.0, None
    q, cos, sin, w = _rules(order, math.pi if libration else potential.period)
    if libration:
        q, w = c + r * cos, 2.0 * r * sin * w
    return _integrals(potential, E, q, w, order)


def action(potential: Potential, E: float,
           motion: MotionKind | None = None) -> ActionProfile:
    """Loop action J(E) = closed integral of p dq over one period.

    Librations substitute q = c + r cos(theta), which absorbs the
    square-root endpoint singularity; rotations integrate p over one
    coordinate period directly.  Doubling the quadrature order bounds the
    truncation error; disagreement beyond 1e-8 relative raises
    AccuracyError.  dJ/dE, the classical period T(E) = closed integral of
    m / p dq, comes from the same quadrature at the doubled order (None at
    the bottom of a well).
    """
    if motion is None:
        motion = classify_motion(potential, E)
    j_coarse, j, period = _loop_integrals(potential, E, motion, ORDER)
    estimate = abs(j - j_coarse)
    if not estimate <= 1e-8 * max(abs(j), 1.0):  # a NaN fails
        raise AccuracyError(
            f"action quadrature not converged at order {2 * ORDER}", estimate=estimate
        )
    return ActionProfile(energy=E, action=j, dJ_dE=period)


def _target_action(n: int, motion: MotionKind, hbar: float) -> float:
    h = 2.0 * math.pi * hbar
    if motion is MotionKind.LIBRATION:
        return (n + 0.5) * h
    return n * h


def _oracle_level(oracle: EigenSolution, n: int, motion: MotionKind,
                  potential: Potential, E: float) -> float | None:
    """The oracle energy paired with level n at energy E, or None.

    A libration level counts the computed states, in energy order, by their
    probability in its well, out to the crests beyond its turning points: a
    state of this well counts one, a state of another well none, and each
    state of a tunnelling pair split over two mirror wells a half.  Level n
    pairs with the state at which the count first exceeds n + 1/4.
    """
    if motion is MotionKind.LIBRATION:
        a, b = turning_points(potential, E)
        q, order = oracle.grid, slice(None)
        if oracle.boundary == "periodic":  # the grid's image in a cell centred on the well
            length = oracle.box[1] - oracle.box[0]
            start = 0.5 * (a + b - length)
            q = start + np.mod(q - start, length)
            order = np.argsort(q)
            q = q[order]
        v = potential.value(q)
        lo, hi = np.searchsorted(q, a), np.searchsorted(q, b, side="right")
        # V rises from each turning point to the crest beyond it
        falls = np.flatnonzero(np.diff(v[max(hi - 1, 0):]) < 0)
        right = max(hi - 1, 0) + falls[0] if len(falls) else len(q) - 1
        rises = np.flatnonzero(np.diff(v[:lo + 1]) > 0)
        left = rises[-1] + 1 if len(rises) else 0
        psi = oracle.eigenvectors[order][left:right + 1]
        count = np.cumsum(np.sum(psi ** 2, axis=0) * oracle.spacing)
        passed = np.flatnonzero(count > n + 0.25)
        if not len(passed):
            return None
        idx = passed[0]
    elif oracle.boundary == "periodic":
        # periodic spectra pair +-n degenerate levels after the ground state
        idx = 0 if n == 0 else 2 * n - 1
    else:
        idx = n
    if idx >= len(oracle.eigenvalues):
        return None
    return float(oracle.eigenvalues[idx])


def quantize(potential: Potential, n_range, hbar: float = 1.0,
             motion: MotionKind | None = None,
             oracle: EigenSolution | None = None) -> SpectrumResult:
    """Solve J(E) = target(n) for each requested level by safeguarded Newton steps.

    dJ/dE is the period T(E), which `action` returns with J.  Steps follow
    log(J - J(e_lo)) against log(E - e_lo) from the band bottom e_lo, a line
    for power-law wells (harmonic, quartic, rotor), so one step lands there.
    A bracket lo < hi with J(lo) < target <= J(hi) stays open above until an
    iterate reaches the target or escapes (or, once hi is known, fails the
    accuracy gate); a step that leaves it, or is longer than half the step
    before last, bisects.  Level n starts from the level before it, the first
    from e_lo + 1e-3 max(|e_lo|, 1).  BracketError: T <= 0 or J outside
    [J(lo), J(hi)] at an iterate (not monotone), or a bracket that shrinks to
    nothing short of the target (beyond dissociation, a separatrix jump in J);
    below an uncertified hi, once J(lo) + 4 T(lo) (hi - lo) falls short of it.
    AccuracyError: an iterate above the band bottom whose turning points
    coincide in floating point, so it has no period.  Levels carry the
    certified J and T of their final iterate.
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

    e_lo = land.v_min if motion is MotionKind.LIBRATION else land.crest
    if e_lo is None:
        raise ValueError("rotation quantization needs a periodic potential")

    tol_j = 1e-10 * 2.0 * math.pi * hbar
    # loop action at the bottom of the band; taken without the accuracy
    # gate because a crest kink slows the quadrature there
    j_floor = (0.0 if motion is MotionKind.LIBRATION
               else _loop_integrals(potential, e_lo, motion, 256)[1])

    def solve(n: int, target: float, start: tuple | None) -> tuple[float, float, float]:
        # the certified (E, J, T) with |J(E) - target| <= tol_j
        lo, j_lo, t_lo = (e_lo, j_floor, math.inf) if start is None else start
        hi = j_hi = math.inf
        point, last, step, step_old = start, lo, math.inf, math.inf
        e = e_lo + 1e-3 * max(abs(e_lo), 1.0) if start is None else None
        for _ in range(200):
            if e is None:
                guess = math.nan
                if point is not None and point[1] > j_floor:
                    # Newton from the latest certified iterate on log(J - J_floor)
                    # against log(E - e_lo), whose slope is a power-law well's power
                    e_p, j_p, t_p = point
                    power = t_p * (e_p - e_lo) / (j_p - j_floor)
                    stretch = math.log((target - j_floor) / (j_p - j_floor)) / power
                    guess = e_lo + (e_p - e_lo) * math.exp(min(stretch, 700.0))
                if hi == math.inf:
                    e = guess if guess > lo else e_lo + 2.0 * (last - e_lo)
                elif lo < guess < hi and abs(guess - last) <= 0.5 * step_old:
                    e = guess
                elif hi - lo > 1e-15 * max(abs(lo), abs(hi), 1.0) and (
                        j_hi < math.inf or j_lo + 4.0 * t_lo * (hi - lo) >= target - tol_j):
                    # below an uncertified hi J gains at most 2 T(lo) (hi - lo) while T
                    # grows no faster than 1/sqrt(E_escape - E) (Morse); stop past twice that
                    e = 0.5 * (lo + hi)
                else:
                    raise BracketError(
                        f"level n={n}: the certified bound-orbit action only reaches {j_lo:g} "
                        f"below E={hi:g}, where the orbit escapes or its action cannot be "
                        f"certified, short of the target {target:g}" if j_hi == math.inf else
                        f"level n={n}: J(E) jumps from {j_lo:g} to {j_hi:g} at E={lo:g}, "
                        f"across the target {target:g}"
                    )
                if hi < math.inf:  # steps count once the bracket is closed
                    step_old, step = step, abs(e - last)
            last = e
            try:
                profile = action(potential, e, motion=motion)
            except ForbiddenRegionError:
                hi, j_hi = e, math.inf
            except AccuracyError:
                if hi == math.inf:  # a kink at the band bottom fails the gate: go up
                    e = e_lo + 2.0 * (e - e_lo)
                    continue
                hi, j_hi = e, math.inf
            else:
                j, t = profile.action, profile.dJ_dE
                if t is None:  # only the band bottom has no period; above it, rounding
                    raise AccuracyError(f"level n={n}: the turning points at E={e:g} coincide "
                                        "in floating point, so J(E) cannot be certified")
                if not (t > 0.0 and j_lo - tol_j <= j <= j_hi + tol_j):
                    raise BracketError(f"level n={n}: J(E) is not monotone on the search bracket")
                if abs(j - target) <= tol_j:
                    return e, j, t
                if j < target:
                    lo, j_lo, t_lo = e, j, t
                else:
                    hi, j_hi = e, j
                point = (e, j, t)
            e = None
        raise BracketError(f"level n={n}: no certified J(E) within {tol_j:g} of {target:g}")

    levels = []
    start = None
    for n in ns:
        target = _target_action(n, motion, hbar)
        if target < j_floor - tol_j:
            raise BracketError(
                f"level n={n}: target action {target:g} below the minimum loop action "
                f"{j_floor:g}; no such rotation state"
            )
        if abs(target - j_floor) <= tol_j:
            e_n, j_n, t_n = e_lo, j_floor, None
        else:
            e_n, j_n, t_n = start = solve(n, target, start)

        oracle_e = (_oracle_level(oracle, n, motion, potential, e_n)
                    if oracle is not None else None)
        rel = None
        if oracle_e is not None:
            rel = (e_n - oracle_e) / max(abs(oracle_e), 1e-300)
        levels.append(SpectrumLevel(n=n, energy=e_n, oracle_energy=oracle_e,
                                    relative_error=rel, action=j_n, period=t_n))

    return SpectrumResult(motion=motion, levels=tuple(levels))
