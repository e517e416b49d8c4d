"""One-dimensional potential families with analytic derivatives.

Every family carries its own mass parameter and evaluates V, V' and V''
in closed form, so downstream quadratures and residual checks never pay
finite-difference noise.  Periodic families (the rigid rotor) declare a
coordinate period; all other families live on the real line.

Methods apply numpy ufuncs and float arithmetic to q as given: a Python
float gives a scalar and an array gives an array, with the same bits.
Powers of q are products (q * q), which round alike on a float and in the
array loop; Python's ** on q does not, and np.power costs a binary ufunc
call per float and rounds as whichever SIMD pow numpy dispatches to.
Polynomials run Horner's rule in numpy.polynomial's polyval order.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

TWO_PI = 2.0 * np.pi

#: |V''| below this is classified as a degenerate equilibrium.
DEGENERATE_CURVATURE = 1e-9


class Potential:
    """Base class: value/derivative/second_derivative plus domain metadata.

    Each family is a frozen dataclass; its fields are its JSON fields.
    """

    #: the family's name in JSON
    family: str
    #: coordinate period of the potential, or None on the real line
    period: float | None = None
    #: True when the coordinate itself is cyclic (domain [0, period))
    periodic_coordinate: bool = False

    @property
    def mass(self) -> float:
        """Mass (or moment of inertia) entering the kinetic term p^2 / 2m."""
        return self.m

    def value(self, q):
        raise NotImplementedError

    def derivative(self, q):
        raise NotImplementedError

    def second_derivative(self, q):
        raise NotImplementedError

    @cached_property
    def landscape(self) -> Landscape:
        """Equilibria, global minimum, crest and walks, found on first use and kept."""
        return _build_landscape(self)

    def to_json(self) -> dict:
        """The family, then each field in declaration order, a tuple as a list."""
        out = {"family": self.family}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class Harmonic(Potential):
    """V(q) = (1/2) m omega^2 q^2."""

    family = "harmonic"
    m: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        # an infinite m omega^2 makes V' = inf * q a NaN at q = 0, which loses the minimum;
        # omega * omega is omega**2 where that is finite, and inf where ** would raise
        if math.isinf(self.m * (self.omega * self.omega)):
            raise OverflowError(f"harmonic stiffness m*omega^2 overflows "
                                f"(m={self.m:g}, omega={self.omega:g})")

    def value(self, q):
        return 0.5 * self.m * self.omega**2 * np.square(q)

    def derivative(self, q):
        return self.m * self.omega**2 * q

    def second_derivative(self, q):
        return self.m * self.omega**2 * np.ones_like(q, dtype=float)


@dataclass(frozen=True)
class Quartic(Potential):
    """V(q) = lam * q^4 / 4."""

    family = "quartic"
    m: float = 1.0
    lam: float = 1.0

    def value(self, q):
        q2 = q * q
        return 0.25 * self.lam * (q2 * q2)

    def derivative(self, q):
        return self.lam * (q * (q * q))

    def second_derivative(self, q):
        return 3.0 * self.lam * (q * q)


def _horner(coeffs, q):
    """The polynomial with `coeffs` (highest power first) at q, to the bit as
    npoly.polyval does it: c_n + q * 0 (a NaN or inf q propagates), then c + y * q."""
    y = coeffs[0] + q * 0.0
    for c in coeffs[1:]:
        y = c + y * q
    return y


@dataclass(frozen=True)
class Polynomial(Potential):
    """V(q) = sum_k coeffs[k] q^k, derivatives taken analytically."""

    family = "polynomial"
    m: float = 1.0
    coeffs: tuple = (0.0,)

    def __post_init__(self):
        # an infinite V' or V'' coefficient loses every equilibrium, as an infinite
        # harmonic stiffness does; the overflow is checked here, not warned of by polyder
        with np.errstate(over="ignore"):
            _, d1, d2 = self._descending
        if any(math.isinf(c) for c in d1 + d2):
            raise OverflowError(f"polynomial V' or V'' coefficients overflow "
                                f"(coeffs={list(self.coeffs)})")

    @cached_property
    def _descending(self):
        """V, V' and V'' coefficients as Python floats, highest power first."""
        return tuple(tuple(float(c) for c in npoly.polyder(self.coeffs, k)[::-1])
                     for k in range(3))

    def value(self, q):
        return _horner(self._descending[0], q)

    def derivative(self, q):
        return _horner(self._descending[1], q)

    def second_derivative(self, q):
        return _horner(self._descending[2], q)


@dataclass(frozen=True)
class Pendulum(Potential):
    """V(q) = -amplitude cos(q), periodic in shape but defined on the real line."""

    family = "pendulum"
    m: float = 1.0
    amplitude: float = 1.0

    period = TWO_PI

    def value(self, q):
        return -self.amplitude * np.cos(q)

    def derivative(self, q):
        return self.amplitude * np.sin(q)

    def second_derivative(self, q):
        return self.amplitude * np.cos(q)


@dataclass(frozen=True)
class Rotor(Potential):
    """Free rotation: V = 0 on the cyclic coordinate [0, 2*pi)."""

    family = "rotor"
    inertia: float = 1.0

    period = TWO_PI
    periodic_coordinate = True

    @property
    def mass(self):
        return self.inertia

    def value(self, q):
        return np.zeros_like(q, dtype=float)[()]

    def derivative(self, q):
        return np.zeros_like(q, dtype=float)[()]

    def second_derivative(self, q):
        return np.zeros_like(q, dtype=float)[()]


@dataclass(frozen=True)
class Morse(Potential):
    """V(q) = depth * (1 - exp(-width q))^2, minimum at q = 0."""

    family = "morse"
    m: float = 1.0
    depth: float = 1.0
    width: float = 1.0

    def value(self, q):
        y = np.exp(-self.width * q)
        return self.depth * np.square(1.0 - y)

    def derivative(self, q):
        y = np.exp(-self.width * q)
        return 2.0 * self.depth * self.width * y * (1.0 - y)

    def second_derivative(self, q):
        y = np.exp(-self.width * q)
        return 2.0 * self.depth * self.width**2 * y * (2.0 * y - 1.0)


_FAMILIES = {cls.family: cls for cls in (Harmonic, Quartic, Polynomial, Pendulum,
                                         Rotor, Morse)}


def json_number(value) -> float:
    """A JSON field's number as a float; TypeError for a bool, a string or any other non-real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)  # OverflowError for an integer past the float range


def potential_from_json(obj: dict) -> Potential:
    """Build a potential from its JSON object, rejecting unknown fields."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError("potential JSON must be an object with a 'family' field")
    family = obj["family"]
    if family not in _FAMILIES:
        raise ValueError(f"unknown potential family {family!r}")
    cls = _FAMILIES[family]
    fields = dataclasses.fields(cls)
    extra = set(obj) - {f.name for f in fields} - {"family"}
    if extra:
        raise ValueError(f"unknown field(s) for family {family!r}: {sorted(extra)}")
    kwargs = {}
    try:
        for f in fields:
            if f.name not in obj:
                continue
            if isinstance(f.default, tuple):  # a vector field such as coeffs
                if not (isinstance(obj[f.name], list) and obj[f.name]):
                    raise TypeError  # a string or an object would iterate; [] is no V
                kwargs[f.name] = tuple(json_number(c) for c in obj[f.name])
            else:
                kwargs[f.name] = json_number(obj[f.name])
    except (TypeError, OverflowError):
        raise ValueError(f"fields of family {family!r} must be numbers")
    if not all(np.isfinite(v).all() for v in kwargs.values()):
        raise ValueError(f"fields of family {family!r} must be finite")
    for k, v in kwargs.items():  # every scale must be positive; lam or depth <= 0 leaves no well
        if k in ("m", "inertia", "omega", "lam", "depth", "width") and v <= 0.0:
            raise ValueError(f"field {k!r} of family {family!r} must be positive")
    return cls(**kwargs)


class Stability(enum.Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class EquilibriumPoint:
    """A root of V' with its curvature and stability classification."""

    q0: float
    curvature: float
    stability: Stability


def _classify(curvature: float) -> Stability:
    if abs(curvature) <= DEGENERATE_CURVATURE:
        return Stability.DEGENERATE
    return Stability.MINIMUM if curvature > 0 else Stability.MAXIMUM


def _solve(f, slope, level: float, below: float, above: float) -> float:
    """Solve f(q) = level between `below` (f < level) and `above` (f > level).

    Safeguarded Newton with the analytic slope (rtsafe, Numerical Recipes
    9.4): each evaluation moves the bracket end on its side; a step that
    leaves the bracket, or is longer than half the step before last, bisects
    instead.  Stops at an exact hit, once the Newton step is at most
    1e-15 max(1, |q|), or once a bisection step is that short.

    Newton converges only linearly on a root of multiplicity m > 1: each
    step is (m - 1) / m of the one before.  Where two successive ratios of
    three Newton steps agree to 1e-3 and lie in [0.5, 0.95], the step is
    taken m = round(1 / (1 - ratio)) times as long, if that stays in the
    bracket (V' = q^3 from the midpoint of a grid cell: 4 calls, not 60).
    On a simple root successive ratios fall quadratically, so this rule
    does not fire there.
    """
    q = 0.5 * (below + above)
    step = step_old = abs(above - below)
    newton_old = ratio_old = math.nan  # the Newton step into q and its ratio, or NaN
    for _ in range(200):
        g = float(f(q)) - level
        if g == 0.0:
            return q
        below, above = (q, above) if g < 0.0 else (below, q)
        lo, hi = min(below, above), max(below, above)
        d = float(slope(q))
        newton = g / d if d != 0.0 else math.inf
        nxt = q - newton
        if abs(newton) <= 1e-15 * max(1.0, abs(q)):
            return nxt  # checked before the bracket: this step may round onto an end
        ratio = newton / newton_old
        steady = 0.5 <= ratio <= 0.95 and abs(ratio - ratio_old) <= 1e-3 * ratio
        m = round(1.0 / (1.0 - ratio)) if steady else 1
        if m > 1 and lo < q - m * newton < hi:
            nxt, newton_old = q - m * newton, math.nan
        elif not lo < nxt < hi or abs(newton) > 0.5 * step_old:
            nxt, newton_old = 0.5 * (below + above), math.nan
        else:
            newton_old = newton
        ratio_old = ratio
        step_old, step = step, abs(nxt - q)
        if step <= 1e-15 * max(1.0, abs(nxt)):
            return nxt
        q = nxt
    return q


def find_equilibria(
    potential: Potential,
    interval: tuple[float, float],
    tolerance: float = 1e-12,
    subintervals: int = 2048,
) -> list[EquilibriumPoint]:
    """Locate the roots of V' on a finite interval: bracket on a grid, polish by `_solve`.

    A root is a grid point where V' is exactly 0 or the polished root of a
    sign change of V' between neighbours, sorted by position; a root that V'
    touches off the grid without changing sign is not reported.  A gradient
    flat to `tolerance` on the whole grid (the rotor) yields an empty list.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(b - a) and a < b):  # b - a can overflow with both ends finite
        raise ValueError("interval must be finite with a < b")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

    grid = np.linspace(a, b, subintervals + 1)
    # a steep V' overflows to inf with its sign, which still brackets a root;
    # inf * 0 gives a NaN, which is neither a root nor a sign change
    with np.errstate(over="ignore", invalid="ignore"):
        dv = np.asarray(potential.derivative(grid), dtype=float)
    size = np.abs(dv)
    peak = float(np.max(size))  # inf or NaN where any |V'| is: neither is flat
    if peak < math.inf and np.all(size <= tolerance * max(1.0, peak)):
        return []  # flat gradient: a continuum, not isolated equilibria

    roots = grid[dv == 0.0].tolist()
    sign = np.sign(dv)  # not a product of neighbours, which overflows past |V'| ~ 1e154
    for i in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]:  # V' < 0 at one end, > 0 at the other
        below, above = (grid[i], grid[i + 1]) if dv[i] < 0.0 else (grid[i + 1], grid[i])
        roots.append(_solve(potential.derivative, potential.second_derivative, 0.0,
                            float(below), float(above)))
    roots.sort()
    curvatures = [float(potential.second_derivative(q0)) for q0 in roots]
    return [EquilibriumPoint(q0, c, _classify(c)) for q0, c in zip(roots, curvatures)]


@dataclass(frozen=True)
class Landscape:
    """A potential's equilibria (roots of V' on the search window, sorted), minimum,
    crest and turning-point walks.

    ``minimum`` is the lowest non-maximum equilibrium, the first on a tie;
    where there is none (flat, monotone or unbounded V) it is the window's
    lower end, marked degenerate with zero curvature.  ``v_min`` is V there.
    ``crest`` is the highest of 2049 samples of one period, or None.

    ``walks`` holds the outward walks from the minimum, right then left, as
    read-only ``(stops, peaks)`` arrays.  The stops are the minimum, the
    equilibria ahead in order, then one period on, or 80 doubling steps
    from 1e-3 on the line (V is monotone between adjacent equilibria, so
    walking them in order never steps over a thin barrier).  ``peaks[i]``
    is the running maximum of V over ``stops[1:i + 2]``, a NaN counting as
    -inf, so the first stop with V > E is ``stops[searchsorted(peaks, E,
    "right") + 1]``.
    """

    equilibria: tuple[EquilibriumPoint, ...]
    minimum: EquilibriumPoint
    v_min: float
    crest: float | None
    walks: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


#: a walk's steps on the line past the last equilibrium ahead: 1e-3 2^k, k = 0..79
_DOUBLINGS = 1e-3 * 2.0 ** np.arange(80)


def _walk(potential: Potential, equilibria, q0: float, direction: float):
    """The (stops, peaks) of a walk out of q0 in `direction`, as `Landscape.walks` walks
    out of the minimum; on a periodic V the walk ends one period on."""
    ahead = [pt.q0 for pt in equilibria if direction * (pt.q0 - q0) > 1e-9]
    if direction < 0:
        ahead = ahead[::-1]
    if potential.period is not None:
        end = q0 + direction * potential.period
        stops = np.array([q0] + [x for x in ahead if direction * (x - end) <= 1e-9] + [end])
    else:  # from the last equilibrium on, each step is added to the stop before it
        stops = np.concatenate(([q0], ahead, direction * _DOUBLINGS))
        np.add.accumulate(stops[len(ahead):], out=stops[len(ahead):])
    with np.errstate(all="ignore"):  # far stops may overflow
        v = potential.value(stops[1:])
    peaks = np.maximum.accumulate(np.fmax(v, -np.inf))  # a NaN is never above E
    stops.flags.writeable = peaks.flags.writeable = False
    return stops, peaks


def _build_landscape(potential: Potential) -> Landscape:
    """Scan (-10, 10), then double the window while an end lies below every equilibrium.

    A doubling scans only the two new shells, so the first window's
    equilibria never change; families with a period never grow.
    """
    window = (-10.0, 10.0)
    points = find_equilibria(potential, window)
    # steep walls overflow to inf far out; inf is never the lower end
    with np.errstate(over="ignore"):
        for _ in range(60 if potential.period is None else 0):
            lowest = min((float(potential.value(pt.q0)) for pt in points), default=np.inf)
            if min(float(potential.value(window[0])), float(potential.value(window[1]))) >= lowest:
                break
            lo, hi = window
            window = (2.0 * lo, 2.0 * hi)
            # a root on a shared end is found by both scans
            points = list(dict.fromkeys(find_equilibria(potential, (window[0], lo)) + points
                                        + find_equilibria(potential, (hi, window[1]))))

        candidates = [pt for pt in points if pt.stability is not Stability.MAXIMUM]
        if candidates:
            minimum = min(candidates, key=lambda pt: float(potential.value(pt.q0)))
        else:  # V is monotone away from any maximum, so its lowest point is an end
            q = min(window, key=lambda x: float(potential.value(x)))
            minimum = EquilibriumPoint(q0=q, curvature=0.0, stability=Stability.DEGENERATE)
        v_min = float(potential.value(minimum.q0))

    crest = None if potential.period is None else float(
        np.max(potential.value(np.linspace(0.0, potential.period, 2049))))
    walks = tuple(_walk(potential, points, minimum.q0, direction) for direction in (+1.0, -1.0))
    return Landscape(equilibria=tuple(points), minimum=minimum, v_min=v_min, crest=crest,
                     walks=walks)


def well_box(potential: Potential, level: float, accept=None) -> tuple[float, float] | None:
    """One period for a cyclic coordinate; on the line the first q0 -+ 2^j (j < 60) about
    the landscape minimum q0 where V reaches `level` at each wall (a NaN fails, an overflow
    to inf passes), every non-maximum equilibrium with V < `level` is inside (q0's own well
    only for a periodic V) and `accept(half)`, if given, holds; None where none does.
    """
    if potential.periodic_coordinate:
        return (0.0, potential.period)
    land = potential.landscape
    q0 = land.minimum.q0
    low = [q0] + [pt.q0 for pt in land.equilibria if potential.period is None and
                  pt.stability is not Stability.MAXIMUM and float(potential.value(pt.q0)) < level]
    half = 1.0
    with np.errstate(over="ignore"):
        for _ in range(60):
            lo, hi = q0 - half, q0 + half
            if (float(potential.value(lo)) >= level and float(potential.value(hi)) >= level
                    and lo < min(low) and max(low) < hi and (accept is None or accept(half))):
                return (lo, hi)
            half *= 2.0
    return None
