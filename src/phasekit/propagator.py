"""Classical boundary-value trajectories and time-sliced kernel phases.

The kernel over a slice chain accumulates the phase (1/hbar) sum (L - E) dt
with left-endpoint sampling; its N -> infinity limit is the classical
action minus E (t_b - t_a).  Free and harmonic families have analytic
two-point paths and actions.  Every other family takes its limit from the
energy equation: a path of energy E from q_a to q_b takes the time
t(E) = integral of m dq / p along its legs and has the abbreviated action
W(E) = integral of p dq, so the path of t(E) = t has the action
S_cl = W(E) - E t (`kernel_phase`).  Slice chains sample that same path,
solved once per request, at their own times: q(tau) is a certified piecewise
Chebyshev interpolant of the energy equation's tau(theta) (`_Path`).  RK4
integrates only an initial-value path (`initial_value_trajectory`), the
independent check of those samples.  The Jacobian prefactor of the slice
product is m per slice and is reported only as N ln m, never exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .bohr_sommerfeld import SEPARATRIX_TOL, _leggauss, _wall
from .errors import AccuracyError, ConjugatePointError, SeparatrixError, TrajectoryError
from .potentials import Harmonic, Polynomial, Potential, Rotor, Stability, _walk

#: Gauss-Legendre order of a path's t(E) and W(E), checked against twice this order
PATH_ORDER = 32
#: largest order-doubling estimate of W(E), relative to max(|W|, 1), that certifies S_cl
PATH_TOL = 1e-10
#: Chebyshev degree n of a sampled path's panel, checked against degree 2n
PANEL_DEGREE = 16
#: largest order-doubling estimate of q on a panel, relative to max(1, |q|) on the theta
#: map, and of a panel's time, relative to t, that certifies a sampled path
PANEL_TOL = 1e-12
#: halvings of a panel before AccuracyError, in phi and at its tau midpoint together
PANEL_CAP = 8


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    mass: float

    @property
    def slices(self) -> int:
        return len(self.times) - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class KernelPhase:
    S_cl: float
    energy: float
    energy_phase: float
    total_phase: float
    prefactor_log: float
    slices: int
    #: start velocity of the path the phase was taken on
    v0: float


def _phase(s_cl: float, E: float, t: float, slices: int, mass: float, v0: float,
           hbar: float) -> KernelPhase:
    """The kernel phase of action s_cl at energy E over time t on `slices` slices."""
    energy_phase = E * t
    return KernelPhase(S_cl=s_cl, energy=E, energy_phase=energy_phase,
                       total_phase=(s_cl - energy_phase) / hbar,
                       prefactor_log=slices * math.log(mass), slices=slices, v0=v0)


def _checked(name: str, compute) -> float:
    """compute(), or OverflowError naming `name` where it overflows: Python's ** raises
    one, float arithmetic gives inf or NaN, and numpy's warnings are held back."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflows")
    return value


def _constant_value(potential: Potential) -> float | None:
    """V0 when the force vanishes identically, else None."""
    if isinstance(potential, Rotor):
        return 0.0
    if isinstance(potential, Polynomial) and all(c == 0.0 for c in potential.coeffs[1:]):
        return float(potential.coeffs[0])
    return None


def _rk4(potential: Potential, q0: float, v0: float, t: float, N: int):
    m = potential.mass
    dt = t / N
    qs = np.empty(N + 1)
    vs = np.empty(N + 1)
    q, v = float(q0), float(v0)
    qs[0], vs[0] = q, v
    force = potential.derivative
    for i in range(1, N + 1):
        a1 = -float(force(q)) / m
        k1q, k1v = v, a1
        a2 = -float(force(q + 0.5 * dt * k1q)) / m
        k2q, k2v = v + 0.5 * dt * k1v, a2
        a3 = -float(force(q + 0.5 * dt * k2q)) / m
        k3q, k3v = v + 0.5 * dt * k2v, a3
        a4 = -float(force(q + dt * k3q)) / m
        k4q, k4v = v + dt * k3v, a4
        q += dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        v += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        qs[i], vs[i] = q, v
    return qs, vs


def initial_value_trajectory(potential: Potential, q0: float, v0: float,
                             t: float, N: int) -> Trajectory:
    """Integrate the equations of motion forward from (q0, v0)."""
    if t <= 0 or N < 1:
        raise ValueError("need t > 0 and N >= 1")
    qs, vs = _rk4(potential, q0, v0, t, N)
    return Trajectory(times=np.linspace(0.0, t, N + 1), positions=qs,
                      velocities=vs, mass=potential.mass)


def classical_trajectory(potential: Potential, q_a: float, q_b: float,
                         t: float, N: int) -> Trajectory:
    """Path from q_a to q_b in time t solving the Euler-Lagrange dynamics, sampled at
    N + 1 evenly spaced times.

    Force-free and harmonic families use their analytic two-point
    solutions.  Every other family samples `kernel_phase`'s path, the same
    branch by the same rule and solved once per request (`_path`): positions
    from its certified interpolant of the energy equation (`_Path`), and
    velocities sqrt(2 (E - V) / m) at the path's own E, signed as the motion.
    It raises what `kernel_phase` raises where there is no such path, but
    does not check the S_cl certificate; AccuracyError where the interpolant
    is not certified.  Harmonic focal times (omega t = n pi, n >= 1) raise
    ConjugatePointError: the two-point problem is there either unsolvable or
    degenerate.
    """
    if t <= 0 or N < 1:
        raise ValueError("need t > 0 and N >= 1")
    times = np.linspace(0.0, t, N + 1)

    if _constant_value(potential) is not None:
        vel = (q_b - q_a) / t
        qs, vs = q_a + vel * times, np.full(N + 1, vel)
    elif isinstance(potential, Harmonic):
        w = potential.omega
        s = _focal_sin(w, t)
        b = (q_b - q_a * math.cos(w * t)) / s
        qs = q_a * np.cos(w * times) + b * np.sin(w * times)
        vs = w * (-q_a * np.sin(w * times) + b * np.cos(w * times))
    else:
        qs, vs = _path(potential, q_a, q_b, t).sample(N)
    return Trajectory(times=times, positions=qs, velocities=vs, mass=potential.mass)


def _focal_sin(omega: float, t: float) -> float:
    """sin(omega t); ConjugatePointError at a focal time, |sin(omega t)| < 1e-12 near
    n pi with n >= 1 (a short time, near n = 0, is none)."""
    s = math.sin(_checked("omega*t", lambda: omega * t))
    if abs(s) < 1e-12 and round(omega * t / math.pi) >= 1:
        raise ConjugatePointError(f"omega*t = {omega * t:g} is a focal time; "
                                  "endpoints conjugate")
    return s


def harmonic_two_point_action(m: float, omega: float, q_a: float, q_b: float,
                              t: float) -> float:
    """Closed-form action of the harmonic two-point path."""
    s = _focal_sin(omega, t)
    return (m * omega / (2.0 * s)) * ((q_a**2 + q_b**2) * math.cos(omega * t)
                                      - 2.0 * q_a * q_b)


def loop_action(traj: Trajectory) -> float:
    """Integral of p dq = m v^2 dt accumulated along the sampled path."""
    return float(np.trapezoid(traj.mass * traj.velocities**2, traj.times))


def sliced_phase(traj: Trajectory, potential: Potential, E: float,
                 hbar: float = 1.0) -> KernelPhase:
    """Left-endpoint Riemann sum of (L - E) dt / hbar, L = m v^2 / 2 - V, over the slice
    chain."""
    dt = traj.duration / traj.slices
    v = np.asarray(potential.value(traj.positions), dtype=float)
    lag = 0.5 * traj.mass * traj.velocities**2 - v
    return _phase(float(np.sum(lag[:-1]) * dt), E, traj.duration, traj.slices, traj.mass,
                  float(traj.velocities[0]), hbar)


def _angle(q: float, lo: float, hi: float) -> float:
    """theta of q on q = c + r cos(theta) from hi (theta = 0) to lo (pi), taken from
    the nearer end, where it is least rounded."""
    if hi - q <= q - lo:
        return 2.0 * math.asin(math.sqrt(min(max((hi - q) / (hi - lo), 0.0), 1.0)))
    return math.pi - 2.0 * math.asin(math.sqrt(min(max((q - lo) / (hi - lo), 0.0), 1.0)))


def _leg(potential: Potential, rows, order: int = PATH_ORDER):
    """tau, W and the time integrand at `far` of each row (E, c, r, anchor, eps, far) on
    q = c + r cos(theta): the integrals of m r |sin(theta)| / p and p r |sin(theta)| from
    anchor to far (negative where far < anchor) by the Gauss-Legendre rule of `order`, and
    m r |sin(far)| / p; one V call for every row.

    Where eps > 0 the rule runs on theta = anchor + eps sinh(u), graded towards a crest at
    the anchor: where p^2 is delta + (a (theta - anchor))^2 near it, eps = sqrt(delta) / a
    and dtheta / p is flat in u.  A node where p rounds to 0 makes tau infinite.
    """
    E, c, r, anchor, eps, far = np.asarray(rows, dtype=float).T[:, :, None]
    x, w = _leggauss(order)
    d, graded = far - anchor, eps > 0.0
    if graded.any():  # theta = anchor + eps sinh(u) on the graded rows, anchor + u elsewhere
        e = np.copysign(np.where(graded, eps, 1.0), d)
        half = 0.5 * np.where(graded, np.arcsinh(d / e), d)
        u = half * (x + 1.0)
        step, stretch = np.where(graded, e * np.sinh(u), u), np.where(graded, e * np.cosh(u), 1.0)
    else:  # the same nodes, without the graded rows' work
        half, stretch = 0.5 * d, 1.0
        u = step = half * (x + 1.0)
    theta = np.concatenate([anchor + step, far], axis=1)
    arm = r * np.abs(np.sin(theta))
    m = potential.mass
    p = np.sqrt(2.0 * m * np.maximum(E - potential.value(c + r * np.cos(theta)), 0.0))
    dq = arm[:, :-1] * (stretch * (half * w))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (m * (dq / p[:, :-1]).sum(axis=1), (dq * p[:, :-1]).sum(axis=1),
                m * arm[:, -1] / p[:, -1])


def _coefficients(s0: float, k: int) -> tuple[list[int], np.ndarray]:
    """Which of `_Paths.pieces` a path from q_a with velocity sign s0 that passes k >= 1
    turning points covers, and how often: its first wall is b when it starts to the
    right, the walls alternate, and between walls it covers q_a's two pieces once each."""
    first, other = (0, 1) if s0 > 0 else (1, 0)
    last = 2 + (first if k % 2 else other)
    if k == 1:
        return [first, last], np.array([1.0, 1.0])
    return [first, other, last], np.array([k, k - 1, 1.0])


class _Paths:
    """The classical paths from q_a to q_b in the well of q_a, by energy E.

    At energy E the well's turning points a < b are the first crossings of
    V = E on walks out of q_a through the landscape's equilibria (a periodic
    V's walks go one period on); a side without a crossing is open.  Every
    leg lies on the loop angle theta of q = c + r cos(theta) between a and b,
    theta = 0 at b and pi at a, so the time integrand m r |sin(theta)| / p
    and the action integrand p r |sin(theta)| are smooth through the turning
    points.  An open side puts the far end of the leg in place of its turning
    point, so above every crest the map spans the leg alone.  A path that
    passes k turning points covers the pieces from q_a and q_b to the walls
    (`_coefficients`).  Where a leg crosses a crest, p dips, and the leg's
    rule is graded towards it (`_sums`).
    """

    def __init__(self, potential: Potential, q_a: float, q_b: float):
        #: the same paths a whole number of periods on: q_a and q_b less `shift`
        self.shift = 0.0 if potential.period is None else (
            potential.period * round(q_a / potential.period))
        q_a, q_b = q_a - self.shift, q_b - self.shift
        self.potential, self.q_a, self.q_b = potential, q_a, q_b
        land = potential.landscape
        self.walks = tuple(_walk(potential, land.equilibria, q_a, d) for d in (+1.0, -1.0))
        #: (q, V, -V'') of each maximum, where p dips
        self.tops = [(pt.q0, float(potential.value(pt.q0)), -pt.curvature)
                     for pt in land.equilibria if pt.stability is Stability.MAXIMUM]
        lo, hi = min(q_a, q_b), max(q_a, q_b)
        top = max((float(potential.value(pt.q0)) for pt in land.equilibria
                   if pt.stability is not Stability.MINIMUM and lo - 1e-9 <= pt.q0 <= hi + 1e-9),
                  default=-math.inf)
        #: every path has E above V's highest point between q_a and q_b; where that is an
        #: equilibrium, a crest, no path has E within `floor` of it
        self.e_lo = _checked("V at q_a or q_b", lambda: max(
            float(potential.value(q_a)), float(potential.value(q_b)), top))
        self.crest = top >= self.e_lo
        self.floor = SEPARATRIX_TOL * max(1.0, abs(self.e_lo))

    @lru_cache(maxsize=8)
    def _frame(self, E: float):
        """The walls (a, b) at E, None where open, the ends (lo, hi) of the theta map and the
        angles of q_a and q_b on it, kept for the root, action and sampler of a path."""
        b, a = (_wall(self.potential, walk, E) for walk in self.walks)
        lo = min(self.q_a, self.q_b) if a is None else a
        hi = max(self.q_a, self.q_b) if b is None else b
        return a, b, lo, hi, _angle(self.q_a, lo, hi), _angle(self.q_b, lo, hi)

    def _crests(self, E: float, lo: float, hi: float) -> dict[float, float]:
        """The theta of each crest inside the map from hi to lo that E clears, and the
        theta width eps = sqrt(2 (E - V) / kappa) / (r sin(theta)) over which p dips there."""
        eps = {}
        for q, v, kappa in self.tops:
            if lo < q < hi and E > v:
                th = _angle(q, lo, hi)
                eps[th] = math.sqrt(2.0 * (E - v) / kappa) / (0.5 * (hi - lo) * math.sin(th))
        return eps

    def _sums(self, energies, pieces: bool, order: int):
        """Whether a and b are walls at each energy, and tau and W of the leg straight from
        q_a to q_b, or of the `pieces` from q_a to b, from q_a to a, from q_b to b and from
        q_b to a, by one `_leg` call at `order`: an array (tau or W, energy, leg), 0 where
        a leg is empty.

        Each leg is split at the crests that E clears, where p dips (`_crests`), and each
        part's rule is graded towards each crest end, from its middle where both are crests.
        """
        walls, rows, owners = [], [], []
        for i, E in enumerate(energies):
            a, b, lo, hi, th_a, th_b = self._frame(E)
            walls.append((a is not None, b is not None))
            eps = self._crests(E, lo, hi)
            legs = ([(0.0, th_a), (th_a, math.pi), (0.0, th_b), (th_b, math.pi)] if pieces
                    else [(min(th_a, th_b), max(th_a, th_b))])
            for j, (th0, th1) in enumerate(legs):
                cuts = sorted({th0, th1, *(th for th in eps if th0 <= th <= th1)})
                for start, end in zip(cuts[:-1], cuts[1:]):
                    parts = [(crest, eps[crest], 0.5 * (start + end) if far in eps else far)
                             for crest, far in ((start, end), (end, start)) if crest in eps]
                    for anchor, grading, far in parts or [(start, 0.0, end)]:
                        rows.append((E, 0.5 * (lo + hi), 0.5 * (hi - lo), anchor, grading, far))
                        owners.append((i, j))
        sums = np.zeros((len(energies), 4 if pieces else 1, 2))
        if rows:
            tau, w, _ = _leg(self.potential, rows, order)
            np.add.at(sums, tuple(np.array(owners).T), np.abs(np.column_stack([tau, w])))
        has_a, has_b = np.array(walls, dtype=bool).reshape(-1, 2).T
        return has_a, has_b, sums.transpose(2, 0, 1)

    def direct(self, E: float, order: int = 2 * PATH_ORDER) -> np.ndarray:
        """tau and W of the leg straight from q_a to q_b at E (`_sums`)."""
        return self._sums([E], False, order)[2][:, 0, 0]

    def pieces(self, energies, order: int = 2 * PATH_ORDER):
        """The walls, and tau and W of the four pieces, at each energy (`_sums`)."""
        return self._sums(energies, True, order)

    def direct_energy(self, t: float) -> tuple[float, np.ndarray] | None:
        """E of the path straight from q_a to q_b in time t and its `direct` sums, or None.

        V <= e_lo on the leg, so at e_lo + x, x the straight line's kinetic
        energy, the leg is nowhere slower than the line and takes at most t
        (TrajectoryError beyond the rounding of the theta map: a maximum the
        landscape missed).  Its time falls as E rises: the root is bracketed
        by factors of 8 in E - e_lo down to e_lo (to `floor` above a crest,
        where the time diverges: SeparatrixError when t is still too long there).
        """
        if self.q_a == self.q_b:
            return None
        sums = {}

        def excess(E):
            sums[E] = self.direct(E)
            return sums[E][0] - t

        bottom = self.floor if self.crest else 0.0
        x = _checked("the straight line's kinetic energy", lambda: max(
            0.5 * self.potential.mass * ((self.q_b - self.q_a) / t) ** 2, self.floor))
        gx = excess(self.e_lo + x)
        if not gx < 0.0:
            q_lo, q_hi = self._frame(self.e_lo + x)[2:4]  # the theta map's ends
            if gx <= 2.0 ** -50 * t * (q_hi - q_lo) / abs(self.q_b - self.q_a):
                return self.e_lo + x, sums[self.e_lo + x]
            raise self._missed_maximum()
        while gx < 0.0:
            hi, g_hi = x, gx
            if x == bottom:
                if self.crest:
                    raise SeparatrixError(
                        f"the path from q_a={self.q_a:g} to q_b={self.q_b:g} in t={t:g} "
                        f"crosses the crest {self.e_lo:g} within {self.floor:g} of its "
                        "energy; its time diverges there")
                return None
            x = x / 8.0 if x / 8.0 > self.floor else bottom
            gx = excess(self.e_lo + x)
        E = self._root(excess, self.e_lo + x, gx, self.e_lo + hi, g_hi, t)
        return E, sums[E]

    def _missed_maximum(self) -> TrajectoryError:
        """The error of a path time that only a maximum the landscape missed explains."""
        return TrajectoryError(f"V exceeds e_lo={self.e_lo:g} between q_a={self.q_a:g} and "
                               f"q_b={self.q_b:g}, at a maximum the landscape missed")

    def _root(self, f, a: float, fa: float, b: float, fb: float, t: float) -> float:
        """A root of the time excess f between a and b, where fa and fb differ in sign:
        Anderson-Bjoerck false position, bisecting where a step leaves the bracket.  Stops
        once |f| <= 2^-50 t, the rounding of a path's time, or the bracket is 4 ulp wide.

        Between energies of finite time a time that is not finite means a wall
        between q_a and q_b, V above e_lo there: TrajectoryError.
        """
        for _ in range(100):
            c = b - fb * (b - a) / (fb - fa)
            if not min(a, b) < c < max(a, b):
                c = 0.5 * (a + b)
            fc = f(c)
            if not math.isfinite(fc):
                raise self._missed_maximum()
            if abs(fc) <= 2.0 ** -50 * t:
                return c
            if (fc > 0.0) == (fb > 0.0):  # a stays, its value scaled down
                scale = 1.0 - fc / fb
                fa *= scale if scale > 0.0 else 0.5
            else:
                a, fa = b, fb
            b, fb = c, fc
            if abs(b - a) <= 4.0 * math.ulp(max(abs(a), abs(b))):
                break
        return b

    def _grid(self) -> np.ndarray:
        """Energies of the branch scan: e_lo + floor 2^(j/2) up to 2^50 max(1, |e_lo|),
        and 60 steps of 2^(-1/2) towards each energy where a wall opens."""
        scale = max(1.0, abs(self.e_lo))
        top = _checked("the branch scan's top E", lambda: self.e_lo + 2.0 ** 50 * scale)
        steps = int(2.0 * math.log2((top - self.e_lo) / self.floor))
        energies = [self.e_lo + self.floor * 2.0 ** (0.5 * np.arange(steps + 1))]
        opens = [float(peaks[-1]) for _, peaks in self.walks]
        for e_open in opens:
            if self.e_lo < e_open < top:
                energies.append(e_open - (e_open - self.e_lo) * 2.0 ** (-0.5 * np.arange(1, 61)))
        grid = np.unique(np.concatenate(energies))
        return grid[grid < max(opens)]

    def bounced_branches(self, t: float):
        """Yield (k, E, s0) of each path that passes k >= 1 turning points in time t,
        starting with velocity sign s0: fewest k first, then lowest E.

        A cell between neighbours of `_grid` brackets a root where the time of
        its branch minus t changes sign and the branch's walls stand at both
        ends; two roots in one cell are not seen.
        """
        grid = self._grid()
        has_a, has_b, (times, _) = self.pieces(grid)
        both = has_a & has_b
        # a path past k walls covers k - 1 half loops, none shorter than the shortest
        half = times[both, 0] + times[both, 1]
        k_max = min(int(t / half.min()) + 2, 10_000) if half.size else 1
        for k in range(1, k_max + 1):
            found = []
            for s0 in (1.0, -1.0):
                covered, counts = _coefficients(s0, k)
                walls = (has_b if s0 > 0 else has_a) if k == 1 else both
                # a piece that ends a rounding error from its wall can time out at inf
                excess = times[:, covered] @ counts - t
                excess[~(walls & np.isfinite(excess))] = np.nan
                sign = np.sign(excess)
                for i in np.flatnonzero(sign[:-1] * sign[1:] <= 0.0):

                    def branch_excess(E, covered=covered, counts=counts):
                        return self.pieces([E])[2][0, 0, covered] @ counts - t

                    found.append((k, self._root(branch_excess, float(grid[i]), float(excess[i]),
                                                float(grid[i + 1]), float(excess[i + 1]), t),
                                  s0))
            yield from sorted(found)

    def path(self, t: float) -> tuple[int, float, float, np.ndarray]:
        """(k, E, s0, W) of the default path in time t, as `bounced_branches` yields them
        (k = 0 for the direct leg): the fewest turning points, then the lowest E.  W is
        its action at PATH_ORDER and at twice it, where a direct leg keeps its root's."""
        direct = self.direct_energy(t)
        if direct is not None:
            E, (_, w) = direct
            return 0, E, math.copysign(1.0, self.q_b - self.q_a), np.array(
                [self.direct(E, PATH_ORDER)[1], w])
        branch = next(self.bounced_branches(t), None)
        if branch is None:
            raise TrajectoryError(
                f"no classical path from q_a={self.q_a:g} to q_b={self.q_b:g} in t={t:g} "
                f"with energy from {self.e_lo:g} to "
                f"{self.e_lo + 2.0 ** 50 * max(1.0, abs(self.e_lo)):g}")
        k, E, s0 = branch
        covered, counts = _coefficients(s0, k)
        w = np.array([self.pieces([E], order)[2][1, 0] for order in (PATH_ORDER, 2 * PATH_ORDER)])
        return k, E, s0, w[:, covered] @ counts


@lru_cache(maxsize=4)
def _path(potential: Potential, q_a: float, q_b: float, t: float) -> _Path:
    """The default path from q_a to q_b in time t, solved once for `kernel_phase` and
    every `classical_trajectory` of a request."""
    paths = _Paths(potential, q_a, q_b)
    return _Path(paths, q_a, q_b, t, *paths.path(t))


@lru_cache(maxsize=4)
def _lobatto(n: int) -> np.ndarray:
    """The matrix from values at the n + 1 Chebyshev-Lobatto points -cos(j pi / n),
    ascending, to the coefficients of their interpolant in T_0 ... T_n."""
    j = np.arange(n + 1)
    cosines = np.cos(np.outer(j, n - j) * (math.pi / n)) * (2.0 / n)
    cosines[:, [0, n]] *= 0.5
    cosines[[0, n]] *= 0.5
    cosines.flags.writeable = False
    return cosines


class _Path:
    """A solved two-point path: its branch (k, E, s0) and action W (`_Paths.path`), its
    start velocity v0, and its samples at any slice count (`sample`).

    On the unfolded loop angle phi of E's theta map, q = c + r cos(phi) and
    phi rises along the motion: from -theta_a (moving right) or theta_a,
    through a multiple of pi at each turning point, to an angle of q_b.  The
    path is cut into panels in phi at its turning points and crest passages,
    and between two of these also at the middle.  A panel's time tau(phi),
    the integral of m r |sin(phi)| / p, is `_leg` from one of its own ends,
    its anchor: a crest end, graded, else an end that is no turning point,
    where V's rounding against E makes a rule noisy.  One loop certifies each
    panel or halves it, PANEL_CAP times in all before AccuracyError with its
    estimate:

    - in phi, where its times at PATH_ORDER and twice it differ by more
      than PANEL_TOL t; no panel is sampled until no time fails;
    - else at the phi of its tau midpoint, where the Chebyshev interpolant
      of q through 2n + 1 Lobatto points in tau (n = PANEL_DEGREE, each
      point's phi by safeguarded Newton on tau(phi), one V call per step for
      all points) and the degree-n one through every other point differ by
      more than PANEL_TOL: the sum of their coefficients' differences,
      relative to max(1, |q|) on the map.

    The kept panels' times, summed along phi, are its edges in tau and must
    match t to PATH_TOL.
    """

    def __init__(self, paths: _Paths, q_a: float, q_b: float, t: float, k: int, E: float,
                 s0: float, sums: np.ndarray | None):
        self.paths, self.ends, self.t = paths, (q_a, q_b), t
        self.k, self.E, self.s0, self.sums = k, E, s0, sums
        potential = paths.potential
        self.v0 = self.s0 * math.sqrt(
            2.0 * max(self.E - float(potential.value(paths.q_a)), 0.0) / potential.mass)

    def sample(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at N + 1 evenly spaced times from 0 to t, the ends
        q_a and q_b: one series evaluation per panel and one V call."""
        edges, coefs, signs = self._panels
        tau = np.linspace(0.0, edges[-1], N + 1)
        cuts = [0, *np.searchsorted(tau, edges[1:-1]), N + 1]
        q, sign = np.empty(N + 1), np.empty(N + 1)
        for i, c in enumerate(coefs):
            part, a, b = slice(cuts[i], cuts[i + 1]), edges[i], edges[i + 1]
            q[part] = chebyshev.chebval((2.0 * tau[part] - (a + b)) / (b - a), c)
            sign[part] = signs[i]
        q += self.paths.shift
        q[0], q[-1] = self.ends
        potential = self.paths.potential
        gap = np.maximum(self.E - potential.value(q), 0.0)
        return q, sign * np.sqrt(2.0 * gap / potential.mass)

    def _solve(self, rows: np.ndarray, tau_anchor: np.ndarray, lo: np.ndarray,
               hi: np.ndarray, tau: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """phi in (lo, hi) at each time tau, from phi: Newton on tau(phi) = tau_anchor +
        `_leg` of each row, its far end set to phi, bisecting where a step leaves the
        bracket, until |tau(phi) - tau| <= 2^-50 t or the bracket is 4 ulp wide."""
        done = np.zeros(len(phi), dtype=bool)
        for _ in range(100):
            rows[:, 5] = phi
            got, _, slope = _leg(self.paths.potential, rows)
            f = tau_anchor + got - tau
            lo, hi = np.where(f < 0.0, phi, lo), np.where(f > 0.0, phi, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = phi - f / slope
            newton = (lo <= step) & (step <= hi)
            phi = np.where(done, phi, np.where(newton, step, 0.5 * (lo + hi)))
            # a Newton step from within 2^-40 t of tau lands on it to rounding
            done |= (newton & (np.abs(f) <= 2.0 ** -40 * self.t)) | (f == 0.0) | (
                hi - lo <= 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
            if done.all():
                return phi
        raise AccuracyError("path angle not found in 100 Newton steps",
                            estimate=float(np.max(np.abs(f))))

    @cached_property
    def _panels(self):
        """(edges in tau, Chebyshev coefficients, velocity signs) of the certified panels."""
        paths, E, pi = self.paths, self.E, math.pi
        _, _, lo, hi, th_a, th_b = paths._frame(E)
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        last = self.k - 1 + (self.s0 < 0)  # phi / pi at the last turning point
        phi0 = -th_a if self.s0 > 0 else th_a
        phi1 = last * pi + th_b if last % 2 == 0 else (last + 1) * pi - th_b
        laps = range(math.floor(phi0 / pi) - 1, math.ceil(phi1 / pi) + 1)
        eps = {j * pi + th if j % 2 == 0 else (j + 1) * pi - th: scale  # each crest passage
               for th, scale in paths._crests(E, lo, hi).items() for j in laps}
        turns = {j * pi for j in laps if phi0 < j * pi < phi1}
        cuts = sorted({phi0, phi1, *turns, *(phi for phi in eps if phi0 < phi < phi1)})
        cuts += [0.5 * (x + y) for x, y in zip(cuts, cuts[1:]) if {x, y} <= turns | eps.keys()]
        cuts.sort()
        n = PANEL_DEGREE
        x = np.sin((np.arange(2 * n + 1) - n) * (0.5 * math.pi / n))  # Lobatto, ascending
        inner = 2 * n - 1  # Lobatto points strictly inside each panel
        pending, kept = [(a, b, 0) for a, b in zip(cuts, cuts[1:])], []
        while pending:
            f0, f1, depth = (np.array(column) for column in zip(*pending))
            at_end = np.array([a not in eps and (b in eps or a in turns) for a, b, _ in pending])
            anchor, far = np.where(at_end, f1, f0), np.where(at_end, f0, f1)
            grading = np.array([eps.get(a, 0.0) for a in anchor])
            rows = np.column_stack(np.broadcast_arrays(E, c, r, anchor, grading, far))
            coarse, width = (np.abs(_leg(paths.potential, rows, order)[0])
                             for order in (PATH_ORDER, 2 * PATH_ORDER))
            estimate = np.abs(width - coarse)
            good = estimate <= PANEL_TOL * self.t  # a NaN fails
            if good.all():  # every panel's time certifies: its samples are checked
                times = (0.5 * width)[:, None] + (0.5 * width)[:, None] * x
                phi = f0[:, None] + (f1 - f0)[:, None] * (0.5 * (x + 1.0))
                per_point = (np.repeat(column, inner, axis=0) for column in (
                    rows, np.where(at_end, width, 0.0), f0, f1))
                phi[:, 1:-1] = self._solve(*per_point, times[:, 1:-1].ravel(),
                                           phi[:, 1:-1].ravel()).reshape(-1, inner)
                q = c + r * np.cos(phi)
                fine = q @ _lobatto(2 * n).T
                coarse = q[:, ::2] @ _lobatto(n).T
                estimate = (np.abs(fine[:, :n + 1] - coarse).sum(axis=1)
                            + np.abs(fine[:, n + 1:]).sum(axis=1))
                good = estimate <= PANEL_TOL * max(1.0, abs(c) + r)
                kept += [(f0[i], width[i], fine[i], -np.sign(np.sin(0.5 * (f0[i] + f1[i]))))
                         for i in np.flatnonzero(good)]
                pending, mid = [], phi[:, n]
                error = f"path samples not converged in {2 ** PANEL_CAP} panels of a leg"
            else:  # the others wait, to be timed again with the halves
                pending, mid = [pending[i] for i in np.flatnonzero(good)], 0.5 * (f0 + f1)
                error = f"path time quadrature not converged in {2 ** PANEL_CAP} panels of a leg"
            if (depth[~good] == PANEL_CAP).any():
                raise AccuracyError(error, estimate=float(np.max(estimate[~good])))
            pending += [half for i in np.flatnonzero(~good) for half in (
                (f0[i], mid[i], depth[i] + 1), (mid[i], f1[i], depth[i] + 1))]
        _, widths, coefs, signs = zip(*sorted(kept, key=lambda panel: panel[0]))
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        if not abs(edges[-1] - self.t) <= PATH_TOL * self.t:
            raise AccuracyError(f"the sampled path's time misses t={self.t:g}",
                                estimate=abs(edges[-1] - self.t))
        return edges, coefs, signs


def kernel_phase(potential: Potential, q_a: float, q_b: float, t: float,
                 E: float | str = "auto", hbar: float = 1.0,
                 N: int = 4096) -> KernelPhase:
    """Converged phase (S_cl - E (t_b - t_a)) / hbar of the two-point kernel.

    Free and harmonic families take their analytic path and action.  Every
    other family solves the energy equation t(E) = t on the loop angle
    (`_Paths`): of the paths from q_a to q_b in time t it takes the one that
    passes the fewest turning points, then the lowest E, and its action
    S_cl = W(E) - E t, certified by order doubling of W (AccuracyError
    otherwise).  With no direct leg and no turning path with E up to
    e_lo + 2^50 max(1, |e_lo|), e_lo the highest V between q_a and q_b, it
    raises TrajectoryError; a direct leg over a crest at its energy raises
    SeparatrixError.  A quantity that overflows a float raises OverflowError
    naming it.  E defaults to the path's energy, and `v0` is its start
    velocity.  The Jacobian prefactor is N ln m.
    """
    if t <= 0 or N < 1:
        raise ValueError("need t > 0 and N >= 1")
    m, v_const = potential.mass, _constant_value(potential)
    if v_const is None and not isinstance(potential, Harmonic):
        path = _path(potential, q_a, q_b, t)
        e_path, v0, (w_coarse, w) = path.E, path.v0, path.sums
        estimate = abs(w - w_coarse)
        if not estimate <= PATH_TOL * max(abs(w), 1.0):  # a NaN fails
            raise AccuracyError(
                f"path action quadrature not converged at order {2 * PATH_ORDER}",
                estimate=estimate)
        s_cl = w - e_path * t
    else:  # closed forms; an overflowing v0 makes E overflow
        if v_const is None:
            omega = potential.omega
            s = _focal_sin(omega, t)  # before cos(omega t), which raises where it overflows
            v0 = omega * ((q_b - q_a * math.cos(omega * t)) / s)

            def action():
                return harmonic_two_point_action(m, omega, q_a, q_b, t)
        else:
            v0 = (q_b - q_a) / t

            def action():
                return m * (q_b - q_a) ** 2 / (2.0 * t) - v_const * t
        e_path = _checked("the path's energy E",
                          lambda: 0.5 * m * (v0 * v0) + float(potential.value(q_a)))
        s_cl = _checked("the action S_cl", action)
    return _phase(s_cl, e_path if E == "auto" else E, t, N, m, v0, hbar)
