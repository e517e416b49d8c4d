"""Classical boundary-value trajectories and time-sliced kernel phases.

The kernel over a slice chain accumulates the phase (1/hbar) sum (L - E) dt
with left-endpoint sampling; its N -> infinity limit is the classical
action minus E (t_b - t_a).  Free and harmonic families have analytic
two-point paths and actions.  Every other family takes its limit from the
energy equation: a path of energy E from q_a to q_b takes the time
t(E) = integral of m dq / p along its legs and has the abbreviated action
W(E) = integral of p dq, so the path of t(E) = t has the action
S_cl = W(E) - E t (`kernel_phase`).  Slice chains are RK4 paths on their own
grid, shot from a start velocity.  The Jacobian prefactor of the slice
product is m per slice and is reported only as N ln m, never exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bohr_sommerfeld import SEPARATRIX_TOL, _integrals, _nodes, _wall
from .errors import AccuracyError, ConjugatePointError, SeparatrixError, TrajectoryError
from .potentials import Harmonic, Polynomial, Potential, Rotor, Stability, _walk

#: boundary-value residual |q(t_b) - q_b| accepted by the shooting solver
SHOOTING_TOL = 1e-10
SHOOTING_CAP = 100
#: a shooting gives up after this many passes in a row without a new best residual; of
#: 1,200 random requests (quartic, Morse, pendulum, double well; t 0.1 to 4; N 1024 to
#: 8000), none that converged went 60 passes without one
SHOOTING_STALL = 64
#: Gauss-Legendre order of a path's t(E) and W(E), checked against twice this order
PATH_ORDER = 32
#: largest order-doubling estimate of W(E), relative to max(|W|, 1), that certifies S_cl
PATH_TOL = 1e-10


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

    def sampled_energy(self, potential: Potential) -> np.ndarray:
        v = np.asarray(potential.value(self.positions), dtype=float)
        return 0.5 * self.mass * self.velocities**2 + v


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


def _constant_value(potential: Potential) -> float | None:
    """V0 when the force vanishes identically, else None."""
    if isinstance(potential, Rotor):
        return 0.0
    if isinstance(potential, Polynomial) and all(c == 0.0 for c in potential.coeffs[1:]):
        return float(potential.coeffs[0])
    return None


def _lagrangian(traj: Trajectory, potential: Potential) -> np.ndarray:
    v = np.asarray(potential.value(traj.positions), dtype=float)
    return 0.5 * traj.mass * traj.velocities**2 - v


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
                         t: float, N: int, v_start: float | None = None) -> Trajectory:
    """Path from q_a to q_b in time t solving the Euler-Lagrange dynamics.

    Force-free and harmonic families use their analytic two-point
    solutions; other potentials shoot on the initial velocity with secant
    updates, from v_start (default the straight line's (q_b - q_a) / t),
    until a pass ends with |q(t_b) - q_b| <= SHOOTING_TOL.  The start
    picks the branch the secant converges to.  Harmonic focal times
    (omega t a multiple of pi) raise ConjugatePointError: the two-point
    problem is there either unsolvable or degenerate.
    """
    if t <= 0 or N < 1:
        raise ValueError("need t > 0 and N >= 1")
    times = np.linspace(0.0, t, N + 1)

    if _constant_value(potential) is not None:
        vel = (q_b - q_a) / t
        return Trajectory(times=times, positions=q_a + vel * times,
                          velocities=np.full(N + 1, vel), mass=potential.mass)

    if isinstance(potential, Harmonic):
        w = potential.omega
        s = math.sin(w * t)
        if abs(s) < 1e-12:
            raise ConjugatePointError(
                f"omega*t = {w * t:g} is a focal time; endpoints conjugate"
            )
        b = (q_b - q_a * math.cos(w * t)) / s
        qs = q_a * np.cos(w * times) + b * np.sin(w * times)
        vs = w * (-q_a * np.sin(w * times) + b * np.cos(w * times))
        return Trajectory(times=times, positions=qs, velocities=vs, mass=potential.mass)

    v = (q_b - q_a) / t if v_start is None else float(v_start)
    qs, vs = _shoot(potential, q_a, q_b, t, N, v)
    return Trajectory(times=times, positions=qs, velocities=vs, mass=potential.mass)


def _shoot(potential: Potential, q_a: float, q_b: float, t: float, N: int,
           v: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 path (qs, vs) of the first secant pass on v that ends within SHOOTING_TOL of
    q_b; TrajectoryError after SHOOTING_CAP passes, or SHOOTING_STALL without a new best
    residual."""
    v_prev = r_prev = None
    best, stall = math.inf, 0
    for passes in range(1, SHOOTING_CAP + 1):
        qs, vs = _rk4(potential, q_a, v, t, N)
        r = qs[-1] - q_b
        if abs(r) <= SHOOTING_TOL:
            return qs, vs
        best, stall = (abs(r), 0) if abs(r) < best else (best, stall + 1)
        if stall == SHOOTING_STALL:
            break
        if r_prev is None:  # the first pass: step aside to start the secant
            v_prev, r_prev, v = v, r, v + max(1e-3, 1e-3 * abs(v))
        elif r == r_prev:
            v += max(1e-6, 1e-6 * abs(v))
        else:
            v_prev, r_prev, v = v, r, v - r * (v - v_prev) / (r - r_prev)
    raise TrajectoryError(
        f"shooting failed to hit q_b={q_b:g} within {passes} iterations "
        f"(last residual {r:.3e})"
    )


def harmonic_two_point_action(m: float, omega: float, q_a: float, q_b: float,
                              t: float) -> float:
    """Closed-form action of the harmonic two-point path."""
    s = math.sin(omega * t)
    if abs(s) < 1e-12:
        raise ConjugatePointError(f"omega*t = {omega * t:g} is a focal time")
    return (m * omega / (2.0 * s)) * ((q_a**2 + q_b**2) * math.cos(omega * t)
                                      - 2.0 * q_a * q_b)


def classical_action(traj: Trajectory, potential: Potential) -> float:
    """Trapezoid integral of L = m v^2 / 2 - V along the sampled path."""
    return float(np.trapezoid(_lagrangian(traj, potential), traj.times))


def loop_action(traj: Trajectory) -> float:
    """Integral of p dq = m v^2 dt accumulated along the sampled path."""
    return float(np.trapezoid(traj.mass * traj.velocities**2, traj.times))


def sliced_phase(traj: Trajectory, potential: Potential, E: float,
                 hbar: float = 1.0) -> KernelPhase:
    """Left-endpoint Riemann sum of (L - E) dt / hbar over the slice chain."""
    dt = traj.duration / traj.slices
    lag = _lagrangian(traj, potential)
    return _phase(float(np.sum(lag[:-1]) * dt), E, traj.duration, traj.slices, traj.mass,
                  float(traj.velocities[0]), hbar)


def _angle(q: float, lo: float, hi: float) -> float:
    """theta of q on q = c + r cos(theta) from hi (theta = 0) to lo (pi), taken from
    the nearer end, where it is least rounded."""
    if hi - q <= q - lo:
        return 2.0 * math.asin(math.sqrt(min(max((hi - q) / (hi - lo), 0.0), 1.0)))
    return math.pi - 2.0 * math.asin(math.sqrt(min(max((q - lo) / (hi - lo), 0.0), 1.0)))


def _graded_nodes(crest: float, far: float, eps: float):
    """`_nodes` from a crest to `far` on theta = crest + eps sinh(u), u from 0 to
    asinh(|far - crest| / eps).  Where p^2 is delta + (a (theta - crest))^2 near the
    crest, eps = sqrt(delta) / a and dtheta / p is flat in u."""
    u, _, _, w = _nodes(PATH_ORDER, 0.0, math.asinh(abs(far - crest) / eps))
    theta = crest + math.copysign(eps, far - crest) * np.sinh(u)
    return theta, np.cos(theta), np.sin(theta), eps * np.cosh(u) * w


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
        if potential.period is not None:  # the same paths a whole number of periods on
            shift = potential.period * round(q_a / potential.period)
            q_a, q_b = q_a - shift, q_b - shift
        self.potential, self.q_a, self.q_b = potential, q_a, q_b
        land = potential.landscape
        self.walks = tuple(_walk(potential, land.equilibria, q_a, direction, periods=1.0)
                           for direction in (+1.0, -1.0))
        #: (q, V, -V'') of each maximum, where p dips
        self.tops = [(pt.q0, float(potential.value(pt.q0)), -pt.curvature)
                     for pt in land.equilibria if pt.stability is Stability.MAXIMUM]
        lo, hi = min(q_a, q_b), max(q_a, q_b)
        ends = max(float(potential.value(q_a)), float(potential.value(q_b)))
        top = max((float(potential.value(pt.q0)) for pt in land.equilibria
                   if pt.stability is not Stability.MINIMUM and lo - 1e-9 <= pt.q0 <= hi + 1e-9),
                  default=-math.inf)
        #: every path has E above V's highest point between q_a and q_b; where that is an
        #: equilibrium, a crest, no path has E within `floor` of it
        self.e_lo, self.crest = max(ends, top), top >= ends
        self.floor = SEPARATRIX_TOL * max(1.0, abs(self.e_lo))

    def _frame(self, E: float):
        """The walls (a, b) at E, None where open, and the ends (lo, hi) of the theta map."""
        b, a = (_wall(self.potential, walk, E) for walk in self.walks)
        lo = min(self.q_a, self.q_b) if a is None else a
        hi = max(self.q_a, self.q_b) if b is None else b
        return a, b, lo, hi

    def _sums(self, E: float, lo: float, hi: float, segments) -> np.ndarray:
        """`_integrals` over each theta segment of the map from hi to lo, one column per
        segment (0 where empty): rows p dq at PATH_ORDER and twice it, m dq / p at twice it.

        p dips to sqrt(2 m delta) at a crest that E clears by delta, over a
        theta width eps; each segment is split at its crests, and each part's
        rule is graded towards its crest end (`_graded_nodes`).
        """
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        eps = {}
        for q, v, kappa in self.tops:
            if lo < q < hi and E > v:
                th = _angle(q, lo, hi)
                eps[th] = math.sqrt(2.0 * (E - v) / kappa) / (r * math.sin(th))
        blocks, owners = [], []
        for j, (th0, th1) in enumerate(segments):
            cuts = sorted({th0, th1, *(th for th in eps if th0 <= th <= th1)})
            for start, end in zip(cuts[:-1], cuts[1:]):
                if start in eps and end in eps:  # a crest at each end: grade each half
                    mid = 0.5 * (start + end)
                    parts = [_graded_nodes(start, mid, eps[start]),
                             _graded_nodes(end, mid, eps[end])]
                elif start in eps or end in eps:
                    crest, far = (start, end) if start in eps else (end, start)
                    parts = [_graded_nodes(crest, far, eps[crest])]
                else:
                    parts = [_nodes(PATH_ORDER, start, end)]
                for _, cos, sin, w in parts:
                    blocks.append((c + r * cos, r * sin * w))
                    owners.append(j)
        sums = np.zeros((len(segments), 3))
        if blocks:
            np.add.at(sums, owners, _integrals(self.potential, E, blocks, PATH_ORDER))
        return sums.T

    def direct(self, E: float) -> np.ndarray:
        """`_integrals` of the leg straight from q_a to q_b at E."""
        _, _, lo, hi = self._frame(E)
        th_a, th_b = _angle(self.q_a, lo, hi), _angle(self.q_b, lo, hi)
        return self._sums(E, lo, hi, [(min(th_a, th_b), max(th_a, th_b))])[:, 0]

    def pieces(self, E: float):
        """Whether a and b are walls at E, and `_integrals` of the pieces from q_a to b,
        from q_a to a, from q_b to b and from q_b to a."""
        a, b, lo, hi = self._frame(E)
        th_a, th_b = _angle(self.q_a, lo, hi), _angle(self.q_b, lo, hi)
        sums = self._sums(E, lo, hi, [(0.0, th_a), (th_a, math.pi), (0.0, th_b), (th_b, math.pi)])
        return a is not None, b is not None, sums

    def direct_energy(self, t: float) -> float | None:
        """E of the path straight from q_a to q_b in time t, or None.

        Its time falls as E rises, so the first root bracket is the last
        one: a factor of 8 in E - e_lo from the straight line's kinetic
        energy, up, or down to e_lo (to `floor` above a crest, where the
        time diverges: SeparatrixError when t is still too long there).
        """
        if self.q_a == self.q_b:
            return None

        def excess(E):
            return self.direct(E)[2] - t

        bottom = self.floor if self.crest else 0.0
        x = max(0.5 * self.potential.mass * ((self.q_b - self.q_a) / t) ** 2, self.floor)
        gx = excess(self.e_lo + x)
        if gx >= 0.0:
            while gx >= 0.0:  # too slow: raise the energy
                lo, g_lo, x = x, gx, 8.0 * x
                if not x < 1e300:
                    return None
                gx = excess(self.e_lo + x)
            hi, g_hi = x, gx
        else:
            while gx < 0.0:  # too fast: lower it
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
            lo, g_lo = x, gx
        return _root(excess, self.e_lo + lo, g_lo, self.e_lo + hi, g_hi, t)

    def _grid(self) -> np.ndarray:
        """Energies of the branch scan: e_lo + floor 2^(j/2) up to 2^50 max(1, |e_lo|),
        and 60 steps of 2^(-1/2) towards each energy where a wall opens."""
        scale = max(1.0, abs(self.e_lo))
        top = self.e_lo + 2.0 ** 50 * scale
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
        samples = [self.pieces(E) for E in grid]
        has_a = np.array([s[0] for s in samples], dtype=bool)
        has_b = np.array([s[1] for s in samples], dtype=bool)
        times = np.array([s[2][2] for s in samples]).reshape(len(grid), 4)
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
                        return self.pieces(E)[2][2, covered] @ counts - t

                    found.append((k, _root(branch_excess, float(grid[i]), float(excess[i]),
                                           float(grid[i + 1]), float(excess[i + 1]), t), s0))
            yield from sorted(found)

    def limit(self, t: float) -> tuple[float, float, float]:
        """(E, v0, S_cl) of the default path in time t, S_cl = W(E) - E t certified by
        order doubling of W: the fewest turning points, then the lowest E."""
        E = self.direct_energy(t)
        if E is not None:
            s0, sums = math.copysign(1.0, self.q_b - self.q_a), self.direct(E)
        else:
            branch = next(self.bounced_branches(t), None)
            if branch is None:
                raise TrajectoryError(
                    f"no classical path from q_a={self.q_a:g} to q_b={self.q_b:g} in t={t:g} "
                    f"with energy from {self.e_lo:g} to "
                    f"{self.e_lo + 2.0 ** 50 * max(1.0, abs(self.e_lo)):g}")
            k, E, s0 = branch
            covered, counts = _coefficients(s0, k)
            sums = self.pieces(E)[2][:, covered] @ counts
        w_coarse, w = sums[0], sums[1]
        estimate = abs(w - w_coarse)
        if not estimate <= PATH_TOL * max(abs(w), 1.0):  # a NaN fails
            raise AccuracyError(
                f"path action quadrature not converged at order {2 * PATH_ORDER}",
                estimate=estimate)
        m = self.potential.mass
        v0 = s0 * math.sqrt(2.0 * max(E - float(self.potential.value(self.q_a)), 0.0) / m)
        return E, v0, w - E * t


def _root(f, a: float, fa: float, b: float, fb: float, t: float) -> float:
    """A root of the time excess f between a and b, where fa and fb differ in sign:
    Anderson-Bjoerck false position, bisecting where a step leaves the bracket.  Stops
    once |f| <= 2^-50 t, the rounding of a path's time, or the bracket is 4 ulp wide."""
    for _ in range(100):
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
        fc = f(c)
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
    SeparatrixError.  E defaults to the path's energy, and `v0` is its start
    velocity.  The Jacobian prefactor is N ln m.
    """
    if t <= 0 or N < 1:
        raise ValueError("need t > 0 and N >= 1")
    v_const = _constant_value(potential)
    if v_const is not None or isinstance(potential, Harmonic):
        start = classical_trajectory(potential, q_a, q_b, t, 1)
        e_path, v0 = float(start.sampled_energy(potential)[0]), float(start.velocities[0])
        if v_const is not None:
            s_cl = potential.mass * (q_b - q_a) ** 2 / (2.0 * t) - v_const * t
        else:
            s_cl = harmonic_two_point_action(potential.mass, potential.omega, q_a, q_b, t)
    else:
        e_path, v0, s_cl = _Paths(potential, q_a, q_b).limit(t)
    return _phase(s_cl, e_path if E == "auto" else E, t, N, potential.mass, v0, hbar)
