"""Classical boundary-value trajectories and time-sliced kernel phases.

The kernel over a slice chain accumulates the phase (1/hbar) sum (L - E) dt
with left-endpoint sampling; its N -> infinity limit is the classical
action minus E (t_b - t_a).  Free and harmonic families have analytic
two-point paths and actions; everything else is solved by shooting with
RK4 on the same grid the action integral uses.  The Jacobian prefactor of
the slice product is m per slice and is reported only as N ln m, never
exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConjugatePointError, TrajectoryError
from .potentials import Harmonic, Polynomial, Potential, Rotor

#: boundary-value residual |q(t_b) - q_b| accepted by the shooting solver
SHOOTING_TOL = 1e-10
SHOOTING_CAP = 100
#: a shooting gives up after this many passes in a row without a new best residual; of
#: 1,200 random requests (quartic, Morse, pendulum, double well; t 0.1 to 4; N 1024 to
#: 8000), none that converged went 60 passes without one
SHOOTING_STALL = 64
#: the quarter-grid stage runs on shootings of at least this many slices,
#: for at most this many passes.  On coarser grids the quarter grid's own
#: error can steer the secant to another path.  In seeded sweeps of random
#: requests (quartic, Morse, pendulum, double well; t up to 4) a landed stage
#: changed the branch of 76 of 541 requests under 8 slices, 33 of 1,652 from
#: 8 to 63 and 1 of 2,240 from 64 to 1023; from 1024 slices up it changed
#: none of the 4,157 that solve
_STAGE_MIN_SLICES = 1024
_STAGE_CAP = 8


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
    picks the branch the secant converges to.  Without v_start, N >= 1024
    slices first shoot on N // 4 and start from that velocity when it
    converged within 8 passes (else from the line).  Harmonic focal times
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
    if v_start is None and N >= _STAGE_MIN_SLICES:
        # a quarter grid finds the start velocity to about 1e-13 at a quarter
        # of the cost, so the full grid's first pass usually lands.  A stage
        # that needs more passes than _STAGE_CAP may be heading for another
        # branch: it is dropped, and the full grid starts from the line.  The
        # stage's own overflows only end it, so they raise no warning
        try:
            with np.errstate(all="ignore"):
                v = float(_shoot(potential, q_a, q_b, t, N // 4, v, _STAGE_CAP)[1][0])
        except TrajectoryError:
            pass
    qs, vs = _shoot(potential, q_a, q_b, t, N, v, SHOOTING_CAP)
    return Trajectory(times=times, positions=qs, velocities=vs, mass=potential.mass)


def _shoot(potential: Potential, q_a: float, q_b: float, t: float, N: int,
           v: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 path (qs, vs) of the first secant pass on v that ends within SHOOTING_TOL of
    q_b; TrajectoryError after cap passes, or SHOOTING_STALL without a new best residual."""
    v_prev = r_prev = None
    best, stall = math.inf, 0
    for passes in range(1, cap + 1):
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
    n = traj.slices
    dt = traj.duration / n
    lag = _lagrangian(traj, potential)
    s_sliced = float(np.sum(lag[:-1]) * dt)
    energy_phase = E * traj.duration
    return KernelPhase(
        S_cl=s_sliced,
        energy=E,
        energy_phase=energy_phase,
        total_phase=(s_sliced - energy_phase) / hbar,
        prefactor_log=n * math.log(traj.mass),
        slices=n,
        v0=float(traj.velocities[0]),
    )


def kernel_phase(potential: Potential, q_a: float, q_b: float, t: float,
                 E: float | str = "auto", hbar: float = 1.0,
                 N: int = 4096) -> KernelPhase:
    """Converged phase (S_cl - E (t_b - t_a)) / hbar of the two-point kernel.

    S_cl comes from the analytic action for free and harmonic families and
    from the trapezoid limit of the shooting path otherwise.  E defaults
    to the conserved energy of the chosen trajectory.
    """
    traj = classical_trajectory(potential, q_a, q_b, t, N)

    v0 = _constant_value(potential)
    if v0 is not None:
        s_cl = potential.mass * (q_b - q_a) ** 2 / (2.0 * t) - v0 * t
    elif isinstance(potential, Harmonic):
        s_cl = harmonic_two_point_action(potential.mass, potential.omega, q_a, q_b, t)
    else:
        s_cl = classical_action(traj, potential)

    if E == "auto":
        E = float(traj.sampled_energy(potential)[0])
    energy_phase = E * t
    return KernelPhase(
        S_cl=s_cl,
        energy=E,
        energy_phase=energy_phase,
        total_phase=(s_cl - energy_phase) / hbar,
        prefactor_log=N * math.log(potential.mass),
        slices=N,
        v0=float(traj.velocities[0]),
    )
