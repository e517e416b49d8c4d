import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

import test_bohr_sommerfeld
from phasekit import (
    AccuracyError,
    ConjugatePointError,
    Harmonic,
    Morse,
    Pendulum,
    Polynomial,
    Quartic,
    Rotor,
    SeparatrixError,
)
from phasekit import propagator
from phasekit.bohr_sommerfeld import action, quantize, turning_points
from phasekit.cli import main
from phasekit.propagator import (
    classical_action,
    classical_trajectory,
    harmonic_two_point_action,
    initial_value_trajectory,
    kernel_phase,
    loop_action,
    sliced_phase,
)

FREE = Polynomial(m=1.0, coeffs=(0.0,))
_SCALE = st.floats(0.5, 2.0)


class TestClassicalTrajectory:
    def test_free_particle_is_a_straight_line(self):
        traj = classical_trajectory(FREE, 0.0, 1.0, 2.0, 16)
        assert np.allclose(traj.positions, traj.times * 0.5)
        assert np.allclose(traj.velocities, 0.5)

    def test_free_rotation_is_uniform(self):
        traj = classical_trajectory(Rotor(), 0.5, 1.5, 2.0, 32)
        assert traj.positions[0] == 0.5
        assert traj.positions[-1] == pytest.approx(1.5, abs=1e-14)
        assert np.allclose(traj.velocities, 0.5)

    def test_harmonic_endpoints_and_energy(self):
        traj = classical_trajectory(Harmonic(), 1.0, 1.0, math.pi / 2, 256)
        assert traj.positions[0] == pytest.approx(1.0)
        assert traj.positions[-1] == pytest.approx(1.0, abs=1e-12)
        es = traj.sampled_energy(Harmonic())
        assert np.ptp(es) <= 1e-12

    def test_focal_time_raises(self):
        with pytest.raises(ConjugatePointError):
            classical_trajectory(Harmonic(), 0.0, 1.0, math.pi, 64)

    def test_the_sampled_path_hits_the_far_endpoint(self):
        traj = classical_trajectory(Quartic(), 0.0, 1.0, 1.0, 4096)
        assert (traj.positions[0], traj.positions[-1]) == (0.0, 1.0)

    def test_the_sampled_path_conserves_energy(self):
        traj = classical_trajectory(Quartic(), 0.0, 1.0, 1.0, 4096)
        assert np.ptp(traj.sampled_energy(Quartic())) <= 1e-10

    @pytest.mark.parametrize("t,N", [(0.0, 16), (-1.0, 16), (1.0, 0)])
    def test_bad_arguments(self, t, N):
        with pytest.raises(ValueError):
            classical_trajectory(FREE, 0.0, 1.0, t, N)


class TestActions:
    def test_harmonic_closed_form_at_quarter_period(self):
        # cos(omega t) = 0 leaves -m omega q_a q_b / sin(omega t)
        assert harmonic_two_point_action(1.0, 1.0, 1.0, 1.0, math.pi / 2) == pytest.approx(-1.0, rel=1e-12)

    def test_harmonic_focal_action_raises(self):
        with pytest.raises(ConjugatePointError):
            harmonic_two_point_action(1.0, 1.0, 0.0, 1.0, math.pi)

    def test_trapezoid_action_matches_the_closed_form(self):
        traj = classical_trajectory(Harmonic(), 0.3, 0.9, 1.2, 8192)
        exact = harmonic_two_point_action(1.0, 1.0, 0.3, 0.9, 1.2)
        assert classical_action(traj, Harmonic()) == pytest.approx(exact, abs=1e-8)

    def test_free_action_is_kinetic_only(self):
        traj = classical_trajectory(FREE, 0.0, 1.0, 2.0, 64)
        assert classical_action(traj, FREE) == pytest.approx(0.25, rel=1e-12)

    def test_loop_action_over_one_period_equals_the_action_integral(self):
        prof = action(Quartic(), 1.0)
        a, _ = turning_points(Quartic(), 1.0)
        traj = initial_value_trajectory(Quartic(), a, 0.0, prof.dJ_dE, 20000)
        assert traj.positions[-1] == pytest.approx(a, abs=1e-9)
        assert loop_action(traj) == pytest.approx(prof.action, rel=1e-10)


class TestSlicedPhase:
    def test_free_particle_left_sum_is_exact_at_any_slicing(self):
        for N in (4, 64, 1000):
            traj = classical_trajectory(FREE, 0.0, 1.0, 2.0, N)
            sp = sliced_phase(traj, FREE, E=0.25)
            assert sp.S_cl == pytest.approx(0.25, rel=1e-12)
            assert sp.total_phase == pytest.approx((0.25 - 0.5) / 1.0, rel=1e-12)

    def test_degenerate_harmonic_endpoints_converge_at_second_order(self):
        # with q_a = q_b the Lagrangian vanishes at both ends and the left
        # sum loses its linear error term: the defect is exactly h^2/3
        t = math.pi / 2
        limit = harmonic_two_point_action(1.0, 1.0, 1.0, 1.0, t)
        errors = []
        for N in (1000, 2000):
            traj = classical_trajectory(Harmonic(), 1.0, 1.0, t, N)
            errors.append(sliced_phase(traj, Harmonic(), E=0.0).S_cl - limit)
            h = t / N
            assert errors[-1] == pytest.approx(h * h / 3.0, rel=1e-4)
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=1e-3)

    def test_generic_harmonic_endpoints_converge_at_first_order(self):
        limit = harmonic_two_point_action(1.0, 1.0, 0.0, 1.0, 1.0)
        errors = []
        for N in (1000, 2000):
            traj = classical_trajectory(Harmonic(), 0.0, 1.0, 1.0, N)
            errors.append(abs(sliced_phase(traj, Harmonic(), E=0.0).S_cl - limit))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=5e-3)

    def test_prefactor_log_is_slices_times_log_mass(self):
        heavy = Polynomial(m=2.0, coeffs=(0.0,))
        traj = classical_trajectory(heavy, 0.0, 1.0, 2.0, 512)
        sp = sliced_phase(traj, heavy, E=0.0)
        assert sp.prefactor_log == pytest.approx(512 * math.log(2.0), rel=1e-12)
        assert sp.slices == 512


class TestKernelPhase:
    def test_harmonic_quarter_period(self):
        kp = kernel_phase(Harmonic(), 1.0, 1.0, math.pi / 2)
        assert kp.S_cl == pytest.approx(-1.0, rel=1e-12)
        assert kp.energy == pytest.approx(1.0, rel=1e-12)
        assert kp.total_phase == pytest.approx(-1.0 - math.pi / 2, rel=1e-12)

    def test_explicit_energy_shifts_the_phase_linearly(self):
        base = kernel_phase(FREE, 0.0, 1.0, 2.0, E=0.0, N=256)
        shifted = kernel_phase(FREE, 0.0, 1.0, 2.0, E=0.3, N=256)
        assert shifted.total_phase - base.total_phase == pytest.approx(-0.6, rel=1e-12)
        assert shifted.energy_phase == pytest.approx(0.6, rel=1e-12)

    def test_hbar_scales_the_phase(self):
        one = kernel_phase(Harmonic(), 0.2, 0.8, 1.0, E=0.0)
        two = kernel_phase(Harmonic(), 0.2, 0.8, 1.0, E=0.0, hbar=2.0)
        assert one.total_phase == pytest.approx(2.0 * two.total_phase, rel=1e-12)

    def test_quartic_kernel_solves_the_energy_equation(self, monkeypatch):
        passes = []
        rk4 = propagator._rk4
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a[4]) or rk4(*a))
        kp = kernel_phase(Quartic(), 0.0, 1.0, 1.0, N=4096)
        # neither the limit nor its samples run an RK4 pass; the samples start at v0, at
        # the limit's energy
        traj = classical_trajectory(Quartic(), 0.0, 1.0, 1.0, 4096)
        assert passes == []
        assert traj.velocities[0] == kp.v0
        assert np.ptp(traj.sampled_energy(Quartic()) - kp.energy) <= 1e-10
        # the trapezoid sum over the path converges to S_cl at second order
        assert classical_action(traj, Quartic()) == pytest.approx(kp.S_cl, abs=1e-7)
        assert (kp.slices, kp.prefactor_log) == (4096, 0.0)


# anharmonic two-point problems short of their first focal time, as `propagate` gets them
BENCHMARK_SHAPES = [
    (Quartic(), 1.0, -1.0, 0.6),
    (Morse(depth=10.0), 0.5, -0.25, 0.35 * math.pi / math.sqrt(20.0)),
    (Pendulum(amplitude=2.0), 1.0, -1.0, 0.7),
]
TILTED_WELL = Polynomial(coeffs=(0.0, 0.3, -2.0, 0.0, 0.5))


def _morse_branch(k):
    """The `_Path` of the Morse depth 10 request from 0.5 to -0.25 in t = 2 that passes k
    turning points (both pinned in TestMorseBranches)."""
    paths = propagator._Paths(Morse(depth=10.0), 0.5, -0.25)
    branch = next(b for b in paths.bounced_branches(2.0) if b[0] == k)
    return propagator._Path(paths, 0.5, -0.25, 2.0, *branch, sums=None)


#: the largest |q - RK4| / max(1, |q|) over the paths below, RK4 on 8192 steps, was
#: 3.1e-12 (Morse, one turning point: 5.6e-12 at |q| up to 1.8), and 4.2e-13 on the others
DYNAMICS_TOL = 1e-11


class TestSampledPaths:
    @pytest.mark.parametrize("potential, q_a, q_b, t, slices", [
        (*shape, slices) for shape, slices in zip(
            BENCHMARK_SHAPES, ("2000,4000", "1400,2800", "3000,6000"))
    ], ids=["quartic", "morse", "pendulum"])
    def test_a_request_runs_no_rk4_and_one_energy_equation_solve(
            self, potential, q_a, q_b, t, slices, monkeypatch, capsys):
        # the limit and every slice count share one solve of the energy equation, and
        # each row samples its path with no RK4 pass
        argv = ["propagate", "--potential", json.dumps(potential.to_json()), "--from", str(q_a),
                "--to", str(q_b), "--time", repr(t), "--slices", slices]
        passes, solves = [], []
        rk4, path = propagator._rk4, propagator._Paths.path
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a[4]) or rk4(*a))
        monkeypatch.setattr(propagator._Paths, "path",
                            lambda self, t: solves.append(t) or path(self, t))
        propagator._path.cache_clear()
        assert main(argv) == 0, capsys.readouterr().err
        assert (passes, solves) == ([], [t])
        payload = json.loads(capsys.readouterr().out)
        counts = [int(n) for n in slices.split(",")]
        limit = kernel_phase(potential, q_a, q_b, t, N=max(counts))
        assert (payload["S_cl"], payload["E"]) == (limit.S_cl, limit.energy)
        for n, row in zip(counts, payload["convergence"]):
            traj = classical_trajectory(potential, q_a, q_b, t, n)
            assert row["sliced_phase"] == sliced_phase(traj, potential, limit.energy).total_phase

    @pytest.mark.parametrize("path", [
        *(lambda shape=shape: propagator._path(*shape) for shape in BENCHMARK_SHAPES),
        lambda: _morse_branch(1), lambda: _morse_branch(2),
        lambda: propagator._path(Pendulum(), 0.0, 30.0, 3.0),
        lambda: propagator._path(TILTED_WELL, -1.0, 1.0, 3.0),
    ], ids=["quartic", "morse", "pendulum", "morse-one-turn", "morse-two-turns",
            "pendulum-over-five-crests", "tilted-double-well-over-its-crest"])
    def test_samples_follow_the_equations_of_motion(self, path):
        # RK4 from the path's v0, no code shared with the energy equation or the sampler
        path = path()
        q_a, _ = path.ends
        positions, _ = path.sample(8192)
        rk4 = initial_value_trajectory(path.paths.potential, q_a, path.v0, path.t, 8192)
        scale = max(1.0, np.max(np.abs(positions)))
        assert np.max(np.abs(positions - rk4.positions)) <= DYNAMICS_TOL * scale

    @pytest.mark.parametrize("path, message", [
        (lambda: _morse_branch(1), r"^path samples not converged in 1 panels of a leg$"),
        (lambda: propagator._path.__wrapped__(Pendulum(), 0.0, 30.0, 3.0),
         r"^path time quadrature not converged in 1 panels of a leg$"),
    ], ids=["panel", "segment"])
    def test_a_panel_past_its_cap_is_an_accuracy_error(self, path, message, monkeypatch):
        # the Morse path that turns once needs two rounds of halvings at tau midpoints, the
        # pendulum over five crests a halving in phi first: each fails at depth 0
        monkeypatch.setattr(propagator, "PANEL_CAP", 0)
        with pytest.raises(AccuracyError, match=message) as info:
            path()._panels
        assert info.value.estimate > propagator.PANEL_TOL

    @pytest.mark.xfail(strict=True, raises=AccuracyError, reason=(
        "the piece that ends at the turning point fails its time check: each halving crowds "
        "its Gauss nodes nearer the wall, where E - V(q) cancels, and the estimate grows"))
    def test_a_one_turn_pendulum_path_the_sampler_refuses(self):
        # one of 13 in 200 requests of the seeded sweep below, all with one turning point:
        # S_cl certifies, RK4 from v0 on 8192 steps lands on q_b within 1e-11, and the RK4
        # shooting that made the rows before the sampler printed them.  The sampler's time
        # estimate of the piece grows from 7.2e-11 to 5.3e-8 over its 8 halvings
        pendulum = Pendulum(m=1.797167443101161, amplitude=0.7675886822015231)
        q_a, q_b, t = -0.47691796675644227, -0.28090375528569345, 1.5176636858170465
        limit = kernel_phase(pendulum, q_a, q_b, t)
        assert limit.S_cl == pytest.approx(1.0961270659582942, rel=1e-14)
        rk4 = initial_value_trajectory(pendulum, q_a, limit.v0, t, 8192)
        assert rk4.positions[-1] == pytest.approx(q_b, abs=1e-11)
        positions = classical_trajectory(pendulum, q_a, q_b, t, 8192).positions
        scale = max(1.0, np.max(np.abs(positions)))
        assert np.max(np.abs(positions - rk4.positions)) <= DYNAMICS_TOL * scale

    @pytest.mark.parametrize("potential, n, hbar", [
        (Quartic(), 1, 1.0), (Quartic(), 3, 1.0), (Quartic(), 6, 1.0),
        (Morse(depth=10.0), 0, 1.0), (Morse(depth=10.0), 2, 1.0), (Morse(depth=10.0), 3, 1.0),
        (Pendulum(amplitude=5.0), 0, 0.5), (Pendulum(amplitude=5.0), 2, 0.5),
    ], ids=["quartic-1", "quartic-3", "quartic-6", "morse-0", "morse-2", "morse-3",
            "pendulum-0", "pendulum-2"])
    def test_closed_path_action_meets_the_quantized_loop_action(self, potential, n, hbar):
        # the Bohr-Sommerfeld <-> path-integral bridge: over one period the
        # classical action plus E T is the loop action, S_cl + E T = J(E).
        # S_cl is RK4 plus the trapezoid, J and T Gauss quadrature: no shared code
        level = quantize(potential, [n], hbar=hbar).levels[0]
        E, T, J = level.energy, level.period, level.action
        q_a = 0.0  # every well here has its minimum at the origin
        p = math.sqrt(2.0 * potential.mass * (E - float(potential.value(q_a))))
        traj = initial_value_trajectory(potential, q_a, p / potential.mass, T, 16000)
        assert traj.positions[-1] == pytest.approx(q_a, abs=1e-9)
        assert classical_action(traj, potential) + E * T == pytest.approx(J, rel=1e-10)


def _benchmark_draw(rng, family):
    """A two-point request in the ranges of the benchmark's anharmonic `propagate` ops:
    (potential, q_a, q_b, t, the smaller of its two slice counts)."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    if family == "quartic":
        potential = Quartic(m=u(0.7, 1.5), lam=u(0.5, 2.0))
        return potential, u(0.8, 1.2), u(-1.2, -0.8), u(0.5, 0.7), 2000
    if family == "morse":
        potential = Morse(m=u(0.8, 1.5), depth=u(8.0, 15.0), width=u(0.6, 1.0))
        omega = potential.width * math.sqrt(2.0 * potential.depth / potential.m)
        return potential, u(0.4, 0.6), u(-0.3, -0.2), u(0.3, 0.4) * math.pi / omega, 1400
    potential = Pendulum(m=u(0.8, 1.5), amplitude=u(1.0, 3.0))
    return potential, u(0.8, 1.2), u(-1.2, -0.8), u(0.6, 0.8), 3000


def _reference_action(potential, q_a, q_b, t, E, crests=()):
    """W - E t of the direct leg at E by adaptive quadrature, split at the crests."""
    m = potential.mass

    def p(q):
        return math.sqrt(max(2.0 * m * (E - float(potential.value(q))), 0.0))

    ends = [min(q_a, q_b), *sorted(crests), max(q_a, q_b)]
    w = sum(quad(p, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(ends[:-1], ends[1:]))
    return w - E * t


#: the largest |S_cl - reference| / max(1, |reference|) over 360 draws of
#: `_benchmark_draw` (seeds 1 to 6) was 3.1e-15; the reference is asked for 1e-13
S_CL_TOL = 1e-13


class TestEnergyEquation:
    def test_benchmark_shaped_draws(self):
        # 60 draws: S_cl matches an adaptive W - E t, and RK4 from the limit's v0 on the
        # smaller slice count lands on q_b and on the samples
        rng = np.random.default_rng(26)
        for i in range(60):
            family = ("quartic", "morse", "pendulum")[i % 3]
            potential, q_a, q_b, t, s = _benchmark_draw(rng, family)
            limit = kernel_phase(potential, q_a, q_b, t, N=4096)
            reference = _reference_action(potential, q_a, q_b, t, limit.energy)
            assert abs(limit.S_cl - reference) <= S_CL_TOL * max(1.0, abs(reference))
            rk4 = initial_value_trajectory(potential, q_a, limit.v0, t, s)
            sampled = classical_trajectory(potential, q_a, q_b, t, s)
            assert np.max(np.abs(sampled.positions - rk4.positions)) <= DYNAMICS_TOL

    @pytest.mark.parametrize("potential, q_a, q_b, t", [
        (Morse(depth=10.0), 0.5, -0.25, 0.5),
        (Quartic(), 1.0, -1.0, 0.6),
        (Pendulum(amplitude=5.0), 1.0, -1.0, 0.7),
        (Polynomial(coeffs=(0.0, 0.3, -2.0, 0.0, 0.5)), -1.0, 1.0, 3.0),
        (Pendulum(), 0.0, 2.0 * math.pi, 15.0),
    ], ids=["morse", "quartic", "pendulum", "tilted-double-well", "pendulum-over-a-crest"])
    def test_action_matches_an_adaptive_reference(self, potential, q_a, q_b, t):
        # the double well's path and the pendulum's cross a crest, which E clears by
        # 0.023 and 9.8e-6: their legs are graded towards it
        limit = kernel_phase(potential, q_a, q_b, t)
        crests = [pt.q0 for pt in potential.landscape.equilibria
                  if pt.stability.value == "maximum" and min(q_a, q_b) < pt.q0 < max(q_a, q_b)]
        reference = _reference_action(potential, q_a, q_b, t, limit.energy, crests)
        assert abs(limit.S_cl - reference) <= S_CL_TOL * max(1.0, abs(reference))
        # E solves the energy equation: RK4 from v0 lands on q_b (the pendulum's slow
        # crest passage amplifies RK4's error: 1.9e-8 on 8192 steps, 2.8e-10 on 16384)
        path = initial_value_trajectory(potential, q_a, limit.v0, t, 16384)
        assert path.positions[-1] == pytest.approx(q_b, abs=1e-9)

    def test_a_path_over_a_crest_at_its_energy_raises(self):
        # from 0 over the crest at pi to 2 pi in t = 40 the path's E clears the crest
        # by about 1e-16; its time diverges at the crest
        with pytest.raises(SeparatrixError, match="crosses the crest 1 within 1e-09"):
            kernel_phase(Pendulum(), 0.0, 2.0 * math.pi, 40.0)

    def test_a_request_without_a_path_fails_before_any_rk4_pass(self, monkeypatch, capsys):
        # from the bottom of the pendulum back to it takes at least half a period, pi
        passes = []
        rk4 = propagator._rk4
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a[4]) or rk4(*a))
        code = main(["propagate", "--potential", '{"family": "pendulum"}', "--from", "0",
                     "--to", "0", "--time", "1", "--slices", "1024"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "TrajectoryError" and "no classical path" in error["message"]
        assert passes == []

    def test_a_leg_over_five_crests(self, monkeypatch):
        # the pendulum from 0 to 30 in t = 3 clears the crests at pi, 3 pi, ..., 9 pi;
        # the landscape's window holds the first two, and the part between them is
        # graded towards both from its middle: two rows (E, c, r, anchor, eps, far)
        rows = []
        leg = propagator._leg
        monkeypatch.setattr(propagator, "_leg", lambda potential, some, *order: (
            rows.extend(map(tuple, np.asarray(some))) or leg(potential, some, *order)))
        propagator._path.cache_clear()
        limit = kernel_phase(Pendulum(), 0.0, 30.0, 3.0)
        assert any(one[4] > 0.0 and other[4] > 0.0
                   and one[5] == other[5] == 0.5 * (one[3] + other[3])
                   for one, other in zip(rows, rows[1:]))
        crests = [k * math.pi for k in (1, 3, 5, 7, 9)]
        reference = _reference_action(Pendulum(), 0.0, 30.0, 3.0, limit.energy, crests)
        assert abs(limit.S_cl - reference) <= S_CL_TOL * max(1.0, abs(reference))
        assert limit.S_cl == pytest.approx(149.8937553694091, rel=1e-15)

    def test_a_leg_that_ends_beside_a_crest_fails_the_certificate(self):
        # q_a lies 0.003 right of the crest at 0.119, where E clears V(q_a) by 0.0015:
        # p is small at the leg's end, where its rule is not graded
        well = Polynomial(m=0.852081700578327, coeffs=(0, 0.47367418929831206, -2, 0, 0.5))
        request = (0.12234023075576861, 1.538382706534474, 2.2544850721092473)
        with pytest.raises(AccuracyError) as info:
            kernel_phase(well, *request)
        assert info.value.estimate == pytest.approx(3.6e-10, rel=0.01)
        # the certificate is on S_cl alone: the path itself is found, at E = 0.0296, and
        # its samples certify once its panel is halved twice in phi and once at a tau
        # midpoint; RK4 from its v0 follows them
        path = classical_trajectory(well, *request, 4096)
        assert path.sampled_energy(well)[0] == pytest.approx(0.0296094348, rel=1e-9)
        rk4 = initial_value_trajectory(well, request[0], path.velocities[0], request[2], 4096)
        assert np.max(np.abs(path.positions - rk4.positions)) <= DYNAMICS_TOL

    def test_a_direct_leg_over_t_by_rounding_takes_that_energy(self):
        # a leg of 1e-5 in a theta map of 0.034 reads 1.6e-13 over t at e_lo plus the
        # straight line's kinetic energy, within the map's rounding: that E is the root
        paths = propagator._Paths(Quartic(), 0.0, 1e-5)
        e_top = paths.e_lo + 0.5 * (1e-5 / 0.05) ** 2
        assert paths.direct(e_top)[0] > 0.05
        assert kernel_phase(Quartic(), 0.0, 1e-5, 0.05).energy == e_top

    @pytest.mark.parametrize("t", [1.58, 0.5, 3.0])
    def test_a_maximum_the_landscape_missed_is_an_error(self, t):
        # the landscape scans (-10, 10), where V(+-10) = 47 > V(0), so it never sees the
        # barrier at 30.8 (V = 225).  From 20 (V = 156) to 40 the direct leg at e_lo plus
        # the straight line's kinetic energy clears the barrier but takes longer than
        # t: that energy is no root, and no E is certified.  In t = 3 the branch scan
        # brackets a root where a wall at the barrier jumps, and its refinement meets
        # an infinite time there
        sextic = Polynomial(coeffs=(0, 0, 0.5, 0, -1 / 3600, 0, 1e-8))
        assert [pt.q0 for pt in sextic.landscape.equilibria] == [0.0]
        with pytest.raises(propagator.TrajectoryError,
                           match=r"^V exceeds e_lo=156\.196 between q_a=20 and q_b=40, at "
                                 "a maximum the landscape missed$"):
            kernel_phase(sextic, 20.0, 40.0, t)

    @settings(max_examples=100, deadline=None)
    @given(potential=st.one_of(
               st.builds(Quartic, m=_SCALE, lam=_SCALE),
               st.builds(Morse, m=_SCALE, depth=st.floats(5.0, 40.0), width=_SCALE),
               st.builds(Pendulum, m=_SCALE, amplitude=_SCALE),
               st.builds(lambda tilt, a: Polynomial(coeffs=(0.0, tilt, -a, 0.0, 0.5)),
                         st.floats(-0.5, 0.5), _SCALE)),
           q_a=st.floats(-7.0, 7.0), q_b=st.floats(-7.0, 7.0), t=st.floats(0.05, 5.0))
    def test_the_direct_leg_is_no_slower_than_the_straight_line(self, potential, q_a,
                                                                 q_b, t):
        # V <= e_lo on the leg, so at e_lo plus the straight line's kinetic energy the
        # speed is at least the line's everywhere: `direct_energy` brackets downwards.
        # The leg's nodes q = c + r cos(theta) round on the scale of the map's width
        # 2 r, not of the leg's: a leg of 1e-5 in a map of 0.034 reads 1.6e-13 over t
        assume(q_a != q_b)
        paths = propagator._Paths(potential, q_a, q_b)
        x = max(0.5 * potential.mass * ((q_b - q_a) / t) ** 2, paths.floor)
        lo, hi = paths._frame(paths.e_lo + x)[2:4]
        rounding = 2.0 ** -50 * (hi - lo) / abs(q_b - q_a)
        assert paths.direct(paths.e_lo + x)[0] <= t * (1.0 + rounding)


class TestMorseBranches:
    """Morse depth 10 from 0.5 to -0.25 in t = 2: the direct leg is too fast, and two
    paths below dissociation turn at the right wall first."""

    def test_both_branches(self):
        paths = propagator._Paths(Morse(depth=10.0), 0.5, -0.25)
        branches = list(paths.bounced_branches(2.0))
        assert [(k, s0) for k, _, s0 in branches] == [(1, 1.0), (2, 1.0)]
        assert [round(E, 10) for _, E, _ in branches] == [6.9543137603, 6.0157065772]
        for _, E, s0 in branches:
            v0 = s0 * math.sqrt(2.0 * (E - float(paths.potential.value(0.5))))
            path = initial_value_trajectory(paths.potential, 0.5, v0, 2.0, 4096)
            assert path.positions[-1] == pytest.approx(-0.25, abs=1e-8)

    def test_propagate_takes_the_path_with_the_fewest_turning_points(self, capsys):
        code = main(["propagate", "--potential", '{"family": "morse", "depth": 10}',
                     "--from", "0.5", "--to", "-0.25", "--time", "2", "--slices", "1024"])
        assert code == 0, capsys.readouterr().err
        payload = json.loads(capsys.readouterr().out)
        assert round(payload["E"], 10) == 6.9543137603
        assert kernel_phase(Morse(depth=10.0), 0.5, -0.25, 2.0).v0 == pytest.approx(3.28820089)

    def test_classical_trajectory_samples_the_kernel_phase_branch(self):
        path = classical_trajectory(Morse(depth=10.0), 0.5, -0.25, 2.0, 4096)
        assert path.velocities[0] == kernel_phase(Morse(depth=10.0), 0.5, -0.25, 2.0).v0
        assert path.velocities[0] == pytest.approx(3.28820089)
        assert (path.positions[0], path.positions[-1]) == (0.5, -0.25)

    @pytest.mark.parametrize("potential, q_a, q_b, t", [
        (Morse(depth=10.0), 0.5, -0.25, 2.0), (TILTED_WELL, -1.0, 1.0, 3.0),
    ], ids=["morse", "tilted-double-well"])
    def test_one_pass_over_the_scan_grid(self, potential, q_a, q_b, t, monkeypatch):
        # the scan's energies are rows of one rule call, with the bits of one energy at a
        # time; the tilted well's rows are graded at its crest
        paths = propagator._Paths(potential, q_a, q_b)
        grid = paths._grid()
        has_a, has_b, sums = paths.pieces(grid)
        for i, E in enumerate(grid):
            one_a, one_b, one = paths.pieces([E])
            assert (one_a[0], one_b[0]) == (has_a[i], has_b[i])
            assert one[:, 0].tobytes() == sums[:, i].tobytes()
        # up to the first branches, one array V call for the grid and one per refinement step
        sizes, pieces = [], paths.pieces
        monkeypatch.setattr(paths, "pieces", lambda energies: (
            sizes.append(len(energies)) or pieces(energies)))
        calls = test_bohr_sommerfeld.TestKeptWork.count_value_calls(potential, monkeypatch)
        next(paths.bounced_branches(t))
        assert sizes[0] == len(grid) and set(sizes[1:]) <= {1}
        assert [call for call in calls if not call[1]] == [(True, False)] * len(sizes)


def _sweep_requests(count):
    """`propagate` argv of `count` seeded requests, cycling over a quartic, a Morse well, a
    pendulum and a tilted double well, each from q_a to q_b in [-2, 2] in t in [0.1, 3]."""
    rng = np.random.default_rng(0)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    families = (lambda: Quartic(m=u(0.5, 2.0), lam=u(0.5, 2.0)),
                lambda: Morse(m=u(0.5, 2.0), depth=u(5.0, 20.0), width=u(0.5, 2.0)),
                lambda: Pendulum(m=u(0.5, 2.0), amplitude=u(0.5, 5.0)),
                lambda: Polynomial(m=u(0.5, 2.0), coeffs=(0.0, u(-0.5, 0.5), -2.0, 0.0, 0.5)))
    for i in range(count):
        potential = families[i % 4]()
        yield ["propagate", "--potential", json.dumps(potential.to_json()), "--from",
               repr(u(-2.0, 2.0)), "--to", repr(u(-2.0, 2.0)), "--time", repr(u(0.1, 3.0)),
               "--slices", "256"]


def _finite(text):
    """A JSON number of `text`, refused unless finite."""
    value = float(text)
    assert math.isfinite(value), text
    return value


class TestSeededSweep:
    def test_a_seeded_propagate_sweep_exits_cleanly(self, capsys):
        # 100 requests: each prints finite JSON, or exits 1 with one JSON error of a path
        # that does not exist or does not certify; no other exception and no warning.  They
        # give 74 exits 0, 16 TrajectoryError ("no classical path") and 10 AccuracyError,
        # the false failure pinned in TestSampledPaths (200 give 153, 34 and 13)
        for argv in _sweep_requests(100):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            out, err = capsys.readouterr()
            if code == 0:
                assert err == ""
                json.loads(out, parse_float=_finite, parse_constant=_finite)
            else:
                assert (code, out) == (1, ""), argv
                error = json.loads(err)["error"]  # the one JSON document on stderr
                assert error["type"] in {"TrajectoryError", "AccuracyError", "SeparatrixError"}
