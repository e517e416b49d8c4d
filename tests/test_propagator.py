import json
import math

import numpy as np
import pytest

from phasekit import ConjugatePointError, Harmonic, Morse, Pendulum, Polynomial, Quartic, Rotor
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

    def test_shooting_hits_the_far_endpoint(self):
        traj = classical_trajectory(Quartic(), 0.0, 1.0, 1.0, 4096)
        assert abs(traj.positions[-1] - 1.0) <= 1e-10

    def test_shooting_path_conserves_energy(self):
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

    def test_quartic_kernel_uses_the_shot_trajectory(self):
        kp = kernel_phase(Quartic(), 0.0, 1.0, 1.0, N=4096)
        traj = classical_trajectory(Quartic(), 0.0, 1.0, 1.0, 4096)
        assert kp.S_cl == pytest.approx(classical_action(traj, Quartic()), rel=1e-12)
        assert kp.energy == pytest.approx(float(traj.sampled_energy(Quartic())[0]), rel=1e-12)


# anharmonic two-point problems short of their first focal time, as `propagate` gets them
SHOOTINGS = [
    (Quartic(), 1.0, -1.0, 0.6),
    (Morse(depth=10.0), 0.5, -0.25, 0.35 * math.pi / math.sqrt(20.0)),
    (Pendulum(amplitude=2.0), 1.0, -1.0, 0.7),
]


class TestSeededShooting:
    @pytest.mark.parametrize("potential, q_a, q_b, t", SHOOTINGS,
                             ids=["quartic", "morse", "pendulum"])
    def test_slice_counts_start_from_the_limit_velocity(self, potential, q_a, q_b, t,
                                                         monkeypatch, capsys):
        passes, phases = [], []
        rk4, sliced, kernel = propagator._rk4, propagator.sliced_phase, propagator.kernel_phase
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a) or rk4(*a))
        kernel(potential, q_a, q_b, t, N=4096)
        limit_passes = len(passes)
        monkeypatch.setattr(propagator, "kernel_phase",
                            lambda *a, **k: phases.append(kernel(*a, **k)) or phases[-1])
        monkeypatch.setattr(propagator, "sliced_phase",
                            lambda *a, **k: phases.append(sliced(*a, **k)) or phases[-1])
        passes.clear()
        code = main(["propagate", "--potential", json.dumps(potential.to_json()),
                     "--from", str(q_a), "--to", str(q_b), "--time", repr(t),
                     "--slices", "2000,4000"])
        assert code == 0, capsys.readouterr().err
        # the limit shoots from the straight line; each slice count then needs one pass
        assert len(passes) <= limit_passes + 2
        limit, *rows = phases
        assert [row.slices for row in rows] == [2000, 4000]
        for row in rows:
            assert abs(row.v0 - limit.v0) <= 1e-8

    @pytest.mark.parametrize("potential, q_a, q_b, t", SHOOTINGS,
                             ids=["quartic", "morse", "pendulum"])
    def test_the_limit_count_reuses_the_limit_path(self, potential, q_a, q_b, t,
                                                    monkeypatch, capsys):
        argv = ["propagate", "--potential", json.dumps(potential.to_json()), "--from", str(q_a),
                "--to", str(q_b), "--time", repr(t), "--slices", "2000,4096"]
        passes = []
        rk4 = propagator._rk4
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a) or rk4(*a))
        limit = propagator.kernel_phase(potential, q_a, q_b, t, N=4096)
        limit_passes = len(passes)
        passes.clear()
        assert main(argv) == 0
        # the limit's passes and one for 2000 slices; none for the limit's own 4096
        assert len(passes) == limit_passes + 1
        fresh = sliced_phase(classical_trajectory(potential, q_a, q_b, t, 4096,
                                                  v_start=limit.v0), potential, limit.energy)
        row = json.loads(capsys.readouterr().out)["convergence"][-1]
        assert (row["N"], row["sliced_phase"]) == (4096, fresh.total_phase)

    def test_first_pass_within_tolerance_is_accepted(self, monkeypatch):
        converged = classical_trajectory(Quartic(), 1.0, -1.0, 0.6, 2000)
        passes = []
        rk4 = propagator._rk4
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a) or rk4(*a))
        again = classical_trajectory(Quartic(), 1.0, -1.0, 0.6, 2000,
                                     v_start=converged.velocities[0])
        assert len(passes) == 1
        assert np.array_equal(again.positions, converged.positions)

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
        traj = classical_trajectory(potential, q_a, q_a, T, 16000, v_start=p / potential.mass)
        assert classical_action(traj, potential) + E * T == pytest.approx(J, rel=1e-10)


def _two_point_draw(rng, family, slices=(1024, 1280)):
    """A random anharmonic two-point problem, up to t = 4, on a slice count in range."""
    m = rng.uniform(0.5, 2.0)
    if family == "quartic":
        potential, ends = Quartic(m=m, lam=rng.uniform(0.5, 2.0)), rng.uniform(-1.5, 1.5, 2)
    elif family == "morse":
        potential = Morse(m=m, depth=rng.uniform(3.0, 15.0), width=rng.uniform(0.5, 1.5))
        ends = rng.uniform(-0.5, 1.5, 2)
    elif family == "pendulum":
        potential, ends = Pendulum(m=m, amplitude=rng.uniform(1.0, 5.0)), rng.uniform(-2, 2, 2)
    else:
        potential = Polynomial(m=m, coeffs=(0.0, rng.uniform(-0.5, 0.5), -2.0, 0.0, 0.5))
        ends = rng.uniform(-2.0, 2.0, 2)
    return (potential, float(ends[0]), float(ends[1]), float(rng.uniform(0.1, 4.0)),
            int(rng.integers(slices[0], slices[1] + 1)))


def _shot(potential, q_a, q_b, t, N, **kwargs):
    """(start velocity, None) of the path, or (None, the error's class)."""
    try:
        return float(classical_trajectory(potential, q_a, q_b, t, N, **kwargs).velocities[0]), None
    except Exception as exc:  # the class is compared, whatever it is
        return None, type(exc)


class TestQuarterGridStage:
    @pytest.mark.parametrize("slices", [(1024, 1280), (4, 1023)], ids=["staged", "small"])
    def test_default_start_agrees_with_the_straight_line_start(self, slices):
        # an explicit v_start skips the quarter-grid stage, so it reproduces
        # the straight-line shooting; the stage may only change the work done
        rng = np.random.default_rng(2024)
        outcomes = []
        for i in range(16):
            potential, q_a, q_b, t, N = _two_point_draw(
                rng, ("quartic", "morse", "pendulum", "double-well")[i % 4], slices)
            staged, staged_error = _shot(potential, q_a, q_b, t, N)
            line, line_error = _shot(potential, q_a, q_b, t, N, v_start=(q_b - q_a) / t)
            assert staged_error is line_error
            if line_error is None:
                assert abs(staged - line) <= 1e-8 * abs(line)
            outcomes.append(line_error)
        # the sweep holds requests that solve and requests that fail
        assert outcomes.count(None) not in (0, len(outcomes))

    def test_small_grids_skip_the_stage(self):
        # on 64 slices the quarter grid lands within its cap (6 passes), but at
        # a velocity from which the full grid converges to another path than
        # from the straight line; below _STAGE_MIN_SLICES the stage never runs
        potential = Polynomial(coeffs=(0.0, 0.3, -2.0, 0.0, 0.5))
        q_a, q_b, t, N = 0.5, 1.5, 4.0, 64
        line = classical_trajectory(potential, q_a, q_b, t, N, v_start=(q_b - q_a) / t)
        with np.errstate(all="ignore"):
            _, stage_velocities = propagator._shoot(potential, q_a, q_b, t, N // 4,
                                                    (q_b - q_a) / t, propagator._STAGE_CAP)
        from_stage = classical_trajectory(potential, q_a, q_b, t, N, v_start=stage_velocities[0])
        assert abs(from_stage.velocities[0] - line.velocities[0]) > 1.0
        default = classical_trajectory(potential, q_a, q_b, t, N)
        assert np.array_equal(default.positions, line.positions)
        assert np.array_equal(default.velocities, line.velocities)

    def test_stage_past_its_cap_is_dropped(self, monkeypatch):
        potential = Polynomial(coeffs=(0.0, 0.3, -2.0, 0.0, 0.5))
        q_a, q_b, t, N = -1.0, 1.0, 3.0, 1024
        # left to run on, the quarter grid lands on another branch than the full grid
        line = classical_trajectory(potential, q_a, q_b, t, N, v_start=(q_b - q_a) / t)
        _, stage_velocities = propagator._shoot(potential, q_a, q_b, t, N // 4,
                                                (q_b - q_a) / t, propagator.SHOOTING_CAP)
        assert abs(stage_velocities[0] - line.velocities[0]) > 1.0
        passes = []
        rk4 = propagator._rk4
        monkeypatch.setattr(propagator, "_rk4", lambda *a: passes.append(a[4]) or rk4(*a))
        staged = classical_trajectory(potential, q_a, q_b, t, N)
        assert passes.count(N // 4) == 8
        assert np.array_equal(staged.positions, line.positions)
        assert np.array_equal(staged.velocities, line.velocities)

    @pytest.mark.parametrize("potential, q_a, q_b, t, slices", [
        (*shooting, slices) for shooting, slices in zip(SHOOTINGS, ("2000,4000", "1400,2800",
                                                                    "3000,6000"))
    ], ids=["quartic", "morse", "pendulum"])
    def test_propagate_takes_fewer_rk4_steps(self, potential, q_a, q_b, t, slices,
                                             monkeypatch, capsys):
        argv = ["propagate", "--potential", json.dumps(potential.to_json()), "--from", str(q_a),
                "--to", str(q_b), "--time", repr(t), "--slices", slices]
        steps = []
        rk4 = propagator._rk4
        monkeypatch.setattr(propagator, "_rk4", lambda *a: steps.append(a[4]) or rk4(*a))
        assert main(argv) == 0, capsys.readouterr().err
        staged = sum(steps)

        shoot = propagator.classical_trajectory

        def from_the_line(potential, q_a, q_b, t, N, v_start=None):
            return shoot(potential, q_a, q_b, t, N,
                         v_start=(q_b - q_a) / t if v_start is None else v_start)

        monkeypatch.setattr(propagator, "classical_trajectory", from_the_line)
        steps.clear()
        assert main(argv) == 0, capsys.readouterr().err
        assert staged <= 0.6 * sum(steps)


class TestUnreachableEndpoint:
    def test_shooting_stops_once_its_best_residual_stalls(self, monkeypatch):
        # Morse paths from 0.5 in t = 2 end no lower than about -0.244, so -0.25
        # is out of reach; on 256 slices the secant's best residual (5.69e-3)
        # comes at pass 16 and no later pass beats it
        residuals = []
        rk4 = propagator._rk4

        def traced(*args):
            qs, vs = rk4(*args)
            residuals.append(abs(qs[-1] + 0.25))
            return qs, vs

        monkeypatch.setattr(propagator, "_rk4", traced)
        with pytest.raises(propagator.TrajectoryError, match=r"^shooting failed to hit "
                           r"q_b=-0.25 within 80 iterations \(last residual \d\.\d{3}e-0\d\)$"):
            classical_trajectory(Morse(depth=10.0, width=1.0), 0.5, -0.25, 2.0, 256)
        best = residuals.index(min(residuals)) + 1
        assert best == 16 and len(residuals) == best + propagator.SHOOTING_STALL
        assert len(residuals) < propagator.SHOOTING_CAP
