import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk

from phasekit import (
    AccuracyError,
    BracketError,
    ForbiddenRegionError,
    Harmonic,
    Morse,
    Pendulum,
    Polynomial,
    Quartic,
    Rotor,
    SeparatrixError,
)
from phasekit import bohr_sommerfeld, potentials
from phasekit.bohr_sommerfeld import (
    MotionKind,
    action,
    classify_motion,
    quantize,
    turning_points,
)
from phasekit.schrodinger import fd_eigensolve

ROTATION_2PI = MotionKind.ROTATION


def pendulum_libration_action(E):
    """Complete-elliptic-integral form of the libration loop action."""
    m = (1.0 + E) / 2.0
    return 16.0 * (ellipe(m) - (1.0 - m) * ellipk(m))


def pendulum_rotation_action(E):
    return quad(lambda q: math.sqrt(2.0 * (E + math.cos(q))), 0.0, 2.0 * math.pi,
                limit=200)[0]


def morse_action(depth, width, m, E):
    """Closed-form Morse loop action below dissociation."""
    return (2.0 * math.pi / width) * math.sqrt(2.0 * m * depth) * (
        1.0 - math.sqrt(1.0 - E / depth))


class TestTurningPoints:
    def test_harmonic_pair(self):
        a, b = turning_points(Harmonic(), 0.5)
        assert a == pytest.approx(-1.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)

    def test_quartic_pair(self):
        a, b = turning_points(Quartic(), 0.25)
        assert a == pytest.approx(-1.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)

    def test_energy_at_the_minimum_degenerates(self):
        a, b = turning_points(Harmonic(), 0.0)
        assert a == b == 0.0

    def test_below_the_minimum_raises(self):
        with pytest.raises(ForbiddenRegionError):
            turning_points(Harmonic(), -0.1)

    def test_unbounded_escape_returns_none(self):
        assert turning_points(Morse(m=1.0, depth=12.0, width=1.0), 13.0) is None

    def test_pendulum_near_crest_stays_inside_one_cell(self):
        # the barrier near the crest is thin; the walk must not leap into
        # the neighboring period
        a, b = turning_points(Pendulum(), 0.999)
        assert b - a < 2.0 * math.pi
        assert float(Pendulum().value(a)) == pytest.approx(0.999, abs=1e-9)
        assert float(Pendulum().value(b)) == pytest.approx(0.999, abs=1e-9)

    def test_double_well_confines_below_the_hump(self):
        dwell = Polynomial(m=1.0, coeffs=(1.0, 0.0, -2.0, 0.0, 1.0))
        a, b = turning_points(dwell, 0.5)
        assert b < 0.0  # both turning points on one side of the hump
        assert float(dwell.value(a)) == pytest.approx(0.5, abs=1e-9)
        assert float(dwell.value(b)) == pytest.approx(0.5, abs=1e-9)

    def test_double_well_traverses_above_the_hump(self):
        dwell = Polynomial(m=1.0, coeffs=(1.0, 0.0, -2.0, 0.0, 1.0))
        a, b = turning_points(dwell, 1.5)
        assert a == pytest.approx(-b, abs=1e-9)
        assert b > 1.0


def bisect_crossing(potential, E, inside, outside):
    """Reference for `_cross`: bisect V(q) = E to 1e-15 relative."""
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


TILTED_WELL = Polynomial(m=1.0, coeffs=(0.0, 0.3, -4.0, 0.0, 1.0))


CROSSING_CASES = [
    (Harmonic(), [1e-3, 0.5, 7.25, 80.0]),
    (Quartic(m=1.0, lam=2.0), [1e-3, 0.3, 5.0, 60.0]),
    (Morse(m=1.0, depth=120.0, width=1.0), [0.5, 30.0, 90.0, 110.0]),
    (Pendulum(), [-0.9, 0.0, 0.5, 0.99]),
    (TILTED_WELL, [-4.0, -3.5, -1.0, 0.5, 6.0]),
]


class CountedValues:
    """A potential whose V calls are counted."""

    def __init__(self, potential):
        self.potential, self.calls = potential, 0

    def value(self, q):
        self.calls += 1
        return self.potential.value(q)

    def derivative(self, q):
        return self.potential.derivative(q)


class TestCrossingsAgainstBisection:
    @pytest.mark.parametrize("potential, energies", CROSSING_CASES)
    def test_newton_roots_match_the_bisection_reference(self, potential, energies,
                                                        monkeypatch):
        newton = [turning_points(potential, E) for E in energies]
        monkeypatch.setattr(bohr_sommerfeld, "_cross", bisect_crossing)
        reference = [turning_points(potential, E) for E in energies]
        for got, want in zip(newton, reference):
            assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("potential, energies", CROSSING_CASES)
    def test_each_crossing_takes_at_most_twelve_evaluations(self, potential, energies,
                                                            monkeypatch):
        # a Newton step that rounds onto a bracket end must stop the solve, not
        # send it bisecting back across the bracket
        cross, counts = bohr_sommerfeld._cross, []

        def counted(pot, E, inside, outside):
            probe = CountedValues(pot)
            root = cross(probe, E, inside, outside)
            counts.append(probe.calls)
            return root

        monkeypatch.setattr(bohr_sommerfeld, "_cross", counted)
        for E in energies:
            turning_points(potential, E)
        assert len(counts) == 2 * len(energies)
        assert max(counts) <= 12, counts


class TestClassifyMotion:
    def test_harmonic_is_always_libration(self):
        assert classify_motion(Harmonic(), 3.7) is MotionKind.LIBRATION

    def test_rotor_is_always_rotation(self):
        cls = classify_motion(Rotor(), 0.5)
        assert cls is MotionKind.ROTATION
        # a rotation spans the rotor's period: J = 2 pi p with p = sqrt(2 m E) = 1
        assert action(Rotor(), 0.5, motion=cls).action == pytest.approx(2.0 * math.pi)

    def test_pendulum_below_crest_librates(self):
        assert classify_motion(Pendulum(), 0.5) is MotionKind.LIBRATION

    def test_pendulum_above_crest_rotates(self):
        assert classify_motion(Pendulum(), 1.5) is MotionKind.ROTATION

    @pytest.mark.parametrize("E", [1.0, 1.0 + 5e-10])
    def test_crest_energy_is_a_separatrix(self, E):
        with pytest.raises(SeparatrixError):
            classify_motion(Pendulum(), E)

    def test_unbounded_line_motion_rejected(self):
        with pytest.raises(ForbiddenRegionError):
            classify_motion(Morse(m=1.0, depth=12.0, width=1.0), 13.0)


class TestAction:
    def test_harmonic_action_is_two_pi_energy_over_omega(self):
        assert action(Harmonic(), 1.0).action == pytest.approx(2.0 * math.pi, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(E=st.floats(min_value=0.01, max_value=50.0),
           omega=st.floats(min_value=0.3, max_value=3.0))
    def test_harmonic_action_scaling(self, E, omega):
        got = action(Harmonic(m=1.0, omega=omega), E).action
        assert got == pytest.approx(2.0 * math.pi * E / omega, rel=1e-9)

    @pytest.mark.parametrize("E", [0.5, 0.9, 0.99, 0.999999])
    def test_pendulum_libration_matches_elliptic_integrals(self, E):
        got = action(Pendulum(), E).action
        assert got == pytest.approx(pendulum_libration_action(E), rel=1e-12)

    @pytest.mark.parametrize("E", [1.0, 6.0, 11.0])
    def test_morse_matches_closed_form(self, E):
        got = action(Morse(m=1.0, depth=12.0, width=1.0), E).action
        assert got == pytest.approx(morse_action(12.0, 1.0, 1.0, E), rel=1e-12)

    def test_rotor_action_is_circumference_times_momentum(self):
        got = action(Rotor(), 0.5).action
        assert got == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_a_nan_action_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(bohr_sommerfeld, "_loop_integrals",
                            lambda *args: (math.nan, math.nan, math.nan))
        with pytest.raises(AccuracyError):
            action(Harmonic(), 1.0, motion=MotionKind.LIBRATION)

    def test_harmonic_period_from_dJ_dE(self):
        prof = action(Harmonic(), 1.0)
        assert prof.dJ_dE == pytest.approx(2.0 * math.pi, rel=1e-6)

    def test_pendulum_period_from_dJ_dE(self):
        prof = action(Pendulum(), 0.5)
        assert prof.dJ_dE == pytest.approx(4.0 * ellipk(0.75), rel=1e-6)

    @pytest.mark.parametrize("omega, E", [(1.0, 0.5), (0.7, 3.0), (2.5, 40.0)])
    def test_harmonic_quadrature_period(self, omega, E):
        prof = action(Harmonic(m=1.3, omega=omega), E)
        assert prof.dJ_dE == pytest.approx(2.0 * math.pi / omega, rel=1e-9)

    @pytest.mark.parametrize("amplitude, E", [(1.0, -0.5), (1.0, 0.5), (3.0, 2.4)])
    def test_pendulum_quadrature_period(self, amplitude, E):
        m = 0.8
        prof = action(Pendulum(m=m, amplitude=amplitude), E)
        exact = 4.0 * math.sqrt(m / amplitude) * ellipk((E + amplitude) / (2.0 * amplitude))
        assert prof.dJ_dE == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("E", [1.0, 6.0, 11.0])
    def test_morse_quadrature_period(self, E):
        depth, width, m = 12.0, 1.0, 1.0
        omega = width * math.sqrt(2.0 * depth / m)
        prof = action(Morse(m=m, depth=depth, width=width), E)
        exact = 2.0 * math.pi / (omega * math.sqrt(1.0 - E / depth))
        assert prof.dJ_dE == pytest.approx(exact, rel=1e-9)

    def test_action_grows_with_energy(self):
        js = [action(Quartic(), E).action for E in np.linspace(0.1, 5.0, 9)]
        assert all(b > a for a, b in zip(js, js[1:]))


class TestQuantize:
    def test_harmonic_half_integer_rule(self):
        res = quantize(Harmonic(), range(11))
        assert res.motion is MotionKind.LIBRATION
        for lv in res.levels:
            assert lv.energy == pytest.approx(lv.n + 0.5, rel=1e-9)

    def test_rotor_integer_rule(self):
        res = quantize(Rotor(), range(6))
        assert res.motion is MotionKind.ROTATION
        assert res.levels[0].energy == pytest.approx(0.0, abs=1e-12)
        for lv in res.levels[1:]:
            assert lv.energy == pytest.approx(0.5 * lv.n**2, rel=1e-9)

    def test_energies_increase_and_actions_hit_targets(self):
        res = quantize(Quartic(), range(5))
        energies = [lv.energy for lv in res.levels]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        for lv in res.levels:
            j = action(Quartic(), lv.energy).action
            assert j == pytest.approx((lv.n + 0.5) * 2.0 * math.pi, abs=1e-8)

    def test_pendulum_librations_match_the_elliptic_oracle(self):
        res = quantize(Pendulum(), [0, 1, 2])
        for lv in res.levels:
            target = (lv.n + 0.5) * 2.0 * math.pi
            exact = brentq(lambda E: pendulum_libration_action(E) - target,
                           -1.0 + 1e-12, 1.0 - 1e-12, xtol=1e-14)
            assert lv.energy == pytest.approx(exact, abs=1e-9)

    def test_pendulum_rotations_match_the_quadrature_oracle(self):
        res = quantize(Pendulum(), [2, 3], motion=ROTATION_2PI)
        for lv in res.levels:
            exact = brentq(lambda E: pendulum_rotation_action(E) - lv.n * 2.0 * math.pi,
                           1.0 + 1e-9, 60.0, xtol=1e-13)
            assert lv.energy == pytest.approx(exact, abs=1e-8)

    def test_rotation_target_below_the_crest_action(self):
        # one period of the crest orbit already carries loop action 8 > h
        with pytest.raises(BracketError):
            quantize(Pendulum(), [1], motion=ROTATION_2PI)

    def test_morse_bound_levels_match_the_closed_form(self):
        res = quantize(Morse(m=1.0, depth=3.0, width=1.0), [0, 1])
        for lv in res.levels:
            exact = math.sqrt(6.0) * (lv.n + 0.5) - 0.5 * (lv.n + 0.5) ** 2
            assert lv.energy == pytest.approx(exact, rel=1e-9)

    def test_morse_level_beyond_dissociation_rejected(self, action_calls):
        with pytest.raises(BracketError, match="certified bound-orbit action only reaches"):
            quantize(Morse(m=1.0, depth=3.0, width=1.0), [2])
        # bisecting to a 1e-15 wide bracket took 54 evaluations
        assert len(action_calls) <= 20

    def test_oracle_attachment_for_the_rotor(self):
        sol = fd_eigensolve(Rotor(), boundary="periodic", M=4096, k=11)
        res = quantize(Rotor(), range(6), oracle=sol)
        for lv in res.levels:
            assert lv.oracle_energy is not None
            if lv.n > 0:
                assert abs(lv.relative_error) <= 1e-5

    def test_oracle_attachment_for_the_harmonic_well(self):
        sol = fd_eigensolve(Harmonic(), M=8192, k=4)
        res = quantize(Harmonic(), range(3), oracle=sol)
        for lv in res.levels:
            assert abs(lv.relative_error) <= 1e-5

    @pytest.mark.parametrize("box", [(0.0, 2.0 * math.pi), (-math.pi, math.pi)])
    def test_oracle_pairing_of_librations_on_a_periodic_cell(self, box):
        # the turning points lie around the landscape's minimum, q = -2 pi, outside
        # both boxes, and the well sits at the first box's edge; either way level
        # n pairs with state n
        pot = Pendulum(amplitude=5.0)
        sol = fd_eigensolve(pot, hbar=0.5, box=box, boundary="periodic", M=2048, k=5)
        res = quantize(pot, range(4), hbar=0.5, oracle=sol)
        assert [lv.oracle_energy for lv in res.levels] == list(sol.eigenvalues[:4])
        for lv in res.levels:
            assert abs(lv.relative_error) <= 4e-3

    def test_oracle_pairing_of_librations_on_two_periodic_cells(self):
        # two cells put each level's states in a band of two, one per Bloch
        # phase, each half in either cell; level n pairs with a state of band n
        pot = Pendulum(amplitude=5.0)
        sol = fd_eigensolve(pot, hbar=0.5, box=(0.0, 4.0 * math.pi), boundary="periodic",
                            M=2048, k=8)
        res = quantize(pot, range(4), hbar=0.5, oracle=sol)
        for lv in res.levels:
            assert lv.oracle_energy in sol.eigenvalues[2 * lv.n:2 * lv.n + 2]
            assert abs(lv.relative_error) <= 4e-3

    def test_oracle_running_out_of_levels(self):
        sol = fd_eigensolve(Harmonic(), M=1024, k=2)
        res = quantize(Harmonic(), [0, 5], oracle=sol)
        assert res.levels[0].oracle_energy is not None
        assert res.levels[1].oracle_energy is None

    @pytest.mark.parametrize("bad", [[], [-1], [0, -2]])
    def test_bad_level_requests(self, bad):
        with pytest.raises(ValueError):
            quantize(Harmonic(), bad)


SHIFTED_WELL = Polynomial(coeffs=(112.5, -15.0, 0.5))  # (q - 15)^2 / 2


class TestLandscapeReuse:
    def test_quantize_scans_the_landscape_once(self, monkeypatch):
        scans = []
        scan = potentials.find_equilibria

        def counted(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(potentials, "find_equilibria", counted)
        pot = Harmonic()
        quantize(pot, range(11))
        assert len(scans) == 1
        turning_points(pot, 3.0)
        classify_motion(pot, 3.0)
        assert len(scans) == 1


class TestShiftedWell:
    def test_levels_follow_the_well(self):
        res = quantize(SHIFTED_WELL, range(3))
        for lv in res.levels:
            assert lv.energy == pytest.approx(lv.n + 0.5, abs=1e-9)

    def test_turning_points_bracket_the_well(self):
        a, b = turning_points(SHIFTED_WELL, 0.5)
        assert a == pytest.approx(14.0, abs=1e-9)
        assert b == pytest.approx(16.0, abs=1e-9)

    @settings(max_examples=6, deadline=None)
    @given(c=st.floats(min_value=-40.0, max_value=40.0))
    def test_levels_are_translation_invariant(self, c):
        expected = [lv.energy for lv in quantize(Harmonic(), range(3)).levels]
        shifted = Polynomial(coeffs=(0.5 * c * c, -c, 0.5))
        got = [lv.energy for lv in quantize(shifted, range(3)).levels]
        assert got == pytest.approx(expected, abs=1e-9)


@pytest.fixture
def action_calls(monkeypatch):
    """Arguments of every `action` call that goes through the module."""
    calls = []
    counted = action
    monkeypatch.setattr(bohr_sommerfeld, "action",
                        lambda *a, **k: calls.append(a) or counted(*a, **k))
    return calls


def _target(n, motion, hbar):
    return (n + (0.5 if motion is MotionKind.LIBRATION else 0.0)) * 2.0 * math.pi * hbar


class TestNewtonLevelSolve:
    @pytest.mark.parametrize("potential, ns, motion, hbar, bound", [
        (Harmonic(), range(11), None, 1.0, 2),
        (Quartic(), range(3, 11), None, 1.0, 2),
        (Rotor(), range(11), None, 1.0, 2),
        (Morse(m=1.0, depth=120.0, width=1.0), range(8), None, 1.0, 8),
        (Pendulum(), [0, 1, 2], None, 1.0, 8),
        (Pendulum(), [2, 3, 4, 5], ROTATION_2PI, 1.0, 8),
        (TILTED_WELL, range(4), None, 0.3, 8),
    ], ids=["harmonic", "quartic", "rotor", "morse", "pendulum-libration",
            "pendulum-rotation", "tilted-double-well"])
    def test_action_evaluations_per_level(self, potential, ns, motion, hbar, bound,
                                          action_calls):
        res = quantize(potential, ns, hbar=hbar, motion=motion)
        assert len(action_calls) <= bound * len(res.levels)
        for lv in res.levels:
            assert abs(lv.action - _target(lv.n, res.motion, hbar)) <= 1e-10 * 2.0 * math.pi * hbar

    def test_target_in_a_separatrix_gap_fails_within_bounded_work(self, action_calls):
        # below the hump the orbit stays in the deeper well and J tends to
        # 5.867; above it the orbit spans both wells and J is about twice
        # that, so the n = 1 target 3 pi lies in the jump
        tilted = Polynomial(m=1.0211, coeffs=(0, -0.00385, -1.37296, 0, 0.26199))
        with pytest.raises(BracketError, match="certified bound-orbit action only reaches"):
            quantize(tilted, [1])
        # bisecting to a 1e-15 wide bracket took 56 evaluations
        assert len(action_calls) <= 20

    @settings(max_examples=5, deadline=None)
    @given(omega=st.floats(min_value=0.2, max_value=5.0),
           hbar=st.floats(min_value=0.05, max_value=3.0),
           m=st.floats(min_value=0.2, max_value=5.0))
    def test_harmonic_levels_scale_as_hbar_omega(self, omega, hbar, m):
        res = quantize(Harmonic(m=m, omega=omega), range(4), hbar=hbar)
        for lv in res.levels:
            assert lv.energy == pytest.approx((lv.n + 0.5) * hbar * omega, rel=1e-9)

    @settings(max_examples=5, deadline=None)
    @given(c=st.floats(min_value=-50.0, max_value=50.0))
    def test_constant_offset_shifts_every_level(self, c):
        coeffs = (0.0, 0.0, 0.5, 0.0, 0.1)
        base = [lv.energy for lv in quantize(Polynomial(coeffs=coeffs), range(4)).levels]
        shifted = Polynomial(coeffs=(c,) + coeffs[1:])
        got = [lv.energy for lv in quantize(shifted, range(4)).levels]
        assert got == pytest.approx([e + c for e in base], rel=1e-9, abs=1e-9)

    @settings(max_examples=5, deadline=None)
    @given(lam=st.floats(min_value=0.2, max_value=5.0),
           hbar=st.floats(min_value=0.05, max_value=3.0),
           m=st.floats(min_value=0.2, max_value=5.0))
    def test_quartic_levels_scale_as_lam_third_times_hbar_squared_over_m(self, lam, hbar, m):
        # q = a x with a^6 = hbar^2 / (m lam) maps the well onto lam = m = hbar = 1
        base = [lv.energy for lv in quantize(Quartic(), range(4)).levels]
        unit = lam ** (1.0 / 3.0) * (hbar**2 / m) ** (2.0 / 3.0)
        got = [lv.energy for lv in quantize(Quartic(m=m, lam=lam), range(4), hbar=hbar).levels]
        assert got == pytest.approx([unit * e for e in base], rel=1e-9)


def reference_turning_points(potential, E):
    """turning_points as it was before the walks were kept: every stop walked anew."""
    land = potential.landscape
    q0, v_min = land.minimum.q0, land.v_min
    if E < v_min:
        raise ForbiddenRegionError(f"E={E:g} below the potential minimum {v_min:g}")
    if E == v_min:
        return (q0, q0)

    extrema = [pt.q0 for pt in land.equilibria]

    def outward(direction):
        q = q0
        ahead = [x for x in extrema if direction * (x - q0) > 1e-9]
        if direction < 0:
            ahead = ahead[::-1]
        if potential.period is not None:
            half = q0 + direction * 0.5 * potential.period
            ahead = [x for x in ahead if direction * (x - half) <= 1e-9] + [half]
        for x in ahead:
            if float(potential.value(x)) > E:
                return bohr_sommerfeld._cross(potential, E, q, x)
            q = x
        if potential.period is not None:
            return None
        step = 1e-3
        for _ in range(80):
            q_next = q + direction * step
            if float(potential.value(q_next)) > E:
                return bohr_sommerfeld._cross(potential, E, q, q_next)
            q = q_next
            step *= 2.0
        return None

    b = outward(+1.0)
    a = outward(-1.0)
    if a is None or b is None:
        return None
    return (a, b)


def reference_loop_integrals(potential, E, motion, order):
    """_loop_integrals as it was before the rule tables: both rules built, two V calls."""
    m = potential.mass
    libration = motion is MotionKind.LIBRATION
    if libration:
        pair = reference_turning_points(potential, E)
        if pair is None:
            raise ForbiddenRegionError(f"E={E:g} has no libration turning points")
        c, r = 0.5 * (pair[0] + pair[1]), 0.5 * (pair[1] - pair[0])
        if r == 0.0:
            return 0.0, 0.0, None
    span = math.pi if libration else potential.period

    def weights_and_momenta(n):
        t, w = bohr_sommerfeld._leggauss(n)
        q = 0.5 * span * (t + 1.0)
        w = 0.5 * span * w
        if libration:
            q, w = c + r * np.cos(q), 2.0 * r * np.sin(q) * w
        gap = np.maximum(E - np.asarray(potential.value(q), dtype=float), 0.0)
        return w, np.sqrt(2.0 * m * gap)

    w, p = weights_and_momenta(order)
    w2, p2 = weights_and_momenta(2 * order)
    with np.errstate(divide="ignore"):
        period = m * float(np.sum(w2 / p2))
    return float(np.sum(w * p)), float(np.sum(w2 * p2)), period


def _bits(values):
    return None if values is None else [None if x is None else float(x).hex() for x in values]


_scale = st.floats(min_value=0.5, max_value=2.0)
# each potential with the width of the energy band drawn above its minimum: Morse
# and the double wells reach past escape or the hump, the pendulum past its crest
WELLS = st.one_of(
    st.tuples(st.builds(Harmonic, m=_scale, omega=_scale), st.just(40.0)),
    st.tuples(st.builds(Quartic, m=_scale, lam=_scale), st.just(40.0)),
    st.tuples(st.builds(Morse, m=_scale, depth=st.floats(min_value=5.0, max_value=40.0),
                        width=_scale), st.just(50.0)),
    st.tuples(st.builds(Pendulum, m=_scale, amplitude=_scale), st.just(5.0)),
    st.tuples(st.builds(lambda tilt, a: Polynomial(coeffs=(0.0, tilt, -a, 0.0, 0.5)),
                        st.floats(min_value=-0.5, max_value=0.5), _scale), st.just(6.0)),
    st.tuples(st.builds(Rotor, inertia=_scale), st.just(10.0)),
)


class TestKeptWorkIsBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(well=WELLS,
           fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
           order=st.sampled_from(["rising", "falling", "shuffled"]),
           rng=st.randoms(use_true_random=False))
    def test_turning_points_and_loop_integrals_match_the_walk_from_scratch(
            self, well, fractions, order, rng):
        # one instance for the whole sequence, so later energies read what earlier
        # ones kept
        potential, band = well
        energies = [potential.landscape.v_min + band * f for f in fractions]
        if order == "shuffled":
            rng.shuffle(energies)
        else:
            energies.sort(reverse=order == "falling")
        for E in energies:
            want = reference_turning_points(potential, E)
            assert _bits(turning_points(potential, E)) == _bits(want)
            if want is not None:
                motion = MotionKind.LIBRATION
            elif potential.period is not None:
                motion = MotionKind.ROTATION
            else:
                continue  # escapes: no loop
            for n in (128, 256):
                got = bohr_sommerfeld._loop_integrals(potential, E, motion, n)
                assert _bits(got) == _bits(reference_loop_integrals(potential, E, motion, n))


class TestKeptWork:
    @staticmethod
    def count_value_calls(potential, monkeypatch):
        """(array call?, inside _solve?) for each V call on `potential`'s family."""
        calls, solving = [], []
        value, solve = type(potential).value, bohr_sommerfeld._solve

        def counted_value(self, q):
            calls.append((np.ndim(q) > 0, bool(solving)))
            return value(self, q)

        def counted_solve(*args):
            solving.append(True)
            try:
                return solve(*args)
            finally:
                solving.pop()

        monkeypatch.setattr(type(potential), "value", counted_value)
        monkeypatch.setattr(bohr_sommerfeld, "_solve", counted_solve)
        return calls

    @pytest.mark.parametrize("potential, first, second", [
        (Harmonic(), 3.0, 2.0),
        (Quartic(), 0.5, 0.7),
        (Morse(m=1.0, depth=12.0, width=1.0), 6.0, 1.0),
        (Pendulum(), 0.5, -0.5),
        (Pendulum(), 2.0, 1.5),
        (Polynomial(coeffs=(0.0, 0.3, -2.0, 0.0, 0.5)), 1.0, -1.5),
        (Rotor(), 0.5, 2.0),
    ], ids=["harmonic", "quartic", "morse", "pendulum", "pendulum-rotation", "tilted",
            "rotor"])
    def test_a_second_action_makes_one_array_call_beyond_its_solves(
            self, potential, first, second, monkeypatch):
        calls = self.count_value_calls(potential, monkeypatch)
        action(potential, first)
        calls.clear()
        action(potential, second)
        assert [call for call in calls if not call[1]] == [(True, False)]

    @pytest.mark.parametrize("potential, E", [
        (Harmonic(), 3.0),
        (Quartic(), 0.5),
        (Morse(m=1.0, depth=12.0, width=1.0), 6.0),
        (Pendulum(), 0.5),
        (Polynomial(coeffs=(0.0, 0.3, -2.0, 0.0, 0.5)), 1.0),
    ], ids=["harmonic", "quartic", "morse", "pendulum", "tilted"])
    def test_the_first_action_after_the_landscape_walks_no_stop(self, potential, E,
                                                                monkeypatch):
        # the walks' V values are landscape data: the loop's quadrature is the only
        # V call that is not part of a turning-point solve
        potential.landscape
        calls = self.count_value_calls(potential, monkeypatch)
        action(potential, E)
        assert [call for call in calls if not call[1]] == [(True, False)]

    @pytest.mark.parametrize("potential", [Harmonic(), Morse(m=1.0, depth=12.0, width=1.0)],
                             ids=["harmonic", "morse"])
    def test_a_walk_cut_by_an_error_in_v_is_not_read_as_escape(self, potential,
                                                                 monkeypatch):
        # V fails in the walks' own array call, after the equilibrium scan, whose
        # array calls are V' only
        E, cls = 10.0, type(potential)
        value, raised = cls.value, []

        def failing(self, q):
            if np.ndim(q) > 0 and not raised:
                raised.append(q)
                raise FloatingPointError("V failed part-way out")
            return value(self, q)

        monkeypatch.setattr(cls, "value", failing)
        with pytest.raises(FloatingPointError):
            turning_points(potential, E)
        assert len(raised) == 1
        assert np.array_equal(raised[0], potential.landscape.walks[0][0][1:])  # right side
        monkeypatch.setattr(cls, "value", value)
        got = turning_points(potential, E)
        assert got is not None
        assert _bits(got) == _bits(reference_turning_points(potential, E))

    @pytest.mark.parametrize("potential", [Harmonic(), Pendulum(), TILTED_WELL],
                             ids=["harmonic", "pendulum", "tilted"])
    def test_an_energy_equal_to_v_at_a_stop_walks_past_it(self, potential):
        # V = E at a stop is not above E: the walk goes on, as it did stop by stop
        for stops, _ in potential.landscape.walks:
            for stop in stops[1:]:
                E = float(potential.value(float(stop)))
                if E > potential.landscape.v_min:
                    assert _bits(turning_points(potential, E)) == _bits(
                        reference_turning_points(potential, E))
