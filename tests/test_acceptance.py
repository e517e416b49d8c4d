"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Each test carries its wall-clock budget and asserts it.  A terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion after the run.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from phasekit import CanonicalEnsemble, Harmonic, Morse, Polynomial, Quartic, Rotor
from phasekit.bohr_sommerfeld import action, quantize, turning_points
from phasekit.potentials import Stability, find_equilibria
from phasekit.propagator import (
    classical_trajectory,
    harmonic_two_point_action,
    initial_value_trajectory,
    loop_action,
    sliced_phase,
)
from phasekit.schrodinger import fd_eigensolve, ground_state_overlap
from phasekit.thermo import (
    equilibrium_energy,
    matching_temperature,
    schrodinger_residual,
    thermo_profile,
)
from phasekit.wigner import (
    characteristic_closed_form,
    characteristic_quadrature,
    pde_residual,
    product_form_characteristic,
)


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds:g}s"


def lowest_minimum(potential):
    points = [pt for pt in find_equilibria(potential, (-10.0, 10.0))
              if pt.stability is Stability.MINIMUM]
    return min(points, key=lambda pt: float(potential.value(pt.q0)))


def test_criterion_01():
    """criterion 1: momentum-quadrature transform matches the closed form to 1e-8 on harmonic, quartic, and morse grids"""
    with budget(5.0):
        ens = CanonicalEnsemble(beta=1.5)
        qs = np.linspace(-2.0, 2.0, 21)
        dqs = np.linspace(-0.2, 0.2, 11)
        for pot in (Harmonic(m=1.0, omega=1.0), Quartic(m=1.0, lam=1.0),
                    Morse(m=1.0, depth=12.0, width=1.0)):
            for q in qs:
                for dq in dqs:
                    quad = characteristic_quadrature(ens, pot, float(q), float(dq))
                    closed = characteristic_closed_form(ens, pot, float(q), float(dq))
                    scale = abs(closed)
                    assert abs(quad - closed) <= 1e-8 * scale, (
                        f"{pot.to_json()['family']} at q={q:g}, delta_q={dq:g}")


def test_criterion_02():
    """criterion 2: the transport identity residual of the closed form stays below 1e-12 of the density"""
    with budget(1.0):
        ens = CanonicalEnsemble(beta=1.0)
        qs = np.linspace(-2.0, 2.0, 21)
        dqs = np.linspace(-0.2, 0.2, 11)
        for pot in (Harmonic(m=1.0, omega=1.0), Quartic(m=1.0, lam=1.0)):
            for q in qs:
                for dq in dqs:
                    rho = abs(characteristic_closed_form(ens, pot, float(q), float(dq)))
                    res = pde_residual(ens, pot, float(q), float(dq))
                    assert abs(res) <= 1e-12 * rho


def test_criterion_03():
    """criterion 3: curvature-split product form matches at matched beta; the mismatch shrinks as delta_q squared"""
    with budget(1.0):
        quadratics = [
            (Harmonic(m=1.0, omega=1.0), 1.0),
            (Polynomial(m=1.0, coeffs=(1.0, -2.0, 1.0)), math.sqrt(0.5)),
        ]
        for pot, beta in quadratics:
            ens = CanonicalEnsemble(beta=beta)
            for q in (-0.5, 0.0, 0.8):
                for dq in (-1e-2, -1e-3, 1e-3, 1e-2):
                    closed = characteristic_closed_form(ens, pot, q, dq)
                    product = product_form_characteristic(ens, pot, q, dq)
                    assert abs(product - closed) <= 1e-8 * abs(closed)

        unmatched = CanonicalEnsemble(beta=2.0)
        pot = Harmonic(m=1.0, omega=1.0)
        def mismatch(dq):
            closed = characteristic_closed_form(unmatched, pot, 0.3, dq)
            product = product_form_characteristic(unmatched, pot, 0.3, dq)
            return abs(product - closed)
        ratio = mismatch(0.01) / mismatch(0.005)
        assert abs(ratio - 4.0) <= 0.2


def test_criterion_04():
    """criterion 4: curvature matching gives k_B T = hbar omega / 2 and the equilibrium energy hits the numerical ground state"""
    with budget(10.0):
        for m in (0.5, 1.0, 2.0):
            for omega in (0.5, 1.0, 2.0):
                pot = Harmonic(m=m, omega=omega)
                pt = lowest_minimum(pot)
                rep = matching_temperature(pot, pt)
                assert rep.matched_temperature == pytest.approx(0.5 * omega, rel=1e-12)
                energy = equilibrium_energy(pot, pt, rep.matched_temperature)
                sigma = math.sqrt(1.0 / (m * omega))
                sol = fd_eigensolve(pot, box=(-10.0 * sigma, 10.0 * sigma), M=8192, k=1)
                rel = abs(energy - sol.eigenvalues[0]) / abs(sol.eigenvalues[0])
                assert rel <= 1e-6, f"m={m}, omega={omega}: rel {rel:.3e}"


def test_criterion_05():
    """criterion 5: the thermal amplitude at matched beta overlaps the numerical ground state to within 1e-6"""
    with budget(5.0):
        sol = fd_eigensolve(Harmonic(m=1.0, omega=1.0), M=8192, k=1)
        overlap = ground_state_overlap(Harmonic(m=1.0, omega=1.0),
                                       CanonicalEnsemble(beta=1.0), sol)
        assert overlap >= 1.0 - 1e-6


def test_criterion_06():
    """criterion 6: the stationarity defect of e^{-beta V} vanishes to 1e-12 across the harmonic well at matched beta"""
    with budget(1.0):
        res = schrodinger_residual(Harmonic(m=1.0, omega=1.0),
                                   CanonicalEnsemble(beta=1.0),
                                   np.linspace(-5.0, 5.0, 501))
        assert np.max(np.abs(res)) <= 1e-12


def test_criterion_07():
    """criterion 7: entropy and free energy satisfy S = k_B ln(psi^2), F_G = -T S, and F_G = V pointwise"""
    with budget(1.0):
        for pot, beta, grid in (
            (Harmonic(m=1.0, omega=1.0), 1.0, np.linspace(-3.0, 3.0, 121)),
            (Quartic(m=1.0, lam=1.0), 0.7, np.linspace(-2.5, 2.5, 81)),
        ):
            ens = CanonicalEnsemble(beta=beta)
            prof = thermo_profile(pot, ens, grid)
            assert np.allclose(prof.entropy, np.log(prof.psi_sq), rtol=1e-12, atol=0)
            assert np.allclose(prof.free_energy, -prof.temperature * prof.entropy,
                               rtol=1e-12, atol=0)
            assert np.allclose(prof.free_energy, prof.potential,
                               rtol=1e-12, atol=1e-15)


def test_criterion_08():
    """criterion 8: harmonic levels quantize to (n + 1/2) hbar omega within 1e-9 for n = 0..10"""
    with budget(2.0):
        res = quantize(Harmonic(m=1.0, omega=1.0), range(11))
        for lv in res.levels:
            assert lv.energy == pytest.approx(lv.n + 0.5, rel=1e-9)


def test_criterion_09():
    """criterion 9: rotor levels quantize to n^2 hbar^2 / 2I within 1e-9 and the periodic oracle reproduces them"""
    with budget(5.0):
        sol = fd_eigensolve(Rotor(inertia=1.0), boundary="periodic", M=16384, k=11)
        res = quantize(Rotor(inertia=1.0), range(6), oracle=sol)
        for lv in res.levels:
            if lv.n == 0:
                assert abs(lv.energy) <= 1e-9
                assert abs(lv.oracle_energy) <= 1e-6
            else:
                assert lv.energy == pytest.approx(0.5 * lv.n**2, rel=1e-9)
                assert abs(lv.relative_error) <= 1e-6
        for first in (1, 3, 5, 7, 9):
            split = abs(sol.eigenvalues[first] - sol.eigenvalues[first + 1])
            assert split <= 1e-8


def test_criterion_10():
    """criterion 10: quartic semiclassical levels stay within 2% of the finite-difference oracle and improve with n"""
    with budget(20.0):
        sol = fd_eigensolve(Quartic(m=1.0, lam=1.0), box=(-7.0, 7.0), M=8192, k=11)
        res = quantize(Quartic(m=1.0, lam=1.0), range(3, 11), oracle=sol)
        errors = [abs(lv.relative_error) for lv in res.levels]
        for lv, err in zip(res.levels, errors):
            assert err <= 0.02, f"n={lv.n}: {err:.4f}"
            assert err <= errors[0] + 1e-15, f"n={lv.n} worse than n=3"


def test_criterion_11():
    """criterion 11: the left-endpoint sliced kernel converges to the analytic action at first order and is exact for free motion"""
    with budget(10.0):
        free = Polynomial(m=1.0, coeffs=(0.0,))
        for n in (10, 1000, 100000):
            traj = classical_trajectory(free, 0.0, 1.0, 2.0, n)
            sp = sliced_phase(traj, free, E=0.0)
            assert abs(sp.S_cl - 0.25) <= 1e-12

        # The ladder runs on a path whose Lagrangian differs at its two ends
        # (q = cos t: L = -1/2 at t = 0, +1/2 at t = pi/2).  With q_a = q_b
        # the Lagrangian vanishes at both ends, the linear error term
        # cancels and the sum converges at second order instead (pinned in
        # test_propagator.py).
        t = math.pi / 2
        osc = Harmonic(m=1.0, omega=1.0)
        limit = harmonic_two_point_action(1.0, 1.0, 1.0, 0.0, t)
        ns = [1000, 2000, 4000, 8000, 16000, 32000, 64000, 100000]
        errors = {}
        for n in ns:
            traj = classical_trajectory(osc, 1.0, 0.0, t, n)
            defect = sliced_phase(traj, osc, E=0.0).S_cl - limit
            errors[n] = abs(defect)
            # the signed Euler-Maclaurin leading term of a left-endpoint sum,
            # -h (L(t_b) - L(t_a)) / 2, tells it from right-endpoint and
            # trapezoid sums
            ends = [0, -1]
            lag = (0.5 * traj.mass * traj.velocities[ends] ** 2
                   - np.asarray(osc.value(traj.positions[ends]), dtype=float))
            leading = -(t / n) * (lag[1] - lag[0]) / 2.0
            assert abs(defect - leading) <= 1e-4 * abs(leading), (
                f"sliced defect {defect:.6e} at N={n} is not the left-endpoint "
                f"leading term {leading:.6e}")
        assert errors[100000] <= 1e-4
        for n in ns[:-2]:
            ratio = errors[n] / errors[2 * n]
            assert 1.8 <= ratio <= 2.2, (
                f"error halving ratio at N={n} is {ratio:.4f}, outside [1.8, 2.2]")


def test_criterion_12():
    """criterion 12: dJ/dE equals the classical period and the trajectory-accumulated loop integral equals J(E)"""
    with budget(5.0):
        prof = action(Harmonic(m=1.0, omega=1.0), 1.0)
        period = 2.0 * math.pi
        assert abs(prof.dJ_dE - period) <= 1e-3 * period
        a, _ = turning_points(Harmonic(m=1.0, omega=1.0), 1.0)
        traj = initial_value_trajectory(Harmonic(m=1.0, omega=1.0), a, 0.0, period, 20000)
        assert loop_action(traj) == pytest.approx(prof.action, rel=1e-6)
