import math

import numpy as np
import pytest

from phasekit import (
    CanonicalEnsemble,
    DomainError,
    Harmonic,
    NoRealTemperatureError,
    Pendulum,
    Polynomial,
    Quartic,
    find_equilibria,
)
from phasekit.potentials import EquilibriumPoint, Stability
from phasekit.thermo import (
    equilibrium_energy,
    matching_temperature,
    schrodinger_residual,
    thermo_profile,
)


def stable_point(potential, interval=(-10.0, 10.0)):
    points = [pt for pt in find_equilibria(potential, interval)
              if pt.stability is Stability.MINIMUM]
    assert points, "expected at least one minimum"
    return min(points, key=lambda pt: float(potential.value(pt.q0)))


class TestMatchingTemperature:
    def test_unit_harmonic(self):
        report = matching_temperature(Harmonic(m=1.0, omega=1.0), stable_point(Harmonic()))
        assert report.matched_beta == pytest.approx(1.0, rel=1e-12)
        assert report.matched_temperature == pytest.approx(0.5, rel=1e-12)
        assert report.curvature == pytest.approx(1.0, rel=1e-12)

    def test_stiff_light_harmonic(self):
        pot = Harmonic(m=0.5, omega=2.0)
        report = matching_temperature(pot, stable_point(pot))
        # curvature m omega^2 = 2, beta = sqrt(0.5/2) = 0.5, T = 1/(2 beta)
        assert report.matched_beta == pytest.approx(0.5, rel=1e-12)
        assert report.matched_temperature == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_harmonic_grid_gives_half_hbar_omega(self, m, omega):
        pot = Harmonic(m=m, omega=omega)
        report = matching_temperature(pot, stable_point(pot))
        assert report.matched_temperature == pytest.approx(0.5 * omega, rel=1e-12)
        assert report.matched_beta == pytest.approx(1.0 / omega, rel=1e-12)

    def test_pendulum_crest_has_no_real_temperature(self):
        crest = next(pt for pt in find_equilibria(Pendulum(), (0.5, 6.0))
                     if pt.stability is Stability.MAXIMUM)
        with pytest.raises(NoRealTemperatureError):
            matching_temperature(Pendulum(), crest)

    def test_degenerate_curvature_rejected(self):
        flat = EquilibriumPoint(q0=0.0, curvature=0.0, stability=Stability.DEGENERATE)
        with pytest.raises(NoRealTemperatureError):
            matching_temperature(Quartic(), flat)

    def test_units_scale_out(self):
        pot = Harmonic(m=1.0, omega=1.0)
        report = matching_temperature(pot, stable_point(pot), hbar=2.0, k_B=3.0)
        assert report.matched_beta == pytest.approx(0.5, rel=1e-12)
        assert report.matched_temperature == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestEquilibriumEnergy:
    def test_single_harmonic_matches_ground_level(self):
        pot = Harmonic(m=1.0, omega=1.0)
        pt = stable_point(pot)
        T = matching_temperature(pot, pt).matched_temperature
        assert equilibrium_energy(pot, pt, T) == pytest.approx(0.5, rel=1e-12)

    def test_zero_temperature_leaves_mechanical_minimum(self):
        lifted = Polynomial(m=1.0, coeffs=(1.0, 0.0, 0.5))
        pt = stable_point(lifted)
        assert equilibrium_energy(lifted, pt, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_separable_sum_adds_one_kBT_per_coordinate(self):
        pots = [Harmonic(m=1.0, omega=1.0), Harmonic(m=0.5, omega=2.0)]
        pts = [stable_point(p) for p in pots]
        assert equilibrium_energy(pots, pts, 0.5, N=2) == pytest.approx(1.0, rel=1e-12)

    def test_dof_count_mismatch_rejected(self):
        pot = Harmonic()
        pt = stable_point(pot)
        with pytest.raises(ValueError):
            equilibrium_energy(pot, pt, 0.5, N=3)
        with pytest.raises(ValueError):
            equilibrium_energy([pot, pot], [pt], 0.5)

    def test_maximum_is_not_an_equilibrium(self):
        crest = next(pt for pt in find_equilibria(Pendulum(), (0.5, 6.0))
                     if pt.stability is Stability.MAXIMUM)
        with pytest.raises(ValueError):
            equilibrium_energy(Pendulum(), crest, 0.5)


class TestStationarityResidual:
    def test_matched_harmonic_cancels_everywhere(self):
        ens = CanonicalEnsemble(beta=1.0)
        qs = np.linspace(-5.0, 5.0, 201)
        res = schrodinger_residual(Harmonic(m=1.0, omega=1.0), ens, qs)
        assert np.max(np.abs(res)) <= 1e-12

    @pytest.mark.parametrize("m,omega", [(0.5, 2.0), (2.0, 0.5)])
    def test_matched_cancellation_is_curvature_wide(self, m, omega):
        pot = Harmonic(m=m, omega=omega)
        beta = matching_temperature(pot, stable_point(pot)).matched_beta
        res = schrodinger_residual(pot, CanonicalEnsemble(beta=beta),
                                   np.linspace(-4.0, 4.0, 101))
        assert np.max(np.abs(res)) <= 1e-12

    def test_quartic_leaves_a_residual(self):
        # beta hbar^2/2m V'' + V - beta^2 hbar^2/2m V'^2 at q=1 for V = q^4/4:
        # 1.5 + 0.25 - 0.5 = 1.25, and the flat-curvature reference energy is 0
        res = schrodinger_residual(Quartic(), CanonicalEnsemble(beta=1.0), 1.0)
        assert isinstance(res, float)
        assert res == pytest.approx(1.25, rel=1e-12)

    def test_mismatched_beta_breaks_cancellation(self):
        res = schrodinger_residual(Harmonic(), CanonicalEnsemble(beta=2.0),
                                   np.array([1.0]))
        assert abs(res[0]) > 0.1


class TestThermoProfile:
    def test_paper_convention_free_energy_is_the_potential(self):
        ens = CanonicalEnsemble(beta=1.0)
        grid = np.linspace(-3.0, 3.0, 121)
        prof = thermo_profile(Harmonic(), ens, grid)
        assert prof.normalization == "paper"
        assert np.allclose(prof.free_energy, prof.potential, rtol=1e-12, atol=1e-12)

    def test_entropy_bridge_is_exact(self):
        ens = CanonicalEnsemble(beta=0.7)
        prof = thermo_profile(Quartic(), ens, np.linspace(-2.0, 2.0, 41))
        assert np.allclose(prof.entropy, np.log(prof.psi_sq), rtol=0, atol=0)
        assert np.allclose(prof.free_energy + prof.temperature * prof.entropy,
                           0.0, atol=0.0)

    def test_normalized_convention_shifts_by_a_constant(self):
        ens = CanonicalEnsemble(beta=1.0)
        grid = np.linspace(-2.0, 2.0, 51)
        raw = thermo_profile(Harmonic(), ens, grid)
        scaled = thermo_profile(Harmonic(), ens, grid, normalization="normalized")
        shift = scaled.free_energy - raw.free_energy
        assert np.ptp(shift) <= 1e-12 * max(1.0, np.max(np.abs(shift)))
        # the shift is T ln Z with Z = integral of e^{-q^2} = sqrt(pi)
        assert shift[0] == pytest.approx(0.25 * math.log(math.pi), rel=1e-9)

    def test_underflow_raises_domain_error(self):
        ens = CanonicalEnsemble(beta=1.0)
        with pytest.raises(DomainError):
            thermo_profile(Harmonic(), ens, np.array([0.0, 40.0]))

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError):
            thermo_profile(Harmonic(), CanonicalEnsemble(beta=1.0),
                           np.array([0.0]), normalization="grand")
