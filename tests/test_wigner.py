import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from phasekit import (
    AccuracyError,
    CanonicalEnsemble,
    Harmonic,
    Morse,
    Pendulum,
    Polynomial,
    Quartic,
    Rotor,
    NormalizationError,
)
from phasekit.wigner import (
    NORMALIZER_TOLERANCE,
    PhaseSpaceAmplitudeSpec,
    _normalizer,
    amplitude_factorization_check,
    characteristic_closed_form,
    characteristic_quadrature,
    equilibrium_density,
    gaussian_amplitude,
    infinitesimal_scale,
    normalization_box,
    pde_residual,
    product_form_characteristic,
)

ENS = CanonicalEnsemble(beta=1.0)
HARMONIC = Harmonic(m=1.0, omega=1.0)


class TestClosedForm:
    def test_harmonic_peak_is_inverse_root_pi(self):
        sample = characteristic_closed_form(ENS, HARMONIC, 0.0, 0.0)
        assert sample.value.real == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
        assert sample.value.imag == 0.0

    def test_harmonic_small_displacement(self):
        sample = characteristic_closed_form(ENS, HARMONIC, 0.0, 0.1)
        expected = math.exp(-0.0025) / math.sqrt(math.pi)
        assert sample.value.real == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("potential", [HARMONIC, Quartic(), Morse(m=1.0, depth=12.0, width=1.0)])
    def test_zero_displacement_is_equilibrium_density(self, potential):
        ens = CanonicalEnsemble(beta=1.5)
        for q in (-0.8, 0.0, 1.3):
            sample = characteristic_closed_form(ens, potential, q, 0.0)
            assert sample.value.real == pytest.approx(
                float(equilibrium_density(potential, ens, q)), rel=1e-12)

    def test_unit_normalization_over_box(self):
        box = normalization_box(HARMONIC, ENS)
        qs = np.linspace(*box, 20001)
        vals = [characteristic_closed_form(ENS, HARMONIC, q, 0.0).value.real for q in qs]
        assert np.trapezoid(vals, qs) == pytest.approx(1.0, abs=1e-9)


class TestQuadratureOracle:
    def test_matches_closed_form_at_probe_point(self):
        quad = characteristic_quadrature(ENS, HARMONIC, 0.5, 0.05)
        closed = characteristic_closed_form(ENS, HARMONIC, 0.5, 0.05)
        assert quad.value.real == pytest.approx(closed.value.real, rel=1e-8)
        assert abs(quad.value.imag) <= 1e-10

    def test_zero_displacement_recovers_equilibrium_density(self):
        quad = characteristic_quadrature(ENS, HARMONIC, 0.7, 0.0)
        assert quad.value.real == pytest.approx(
            float(equilibrium_density(HARMONIC, ENS, 0.7)), rel=1e-10)

    def test_displacement_flip_conjugates(self):
        plus = characteristic_quadrature(ENS, HARMONIC, 0.4, 0.08)
        minus = characteristic_quadrature(ENS, HARMONIC, 0.4, -0.08)
        assert minus.value == pytest.approx(plus.value.conjugate(), rel=1e-12, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(min_value=-2.0, max_value=2.0),
           dq=st.floats(min_value=-0.2, max_value=0.2))
    def test_hermitian_and_peak_properties(self, q, dq):
        val = characteristic_quadrature(ENS, HARMONIC, q, dq).value
        conj = characteristic_quadrature(ENS, HARMONIC, q, -dq).value
        peak = characteristic_closed_form(ENS, HARMONIC, q, 0.0).value.real
        assert conj == pytest.approx(val.conjugate(), rel=1e-10, abs=1e-14)
        assert abs(val) <= peak * (1 + 1e-12)

    def test_unconverged_quadrature_reports_estimate(self):
        with pytest.raises(AccuracyError) as info:
            characteristic_quadrature(CanonicalEnsemble(beta=0.1), HARMONIC, 0.0, 3.0,
                                      order=2)
        assert info.value.estimate is not None
        assert info.value.estimate > 1e-10


class TestTransportIdentity:
    @pytest.mark.parametrize("potential,q", [
        (HARMONIC, 0.3),
        (Quartic(), 1.0),
    ])
    def test_closed_form_solves_identity(self, potential, q):
        rho = characteristic_closed_form(ENS, potential, q, 0.01).value.real
        assert abs(pde_residual(ENS, potential, q, 0.01)) <= 1e-12 * rho

    def test_zero_displacement_residual_vanishes(self):
        assert pde_residual(ENS, HARMONIC, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("potential", [HARMONIC, Quartic(), Morse(m=1.0, depth=12.0, width=1.0)])
    def test_identity_reproduced_by_finite_differences(self, potential):
        # independent route: mixed derivative of the closed form by central
        # differences instead of the analytic product rule
        ens = CanonicalEnsemble(beta=1.5)
        q, dq, h = 0.4, 0.05, 1e-5

        def rho(qq, dd):
            return characteristic_closed_form(ens, potential, qq, dd).value.real

        mixed = (rho(q + h, dq + h) - rho(q + h, dq - h)
                 - rho(q - h, dq + h) + rho(q - h, dq - h)) / (4 * h * h)
        residual = (-(ens.hbar**2 / potential.mass) * mixed
                    + float(potential.derivative(q)) * dq * rho(q, dq))
        assert abs(residual) <= 1e-6 * rho(q, dq)


class TestProductForm:
    def test_matched_beta_collapses_to_closed_form(self):
        # beta = 1 satisfies the curvature matching for unit harmonic
        for q in (-1.0, 0.0, 0.7):
            for dq in (0.0, 0.005, 0.01):
                a = product_form_characteristic(ENS, HARMONIC, q, dq).value.real
                b = characteristic_closed_form(ENS, HARMONIC, q, dq).value.real
                assert a == pytest.approx(b, rel=1e-8)

    def test_matched_shifted_quadratic(self):
        # V = (q - 1)^2 has curvature 2, matched by beta = sqrt(1/2)
        pot = Polynomial(m=1.0, coeffs=(1.0, -2.0, 1.0))
        ens = CanonicalEnsemble(beta=math.sqrt(0.5))
        a = product_form_characteristic(ens, pot, 0.3, 0.01).value.real
        b = characteristic_closed_form(ens, pot, 0.3, 0.01).value.real
        assert a == pytest.approx(b, rel=1e-8)

    def test_zero_displacement_always_agrees(self):
        ens = CanonicalEnsemble(beta=2.0)
        a = product_form_characteristic(ens, Quartic(), 0.8, 0.0).value.real
        b = characteristic_closed_form(ens, Quartic(), 0.8, 0.0).value.real
        assert a == pytest.approx(b, rel=1e-12)

    def test_unmatched_beta_mismatch_is_second_order(self):
        ens = CanonicalEnsemble(beta=2.0)

        def mismatch(dq):
            a = product_form_characteristic(ens, HARMONIC, 0.5, dq).value.real
            b = characteristic_closed_form(ens, HARMONIC, 0.5, dq).value.real
            return abs(a - b) / b

        ratio = mismatch(2e-3) / mismatch(1e-3)
        assert ratio == pytest.approx(4.0, abs=0.2)


class TestAmplitudeFactorization:
    def test_gaussian_ratio_constant_in_displacement(self):
        amp = gaussian_amplitude(sigma_p=1.0)
        ratios = [amplitude_factorization_check(amp, ENS, 0.3, dq).ratio
                  for dq in (0.0, 0.05, 0.1, 0.2)]
        base = ratios[0]
        for r in ratios[1:]:
            assert abs(r - base) <= 1e-8 * abs(base)

    def test_two_gaussian_mixture_ratio_still_constant(self):
        amp = PhaseSpaceAmplitudeSpec(
            g=lambda q: np.exp(-np.asarray(q, dtype=float)**2 / 2),
            h=lambda p: (np.exp(-(np.asarray(p, dtype=float) - 2.0)**2 / 2)
                         + np.exp(-(np.asarray(p, dtype=float) + 2.0)**2 / 2)),
        )
        ratios = [amplitude_factorization_check(amp, ENS, 0.0, dq).ratio
                  for dq in (0.0, 0.05, 0.1, 0.2)]
        base = ratios[0]
        for r in ratios[1:]:
            assert abs(r - base) <= 1e-8 * abs(base)

    def test_convolution_halves_the_product(self):
        check = amplitude_factorization_check(gaussian_amplitude(), ENS, 0.1, 0.07)
        assert check.ratio.real == pytest.approx(0.5, rel=1e-10)
        assert check.lhs == pytest.approx(0.5 * check.rhs, rel=1e-10)

    def test_undecayed_profile_is_rejected(self):
        wide = PhaseSpaceAmplitudeSpec(
            g=lambda q: np.exp(-np.asarray(q, dtype=float)**2 / 2),
            h=lambda p: np.exp(-np.asarray(p, dtype=float)**2 / 800.0),
        )
        with pytest.raises(AccuracyError):
            amplitude_factorization_check(wide, ENS, 0.0, 0.1)


class TestNormalizationBox:
    def test_morse_box_is_finite_for_cold_ensemble(self):
        lo, hi = normalization_box(Morse(m=1.0, depth=12.0, width=1.0),
                                   CanonicalEnsemble(beta=1.5))
        assert lo < 0 < hi
        assert hi <= 64

    def test_rotor_box_is_one_period(self):
        assert normalization_box(Rotor(), ENS) == (0.0, 2 * math.pi)

    def test_pendulum_density_never_decays(self):
        with pytest.raises(NormalizationError):
            normalization_box(Pendulum(), ENS)

    def test_unbounded_below_potential_rejected(self):
        with pytest.raises(NormalizationError):
            characteristic_closed_form(ENS, Polynomial(coeffs=(0.0, 0.0, -1.0)), 0.0, 0.0)

    def test_deep_pendulum_is_not_normalizable_either(self):
        # one well at q = -2 pi passed the wall test; every well weighs the same
        with pytest.raises(NormalizationError):
            normalization_box(Pendulum(amplitude=5.0), CanonicalEnsemble(beta=2.0))

    def test_box_holds_the_second_well_of_a_tilted_double_well(self):
        tilted = Polynomial(coeffs=(0.0, 0.05, -1.2, 0.0, 0.3))
        ens = CanonicalEnsemble(beta=20.0)
        lo, hi = normalization_box(tilted, ens)
        minima = [pt.q0 for pt in tilted.landscape.equilibria if pt.curvature > 0]
        assert len(minima) == 2 and lo < min(minima) and max(minima) < hi
        whole, _ = quad(lambda q: math.exp(-40.0 * float(tilted.value(q))), -10.0, 10.0,
                        points=minima, epsabs=0.0, epsrel=1e-13, limit=400)
        assert _normalizer(tilted, ens, None) == pytest.approx(whole, rel=1e-12)


#: shallow tilted wells keep Z finite at beta = 1000; up to beta = 20 both wells carry weight
NORMALIZER_CASES = [Harmonic(), Quartic(m=1.3, lam=0.7), Morse(m=1.1, depth=16.0, width=0.8),
                    Polynomial(coeffs=(0.0, 0.01, -0.2, 0.0, 0.1)),
                    Polynomial(m=1.2, coeffs=(0.0, -0.02, -0.3, 0.0, 0.2))]


class TestNormalizer:
    @pytest.mark.parametrize("beta", [0.05, 1.0, 20.0, 1000.0])
    @pytest.mark.parametrize("potential", NORMALIZER_CASES, ids=lambda p: type(p).__name__)
    def test_matches_scipy_quad(self, potential, beta):
        self._check(potential, CanonicalEnsemble(beta=beta))

    @pytest.mark.parametrize("beta", [100.0, 1000.0])
    def test_narrow_well_matches_scipy_quad(self, beta):
        # the peak is about 1e-3 of the box wide, too narrow for a fixed 16-panel rule
        self._check(Harmonic(omega=50.0), CanonicalEnsemble(beta=beta))

    @staticmethod
    def _check(potential, ens):
        try:
            lo, hi = normalization_box(potential, ens)
        except NormalizationError:
            assert isinstance(potential, Morse) and ens.beta < 1.0  # the plateau never decays
            return
        minima = [pt.q0 for pt in potential.landscape.equilibria if lo < pt.q0 < hi]
        want, _ = quad(lambda q: math.exp(-2.0 * ens.beta * float(potential.value(q))), lo, hi,
                       points=minima or None, epsabs=0.0, epsrel=1e-13, limit=1000)
        assert _normalizer(potential, ens, None) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("center", [18.0, 100.0])
    def test_shifted_well_stops_at_the_rounding_floor(self, center):
        # V = (q - c)^2 / 2 written as a polynomial cancels terms near c^2 / 2, which
        # leaves exp(-2 beta V) a rounding noise above the 1e-13 tolerance
        well = Polynomial(coeffs=(0.5 * center**2, -center, 0.5))
        z = _normalizer(well, CanonicalEnsemble(beta=20.0), None)
        assert z == pytest.approx(math.sqrt(math.pi / 20.0), rel=1e-11)

    def test_unconverged_panels_raise_accuracy_error(self):
        # a thousand narrow wells in one explicit box need more panels than the cap
        with pytest.raises(AccuracyError) as info:
            characteristic_closed_form(ENS, Pendulum(amplitude=50.0), 0.0, 0.0,
                                       box=(0.0, 2000.0 * math.pi))
        assert info.value.estimate > NORMALIZER_TOLERANCE


def test_infinitesimal_scale():
    assert infinitesimal_scale(CanonicalEnsemble(beta=4.0), mass=1.0) == pytest.approx(0.4)
