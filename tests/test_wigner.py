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
from phasekit import wigner
from phasekit.wigner import (
    NORMALIZER_TOLERANCE,
    _normalizer,
    characteristic_closed_form,
    characteristic_quadrature,
    equilibrium_density,
    normalization_box,
    pde_residual,
    product_form_characteristic,
)

ENS = CanonicalEnsemble(beta=1.0)
HARMONIC = Harmonic(m=1.0, omega=1.0)


class TestClosedForm:
    def test_harmonic_peak_is_inverse_root_pi(self):
        sample = characteristic_closed_form(ENS, HARMONIC, 0.0, 0.0)
        assert sample == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
        assert sample.imag == 0.0

    def test_harmonic_small_displacement(self):
        sample = characteristic_closed_form(ENS, HARMONIC, 0.0, 0.1)
        expected = math.exp(-0.0025) / math.sqrt(math.pi)
        assert sample == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("potential", [HARMONIC, Quartic(), Morse(m=1.0, depth=12.0, width=1.0)])
    def test_zero_displacement_is_equilibrium_density(self, potential):
        ens = CanonicalEnsemble(beta=1.5)
        for q in (-0.8, 0.0, 1.3):
            sample = characteristic_closed_form(ens, potential, q, 0.0)
            assert sample == pytest.approx(
                float(equilibrium_density(potential, ens, q)), rel=1e-12)

    def test_unit_normalization_over_box(self):
        box = normalization_box(HARMONIC, ENS)
        qs = np.linspace(*box, 20001)
        vals = [characteristic_closed_form(ENS, HARMONIC, q, 0.0) for q in qs]
        assert np.trapezoid(vals, qs) == pytest.approx(1.0, abs=1e-9)


class TestQuadratureOracle:
    def test_matches_closed_form_at_probe_point(self):
        quad = characteristic_quadrature(ENS, HARMONIC, 0.5, 0.05)
        closed = characteristic_closed_form(ENS, HARMONIC, 0.5, 0.05)
        assert quad.real == pytest.approx(closed, rel=1e-8)
        assert abs(quad.imag) <= 1e-10

    def test_zero_displacement_recovers_equilibrium_density(self):
        quad = characteristic_quadrature(ENS, HARMONIC, 0.7, 0.0)
        assert quad.real == pytest.approx(
            float(equilibrium_density(HARMONIC, ENS, 0.7)), rel=1e-10)

    def test_displacement_flip_conjugates(self):
        plus = characteristic_quadrature(ENS, HARMONIC, 0.4, 0.08)
        minus = characteristic_quadrature(ENS, HARMONIC, 0.4, -0.08)
        assert minus == pytest.approx(plus.conjugate(), rel=1e-12, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(min_value=-2.0, max_value=2.0),
           dq=st.floats(min_value=-0.2, max_value=0.2))
    def test_hermitian_and_peak_properties(self, q, dq):
        val = characteristic_quadrature(ENS, HARMONIC, q, dq)
        conj = characteristic_quadrature(ENS, HARMONIC, q, -dq)
        peak = characteristic_closed_form(ENS, HARMONIC, q, 0.0)
        assert conj == pytest.approx(val.conjugate(), rel=1e-10, abs=1e-14)
        assert abs(val) <= peak * (1 + 1e-12)

    def test_unconverged_quadrature_reports_estimate(self, monkeypatch):
        monkeypatch.setattr(wigner, "QUADRATURE_ORDER", 2)
        with pytest.raises(AccuracyError) as info:
            characteristic_quadrature(CanonicalEnsemble(beta=0.1), HARMONIC, 0.0, 3.0)
        assert info.value.estimate is not None
        assert info.value.estimate > 1e-10


class TestTransportIdentity:
    @pytest.mark.parametrize("potential,q", [
        (HARMONIC, 0.3),
        (Quartic(), 1.0),
    ])
    def test_closed_form_solves_identity(self, potential, q):
        rho = characteristic_closed_form(ENS, potential, q, 0.01)
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
            return characteristic_closed_form(ens, potential, qq, dd)

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
                a = product_form_characteristic(ENS, HARMONIC, q, dq)
                b = characteristic_closed_form(ENS, HARMONIC, q, dq)
                assert a == pytest.approx(b, rel=1e-8)

    def test_matched_shifted_quadratic(self):
        # V = (q - 1)^2 has curvature 2, matched by beta = sqrt(1/2)
        pot = Polynomial(m=1.0, coeffs=(1.0, -2.0, 1.0))
        ens = CanonicalEnsemble(beta=math.sqrt(0.5))
        a = product_form_characteristic(ens, pot, 0.3, 0.01)
        b = characteristic_closed_form(ens, pot, 0.3, 0.01)
        assert a == pytest.approx(b, rel=1e-8)

    def test_zero_displacement_always_agrees(self):
        ens = CanonicalEnsemble(beta=2.0)
        a = product_form_characteristic(ens, Quartic(), 0.8, 0.0)
        b = characteristic_closed_form(ens, Quartic(), 0.8, 0.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_unmatched_beta_mismatch_is_second_order(self):
        ens = CanonicalEnsemble(beta=2.0)

        def mismatch(dq):
            a = product_form_characteristic(ens, HARMONIC, 0.5, dq)
            b = characteristic_closed_form(ens, HARMONIC, 0.5, dq)
            return abs(a - b) / b

        ratio = mismatch(2e-3) / mismatch(1e-3)
        assert ratio == pytest.approx(4.0, abs=0.2)


#: the four characteristic-function routes of the wigner subcommand
ROUTES = [characteristic_closed_form, characteristic_quadrature, pde_residual,
          product_form_characteristic]
#: a tilted double well whose V_min is about -1.27; Z of exp(-2 beta V) overflows at beta = 1000
DEEP_TILTED = Polynomial(coeffs=(0.0, 0.05, -1.2, 0.0, 0.3))


class TestGridEvaluation:
    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("potential", [Morse(m=1.0, depth=12.0, width=1.0), DEEP_TILTED,
                                           Quartic(m=1.3, lam=0.7)],
                             ids=lambda p: type(p).__name__)
    def test_grid_call_matches_point_calls_bit_for_bit(self, route, potential):
        ens = CanonicalEnsemble(beta=1.5, hbar=0.9)
        qs, dqs = np.linspace(-1.8, 1.8, 23), np.linspace(-0.3, 0.3, 13)
        grid = route(ens, potential, qs[:, None], dqs[None, :])
        points = np.array([[route(ens, potential, float(q), float(dq)) for dq in dqs]
                           for q in qs])
        assert grid.shape == (23, 13)
        assert np.array_equal(grid, points)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    def test_scalar_arguments_give_a_scalar(self, route):
        assert np.isscalar(route(ENS, HARMONIC, 0.3, 0.1))

    def test_deep_well_slice_integrates_to_one(self):
        ens = CanonicalEnsemble(beta=1000.0)
        qs = np.linspace(*normalization_box(DEEP_TILTED, ens), 200001)
        values = characteristic_closed_form(ens, DEEP_TILTED, qs, 0.0)
        assert np.isfinite(values).all()
        assert np.trapezoid(values, qs) == pytest.approx(1.0, abs=1e-9)


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
        v_min = tilted.landscape.v_min
        whole, _ = quad(lambda q: math.exp(-40.0 * (float(tilted.value(q)) - v_min)),
                        -10.0, 10.0, points=minima, epsabs=0.0, epsrel=1e-13, limit=400)
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
        v_min = potential.landscape.v_min
        want, _ = quad(lambda q: math.exp(-2.0 * ens.beta * (float(potential.value(q)) - v_min)),
                       lo, hi, points=minima or None, epsabs=0.0, epsrel=1e-13, limit=1000)
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
            _normalizer(Pendulum(amplitude=50.0), ENS, (0.0, 2000.0 * math.pi))
        assert info.value.estimate > NORMALIZER_TOLERANCE
