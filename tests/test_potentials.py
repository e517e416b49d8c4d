import dataclasses
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings, strategies as st

from phasekit import (
    EquilibriumPoint,
    Harmonic,
    Morse,
    Pendulum,
    Polynomial,
    Quartic,
    Rotor,
    Stability,
    find_equilibria,
    potential_from_json,
)
from phasekit import potentials
from phasekit.potentials import _classify, _solve, well_box

SEARCH_WINDOW = (-10.0, 10.0)  # where every landscape scan starts

DOUBLE_WELL = Polynomial(m=1.0, coeffs=(0.25, 0.0, -0.5, 0.0, 0.25))


def central_difference(potential, q):
    """Finite-difference oracle for V' and V''.

    The second difference uses a larger step: with step^2 in the
    denominator, rounding noise dominates below ~1e-4.
    """
    h1, h2 = 1e-6, 1e-4
    vp = (potential.value(q + h1) - potential.value(q - h1)) / (2 * h1)
    vpp = (potential.value(q + h2) - 2 * potential.value(q)
           + potential.value(q - h2)) / h2**2
    return vp, vpp


def triple(potential, q):
    """(V, V', V'') at q."""
    return potential.value(q), potential.derivative(q), potential.second_derivative(q)


def test_harmonic_triple_at_q2():
    assert triple(Harmonic(m=1.0, omega=1.0), 2.0) == (2.0, 2.0, 1.0)


def test_pendulum_triple_at_origin():
    assert triple(Pendulum(m=1.0, amplitude=1.0), 0.0) == (-1.0, 0.0, 1.0)


def test_quartic_triple_at_one():
    assert triple(Quartic(m=1.0, lam=1.0), 1.0) == (0.25, 1.0, 3.0)


@pytest.mark.parametrize("potential", [
    Harmonic(m=0.5, omega=2.0),
    Quartic(lam=0.7),
    DOUBLE_WELL,
    Pendulum(m=1.2, amplitude=0.8),
    Morse(m=1.0, depth=3.0, width=1.3),
])
@pytest.mark.parametrize("q", [-1.7, -0.3, 0.4, 2.1])
def test_analytic_derivatives_match_finite_differences(potential, q):
    dv, d2v = central_difference(potential, q)
    assert potential.derivative(q) == pytest.approx(dv, rel=1e-6, abs=1e-6)
    assert potential.second_derivative(q) == pytest.approx(d2v, rel=1e-5, abs=1e-5)


def test_morse_shape():
    mo = Morse(m=1.0, depth=2.0, width=1.5)
    assert mo.value(0.0) == 0.0
    assert mo.derivative(0.0) == 0.0
    assert mo.second_derivative(0.0) == pytest.approx(2 * 2.0 * 1.5**2)
    # dissociation plateau on the right
    assert mo.value(40.0) == pytest.approx(2.0)


def test_rotor_is_flat_and_periodic():
    rot = Rotor(inertia=2.0)
    assert rot.mass == 2.0
    assert rot.period == pytest.approx(2 * math.pi)
    assert rot.periodic_coordinate
    assert np.all(rot.value(np.linspace(0, 6, 7)) == 0.0)
    assert triple(rot, 1.0) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("potential", [
    Harmonic(m=0.5, omega=2.0),
    Quartic(m=2.0, lam=0.3),
    Polynomial(m=1.0, coeffs=(1.0, -2.0, 0.5)),
    Pendulum(m=1.0, amplitude=9.8),
    Rotor(inertia=3.0),
    Morse(m=1.0, depth=4.0, width=0.9),
])
def test_json_round_trip(potential):
    assert potential_from_json(potential.to_json()) == potential


@pytest.mark.parametrize("potential,echo", [
    (Harmonic(m=2.0, omega=1.5), '{"family": "harmonic", "m": 2.0, "omega": 1.5}'),
    (Quartic(m=0.5, lam=3.0), '{"family": "quartic", "m": 0.5, "lam": 3.0}'),
    (Polynomial(m=1.5, coeffs=(0.0, -1.0, 0.0, 0.25)),
     '{"family": "polynomial", "m": 1.5, "coeffs": [0.0, -1.0, 0.0, 0.25]}'),
    (Pendulum(m=2.0, amplitude=0.75), '{"family": "pendulum", "m": 2.0, "amplitude": 0.75}'),
    (Rotor(inertia=3.0), '{"family": "rotor", "inertia": 3.0}'),
    (Morse(m=1.0, depth=2.0, width=0.5),
     '{"family": "morse", "m": 1.0, "depth": 2.0, "width": 0.5}'),
], ids=["harmonic", "quartic", "polynomial", "pendulum", "rotor", "morse"])
def test_json_echo_is_pinned_byte_for_byte(potential, echo):
    # every artifact echoes its potential: key order and the coeffs list form are output
    assert json.dumps(potential.to_json()) == echo


EVERY_FAMILY = [
    Harmonic(m=1.3, omega=0.7),
    Quartic(m=0.8, lam=1.7),
    Polynomial(m=1.1, coeffs=(0.1, 0.05, -1.2, 0.3, 0.3)),
    Pendulum(m=0.9, amplitude=2.5),
    Rotor(inertia=1.2),
    Morse(m=1.4, depth=4.0, width=1.3),
]
FAMILY_IDS = ["harmonic", "quartic", "polynomial", "pendulum", "rotor", "morse"]
METHODS = ["value", "derivative", "second_derivative"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("potential", EVERY_FAMILY, ids=FAMILY_IDS)
@settings(max_examples=50)
@given(q=st.floats(min_value=-6.0, max_value=6.0))
def test_float_and_array_calls_agree_bit_for_bit(potential, method, q):
    # the RK4 force loop calls V' on floats, the quadratures on arrays
    f = getattr(potential, method)
    scalar = f(q)
    assert not isinstance(scalar, np.ndarray)
    assert float(scalar).hex() == float(f(np.array([q]))[0]).hex()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("potential", EVERY_FAMILY, ids=FAMILY_IDS)
def test_float_calls_round_as_the_array_loop_on_many_draws(potential, method):
    # Python's q**3 differs from the array loop in about 2% of such draws
    f = getattr(potential, method)
    qs = np.random.default_rng(7).uniform(-6.0, 6.0, 5000)
    assert [float(f(float(q))).hex() for q in qs] == [float(x).hex() for x in f(qs)]


def test_json_rejects_unknown_family_and_fields():
    with pytest.raises(ValueError, match="family"):
        potential_from_json({"family": "cubic", "m": 1.0})
    with pytest.raises(ValueError, match="unknown field"):
        potential_from_json({"family": "harmonic", "m": 1.0, "omega": 1.0, "phase": 0.0})
    with pytest.raises(ValueError, match="numbers"):
        potential_from_json({"family": "harmonic", "m": "heavy"})


@pytest.mark.parametrize("obj,match", [
    ({"family": "harmonic", "omega": math.nan}, "finite"),
    ({"family": "morse", "depth": math.inf}, "finite"),
    ({"family": "polynomial", "coeffs": [0.0, math.nan]}, "finite"),
    ({"family": "harmonic", "m": -1.0}, "positive"),
    ({"family": "quartic", "m": 0.0}, "positive"),
    ({"family": "rotor", "inertia": -2.0}, "positive"),
    ({"family": "polynomial", "coeffs": "0102"}, "numbers"),  # not read digit by digit
    ({"family": "polynomial", "coeffs": {"1": 0}}, "numbers"),
    ({"family": "polynomial", "coeffs": []}, "numbers"),
    ({"family": "polynomial", "coeffs": [0.0, True]}, "numbers"),
    ({"family": "polynomial", "coeffs": 1.0}, "numbers"),
    ({"family": "harmonic", "m": True}, "numbers"),
    ({"family": "harmonic", "omega": "2"}, "numbers"),
    ({"family": "morse", "depth": 10**400}, "numbers"),
])
def test_json_rejects_non_finite_fields_and_nonpositive_mass(obj, match):
    with pytest.raises(ValueError, match=match):
        potential_from_json(obj)


def test_json_accepts_numpy_scalars():
    obj = {"family": "polynomial", "m": np.float64(2.0), "coeffs": [np.int64(1), np.float32(0.5)]}
    assert potential_from_json(obj) == Polynomial(m=2.0, coeffs=(1.0, 0.5))


def test_polynomial_derivatives_match_polyder():
    coeffs = (0.3, -1.7, 0.25, 2.0, -0.6)
    pot = Polynomial(coeffs=coeffs)
    qs = np.linspace(-3.0, 3.0, 101)
    for order, method in ((1, pot.derivative), (2, pot.second_derivative)):
        expected = np.polynomial.polynomial.polyval(
            qs, np.polynomial.polynomial.polyder(coeffs, order))
        assert np.array_equal(method(qs), expected)
        assert float(method(0.7)) == float(np.polynomial.polynomial.polyval(
            0.7, np.polynomial.polynomial.polyder(coeffs, order)))


def _bits(x):
    """Shape and raw bytes of a float result: tells -0.0 from 0.0 and one NaN from another."""
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def test_horner_rounds_as_polyval_on_many_draws():
    rng = np.random.default_rng(11)
    qs = np.concatenate(([0.0, -0.0, 1.0, -1.0], rng.uniform(-6.0, 6.0, 60)))
    for n_coeffs in (1, 2, 3, 5, 7):
        for _ in range(10):
            coeffs = rng.normal(size=n_coeffs) * 10.0 ** rng.integers(-3, 4, n_coeffs)
            coeffs[rng.random(n_coeffs) < 0.2] = rng.choice([0.0, -0.0])
            pot = Polynomial(coeffs=tuple(coeffs.tolist()))
            for order, method in enumerate(METHODS):
                f, c = getattr(pot, method), npoly.polyder(coeffs, order)
                for grid in (qs, qs[:, None]):  # wigner passes an (n, 1) grid
                    assert _bits(f(grid)) == _bits(npoly.polyval(grid, c))
                assert [_bits(f(float(q))) for q in qs] == [
                    _bits(npoly.polyval(float(q), c)) for q in qs]


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=FAMILY_IDS)
def test_no_family_formula_calls_np_power_or_polyval(family, monkeypatch):
    # a binary ufunc on two scalars costs about 1 us, polyval about 2 us per float
    def refuse(*args, **kwargs):
        raise AssertionError("np.power or polyval called")
    monkeypatch.setattr(np, "power", refuse)
    monkeypatch.setattr(npoly, "polyval", refuse)
    fresh = potential_from_json(family.to_json())  # builds any cached coefficients anew
    for method in METHODS:
        getattr(fresh, method)(0.7)
        getattr(fresh, method)(np.linspace(-2.0, 2.0, 9))


def test_quartic_powers_are_within_two_ulp_of_exact():
    # two roundings bound q^3 by 2 ulp and three bound q^4 by 3; 200,000 such draws
    # stay within 1.27 and 1.89 (np.power within 0.68)
    rng = np.random.default_rng(5)
    qs = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-70.0, 70.0, 2000)
    pot = Quartic(lam=1.0)
    for method, exact in ((pot.value, lambda q: q**4 / 4), (pot.derivative, lambda q: q**3)):
        for q, got in zip(qs.tolist(), method(qs).tolist()):
            want = exact(Fraction(q))
            assert abs(Fraction(got) - want) <= 2 * Fraction(math.ulp(float(want))), q


def loop_equilibria(potential, interval, tolerance=1e-12, subintervals=2048):
    """Reference: the subinterval-by-subinterval bracket loop of find_equilibria."""
    a, b = interval
    grid = np.linspace(a, b, subintervals + 1)
    dv = np.asarray(potential.derivative(grid), dtype=float)
    if np.all(np.abs(dv) <= tolerance * max(1.0, float(np.max(np.abs(dv))))):
        return []
    roots = []
    for i in range(subintervals):
        if dv[i] == 0.0:
            roots.append(float(grid[i]))
        elif dv[i] < 0.0 < dv[i + 1] or dv[i] > 0.0 > dv[i + 1]:
            ends = (float(grid[i]), float(grid[i + 1]))
            below, above = ends if dv[i] < 0.0 else ends[::-1]
            roots.append(_solve(potential.derivative, potential.second_derivative, 0.0,
                                below, above))
    if dv[-1] == 0.0:
        roots.append(float(grid[-1]))
    return [EquilibriumPoint(q0=q0, curvature=float(potential.second_derivative(q0)),
                             stability=_classify(float(potential.second_derivative(q0))))
            for q0 in sorted(roots)]


def _scan_cases():
    rng = np.random.default_rng(7)
    cases = [(Harmonic(), SEARCH_WINDOW), (Quartic(), SEARCH_WINDOW),
             (Morse(depth=5.0, width=0.7), SEARCH_WINDOW), (Pendulum(), (-0.5, 7.0)),
             (Polynomial(coeffs=(0.0, 0.0, 0.0, 1.0)), (-1.0, 1.0)),
             (Morse(depth=10.0, width=4.0), SEARCH_WINDOW),
             (Polynomial(coeffs=(0.0, -1e-6, 0.0, 1.0 / 3.0)), SEARCH_WINDOW)]
    for _ in range(12):
        coeffs = tuple(float(c) for c in np.round(rng.uniform(-3.0, 3.0, rng.integers(3, 7)), 3))
        cases.append((Polynomial(coeffs=coeffs), SEARCH_WINDOW))
    return cases


@pytest.mark.parametrize("potential,interval", _scan_cases())
def test_vectorised_scan_matches_the_loop_bit_for_bit(potential, interval):
    assert find_equilibria(potential, interval) == loop_equilibria(potential, interval)


TILTED_WELL = Polynomial(m=1.0, coeffs=(0.0, 0.3, -4.0, 0.0, 1.0))


@pytest.mark.parametrize("potential,interval", [(TILTED_WELL, SEARCH_WINDOW)] + [
    (pot, interval) for pot, interval in _scan_cases() if isinstance(pot, Polynomial)])
def test_polished_equilibria_are_roots_to_rounding(potential, interval):
    # exact |V'(q0)| against the rounding bound 16 eps sum |k c_k q0^(k-1)| of V' at q0
    grid = np.linspace(*interval, 2049)
    slope = [k * Fraction(c) for k, c in enumerate(potential.coeffs)][1:]
    eps = Fraction(np.finfo(float).eps)
    roots = [pt.q0 for pt in find_equilibria(potential, interval) if pt.q0 not in grid]
    assert roots or potential.coeffs == (0.0, 0.0, 0.0, 1.0)  # q^3's only root, 0, is on the grid
    for q0 in roots:
        terms = [c * Fraction(q0) ** k for k, c in enumerate(slope)]
        assert abs(sum(terms)) <= 16 * eps * sum(abs(t) for t in terms), q0


@pytest.mark.parametrize("interval", [(2.0, 1.0), (-np.inf, 1.0), (0.0, np.nan),
                                      (-1e308, 1e308)],
                         ids=["reversed", "infinite", "nan", "width-overflows"])
def test_an_interval_without_a_finite_width_is_refused(interval):
    with pytest.raises(ValueError, match="interval"):
        find_equilibria(Harmonic(), interval)


def test_a_zero_tolerance_is_refused():
    with pytest.raises(ValueError, match="tolerance"):
        find_equilibria(Harmonic(), SEARCH_WINDOW, tolerance=0.0)


@pytest.mark.parametrize("interval", [SEARCH_WINDOW, (-1.0, 1.3), (-3.0, 2.0)])
def test_flat_bottom_is_degenerate_on_and_off_the_grid(interval):
    # V' = q^3 is about 1e-12 already at q = 1e-4, where V'' = 3e-8 would read as a minimum
    (pt,) = find_equilibria(Quartic(), interval)
    assert abs(pt.q0) < 1e-14
    assert pt.stability is Stability.DEGENERATE


@pytest.mark.parametrize("potential", [Quartic(), Polynomial(coeffs=(0.0,) * 6 + (1.0 / 6.0,))],
                         ids=["q^3", "q^5"])
def test_an_odd_multiple_root_is_polished_in_a_few_calls(potential, monkeypatch):
    # off the grid of (-1, 1.3) the polish starts about 7e-5 from 0; plain Newton
    # shrinks that by (m - 1) / m per step and took 60 V' calls to reach 1e-15
    derivative, scalar_calls = type(potential).derivative, []

    def counted(self, q):
        if isinstance(q, float):  # the grid scan is one array call
            scalar_calls.append(q)
        return derivative(self, q)

    monkeypatch.setattr(type(potential), "derivative", counted)
    (pt,) = find_equilibria(potential, (-1.0, 1.3))
    assert abs(pt.q0) < 1e-14
    assert len(scalar_calls) <= 15


@pytest.mark.parametrize("potential,expected", [
    # |V'| <= 1e-12 on the 205 grid points from q = 8.0 on is a plateau, not equilibria
    (Morse(depth=10.0, width=4.0), [(0.0, Stability.MINIMUM)]),
    # |V'| passes 1e154 below q = -8.7, where a product of neighbours overflows
    (Morse(depth=10.0, width=20.0), [(0.0, Stability.MINIMUM)]),
    # two roots of V' = q^2 - 1e-6 within one grid step of each other
    (Polynomial(coeffs=(0.0, -1e-6, 0.0, 1.0 / 3.0)),
     [(-0.001, Stability.MAXIMUM), (0.001, Stability.MINIMUM)]),
])
def test_equilibria_are_exact_zeros_and_sign_changes(potential, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = find_equilibria(potential, SEARCH_WINDOW)
    assert [(pytest.approx(q0, abs=1e-15), s) for q0, s in expected] == [
        (pt.q0, pt.stability) for pt in points]


def landscape_scans(potential, monkeypatch):
    """The windows that building `potential`'s landscape scans, and the landscape."""
    scans = []
    scan = potentials.find_equilibria
    monkeypatch.setattr(potentials, "find_equilibria",
                        lambda p, interval: scans.append(interval) or scan(p, interval))
    land = potential.landscape
    monkeypatch.undo()
    return scans, land


class TestLandscape:
    def test_centred_well_keeps_the_first_window(self):
        land = DOUBLE_WELL.landscape
        assert list(land.equilibria) == find_equilibria(DOUBLE_WELL, SEARCH_WINDOW)
        assert land.minimum == land.equilibria[0]  # the first of two equal wells
        assert land.v_min == float(DOUBLE_WELL.value(land.minimum.q0))
        assert land.crest is None

    def test_built_once_per_potential(self):
        pot = Harmonic()
        assert pot.landscape is pot.landscape

    def test_window_grows_past_a_shifted_well(self):
        pot = Polynomial(coeffs=(112.5, -15.0, 0.5))
        land = pot.landscape
        assert land.equilibria == (land.minimum,)
        assert land.minimum.q0 == pytest.approx(15.0, abs=1e-9)
        assert land.minimum.stability is Stability.MINIMUM
        assert land.v_min == pytest.approx(0.0, abs=1e-12)

    def test_growth_scans_to_the_root_bound_and_keeps_the_first_window(self, monkeypatch):
        # Fujiwara's bound on the roots of V' = q - q^3/900 + 6e-8 q^5 is
        # 2 (1/900 / 6e-8)^(1/2) = 272.2: the window doubles to (-320, 320), and the
        # outer roots, +-30.80 (maxima) and +-132.55 (minima), lie in its shells
        pot = Polynomial(coeffs=(0.0, 0.0, 0.5, 0.0, -1.0 / 3600.0, 0.0, 1e-8))
        scans, land = landscape_scans(pot, monkeypatch)
        assert scans == [SEARCH_WINDOW] + [
            shell for k in range(5) for shell in ((-20.0 * 2**k, -10.0 * 2**k),
                                                   (10.0 * 2**k, 20.0 * 2**k))]
        assert [(round(pt.q0, 2), pt.stability) for pt in land.equilibria] == [
            (-132.55, Stability.MINIMUM), (-30.8, Stability.MAXIMUM), (0.0, Stability.MINIMUM),
            (30.8, Stability.MAXIMUM), (132.55, Stability.MINIMUM)]
        assert [pt for pt in land.equilibria if abs(pt.q0) < 10.0] == find_equilibria(
            pot, SEARCH_WINDOW)
        assert land.minimum == land.equilibria[0]  # the first of two equal wells

    def test_a_root_bound_that_overflows_caps_the_scan(self, monkeypatch):
        # V' = 2e300 q + 4e-300 q^3: the ratio of its coefficients overflows, so the
        # window doubles 60 times, the cap, and stops at 10 * 2^60 = 1.15e19
        scans, land = landscape_scans(Polynomial(coeffs=(0.0, 0.0, 1e300, 0.0, 1e-300)),
                                      monkeypatch)
        assert len(scans) == 1 + 2 * 60  # the first window, then two shells per doubling
        assert scans[-1] == (10.0 * 2.0**59, 10.0 * 2.0**60)
        assert [(pt.q0, pt.stability) for pt in land.equilibria] == [(0.0, Stability.MINIMUM)]

    def test_a_v_unbounded_below_scans_only_to_its_root_bound(self, monkeypatch):
        # V = q^2 - 0.02 q^4 has a metastable well at 0 and barrier tops at +-5; its
        # root bound is 10, so the window doubles once, not 60 times, and the well is
        # the minimum
        pot = Polynomial(coeffs=(0.0, 0.0, 1.0, 0.0, -0.02))
        scans, land = landscape_scans(pot, monkeypatch)
        assert scans == [SEARCH_WINDOW, (-20.0, -10.0), (10.0, 20.0)]
        assert list(land.equilibria) == find_equilibria(pot, SEARCH_WINDOW)
        assert [round(pt.q0, 12) for pt in land.equilibria] == [-5.0, 0.0, 5.0]
        assert land.minimum.q0 == 0.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the shell (640, 1280) is scanned in steps of 0.3125, and V' changes sign twice "
        "within one of them (ROADMAP item 20)"))
    def test_a_close_pair_far_out_is_in_the_landscape(self):
        # V' = q (q - 1000.1) (q - 1000.2): a maximum and a minimum 0.1 apart
        pot = Polynomial(coeffs=(0, 0, 500150.01, -666.7666666666667, 0.25))
        pair = [(pt.q0, pt.stability) for pt in find_equilibria(pot, (999.0, 1001.0))]
        assert pair == [(1000.1000000001025, Stability.MAXIMUM),
                        (1000.1999999997051, Stability.MINIMUM)]
        land = [(pt.q0, pt.stability) for pt in pot.landscape.equilibria]
        assert land[1:] == [(pytest.approx(q0, rel=1e-12), s) for q0, s in pair]

    def test_periodic_family_never_grows(self):
        land = Pendulum(amplitude=3.0).landscape
        assert list(land.equilibria) == find_equilibria(Pendulum(amplitude=3.0), SEARCH_WINDOW)
        assert land.crest == 3.0
        assert land.v_min == -3.0

    def test_flat_potential_has_a_degenerate_floor(self):
        land = Rotor().landscape
        assert land.equilibria == ()
        assert land.minimum.stability is Stability.DEGENERATE
        assert land.minimum.curvature == 0.0
        assert (land.v_min, land.crest) == (0.0, 0.0)


_SCALE = st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None)
@given(potential=st.one_of(
    st.builds(Harmonic, m=_SCALE, omega=_SCALE),
    st.builds(Quartic, m=_SCALE, lam=_SCALE),
    st.builds(Pendulum, m=_SCALE, amplitude=_SCALE),
    st.builds(Rotor, inertia=_SCALE),
    # from width 70 on, exp(-width q) nears underflow inside the window
    st.builds(Morse, m=_SCALE, depth=_SCALE, width=st.floats(1e-3, 70.0))))
def test_closed_form_equilibria_are_the_scan_s_to_the_bit(potential):
    def bits(points):
        return [(pt.q0.hex(), pt.curvature.hex(), pt.stability) for pt in points]

    with mock.patch.object(potentials, "find_equilibria", side_effect=AssertionError("scan")):
        points = potential._equilibria()
    assert bits(points) == bits(find_equilibria(potential, SEARCH_WINDOW))
    if potential.period is not None:  # the crest as the highest of 2049 samples of a period
        samples = potential.value(np.linspace(0.0, potential.period, 2049))
        assert potential.landscape.crest.hex() == float(np.max(samples)).hex()


@pytest.mark.parametrize("width,scanned", [(80.0, 72), (100.0, 262), (1000.0, 949)])
def test_a_morse_well_of_large_width_has_one_equilibrium(width, scanned, monkeypatch):
    # where exp(-width q) underflows, V' is exactly 0 on the scan's grid, and the scan
    # takes each such point for a degenerate equilibrium
    potential = Morse(width=width)
    assert len(find_equilibria(potential, SEARCH_WINDOW)) == scanned
    scans, land = landscape_scans(potential, monkeypatch)
    assert scans == []
    assert land.equilibria == (EquilibriumPoint(0.0, 2.0 * width**2, Stability.MINIMUM),)


@dataclasses.dataclass(frozen=True)
class _BrokenWall(Harmonic):
    """A harmonic well whose V past q = 1.5 is `wall` (NaN or inf)."""

    wall: float = math.nan

    def value(self, q):
        return np.where(q > 1.5, self.wall, 0.5 * q * q)


class TestWellBox:
    def test_cyclic_coordinate_gives_one_period(self):
        assert well_box(Rotor(), 1.0) == (0.0, 2.0 * math.pi)

    def test_walls_are_tested_one_by_one(self):
        # V(-2) = 2 clears the level, V(2) is NaN; the lesser wall of the two (min of
        # the pair) read 2 and passed
        assert well_box(_BrokenWall(wall=math.nan), 1.0) is None
        assert well_box(_BrokenWall(wall=math.inf), 1.0) == (-2.0, 2.0)

    def test_accept_has_the_last_word(self):
        seen = []

        def accept(half):
            seen.append(half)
            return half >= 8.0

        assert well_box(Harmonic(), 0.1, accept) == (-8.0, 8.0)
        assert seen == [1.0, 2.0, 4.0, 8.0]  # the walls clear 0.1 from the first box on

    def test_periodic_line_potential_holds_its_own_well_only(self):
        # q0 = -2 pi; at -+16 both walls clear 4 (V = -5 cos 16 = 4.79), with other wells inside
        pot = Pendulum(amplitude=5.0)
        assert well_box(pot, 4.0) == (pot.landscape.minimum.q0 - 16.0,
                                      pot.landscape.minimum.q0 + 16.0)

    def test_every_well_below_the_level_is_held(self):
        # minima at 0 and 8 (V = 0.08) behind a barrier of 256 at 4: the walls clear 0.05
        # and 0.1 at -+1, but only the level above the second well reaches it
        pot = Polynomial(coeffs=(0.0, 0.01, 64.0, -16.0, 1.0))
        q0 = pot.landscape.minimum.q0
        assert well_box(pot, 0.05) == (q0 - 1.0, q0 + 1.0)
        assert well_box(pot, 0.1) == (q0 - 16.0, q0 + 16.0)


def test_double_well_equilibria():
    points = find_equilibria(DOUBLE_WELL, (-2.0, 2.0))
    assert [round(pt.q0, 9) for pt in points] == [-1.0, 0.0, 1.0]
    assert [pt.stability for pt in points] == [
        Stability.MINIMUM, Stability.MAXIMUM, Stability.MINIMUM]
    for pt in points:
        assert abs(DOUBLE_WELL.derivative(pt.q0)) <= 1e-12


def test_pendulum_equilibria_alternate():
    points = find_equilibria(Pendulum(), (-0.5, 7.0))
    assert [pt.stability for pt in points] == [Stability.MINIMUM, Stability.MAXIMUM,
                                               Stability.MINIMUM]
    assert points[1].q0 == pytest.approx(math.pi, abs=1e-9)


def test_quartic_origin_is_degenerate():
    (pt,) = find_equilibria(Quartic(), (-1.0, 1.0))
    assert pt.q0 == pytest.approx(0.0, abs=1e-9)
    assert pt.stability is Stability.DEGENERATE


def test_rotor_has_no_isolated_equilibria():
    assert find_equilibria(Rotor(), (0.0, 6.0)) == []


@given(st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.2, max_value=3.0))
def test_harmonic_equilibrium_found_for_any_parameters(m, omega):
    (pt,) = find_equilibria(Harmonic(m=m, omega=omega), (-2.0, 2.0))
    assert pt.q0 == pytest.approx(0.0, abs=1e-9)
    assert pt.curvature == pytest.approx(m * omega**2)
    assert pt.stability is Stability.MINIMUM
