import importlib
import math

import numpy as np
import pytest

import scipy.sparse.linalg

from phasekit import (
    BoxError,
    CanonicalEnsemble,
    Harmonic,
    Morse,
    Pendulum,
    Polynomial,
    Quartic,
    ResolutionError,
    Rotor,
)
from phasekit import schrodinger
from phasekit.schrodinger import (
    default_box,
    fd_eigensolve,
    ground_state_overlap,
)
from phasekit.wigner import normalization_box

#: eigsh's module, which imports splu under its own name
arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")


def dense_ring(potential, hbar, sol):
    """The periodic Hamiltonian on sol's grid, built entry by entry, and its kinetic scale."""
    M = len(sol.grid)
    kin = hbar**2 / (potential.mass * sol.spacing**2)
    ring = np.diag(kin + potential.value(sol.grid))
    for i in range(M):
        ring[i, (i + 1) % M] = ring[i, (i - 1) % M] = -0.5 * kin
    return ring, kin


def morse_level(depth, width, m, n, hbar=1.0):
    """Closed-form Morse spectrum, the analytic cross-check for the solver."""
    omega0 = hbar * width * math.sqrt(2.0 * depth / m)
    return omega0 * (n + 0.5) - (hbar * width) ** 2 / (2.0 * m) * (n + 0.5) ** 2


class TestDefaultBox:
    def test_harmonic_box_is_symmetric_and_clears_levels(self):
        box = default_box(Harmonic(), hbar=1.0, k=4)
        assert box == (-8.0, 8.0)
        assert float(Harmonic().value(box[1])) > 4.5

    def test_rotor_box_is_one_period(self):
        assert default_box(Rotor(), hbar=1.0, k=5) == (0.0, 2.0 * math.pi)

    def test_dissociating_well_cannot_confine_high_levels(self):
        with pytest.raises(BoxError):
            default_box(Morse(m=1.0, depth=12.0, width=1.0), hbar=1.0, k=3)

    @pytest.mark.parametrize("pot, hbar, k, box", [
        *[(Harmonic(), 1.0, k, (-8.0, 8.0)) for k in (1, 2, 3, 4)],
        (Harmonic(m=2.0, omega=0.5), 0.7, 10, (-8.0, 8.0)),
        (Morse(depth=40.0, width=0.5), 0.5, 1, (-4.0, 4.0)),
        (Morse(depth=40.0, width=0.5), 0.5, 3, (-8.0, 8.0)),
        *[(Polynomial(coeffs=(0, 0.3, -2, 0, 0.5)), 0.2, k,
           (-5.450319107836988, 2.5496808921630123)) for k in (3, 4)],
        *[(Polynomial(coeffs=(0, 0.3, -2, 0, 0.5)), 0.2, k,
           (-9.450319107836988, 6.549680892163012)) for k in (6, 8)],
        (Polynomial(coeffs=(0, 0, -2, 0, 0.5)), 0.2, 4, (-5.414213562373095, 2.585786437626905)),
        (Polynomial(coeffs=(0, 0, -2, 0, 0.5)), 0.2, 8, (-9.414213562373096, 6.585786437626905)),
    ])
    def test_curved_wells_keep_the_curvature_rule_box(self, pot, hbar, k, box):
        # the WKB decay test never moves a box that V''(q0) already sizes
        assert default_box(pot, hbar=hbar, k=k) == box

    def test_deep_pendulum_box_holds_its_own_well(self):
        # a periodic V on the line: the box about q0 = -2 pi holds that well only
        assert default_box(Pendulum(amplitude=100.0), 1.0, 1) == (-8.283185307179586,
                                                                  -4.283185307179586)

    @pytest.mark.parametrize("coeffs", [(256.0, 0.0, -32.0, 0.0, 1.0),
                                        (0.0, 0.01, 64.0, -16.0, 1.0)])
    def test_default_and_normalization_boxes_hold_the_same_minima(self, coeffs):
        # both levels clear the second well (V there is 0 and 0.08), so both boxes hold it;
        # the default box used to hold the first minimum's well only
        pot = Polynomial(coeffs=coeffs)
        minima = [pt.q0 for pt in pot.landscape.equilibria if pt.curvature > 0]
        held = [[q for q in minima if lo < q < hi]
                for lo, hi in (default_box(pot, hbar=1.0, k=4),
                               normalization_box(pot, CanonicalEnsemble(beta=1.0)))]
        assert len(minima) == 2 and held == [minima, minima]

    @pytest.mark.parametrize("lam, m, hbar", [
        (1.0, 1.0, 1.0), (2.0, 0.7, 1.3), (0.5, 1.5, 0.7), (0.5, 0.7, 1.3), (2.0, 1.5, 0.7),
    ])
    @pytest.mark.parametrize("k", [1, 4, 8, 20])
    def test_flat_bottomed_quartic_box_holds_its_levels(self, lam, m, hbar, k):
        # V''(0) = 0 alone gave the box (-1, 1) and a BoxError for every k here
        sol = fd_eigensolve(Quartic(m=m, lam=lam), hbar=hbar, M=4096, k=k)
        assert sol.box[1] > 1.0


class TestDirichletSolve:
    def test_harmonic_levels(self):
        sol = fd_eigensolve(Harmonic(), M=16384, k=4)
        expected = np.arange(4) + 0.5
        assert np.max(np.abs(sol.eigenvalues - expected)) <= 1e-6

    def test_morse_levels_match_closed_form(self):
        pot = Morse(m=1.0, depth=12.0, width=1.0)
        sol = fd_eigensolve(pot, box=(-2.0, 12.0), M=8192, k=3)
        for n in range(3):
            exact = morse_level(12.0, 1.0, 1.0, n)
            assert sol.eigenvalues[n] == pytest.approx(exact, rel=5e-6)

    def test_eigenvectors_are_grid_normalized_and_sign_fixed(self):
        sol = fd_eigensolve(Harmonic(), M=2048, k=4)
        norms = np.sum(sol.eigenvectors**2, axis=0) * sol.spacing
        assert np.allclose(norms, 1.0, rtol=1e-12)
        for j in range(4):
            v = sol.eigenvectors[:, j]
            assert v[int(np.argmax(np.abs(v)))] > 0.0

    def test_level_n_has_n_nodes(self):
        sol = fd_eigensolve(Harmonic(), M=2048, k=4)
        for n in range(4):
            v = sol.eigenvectors[:, n]
            sig = np.sign(v[np.abs(v) > 1e-8 * np.max(np.abs(v))])
            assert int(np.sum(sig[1:] != sig[:-1])) == n

    def test_clipping_box_raises(self):
        with pytest.raises(BoxError):
            fd_eigensolve(Harmonic(), box=(-2.0, 2.0), M=512, k=4)

    def test_resolution_gate(self):
        with pytest.raises(ResolutionError):
            fd_eigensolve(Harmonic(), M=128, k=2, resolution_tolerance=1e-9)
        fd_eigensolve(Harmonic(), M=4096, k=2, resolution_tolerance=1e-4)

    @pytest.mark.parametrize("kwargs", [
        dict(M=32),
        dict(k=0),
        dict(M=64, k=63),
        dict(boundary="bloch"),
    ])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            fd_eigensolve(Harmonic(), **kwargs)

    @pytest.mark.parametrize("poison, error", [("vectors", BoxError),
                                               ("coarse levels", ResolutionError)])
    def test_a_nan_fails_the_gates(self, monkeypatch, poison, error):
        solve = schrodinger._dirichlet_eigensolve

        def poisoned(potential, hbar, box, M, k):
            grid, h, vals, vecs = solve(potential, hbar, box, M, k)
            if poison == "vectors":
                vecs = np.full_like(vecs, np.nan)
            elif M < 1024:
                vals = np.full_like(vals, np.nan)
            return grid, h, vals, vecs

        monkeypatch.setattr(schrodinger, "_dirichlet_eigensolve", poisoned)
        with pytest.raises(error):
            fd_eigensolve(Harmonic(), M=1024, k=2, resolution_tolerance=1e-4)

    def test_periodic_boundary_needs_a_box_on_the_line(self):
        with pytest.raises(ValueError):
            fd_eigensolve(Harmonic(), boundary="periodic")


class TestPeriodicSolve:
    def test_rotor_levels_are_half_n_squared(self):
        sol = fd_eigensolve(Rotor(), boundary="periodic", M=4096, k=5)
        expected = np.array([0.0, 0.5, 0.5, 2.0, 2.0])
        assert np.max(np.abs(sol.eigenvalues - expected)) <= 1e-5

    def test_degenerate_pairs_stay_together(self):
        sol = fd_eigensolve(Rotor(), boundary="periodic", M=4096, k=5)
        assert abs(sol.eigenvalues[1] - sol.eigenvalues[2]) <= 1e-8
        assert abs(sol.eigenvalues[3] - sol.eigenvalues[4]) <= 1e-8

    @pytest.mark.parametrize("potential, hbar, box, M", [
        (Pendulum(m=1.3, amplitude=2.0), 0.7, (-math.pi, math.pi), 64),
        (Rotor(), 1.0, None, 512),
    ], ids=["pendulum", "rotor"])
    def test_operator_and_its_shift_inverse_are_the_dense_ring(self, monkeypatch,
                                                                potential, hbar, box, M):
        # the operator and shift-inverse handed to eigsh, against the ring built entry by entry
        seen = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda op, **kw: seen.append((op, kw)) or eigsh(op, **kw))
        sol = fd_eigensolve(potential, hbar=hbar, box=box, boundary="periodic", M=M, k=3)
        ((op, kw),) = seen
        ring, _ = dense_ring(potential, hbar, sol)
        x = np.random.default_rng(1).standard_normal(M)
        eps = np.finfo(float).eps
        assert np.max(np.abs(op.matvec(x) - ring @ x)) <= (
            4.0 * eps * np.max(np.abs(ring).sum(axis=1)) * np.max(np.abs(x)))
        y = kw["OPinv"].matvec(x)
        residual = (ring - kw["sigma"] * np.eye(M)) @ y - x
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(x)

    def test_periodic_solve_never_calls_splu(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the periodic solve factored a sparse matrix")
        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        monkeypatch.setattr(arpack, "splu", refuse)
        sol = fd_eigensolve(Rotor(), boundary="periodic", M=1024, k=3)
        assert sol.eigenvalues == pytest.approx([0.0, 0.5, 0.5], abs=1e-5)

    def test_ring_singular_to_rounding_is_a_resolution_error(self):
        # kin ~ 1e302 against the shift's gap of 1: the Sherman-Morrison
        # denominator det(H - sigma) / det(T) cancels to rounding noise
        with pytest.raises(ResolutionError):
            fd_eigensolve(Rotor(inertia=1e-300), boundary="periodic", M=64, k=3)

    def test_deterministic_repeat(self):
        a = fd_eigensolve(Rotor(), boundary="periodic", M=1024, k=3)
        b = fd_eigensolve(Rotor(), boundary="periodic", M=1024, k=3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestRichardson:
    def test_extrapolation_beats_the_plain_solve(self):
        expected = np.arange(4) + 0.5
        coarse = fd_eigensolve(Harmonic(), M=1024, k=4).eigenvalues
        # the Dirichlet spacing halves exactly at 2M + 1 interior points
        fine = fd_eigensolve(Harmonic(), M=2049, k=4).eigenvalues
        plain = np.abs(coarse - expected)
        rich = np.abs((4.0 * fine - coarse) / 3.0 - expected)
        assert np.all(rich < plain / 100.0)


class TestGroundStateOverlap:
    def test_matched_thermal_amplitude_is_the_ground_state(self):
        # matched beta = 1/(hbar omega) makes e^{-beta V} a Gaussian of the
        # ground-state width exactly
        sol = fd_eigensolve(Harmonic(), M=8192, k=1)
        overlap = ground_state_overlap(Harmonic(), CanonicalEnsemble(beta=1.0), sol)
        assert overlap >= 1.0 - 1e-6

    def test_unmatched_beta_loses_overlap_by_the_gaussian_angle(self):
        # width ratio 2 gives overlap^2 = 2 sqrt(2) / 3
        sol = fd_eigensolve(Harmonic(), M=8192, k=1)
        overlap = ground_state_overlap(Harmonic(), CanonicalEnsemble(beta=2.0), sol)
        assert overlap == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-6)
        assert overlap < 1.0 - 1e-3


@pytest.mark.parametrize("m,omega,hbar,half,M", [
    (1.0, 1.0, 1.0, 10.0, 8192),
    (0.52, 1.756, 0.856, 8.874, 8192),
])
def test_periodic_solve_finds_the_first_odd_state(m, omega, hbar, half, M):
    # a constant Lanczos start vector is even on a symmetric box and misses
    # the odd first excited state, returning 0.5 and 2.5 hbar omega
    sol = fd_eigensolve(Harmonic(m=m, omega=omega), hbar=hbar, box=(-half, half),
                        M=M, k=2, boundary="periodic")
    assert sol.eigenvalues / (hbar * omega) == pytest.approx([0.5, 1.5], abs=1e-4)


@pytest.mark.parametrize("potential, hbar, box, M", [
    (Rotor(), 1.0, None, 64),
    (Rotor(inertia=0.3), 0.8, None, 512),
    (Pendulum(m=1.3, amplitude=2.0), 0.7, (-math.pi, math.pi), 128),
    (Pendulum(amplitude=20.0), 1.0, (-math.pi, math.pi), 256),
    (Harmonic(m=0.8, omega=1.5), 1.0, (-8.0, 8.0), 512),
], ids=["rotor-64", "rotor-512", "pendulum-128", "deep-pendulum-256", "harmonic-512"])
def test_periodic_levels_match_dense_eigh(potential, hbar, box, M):
    sol = fd_eigensolve(potential, hbar=hbar, box=box, M=M, k=6, boundary="periodic")
    ring, kin = dense_ring(potential, hbar, sol)
    reference = np.linalg.eigvalsh(ring)[:6]
    assert np.max(np.abs(sol.eigenvalues - reference)) <= 100.0 * np.finfo(float).eps * kin
