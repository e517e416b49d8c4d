import importlib
import math

import numpy as np
import pytest

import scipy.linalg
import scipy.linalg.lapack
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


def ring_matrix(diag, c):
    """The dense ring with diagonal `diag` and every coupling c, sites 0 and M - 1 included."""
    M = len(diag)
    ring = np.diag(diag)
    for i in range(M):
        ring[i, (i + 1) % M] = ring[i, (i - 1) % M] = c
    return ring


def dense_ring(potential, hbar, sol):
    """The periodic Hamiltonian on sol's grid, built entry by entry, and its kinetic scale."""
    kin = hbar**2 / (potential.mass * sol.spacing**2)
    return ring_matrix(kin + potential.value(sol.grid), -0.5 * kin), kin


def direct_solve(potential, hbar, box, M, k):
    """The Dirichlet levels and vectors of one `eigh_tridiagonal` call on the full grid."""
    _, _, diag, c, _ = schrodinger._matrix(potential, hbar, box, M, ring=False)
    return scipy.linalg.eigh_tridiagonal(diag, np.full(M - 1, c), select="i",
                                         select_range=(0, k - 1))


def assert_seeded_levels_are_direct(potential, hbar, box, M, k):
    """The seeded Dirichlet levels lie within their residual of the direct call's."""
    _, _, diag, c, _ = schrodinger._matrix(potential, hbar, box, M, ring=False)
    vals, vecs = schrodinger._seeded_eigenpairs(potential, hbar, box, diag, c, k)
    assert vals is not None
    direct, _ = direct_solve(potential, hbar, box, M, k)
    tv = diag[:, None] * vecs
    tv[1:] += c * vecs[:-1]
    tv[:-1] += c * vecs[1:]
    residual = np.linalg.norm(tv - vecs * vals)
    # the direct levels are bisection midpoints, good to about eps ||T||_1
    eps_t = np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * abs(c))
    assert np.max(np.abs(vals - direct)) <= residual + 2.0 * eps_t


def count_sweeps(monkeypatch):
    """A list that records, per Rayleigh-Ritz step, whether its pairs were certified."""
    sweeps = []
    ritz = schrodinger._ritz_pairs

    def counted(*args):
        rho, verdict = ritz(*args)
        sweeps.append(verdict == "certified")
        return rho, verdict

    monkeypatch.setattr(schrodinger, "_ritz_pairs", counted)
    return sweeps


def count_factorizations(monkeypatch):
    """A one-item list that counts the `dgttrf` calls made from here on."""
    calls = [0]
    dgttrf = scipy.linalg.lapack.dgttrf

    def counted(*args, **kwargs):
        calls[0] += 1
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", counted)
    return calls


def whole_array_normalization(vecs, h):
    """Grid normalization and sign fix as whole-array operations, the column pass's reference."""
    vecs = vecs / np.sqrt(np.sum(vecs**2, axis=0) * h)
    for j in range(vecs.shape[1]):
        if vecs[int(np.argmax(np.abs(vecs[:, j]))), j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vecs


def refuse_direct_solve(monkeypatch):
    """Make the full-grid `eigh_tridiagonal` call raise; the values-only coarse call still runs."""
    eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

    def values_only(*args, eigvals_only=False, **kwargs):
        if not eigvals_only:
            raise AssertionError("the Dirichlet solve fell back to the direct call")
        return eigh_tridiagonal(*args, eigvals_only=True, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", values_only)


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

    @pytest.mark.parametrize("kwargs", [
        dict(M=32),
        dict(k=0),
        dict(M=64, k=63),
        dict(boundary="bloch"),
        dict(box=(8.0, -8.0), boundary="periodic"),
        dict(box=(0.0, 0.0)),
        dict(box=(-math.inf, 8.0), boundary="periodic"),
    ])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            fd_eigensolve(Harmonic(), **kwargs)

    def test_a_nan_fails_the_wall_gate(self, monkeypatch):
        solve = schrodinger._eigensolve

        def poisoned(*args):
            grid, h, vals, vecs = solve(*args)
            return grid, h, vals, np.full_like(vecs, np.nan)

        monkeypatch.setattr(schrodinger, "_eigensolve", poisoned)
        with pytest.raises(BoxError):
            fd_eigensolve(Harmonic(), M=1024, k=2)

    @pytest.mark.parametrize("poison", ["vectors", "radius"])
    def test_a_nan_in_the_certificate_falls_back(self, monkeypatch, poison):
        # a NaN in the inverse-iteration vectors or in the certificate's radius (through
        # its measure of U's departure from orthonormality) fails the certificate, and
        # the solve is the direct one, bit for bit
        expected = direct_solve(Harmonic(), 1.0, (-8.0, 8.0), 1024, 2)
        if poison == "vectors":
            dgttrs = scipy.linalg.lapack.dgttrs
            monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", lambda *args: (
                np.full_like(dgttrs(*args)[0], np.nan), 0))
        else:
            monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: math.nan)
        sweeps = count_sweeps(monkeypatch)
        _, _, vals, vecs = schrodinger._eigensolve(Harmonic(), 1.0, (-8.0, 8.0), 1024, 2, False)
        assert sweeps == [False]
        assert np.array_equal(vals, expected[0]) and np.array_equal(vecs, expected[1])

    def test_periodic_boundary_needs_a_box_on_the_line(self):
        with pytest.raises(ValueError):
            fd_eigensolve(Harmonic(), boundary="periodic")

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_a_potential_that_overflows_in_the_box_raises(self, boundary):
        # exp(-2 w q) overflows below q = -354: no solve sees the infinite diagonal
        with pytest.raises(BoxError, match="not finite"):
            fd_eigensolve(Morse(depth=10.0, width=1.0), box=(-1000.0, 1000.0), M=1024, k=2,
                          boundary=boundary)

    @pytest.mark.parametrize("potential, box, M, k, boundary", [
        # the direct call (M // 8 < 64), the full-ring ARPACK fallback, and a seeded solve
        (Harmonic(), (-8.0, 8.0), 256, 4, "dirichlet"),
        (Rotor(), None, 504, 3, "periodic"),
        (Harmonic(), (-8.0, 8.0), 8192, 4, "dirichlet"),
    ], ids=["direct", "ring-fallback", "seeded"])
    def test_the_column_pass_normalizes_as_the_whole_array_formula(self, monkeypatch, potential,
                                                                    box, M, k, boundary):
        raw = []
        solve = schrodinger._eigensolve

        def kept(*args):
            grid, h, vals, vecs = solve(*args)
            raw.append((h, vecs.copy(order="K")))
            return grid, h, vals, vecs

        monkeypatch.setattr(schrodinger, "_eigensolve", kept)
        sol = fd_eigensolve(potential, box=box, M=M, k=k, boundary=boundary)
        ((h, vecs),) = raw
        assert np.array_equal(sol.eigenvectors, whole_array_normalization(vecs, h))


SYMMETRIC_WELL = Polynomial(coeffs=(0, 0, -2, 0, 0.5))
TILTED_WELL = Polynomial(coeffs=(0, 0.3, -2, 0, 0.5))
TALL_BARRIER = Polynomial(coeffs=(256, 0, -32, 0, 1))


class TestSeededDirichletSolve:
    @pytest.mark.parametrize("potential, hbar, box", [
        (Harmonic(), 1.0, None),
        (Quartic(), 1.0, None),
        (Morse(m=1.0, depth=12.0, width=1.0), 1.0, (-2.0, 12.0)),
        (SYMMETRIC_WELL, 0.2, None),
        (TILTED_WELL, 0.2, None),
    ], ids=["harmonic", "quartic", "morse", "symmetric-well", "tilted-well"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_certified_pairs_match_the_direct_solve(self, potential, hbar, box, k):
        # k = 1, 3 and 5 put a tunnelling pair of the symmetric well across the
        # k boundary: the certificate must keep the pair apart
        assert_seeded_levels_are_direct(potential, hbar, box or default_box(potential, hbar, k),
                                        8192, k)

    def test_a_grid_certified_after_the_extra_step_matches_the_direct_solve(self, monkeypatch):
        # E (k + 1/2) = 0.16 kin on the 256-point coarse grid: two steps leave the
        # residual above the bound, the extra step certifies
        sweeps = count_sweeps(monkeypatch)
        assert_seeded_levels_are_direct(Harmonic(), 1.0, (-8.0, 8.0), 2048, 6)
        assert sweeps == [False, True]

    @pytest.mark.parametrize("potential, hbar, box, M, k, sweeps_run", [
        # V = (q^2 - 16)^2: its tunnelling pairs are degenerate to rounding, and one
        # across the k boundary can never be certified
        (TALL_BARRIER, 1.0, (-20.0, 12.0), 4096, 1, [False]),
        (TALL_BARRIER, 1.0, (-20.0, 12.0), 16384, 3, [False]),
        # E (k + 1/2) > kin / 10 on the coarse grid: no sweep is tried
        (TALL_BARRIER, 1.0, (-20.0, 12.0), 4096, 3, []),
        (Harmonic(), 1.0, (-1000.0, 1000.0), 8192, 4, []),
        # M // 8 < 64: no coarse grid
        (Harmonic(), 1.0, (-8.0, 8.0), 511, 4, []),
        # V near overflow: rounding hides E above min V, so no sweep is tried, and no
        # warning is raised
        (Polynomial(coeffs=(1e305, 0, 0.5)), 1.0, (-8.0, 8.0), 4096, 3, []),
    ], ids=["tall-barrier-1", "tall-barrier-3", "tall-barrier-3-coarse", "wide-box",
            "small-grid", "near-overflow"])
    def test_uncertified_solves_are_the_direct_solve(self, monkeypatch,
                                                      potential, hbar, box, M, k, sweeps_run):
        sweeps = count_sweeps(monkeypatch)
        _, _, vals, vecs = schrodinger._eigensolve(potential, hbar, box, M, k, False)
        assert sweeps == sweeps_run
        expected_vals, expected_vecs = direct_solve(potential, hbar, box, M, k)
        assert np.array_equal(vals, expected_vals) and np.array_equal(vecs, expected_vecs)

    @pytest.mark.parametrize("case", ["certified", "missed level", "unconverged"])
    def test_the_certificate_refuses_a_bad_sweep(self, case):
        # shifts at levels 0, 2 and 3 give well-converged pairs with a wide gap above
        # them, and only the Sturm count sees that level 1 is missing; shifts 0.3 above
        # levels 0, 1 and 2 leave pairs that only the residual bound refuses
        _, _, diag, c, _ = schrodinger._matrix(Harmonic(), 1.0, (-8.0, 8.0), 2048, ring=False)
        levels = scipy.linalg.eigh_tridiagonal(diag, np.full(2047, c), eigvals_only=True,
                                               select="i", select_range=(0, 3))
        shifts = {"certified": levels[[0, 1, 2]], "missed level": levels[[0, 2, 3]],
                  "unconverged": levels[[0, 1, 2]] + 0.3}[case]
        # from random starts, and with the extra step the residual test grants: the
        # 0.3 offset leaves residuals far above the bound at any step count
        starts = np.random.default_rng(0).random((3, 2048)).T - 0.5
        vals, _ = schrodinger._certified_pairs(diag, c, shifts, starts, 2)
        assert (vals is not None) == (case == "certified")

    def test_a_tunnelling_pair_keeps_two_factorizations(self, monkeypatch):
        # the symmetric well's lowest pair, bisected about 4e-8 apart, shifts T by two
        # different diagonals
        box = default_box(SYMMETRIC_WELL, 0.2, 3)
        _, _, diag, c, _ = schrodinger._matrix(SYMMETRIC_WELL, 0.2, box, 1024, ring=False)
        shifts = scipy.linalg.eigh_tridiagonal(diag, np.full(1023, c), eigvals_only=True,
                                               select="i", select_range=(0, 3))
        assert 0.0 < shifts[1] - shifts[0] < 1e-7
        calls = count_factorizations(monkeypatch)
        schrodinger._sweep(diag, c, shifts, np.random.default_rng(0).random((4, 1024)).T, 2)
        assert calls == [4]

    def test_shifts_apart_past_the_first_entry_keep_two_factorizations(self, monkeypatch):
        # 1e8 - 1e-9 rounds to 1e8 (its spacing is 1.5e-8), but 2 - 1e-9 does not: the
        # first entries agree and the matrices still differ
        diag = np.full(256, 2.0)
        diag[0] = 1e8
        calls = count_factorizations(monkeypatch)
        schrodinger._sweep(diag, -1.0, np.array([0.0, 1e-9]), np.ones((256, 2), order="F"), 1)
        assert calls == [2]

    def test_repeat_solves_are_identical(self):
        a = fd_eigensolve(TILTED_WELL, hbar=0.2, M=4096, k=6)
        b = fd_eigensolve(TILTED_WELL, hbar=0.2, M=4096, k=6)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("potential, hbar, box, M, k", [
        # the Dirichlet shapes of bench/workloads.py at mid-range draws
        (Harmonic(m=1.25, omega=1.25), 1.0, None, 8192, 4),
        (Harmonic(m=1.25, omega=1.25), 1.0, None, 16384, 10),
        (Harmonic(m=1.25, omega=1.25), 1.0, None, 32768, 20),
        (Harmonic(m=1.25, omega=1.25), 1.0, None, 32768, 6),
        (Harmonic(m=1.25, omega=1.25), 1.0, None, 16384, 1),
        (Morse(m=1.15, depth=15.0, width=0.8), 1.0, (-3.125, 15.0), 16384, 3),
        (Morse(m=1.15, depth=15.0, width=0.8), 1.0, (-3.125, 15.0), 32768, 4),
        (Quartic(m=1.1, lam=1.25), 1.0, (-4.283106, 4.283106), 16384, 6),
        (Quartic(m=1.1, lam=1.25), 1.0, (-4.604497, 4.604497), 32768, 10),
        (Quartic(m=1.1, lam=1.25), 1.0, None, 8192, 4),
        (Quartic(m=1.1, lam=1.25), 1.0, None, 16384, 8),
        # the widest explicit harmonic box the benchmark draws
        (Harmonic(m=0.5, omega=0.5), 1.3, (-24.97999, 24.97999), 32768, 20),
    ])
    def test_benchmark_shapes_take_the_seeded_path(self, monkeypatch, potential, hbar, box, M, k):
        # one Rayleigh-Ritz step each: no extra step, no fallback
        refuse_direct_solve(monkeypatch)
        sweeps = count_sweeps(monkeypatch)
        sol = fd_eigensolve(potential, hbar=hbar, box=box, M=M, k=k)
        assert sol.eigenvalues.shape == (k,) and sweeps == [True]


class TestProlong:
    # np.interp rounds the box coordinates, and a slope of up to 2 max|v| per coarse
    # spacing turns that into an error of a few eps max|v| coarse_m
    @staticmethod
    def tolerance(coarse):
        return 8.0 * np.finfo(float).eps * len(coarse) * np.max(np.abs(coarse))

    @pytest.mark.parametrize("M", [1024, 1029, 2 * schrodinger._ROW_BLOCK + 13])
    def test_dirichlet_interpolant_vanishes_at_the_walls(self, M):
        coarse_m = M // 8
        # box coordinates of each grid's interior points; the walls are 0 and 1
        x_coarse = np.arange(1, coarse_m + 1) / (coarse_m + 1)
        x_fine = np.arange(1, M + 1) / (M + 1)
        coarse = np.random.default_rng(7).standard_normal((coarse_m, 3))
        fine = schrodinger._prolong(coarse, M)
        assert fine.shape == (M, 3) and fine.flags.f_contiguous
        for j in range(3):
            reference = np.interp(x_fine, np.r_[0.0, x_coarse, 1.0], np.r_[0.0, coarse[:, j], 0.0])
            assert np.max(np.abs(fine[:, j] - reference)) <= self.tolerance(coarse)

    @pytest.mark.parametrize("M", [1024, 1029])
    def test_dirichlet_interpolant_reproduces_a_piecewise_linear_function(self, M):
        # a tent that is 0 at both walls, with its kink on a coarse point
        coarse_m = M // 8
        if coarse_m % 2 == 0:
            coarse_m -= 1
        x_coarse = np.arange(1, coarse_m + 1) / (coarse_m + 1)
        x_fine = np.arange(1, M + 1) / (M + 1)
        tent = np.minimum(x_fine, 1.0 - x_fine)
        fine = schrodinger._prolong(np.minimum(x_coarse, 1.0 - x_coarse)[:, None], M)
        assert np.max(np.abs(fine[:, 0] - tent)) <= 1e-15

    @pytest.mark.parametrize("ring", [False, True], ids=["dirichlet", "ring"])
    @pytest.mark.parametrize("M", [1029, 8195])
    def test_columns_are_the_row_formula_bit_for_bit(self, M, ring):
        # the interval and fraction of each fine point, and the rows gathered from
        # them, as the whole-array formula forms them
        first = 0 if ring else 1
        coarse = np.random.default_rng(9).standard_normal((M // 8, 4))
        ext = np.vstack([coarse, coarse[:1]]) if ring else np.pad(coarse, ((1, 1), (0, 0)))
        i, r = np.divmod(np.arange(first, M + first) * (M // 8 + first), M + first)
        f = (r / (M + first))[:, None]
        fine = schrodinger._prolong(coarse, M, ring)
        assert fine.flags.f_contiguous
        assert np.array_equal(fine, ext[i] * (1.0 - f) + ext[i + 1] * f)

    @pytest.mark.parametrize("M", [1024, 1029, 2 * schrodinger._ROW_BLOCK + 13])
    def test_ring_interpolant_wraps(self, M):
        coarse_m = M // 8
        coarse = np.random.default_rng(8).standard_normal((coarse_m, 3))
        fine = schrodinger._prolong(coarse, M, ring=True)
        assert fine.shape == (M, 3) and fine.flags.f_contiguous
        if M % 8 == 0:
            # the coarse values at every eighth point, and the last interval runs
            # from the last coarse point round to the first
            assert np.array_equal(fine[::8], coarse)
            assert np.allclose(fine[-4], 0.5 * (coarse[-1] + coarse[0]), rtol=0, atol=1e-15)
        for j in range(3):
            reference = np.interp(np.arange(M) / M, np.arange(coarse_m) / coarse_m,
                                  coarse[:, j], period=1.0)
            assert np.max(np.abs(fine[:, j] - reference)) <= self.tolerance(coarse)


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
        (Rotor(), 1.0, None, 504),
    ], ids=["pendulum", "rotor"])
    def test_operator_and_its_shift_inverse_are_the_dense_ring(self, monkeypatch,
                                                                potential, hbar, box, M):
        # the operator and shift-inverse handed to eigsh, against the ring built entry by
        # entry; M // 8 < 64, so the one eigsh call is the full-grid one
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


def refuse_full_grid_eigsh(monkeypatch, M):
    """Make an eigsh call on M points raise; the coarse call on M // 8 points still runs."""
    eigsh = scipy.sparse.linalg.eigsh

    def coarse_only(op, **kwargs):
        if op.shape[0] == M:
            raise AssertionError("the periodic solve fell back to ARPACK on the full grid")
        return eigsh(op, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", coarse_only)


class TestSeededPeriodicSolve:
    def test_ring_count_matches_dense_eigvalsh(self):
        # random rings: the count at gap midpoints and at random points is exact, and
        # none of them is refused
        rng = np.random.default_rng(20)
        for _ in range(100):
            M = int(rng.integers(64, 201))
            kin = 10.0 ** rng.uniform(0.0, 4.0)
            diag = kin + rng.uniform(-1.0, 1.0, M) * 10.0 ** rng.uniform(-1.0, 3.0)
            levels = np.linalg.eigvalsh(ring_matrix(diag, -0.5 * kin))
            gaps = 0.5 * (levels[:-1] + levels[1:])
            for x in [*gaps[rng.integers(0, M - 1, 3)], *rng.uniform(levels[0], levels[-1], 2)]:
                count = schrodinger._count_below(diag, -0.5 * kin, x, ring=True)
                assert count == np.sum(levels < x)

    def test_ring_count_refuses_what_rounding_could_flip(self):
        kin = 50.0
        diag = np.full(128, kin)
        # the rotor: T - 0 is singular, so the scalar det(T) / det(T_u) is 0 to rounding
        assert schrodinger._count_below(diag, -0.5 * kin, 0.0, ring=True) == -1
        assert schrodinger._count_below(diag, -0.5 * kin, -1e-3, ring=True) == 0
        assert schrodinger._count_below(diag, -0.5 * kin, 1e-3, ring=True) == 1
        # an eigenvalue of T_u at x: the two counts may not be for one matrix
        rng = np.random.default_rng(3)
        diag = kin + rng.uniform(-5.0, 5.0, 128)
        t_u = ring_matrix(schrodinger._ring_split(diag, -0.5 * kin)[0], -0.5 * kin)
        t_u[0, -1] = t_u[-1, 0] = 0.0
        x = np.linalg.eigvalsh(t_u)[10]
        assert schrodinger._count_below(diag, -0.5 * kin, x, ring=True) == -1

    @pytest.mark.parametrize("potential, hbar, box, M, k, sweeps_run", [
        (Rotor(), 1.0, None, 1024, 7, [True]),
        (Rotor(inertia=0.3), 0.8, None, 1024, 5, [True]),
        # from 128-point rings the start vectors leave residuals above the bound after
        # two steps, and the extra step brings them to rounding
        (Pendulum(m=1.3, amplitude=2.0), 0.7, (-math.pi, math.pi), 1024, 6, [False, True]),
        (Harmonic(m=0.8, omega=1.5), 1.0, (-8.0, 8.0), 1024, 2, [False, True]),
    ], ids=["rotor-7", "rotor-5", "pendulum", "harmonic"])
    def test_certified_levels_match_dense_eigh(self, monkeypatch,
                                               potential, hbar, box, M, k, sweeps_run):
        sweeps = count_sweeps(monkeypatch)
        sol = fd_eigensolve(potential, hbar=hbar, box=box, M=M, k=k, boundary="periodic")
        assert sweeps == sweeps_run
        ring, kin = dense_ring(potential, hbar, sol)
        reference = np.linalg.eigvalsh(ring)[:k]
        assert np.max(np.abs(sol.eigenvalues - reference)) <= 100.0 * np.finfo(float).eps * kin
        vecs = sol.eigenvectors
        assert np.linalg.norm(ring @ vecs - vecs * sol.eigenvalues) <= (
            100.0 * np.finfo(float).eps * kin * np.linalg.norm(vecs))

    def test_rotor_levels_are_the_exact_discrete_ones(self):
        # 2 kin sin^2(pi n / M), the zero level included
        M, k = 16384, 11
        sol = fd_eigensolve(Rotor(), boundary="periodic", M=M, k=k)
        kin = 1.0 / sol.spacing**2
        n = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
        exact = 2.0 * kin * np.sin(np.pi * n / M) ** 2
        assert np.max(np.abs(sol.eigenvalues - exact)) <= 1e-2 * np.finfo(float).eps * kin

    @pytest.mark.parametrize("M, k, sweeps_run, poison", [
        # k = 6 splits the rotor's degenerate pair n = 3: no certificate can keep it apart
        (16384, 6, [False], False),
        # M // 8 < 64: no coarse grid
        (504, 3, [], False),
        # a NaN in the inverse-iteration solves fails the certificate
        (8192, 3, [False], True),
    ], ids=["split-pair", "small-grid", "failed-certificate"])
    def test_fallbacks_are_arpack_bit_for_bit(self, monkeypatch, M, k, sweeps_run, poison):
        box = (0.0, 2.0 * math.pi)
        _, _, diag, c, v_min = schrodinger._matrix(Rotor(), 1.0, box, M, ring=True)
        expected_vals, expected_vecs = schrodinger._ring_eigsh(diag, c, v_min, k)
        if poison:
            dgttrs = scipy.linalg.lapack.dgttrs
            monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", lambda *args: (
                np.full_like(dgttrs(*args)[0], np.nan), 0))
        sweeps = count_sweeps(monkeypatch)
        _, _, vals, vecs = schrodinger._eigensolve(Rotor(), 1.0, box, M, k, True)
        assert sweeps == sweeps_run
        assert np.array_equal(vals, expected_vals) and np.array_equal(vecs, expected_vecs)

    @pytest.mark.parametrize("potential, hbar, box, M, k", [
        # the periodic shapes of bench/workloads.py at mid-range draws
        (Rotor(inertia=1.25), 1.0, None, 8192, 3),
        (Rotor(inertia=1.25), 1.0, None, 16384, 11),
        (Rotor(inertia=1.25), 1.0, None, 32768, 15),
        (Rotor(inertia=0.5), 1.3, None, 32768, 15),
        (Harmonic(m=1.25, omega=1.25), 1.0, (-8.485281, 8.485281), 8192, 5),
    ])
    def test_benchmark_shapes_take_the_seeded_path(self, monkeypatch, potential, hbar, box, M, k):
        # one Rayleigh-Ritz step each: no extra step, no fallback
        refuse_full_grid_eigsh(monkeypatch, M)
        sweeps = count_sweeps(monkeypatch)
        sol = fd_eigensolve(potential, hbar=hbar, box=box, M=M, k=k, boundary="periodic")
        assert sol.eigenvalues.shape == (k,) and sweeps == [True]

    def test_degenerate_shifts_share_one_factorization(self, monkeypatch):
        # the coarse levels of each rotor pair differ in their last bits, but T_u - s
        # rounds to one matrix for both: 8 shifts, 3 pairs, 5 factorizations
        box = (0.0, 2.0 * math.pi)
        _, _, coarse_diag, coarse_c, v_min = schrodinger._matrix(Rotor(), 1.0, box, 128, True)
        shifts, coarse = schrodinger._ring_eigsh(coarse_diag, coarse_c, v_min, 8)
        assert np.count_nonzero(np.diff(shifts) == 0.0) < 3
        _, _, diag, c, _ = schrodinger._matrix(Rotor(), 1.0, box, 1024, True)
        start = schrodinger._prolong(coarse, 1024, ring=True)
        swept = start.copy(order="F")
        calls = count_factorizations(monkeypatch)
        schrodinger._sweep(diag, c, shifts, swept, 2, ring=True)
        assert calls == [8 - 3]
        for j, shift in enumerate(shifts):
            alone = start[:, j:j + 1].copy(order="F")
            schrodinger._sweep(diag, c, shifts[j:j + 1], alone, 2, ring=True)
            assert np.array_equal(swept[:, j], alone[:, 0])

    def test_repeat_solves_are_identical(self):
        a = fd_eigensolve(Rotor(), boundary="periodic", M=8192, k=5)
        b = fd_eigensolve(Rotor(), boundary="periodic", M=8192, k=5)
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

    @pytest.mark.parametrize("potential, hbar, box, Ms, k, boundary", [
        # the Dirichlet spacing halves exactly at 2M + 1 interior points, the ring's at 2M
        (Harmonic(), 1.0, (-8.0, 8.0), (1024, 2049, 4099), 4, "dirichlet"),
        (Pendulum(m=1.3, amplitude=2.0), 0.7, (-math.pi, math.pi), (512, 1024, 2048), 6,
         "periodic"),
    ], ids=["dirichlet", "ring"])
    def test_levels_converge_at_second_order(self, potential, hbar, box, Ms, k, boundary):
        # an error of order h^2 shrinks fourfold per halving of the spacing
        coarse, mid, fine = (fd_eigensolve(potential, hbar=hbar, box=box, M=M, k=k,
                                           boundary=boundary).eigenvalues for M in Ms)
        assert np.max(np.abs((coarse - mid) / (mid - fine) - 4.0)) <= 0.01


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
