"""Finite-difference eigenvalue oracle for the 1D Schrodinger operator.

Discretizes -(hbar^2 / 2m) psi'' + V psi = E psi with second-order central
differences on a uniform grid and solves the symmetric eigenproblem.  This
is the independent ground truth against which the semiclassical quantizer
and the thermal-amplitude constructions are checked, so it shares only the
potential's landscape and its box search (`well_box`) with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import CanonicalEnsemble
from .errors import BoxError, ResolutionError
from .potentials import Potential, well_box

#: wall amplitudes above this fraction of the peak mean the box clips the state
WALL_FRACTION = 1e-6
#: WKB decay of the highest level into each default wall.  Flat-bottomed quartic
#: levels passed the WALL_FRACTION check from 9.9 nepers and failed at 7.9 or
#: less (the WKB prefactor 1 / sqrt|p| makes up the rest of ln(1 / WALL_FRACTION));
#: the V''(q0) rule alone gives harmonic walls 11.5 or more.
DECAY_NEPERS = 9.0


@dataclass(frozen=True, eq=False)
class EigenSolution:
    box: tuple[float, float]
    M: int
    boundary: str
    grid: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k is level k, unit norm under sum |psi|^2 h
    spacing: float


def _wall_decay(potential: Potential, hbar: float, k: int, q0: float, half: float) -> float:
    """WKB decay in nepers of level k - 1 from q0 out to the walls q0 -+ half, the lesser side.

    The level E solves Weyl's count of states in the box, on 512 midpoint
    cells: N(E) = integral of sqrt(2m (E - V)) dq / (pi hbar) = k - 1/2,
    by bisection.  The decay is the integral of sqrt(2m (V - E)) / hbar over
    the cells where V > E.  A box that holds fewer than k states decays 0.
    """
    dq = half / 256.0
    v = np.asarray(potential.value(q0 + dq * (np.arange(-256, 256) + 0.5)), dtype=float)
    two_m = 2.0 * potential.mass

    def count(e: float) -> float:
        return float(np.sqrt(two_m * np.maximum(e - v, 0.0)).sum()) * dq / (math.pi * hbar)

    finite = v[np.isfinite(v)]
    lo, hi = float(finite.min()), float(finite.max())
    if not count(hi) > k - 0.5:
        return 0.0
    for _ in range(30):  # to 1e-9 of V's range; the 512-cell count is far coarser
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if count(mid) > k - 0.5 else (mid, hi)
    decay = np.sqrt(two_m * np.maximum(v - hi, 0.0)) * (dq / hbar)
    return float(min(decay[:256].sum(), decay[256:].sum()))


def default_box(potential: Potential, hbar: float, k: int) -> tuple[float, float]:
    """Walls where V clears the highest requested level by a wide margin.

    The `well_box` at level v0 + hbar omega (2k + 11), with omega from
    V''(q0), whose highest level also decays into each wall by DECAY_NEPERS
    (`_wall_decay`).  The level sizes curved wells and puts every well below
    it in the box; the decay sizes wells whose level scale V''(q0) misses,
    such as the flat-bottomed quartic.
    """
    q0, curvature = potential.landscape.minimum.q0, potential.landscape.minimum.curvature
    omega_local = math.sqrt(max(curvature, 1e-6) / potential.mass)
    box = well_box(potential, potential.landscape.v_min + hbar * omega_local * (2.0 * k + 11.0),
                   lambda half: _wall_decay(potential, hbar, k, q0, half) >= DECAY_NEPERS)
    if box is None:
        raise BoxError("potential never clears the requested levels; box cannot confine them")
    return box


def _dirichlet_eigensolve(potential: Potential, hbar: float,
                          box: tuple[float, float], M: int, k: int):
    # scipy is imported here, not at module level: only an eigensolve pays for it
    from scipy.linalg import eigh_tridiagonal

    lo, hi = box
    h = (hi - lo) / (M + 1)
    grid = lo + h * np.arange(1, M + 1)
    m = potential.mass
    kin = hbar**2 / (m * h**2)
    diag = kin + np.asarray(potential.value(grid), dtype=float)
    off = np.full(M - 1, -0.5 * kin)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    return grid, h, vals, vecs


def _periodic_eigensolve(potential: Potential, hbar: float,
                         box: tuple[float, float], M: int, k: int):
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import LinearOperator, eigsh

    lo, hi = box
    h = (hi - lo) / M
    grid = lo + h * np.arange(M)
    m = potential.mass
    kin = hbar**2 / (m * h**2)
    v = np.asarray(potential.value(grid), dtype=float)
    diag, c = kin + v, -0.5 * kin

    def ring(x):
        # every site couples to both neighbours, site 0 to site M - 1 included.
        # In shift-invert eigsh reads only A's shape and dtype; this is the
        # operator that `solve` inverts
        x = np.ravel(x)
        return diag * x + c * (np.roll(x, 1) + np.roll(x, -1))

    # shift-invert below the spectrum.  With u = e_0 + e_{M-1}, H - sigma is
    # T + c u u^T, where T is its tridiagonal part with -c added to the two end
    # diagonals.  T's diagonal (>= kin + 1) dominates its off-diagonal (kin / 2),
    # so T is positive definite: factor it once, and solve H - sigma by one
    # pttrs and a Sherman-Morrison correction for c u u^T
    sigma = float(np.min(v)) - 1.0
    t_diag = diag - sigma
    t_diag[[0, -1]] -= c
    d, e, info = dpttrf(t_diag, np.full(M - 1, c))
    u = np.zeros(M)
    u[[0, -1]] = 1.0
    z, _ = dpttrs(d, e, u)
    with np.errstate(all="ignore"):
        gain = c / (1.0 + c * (z[0] + z[-1]))  # the denominator is det(H - sigma) / det(T)
    if info or not -math.inf < gain <= 0.0:
        raise ResolutionError(f"kinetic scale hbar^2 / (m h^2) = {kin:.3e} leaves H - sigma "
                              "singular to rounding; use a coarser grid")

    def solve(b):
        y, _ = dpttrs(d, e, np.ravel(b))
        return y - (gain * (y[0] + y[-1])) * z

    # a fixed-seed random start vector keeps the solve deterministic and,
    # unlike a constant one, has no parity, so odd states of a symmetric box
    # are not missed
    v0 = np.random.default_rng(0).standard_normal(M)
    vals, vecs = eigsh(LinearOperator((M, M), matvec=ring, dtype=float), k=k, sigma=sigma,
                       which="LM", v0=v0,
                       OPinv=LinearOperator((M, M), matvec=solve, dtype=float))
    order = np.argsort(vals)
    return grid, h, vals[order], vecs[:, order]


def fd_eigensolve(potential: Potential, hbar: float = 1.0,
                  box: tuple[float, float] | None = None,
                  M: int = 4096, k: int = 4,
                  boundary: str = "dirichlet",
                  resolution_tolerance: float | None = None) -> EigenSolution:
    """Lowest k eigenpairs of the discretized Schrodinger operator.

    Dirichlet walls use the symmetric tridiagonal matrix on the interior
    grid.  Periodic boundaries close it into a ring with two corner
    couplings; ARPACK finds the lowest levels by shift-invert below min V,
    each solve O(M): a positive definite tridiagonal factorization and a
    Sherman-Morrison correction for the corners.  Eigenvectors are
    normalized under the grid measure and sign-fixed (largest-magnitude
    component positive).

    Wall amplitudes above WALL_FRACTION of the peak raise BoxError.  When
    `resolution_tolerance` is set, a half-resolution solve estimates the
    discretization error of each level and ResolutionError is raised if
    any estimate exceeds the tolerance (relative to |E| + 1).
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    if k < 1 or k > M - 2:
        raise ValueError("level count k out of range")
    if boundary not in ("dirichlet", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if boundary == "periodic" and not potential.periodic_coordinate and box is None:
        raise ValueError("periodic boundary needs an explicit box for line potentials")
    if box is None:
        box = default_box(potential, hbar, k)

    solve = _dirichlet_eigensolve if boundary == "dirichlet" else _periodic_eigensolve
    grid, h, vals, vecs = solve(potential, hbar, box, M, k)

    norms = np.sqrt(np.sum(vecs**2, axis=0) * h)
    vecs = vecs / norms
    for j in range(vecs.shape[1]):
        i_peak = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i_peak, j] < 0:
            vecs[:, j] = -vecs[:, j]

    if boundary == "dirichlet":
        peaks = np.max(np.abs(vecs), axis=0)
        walls = np.maximum(np.abs(vecs[0, :]), np.abs(vecs[-1, :]))
        bad = np.nonzero(~(walls <= WALL_FRACTION * peaks))[0]  # a NaN fails
        if bad.size:
            raise BoxError(
                f"level {bad[0]} has wall amplitude {walls[bad[0]]:.3e} "
                f"(> {WALL_FRACTION:g} of peak); enlarge the box {box}"
            )

    if resolution_tolerance is not None:
        _, _, coarse, _ = solve(potential, hbar, box, M // 2, k)
        # second-order convergence: err(M) ~ (coarse - fine) / 3
        estimates = np.abs(vals - coarse) / 3.0
        scale = np.abs(vals) + 1.0
        worst = int(np.argmax(estimates / scale))
        if not estimates[worst] <= resolution_tolerance * scale[worst]:
            raise ResolutionError(
                f"level {worst} discretization error estimate "
                f"{estimates[worst]:.3e} exceeds tolerance; increase M"
            )

    return EigenSolution(
        box=(float(box[0]), float(box[1])),
        M=M,
        boundary=boundary,
        grid=grid,
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        spacing=h,
    )


def ground_state_overlap(potential: Potential, ens: CanonicalEnsemble,
                         solution: EigenSolution) -> float:
    """Squared grid inner product of e^{-beta V} with the ground state."""
    v = np.asarray(potential.value(solution.grid), dtype=float)
    w = np.exp(-ens.beta * (v - np.min(v)))
    w = w / math.sqrt(float(np.sum(w**2) * solution.spacing))
    inner = float(np.sum(w * solution.eigenvectors[:, 0]) * solution.spacing)
    return inner**2
