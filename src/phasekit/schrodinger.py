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
#: the Dirichlet solve bisects for its shifts on M // COARSEN points of the same box.
#: Over 88 solves of the benchmark's Dirichlet shapes (8192 <= M <= 32768) the total
#: was 3.66 s at 4, 3.05 s at 8 and 2.67 s at 16, against 5.49 s for the direct
#: solve.  Over a seeded sweep of 292 random grids (64 <= M <= 32768) 8 and 16 both
#: took 0.80 of the direct time, but 16 seeds no grid below M = 1024
COARSEN = 8
#: inverse-iteration steps per shift.  After 3, sweep residuals of the
#: benchmark's shapes ran to 169 eps ||T||_1; after 4 they are at rounding (below 2.4)
INVERSE_STEPS = 4
#: the certificate's first test, ||R||_F <= RITZ_RESIDUAL eps ||T||_1.  A Ritz value
#: lies within ||r||^2 / gap of its eigenvalue, so closer than the bisection's own
#: eps ||T||_1 wherever the gap exceeds RITZ_RESIDUAL^2 eps ||T||_1 (6e-6 for the
#: harmonic well on (-9, 9) at M = 32768)
RITZ_RESIDUAL = 64.0
#: rows per block of the Gram and residual products, which so keep at most two
#: M x (k + 1) arrays alive
_ROW_BLOCK = 4096


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


def _dirichlet_matrix(potential: Potential, hbar: float, box: tuple[float, float], M: int):
    """Interior grid, spacing, diagonal and (constant) off-diagonal of the Dirichlet operator."""
    lo, hi = box
    h = (hi - lo) / (M + 1)
    grid = lo + h * np.arange(1, M + 1)
    kin = hbar**2 / (potential.mass * h**2)
    return grid, h, kin + np.asarray(potential.value(grid), dtype=float), -0.5 * kin


def _t_rows(diag: np.ndarray, c: float, v: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows a:b of T v, for T with diagonal `diag` and every off-diagonal entry c."""
    out = diag[a:b, None] * v[a:b]
    out[1:] += c * v[a:b - 1]
    out[:-1] += c * v[a + 1:b]
    if a > 0:
        out[0] += c * v[a - 1]
    if b < len(diag):
        out[-1] += c * v[b]
    return out


def _ritz_pairs(diag: np.ndarray, c: float, shifts: np.ndarray, k: int):
    """Rayleigh-Ritz pairs of T from one inverse-iteration sweep at `shifts`, and a certificate.

    Returns the n = len(shifts) Ritz values and, only when the lowest k
    pairs are certified, the Ritz vectors; (None, None) when the sweep's
    basis V is not finite or not of full rank.  The Ritz basis is V Q, with
    Q the eigenvectors of V^T T V against V^T V, and R = T U - U Theta over
    its first k columns U.  Kahan's theorem (Parlett, The Symmetric
    Eigenvalue Problem, 11.5) puts k distinct eigenvalues of T within
    `radius` of the lowest k Ritz values, and a Sturm count of exactly k
    below the midpoint x of rho_{k-1} and rho_k makes them the k lowest.
    """
    from scipy.linalg import eigh
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

    M, n = len(diag), len(shifts)
    off = np.full(M - 1, c)
    # fixed-seed random starts, one per shift: the solve is deterministic, and two
    # shifts at one tunnelling pair start, and so end, on independent vectors
    v = np.random.default_rng(0).random((n, M)).T
    v -= 0.5
    for j, shift in enumerate(shifts):
        lu = dgttrf(off, diag - shift, off)[:-1]
        for _ in range(INVERSE_STEPS):
            y = dgttrs(*lu, v[:, j])[0]
            v[:, j] = y / np.max(np.abs(y))
    gram, overlap = np.zeros((n, n)), np.zeros((n, n))
    for a in range(0, M, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, M)
        gram += v[a:b].T @ _t_rows(diag, c, v, a, b)
        overlap += v[a:b].T @ v[a:b]
    try:
        rho, q = eigh(0.5 * (gram + gram.T), 0.5 * (overlap + overlap.T))
    except ValueError:  # not finite, or (LinAlgError) V^T V not positive definite
        return None, None
    v = v @ q
    u = v[:, :k]
    res2, overlap = 0.0, np.zeros((k, k))
    for a in range(0, M, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, M)
        res2 += float(np.sum((_t_rows(diag, c, u, a, b) - u[a:b] * rho[:k]) ** 2))
        overlap += u[a:b].T @ u[a:b]

    norm1 = float(np.max(np.abs(diag))) + 2.0 * abs(c)  # ||T||_1
    eps_t = np.finfo(float).eps * norm1
    resid = math.sqrt(res2)
    # eta is U's departure from orthonormality: the orthonormal U (U^T U)^(-1/2) has
    # residual at most (||R|| + 4 eta max|rho|) / (1 - eta) for eta <= 1/2.  Forming
    # T U rounds each column of R by about 4 eps ||T||_1 at most, and the Sturm
    # count is exact for a matrix within about 2 eps ||T||_1 of T: the last term,
    # 4 (sqrt(k) + 1) eps ||T||_1
    eta = float(np.linalg.norm(overlap - np.eye(k)))
    radius = ((resid + 4.0 * eta * float(np.max(np.abs(rho[:k])))) / (1.0 - eta)
              + 4.0 * (math.sqrt(k) + 1.0) * eps_t)
    x = 0.5 * (rho[k - 1] + rho[k])
    if not (resid <= RITZ_RESIDUAL * eps_t and eta <= 0.5 and rho[k - 1] + radius < x):
        return rho, None  # a NaN fails here too
    # RANGE='V' with abstol above ||T||_1 stops at the Sturm counts of the interval's ends
    count, _, _, _, info = dstebz(diag, off, 1, -np.inf, x, 0, 0, 4.0 * norm1, "E")
    return rho, (v if info == 0 and count == k else None)


def _seeded_eigenpairs(potential: Potential, hbar: float, box: tuple[float, float],
                       diag: np.ndarray, c: float, k: int):
    """The lowest k certified eigenpairs of T, shifted from the coarse grid, or (None, None)."""
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    coarse = len(diag) // COARSEN
    if coarse < 64 or k + 1 > coarse - 2:  # fd_eigensolve's limits, for k + 1 coarse levels
        return None, None
    _, _, coarse_diag, coarse_c = _dirichlet_matrix(potential, hbar, box, coarse)
    if not np.all(np.isfinite(coarse_diag)):
        return None, None
    try:
        shifts = eigh_tridiagonal(coarse_diag, np.full(coarse - 1, coarse_c), eigvals_only=True,
                                  select="i", select_range=(0, k))
    except LinAlgError:  # bisection did not converge: the direct call decides
        return None, None
    # the coarse level k is off by about E (kappa h)^2 / 12, with E its kinetic energy
    # above min V and (kappa h)^2 = 2 E / kin (kin = -2 c): E (k + 1/2) / (6 kin) of the
    # mean spacing E / (k + 1/2).  One sweep certifies only from shifts well inside a
    # spacing, so the seeded solve is tried only for E (k + 1/2) <= kin / 5.  In a
    # seeded sweep of 1000 random grids, 272 of the 284 solves within that bound
    # certified and 41 of the 716 beyond it; the benchmark's Dirichlet solves reach 0.04 kin
    if not (shifts[k] - np.min(coarse_diag) - 2.0 * coarse_c) * (k + 0.5) <= -0.4 * coarse_c:
        return None, None
    rho, vecs = _ritz_pairs(diag, c, shifts, k)
    return (None, None) if vecs is None else (rho[:k], vecs[:, :k])


def _dirichlet_eigensolve(potential: Potential, hbar: float,
                          box: tuple[float, float], M: int, k: int):
    # scipy is imported here, not at module level: only an eigensolve pays for it
    from scipy.linalg import eigh_tridiagonal

    grid, h, diag, c = _dirichlet_matrix(potential, hbar, box, M)
    vals = None
    if np.all(np.isfinite(diag)):  # the direct call refuses a V that is not finite, as before
        # an overflow or a NaN in the seeded attempt fails its certificate, silently
        with np.errstate(all="ignore"):
            vals, vecs = _seeded_eigenpairs(potential, hbar, box, diag, c, k)
    if vals is None:
        vals, vecs = eigh_tridiagonal(diag, np.full(M - 1, c), select="i",
                                      select_range=(0, k - 1))
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

    Dirichlet walls use the symmetric tridiagonal matrix T on the interior
    grid.  The lowest k + 1 levels on M // COARSEN points of the same box
    shift one inverse-iteration sweep on the full grid, and a Rayleigh-Ritz
    step returns its lowest k pairs only under a certificate: ||R||_F at
    most RITZ_RESIDUAL eps ||T||_1, a Kahan radius below half the gap to the
    next Ritz value, and a Sturm count of exactly k below that gap's
    midpoint.  So each level lies within its radius of a distinct one of
    the k lowest eigenvalues of T.  When the certificate fails, when
    M // COARSEN is below 64 or below k + 3, or when the coarse level k is
    likely off by more than a thirtieth of a level spacing, one
    `eigh_tridiagonal` call (bisection, then inverse iteration) on the full
    grid gives the levels.  Periodic boundaries close T into a ring with two
    corner couplings; ARPACK finds the lowest levels by
    shift-invert below min V, each solve O(M): a positive definite
    tridiagonal factorization and a Sherman-Morrison correction for the
    corners.  Eigenvectors are normalized under the grid measure and
    sign-fixed (largest-magnitude component positive).

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
