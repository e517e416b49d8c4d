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
#: the seeded solves take their shifts from M // COARSEN points of the same box.
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


def _matrix(potential: Potential, hbar: float, box: tuple[float, float], M: int, ring: bool):
    """Grid, spacing, diagonal, (constant) off-diagonal or coupling, and min V of the operator.

    The Dirichlet grid is the box's M interior points; the ring's starts at the left end.
    """
    lo, hi = box
    first = 0 if ring else 1
    h = (hi - lo) / (M + first)
    grid = lo + h * np.arange(first, M + first)
    kin = hbar**2 / (potential.mass * h**2)
    v = np.asarray(potential.value(grid), dtype=float)
    return grid, h, kin + v, -0.5 * kin, float(np.min(v))


def _t_rows(diag: np.ndarray, c: float, v: np.ndarray, a: int, b: int, ring: bool) -> np.ndarray:
    """Rows a:b of T v, for T with diagonal `diag` and every off-diagonal entry c.

    On a ring T also couples rows 0 and M - 1 by c.
    """
    M = len(diag)
    out = diag[a:b, None] * v[a:b]
    out[1:] += c * v[a:b - 1]
    out[:-1] += c * v[a + 1:b]
    if a > 0:
        out[0] += c * v[a - 1]
    elif ring:
        out[0] += c * v[M - 1]
    if b < M:
        out[-1] += c * v[b]
    elif ring:
        out[-1] += c * v[0]
    return out


def _ring_split(diag: np.ndarray, c: float):
    """The ring T as T_u + c u u^T: T_u's diagonal (T's less c at both ends), u = e_0 + e_{M-1}."""
    t_diag, u = diag.copy(), np.zeros(len(diag))
    t_diag[[0, -1]] -= c
    u[[0, -1]] = 1.0
    return t_diag, u


def _count_below(diag: np.ndarray, c: float, x: float, ring: bool = False) -> int:
    """How many eigenvalues of T lie below x, or -1 where rounding could make the count wrong.

    The Dirichlet count is stebz's Sturm count, exact for a matrix within
    about 2 eps ||T||_1 of T.  On a ring, T = T_u + c u u^T with c < 0, and
    Haynsworth's inertia additivity on the bordered matrix [[T_u - x, u],
    [u^T, -1/c]] gives neg(T - x) = neg(T_u - x) + [s < 0], with the scalar
    s = 1 + c u^T z, z = (T_u - x)^(-1) u, equal to det(T - x) / det(T_u - x):
    Sturm's count of T_u and the sign of s.  Rounding: gttrs's z solves
    exactly a matrix within a few eps ||T||_1 of T_u - x (partial pivoting on
    a tridiagonal matrix is backward stable), so the computed s, up to the
    rounding of its last product and sum (at most 3 eps (1 + |c u^T z|)), has
    the sign that counts for that matrix.  Its count of T_u equals stebz's
    when no eigenvalue of T_u lies within 8 eps ||T||_1 of x, which a second
    count, over that window, checks.  So the sum counts exactly for a matrix
    within a few eps ||T||_1 of T.  A scalar within its rounding bound, an
    eigenvalue of T_u in the window, and a NaN are refused.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

    off = np.full(len(diag) - 1, c)
    norm1 = float(np.max(np.abs(diag))) + 2.0 * abs(c)  # ||T||_1
    t_diag, u = _ring_split(diag, c) if ring else (diag, None)
    # RANGE='V' with abstol above ||T||_1 stops at the Sturm counts of the interval's ends
    count, _, _, _, info = dstebz(t_diag, off, 1, -np.inf, x, 0, 0, 4.0 * norm1, "E")
    if info:
        return -1
    if not ring:
        return count
    eps = np.finfo(float).eps
    near, _, _, _, info = dstebz(t_diag, off, 1, x - 8.0 * eps * norm1, x + 8.0 * eps * norm1,
                                 0, 0, 4.0 * norm1, "E")
    z = dgttrs(*dgttrf(off, t_diag - x, off)[:-1], u)[0]
    cz = c * (z[0] + z[-1])
    s = 1.0 + cz
    if info or near or not abs(s) > 3.0 * eps * (1.0 + abs(cz)):
        return -1
    return count + int(s < 0.0)


def _ritz_pairs(diag: np.ndarray, c: float, shifts: np.ndarray, k: int, ring: bool = False):
    """Rayleigh-Ritz pairs of T from one inverse-iteration sweep at `shifts`, and a certificate.

    Returns the n = len(shifts) Ritz values and, only when the lowest k
    pairs are certified, the Ritz vectors; (None, None) when the sweep's
    basis V is not finite or not of full rank.  The Ritz basis is V Q, with
    Q the eigenvectors of V^T T V against V^T V, and R = T U - U Theta over
    its first k columns U.  Kahan's theorem (Parlett, The Symmetric
    Eigenvalue Problem, 11.5) puts k distinct eigenvalues of T within
    `radius` of the lowest k Ritz values, and a count (`_count_below`) of
    exactly k below the midpoint x of rho_{k-1} and rho_k makes them the k
    lowest.  On a ring (`ring`) each shifted solve factors the tridiagonal
    T_u - s and corrects for c u u^T by Sherman-Morrison.
    """
    from scipy.linalg import eigh
    from scipy.linalg.lapack import dgttrf, dgttrs

    M, n = len(diag), len(shifts)
    off = np.full(M - 1, c)
    t_diag, u = _ring_split(diag, c) if ring else (diag, None)
    # fixed-seed random starts, one per shift: the solve is deterministic, and two
    # shifts at one tunnelling pair start, and so end, on independent vectors
    v = np.random.default_rng(0).random((n, M)).T
    v -= 0.5
    for j, shift in enumerate(shifts):
        lu = dgttrf(off, t_diag - shift, off)[:-1]
        if ring:
            # (T_u - s + c u u^T)^(-1) b is y - c (u^T y) z / (1 + c u^T z), with
            # y = (T_u - s)^(-1) b and z = (T_u - s)^(-1) u.  It is taken times the
            # denominator, which only rescales the iterate: at an exact level the
            # denominator is det(T - s) / det(T_u - s) = 0 (the rotor's zero level,
            # where both grids give s = 0 to rounding), and the step is then z, the
            # level's eigenvector
            cz = c * dgttrs(*lu, u)[0]
            denominator = 1.0 + (cz[0] + cz[-1])
        for _ in range(INVERSE_STEPS):
            y = dgttrs(*lu, v[:, j])[0]
            if ring:
                uy = y[0] + y[-1]
                y *= denominator
                y -= uy * cz
            np.divide(y, max(y.max(), -y.min()), out=v[:, j])  # y / max |y|
    gram, overlap = np.zeros((n, n)), np.zeros((n, n))
    for a in range(0, M, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, M)
        gram += v[a:b].T @ _t_rows(diag, c, v, a, b, ring)
        overlap += v[a:b].T @ v[a:b]
    try:
        rho, q = eigh(0.5 * (gram + gram.T), 0.5 * (overlap + overlap.T))
    except ValueError:  # not finite, or (LinAlgError) V^T V not positive definite
        return None, None
    v = v @ q
    w = v[:, :k]
    res2, overlap = 0.0, np.zeros((k, k))
    for a in range(0, M, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, M)
        res2 += float(np.sum((_t_rows(diag, c, w, a, b, ring) - w[a:b] * rho[:k]) ** 2))
        overlap += w[a:b].T @ w[a:b]

    eps_t = np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2.0 * abs(c))  # eps ||T||_1
    resid = math.sqrt(res2)
    # eta is U's departure from orthonormality: the orthonormal U (U^T U)^(-1/2) has
    # residual at most (||R|| + 4 eta max|rho|) / (1 - eta) for eta <= 1/2.  Forming
    # T U rounds each column of R by about 4 eps ||T||_1 at most, and the count is
    # exact for a matrix within a few eps ||T||_1 of T: the last term,
    # 4 (sqrt(k) + 1) eps ||T||_1
    eta = float(np.linalg.norm(overlap - np.eye(k)))
    radius = ((resid + 4.0 * eta * float(np.max(np.abs(rho[:k])))) / (1.0 - eta)
              + 4.0 * (math.sqrt(k) + 1.0) * eps_t)
    x = 0.5 * (rho[k - 1] + rho[k])
    if not (resid <= RITZ_RESIDUAL * eps_t and eta <= 0.5 and rho[k - 1] + radius < x):
        return rho, None  # a NaN fails here too
    return rho, (v if _count_below(diag, c, x, ring) == k else None)


def _ring_eigsh(diag: np.ndarray, c: float, v_min: float, k: int):
    """The lowest k levels of the ring by ARPACK shift-invert below min V, in ascending order."""
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import LinearOperator, eigsh

    M = len(diag)

    def ring(x):
        # every site couples to both neighbours, site 0 to site M - 1 included.
        # In shift-invert eigsh reads only A's shape and dtype; this is the
        # operator that `solve` inverts
        x = np.ravel(x)
        return diag * x + c * (np.roll(x, 1) + np.roll(x, -1))

    # shift-invert below the spectrum.  With u = e_0 + e_{M-1}, H - sigma is
    # T_u + c u u^T, where T_u is its tridiagonal part with -c added to the two end
    # diagonals.  T_u's diagonal (>= kin + 1) dominates its off-diagonal (kin / 2),
    # so T_u is positive definite: factor it once, and solve H - sigma by one
    # pttrs and a Sherman-Morrison correction for c u u^T
    sigma = v_min - 1.0
    t_diag, u = _ring_split(diag - sigma, c)
    d, e, info = dpttrf(t_diag, np.full(M - 1, c))
    z, _ = dpttrs(d, e, u)
    with np.errstate(all="ignore"):
        gain = c / (1.0 + c * (z[0] + z[-1]))  # the denominator is det(H - sigma) / det(T_u)
    if info or not -math.inf < gain <= 0.0:
        raise ResolutionError(f"kinetic scale hbar^2 / (m h^2) = {-2.0 * c:.3e} leaves "
                              "H - sigma singular to rounding; use a coarser grid")

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
    return vals[order], vecs[:, order]


def _seeded_eigenpairs(potential: Potential, hbar: float, box: tuple[float, float],
                       diag: np.ndarray, c: float, k: int, ring: bool = False):
    """The lowest k certified eigenpairs of T, shifted from the coarse grid, or (None, None).

    The coarse levels are bisected on the Dirichlet grid and come from ARPACK
    (`_ring_eigsh`) on the ring.
    """
    from scipy.linalg import LinAlgError, eigh_tridiagonal
    from scipy.sparse.linalg import ArpackError

    coarse = len(diag) // COARSEN
    if coarse < 64 or k + 1 > coarse - 2:  # fd_eigensolve's limits, for k + 1 coarse levels
        return None, None
    _, _, coarse_diag, coarse_c, v_min = _matrix(potential, hbar, box, coarse, ring)
    if not np.all(np.isfinite(coarse_diag)):
        return None, None
    try:
        shifts = (_ring_eigsh(coarse_diag, coarse_c, v_min, k + 1)[0] if ring else
                  eigh_tridiagonal(coarse_diag, np.full(coarse - 1, coarse_c), eigvals_only=True,
                                   select="i", select_range=(0, k)))
    except (LinAlgError, ArpackError, ResolutionError):
        # bisection or ARPACK did not converge, or the coarse ring is singular to
        # rounding: the full-grid call decides
        return None, None
    # the coarse level k is off by about E (kappa h)^2 / 12, with E its kinetic energy
    # above min V and (kappa h)^2 = 2 E / kin (kin = -2 c): E (k + 1/2) / (6 kin) of the
    # mean spacing E / (k + 1/2).  One sweep certifies only from shifts well inside a
    # spacing, so the seeded solve is tried only for E (k + 1/2) <= kin / 5.  In a
    # seeded sweep of 1000 random grids, 272 of the 284 solves within that bound
    # certified and 41 of the 716 beyond it.  The benchmark's Dirichlet solves reach
    # 0.04 kin and its periodic ones 0.011 kin
    if not (shifts[k] - np.min(coarse_diag) - 2.0 * coarse_c) * (k + 0.5) <= -0.4 * coarse_c:
        return None, None
    rho, vecs = _ritz_pairs(diag, c, shifts, k, ring)
    return (None, None) if vecs is None else (rho[:k], vecs[:, :k])


def _eigensolve(potential: Potential, hbar: float,
                box: tuple[float, float], M: int, k: int, ring: bool):
    # scipy is imported here, not at module level: only an eigensolve pays for it
    from scipy.linalg import eigh_tridiagonal

    grid, h, diag, c, v_min = _matrix(potential, hbar, box, M, ring)
    vals = None
    if np.all(np.isfinite(diag)):  # the direct call refuses a V that is not finite, as before
        # an overflow or a NaN in the seeded attempt fails its certificate, silently
        with np.errstate(all="ignore"):
            vals, vecs = _seeded_eigenpairs(potential, hbar, box, diag, c, k, ring)
    if vals is None:
        vals, vecs = (_ring_eigsh(diag, c, v_min, k) if ring else
                      eigh_tridiagonal(diag, np.full(M - 1, c), select="i",
                                       select_range=(0, k - 1)))
    return grid, h, vals, vecs


def fd_eigensolve(potential: Potential, hbar: float = 1.0,
                  box: tuple[float, float] | None = None,
                  M: int = 4096, k: int = 4,
                  boundary: str = "dirichlet") -> EigenSolution:
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
    grid gives the levels.

    Periodic boundaries close T into a ring with two corner couplings,
    T_u + c u u^T with T_u tridiagonal and u = e_0 + e_{M-1}, and take the
    same path: the coarse levels come from ARPACK on the M // COARSEN ring,
    each shifted solve of the sweep is one tridiagonal factorization of
    T_u - s and a Sherman-Morrison correction for the corners, and the count
    adds to T_u's Sturm count the sign of one scalar (Haynsworth inertia
    additivity), refused where rounding could flip it.  Where the seeded
    solve is not tried or not certified, ARPACK finds the lowest levels of
    the full ring by shift-invert below min V, each solve O(M): a positive
    definite tridiagonal factorization and a Sherman-Morrison correction.
    Eigenvectors are normalized under the grid measure and sign-fixed
    (largest-magnitude component positive).

    Wall amplitudes above WALL_FRACTION of the peak raise BoxError.
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    if k < 1 or k > M - 2:
        raise ValueError("level count k out of range")
    if boundary not in ("dirichlet", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if boundary == "periodic" and not potential.periodic_coordinate and box is None:
        raise ValueError("periodic boundary needs an explicit box for line potentials")
    if box is not None and not (math.isfinite(box[1] - box[0]) and box[0] < box[1]):
        raise ValueError("box must be finite with lo < hi")  # hi - lo can overflow
    if box is None:
        box = default_box(potential, hbar, k)

    grid, h, vals, vecs = _eigensolve(potential, hbar, box, M, k, boundary == "periodic")

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
