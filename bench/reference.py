"""Independent correctness checks for phasekit command-line output.

Every check here recomputes the expected answer from the op's config with
its own formulas: closed-form spectra and actions, scipy quadrature and root
finding.  Nothing is imported from phasekit, so a defect in the library
cannot hide in a shared helper.

``check(config, rc, stdout)`` returns None when the output is right and a
one-line reason when it is not.  Run as a script, this module is the
checker process of a workload run: once its imports are done it writes
``"ready"``, then reads one JSON request per line, ``{"config", "rc",
"out"}``, and answers each with one JSON line, the reason or null.
Keeping the checks (and the scipy they load) out of the workload's
interpreter keeps them out of its peak memory.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from workloads import quartic_bs_energy

TWO_PI = 2.0 * math.pi


class Mismatch(Exception):
    pass


def _close(got, want, rel, abs_=0.0, what="value"):
    if got is None or not math.isfinite(got) or abs(got - want) > rel * abs(want) + abs_:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _close_all(got, want, rel, abs_, what, at):
    """_close over arrays; the message names the first failing point of ``at``."""
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    ok = np.abs(got - want) <= rel * np.abs(want) + abs_  # false for NaN
    if not ok.all():
        i = int(np.argmin(ok))
        raise Mismatch(f"{what} at q={float(at[i])!r}: got {float(got[i])!r}, "
                       f"want {float(want[i])!r}")


def _columns(rows, *names):
    return [np.array([r[name] for r in rows], dtype=float) for name in names]


# ----------------------------------------------------------------- parsing

def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    """Comment lines ``# key: value`` and one table per header line."""
    comments, blocks = {}, []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments.setdefault(key, []).append(value)
            header = None
        elif header is None:
            header = line.split(",")
            blocks.append([])
        else:
            blocks[-1].append(dict(zip(header, (_cell(c) for c in line.split(",")))))
    return {"comments": comments, "blocks": blocks}


def _comment(parsed, key):
    values = parsed["comments"].get(key)
    if not values:
        raise Mismatch(f"missing '# {key}' line")
    return values[0]


# -------------------------------------------------------------- potentials

def _horner(coeffs):
    """Polynomial with ascending coefficients; plain floats stay plain (fast in quad)."""
    def value(q):
        acc = 0.0 * q
        for c in reversed(coeffs):
            acc = acc * q + c
        return acc
    return value


def potential(pot: dict):
    """(V, V', V'') of a potential JSON object, written out per family."""
    fam = pot["family"]
    if fam == "harmonic":
        k = pot.get("m", 1.0) * pot.get("omega", 1.0) ** 2
        return (lambda q: 0.5 * k * q * q, lambda q: k * q, lambda q: k + 0.0 * q)
    if fam == "quartic":
        lam = pot.get("lam", 1.0)
        return (lambda q: 0.25 * lam * q**4, lambda q: lam * q**3, lambda q: 3.0 * lam * q * q)
    if fam == "polynomial":
        c = [float(x) for x in pot["coeffs"]]
        d1 = [k * x for k, x in enumerate(c)][1:]
        d2 = [k * x for k, x in enumerate(d1)][1:]
        return _horner(c), _horner(d1), _horner(d2)
    if fam == "pendulum":
        a = pot.get("amplitude", 1.0)
        return (lambda q: -a * np.cos(q), lambda q: a * np.sin(q), lambda q: a * np.cos(q))
    if fam == "morse":
        d, w = pot.get("depth", 1.0), pot.get("width", 1.0)
        return (lambda q: d * (1.0 - np.exp(-w * q)) ** 2,
                lambda q: 2.0 * d * w * np.exp(-w * q) * (1.0 - np.exp(-w * q)),
                lambda q: 2.0 * d * w * w * np.exp(-w * q) * (2.0 * np.exp(-w * q) - 1.0))
    if fam == "rotor":
        return (lambda q: 0.0 * q,) * 3
    raise Mismatch(f"no reference for family {fam!r}")


def mass(pot: dict) -> float:
    return pot.get("inertia", 1.0) if pot["family"] == "rotor" else pot.get("m", 1.0)


def strict_minima(pot: dict, window=(-math.inf, math.inf)) -> list[float]:
    """Positions of minima with V'' > 0, from each family's own algebra."""
    fam = pot["family"]
    if fam in ("harmonic", "morse"):
        qs = [0.0]
    elif fam == "pendulum":
        lo, hi = max(window[0], -1e3), min(window[1], 1e3)
        qs = [TWO_PI * j for j in range(math.ceil(lo / TWO_PI), math.floor(hi / TWO_PI) + 1)]
    elif fam == "polynomial":
        _, dv, d2v = potential(pot)
        c = np.array(pot["coeffs"], dtype=float)
        d1 = c[1:] * np.arange(1, len(c))
        roots = np.roots(d1[::-1]) if len(d1) > 1 and np.any(d1[1:]) else []
        qs = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9 and d2v(r.real) > 0)
    else:  # quartic is degenerate at 0, the rotor is flat
        qs = []
    return [q for q in qs if window[0] <= q <= window[1]]


def lowest_minimum(pot: dict) -> float:
    """Position of the global minimum of a confining potential."""
    if pot["family"] in ("harmonic", "quartic", "morse"):
        return 0.0
    v = potential(pot)[0]
    return min(strict_minima(pot), key=lambda q: float(v(q)))


def normalizer(pot: dict, beta: float) -> float:
    """Z = integral of exp(-2 beta V) over the line, by scipy quadrature.

    The box grows from the global minimum until the weight relative to the
    peak is below 1e-18 on both sides, or reaches 64.  Only the Morse
    plateau, at most exp(-2 beta D) <= 3e-13 of the peak here, reaches the
    cap; it adds less than 1e-10 of Z whatever finite box is used.
    """
    v = potential(pot)[0]
    q0 = lowest_minimum(pot)
    v0 = float(v(q0))
    weight = lambda q: math.exp(-2.0 * beta * (float(v(q)) - v0))
    edges = []
    for direction in (-1.0, 1.0):
        step = 1.0
        while weight(q0 + direction * step) > 1e-18 and step < 64.0:
            step *= 2.0
        edges.append(q0 + direction * step)
    peaks = strict_minima(pot, tuple(edges)) or [q0]
    z = quad(weight, *edges, points=peaks, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return z * math.exp(-2.0 * beta * v0)


def _turning_point(v, e, q0, direction, limit=1e3):
    step = 1e-3
    while v(q0 + direction * step) <= e:
        step *= 2.0
        if step > limit:
            raise Mismatch(f"no turning point at E={e!r}")
    a, b = sorted((q0 + direction * step / 2.0, q0 + direction * step))
    return brentq(lambda q: v(q) - e, a, b, xtol=1e-15)


def loop_action(pot: dict, e: float, q0: float) -> tuple[float, float]:
    """(J, T) of the libration through q0 at energy e, by scipy quadrature.

    The algebraic weight (q - a)^(+-1/2) (b - q)^(+-1/2) carries the
    turning-point behaviour, so the integrands left are smooth.
    """
    v, dv = potential(pot)[:2]
    m = mass(pot)
    a = _turning_point(v, e, q0, -1.0)
    b = _turning_point(v, e, q0, +1.0)

    def kinetic(q):
        """p^2 / ((q - a) (b - q)), with its limits at the turning points."""
        d = (q - a) * (b - q)
        if d <= 0.0:
            return 2.0 * m * (-dv(a) if q < 0.5 * (a + b) else dv(b)) / (b - a)
        return max(2.0 * m * (e - v(q)), 0.0) / d

    opts = dict(weight="alg", epsabs=0.0, epsrel=1e-13, limit=200)
    j = 2.0 * quad(lambda q: math.sqrt(kinetic(q)), a, b, wvar=(0.5, 0.5), **opts)[0]
    t = 2.0 * m * quad(lambda q: 1.0 / math.sqrt(kinetic(q)), a, b, wvar=(-0.5, -0.5), **opts)[0]
    return j, t


# ---------------------------------------------------------------- quantize

def _levels_table(config, out):
    if config.get("format", "json") == "json":
        doc = json.loads(out)
        return doc["motion"], doc["levels"]
    parsed = parse_csv(out)
    return _comment(parsed, "motion"), parsed["blocks"][0]


def check_quantize(config, out):
    pot, hbar = config["potential"], float(config.get("hbar", 1.0))
    motion, rows = _levels_table(config, out)
    n0, n1 = (int(x) for x in config["levels"].split(".."))
    if [int(r["n"]) for r in rows] != list(range(n0, n1 + 1)):
        raise Mismatch("level numbers differ from the request")
    fam, m = pot["family"], mass(pot)
    want_motion = "rotation" if fam == "rotor" else "libration"
    if motion != want_motion:
        raise Mismatch(f"motion {motion!r}, want {want_motion!r}")
    h = TWO_PI * hbar
    for row in rows:
        n, e = int(row["n"]), row["E_bs"]
        if fam == "rotor":
            _close(e, (n * hbar) ** 2 / (2.0 * m), 1e-8, 1e-12, f"E_{n}")
            continue
        if fam == "harmonic" or (fam == "polynomial" and len(pot["coeffs"]) == 3):
            c = pot.get("coeffs")
            k = pot.get("m", 1.0) * pot["omega"] ** 2 if c is None else 2.0 * c[2]
            floor = 0.0 if c is None else c[0] - c[1] ** 2 / (4.0 * c[2])
            omega = math.sqrt(k / m)
            _close(e, floor + (n + 0.5) * hbar * omega, 1e-8, 1e-12, f"E_{n}")
            period = TWO_PI / omega
        elif fam == "morse":
            omega = pot["width"] * math.sqrt(2.0 * pot["depth"] / m)
            x = hbar * omega * (n + 0.5)
            _close(e, x - x * x / (4.0 * pot["depth"]), 1e-8, 1e-12, f"E_{n}")
            period = TWO_PI / (omega * (1.0 - x / (2.0 * pot["depth"])))
        else:  # quartic and pendulum, both with their minimum at q = 0
            j, period = loop_action(pot, e, 0.0)
            _close(j, (n + 0.5) * h, 1e-7, 0.0, f"J(E_{n})")
        if config.get("djde") == "on":
            _close(row["J"], (n + 0.5) * h, 1e-7, 0.0, f"J column at n={n}")
            _close(row["dJ_dE"], period, 1e-5, 0.0, f"dJ/dE at n={n}")


# ----------------------------------------------------------------- oracle

def _exact_levels(pot, hbar, k, boundary):
    fam, m = pot["family"], mass(pot)
    if fam == "harmonic":
        return [(n + 0.5) * hbar * pot["omega"] for n in range(k)], True
    if fam == "morse":
        omega = pot["width"] * math.sqrt(2.0 * pot["depth"] / m)
        xs = [hbar * omega * (n + 0.5) for n in range(k)]
        return [x - x * x / (4.0 * pot["depth"]) for x in xs], True
    if fam == "rotor" and boundary == "periodic":
        return [((j + 1) // 2 * hbar) ** 2 / (2.0 * m) for j in range(k)], True
    if fam == "quartic":
        # no closed form: the closed-form Bohr-Sommerfeld levels bound the
        # spectrum within a WKB band that shrinks with n
        return [quartic_bs_energy(pot, hbar, n) for n in range(k)], False
    raise Mismatch(f"no oracle reference for {fam!r} with {boundary!r} walls")


def check_oracle(config, out):
    pot, hbar = config["potential"], float(config.get("hbar", 1.0))
    k, M = int(config["levels"]), int(config["grid-size"])
    if config.get("format", "json") == "json":
        doc = json.loads(out)
        box, boundary, values = doc["box"], doc["boundary"], doc["eigenvalues"]
        overlap = doc.get("overlap")
    else:
        parsed = parse_csv(out)
        box = [float(x) for x in _comment(parsed, "box").split(":")]
        boundary = json.loads(_comment(parsed, "config"))["boundary"]
        values = [row["E"] for row in parsed["blocks"][0]]
        overlap = parsed["comments"].get("overlap")
        overlap = float(overlap[0]) if overlap else None
    if len(values) != k:
        raise Mismatch(f"{len(values)} eigenvalues, want {k}")
    if any(b < a for a, b in zip(values, values[1:])):
        raise Mismatch("eigenvalues not ascending")
    h = (box[1] - box[0]) / (M + 1 if boundary == "dirichlet" else M)
    exact, closed = _exact_levels(pot, hbar, k, boundary)
    m = mass(pot)
    for n, (got, want) in enumerate(zip(values, exact)):
        if closed:
            # central differences err by h^2 <p^4> / (24 m hbar^2) ~ h^2 m E^2 / (6 hbar^2)
            band = 0.5 * h * h * m * want * want / hbar**2 + 1e-9 * (1.0 + abs(want))
            _close(got, want, 0.0, band, f"E_{n}")
        else:
            _close(got, want, 0.25 / (n + 1), 0.0, f"E_{n} (WKB band)")
    if "overlap-beta" in config and not (overlap is not None and 0.0 <= overlap <= 1.0):
        raise Mismatch(f"overlap {overlap!r} outside [0, 1]")


# -------------------------------------------------------------- propagate

def check_propagate(config, out):
    pot, hbar = config["potential"], float(config.get("hbar", 1.0))
    q_a, q_b, t = float(config["from"]), float(config["to"]), float(config["time"])
    if config.get("format", "json") == "json":
        doc = json.loads(out)
        s_cl, e, phase, table = doc["S_cl"], doc["E"], doc["total_phase"], doc["convergence"]
    else:
        parsed = parse_csv(out)
        s_cl, e, phase = (float(_comment(parsed, k)) for k in ("S_cl", "E", "total_phase"))
        table = parsed["blocks"][0]
    m, fam = mass(pot), pot["family"]
    free = fam == "rotor" or (fam == "polynomial" and len(pot["coeffs"]) == 1)
    if free:
        v0 = pot["coeffs"][0] if fam == "polynomial" else 0.0
        vel = (q_b - q_a) / t
        _close(s_cl, m * (q_b - q_a) ** 2 / (2.0 * t) - v0 * t, 1e-12, 1e-14, "S_cl")
        _close(e, 0.5 * m * vel * vel + v0, 1e-12, 1e-14, "E")
    elif fam == "harmonic":
        w = pot["omega"]
        s, c = math.sin(w * t), math.cos(w * t)
        want = m * w * ((q_a**2 + q_b**2) * c - 2.0 * q_a * q_b) / (2.0 * s)
        _close(s_cl, want, 1e-12, 1e-14, "S_cl")
        b = (q_b - q_a * c) / s
        _close(e, 0.5 * m * w * w * (b * b + q_a * q_a), 1e-12, 1e-14, "E")
    _close(phase, (s_cl - e * t) / hbar, 1e-12, 1e-14, "total_phase")
    ns = [int(r["N"]) for r in table]
    if ns != [int(x) for x in str(config["slices"]).split(",")]:
        raise Mismatch("convergence table rows differ from the requested slices")
    errors = [r["error"] for r in table]
    for row in table:
        _close(row["error"], abs(row["sliced_phase"] - phase), 1e-9, 1e-15, "error column")
    if free:
        # constant Lagrangian: every slicing is exact
        if max(errors) > 1e-9 * (1.0 + abs(phase)):
            raise Mismatch(f"free-motion sliced phase off by {max(errors)!r}")
    else:
        _check_slicing_error(pot, hbar, q_a, q_b, t, e, ns, errors, phase)


def _check_slicing_error(pot, hbar, q_a, q_b, t, e, ns, errors, phase):
    """Each row's error against its Euler-Maclaurin expansion.

    A row's phase is the left-endpoint sum of L = m v^2 / 2 - V over N slices
    of width h = t / N; the converged phase is the exact action (harmonic) or
    the trapezoid sum over M = max(largest N, 4096) slices.  Their difference is

        (h / 2) (L(0) - L(t)) + (h^2 - h_M^2) / 12 (L'(t) - L'(0)) + O(h^4).

    On a path of energy E, L = E - 2 V, so the first term is h (V(q_b) - V(q_a)),
    and L' = -2 V'(q) v with |v| = sqrt(2 (E - V) / m) bounds the second.  When
    V(q_a) is close to V(q_b) the first term is small, and the error need not
    fall with N; its size is fixed all the same.
    """
    v, dv, _ = potential(pot)
    m = mass(pot)
    speed = [math.sqrt(max(2.0 * (e - float(v(q))) / m, 0.0)) for q in (q_a, q_b)]
    dl_max = 2.0 * (abs(float(dv(q_a))) * speed[0] + abs(float(dv(q_b))) * speed[1])
    h_m = t / max(max(ns), 4096)
    for n, err in zip(ns, errors):
        h = t / n
        lead = h * abs(float(v(q_b)) - float(v(q_a))) / hbar
        # twice the second-order bound, plus room for the 1e-10 shooting residual
        band = 2.0 * (h * h + h_m * h_m) / 12.0 * dl_max / hbar + 1e-9 * (1.0 + abs(phase))
        _close(err, lead, 0.0, band, f"sliced-phase error at N={n} (leading term)")


# ------------------------------------------------------------ phase space

def check_wigner(config, out):
    pots = config["potential"]
    pots = pots if isinstance(pots, list) else [pots]
    ens = config["ensemble"]
    beta, hbar = ens["beta"], ens.get("hbar", 1.0)
    if config.get("format", "json") == "json":
        blocks = [b["rows"] for b in json.loads(out)["blocks"]]
        key = {"re": "re_value", "im": "im_value"}
    else:
        blocks = parse_csv(out)["blocks"]
        key = {"re": "re(value)", "im": "im(value)"}
    if len(blocks) != len(pots):
        raise Mismatch(f"{len(blocks)} blocks for {len(pots)} potentials")
    nq, nd = int(config["grid"].split(":")[2]), int(config["deltas"].split(":")[2])
    for pot, rows in zip(pots, blocks):
        if len(rows) != nq * nd:
            raise Mismatch(f"{len(rows)} rows, want {nq * nd}")
        q, dq, re, im, closed, residual = _columns(
            rows, "q", "delta_q", key["re"], key["im"], "closed_form", "residual")
        v, m, z = potential(pot)[0], mass(pot), normalizer(pot, beta)
        want = np.exp(-2.0 * beta * v(q)) * np.exp(-m * dq**2 / (4.0 * beta * hbar * hbar)) / z
        _close_all(closed, want, 1e-8, 1e-300, "closed form", q)
        scale = np.max(np.abs(closed))
        _close_all(re, closed, 0.0, 1e-8 * scale, "quadrature vs closed form", q)
        _close_all(im, 0.0, 0.0, 1e-8 * scale, "imaginary part", q)
        _close_all(residual, 0.0, 0.0, 1e-12 * np.abs(closed) + 1e-300, "transport residual", q)


def _matched_temperature(pot, q0, hbar, k_b):
    curvature = float(potential(pot)[2](q0))
    return hbar / (2.0 * k_b) * math.sqrt(curvature / mass(pot))


def check_thermo(config, out):
    pot, ens = config["potential"], config["ensemble"]
    beta, hbar, k_b = ens["beta"], ens.get("hbar", 1.0), ens.get("k_B", 1.0)
    if config.get("format", "json") == "json":
        doc = json.loads(out)
        rows, summary = doc["rows"], doc["summary"]
    else:
        parsed = parse_csv(out)
        rows = parsed["blocks"][0]
        summary = parsed["comments"].get("summary")
        summary = json.loads(summary[0]) if summary else None
    lo, hi, n = config["grid"].split(":")
    qs = np.linspace(float(lo), float(hi), int(n))
    if len(rows) != len(qs):
        raise Mismatch(f"{len(rows)} rows, want {len(qs)}")
    q, v_col, psi_sq, entropy, f_g = _columns(rows, "q", "V", "psi_sq", "S", "F_G")
    v = potential(pot)[0]
    want_v = v(qs) + 0.0 * qs
    _close_all(q, qs, 1e-15, 1e-15, "q", qs)
    _close_all(v_col, want_v, 1e-12, 1e-14, "V", qs)
    with np.errstate(divide="ignore", invalid="ignore"):
        _close_all(entropy, k_b * np.log(psi_sq), 1e-12, 1e-14, "S", qs)
    if config.get("normalization", "paper") == "normalized":
        z = normalizer(pot, beta)
        _close_all(psi_sq, np.exp(-2.0 * beta * want_v) / z, 1e-8, 1e-300, "psi^2 / Z", qs)
    else:
        _close_all(psi_sq, np.exp(-2.0 * beta * want_v), 1e-12, 1e-300, "psi^2", qs)
        _close_all(f_g, want_v, 1e-12, 1e-14, "F_G vs V", qs)
    shifts = f_g - want_v
    if np.ptp(shifts) > 1e-10 * (1.0 + np.max(np.abs(v_col))):
        raise Mismatch("F_G - V is not constant across the grid")

    minima = strict_minima(pot)
    if not minima:
        if summary is not None:
            raise Mismatch("summary for a potential without a strict minimum")
        return
    if summary is None:
        raise Mismatch(f"no summary, but V has a minimum at q={minima[0]:.6g}")
    floor = min(float(v(q)) for q in minima)
    lowest = [q for q in minima if float(v(q)) <= floor + 1e-12 * (1.0 + abs(floor))]
    if not any(abs(summary["q0"] - q) <= 1e-6 for q in lowest):
        raise Mismatch(f"summary q0={summary['q0']!r}, global minima at {lowest}")
    t_matched = _matched_temperature(pot, summary["q0"], hbar, k_b)
    _close(summary["T_matched"], t_matched, 1e-8, 0.0, "T_matched")
    _close(summary["E"], float(v(summary["q0"])) + k_b * t_matched, 1e-8, 1e-12, "E")


def check_equilibrium(config, out):
    pot = config["potential"]
    hbar, k_b = float(config.get("hbar", 1.0)), float(config.get("kB", 1.0))
    if config.get("format", "json") == "json":
        reports = json.loads(out)["reports"]
    else:
        reports = parse_csv(out)["blocks"][0]
    lo, hi = (float(x) for x in config.get("window", "-10:10").split(":"))
    minima = strict_minima(pot, (lo, hi))
    got = [r["q0"] for r in reports]
    if len(got) != len(minima) or any(abs(a - b) > 1e-6 for a, b in zip(got, minima)):
        raise Mismatch(f"minima at {got}, want {minima}")
    for r in reports:
        _close(r["T_matched"], _matched_temperature(pot, r["q0"], hbar, k_b), 1e-8, 0.0,
               "T_matched")


CHECKS = {
    "quantize": check_quantize,
    "oracle": check_oracle,
    "propagate": check_propagate,
    "wigner": check_wigner,
    "thermo": check_thermo,
    "equilibrium": check_equilibrium,
}


def check(config: dict, rc, stdout: str) -> str | None:
    """None when the op succeeded and its output matches the reference."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        CHECKS[config["subcommand"]](config, stdout)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def serve(requests, replies) -> None:
    """Answer one JSON request line with one JSON reason line, until EOF.

    A first line, "ready", says that the imports are done.
    """
    replies.write(json.dumps("ready") + "\n")
    replies.flush()
    for line in requests:
        req = json.loads(line)
        replies.write(json.dumps(check(req["config"], req["rc"], req["out"])) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
