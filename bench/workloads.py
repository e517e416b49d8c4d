"""Seeded operation generators for the three benchmark workloads.

Each workload is a sequence of cycles.  A cycle is a fixed list of op
shapes (subcommand, family, size); the seed draws every parameter and the
order of the shapes inside the cycle.  Every run therefore sees the same mix
of work, so throughput and latency percentiles are comparable across seeds,
and a run that ends on a cycle boundary has an exact share of each shape.

phasekit receives only the generated ``config`` dict.  The rest of an op
(``probe``) is read by the benchmark: it names the known defect that an op
is expected to expose at the seed commit, so a failure there is reported as
expected rather than as a regression.  Probes are never filtered out and
always count in ``failed``.

No two ops share a potential and ensemble: every parameter is a fresh draw,
so phasekit's ``lru_cache``s give no cross-operation hits that a one-shot
command-line user would not get.

This module imports nothing from phasekit.
"""

from __future__ import annotations

import math
import random

CYCLE = 20

#: a well centred here lies outside phasekit's fixed (-10, 10) search windows,
#: and far enough out that its low levels sit below V(10), the window's edge
SHIFTED_CENTRE = (16.0, 20.0)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _levels(rng: random.Random, k: int, n_max: int) -> str:
    # the first level is 0 or 1: the cost of a level grows with log n, and a
    # wider draw would let the seed move the per-op cost
    k = max(1, min(k, n_max + 1))
    n0 = rng.randint(0, min(1, n_max - k + 1))
    return f"{n0}..{n0 + k - 1}"


# ------------------------------------------------------------- potentials

def harmonic(rng):
    return {"family": "harmonic", "m": _u(rng, 0.5, 2.0), "omega": _u(rng, 0.5, 2.0)}


def quartic(rng):
    return {"family": "quartic", "m": _u(rng, 0.7, 1.5), "lam": _u(rng, 0.5, 2.0)}


def morse(rng, depth=(10.0, 20.0)):
    return {"family": "morse", "m": _u(rng, 0.8, 1.5), "depth": _u(rng, *depth),
            "width": _u(rng, 0.6, 1.0)}


def pendulum(rng, amplitude=(3.0, 8.0)):
    return {"family": "pendulum", "m": _u(rng, 0.8, 1.5), "amplitude": _u(rng, *amplitude)}


def rotor(rng):
    return {"family": "rotor", "inertia": _u(rng, 0.5, 2.0)}


def double_well(rng):
    """V = a q^4 - b q^2 + c q: two minima inside (-10, 10)."""
    a, b = _u(rng, 0.2, 0.4), _u(rng, 0.8, 1.5)
    return {"family": "polynomial", "m": _u(rng, 0.8, 1.5),
            "coeffs": [0.0, _u(rng, -0.1, 0.1), -b, 0.0, a]}


def shifted_well(rng):
    """Harmonic well written as a polynomial, centred outside (-10, 10)."""
    m, omega, c = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), _u(rng, *SHIFTED_CENTRE)
    k = m * omega**2
    return {"family": "polynomial", "m": m, "coeffs": [0.5 * k * c * c, -k * c, 0.5 * k]}


def morse_n_max(pot: dict, hbar: float) -> int:
    """Half the bound Morse levels: keeps every request clear of dissociation."""
    omega = pot["width"] * math.sqrt(2.0 * pot["depth"] / pot["m"])
    return max(0, int(0.5 * (2.0 * pot["depth"] / (hbar * omega) - 0.5)))


def pendulum_n_max(pot: dict, hbar: float) -> int:
    """60% of the librating levels: the separatrix action is 16 sqrt(m A)."""
    j_crest = 16.0 * math.sqrt(pot["m"] * pot["amplitude"])
    return max(0, int(0.6 * (j_crest / (2.0 * math.pi * hbar) - 0.5)))


# ---------------------------------------------------------------- spectrum

SPECTRUM_SLOTS = (
    # A libration level costs 0.2 to 0.35 s at the seed, a rotor request a
    # few ms.  After eight rotor requests, p50 falls inside the group of six
    # single-level librations; the two dearest shapes (5 quartic and 8
    # harmonic levels) carry p90.  Every libration family but the pendulum,
    # whose bound levels are few, also has multi-level requests, so one
    # potential's levels share work on every libration path.
    # (family, levels per request, djde column)
    ("rotor", 1, False), ("rotor", 2, False), ("rotor", 3, False), ("rotor", 4, False),
    ("rotor", 5, False), ("rotor", 6, False), ("rotor", 8, False), ("rotor", 10, False),
    ("harmonic", 1, False), ("harmonic", 1, False), ("harmonic", 1, False),
    ("quartic", 1, False), ("morse", 1, False), ("pendulum", 1, False),
    ("shifted_well", 1, False),
    ("quartic", 2, False), ("morse", 2, False), ("morse", 4, True),
    ("quartic", 5, True), ("harmonic", 8, True),
)


def _spectrum_op(rng, family, k, djde):
    hbar = _u(rng, 0.9, 1.1)
    probe = None
    if family == "rotor":
        pot, n_max = rotor(rng), 12
    elif family == "harmonic":
        pot, n_max = harmonic(rng), 9
    elif family == "quartic":
        pot, n_max = quartic(rng), 9
    elif family == "morse":
        # deep enough that half the bound levels is never fewer than five
        pot = morse(rng, depth=(100.0, 150.0))
        n_max = morse_n_max(pot, hbar)
    elif family == "pendulum":
        pot = pendulum(rng)
        n_max = pendulum_n_max(pot, hbar)
    else:
        pot, n_max, probe = shifted_well(rng), 4, "shifted_well"
    config = {"subcommand": "quantize", "potential": pot, "hbar": hbar,
              "levels": _levels(rng, k, n_max)}
    if djde:
        config["djde"] = "on"
    return {"slot": f"quantize/{family}/{k}", "probe": probe, "config": config}


# ------------------------------------------------------------- phase_space

PHASE_SPACE_SLOTS = (
    # Output format alternates by slot index (JSON at even indices).  The four
    # dearest shapes (two potentials on 21 x 11 points, all JSON, none with the
    # double well, whose normalizer costs more) cost about the same, so p90
    # falls inside that group rather than in a gap.
    # (wigner, families, q points, delta_q points)
    ("wigner", ("harmonic", "quartic"), 21, 11), ("wigner", ("harmonic",), 5, 3),
    ("wigner", ("quartic", "morse"), 21, 11), ("wigner", ("quartic",), 11, 5),
    ("wigner", ("morse", "harmonic"), 21, 11), ("wigner", ("double_well",), 15, 7),
    ("wigner", ("quartic", "harmonic"), 21, 11),
    ("wigner", ("morse", "double_well", "harmonic"), 7, 3),
    # (thermo, grid points, family, normalization)
    ("thermo", 21, "harmonic", "paper"), ("thermo", 41, "quartic", "normalized"),
    ("thermo", 51, "morse", "paper"), ("thermo", 61, "double_well", "normalized"),
    ("thermo", 81, "harmonic", "normalized"), ("thermo", 101, "quartic", "paper"),
    ("thermo", 201, "double_well", "paper"), ("thermo", 41, "shifted_well", "paper"),
    ("equilibrium", "harmonic"), ("equilibrium", "morse"),
    ("equilibrium", "double_well"), ("equilibrium", "pendulum"),
)


def _phase_space_potential(rng, family):
    if family == "morse":
        # 2 beta D >= 28 keeps exp(-2 beta V) normalizable to 1e-12
        return morse(rng, depth=(12.0, 20.0))
    return {"harmonic": harmonic, "quartic": quartic,
            "double_well": double_well, "pendulum": pendulum}[family](rng)


def _ensemble(rng):
    return {"beta": _u(rng, 1.2, 2.0), "hbar": _u(rng, 0.7, 1.3), "k_B": _u(rng, 0.7, 1.3)}


def _phase_space_op(rng, slot):
    kind = slot[0]
    probe = None
    if kind == "wigner":
        _, families, nq, nd = slot
        pots = [_phase_space_potential(rng, f) for f in families]
        half_q, half_d = _u(rng, 1.0, 2.5), _u(rng, 0.05, 0.3)
        config = {"subcommand": "wigner", "potential": pots if len(pots) > 1 else pots[0],
                  "ensemble": _ensemble(rng),
                  "grid": f"{-half_q}:{half_q}:{nq}", "deltas": f"{-half_d}:{half_d}:{nd}"}
    elif kind == "thermo":
        _, n, family, normalization = slot
        if family == "shifted_well":
            pot, probe = shifted_well(rng), "shifted_well"
            centre = -pot["coeffs"][1] / (2.0 * pot["coeffs"][2])
            lo, hi = round(centre - 1.5, 6), round(centre + 1.5, 6)
        elif family == "morse":
            pot = _phase_space_potential(rng, family)
            # the steep inner wall underflows exp(-2 beta V) past -0.5 / width
            lo, hi = round(-0.4 / pot["width"], 6), round(3.0 / pot["width"], 6)
        else:
            pot = _phase_space_potential(rng, family)
            lo, hi = -_u(rng, 1.0, 2.5), _u(rng, 1.0, 2.5)
        config = {"subcommand": "thermo", "potential": pot, "ensemble": _ensemble(rng),
                  "grid": f"{lo}:{hi}:{n}", "normalization": normalization}
    else:
        pot = _phase_space_potential(rng, slot[1])
        config = {"subcommand": "equilibrium", "potential": pot,
                  "hbar": _u(rng, 0.7, 1.3), "kB": _u(rng, 0.7, 1.3)}
    slot_name = "/".join("+".join(x) if isinstance(x, tuple) else str(x) for x in slot)
    return {"slot": slot_name, "probe": probe, "config": config}


# ----------------------------------------------------------------- solvers

SOLVERS_SLOTS = (
    # p50 falls near two dense solves (Morse 32768/4 and the quartic default
    # box 16384/8); the three anharmonic propagate shapes, each about twice
    # the dearest solve, carry p90.  Periodic solves start Lanczos from a
    # constant vector: with k = 2, about one harmonic draw in seven misses
    # the first odd state, so the periodic shapes ask for k >= 3.
    ("oracle", "harmonic", 8192, 4), ("oracle", "harmonic", 16384, 10),
    ("oracle", "harmonic", 32768, 20), ("oracle", "harmonic", 32768, 6),
    ("oracle", "harmonic", 16384, 1),
    ("oracle", "harmonic_periodic", 8192, 5),
    ("oracle", "morse", 16384, 3), ("oracle", "morse", 32768, 4),
    ("oracle", "rotor", 8192, 3), ("oracle", "rotor", 16384, 11), ("oracle", "rotor", 32768, 15),
    ("oracle", "quartic", 16384, 6), ("oracle", "quartic", 32768, 10),
    ("oracle", "quartic_default_box", 8192, 4), ("oracle", "quartic_default_box", 16384, 8),
    ("propagate", "quartic", 2000), ("propagate", "morse", 1400), ("propagate", "pendulum", 3000),
    ("propagate", "harmonic", 4000), ("propagate", "free", 4000),
)


#: integral of sqrt(1 - x^4) over [-1, 1] = B(1/4, 3/2) / 2
QUARTIC_SHAPE = 0.5 * math.gamma(0.25) * math.gamma(1.5) / math.gamma(1.75)


def quartic_bs_energy(pot: dict, hbar: float, n: int) -> float:
    """Bohr-Sommerfeld level of V = lam q^4 / 4: J(E) = c E^(3/4)."""
    c = 2.0 * math.sqrt(2.0 * pot["m"]) * (4.0 / pot["lam"]) ** 0.25 * QUARTIC_SHAPE
    return ((n + 0.5) * 2.0 * math.pi * hbar / c) ** (4.0 / 3.0)


def _oracle_op(rng, family, M, k):
    hbar = _u(rng, 0.7, 1.3)
    probe = None
    config = {"subcommand": "oracle", "hbar": hbar, "levels": k, "grid-size": M}
    if family in ("harmonic", "harmonic_periodic"):
        pot = harmonic(rng)
        if family == "harmonic_periodic" or rng.random() < 0.3:
            half = math.sqrt(2.0 * hbar * (k + 40) / (pot["m"] * pot["omega"]))
            config["box"] = f"{-round(half, 6)}:{round(half, 6)}"
        if family == "harmonic_periodic":
            config["boundary"] = "periodic"
    elif family == "morse":
        pot = morse(rng)
        config["levels"] = min(k, morse_n_max(pot, hbar) + 1)
        config["box"] = f"{round(-2.5 / pot['width'], 6)}:{round(12.0 / pot['width'], 6)}"
    elif family == "rotor":
        pot = rotor(rng)
    else:
        pot = quartic(rng)
        if family == "quartic":
            e_top = quartic_bs_energy(pot, hbar, k + 10)
            half = 1.3 * (4.0 * e_top / pot["lam"]) ** 0.25
            config["box"] = f"{-round(half, 6)}:{round(half, 6)}"
        else:
            probe = "quartic_default_box"
    config["potential"] = pot
    if family != "rotor" and rng.random() < 0.4:
        config["overlap-beta"] = _u(rng, 0.3, 2.0)
    return {"slot": f"oracle/{family}/{M}/{k}", "probe": probe, "config": config}


def _propagate_op(rng, family, s):
    # anharmonic paths stay well short of their first focal time, where the
    # two-point problem is unique.  In these ranges shooting takes the same
    # number of secant steps for almost every draw (5 quartic, 6 Morse, 5
    # pendulum), so a slot's cost, and with it p90, does not follow the seed.
    if family == "quartic":
        pot = quartic(rng)
        q_a, q_b, t = _u(rng, 0.8, 1.2), _u(rng, -1.2, -0.8), _u(rng, 0.5, 0.7)
    elif family == "morse":
        pot = morse(rng, depth=(8.0, 15.0))
        q_a, q_b = _u(rng, 0.4, 0.6), _u(rng, -0.3, -0.2)
        omega = pot["width"] * math.sqrt(2.0 * pot["depth"] / pot["m"])
        t = round(_u(rng, 0.3, 0.4) * math.pi / omega, 6)
    elif family == "pendulum":
        pot = pendulum(rng, amplitude=(1.0, 3.0))
        q_a, q_b, t = _u(rng, 0.8, 1.2), _u(rng, -1.2, -0.8), _u(rng, 0.6, 0.8)
    elif family == "harmonic":
        pot = harmonic(rng)
        q_a, q_b = _u(rng, -1.5, 1.5), _u(rng, -1.5, 1.5)
        t = round(_u(rng, 0.3, 2.5) / pot["omega"], 6)
    else:
        pot = rotor(rng) if rng.random() < 0.5 else {
            "family": "polynomial", "m": _u(rng, 0.5, 2.0), "coeffs": [_u(rng, -1.0, 1.0)]}
        q_a, q_b, t = _u(rng, 0.5, 3.0), _u(rng, 0.5, 3.0), _u(rng, 0.5, 2.0)
    config = {"subcommand": "propagate", "potential": pot, "hbar": _u(rng, 0.7, 1.3),
              "from": q_a, "to": q_b, "time": t, "slices": f"{s},{2 * s}"}
    return {"slot": f"propagate/{family}/{s}", "probe": None, "config": config}


def _solvers_op(rng, slot):
    if slot[0] == "oracle":
        return _oracle_op(rng, *slot[1:])
    return _propagate_op(rng, *slot[1:])


# ------------------------------------------------------------------ public

WORKLOADS = {
    "spectrum": (SPECTRUM_SLOTS, lambda rng, slot: _spectrum_op(rng, *slot)),
    "phase_space": (PHASE_SPACE_SLOTS, _phase_space_op),
    "solvers": (SOLVERS_SLOTS, _solvers_op),
}


def cycle_ops(workload: str, seed: int, cycle: int) -> list[dict]:
    """The ops of one cycle, in run order; the same arguments give the same ops."""
    slots, make = WORKLOADS[workload]
    assert len(slots) == CYCLE
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    ops = [make(rng, slot) for slot in slots]
    for i, op in enumerate(ops):
        # output format alternates by slot, so each cycle writes the same mix
        op["config"]["format"] = ("json", "csv")[i % 2]
    rng.shuffle(ops)
    return ops
