"""Command-line entry point.

Every subcommand resolves its options from defaults, then an optional JSON
config file (--config), then explicit flags, rejecting unknown keys at each
layer.  Output is deterministic: stable key order, floats printed with 17
significant digits, and the fully-resolved configuration echoed in every
artifact so a run can be reproduced from its own output.

Exit codes: 0 success, 1 computation error, 2 validation error.  Errors are
emitted as a JSON object on stderr.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bohr_sommerfeld as bs
from . import propagator as prop
from . import schrodinger, thermo, wigner
from .ensemble import CanonicalEnsemble, ensemble_from_json
from .errors import ConfigError, PhasekitError
from .potentials import Potential, Stability, find_equilibria, potential_from_json


# ---------------------------------------------------------------- formatting

def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return "%.17g" % x


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    return json.dumps(value)


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            return "[" + ", ".join(_json_scalar(v) for v in seq) + "]"
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(value)


def _compact_json(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_compact_json(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_compact_json(v) for v in value) + "]"
    return _json_scalar(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


# ------------------------------------------------------------------- parsing

def _parse_float(text, field: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number for {field!r}, got {text!r}", field=field)


def _parse_int(text, field: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer for {field!r}, got {text!r}", field=field)


def _parse_range(text, field: str) -> np.ndarray:
    """start:stop:count inclusive grid."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{field!r} must look like start:stop:count", field=field)
    start = _parse_float(parts[0], field)
    stop = _parse_float(parts[1], field)
    count = _parse_int(parts[2], field)
    if count < 1:
        raise ConfigError(f"{field!r} needs count >= 1", field=field)
    return np.linspace(start, stop, count)


def _parse_interval(text, field: str) -> tuple[float, float]:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ConfigError(f"{field!r} must look like lo:hi", field=field)
    lo, hi = _parse_float(parts[0], field), _parse_float(parts[1], field)
    if not lo < hi:
        raise ConfigError(f"{field!r} needs lo < hi", field=field)
    return lo, hi


def _parse_levels(text, field: str) -> list[int]:
    """n0..n1 inclusive."""
    parts = str(text).split("..")
    if len(parts) != 2:
        raise ConfigError(f"{field!r} must look like n0..n1", field=field)
    n0, n1 = _parse_int(parts[0], field), _parse_int(parts[1], field)
    if n0 < 0 or n1 < n0:
        raise ConfigError(f"{field!r} needs 0 <= n0 <= n1", field=field)
    return list(range(n0, n1 + 1))


def _parse_slices(text, field: str) -> list[int]:
    out = []
    for tok in str(text).split(","):
        n = _parse_int(tok, field)
        if n < 1:
            raise ConfigError(f"{field!r} entries must be >= 1", field=field)
        out.append(n)
    return out


def _load_json_arg(value, field: str):
    """Accept an already-parsed object, an inline JSON string, or a file path."""
    if isinstance(value, (dict, list)):
        return value
    text = str(value).strip()
    if not text.startswith(("{", "[")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {field!r} file: {exc}", field=field)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON for {field!r}: {exc}", field=field)


def _potential_arg(value, field: str = "potential") -> Potential:
    obj = _load_json_arg(value, field)
    if isinstance(obj, list):
        raise ConfigError(f"{field!r} must be a single potential object", field=field)
    try:
        return potential_from_json(obj)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field)


def _potential_list_arg(value, field: str = "potential") -> list[Potential]:
    obj = _load_json_arg(value, field)
    blocks = obj if isinstance(obj, list) else [obj]
    out = []
    for entry in blocks:
        try:
            out.append(potential_from_json(entry))
        except ValueError as exc:
            raise ConfigError(str(exc), field=field)
    return out


def _ensemble_arg(value, field: str = "ensemble") -> CanonicalEnsemble:
    obj = _load_json_arg(value, field)
    if not isinstance(obj, dict):
        raise ConfigError(f"{field!r} must be a JSON object", field=field)
    try:
        return ensemble_from_json(obj)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field)


# -------------------------------------------------------- option resolution

@dataclass(frozen=True)
class Option:
    name: str
    default: object = None
    required: bool = False
    choices: tuple = ()


GLOBAL_OPTIONS = (
    Option("format", default="json", choices=("json", "csv")),
    Option("out", default=None),
    Option("normalization", default="paper", choices=("paper", "normalized")),
)

SCHEMAS: dict[str, tuple[Option, ...]] = {
    "wigner": (
        Option("potential", required=True),
        Option("ensemble", required=True),
        Option("grid", required=True),
        Option("deltas", required=True),
    ),
    "equilibrium": (
        Option("potential", required=True),
        Option("hbar", default=1.0),
        Option("kB", default=1.0),
        Option("window", default="-10:10"),
    ),
    "thermo": (
        Option("potential", required=True),
        Option("ensemble", required=True),
        Option("grid", required=True),
    ),
    "quantize": (
        Option("potential", required=True),
        Option("hbar", default=1.0),
        Option("class", default="auto", choices=("auto", "libration", "rotation")),
        Option("levels", required=True),
        Option("oracle", default="off", choices=("on", "off")),
        Option("djde", default="off", choices=("on", "off")),
        Option("box", default=None),
        Option("grid-size", default=16384),
    ),
    "propagate": (
        Option("potential", required=True),
        Option("hbar", default=1.0),
        Option("from", required=True),
        Option("to", required=True),
        Option("time", required=True),
        Option("slices", default="4096"),
        Option("energy", default="auto"),
    ),
    "oracle": (
        Option("potential", required=True),
        Option("hbar", default=1.0),
        Option("levels", default=4),
        Option("boundary", default="auto", choices=("auto", "dirichlet", "periodic")),
        Option("box", default=None),
        Option("grid-size", default=4096),
        Option("eigenvectors", default="off", choices=("on", "off")),
        Option("overlap-beta", default=None),
    ),
}


def _resolve_options(subcommand: str, cli_pairs: dict, config: dict) -> dict:
    schema = {opt.name: opt for opt in SCHEMAS[subcommand] + GLOBAL_OPTIONS}
    resolved = {name: opt.default for name, opt in schema.items()}

    for source_name, source in (("config", config), ("flag", cli_pairs)):
        for key, value in source.items():
            if key == "subcommand" and source_name == "config":
                continue
            if key not in schema:
                raise ConfigError(
                    f"unknown {source_name} {key!r} for subcommand {subcommand!r}",
                    field=key,
                )
            resolved[key] = value

    for name, opt in schema.items():
        if opt.required and resolved[name] is None:
            raise ConfigError(f"missing required option {name!r}", field=name)
        if opt.choices and resolved[name] is not None and str(resolved[name]) not in opt.choices:
            raise ConfigError(
                f"{name!r} must be one of {', '.join(opt.choices)}", field=name
            )
    return resolved


def _split_argv(argv: list[str]) -> tuple[str | None, dict, str | None]:
    """(subcommand, flag dict, config path) from raw argv."""
    subcommand = None
    pairs: dict = {}
    config_path = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            key = tok[2:]
            if "=" in key:
                key, value = key.split("=", 1)
            else:
                if i + 1 >= len(argv):
                    raise ConfigError(f"flag --{key} needs a value", field=key)
                value = argv[i + 1]
                i += 1
            if key == "config":
                config_path = value
            else:
                pairs[key] = value
        elif subcommand is None:
            subcommand = tok
        else:
            raise ConfigError(f"unexpected positional argument {tok!r}")
        i += 1
    return subcommand, pairs, config_path


# ------------------------------------------------------------- subcommands

def _echo(subcommand: str, resolved: dict, **replacements) -> dict:
    echo = {"subcommand": subcommand}
    for key, value in resolved.items():
        echo[key] = replacements.get(key, value)
    for key, value in replacements.items():
        if key not in echo:
            echo[key] = value
    return echo


def _run_wigner(resolved: dict):
    potentials = _potential_list_arg(resolved["potential"])
    ens = _ensemble_arg(resolved["ensemble"])
    qs = _parse_range(resolved["grid"], "grid")
    dqs = _parse_range(resolved["deltas"], "deltas")

    echo = _echo("wigner", resolved,
                 potential=[p.to_json() for p in potentials], ensemble=ens.to_json())
    blocks = []
    lines = [f"# phasekit wigner", f"# config: {_compact_json(echo)}"]
    header = "q,delta_q,re(value),im(value),closed_form,residual"
    for pot in potentials:
        rows = []
        if len(potentials) > 1:
            lines.append(f"# potential: {_compact_json(pot.to_json())}")
        lines.append(header)
        for q in qs:
            for dq in dqs:
                quad = wigner.characteristic_quadrature(ens, pot, float(q), float(dq))
                closed = wigner.characteristic_closed_form(ens, pot, float(q), float(dq))
                residual = wigner.pde_residual(ens, pot, float(q), float(dq))
                product = wigner.product_form_characteristic(ens, pot, float(q), float(dq))
                row = {
                    "q": float(q),
                    "delta_q": float(dq),
                    "re_value": quad.value.real,
                    "im_value": quad.value.imag,
                    "closed_form": closed.value.real,
                    "residual": residual,
                    "product_form": product.value.real,
                }
                rows.append(row)
                lines.append(",".join(_csv_cell(row[k]) for k in
                                      ("q", "delta_q", "re_value", "im_value",
                                       "closed_form", "residual")))
        blocks.append({"potential": pot.to_json(), "rows": rows})
    return {"config": echo, "blocks": blocks}, lines


def _run_equilibrium(resolved: dict):
    potential = _potential_arg(resolved["potential"])
    hbar = _parse_float(resolved["hbar"], "hbar")
    k_B = _parse_float(resolved["kB"], "kB")
    window = _parse_interval(resolved["window"], "window")

    echo = _echo("equilibrium", resolved, potential=potential.to_json(),
                 hbar=hbar, kB=k_B)
    reports = []
    # --window is the user's own query, so it is scanned as given, not via the landscape
    for pt in find_equilibria(potential, window):
        if pt.stability is not Stability.MINIMUM:
            continue
        rep = thermo.matching_temperature(potential, pt, hbar=hbar, k_B=k_B)
        reports.append({
            "q0": rep.q0,
            "curvature": rep.curvature,
            "beta_matched": rep.matched_beta,
            "T_matched": rep.matched_temperature,
        })
    lines = ["# phasekit equilibrium", f"# config: {_compact_json(echo)}",
             "q0,curvature,beta_matched,T_matched"]
    for rep in reports:
        lines.append(",".join(_csv_cell(rep[k]) for k in
                              ("q0", "curvature", "beta_matched", "T_matched")))
    return {"config": echo, "reports": reports}, lines


def _run_thermo(resolved: dict):
    potential = _potential_arg(resolved["potential"])
    ens = _ensemble_arg(resolved["ensemble"])
    qs = _parse_range(resolved["grid"], "grid")
    normalization = str(resolved["normalization"])

    echo = _echo("thermo", resolved, potential=potential.to_json(), ensemble=ens.to_json())
    profile = thermo.thermo_profile(potential, ens, qs, normalization=normalization)

    summary = None
    best = potential.landscape.minimum
    if best.stability is Stability.MINIMUM:
        rep = thermo.matching_temperature(potential, best, hbar=ens.hbar, k_B=ens.k_B)
        energy = thermo.equilibrium_energy(potential, best, rep.matched_temperature,
                                           k_B=ens.k_B)
        residuals = thermo.schrodinger_residual(potential, ens, qs, q0=best.q0)
        summary = {
            "q0": rep.q0,
            "beta_matched": rep.matched_beta,
            "T_matched": rep.matched_temperature,
            "E": energy,
            "residual_max": float(np.max(np.abs(residuals))),
        }

    rows = [
        {"q": float(profile.q[i]), "V": float(profile.potential[i]),
         "psi_sq": float(profile.psi_sq[i]), "S": float(profile.entropy[i]),
         "F_G": float(profile.free_energy[i])}
        for i in range(len(profile.q))
    ]
    lines = ["# phasekit thermo", f"# config: {_compact_json(echo)}"]
    if summary is not None:
        lines.append(f"# summary: {_compact_json(summary)}")
    lines.append("q,V,psi_sq,S,F_G")
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in ("q", "V", "psi_sq", "S", "F_G")))
    return {"config": echo, "summary": summary, "rows": rows}, lines


def _run_quantize(resolved: dict):
    potential = _potential_arg(resolved["potential"])
    hbar = _parse_float(resolved["hbar"], "hbar")
    levels = _parse_levels(resolved["levels"], "levels")
    motion = None
    if resolved["class"] == "libration":
        motion = bs.MotionClass(kind=bs.MotionKind.LIBRATION)
    elif resolved["class"] == "rotation":
        if potential.period is None:
            raise ConfigError("rotation quantization needs a periodic potential",
                              field="class")
        motion = bs.MotionClass(kind=bs.MotionKind.ROTATION,
                                period_length=potential.period)

    oracle = None
    if resolved["oracle"] == "on":
        M = _parse_int(resolved["grid-size"], "grid-size")
        periodic = potential.periodic_coordinate
        boundary = "periodic" if periodic else "dirichlet"
        k = 2 * levels[-1] + 1 if periodic else levels[-1] + 1
        box = None
        if resolved["box"] is not None:
            box = _parse_interval(resolved["box"], "box")
        oracle = schrodinger.fd_eigensolve(potential, hbar=hbar, box=box, M=M,
                                           k=max(k, 1), boundary=boundary)

    echo = _echo("quantize", resolved, potential=potential.to_json(), hbar=hbar)
    result = bs.quantize(potential, levels, hbar=hbar, motion=motion, oracle=oracle)
    rows = [
        {"n": lv.n, "E_bs": lv.energy, "E_oracle": lv.oracle_energy,
         "relative_error": lv.relative_error}
        for lv in result.levels
    ]
    columns = ["n", "E_bs", "E_oracle", "relative_error"]
    if resolved["djde"] == "on":
        for row, lv in zip(rows, result.levels):
            row["J"] = lv.action
            row["dJ_dE"] = lv.period
        columns += ["J", "dJ_dE"]
    payload = {"config": echo, "motion": result.motion.kind.value, "levels": rows}
    lines = ["# phasekit quantize", f"# config: {_compact_json(echo)}",
             f"# motion: {result.motion.kind.value}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in columns))
    return payload, lines


def _run_propagate(resolved: dict):
    potential = _potential_arg(resolved["potential"])
    hbar = _parse_float(resolved["hbar"], "hbar")
    q_a = _parse_float(resolved["from"], "from")
    q_b = _parse_float(resolved["to"], "to")
    t = _parse_float(resolved["time"], "time")
    if t <= 0:
        raise ConfigError("'time' must be positive", field="time")
    slice_counts = _parse_slices(resolved["slices"], "slices")
    energy = resolved["energy"]
    if str(energy) != "auto":
        energy = _parse_float(energy, "energy")

    echo = _echo("propagate", resolved, potential=potential.to_json(), hbar=hbar,
                 **{"from": q_a, "to": q_b, "time": t})
    limit = prop.kernel_phase(potential, q_a, q_b, t, E=energy, hbar=hbar,
                              N=max(max(slice_counts), 4096))
    table = []
    for n in slice_counts:
        traj = prop.classical_trajectory(potential, q_a, q_b, t, n)
        ph = prop.sliced_phase(traj, potential, limit.energy, hbar=hbar)
        table.append({"N": n, "sliced_phase": ph.total_phase,
                      "error": abs(ph.total_phase - limit.total_phase)})
    payload = {
        "config": echo,
        "S_cl": limit.S_cl,
        "E": limit.energy,
        "total_phase": limit.total_phase,
        "prefactor_log": limit.prefactor_log,
        "convergence": table,
    }
    lines = ["# phasekit propagate", f"# config: {_compact_json(echo)}",
             f"# S_cl: {_fmt(limit.S_cl)}", f"# E: {_fmt(limit.energy)}",
             f"# total_phase: {_fmt(limit.total_phase)}",
             f"# prefactor_log: {_fmt(limit.prefactor_log)}",
             "N,sliced_phase,error"]
    for row in table:
        lines.append(",".join(_csv_cell(row[k]) for k in ("N", "sliced_phase", "error")))
    return payload, lines


def _run_oracle(resolved: dict):
    potential = _potential_arg(resolved["potential"])
    hbar = _parse_float(resolved["hbar"], "hbar")
    k = _parse_int(resolved["levels"], "levels")
    if k < 1:
        raise ConfigError("'levels' must be >= 1", field="levels")
    boundary = str(resolved["boundary"])
    if boundary == "auto":
        boundary = "periodic" if potential.periodic_coordinate else "dirichlet"
    M = _parse_int(resolved["grid-size"], "grid-size")
    box = None
    if resolved["box"] is not None:
        box = _parse_interval(resolved["box"], "box")
    elif boundary == "periodic" and not potential.periodic_coordinate:
        raise ConfigError("periodic boundary on a line potential needs an explicit box",
                          field="box")

    solution = schrodinger.fd_eigensolve(potential, hbar=hbar, box=box, M=M, k=k,
                                         boundary=boundary)
    echo = _echo("oracle", resolved, potential=potential.to_json(), hbar=hbar,
                 boundary=boundary)
    payload = {
        "config": echo,
        "box": [solution.box[0], solution.box[1]],
        "M": solution.M,
        "boundary": solution.boundary,
        "eigenvalues": [float(e) for e in solution.eigenvalues],
    }
    if resolved["overlap-beta"] is not None:
        beta = _parse_float(resolved["overlap-beta"], "overlap-beta")
        ens = CanonicalEnsemble(beta=beta, hbar=hbar)
        payload["overlap"] = schrodinger.ground_state_overlap(potential, ens, solution)

    lines = ["# phasekit oracle", f"# config: {_compact_json(echo)}",
             f"# box: {_fmt(solution.box[0])}:{_fmt(solution.box[1])}"]
    if "overlap" in payload:
        lines.append(f"# overlap: {_fmt(payload['overlap'])}")
    if resolved["eigenvectors"] == "on":
        payload["eigenvectors"] = [[float(x) for x in solution.eigenvectors[:, j]]
                                   for j in range(solution.eigenvectors.shape[1])]
        lines.append("# eigenvalues: " + ",".join(_fmt(e) for e in solution.eigenvalues))
        lines.append("q," + ",".join(f"psi_{j}" for j in range(k)))
        for i in range(len(solution.grid)):
            lines.append(_fmt(solution.grid[i]) + "," +
                         ",".join(_fmt(solution.eigenvectors[i, j]) for j in range(k)))
    else:
        lines.append("level,E")
        for j, e in enumerate(solution.eigenvalues):
            lines.append(f"{j},{_fmt(e)}")
    return payload, lines


_RUNNERS = {
    "wigner": _run_wigner,
    "equilibrium": _run_equilibrium,
    "thermo": _run_thermo,
    "quantize": _run_quantize,
    "propagate": _run_propagate,
    "oracle": _run_oracle,
}


# -------------------------------------------------------------------- main

def _emit_error(exc: Exception, kind: str) -> None:
    obj = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    field = getattr(exc, "field", None)
    if field is not None:
        obj["error"]["field"] = field
    sys.stderr.write(_to_json(obj) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        subcommand, pairs, config_path = _split_argv(argv)
        config = {}
        if config_path is not None:
            raw = _load_json_arg(config_path, "config")
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object", field="config")
            config = raw
        if subcommand is None:
            subcommand = config.get("subcommand")
        if subcommand is None:
            raise ConfigError(
                "no subcommand given; expected one of " + ", ".join(sorted(_RUNNERS))
            )
        if subcommand not in _RUNNERS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        if "subcommand" in config and config["subcommand"] != subcommand:
            raise ConfigError(
                f"config names subcommand {config['subcommand']!r} but "
                f"{subcommand!r} was requested", field="subcommand",
            )
        resolved = _resolve_options(subcommand, pairs, config)
    except ConfigError as exc:
        _emit_error(exc, "validation")
        return 2

    try:
        payload, csv_lines = _RUNNERS[subcommand](resolved)
    except ConfigError as exc:
        _emit_error(exc, "validation")
        return 2
    except PhasekitError as exc:
        _emit_error(exc, "computation")
        return 1

    if resolved["format"] == "csv":
        text = "\n".join(csv_lines) + "\n"
    else:
        text = _to_json(payload) + "\n"

    out = resolved["out"]
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
