"""Command-line entry point.

Every subcommand resolves its options from defaults, then an optional JSON
config file (--config), then explicit flags, rejecting unknown keys at each
layer, and parses each option once into a typed value.  Output is
deterministic: stable key order, floats printed with 17 significant digits,
and the fully-resolved configuration echoed in every artifact so a run can be
reproduced from its own output.  A runner builds each table once and returns
its JSON body and its CSV sections around it; one emitter renders either format.

Exit codes: 0 success, 1 computation error, 2 validation error.  Errors are
emitted as a JSON object on stderr.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from . import bohr_sommerfeld as bs
from . import propagator as prop
from . import schrodinger, thermo, wigner
from .ensemble import CanonicalEnsemble, ensemble_from_json
from .errors import ConfigError, PhasekitError
from .potentials import Stability, find_equilibria, potential_from_json


# ---------------------------------------------------------------- formatting

def _fmt(x: float) -> str:
    return "%.17g" % (float(x) + 0.0)  # adding 0.0 turns -0.0 into 0.0


def _cell(value) -> str:
    """A scalar as one CSV cell, or as the value of a ``# key: value`` line: its JSON
    text, except that None is empty and a string is not quoted."""
    return "" if value is None else str(value) if isinstance(value, str) else _json(value)


@dataclass(frozen=True)
class Table:
    """Rows of scalar cells: in JSON a list of objects with ``keys`` (of one-line
    lists when ``keys`` is None), in CSV the ``header`` (default: the keys) and rows."""
    keys: tuple | None
    rows: list
    header: tuple | None = None


def _rows(rows: list, cell: Callable, keys, sep: str, open_: str, close: str) -> list[str]:
    """Each row as ``open_``, its cells (each after its key) joined by ``sep``, ``close``:
    one % on a template where an all-float column has a %.17g slot (-0.0 canonicalized
    by adding 0.0) and any other column is rendered cell by cell."""
    slots, columns = [], []
    for column in zip(*rows):
        if set(map(type, column)) == {float}:
            slots.append("%.17g")
            columns.append([x + 0.0 for x in column])
        else:
            slots.append("%s")
            columns.append(list(map(cell, column)))
    template = open_ + sep.join(k.replace("%", "%%") + s for k, s in zip(keys, slots)) + close
    return [template % row for row in zip(*columns)]


def _json(value, indent: int | None = None) -> str:
    """JSON text on one line, or, given an ``indent`` level, one entry per line.

    Lists of scalars stay on one line in either form.
    """
    deeper = None if indent is None else indent + 1
    if isinstance(value, Table):  # only in an indented body
        brackets = "[]"
        if value.keys is None:
            items = _rows(value.rows, _json, repeat(""), ", ", "[", "]")
        else:
            lead = "\n" + "  " * deeper + "  "
            items = _rows(value.rows, _json, [json.dumps(k) + ": " for k in value.keys],
                          "," + lead, "{" + lead, lead[:-2] + "}")
    elif isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(str(k))}: {_json(v, deeper)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_json(v, deeper) for v in value]
        if not any(isinstance(v, (dict, list, tuple)) for v in value):
            indent = None
    elif isinstance(value, float):
        return _fmt(value)
    else:
        return json.dumps(value)
    if indent is None or not items:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "  " * indent
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def _comment(value) -> str:
    """A dict as JSON, a tuple in the lo:hi interval syntax, a list as cells."""
    if isinstance(value, dict):
        return _json(value)
    if isinstance(value, tuple):
        return ":".join(map(_cell, value))
    if isinstance(value, list):
        return ",".join(map(_cell, value))
    return _cell(value)


def _emit(subcommand: str, echo: dict, body: dict, sections: list, fmt: str) -> str:
    """The artifact: ``{"config": echo, **body}`` as JSON, or the CSV sections.

    A section is (comments, table); comments with a None value are left out of
    the CSV.  The body holds the same tables.
    """
    if fmt == "json":
        return _json({"config": echo, **body}, indent=0) + "\n"
    lines = [f"# phasekit {subcommand}", f"# config: {_json(echo)}"]
    for comments, table in sections:
        lines += [f"# {k}: {_comment(v)}" for k, v in comments.items() if v is not None]
        lines.append(",".join(table.header or table.keys))
        lines += _rows(table.rows, _cell, repeat(""), ",", "", "")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- parsing

def _parse_float(text, field: str) -> float:
    try:
        if isinstance(text, bool):  # JSON true is not the number 1
            raise TypeError
        value = float(text)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected a number for {field!r}, got {text!r}", field=field)
    if not math.isfinite(value):
        raise ConfigError(f"{field!r} must be finite, got {text!r}", field=field)
    return value


def _parse_positive(text, field: str) -> float:
    value = _parse_float(text, field)
    if value <= 0:
        raise ConfigError(f"{field!r} must be positive", field=field)
    return value


def _parse_int(text, field: str, low: int | None = None) -> int:
    try:
        value = int(text)
        if isinstance(text, bool) or value != float(text):  # no silent truncation of 2.9
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected an integer for {field!r}, got {text!r}", field=field)
    if low is not None and value < low:
        raise ConfigError(f"{field!r} must be >= {low}", field=field)
    return value


def _parse_span(parts, field: str) -> tuple[float, float]:
    """Two finite numbers whose difference is finite too."""
    lo, hi = _parse_float(parts[0], field), _parse_float(parts[1], field)
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{field!r} spans more than the float range", field=field)
    return lo, hi


def _parse_range(text, field: str) -> np.ndarray:
    """start:stop:count inclusive grid."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{field!r} must look like start:stop:count", field=field)
    return np.linspace(*_parse_span(parts, field), _parse_int(parts[2], field, low=1))


def _parse_interval(text, field: str) -> tuple[float, float]:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ConfigError(f"{field!r} must look like lo:hi", field=field)
    lo, hi = _parse_span(parts, field)
    if not lo < hi:
        raise ConfigError(f"{field!r} needs lo < hi", field=field)
    return lo, hi


def _parse_levels(text, field: str) -> list[int]:
    """n0..n1 inclusive."""
    parts = str(text).split("..")
    if len(parts) != 2:
        raise ConfigError(f"{field!r} must look like n0..n1", field=field)
    n0 = _parse_int(parts[0], field, low=0)
    return list(range(n0, _parse_int(parts[1], field, low=n0) + 1))


def _parse_slices(text, field: str) -> list[int]:
    return [_parse_int(tok, field, low=1) for tok in str(text).split(",")]


def _parse_energy(text, field: str):
    return "auto" if str(text) == "auto" else _parse_float(text, field)


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


def _parse_potentials(value, field: str) -> list:
    """One potential object or a list of them."""
    obj = _load_json_arg(value, field)
    try:
        return [potential_from_json(e) for e in (obj if isinstance(obj, list) else [obj])]
    except ValueError as exc:
        raise ConfigError(str(exc), field=field)


def _parse_potential(value, field: str):
    obj = _load_json_arg(value, field)
    if isinstance(obj, list):
        raise ConfigError(f"{field!r} must be a single potential object", field=field)
    return _parse_potentials(obj, field)[0]


def _parse_ensemble(value, field: str) -> CanonicalEnsemble:
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
    #: (value, field) -> typed value; None keeps the value as given
    parse: Callable | None = None


#: options written in a compact text syntax are echoed as written, the rest as parsed
_ECHO_AS_WRITTEN = (_parse_range, _parse_interval, _parse_levels, _parse_slices)

_GRID_SIZE = partial(_parse_int, low=64)  # the smallest grid fd_eigensolve accepts

GLOBAL_OPTIONS = (
    Option("format", default="json", choices=("json", "csv")),
    Option("out", default=None),
)

#: each subcommand's options in echo order, the global ones included
SCHEMAS: dict[str, tuple[Option, ...]] = {
    "wigner": (
        Option("potential", required=True, parse=_parse_potentials),
        Option("ensemble", required=True, parse=_parse_ensemble),
        Option("grid", required=True, parse=_parse_range),
        Option("deltas", required=True, parse=_parse_range),
        *GLOBAL_OPTIONS,
    ),
    "equilibrium": (
        Option("potential", required=True, parse=_parse_potential),
        Option("hbar", default=1.0, parse=_parse_positive),
        Option("kB", default=1.0, parse=_parse_positive),
        Option("window", default="-10:10", parse=_parse_interval),
        *GLOBAL_OPTIONS,
    ),
    "thermo": (
        Option("potential", required=True, parse=_parse_potential),
        Option("ensemble", required=True, parse=_parse_ensemble),
        Option("grid", required=True, parse=_parse_range),
        *GLOBAL_OPTIONS,
        # after the global options, where earlier artifacts echoed it
        Option("normalization", default="paper", choices=("paper", "normalized")),
    ),
    "quantize": (
        Option("potential", required=True, parse=_parse_potential),
        Option("hbar", default=1.0, parse=_parse_positive),
        Option("class", default="auto", choices=("auto", "libration", "rotation")),
        Option("levels", required=True, parse=_parse_levels),
        Option("oracle", default="off", choices=("on", "off")),
        Option("djde", default="off", choices=("on", "off")),
        Option("box", default=None, parse=_parse_interval),
        Option("grid-size", default=16384, parse=_GRID_SIZE),
        *GLOBAL_OPTIONS,
    ),
    "propagate": (
        Option("potential", required=True, parse=_parse_potential),
        Option("hbar", default=1.0, parse=_parse_positive),
        Option("from", required=True, parse=_parse_float),
        Option("to", required=True, parse=_parse_float),
        Option("time", required=True, parse=_parse_positive),
        Option("slices", default="4096", parse=_parse_slices),
        Option("energy", default="auto", parse=_parse_energy),
        *GLOBAL_OPTIONS,
    ),
    "oracle": (
        Option("potential", required=True, parse=_parse_potential),
        Option("hbar", default=1.0, parse=_parse_positive),
        Option("levels", default=4, parse=partial(_parse_int, low=1)),
        Option("boundary", default="auto", choices=("auto", "dirichlet", "periodic")),
        Option("box", default=None, parse=_parse_interval),
        Option("grid-size", default=4096, parse=_GRID_SIZE),
        Option("eigenvectors", default="off", choices=("on", "off")),
        Option("overlap-beta", default=None, parse=_parse_positive),
        *GLOBAL_OPTIONS,
    ),
}


def _resolve_options(subcommand: str, cli_pairs: dict, config: dict) -> tuple[dict, dict]:
    """(options as written, options as parsed) from defaults, config, then flags."""
    schema = {opt.name: opt for opt in SCHEMAS[subcommand]}
    written = {name: opt.default for name, opt in schema.items()}

    for source_name, source in (("config", config), ("flag", cli_pairs)):
        for key, value in source.items():
            if key == "subcommand" and source_name == "config":
                continue
            if key not in schema:
                raise ConfigError(f"unknown {source_name} {key!r} for subcommand "
                                  f"{subcommand!r}", field=key)
            written[key] = value

    parsed = {}
    for name, opt in schema.items():
        value = written[name]
        if opt.required and value is None:
            raise ConfigError(f"missing required option {name!r}", field=name)
        if opt.choices and value is not None and str(value) not in opt.choices:
            raise ConfigError(f"{name!r} must be one of {', '.join(opt.choices)}", field=name)
        parsed[name] = value if value is None or opt.parse is None else opt.parse(value, name)
    return written, parsed


def _config_echo(subcommand: str, written: dict, parsed: dict) -> dict:
    """The resolved configuration, in a form that reproduces the run."""
    echo = {"subcommand": subcommand}
    for opt in SCHEMAS[subcommand]:
        value = parsed[opt.name]
        if opt.parse in _ECHO_AS_WRITTEN:
            value = written[opt.name]
        elif isinstance(value, list):  # wigner's potentials
            value = [v.to_json() for v in value]
        elif hasattr(value, "to_json"):
            value = value.to_json()
        echo[opt.name] = value
    return echo


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
#
# A runner takes the parsed options and returns (JSON body, CSV sections).

def _run_wigner(opts: dict):
    potentials, ens = opts["potential"], opts["ensemble"]
    columns = ("q", "delta_q", "re_value", "im_value", "closed_form", "residual",
               "product_form")
    header = ("q", "delta_q", "re(value)", "im(value)", "closed_form", "residual",
              "product_form")
    grid, deltas = opts["grid"][:, None], opts["deltas"][None, :]
    blocks, sections = [], []
    for pot in potentials:
        quad = wigner.characteristic_quadrature(ens, pot, grid, deltas)
        values = np.broadcast_arrays(
            grid, deltas, quad.real, quad.imag,
            wigner.characteristic_closed_form(ens, pot, grid, deltas),
            wigner.pde_residual(ens, pot, grid, deltas),
            wigner.product_form_characteristic(ens, pot, grid, deltas))
        table = Table(columns, np.column_stack([v.ravel() for v in values]).tolist(), header)
        blocks.append({"potential": pot.to_json(), "rows": table})
        sections.append(({"potential": pot.to_json() if len(potentials) > 1 else None}, table))
    return {"blocks": blocks}, sections


def _run_equilibrium(opts: dict):
    potential = opts["potential"]
    rows = []
    # --window is the user's own query, so it is scanned as given, not via the landscape
    for pt in find_equilibria(potential, opts["window"]):
        if pt.stability is not Stability.MINIMUM:
            continue
        rep = thermo.matching_temperature(potential, pt, hbar=opts["hbar"], k_B=opts["kB"])
        rows.append((rep.q0, rep.curvature, rep.matched_beta, rep.matched_temperature))
    table = Table(("q0", "curvature", "beta_matched", "T_matched"), rows)
    return {"reports": table}, [({}, table)]


def _run_thermo(opts: dict):
    potential, ens, qs = opts["potential"], opts["ensemble"], opts["grid"]
    profile = thermo.thermo_profile(potential, ens, qs, normalization=opts["normalization"])

    summary = None
    best = potential.landscape.minimum
    if best.stability is Stability.MINIMUM:
        rep = thermo.matching_temperature(potential, best, hbar=ens.hbar, k_B=ens.k_B)
        energy = thermo.equilibrium_energy(potential, best, rep.matched_temperature,
                                           k_B=ens.k_B)
        residuals = thermo.schrodinger_residual(potential, ens, qs)
        summary = {"q0": rep.q0, "beta_matched": rep.matched_beta,
                   "T_matched": rep.matched_temperature, "E": energy,
                   "residual_max": float(np.max(np.abs(residuals)))}

    table = Table(("q", "V", "psi_sq", "S", "F_G"), np.column_stack(
        [profile.q, profile.potential, profile.psi_sq, profile.entropy, profile.free_energy]
    ).tolist())
    return {"summary": summary, "rows": table}, [({"summary": summary}, table)]


def _run_quantize(opts: dict):
    potential, hbar, levels = opts["potential"], opts["hbar"], opts["levels"]
    motion = None if opts["class"] == "auto" else bs.MotionKind(opts["class"])
    if motion is bs.MotionKind.ROTATION and potential.period is None:
        raise ConfigError("rotation quantization needs a periodic potential", field="class")

    oracle = None
    if opts["oracle"] == "on":
        periodic = potential.periodic_coordinate
        # levels pair with states by well (bs._oracle_level): levels[-1] + 1 per well
        wells = 1 if potential.period is not None else max(1, sum(
            pt.stability is not Stability.MAXIMUM for pt in potential.landscape.equilibria))
        k = 2 * levels[-1] + 1 if periodic else wells * (levels[-1] + 1)
        _check_level_count(k, opts["grid-size"])
        oracle = schrodinger.fd_eigensolve(potential, hbar=hbar, box=opts["box"],
                                           M=opts["grid-size"], k=k,
                                           boundary="periodic" if periodic else "dirichlet")

    result = bs.quantize(potential, levels, hbar=hbar, motion=motion, oracle=oracle)
    djde = opts["djde"] == "on"  # adds the J and dJ_dE columns
    table = Table(("n", "E_bs", "E_oracle", "relative_error") + ("J", "dJ_dE") * djde,
                  [(lv.n, lv.energy, lv.oracle_energy, lv.relative_error)
                   + (lv.action, lv.period) * djde for lv in result.levels])
    motion_kind = result.motion.value
    return {"motion": motion_kind, "levels": table}, [({"motion": motion_kind}, table)]


def _run_propagate(opts: dict):
    potential, hbar, slice_counts = opts["potential"], opts["hbar"], opts["slices"]
    q_a, q_b, t = opts["from"], opts["to"], opts["time"]
    limit = prop.kernel_phase(potential, q_a, q_b, t, E=opts["energy"], hbar=hbar,
                              N=max(max(slice_counts), 4096))
    rows = []
    for n in slice_counts:
        # seeded on the limit's branch, a slice count's shooting starts converged
        traj = prop.classical_trajectory(potential, q_a, q_b, t, n, v_start=limit.v0)
        ph = prop.sliced_phase(traj, potential, limit.energy, hbar=hbar)
        rows.append((n, ph.total_phase, abs(ph.total_phase - limit.total_phase)))
    summary = {"S_cl": limit.S_cl, "E": limit.energy, "total_phase": limit.total_phase,
               "prefactor_log": limit.prefactor_log}
    table = Table(("N", "sliced_phase", "error"), rows)
    return {**summary, "convergence": table}, [(summary, table)]


def _check_level_count(k: int, M: int) -> None:
    if k > M - 2:  # fd_eigensolve finds at most M - 2 levels
        raise ConfigError(f"{k} levels need 'grid-size' >= {k + 2}", field="levels")


def _run_oracle(opts: dict):
    potential, hbar, k, box = opts["potential"], opts["hbar"], opts["levels"], opts["box"]
    if opts["boundary"] == "auto":
        # the echo shows the boundary the solve used
        opts["boundary"] = "periodic" if potential.periodic_coordinate else "dirichlet"
    if box is None and opts["boundary"] == "periodic" and not potential.periodic_coordinate:
        raise ConfigError("periodic boundary on a line potential needs an explicit box",
                          field="box")

    _check_level_count(k, opts["grid-size"])
    solution = schrodinger.fd_eigensolve(potential, hbar=hbar, box=box,
                                         M=opts["grid-size"], k=k,
                                         boundary=opts["boundary"])
    eigenvalues = [float(e) for e in solution.eigenvalues]
    body = {"box": [solution.box[0], solution.box[1]], "M": solution.M,
            "boundary": solution.boundary, "eigenvalues": eigenvalues}
    comments = {"box": (solution.box[0], solution.box[1])}
    if opts["overlap-beta"] is not None:
        ens = CanonicalEnsemble(beta=opts["overlap-beta"], hbar=hbar)
        body["overlap"] = comments["overlap"] = schrodinger.ground_state_overlap(
            potential, ens, solution)

    if opts["eigenvectors"] == "on":
        vectors = solution.eigenvectors
        body["eigenvectors"] = Table(None, vectors.T.tolist())
        comments["eigenvalues"] = eigenvalues
        table = Table(("q", *(f"psi_{j}" for j in range(k))),
                      np.column_stack([solution.grid, vectors[:, :k]]).tolist())
    else:
        table = Table(("level", "E"), list(enumerate(eigenvalues)))
    return body, [(comments, table)]


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
    sys.stderr.write(_json(obj, indent=0) + "\n")


def _subcommand_and_options(argv: list[str]) -> tuple[str, dict, dict]:
    subcommand, pairs, config_path = _split_argv(argv)
    config = {}
    if config_path is not None:
        config = _load_json_arg(config_path, "config")
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object", field="config")
    if subcommand is None:
        subcommand = config.get("subcommand")
    if subcommand is None:
        raise ConfigError("no subcommand given; expected one of " + ", ".join(sorted(_RUNNERS)))
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if "subcommand" in config and config["subcommand"] != subcommand:
        raise ConfigError(f"config names subcommand {config['subcommand']!r} but "
                          f"{subcommand!r} was requested", field="subcommand")
    return (subcommand, *_resolve_options(subcommand, pairs, config))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        subcommand, written, opts = _subcommand_and_options(argv)
        body, sections = _RUNNERS[subcommand](opts)
        text = _emit(subcommand, _config_echo(subcommand, written, opts), body, sections,
                     opts["format"])
        if opts["out"] is None:
            sys.stdout.write(text)
        else:
            try:
                with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write 'out': {exc}", field="out")
    except ConfigError as exc:
        _emit_error(exc, "validation")
        return 2
    except (PhasekitError, ArithmeticError) as exc:  # a family formula may overflow
        _emit_error(exc, "computation")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
