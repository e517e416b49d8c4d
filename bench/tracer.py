"""Span tracing of phasekit's layers, installed from outside the package.

``install`` replaces every public function of the layer modules at every
module binding (``find_equilibria`` is bound in five modules) with a wrapper
that records a span: name, start, end, parent span and operation id.  Spans
stay in memory and are written out when the run ends.  Private helpers are
not wrapped, so their time counts toward their caller's self time.

Potential evaluations (V, V', V'') are far too frequent for spans; they are
counted instead, by call and by q value, and attributed to the innermost
open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("potentials", "bohr_sommerfeld", "schrodinger", "wigner", "thermo",
          "propagator", "cli")
_EVAL_METHODS = ("value", "derivative", "second_derivative")


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, op, self seconds, raised)
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []  # open spans as [id, name, time covered by children]
        self._next_id = 0
        self._scans = set()
        self._signatures = {}
        self.eval_calls = self.eval_points = self.force_evals = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._scans = set()

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[2] += end - start
            self.spans.append((span_id, parent[0] if parent else None, name, start, end,
                               self.op, end - start - frame[2], raised))
            self._observe(name, fn, args, kwargs, None if raised else result,
                          raised, parent[1] if parent else None)

    def _bound(self, fn, args, kwargs):
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _observe(self, name, fn, args, kwargs, result, raised, parent):
        """Counts that need a span's arguments or result."""
        c = self.counts
        if name == "potentials.find_equilibria":
            a = self._bound(fn, args, kwargs)
            key = (a["potential"], tuple(float(x) for x in a["interval"]),
                   a["tolerance"], a["subintervals"])
            c["find_equilibria.repeats"] += key in self._scans
            self._scans.add(key)
        elif name == "schrodinger.fd_eigensolve":
            a = self._bound(fn, args, kwargs)
            c["schrodinger.grid_points"] += a["M"]
            c["schrodinger.eigenpairs"] += a["k"]
            c["schrodinger.eigvec_bytes_computed"] += 8 * a["M"] * a["k"]
        elif name == "propagator.classical_trajectory":
            c["propagator.slices"] += self._bound(fn, args, kwargs)["N"]
        elif name == "bohr_sommerfeld.quantize" and not raised:
            c["bohr_sommerfeld.levels"] += len(result.levels)
        elif name == "bohr_sommerfeld.action":
            c["action.raised"] += raised
            c["action.in_quantize"] += parent == "bohr_sommerfeld.quantize"

    def count_eval(self, q, is_force):
        # plain attributes: the RK4 loop makes millions of these calls
        self.eval_calls += 1
        if type(q) is float:
            self.eval_points += 1
        else:
            size = getattr(q, "size", None)
            self.eval_points += size if size is not None else len(q)
        if is_force and self._stack and self._stack[-1][1].startswith("propagator."):
            self.force_evals += 1

    def write_spans(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, op, _, raised in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0, "op": op,
                                     "raised": raised}) + "\n")

    def layer_metrics(self, normalizer_hits: int, normalizer_misses: int,
                      output_bytes: int) -> dict:
        """Per-layer numbers named as in BENCHMARK.json; absent spans read as 0."""
        calls, self_s = Counter(), defaultdict(float)
        for _, _, name, _, _, _, own, _ in self.spans:
            calls[name] += 1
            self_s[name] += own
        c = self.counts
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        scans = calls["potentials.find_equilibria"]
        actions = calls["bohr_sommerfeld.action"]
        levels = c["bohr_sommerfeld.levels"]
        slices = c["propagator.slices"]
        lookups = normalizer_hits + normalizer_misses
        out.update({
            "potentials.find_equilibria.repeat_frac": _ratio(c["find_equilibria.repeats"], scans),
            "potentials.eval.calls": self.eval_calls,
            "potentials.eval.points": self.eval_points,
            "potentials.eval.points_per_call": _ratio(self.eval_points, self.eval_calls),
            "bohr_sommerfeld.levels": levels,
            "bohr_sommerfeld.action.per_level": _ratio(c["action.in_quantize"], levels),
            "bohr_sommerfeld.action.fail_frac": _ratio(c["action.raised"], actions),
            "schrodinger.grid_points": c["schrodinger.grid_points"],
            "schrodinger.eigenpairs": c["schrodinger.eigenpairs"],
            "schrodinger.eigvec_bytes_computed": c["schrodinger.eigvec_bytes_computed"],
            "propagator.slices": slices,
            "propagator.force_evals_per_slice": _ratio(self.force_evals, slices),
            "wigner.normalizer_miss_frac": _ratio(normalizer_misses, lookups),
            "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
            "cli.output_bytes": output_bytes,
        })
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _eval_wrapper(tracer, method, fn):
    is_force = method == "derivative"

    @functools.wraps(fn)
    def wrapper(self, q):
        tracer.count_eval(q, is_force)
        return fn(self, q)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions and potential evaluations of phasekit."""
    modules = {name: importlib.import_module(f"phasekit.{name}") for name in LAYERS}
    wrappers = {}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if home not in modules:
                continue  # e.g. ensemble_from_json: not a measured layer
            if obj not in wrappers:
                wrappers[obj] = _span_wrapper(tracer, f"{home}.{obj.__name__}", obj)
            setattr(module, attr, wrappers[obj])

    potentials = modules["potentials"]
    for obj in vars(potentials).values():
        if inspect.isclass(obj) and issubclass(obj, potentials.Potential):
            for method in _EVAL_METHODS:
                fn = obj.__dict__.get(method)
                if fn is not None:
                    setattr(obj, method, _eval_wrapper(tracer, method, fn))
