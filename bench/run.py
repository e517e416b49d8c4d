"""phasekit benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from its
``src`` directory, never from an installed copy.

``--trace 0`` starts one fresh interpreter that runs the workload for at
least ``--seconds`` of operation time (whole cycles, at least 100 ops so
that ten samples lie beyond p90).  Throughput and latency percentiles are
taken per cycle and summarized across cycles (see ``ACROSS_CYCLES``).  Fresh
interpreters importing ``phasekit.cli``, timed before and after the
workload, give ``setup_s``.  It prints every end-to-end metric of
BENCHMARK.json.

``--trace 1`` runs a fixed number of cycles twice, each in a fresh
interpreter: once with every layer wrapped in spans and once without.  It
prints every per-layer metric of BENCHMARK.json, including the tracing
overhead, and writes the spans to ``bench/out/``.  With a fixed op set, the
counts repeat exactly for a given seed.

Every op is checked against an independent reference (reference.py).
Failures are counted in ``failed``; ``correct`` is false when any op fails
other than a probe of a known defect (see workloads.py).

The last line of standard output is the result object; the lines before it
are a readable summary and an ``info`` record (host, versions, thread
settings, source size, output digest).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: setup children timed before and after the workload
SETUP_SAMPLES = (1, 2)
#: cycles of a traced run: ten to twenty seconds of operations each at the seed
TRACE_CYCLES = {"spectrum": 2, "phase_space": 30, "solvers": 4}
#: the whole run, children included, ends within this many seconds
RUN_BUDGET_S = 170.0
#: one client on one core: BLAS and OpenMP pinned to a single thread
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child interpreter to completion.

    The child leads its own process group.  On timeout, or when this run is
    stopped, the whole group (the child and the checker it started) is
    killed and the child reaped.
    """
    with subprocess.Popen([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"child {argv[:2]} overran the run budget") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited {proc.returncode}: {err[-2000:]}")
    return out


def run_worker(args, deadline, extra) -> dict:
    out = run_child([str(BENCH / "worker.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     *extra], deadline)
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(deadline, count: int) -> list[float]:
    """Wall time of fresh interpreters that import phasekit.cli and exit."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        run_child(["-c", "import phasekit.cli"], deadline)
        samples.append(time.perf_counter() - start)
    return samples


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu_model": model, "nproc": os.cpu_count(), "src_lines": src_lines}


def declared_metrics(group: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[group]


def expected_failures(worker: dict) -> bool:
    return all(f["probe"] is not None for f in worker["failures"])


def probe_summary(worker: dict) -> dict:
    counts: dict = {}
    for f in worker["failures"]:
        key = f["probe"] or "unexpected"
        counts[key] = counts.get(key, 0) + 1
    return counts


#: How a run summarizes its per-cycle values.  Every cycle runs the same
#: shapes, so cycles differ only by their drawn parameters and by the host,
#: whose slow phases last 10 to 40 s and only ever add time.  A phase_space
#: cycle lasts about 0.4 s and sees a single phase; the quartile on the fast
#: side skips the slow ones.  Spectrum and solvers cycles last 2 to 10 s and
#: already average over phases; with 5 to 16 of them the median is steadier
#: than a quartile, which would follow the cheapest draws.
ACROSS_CYCLES = {"spectrum": "median", "phase_space": "fast quartile", "solvers": "median"}


def across_cycles(workload: str, per_cycle: list[float], better: str) -> float:
    if ACROSS_CYCLES[workload] == "median":
        return statistics.median(per_cycle)
    q1, _, q3 = statistics.quantiles(per_cycle, n=4)
    return q3 if better == "higher" else q1


def end_to_end(args, deadline):
    before, after = SETUP_SAMPLES
    setup = setup_seconds(deadline, before)
    worker = run_worker(args, deadline, ["--trace", "0"])
    setup += setup_seconds(deadline, after)
    attempted, failed, cycles = worker["attempted"], worker["failed"], worker["cycles"]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": across_cycles(args.workload, worker["cycle_ops_per_s"], "higher"),
        "op_p50_ms": across_cycles(args.workload, worker["cycle_p50_ms"], "lower"),
        "op_p90_ms": across_cycles(args.workload, worker["cycle_p90_ms"], "lower"),
        "fail_frac": failed / attempted,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    per_cycle = f"{ACROSS_CYCLES[args.workload]} of {cycles} cycles"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"passed ops / s in cli.main, {per_cycle}; "
                     f"{attempted - failed} passed in {worker['busy_s']:.3f} s",
        "op_p50_ms": f"{per_cycle}; {attempted} samples",
        "op_p90_ms": f"{per_cycle}; {attempted} samples, "
                     f"{worker['beyond_p90']} beyond their cycle's p90",
        "fail_frac": f"{failed} of {attempted} failed",
        "peak_rss_mb": "ru_maxrss of the workload interpreter (checks run in another)",
    }
    extra = {"setup_samples_s": setup, "op_samples": attempted, "cycles": cycles}
    return worker, values, notes, extra


def per_layer(args, deadline):
    cycles = ["--cycles", str(TRACE_CYCLES[args.workload])]
    traced = run_worker(args, deadline, [*cycles, "--trace", "1"])
    plain = run_worker(args, deadline, [*cycles, "--trace", "0"])
    if traced["digest"] != plain["digest"]:
        raise BenchError("traced and untraced runs produced different outputs")
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1.0
    notes = {"trace.overhead_frac": f"traced {traced['busy_s']:.3f} s / "
                                    f"untraced {plain['busy_s']:.3f} s - 1"}
    extra = {"op_samples": traced["attempted"], "cycles": traced["cycles"],
             "spans_file": traced["spans_file"], "spans": traced["spans"]}
    return traced, values, notes, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ACROSS_CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    # a stopped run still stops its children (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "phasekit" / "cli.py").is_file():
        print(f"error: no phasekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            worker, values, notes, extra = per_layer(args, deadline)
            group = "per_layer"
        else:
            worker, values, notes, extra = end_to_end(args, deadline)
            group = "end_to_end"
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{worker['attempted']} ops in {extra['cycles']} cycles, {worker['failed']} failed "
          f"{probe_summary(worker)}")
    for spec in declared_metrics(group):
        value = values.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = notes.get(spec["name"], "")
        print(f"  {spec['name']:44s} {value:>16.6g} {spec['unit']:12s} {note}")
    for f in worker["failures"]:
        if f["probe"] is None:
            print(f"  unexpected failure, op {f['op']} ({f['slot']}): {f['reason']}")
    info = {**host_info(), **{k: worker[k] for k in ("python", "numpy", "scipy", "blas_threads",
                                                     "digest", "digest_ops", "output_bytes")},
            **extra}
    print("info " + json.dumps(info))
    print(json.dumps({"correct": expected_failures(worker), "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
