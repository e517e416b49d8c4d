"""Runs one workload in this fresh interpreter and prints one JSON line.

One client, closed loop: each operation is one in-process call of
``phasekit.cli.main`` with an inline ``--config`` JSON, and the next one
starts only when the previous one has returned.  Only the time inside
``main`` is on the clock; generating configs and checking outputs against
the independent reference is not.

The checks run in a child interpreter (``reference.py``), which answers one
op at a time while this one waits.  This interpreter therefore holds only
phasekit and the harness, and its peak memory is the program's own.

Throughput and latency percentiles are computed per cycle; run.py
summarizes them across cycles.

Usage (normally started by run.py, with ``src`` on PYTHONPATH):

    python3 bench/worker.py --workload spectrum --seed 1 --seconds 20
    python3 bench/worker.py --workload spectrum --seed 1 --cycles 2 --trace 1

A traced run writes its spans to ``bench/out/trace-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
#: p90 needs at least ten samples beyond it
MIN_OPS = 100
#: a timed run stops after this much real time even mid-cycle
WALL_CAP_S = 120.0
#: outputs hashed into the digest, so runs of different length compare
DIGEST_OPS = MIN_OPS
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_op(main, config):
    out, err = io.StringIO(), io.StringIO()
    argv = ["--config", json.dumps(config)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crashed run
            rc = f"raised {type(exc).__name__}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def ask(checker, config, rc, out):
    """The reference's verdict on one op: None, or the reason it failed."""
    checker.stdin.write(json.dumps({"config": config, "rc": rc, "out": out}) + "\n")
    checker.stdin.flush()
    reply = checker.stdout.readline()
    if not reply:
        raise RuntimeError(f"reference checker exited with code {checker.wait()}")
    return json.loads(reply)


def p90(latencies):
    return statistics.quantiles(latencies, n=10)[8]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--cycles", type=int, default=0, help="run exactly this many cycles")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    from phasekit import cli, wigner

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        # the wigner normalizer is an lru_cache; its counters give the miss share
        normalizer = getattr(wigner, "_normalizer", None)
        cache_before = normalizer.cache_info() if normalizer else None

    failures, cycles = [], []  # cycles: (busy s, passed ops, latencies) of each whole cycle
    digest = hashlib.sha256()
    attempted = output_bytes = 0
    busy = 0.0
    t0 = time.perf_counter()
    capped = False

    def finished():
        if args.cycles:
            return len(cycles) >= args.cycles
        return capped or (busy >= args.seconds and attempted >= MIN_OPS)

    with subprocess.Popen([sys.executable, str(BENCH / "reference.py")], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, encoding="utf-8") as checker:
        # the checker's scipy import would otherwise share the CPU with the first ops
        if json.loads(checker.stdout.readline() or "null") != "ready":
            raise RuntimeError(f"reference checker exited with code {checker.wait()}")
        while not finished():
            latencies, passed = [], 0
            for op in workloads.cycle_ops(args.workload, args.seed, len(cycles)):
                if tracer is not None:
                    tracer.begin_op(attempted)
                rc, out, elapsed = run_op(cli.main, op["config"])
                latencies.append(elapsed)
                output_bytes += len(out.encode())
                if attempted < DIGEST_OPS:
                    digest.update(f"{rc}\n{out}".encode())
                reason = ask(checker, op["config"], rc, out)
                if reason is None:
                    passed += 1
                else:
                    failures.append({"op": attempted, "slot": op["slot"], "probe": op["probe"],
                                     "reason": reason})
                attempted += 1
                if not args.cycles and time.perf_counter() - t0 > WALL_CAP_S:
                    capped = True
                    break
            busy += sum(latencies)
            if not capped or not cycles:  # a cut cycle counts only if it is the only one
                cycles.append((sum(latencies), passed, latencies))
        checker.stdin.close()

    cycle_p90 = [p90(lat) for _, _, lat in cycles]
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "cycles": len(cycles),
        "busy_s": busy,
        "cycle_ops_per_s": [passed / b for b, passed, _ in cycles],
        "cycle_p50_ms": [1e3 * statistics.median(lat) for _, _, lat in cycles],
        "cycle_p90_ms": [1e3 * x for x in cycle_p90],
        "beyond_p90": sum(x > p for (_, _, lat), p in zip(cycles, cycle_p90) for x in lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "digest": digest.hexdigest(),
        "digest_ops": min(attempted, DIGEST_OPS),
        "output_bytes": output_bytes,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    if tracer is not None:
        hits = misses = 0
        if normalizer:
            after = normalizer.cache_info()
            hits, misses = after.hits - cache_before.hits, after.misses - cache_before.misses
        result["layers"] = tracer.layer_metrics(hits, misses, output_bytes)
        result["spans"] = len(tracer.spans)
        spans = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans, t0)
        result["spans_file"] = str(spans.relative_to(BENCH.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
