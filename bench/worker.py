"""One benchmark worker: a fresh interpreter that sets a workload up, runs
passes over its operations, checks every output and prints one JSON line.

Started by run.py; not meant to be run by hand.  Modes:

- ``time``: passes timed back to back, ``gc.collect()`` before each; stops
  at ``--deadline`` (a ``time.monotonic`` reading, which is system-wide on
  Linux) or after ``--max-passes``, after at least one pass.
- ``memory``: one pass under ``tracemalloc``, not timed.

With ``--trace 1`` the tracer wraps relfix's public names before set-up;
each pass then reports every layer metric, and the spans are written to
``--spans`` when the worker ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("time", "memory"), required=True)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--max-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    return parser.parse_args(argv)


def run_pass(workload, checks: dict, tracer, trace_memory: bool) -> dict:
    """One pass over the workload's operations.  Only the program calls are
    timed; checks run between them."""
    elapsed = 0.0
    op_seconds = {}
    failed = 0
    peak = 0
    for label, op in workload.ops:
        if tracer is not None:
            tracer.begin_op(label)
        if trace_memory:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            result = op()
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        finally:
            op_seconds[label] = time.perf_counter() - start
            elapsed += op_seconds[label]
            if trace_memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            if tracer is not None:
                tracer.end_op()
        try:
            outcome = workload.check(label, result)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            traceback.print_exc()
            outcome = {f"{label}.outputs_readable": False}
        for name, ok in outcome.items():
            checks[name] = checks.get(name, True) and bool(ok)
    return {"seconds": elapsed, "op_seconds": op_seconds, "failed": failed, "peak_bytes": peak}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import relfix

    if Path(relfix.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported relfix from {relfix.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(measure_memory=args.mode == "memory")
        tracer.install()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    ready = time.monotonic()

    checks: dict = {}
    passes = []
    layers = []
    failed = 0
    ops = 0
    trace_memory = args.mode == "memory" and not args.trace
    max_passes = 1 if args.mode == "memory" else args.max_passes
    while True:
        gc.collect()
        if tracer is not None:
            tracer.phase = len(passes)
        if trace_memory:
            tracemalloc.start()
        wall = time.monotonic()
        result = run_pass(workload, checks, tracer, trace_memory)
        wall = time.monotonic() - wall
        if trace_memory:
            tracemalloc.stop()
        passes.append(result)
        failed += result["failed"]
        ops += len(workload.ops)
        if tracer is not None:
            layers.append(tracer.metrics(len(passes) - 1))
        if len(passes) >= max_passes:
            break
        if time.monotonic() + wall > args.deadline:
            break

    if tracer is not None and args.spans is not None:
        tracer.dump(args.spans)
    record = {
        "ready": ready,
        "pass_seconds": [p["seconds"] for p in passes],
        "op_seconds": [p["op_seconds"] for p in passes],
        "peak_traced_mb": max(p["peak_bytes"] for p in passes) / (1024.0 * 1024.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops,
        "failed": failed,
        "checks": checks,
        "expected_checks": list(workload.check_names),
        "digests": {k: sorted(v) for k, v in getattr(workload, "digests", {}).items()},
        "layers": layers,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
