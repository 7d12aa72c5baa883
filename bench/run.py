"""relfix benchmark: one workload (or all four) end to end or per layer.

    python3 bench/run.py --workload verify_fixtures --seed 0 --seconds 20 --trace 0

Every workload runs in fresh interpreters (bench/worker.py) whose BLAS and
OpenMP pools are pinned to one thread.  A run first makes one untimed pass
under tracemalloc in its own worker, then starts timing workers until
``--seconds`` have passed since the run began.  ``fbvp_refine_cold`` gets a
fresh worker for every pass, so every pass builds its weights; the other
workloads share the time among five workers, each timing passes back to
back.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``setup_s``: median over workers of the time from starting the
  interpreter to the first timed pass;
- ``pass_s``: one pass over the workload's operations, each taken at its
  fastest in the run (the sum over operations of their min-of-repeats);
- ``peak_rss_mb``: median over timing workers of their peak resident memory;
- ``peak_traced_mb``: the tracemalloc peak of the untimed pass.

With ``--trace 1`` every worker wraps relfix's public names (bench/tracer.py)
and the last line reports the per-layer metrics: medians over the traced
passes, with the two memory peaks taken from a traced untimed pass.  Spans
are written under bench/_out/spans/.  The line before the last one gives the
run's detail: every check, its pass counts and the traced or untraced pass
times.

Outputs of the program go to bench/_out/work/, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS, combine  # noqa: E402

WORKLOADS = ("verify_fixtures", "wdistance_axioms", "fbvp_refine_cold", "fbvp_sweep_warm")
COLD = ("fbvp_refine_cold",)
TIMING_WORKERS = 5
MIN_COLD_WORKERS = 3
# Stop starting workers this long after the run began, so a run ends well
# within three minutes even on a slow machine.
SPAWN_LIMIT_S = 120.0
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("peak_traced_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test only")
    return parser.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_worker(args, mode: str, index: int, deadline: float, max_passes: int,
                 timeout: float) -> tuple[float, dict]:
    """Run one worker to its end; return its start time and its record."""
    workdir = OUT / "work" / f"{args.workload}-{index}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--deadline", repr(deadline), "--max-passes", str(max_passes),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(OUT / "spans" / f"{args.workload}-seed{args.seed}-{mode}{index}.json")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{args.workload} worker exited with status {proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(args) -> tuple[dict, dict]:
    begun = time.monotonic()
    # The untimed memory pass counts against --seconds, so one run takes
    # about --seconds of wall time in all.
    window_end = begun + args.seconds
    memory_start, memory = start_worker(args, "memory", 0, 0.0, 1, 170.0)
    records = [(memory_start, memory)]
    timing = []
    window_start = time.monotonic()
    cold = args.workload in COLD
    index = 1
    last_duration = 0.0
    while True:
        now = time.monotonic()
        if cold:
            more = len(timing) < MIN_COLD_WORKERS or now + last_duration <= window_end
        else:
            more = len(timing) < TIMING_WORKERS
        if not more or (timing and now - begun > SPAWN_LIMIT_S):
            break
        deadline = window_start + (window_end - window_start) * index / TIMING_WORKERS
        started, record = start_worker(
            args, "time", index, deadline, 1 if cold else 1_000_000, 175.0 - (now - begun)
        )
        last_duration = time.monotonic() - started
        timing.append((started, record))
        index += 1
    records += timing

    checks: dict = {}
    expected = set(memory["expected_checks"])
    digests: dict = {}
    for _, rec in records:
        for name, ok in rec["checks"].items():
            checks[name] = checks.get(name, True) and ok
        for label, values in rec["digests"].items():
            digests.setdefault(label, set()).update(values)
    pass_count = sum(len(rec["pass_seconds"]) for _, rec in records)
    if digests:
        checks["reports_byte_identical"] = pass_count >= 2 and all(
            len(v) == 1 for v in digests.values()
        )
        expected.add("reports_byte_identical")
    missing = sorted(expected - set(checks))
    correct = not missing and all(checks.values())

    passes = [s for _, rec in timing for s in rec["pass_seconds"]]
    op_passes = [p for _, rec in timing for p in rec["op_seconds"]]
    # Noise on a shared machine comes in slow phases lasting seconds; one
    # operation needs a quiet window far shorter than a whole pass, so the
    # sum of per-operation minima repeats better than the fastest pass.
    fastest_ops = sum(min(p[label] for p in op_passes) for label in op_passes[0])
    if args.trace:
        memory_layers = memory["layers"][0] if memory["layers"] else {}
        metrics = combine([l for _, rec in timing for l in rec["layers"]], memory_layers)
        units = dict(LAYER_METRICS)
    else:
        metrics = {
            "setup_s": statistics.median(rec["ready"] - start for start, rec in records),
            "pass_s": fastest_ops,
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for _, rec in timing),
            "peak_traced_mb": memory["peak_traced_mb"],
        }
        units = dict(END_TO_END)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": len(records),
        "passes": len(passes),
        "pass_s_min": min(passes),
        "pass_s_median": statistics.median(passes),
        "pass_s_ops": fastest_ops,
        "setup_s_each": [round(rec["ready"] - start, 4) for start, rec in records],
        "checks_passed": sum(checks.values()),
        "checks_failed": sorted(n for n, ok in checks.items() if not ok),
        "checks_missing": missing,
        "checks": sorted(checks),
        "all_passes": [[rec["pass_seconds"], rec["op_seconds"]] for _, rec in timing],
    }
    result = {
        "correct": correct,
        "attempted": sum(rec["attempted"] for _, rec in records),
        "failed": sum(rec["failed"] for _, rec in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "relfix" / "__init__.py").is_file():
        print(f"error: no relfix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            detail, result = run_workload(args)
            print(json.dumps(detail))
            results[name] = result
            if len(names) > 1:
                print(json.dumps(result))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
