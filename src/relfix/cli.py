"""Batch front end: fixture verification suites and boundary-value solves.

Only this module writes files.  A run writes ``report.json`` first (keys
sorted, no timestamps, so reruns with identical configuration are
byte-identical), then its tables: ``solution.csv`` for a solve, and
``orbit.csv`` for a run that iterated.  Exit status 0 means every asserted
check in the report passed; advisories are recorded but never affect status.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .engine import OrbitTrace, UniquenessVerdict, certify_cauchy, iterate, probe_uniqueness
from .errors import ConfigError, DivergenceError, EstimationError, PreconditionError, RelfixError
from .errors import SamplingError, check_count, check_real
from .fixtures import FIXTURES, F_REGISTRY, Fixture
from .fractional import FbvpProblem, OperatorVariant, solve_fbvp
from .relations import (
    check_complete_on,
    check_t_closed,
    check_weak_t_closed,
    find_start_points,
    universal_relation,
)
from .spaces import Grid, ScalarPoint, ScalarSample, point_distance, sample_space, scalar
from .verify import _sample_estimates, compare_classical, related_pairs, verify_theorem
from .wdistance import WDistance, check_rlsc, check_triangle, check_w3

__all__ = ["main", "console"]

STATUS_OK = 0
STATUS_USAGE = 2
STATUS_CHECK_FAILED = 3

REPORT_NAME = "report.json"
ORBIT_NAME = "orbit.csv"
SOLUTION_NAME = "solution.csv"

# Most points the cubic triangle and separation checks run on.
AXIOM_SAMPLE_LIMIT = 50

# Rows formatted and written at a time by ``_write_table``, so that a long
# table is never held whole as one string.
CSV_BLOCK_ROWS = 256


def _read_text(path: Path, missing: str) -> str:
    """The UTF-8 text of ``path``; ``ConfigError`` with the message
    ``missing`` when there is no such file, and when it is not UTF-8."""
    if not path.exists():
        raise ConfigError(missing)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _write_file(path: Path, chunks) -> None:
    """Write the text ``chunks`` over the bytes ``path`` holds, then cut it
    to their length.  The file is never truncated to zero first: a rerun
    that writes the same bytes then frees and reallocates none of its blocks,
    which on ext4 costs more than the write itself."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline="") as fh:
        fh.writelines(chunks)
        fh.truncate()


def _write_table(path: Path, header: str, row, columns, last: str = "") -> None:
    """Write ``header``, ``row(*values)`` for each row of the equally long
    ``columns`` (formatted ``CSV_BLOCK_ROWS`` rows at a time), then ``last``."""
    blocks = (
        "".join(map(row, *(column[s : s + CSV_BLOCK_ROWS].tolist() for column in columns)))
        for s in range(0, len(columns[0]), CSV_BLOCK_ROWS)
    )
    _write_file(path, itertools.chain((header,), blocks, (last,)))


def _orbit_table(trace: OrbitTrace) -> tuple:
    """``orbit.csv``: a row (n, point value or sup norm, d_gap, p_gap, bound)
    per step, then the last point's row with no gaps."""
    sizes = [pt.value if isinstance(pt, ScalarPoint) else pt.sup_norm for pt in trace.points]
    return (
        "n,point_or_norm,d_gap,p_gap,bound\r\n",
        lambda n, x, d, p, b: f"{n},{x!r},{d!r},{p!r},{b!r}\r\n",
        (np.arange(trace.steps), np.array(sizes[:-1]), trace.d_gaps, trace.p_gaps, trace.bound),
        f"{trace.steps},{sizes[-1]!r},,,\r\n",
    )


def _solution_table(grid: Grid, values: np.ndarray) -> tuple:
    """``solution.csv``: a row (t, x) per grid node."""
    return "t,x\r\n", lambda t, x: f"{t!r},{x!r}\r\n", (grid.nodes, values)


def _end_run(out_dir: Path, record: dict, checks: dict, advisories: list, tables: dict) -> int:
    """Complete ``record`` with the checks, advisories and a summary, write it as
    ``report.json``, then each of ``tables`` under its file name; the exit status."""
    failed = sorted(name for name, c in checks.items() if not c["pass"])
    record.update(checks=checks, advisories=advisories)
    record["summary"] = {"all_pass": not failed, "check_count": len(checks), "failed": failed}
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_file(out_dir / REPORT_NAME, (json.dumps(record, sort_keys=True, indent=2), "\n"))
    for name, table in tables.items():
        _write_table(out_dir / name, *table)
    return STATUS_OK if not failed else STATUS_CHECK_FAILED


def _coarse(sample):
    stride = max(1, math.ceil(len(sample) / AXIOM_SAMPLE_LIMIT))
    return sample[::stride]


# ---------------------------------------------------------------------------
# verify-example batteries


def _start_and_axiom_checks(fx: Fixture, sample, checks):
    """Start points on the sample, and the triangle and separation axioms of
    the fixture's pair distance on a coarsened copy of it."""
    starts = find_start_points(fx.relation, fx.map, sample)
    checks["start_points_nonempty"] = {"pass": bool(starts), "count": len(starts)}

    coarse = _coarse(sample)
    tri = check_triangle(fx.wdistance, coarse)
    checks["triangle_axiom"] = {"pass": tri.ok, "detail": tri.to_record()}
    w3 = check_w3(fx.wdistance, fx.space, coarse, eps_grid=(0.5, 0.1))
    checks["separation_axiom"] = {"pass": w3.ok, "detail": w3.to_record()}


def _cauchy_check(fx: Fixture, orbit, checks):
    cauchy = certify_cauchy(orbit, fx.wdistance)
    checks["cauchy_bound_certified"] = {"pass": cauchy.ok, "violations": len(cauchy.violations)}


def _battery_parity(fx: Fixture, sample, checks, advisories):
    closed = check_t_closed(fx.relation, fx.map, sample)
    checks["map_closed_fails"] = {
        "pass": not closed.ok,
        "expected": "fails_with_witness",
        "observed": closed.verdict.value,
        "detail": closed.to_record(),
    }
    weak = check_weak_t_closed(fx.relation, fx.map, sample)
    checks["weak_map_closed_holds"] = {
        "pass": weak.ok,
        "observed": weak.verdict.value,
    }
    complete = check_complete_on(fx.relation, sample[:4])
    checks["completeness_fails_on_small_sample"] = {
        "pass": not complete.ok,
        "observed": complete.verdict.value,
        "detail": complete.to_record(),
    }
    try:
        est, _ = _sample_estimates(fx.map, WDistance.from_metric(), fx.relation, sample)
    except EstimationError:  # a step too coarse to keep any related pair
        est = None
    checks["metric_contraction_unavailable"] = {
        "pass": est is not None and est.lambda_hat >= 1.0,
        "observed_lambda": None if est is None else est.lambda_hat,
    }
    return None


def _battery_ceiling(fx: Fixture, sample, checks, advisories):
    gaps = 1.0 / (5 * (np.arange(1, 61) + 1))
    left, right = ScalarSample(1.0 - gaps), ScalarSample(1.0 + gaps)
    limit = scalar(1.0)
    rep_left = check_rlsc(fx.value_p, scalar(0.0), fx.relation, left, limit, conv_tol=0.01)
    checks["lower_semicontinuity_left_approach"] = {
        "pass": rep_left.ok,
        "detail": rep_left.to_record(),
    }
    rep_right = check_rlsc(fx.value_p, scalar(0.0), fx.relation, right, limit, conv_tol=0.01)
    checks["lower_semicontinuity_right_approach"] = {
        "pass": rep_right.ok,
        "detail": rep_right.to_record(),
    }
    image_gap = abs(fx.value_p(scalar(0.0), right[-1]) - fx.value_p(scalar(0.0), limit))
    checks["value_jump_across_limit"] = {
        "pass": image_gap >= 0.5,
        "observed_gap": image_gap,
    }
    advisories.append(
        "value function overshoots along right approaches, so it is lower "
        "semi-continuous along preserving sequences without being continuous"
    )
    return None


def _battery_plateau(fx: Fixture, sample, checks, advisories):
    gaps = 1.0 / (np.arange(1, 81) + 2)
    below, above = ScalarSample(1.0 - gaps), ScalarSample(1.0 + gaps)
    limit = scalar(1.0)
    rep = check_rlsc(fx.value_p, scalar(0.0), fx.relation, below, limit, conv_tol=0.02)
    checks["lower_semicontinuity_preserving_sequences"] = {
        "pass": rep.ok,
        "detail": rep.to_record(),
    }
    plain = check_rlsc(fx.value_p, scalar(0.0), universal_relation(), above, limit, conv_tol=0.02)
    checks["plain_lower_semicontinuity_fails"] = {
        "pass": not plain.ok,
        "expected": "fails_with_witness",
        "observed": plain.verdict.value,
        "detail": plain.to_record(),
    }
    try:
        check_rlsc(fx.value_p, scalar(0.0), fx.relation, above, limit, conv_tol=0.02)
        raised = False
    except PreconditionError:
        raised = True
    checks["right_approach_not_preserving"] = {"pass": raised}
    return None


def _battery_ordered_halving(fx: Fixture, sample, checks, advisories):
    closed = check_t_closed(fx.relation, fx.map, sample)
    checks["map_closed_holds"] = {"pass": closed.ok, "observed": closed.verdict.value}
    complete = check_complete_on(fx.relation, sample)
    checks["relation_complete_on_sample"] = {
        "pass": complete.ok,
        "observed": complete.verdict.value,
    }
    _start_and_axiom_checks(fx, sample, checks)

    pairs = related_pairs(fx.relation, sample)
    comparison = compare_classical(fx.map, fx.space, fx.relation, pairs)
    checks["plain_metric_contraction_fails"] = {
        "pass": len(comparison.banach_failures) > 0,
        "failure_count": len(comparison.banach_failures),
    }
    checks["displacement_contraction_fails"] = {
        "pass": len(comparison.mt_failures) > 0,
        "failure_count": len(comparison.mt_failures),
    }
    est, est_diag = _sample_estimates(fx.map, fx.wdistance, fx.relation, sample)
    checks["pair_distance_contraction_on_sample"] = {
        "pass": est.is_contraction,
        "lambda_hat": est.lambda_hat,
        "lambda_hat_with_diagonal": est_diag.lambda_hat,
        "pairs_checked": est.pairs_checked,
    }
    advisories.append(
        "diagonal pairs pin the contraction ratio at 1 because the pair "
        "distance is positive at the fixed point; off-diagonal sample ratios "
        f"approach 1 near it (supremum {est.lambda_hat:.6f} on this sample), "
        "so the constant is reported per sample, not asserted uniformly"
    )

    orbit = iterate(fx.map, fx.orbit_seed, fx.wdistance, est.lambda_hat, max_iter=100)
    residual = point_distance(orbit.final, fx.map.apply(orbit.final))
    checks["orbit_converges"] = {
        "pass": orbit.stop_reason.value == "converged" and residual <= 1e-9,
        "steps": orbit.steps,
        "residual": residual,
        "detail": orbit.to_record(),
    }
    _cauchy_check(fx, orbit, checks)
    probe = probe_uniqueness(
        fx.relation, fx.map, fx.wdistance, est.lambda_hat, [orbit.final], sample
    )
    checks["uniqueness_probe"] = {
        "pass": probe.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_2,
        "expected": UniquenessVerdict.UNIQUE_BY_CONDITION_2.value,
        "observed": probe.verdict.value,
        "detail": probe.to_record(),
    }
    return orbit


def _battery_product_shrink(fx: Fixture, sample, checks, advisories):
    _start_and_axiom_checks(fx, sample, checks)

    report = verify_theorem(
        fx.map, fx.space, fx.relation, fx.wdistance, sample, scalar(1.0)
    )
    checks["theorem_hypotheses_verified"] = {
        "pass": report.overall.value == "all_verified_on_sample"
        and abs(report.lambda_hat - fx.lambda_hint) <= 1e-12,
        "expected_lambda": fx.lambda_hint,
        "detail": report.to_record(),
    }

    orbit = iterate(fx.map, fx.orbit_seed, fx.wdistance, fx.lambda_hint, max_iter=60)
    residual = point_distance(orbit.final, fx.map.apply(orbit.final))
    final_value = abs(orbit.final.value)
    checks["orbit_reaches_zero"] = {
        "pass": orbit.stop_reason.value == "converged"
        and residual <= 1e-9
        and final_value <= 1e-8,
        "steps": orbit.steps,
        "residual": residual,
        "final": final_value,
        "detail": orbit.to_record(),
    }
    slack = max(
        (
            float(orbit.p_gaps[i] - fx.lambda_hint * orbit.p_gaps[i - 1])
            for i in range(1, orbit.steps)
        ),
        default=0.0,
    )
    checks["p_gap_chaining"] = {"pass": slack <= 1e-12, "max_slack": slack}
    _cauchy_check(fx, orbit, checks)
    probe = probe_uniqueness(
        fx.relation,
        fx.map,
        fx.wdistance,
        fx.lambda_hint,
        [orbit.final],
        sample,
        z_hint=fx.z_hint,
    )
    z_is_zero = probe.z is not None and probe.z.value == 0.0
    checks["uniqueness_probe"] = {
        "pass": probe.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1 and z_is_zero,
        "expected": UniquenessVerdict.UNIQUE_BY_CONDITION_1.value,
        "observed": probe.verdict.value,
        "detail": probe.to_record(),
    }

    pair = [(scalar(1.0), scalar(0.75))]
    comparison = compare_classical(fx.map, fx.space, fx.relation, pair)
    row = comparison.rows[0]
    checks["displacement_contraction_fails"] = {
        "pass": len(comparison.mt_failures) == 1 and len(comparison.banach_failures) == 1,
        "d_image": row.d_image,
        "m_displacement": row.m_displacement,
    }
    return orbit


_BATTERIES = {
    "Ex1_7": _battery_parity,
    "Ex1_13": _battery_ceiling,
    "Ex1_14": _battery_plateau,
    "Ex2_3": _battery_ordered_halving,
    "Ex2_4": _battery_product_shrink,
}


def run_verify_example(example_id: str, step: float | None, seed: int, out_dir: Path) -> int:
    fixture = FIXTURES[example_id]()
    step = step if step is not None else fixture.default_step
    sample = sample_space(fixture.space, step=step, seed=seed)
    checks: dict = {}
    advisories: list[str] = []
    orbit = _BATTERIES[example_id](fixture, sample, checks, advisories)
    record = {
        "command": "verify-example",
        "example": example_id,
        "title": fixture.title,
        "config": {"step": step, "seed": seed, "sample_size": len(sample)},
    }
    tables = {} if orbit is None else {ORBIT_NAME: _orbit_table(orbit)}
    return _end_run(out_dir, record, checks, advisories, tables)


# ---------------------------------------------------------------------------
# solve-fbvp


_SOLVE_FIELDS = {
    "beta": float,
    "k": float,
    "L": float,
    "f": str,
    "n": int,
    "variant": str,
    "tol": float,
    "max_iter": int,
}
_REQUIRED = ("beta", "k", "L", "f", "n")


def parse_config(path: Path) -> dict:
    """Flat key = value text; '#' starts a comment."""
    raw: dict[str, str] = {}
    text = _read_text(path, f"config file not found: {path}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty field name")
        if key in raw:
            raise ConfigError(f"duplicate field '{key}'")
        raw[key] = value
    return raw


def build_problem(raw: dict) -> tuple[FbvpProblem, float, int]:
    for name in _REQUIRED:
        if name not in raw:
            raise ConfigError(f"missing field '{name}'")
    values: dict = {}
    params: dict[str, float] = {}
    for key, text in raw.items():
        if key.startswith("f."):
            try:
                params[key[2:]] = float(text)
            except ValueError:
                raise ConfigError(f"field '{key}' must be a number, got {text!r}")
            continue
        if key not in _SOLVE_FIELDS:
            raise ConfigError(f"unknown field '{key}'")
        caster = _SOLVE_FIELDS[key]
        try:
            values[key] = caster(text)
        except ValueError:
            raise ConfigError(f"field '{key}' must be {caster.__name__}, got {text!r}")

    f_name = values["f"]
    if f_name not in F_REGISTRY:
        raise ConfigError(
            f"field 'f' must be one of {sorted(F_REGISTRY)}, got {f_name!r}"
        )
    factory, needed = F_REGISTRY[f_name]
    missing = [p for p in needed if p not in params]
    if missing:
        raise ConfigError(f"missing field 'f.{missing[0]}' for source {f_name!r}")
    extra = [p for p in params if p not in needed]
    if extra:
        raise ConfigError(f"unknown field 'f.{extra[0]}' for source {f_name!r}")
    try:
        f = factory(**params)
    except RelfixError as exc:
        raise ConfigError(str(exc))

    variant_text = values.get("variant", "paper_exact")
    try:
        variant = OperatorVariant(variant_text)
    except ValueError:
        raise ConfigError(
            f"field 'variant' must be one of "
            f"{[v.value for v in OperatorVariant]}, got {variant_text!r}"
        )
    try:
        problem = FbvpProblem(
            beta=values["beta"],
            k=values["k"],
            L=values["L"],
            f=f,
            grid=Grid(values["n"]),
            variant=variant,
        )
    except RelfixError as exc:
        raise ConfigError(str(exc))
    tol = check_real(values.get("tol", 1e-8), "field 'tol'", ConfigError, ends="()")
    max_iter = check_count(values.get("max_iter", 500), "field 'max_iter'", ConfigError, 1)
    return problem, tol, max_iter


def run_solve_fbvp(config_path: Path, out_dir: Path) -> int:
    raw = parse_config(config_path)
    problem, tol, max_iter = build_problem(raw)
    record = {
        "command": "solve-fbvp",
        "config": dict(sorted(raw.items())),
        "problem": problem.to_record(),
        "limits": {"tol": tol, "max_iter": max_iter},
    }
    checks: dict = {}
    advisories: list[str] = []
    try:
        solution = solve_fbvp(problem, tol=tol, max_iter=max_iter)
    except DivergenceError as exc:
        record["solution"] = None
        checks["converged"] = {"pass": False, "error": str(exc)}
        tables = {} if exc.trace is None else {ORBIT_NAME: _orbit_table(exc.trace)}
        return _end_run(out_dir, record, checks, advisories, tables)

    record["solution"] = solution.to_record()
    if solution.warning:
        advisories.append(solution.warning)
    checks["converged"] = {
        "pass": solution.trace.stop_reason.value == "converged",
        "iterations": solution.iterations,
    }
    checks["fixed_point_residual"] = {
        "pass": solution.fixed_point_residual <= tol,
        "value": solution.fixed_point_residual,
        "tolerance": tol,
    }
    checks["start_node_exact_zero"] = {
        "pass": float(solution.x.values[0]) == 0.0,
        "value": float(solution.x.values[0]),
    }
    contraction = problem.L * solution.lambda_tight
    if contraction < 1.0:
        checks["gap_ratio_bound"] = {
            "pass": solution.gap_ratio <= contraction + 0.02,
            "observed": solution.gap_ratio,
            "bound": contraction + 0.02,
        }
    tables = {
        SOLUTION_NAME: _solution_table(problem.grid, solution.x.values),
        ORBIT_NAME: _orbit_table(solution.trace),
    }
    return _end_run(out_dir, record, checks, advisories, tables)


# ---------------------------------------------------------------------------
# report


def _json_object(value, what: str) -> dict:
    """``value`` when it is a JSON object; otherwise ``ConfigError``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} holds a JSON {type(value).__name__}, not an object")
    return value


def run_report(in_dir: Path) -> int:
    path = in_dir / REPORT_NAME
    try:
        record = json.loads(_read_text(path, f"no {REPORT_NAME} in {in_dir}"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    record = _json_object(record, str(path))
    checks = _json_object(record.get("checks", {}), f"{path} checks")
    summary = _json_object(record.get("summary", {}), f"{path} summary")
    for name, check in checks.items():
        _json_object(check, f"{path} check {name!r}")
    verdicts = [check.get("pass", False) for check in checks.values()]
    if not all(isinstance(v, bool) for v in verdicts + [summary.get("all_pass", False)]):
        raise ConfigError(f"{path} holds a pass or all_pass that is not a JSON boolean")
    advisories = record.get("advisories", [])
    if not isinstance(advisories, list) or not all(isinstance(a, str) for a in advisories):
        raise ConfigError(f"{path} advisories are not a JSON array of strings")
    print(f"command: {record.get('command')}")
    for name, check in sorted(checks.items()):
        print(f"{'PASS' if check.get('pass') else 'FAIL'}  {name}")
    for advisory in advisories:
        print(f"note  {advisory}")
    print(
        f"summary: {summary.get('check_count', 0)} checks, "
        f"all_pass = {summary.get('all_pass', False)}"
    )
    return STATUS_OK if summary.get("all_pass") else STATUS_CHECK_FAILED


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="relfix",
        description="relation-constrained fixed-point verification and solving",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify-example", help="run one fixture's check battery")
    verify.add_argument("example_id", choices=sorted(FIXTURES))
    verify.add_argument("--step", type=float, default=None, help="interval lattice step")
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed of function-space samples; all five fixtures sample intervals, "
        "which need none",
    )
    verify.add_argument("--out", type=Path, default=Path("relfix-out"))

    solve = sub.add_parser("solve-fbvp", help="solve a boundary-value problem from a config file")
    solve.add_argument("--config", type=Path, required=True)
    solve.add_argument("--out", type=Path, default=Path("relfix-out"))

    report = sub.add_parser("report", help="summarize a previous run's report")
    report.add_argument("--in", dest="in_dir", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify-example":
            return run_verify_example(args.example_id, args.step, args.seed, args.out)
        if args.command == "solve-fbvp":
            return run_solve_fbvp(args.config, args.out)
        return run_report(args.in_dir)
    except (ConfigError, SamplingError, OSError) as exc:  # a sampling fault is a bad --step
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_USAGE
    except RelfixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_CHECK_FAILED


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
