"""Batch front end: fixture verification suites and boundary-value solves.

Each run writes a ``report.json`` record (keys sorted, no timestamps, so
reruns with identical configuration are byte-identical) plus ``orbit.csv``
or ``solution.csv`` next to it.  Exit status 0 means every asserted check in
the report passed; advisory findings are recorded but never affect status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .engine import CSV_BLOCK_ROWS, UniquenessVerdict, certify_cauchy, iterate, probe_uniqueness
from .errors import ConfigError, DivergenceError, PreconditionError, RelfixError
from .fixtures import FIXTURES, F_REGISTRY, Fixture
from .fractional import FbvpProblem, OperatorVariant, solve_fbvp
from .relations import (
    check_complete_on,
    check_t_closed,
    check_weak_t_closed,
    find_start_points,
    universal_relation,
)
from .spaces import Grid, point_distance, sample_space, scalar
from .verify import compare_classical, estimate_lambda, related_pairs, verify_theorem
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


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_report(out_dir: Path, record: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(record, sort_keys=True, indent=2, default=_json_default) + "\n"
    (out_dir / REPORT_NAME).write_text(text)


def _finish(record: dict, checks: dict) -> int:
    failed = sorted(name for name, c in checks.items() if not c["pass"])
    record["summary"] = {
        "all_pass": not failed,
        "check_count": len(checks),
        "failed": failed,
    }
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
    pairs = related_pairs(fx.relation, sample)
    est = estimate_lambda(fx.map, WDistance.from_metric(), fx.relation, pairs)
    checks["metric_contraction_unavailable"] = {
        "pass": est.lambda_hat >= 1.0,
        "observed_lambda": est.lambda_hat,
    }
    return None


def _battery_ceiling(fx: Fixture, sample, checks, advisories):
    left = [scalar(1.0 - 1.0 / (5 * (n + 1))) for n in range(1, 61)]
    right = [scalar(1.0 + 1.0 / (5 * (n + 1))) for n in range(1, 61)]
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
    below = [scalar(1.0 - 1.0 / (n + 2)) for n in range(1, 81)]
    above = [scalar(1.0 + 1.0 / (n + 2)) for n in range(1, 81)]
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
    est = estimate_lambda(fx.map, fx.wdistance, fx.relation, pairs)
    est_diag = estimate_lambda(fx.map, fx.wdistance, fx.relation, pairs, include_diagonal=True)
    checks["pair_distance_contraction_on_sample"] = {
        "pass": est.is_contraction,
        "lambda_hat": est.lambda_hat,
        "lambda_hat_with_diagonal": est_diag.lambda_hat,
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
        "checks": checks,
        "advisories": advisories,
    }
    status = _finish(record, checks)
    _write_report(out_dir, record)
    if orbit is not None:
        orbit.to_csv(out_dir / ORBIT_NAME)
    return status


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
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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
    except ValueError as exc:
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
    tol, max_iter = values.get("tol", 1e-8), values.get("max_iter", 500)
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"field 'tol' must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"field 'max_iter' must be at least 1, got {max_iter!r}")
    return problem, tol, max_iter


def _write_solution_csv(path: Path, grid: Grid, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,x\r\n")
        for s in range(0, grid.n + 1, CSV_BLOCK_ROWS):
            block = slice(s, s + CSV_BLOCK_ROWS)
            rows = zip(grid.nodes[block].tolist(), values[block].tolist())
            fh.write("".join(f"{t!r},{v!r}\r\n" for t, v in rows))


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
        record["checks"] = checks
        record["advisories"] = advisories
        status = _finish(record, checks)
        _write_report(out_dir, record)
        if exc.trace is not None:
            exc.trace.to_csv(out_dir / ORBIT_NAME)
        return status

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
    record["checks"] = checks
    record["advisories"] = advisories
    status = _finish(record, checks)
    _write_report(out_dir, record)
    _write_solution_csv(out_dir / SOLUTION_NAME, problem.grid, solution.x.values)
    solution.trace.to_csv(out_dir / ORBIT_NAME)
    return status


# ---------------------------------------------------------------------------
# report


def run_report(in_dir: Path) -> int:
    path = in_dir / REPORT_NAME
    if not path.exists():
        raise ConfigError(f"no {REPORT_NAME} in {in_dir}")
    record = json.loads(path.read_text())
    print(f"command: {record.get('command')}")
    for name, check in sorted(record.get("checks", {}).items()):
        print(f"{'PASS' if check.get('pass') else 'FAIL'}  {name}")
    for advisory in record.get("advisories", []):
        print(f"note  {advisory}")
    summary = record.get("summary", {})
    print(
        f"summary: {summary.get('check_count', 0)} checks, "
        f"all_pass = {summary.get('all_pass', False)}"
    )
    return STATUS_OK if summary.get("all_pass") else STATUS_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfix",
        description="relation-constrained fixed-point verification and solving",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify-example", help="run one fixture's check battery")
    verify.add_argument("example_id", choices=sorted(FIXTURES))
    verify.add_argument("--step", type=float, default=None, help="interval lattice step")
    verify.add_argument("--seed", type=int, default=0, help="sampling seed")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_USAGE
    except RelfixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_CHECK_FAILED


def console() -> None:
    sys.exit(main())
