"""Batch front end: fixture verification suites and boundary-value solves.

Only this module writes files.  A run writes ``report.json`` first (keys
sorted, no timestamps, so reruns with identical configuration are
byte-identical), then its tables: ``solution.csv`` for a solve, and
``orbit.csv`` for a run that iterated.  The report is the ASCII text of
``json.dumps(record, sort_keys=True, indent=2)``.  Exit status 0 means every
asserted check passed; advisories are recorded but never affect status.

Each check records ``pass`` and its evidence.  The rules that checks share are
stated once (``_verdict``, ``_converges``, ``_gap_ratio``, ``_chaining``), and
the README lists every check with its rule and threshold.
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

from .engine import OrbitTrace, StopReason, UniquenessVerdict, certify_cauchy, iterate
from .engine import probe_uniqueness
from .errors import ConfigError, DivergenceError, EstimationError, PreconditionError, RelfixError
from .errors import SamplingError, check_count, check_real
from .fixtures import FIXTURES, F_REGISTRY, Fixture
from .fractional import FbvpProblem, OperatorVariant, solve_fbvp
from .relations import (
    Verdict,
    check_complete_on,
    check_t_closed,
    check_weak_t_closed,
    find_start_points,
    universal_relation,
)
from .spaces import Grid, ScalarPoint, ScalarSample, point_distance, sample_space, scalar
from .verify import _classical_failure_counts, _sample_estimates, compare_classical, verify_theorem
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

_HOLDS, _FAILS = Verdict.HOLDS_ON_SAMPLE, Verdict.FAILS_WITH_WITNESS


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
    """Write the ASCII text ``chunks`` as bytes over those ``path`` holds, then
    cut it to their length.  The file is never truncated to zero first: a
    rerun that writes the same bytes then frees and reallocates none of its
    blocks, which on ext4 costs more than the write itself."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.writelines(chunk.encode() for chunk in chunks)
        fh.truncate()


_encode_str = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(record) -> str:
    """``json.dumps(record, sort_keys=True, indent=2)`` (``TypeError`` also on
    non-str keys), built in one list and with no closure: the standard
    encoder's closures leave each text in a reference cycle."""
    parts: list[str] = []
    _encode(record, parts.append, "\n")
    return "".join(parts)


def _encode(o, append, newline: str) -> None:
    """Append the JSON text of ``o`` at the indent that ``newline`` ends with."""
    if isinstance(o, str):
        append(_encode_str(o))
    elif o is None or o is True or o is False:
        append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        append(_NONFINITE.get(text, text))
    elif isinstance(o, (list, tuple)):
        inner = newline + "  "
        head = "[" + inner
        for item in o:
            append(head)
            _encode(item, append, inner)
            head = "," + inner
        append(newline + "]" if o else "[]")
    elif isinstance(o, dict):
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(o):
            append(head + _encode_str(key) + ": ")  # TypeError unless a str
            _encode(o[key], append, inner)
            head = "," + inner
        append(newline + "}" if o else "{}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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
    _write_file(out_dir / REPORT_NAME, (_json_text(record), "\n"))
    for name, table in tables.items():
        _write_table(out_dir / name, *table)
    return STATUS_OK if not failed else STATUS_CHECK_FAILED


def _coarse(sample):
    stride = max(1, math.ceil(len(sample) / AXIOM_SAMPLE_LIMIT))
    return sample[::stride]


# ---------------------------------------------------------------------------
# verify-example batteries


def _verdict(report, want, *keys: str) -> dict:
    """The verdict rule: ``report``, a sample report or a uniqueness probe,
    reads the verdict ``want``.  The check records ``expected`` (``want``),
    ``observed`` (the report's verdict) and ``detail`` (its record), or only
    those of them that ``keys`` names."""
    evidence = {
        "expected": lambda: want.value,
        "observed": lambda: report.verdict.value,
        "detail": report.to_record,
    }
    return {"pass": report.verdict is want, **{key: evidence[key]() for key in keys or evidence}}


def _converges(orbit: OrbitTrace, map_) -> dict:
    """The convergence rule: the orbit stopped ``converged`` and ``map_``
    moves its final point by a residual of at most 1e-9."""
    residual = point_distance(orbit.final, map_.apply(orbit.final))
    return {
        "pass": orbit.stop_reason is StopReason.CONVERGED and residual <= 1e-9,
        "steps": orbit.steps,
        "residual": residual,
        "detail": orbit.to_record(),
    }


def _gap_ratio(observed: float, contraction: float) -> dict:
    """The gap-ratio rule: the observed ratio of successive gaps is at most
    the bound, the contraction factor L * lambda_tight plus 0.02."""
    bound = contraction + 0.02
    return {"pass": observed <= bound, "observed": observed, "bound": bound}


def _chaining(p_gaps: np.ndarray, lam: float) -> dict:
    """The chaining rule: no p-gap exceeds ``lam`` times the one before by
    more than 1e-12.  The largest excess, 0.0 for fewer than two gaps, is
    recorded as ``max_slack``."""
    slack = float((p_gaps[1:] - lam * p_gaps[:-1]).max()) if len(p_gaps) > 1 else 0.0
    return {"pass": slack <= 1e-12, "max_slack": slack}


def _also(check: dict, holds: bool, **evidence) -> dict:
    """``check``, recording ``evidence`` too and passing only where ``holds``."""
    return {**check, **evidence, "pass": check["pass"] and holds}


def _start_and_axiom_checks(fx: Fixture, sample, checks, start_count: int):
    """The count of start points on the sample, and the triangle and
    separation axioms of the fixture's pair distance on a coarsened copy of it."""
    checks["start_points_nonempty"] = {"pass": start_count > 0, "count": start_count}
    coarse = _coarse(sample)
    checks["triangle_axiom"] = _verdict(check_triangle(fx.wdistance, coarse), _HOLDS, "detail")
    w3 = check_w3(fx.wdistance, fx.space, coarse, eps_grid=(0.5, 0.1))
    checks["separation_axiom"] = _verdict(w3, _HOLDS, "detail")


def _cauchy_check(fx: Fixture, orbit, checks):
    cauchy = certify_cauchy(orbit, fx.wdistance)
    checks["cauchy_bound_certified"] = {"pass": cauchy.ok, "violations": len(cauchy.violations)}


def _battery_parity(fx: Fixture, sample, checks, advisories):
    closed = check_t_closed(fx.relation, fx.map, sample)
    checks["map_closed_fails"] = _verdict(closed, _FAILS)
    weak = check_weak_t_closed(fx.relation, fx.map, sample)
    checks["weak_map_closed_holds"] = _verdict(weak, _HOLDS, "observed")
    complete = check_complete_on(fx.relation, sample[:4])
    checks["completeness_fails_on_small_sample"] = _verdict(complete, _FAILS, "observed", "detail")
    try:
        est, _ = _sample_estimates(fx.map, WDistance.from_metric(), fx.relation, sample)
    except EstimationError:  # a step too coarse to keep any related pair
        est = None
    checks["metric_contraction_unavailable"] = {
        "pass": est is not None and est.lambda_hat >= 1.0,
        "observed_lambda": None if est is None else est.lambda_hat,
    }


def _battery_ceiling(fx: Fixture, sample, checks, advisories):
    gaps = 1.0 / (5 * (np.arange(1, 61) + 1))
    left, right = ScalarSample(1.0 - gaps), ScalarSample(1.0 + gaps)
    limit = scalar(1.0)
    for side, approach in (("left", left), ("right", right)):
        rep = check_rlsc(fx.value_p, scalar(0.0), fx.relation, approach, limit, conv_tol=0.01)
        checks[f"lower_semicontinuity_{side}_approach"] = _verdict(rep, _HOLDS, "detail")
    image_gap = abs(fx.value_p(scalar(0.0), right[-1]) - fx.value_p(scalar(0.0), limit))
    checks["value_jump_across_limit"] = {"pass": image_gap >= 0.5, "observed_gap": image_gap}
    advisories.append(
        "value function overshoots along right approaches, so it is lower "
        "semi-continuous along preserving sequences without being continuous"
    )


def _battery_plateau(fx: Fixture, sample, checks, advisories):
    gaps = 1.0 / (np.arange(1, 81) + 2)
    below, above = ScalarSample(1.0 - gaps), ScalarSample(1.0 + gaps)
    limit = scalar(1.0)
    rep = check_rlsc(fx.value_p, scalar(0.0), fx.relation, below, limit, conv_tol=0.02)
    checks["lower_semicontinuity_preserving_sequences"] = _verdict(rep, _HOLDS, "detail")
    plain = check_rlsc(fx.value_p, scalar(0.0), universal_relation(), above, limit, conv_tol=0.02)
    checks["plain_lower_semicontinuity_fails"] = _verdict(plain, _FAILS)
    try:
        check_rlsc(fx.value_p, scalar(0.0), fx.relation, above, limit, conv_tol=0.02)
        raised = False
    except PreconditionError:
        raised = True
    checks["right_approach_not_preserving"] = {"pass": raised}


def _battery_ordered_halving(fx: Fixture, sample, checks, advisories):
    closed = check_t_closed(fx.relation, fx.map, sample)
    checks["map_closed_holds"] = _verdict(closed, _HOLDS, "observed")
    complete = check_complete_on(fx.relation, sample)
    checks["relation_complete_on_sample"] = _verdict(complete, _HOLDS, "observed")
    _start_and_axiom_checks(fx, sample, checks, len(find_start_points(fx.relation, fx.map, sample)))

    banach, mt = _classical_failure_counts(fx.map, fx.relation, sample)
    checks["plain_metric_contraction_fails"] = {"pass": banach > 0, "failure_count": banach}
    checks["displacement_contraction_fails"] = {"pass": mt > 0, "failure_count": mt}
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
    checks["orbit_converges"] = _converges(orbit, fx.map)
    _cauchy_check(fx, orbit, checks)
    probe = probe_uniqueness(
        fx.relation, fx.map, fx.wdistance, est.lambda_hat, [orbit.final], sample
    )
    checks["uniqueness_probe"] = _verdict(probe, UniquenessVerdict.UNIQUE_BY_CONDITION_2)
    return orbit


def _battery_product_shrink(fx: Fixture, sample, checks, advisories):
    report = verify_theorem(
        fx.map, fx.space, fx.relation, fx.wdistance, sample, scalar(1.0)
    )
    _start_and_axiom_checks(fx, sample, checks, report.start_count)
    checks["theorem_hypotheses_verified"] = {
        "pass": report.overall.value == "all_verified_on_sample"
        and abs(report.lambda_hat - fx.lambda_hint) <= 1e-12,
        "expected_lambda": fx.lambda_hint,
        "detail": report.to_record(),
    }

    orbit = iterate(fx.map, fx.orbit_seed, fx.wdistance, fx.lambda_hint, max_iter=60)
    final = abs(orbit.final.value)
    checks["orbit_reaches_zero"] = _also(_converges(orbit, fx.map), final <= 1e-8, final=final)
    checks["p_gap_chaining"] = _chaining(orbit.p_gaps, fx.lambda_hint)
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
    unique = _verdict(probe, UniquenessVerdict.UNIQUE_BY_CONDITION_1)
    checks["uniqueness_probe"] = _also(unique, probe.z is not None and probe.z.value == 0.0)

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
        checks["gap_ratio_bound"] = _gap_ratio(solution.gap_ratio, contraction)
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
