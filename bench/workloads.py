"""The four benchmark workloads: inputs, operations and correctness checks.

A workload builds its inputs from the seed when it is constructed; that is
set-up.  ``ops`` lists (label, callable) pairs, each callable making one call
into relfix through a public name looked up at call time, so that the
tracer's wrappers see it.  ``check(label, result)`` returns {check name:
passed}; every check is computed apart from the program or follows from a
property the method must have.  ``check_names`` lists every check a pass
must report.

This module imports relfix at the top, so the worker imports it only after
putting the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import relfix
import relfix.cli
from relfix.fixtures import FIXTURES, affine_source, constant_source, sine_mix_source

def _lattice(lo: float, hi: float, step: float, hi_inclusive: bool) -> np.ndarray:
    """The points lo, lo + step, ... of an interval, the last snapped onto a
    closed endpoint and dropped at an open one."""
    last = math.floor((hi - lo) / step + 1e-9)
    values = lo + np.arange(last + 1) * step
    if abs(values[-1] - hi) <= 1e-9 * max(1.0, abs(hi)):
        values[-1] = hi
        if not hi_inclusive:
            values = values[:-1]
    return values


def _last_orbit_value(path: Path) -> float:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return float(rows[-1][1])


class VerifyFixtures:
    """``relfix verify-example`` in-process: the five fixtures at their
    default step, then three with a lattice at a finer step.  Ex2_4 runs at
    its default step only: at the finer one it is a single call of 0.6-1.6 s,
    too long to meet a quiet stretch of a shared host in every run."""

    FINE = ("Ex1_13", "Ex1_14", "Ex2_3")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        refine = 1 if tiny else 2
        self.seed = seed
        self.digests: dict[str, set] = {}
        self.ops = []
        self.expected_lambda: dict[str, float] = {}
        self.check_names: list[str] = []
        cases = [(ex, None) for ex in sorted(FIXTURES)]
        cases += [(ex, FIXTURES[ex]().default_step / refine) for ex in self.FINE]
        for example, step in cases:
            label = f"{example}@{'default' if step is None else 'fine'}"
            out = workdir / label
            args = ["verify-example", example, "--seed", str(seed), "--out", str(out)]
            if step is not None:
                args += ["--step", repr(step)]
            self.ops.append((label, _call_cli(args, out)))
            self.check_names += [f"{label}.exit_ok", f"{label}.all_pass"]
            lattice_step = step if step is not None else FIXTURES[example]().default_step
            if example == "Ex2_3":
                self.expected_lambda[label] = self._ex2_3_lambda(lattice_step)
                self.check_names += [f"{label}.lambda_matches_bruteforce",
                                     f"{label}.orbit_ends_at_2"]
            if example == "Ex2_4":
                self.expected_lambda[label] = self._ex2_4_lambda(lattice_step)
                self.check_names += [f"{label}.lambda_matches_bruteforce",
                                     f"{label}.lambda_is_0.75",
                                     f"{label}.orbit_ends_at_0"]

    @staticmethod
    def _ex2_3_lambda(step: float) -> float:
        """max (|Tx| + |Ty|) / (|x| + |y|) over x >= y, x != y on [1, 3),
        with T the halving map capped at 2."""
        v = _lattice(1.0, 3.0, step, hi_inclusive=False)
        t = np.where(v < 2.0, v / 2.0, 2.0)
        x, y = v[:, None], v[None, :]
        ratio = (np.abs(t)[:, None] + np.abs(t)[None, :]) / (np.abs(x) + np.abs(y))
        return float(ratio[(x >= y) & (x != y)].max())

    @staticmethod
    def _ex2_4_lambda(step: float) -> float:
        """max T(y) / y over pairs with xy <= x or xy <= y, x != y, y > 0 on
        [0, 2], with T the four-branch shrink map."""
        v = _lattice(0.0, 2.0, step, hi_inclusive=True)
        t = np.select(
            [v <= 2.0 / 3.0, v < 1.0, v == 1.0], [v / 3.0, 1.0 - v, 0.75], v - 0.5
        )
        x, y = v[:, None], v[None, :]
        related = (x * y <= x) | (x * y <= y)
        mask = related & (x != y) & (y > 0.0)
        ratio = np.broadcast_to(t / np.where(v > 0.0, v, 1.0), mask.shape)
        return float(ratio[mask].max())

    def check(self, label: str, result) -> dict:
        status, out = result
        report_bytes = (out / "report.json").read_bytes()
        self.digests.setdefault(label, set()).add(hashlib.sha256(report_bytes).hexdigest())
        record = json.loads(report_bytes)
        checks = {
            f"{label}.exit_ok": status == 0,
            f"{label}.all_pass": record["summary"]["all_pass"] is True,
        }
        if label.startswith("Ex2_3"):
            observed = record["checks"]["pair_distance_contraction_on_sample"]["lambda_hat"]
            checks[f"{label}.lambda_matches_bruteforce"] = observed == self.expected_lambda[label]
            checks[f"{label}.orbit_ends_at_2"] = _last_orbit_value(out / "orbit.csv") == 2.0
        if label.startswith("Ex2_4"):
            observed = record["checks"]["theorem_hypotheses_verified"]["detail"]["lambda_hat"]
            checks[f"{label}.lambda_matches_bruteforce"] = observed == self.expected_lambda[label]
            checks[f"{label}.lambda_is_0.75"] = observed == 0.75
            # The orbit stops once a step moves less than 1e-9; below 2/3
            # the map divides by 3, so the last point is within 1e-9 of 0.
            checks[f"{label}.orbit_ends_at_0"] = abs(_last_orbit_value(out / "orbit.csv")) <= 1e-9
        return checks


def _call_cli(args: list[str], out: Path):
    def op():
        return relfix.cli.main(args), out

    return op


class WDistanceAxioms:
    """``check_triangle`` and ``check_w3`` on seeded interval samples for
    four pair distances, one of which breaks the triangle inequality."""

    EPS_GRID = (0.5, 0.1)
    LATTICE_STEP = 1.0 / 1024.0

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        size = 24 if tiny else 200
        rng = np.random.default_rng(seed)
        ex2_3, ex2_4 = FIXTURES["Ex2_3"](), FIXTURES["Ex2_4"]()

        def pick(space):
            lattice = relfix.sample_space(space, step=self.LATTICE_STEP)
            chosen = np.sort(rng.choice(len(lattice), size=size, replace=False))
            return [lattice[i] for i in chosen]

        on_ex2_3, on_ex2_4 = pick(ex2_3.space), pick(ex2_4.space)
        squared = relfix.WDistance.on_scalars("squared", lambda x, y: (x - y) ** 2)
        cases = (
            ("abs_sum", ex2_3.wdistance, ex2_3.space, on_ex2_3),
            ("second_coordinate", ex2_4.wdistance, ex2_4.space, on_ex2_4),
            ("metric", relfix.WDistance.from_metric(), ex2_4.space, on_ex2_4),
            ("squared", squared, ex2_4.space, on_ex2_4),
        )
        self.squared_violations = self._count_squared_violations(
            np.array([pt.value for pt in on_ex2_4])
        )
        self.ops = []
        self.check_names = []
        for name, p, space, sample in cases:
            self.ops.append((f"{name}.triangle", _triangle_op(p, sample)))
            self.ops.append((f"{name}.w3", _w3_op(p, space, sample, self.EPS_GRID)))
            if name == "squared":
                self.check_names.append("squared.triangle_violations_match")
            else:
                self.check_names.append(f"{name}.triangle_holds")
            self.check_names.append(f"{name}.w3_holds")

    @staticmethod
    def _count_squared_violations(v: np.ndarray, tol: float = 1e-12) -> int:
        """Triples (x, y, z) with (x - z)^2 > (x - y)^2 + (y - z)^2 + tol,
        counted one middle point at a time so memory stays O(m^2)."""
        sq = (v[:, None] - v[None, :]) ** 2
        return sum(
            int(np.count_nonzero(sq > sq[:, j, None] + sq[j, None, :] + tol))
            for j in range(v.size)
        )

    def check(self, label: str, report) -> dict:
        name, kind = label.rsplit(".", 1)
        if kind == "w3":
            return {f"{name}.w3_holds": report.ok}
        if name == "squared":
            expected = self.squared_violations
            return {"squared.triangle_violations_match": not report.ok and expected > 0
                    and report.detail["violations"] == expected}
        return {f"{name}.triangle_holds": report.ok}


def _triangle_op(p, sample):
    def op():
        return relfix.check_triangle(p, sample)

    return op


def _w3_op(p, space, sample, eps_grid):
    def op():
        return relfix.check_w3(p, space, sample, eps_grid=eps_grid)

    return op


class FbvpRefineCold:
    """``relfix solve-fbvp`` in-process over a refinement ladder with beta =
    1.5, node-aligned k = 0.5 and the sine_mix source.  The worker runs one
    pass per process, so every solve builds its weights."""

    CONFIG = (
        "beta = 1.5\nk = 0.5\nL = 0.2\nf = sine_mix\nf.a = 0.2\n"
        "n = {n}\ntol = 1e-13\nmax_iter = 500\nvariant = paper_exact\n"
    )
    MIN_ORDER = 1.9

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.ladder = (32, 64, 128, 256) if tiny else (256, 512, 1024, 2048)
        self.ops = []
        workdir.mkdir(parents=True, exist_ok=True)
        for n in self.ladder:
            config = workdir / f"n{n}.cfg"
            config.write_text(self.CONFIG.format(n=n))
            out = workdir / f"n{n}"
            args = ["solve-fbvp", "--config", str(config), "--out", str(out)]
            self.ops.append((f"n{n}", _call_cli(args, out)))
        self.check_names = [
            f"n{n}.{c}" for n in self.ladder
            for c in ("exit_ok", "all_pass", "x0_zero", "nonnegative")
        ]
        self.check_names += [
            f"order_{a}_{b}_{c}" for a, b, c in zip(self.ladder, self.ladder[1:], self.ladder[2:])
        ]
        # The order checks compare consecutive rungs of the one pass a
        # process makes.
        self._previous = None
        self._diffs: list[tuple[int, float]] = []

    def check(self, label: str, result) -> dict:
        status, out = result
        record = json.loads((out / "report.json").read_text())
        x = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1]
        checks = {
            f"{label}.exit_ok": status == 0,
            f"{label}.all_pass": record["summary"]["all_pass"] is True,
            f"{label}.x0_zero": x[0] == 0.0,
            f"{label}.nonnegative": bool(np.all(x >= 0.0)),
        }
        n = x.size - 1
        if self._previous is not None:
            coarse_n, coarse = self._previous
            self._diffs.append((coarse_n, float(np.max(np.abs(coarse - x[::2])))))
        if len(self._diffs) >= 2:
            (a, e_a), (b, e_b) = self._diffs[-2:]
            order = math.log2(e_a / e_b) if e_b > 0.0 else math.inf
            checks[f"order_{a}_{b}_{n}"] = self.MIN_ORDER <= order < math.inf
        self._previous = (n, x)
        return checks


class FbvpSweepWarm:
    """``solve_fbvp`` then ``certify_cauchy`` for a seeded set of problems on
    one grid.  Set-up runs one solve so the weights are built before timing.

    The set is stratified: every source and operator variant meets one L
    drawn from each band, so the Picard step count, and with it the pass
    time, varies little from seed to seed."""

    BETA = 1.5
    K = 0.5
    TOL = 1e-12
    L_BANDS = ((0.05, 0.15), (0.15, 0.3), (0.3, 0.45), (0.45, 0.6))
    SOURCES = ("affine", "sine_mix", "constant")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        n = 128 if tiny else 2048
        rng = np.random.default_rng(seed)
        grid = relfix.Grid(n)
        self.nodes = np.arange(n + 1) / n
        self.sup = relfix.WDistance.from_metric("sup_metric")
        self.params = {}
        self.ops = []
        self.check_names = []
        for source in self.SOURCES:
            for variant in relfix.OperatorVariant:
                for band, (lo, hi) in enumerate(self.L_BANDS):
                    L = float(rng.uniform(lo, hi))
                    if source == "constant":
                        scale = float(rng.uniform(0.5, 2.0))
                        f = constant_source(scale)
                    else:
                        scale = L
                        f = (affine_source if source == "affine" else sine_mix_source)(L)
                    problem = relfix.FbvpProblem(
                        beta=self.BETA, k=self.K, L=L, f=f, grid=grid, variant=variant
                    )
                    label = f"{source}.{variant.value}.L{band}"
                    self.params[label] = (source, variant, L, scale)
                    self.ops.append((label, _certified_solve_op(problem, self.TOL, self.sup)))
                    self.check_names += [f"{label}.converged", f"{label}.certified",
                                         f"{label}.gap_ratios"]
                    if source == "constant":
                        self.check_names.append(f"{label}.closed_form")
        warm = relfix.FbvpProblem(
            beta=self.BETA, k=self.K, L=0.1, f=affine_source(0.1), grid=grid
        )
        relfix.solve_fbvp(warm, tol=self.TOL)

    def lambda_tight(self) -> float:
        b, k = self.BETA, self.K
        two_k2 = 2.0 + k * k
        return (1.0 / math.gamma(b + 1.0) + 2.0 / (two_k2 * math.gamma(b + 1.0))
                + 2.0 * k ** (b + 1.0) / (two_k2 * math.gamma(b + 2.0)))

    def check(self, label: str, result) -> dict:
        solution, cauchy = result
        source, variant, L, scale = self.params[label]
        gaps = np.asarray(solution.trace.d_gaps)
        earlier, later = gaps[:-1], gaps[1:]
        ratios = later[earlier > 0.0] / earlier[earlier > 0.0]
        checks = {
            f"{label}.converged": solution.trace.stop_reason.value == "converged",
            f"{label}.certified": bool(cauchy.ok),
            f"{label}.gap_ratios": bool(np.all(ratios <= L * self.lambda_tight())),
        }
        if source == "constant":
            b, k, t = self.BETA, self.K, self.nodes
            sign = 1.0 if variant.value == "paper_exact" else -1.0
            exact = scale * t**b / math.gamma(b + 1.0) + sign * (2.0 * t / (2.0 + k * k)) * (
                scale / math.gamma(b + 1.0) + scale * k ** (b + 1.0) / math.gamma(b + 2.0)
            )
            error = float(np.max(np.abs(solution.x.values - exact)))
            checks[f"{label}.closed_form"] = error <= 1e-12
        return checks


def _certified_solve_op(problem, tol, sup):
    def op():
        solution = relfix.solve_fbvp(problem, tol=tol)
        return solution, relfix.certify_cauchy(solution.trace, sup)

    return op


WORKLOADS = {
    "verify_fixtures": VerifyFixtures,
    "wdistance_axioms": WDistanceAxioms,
    "fbvp_refine_cold": FbvpRefineCold,
    "fbvp_sweep_warm": FbvpSweepWarm,
}
