"""Generalized pair distances and sample-based axiom checkers.

A pair distance p is a nonnegative function of ordered point pairs.  Unlike a
metric it need not be symmetric and p(x, x) may be positive.  Three axioms
are checked on finite data: the triangle inequality over sampled triples, a
lower-semi-continuity condition along relation-preserving sequences (the
liminf over an infinite tail is proxied by the minimum over a declared tail
window), and a separation property tying small p-balls to small metric
distance, with the existential delta searched over a fixed geometric ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .relations import Relation, Verdict, preserving_tail
from .spaces import (
    Interval,
    MetricSpace,
    Point,
    as_scalar,
    describe_point,
    evaluate_pairs,
    metric_eval,
    point_distance,
    row_blocks,
)

__all__ = [
    "Axiom",
    "WDistance",
    "TriangleWitness",
    "SeparationRow",
    "AxiomReport",
    "default_delta_ladder",
    "check_triangle",
    "check_rlsc",
    "check_w3",
]

# Rounding allowance on p(x, z) <= p(x, y) + p(y, z) in the triangle check.
TRIANGLE_SLACK = 1e-12


class Axiom(Enum):
    W1_TRIANGLE = "triangle"
    W2_RLSC = "relation_lsc"
    W3_SEPARATION = "separation"


def _abs_gap(x, y):
    return np.abs(x - y)


@dataclass(frozen=True)
class WDistance:
    """Named nonnegative pair function; evaluations are validated lazily.

    ``array``, when present, is the same function written with numpy
    operations on scalar values; ``matrix`` and ``at`` broadcast it over
    all-scalar samples instead of calling ``p`` once per pair.
    """

    name: str
    p: Callable[[Point, Point], float]
    array: Callable | None = field(default=None, repr=False, compare=False)

    def __call__(self, x: Point, y: Point) -> float:
        value = float(self.p(x, y))
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"{self.name} produced an invalid pair distance {value!r}")
        return value

    def matrix(
        self, xs: Sequence[Point], ys: Sequence[Point], where: np.ndarray | None = None
    ) -> np.ndarray:
        """Float array of ``self(xs[i], ys[j])``, NaN off the ``where`` mask;
        every value inside the mask is validated."""
        values = evaluate_pairs(self, self.array, xs, ys, fill=np.nan, where=where)
        return self._validated(values, where)

    def at(self, xs: Sequence[Point], ys: Sequence[Point], i, j) -> np.ndarray:
        """Float array of ``self(xs[i[k]], ys[j[k]])`` over the index pairs."""
        values = evaluate_pairs(self, self.array, xs, ys, fill=np.nan, at=(i, j))
        return self._validated(values, None)

    def _validated(self, values: np.ndarray, where: np.ndarray | None) -> np.ndarray:
        bad = ~(np.isfinite(values) & (values >= 0.0))
        if where is not None:
            bad &= where
        if bad.any():
            value = float(values[np.unravel_index(np.argmax(bad), bad.shape)])
            raise DomainError(f"{self.name} produced an invalid pair distance {value!r}")
        return values

    @staticmethod
    def elementwise(name: str, fn: Callable) -> "WDistance":
        """A pair distance on scalar points from one function written with
        numpy operations, so that it accepts floats and broadcast arrays
        alike."""
        return WDistance(name, lambda x, y: float(fn(as_scalar(x), as_scalar(y))), fn)

    @staticmethod
    def on_scalars(name: str, fn: Callable[[float, float], float]) -> "WDistance":
        return WDistance(name, lambda x, y: float(fn(as_scalar(x), as_scalar(y))))

    @staticmethod
    def from_metric(name: str = "metric") -> "WDistance":
        """The canonical point distance wrapped as a pair distance."""
        return WDistance(name, point_distance, _abs_gap)

    @staticmethod
    def from_space(space: MetricSpace) -> "WDistance":
        """The metric of ``space`` as a pair distance; it broadcasts when that
        is the canonical metric of an interval."""
        canonical = space.metric is None and isinstance(space.kind, Interval)
        return WDistance("metric", partial(metric_eval, space), _abs_gap if canonical else None)


@dataclass(frozen=True)
class TriangleWitness:
    x: Point
    y: Point
    z: Point
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SeparationRow:
    """One epsilon row of the separation search: the largest working ladder
    delta, or the violating triple found at the smallest ladder delta."""

    eps: float
    delta: float | None
    witness: tuple[Point, Point, Point, float] | None


@dataclass(frozen=True)
class AxiomReport:
    axiom: Axiom
    verdict: Verdict
    witnesses: tuple = ()
    table: tuple[SeparationRow, ...] = ()
    detail: dict = field(default_factory=dict)
    sample_size: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.HOLDS_ON_SAMPLE

    def to_record(self) -> dict:
        rec = {
            "axiom": self.axiom.value,
            "verdict": self.verdict.value,
            "sample_size": self.sample_size,
            "detail": dict(self.detail),
        }
        if self.axiom is Axiom.W1_TRIANGLE:
            rec["violations"] = [
                {
                    "x": describe_point(w.x),
                    "y": describe_point(w.y),
                    "z": describe_point(w.z),
                    "lhs": w.lhs,
                    "rhs": w.rhs,
                }
                for w in self.witnesses[:10]
            ]
            rec["violation_count"] = len(self.witnesses)
        if self.table:
            rec["table"] = [
                {"eps": row.eps, "delta": row.delta, "found": row.delta is not None}
                for row in self.table
            ]
        return rec


def check_triangle(p: WDistance, sample: Sequence[Point]) -> AxiomReport:
    """Exhaustive p(x, z) <= p(x, y) + p(y, z) + TRIANGLE_SLACK over all
    sampled triples.

    The triples are scanned a block of first points x at a time, so memory
    grows with the square of the sample size, not its cube.
    """
    sample = list(sample)
    if not sample:
        raise PreconditionError("empty sample")
    m = len(sample)
    P = p.matrix(sample, sample)
    violations = 0
    witnesses: list[TriangleWitness] = []
    for rows in row_blocks(m, m * m):
        # lhs[i, j, k] = p(x_i, z_k), rhs[i, j, k] = p(x_i, y_j) + p(y_j, z_k)
        lhs = P[rows, None, :]
        rhs = P[rows, :, None] + P[None, :, :]
        bad = lhs > rhs + TRIANGLE_SLACK
        count = int(np.count_nonzero(bad))
        violations += count
        if not count or len(witnesses) == 50:
            continue
        first = np.flatnonzero(bad)[: 50 - len(witnesses)]
        for i, j, k in zip(*np.unravel_index(first, bad.shape)):
            i += rows.start
            witnesses.append(
                TriangleWitness(
                    sample[i], sample[j], sample[k], float(P[i, k]), float(P[i, j] + P[j, k])
                )
            )
    verdict = Verdict.FAILS_WITH_WITNESS if violations else Verdict.HOLDS_ON_SAMPLE
    return AxiomReport(
        Axiom.W1_TRIANGLE,
        verdict,
        tuple(witnesses),
        detail={"triples": m**3, "violations": violations},
        sample_size=m,
    )


def check_rlsc(
    p: WDistance,
    anchor: Point,
    rel: Relation,
    seq: Sequence[Point],
    limit: Point,
    tol: float = 1e-9,
    *,
    conv_tol: float = 1e-9,
    tail_fraction: float = 0.25,
) -> AxiomReport:
    """Lower semi-continuity of p(anchor, .) along one preserving sequence.

    Asserts min over the tail window of p(anchor, x_n) >= p(anchor, limit) - tol.
    The sequence must be preserving (use the universal relation for a plain,
    relation-free check) and must converge to ``limit`` within ``conv_tol``.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tolerance must be finite and nonnegative, got {tol!r}")
    seq, window = preserving_tail(rel, seq, limit, conv_tol, tail_fraction)
    tail = seq[-window:]
    tail_values = p.matrix([anchor], tail)[0]
    worst_at = int(np.argmin(tail_values))
    tail_min = float(tail_values[worst_at])
    at_limit = p(anchor, limit)
    ok = tail_min >= at_limit - tol
    worst = tail[worst_at]
    return AxiomReport(
        Axiom.W2_RLSC,
        Verdict.HOLDS_ON_SAMPLE if ok else Verdict.FAILS_WITH_WITNESS,
        () if ok else ((worst, limit),),
        detail={"tail_min": tail_min, "at_limit": at_limit, "tail_window": window},
        sample_size=len(seq),
    )


def default_delta_ladder() -> tuple[float, ...]:
    return tuple(2.0**-i for i in range(21))


def _separation_holds(P, D, delta, eps):
    """All triples: p(z, x) <= delta and p(z, y) <= delta imply d(x, y) <= eps."""
    for zi in range(P.shape[0]):
        near = np.flatnonzero(P[zi] <= delta)
        if near.size < 2:
            continue
        sub = D[np.ix_(near, near)]
        worst = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[worst] > eps:
            return False, (zi, int(near[worst[0]]), int(near[worst[1]]), float(sub[worst]))
    return True, None


def check_w3(
    p: WDistance,
    space: MetricSpace,
    sample: Sequence[Point],
    eps_grid: Sequence[float],
) -> AxiomReport:
    """For each epsilon, the largest delta on the fixed ladder
    ``default_delta_ladder()`` (1, 1/2, ..., 2^-20) satisfying separation.

    The ladder is searched top down, so the first success is the largest
    working delta; an epsilon with no working delta fails the axiom and the
    violating triple at the smallest ladder delta is reported.
    """
    sample = list(sample)
    if not sample:
        raise PreconditionError("empty sample")
    if not eps_grid or not all(math.isfinite(e) and e > 0 for e in eps_grid):
        raise PreconditionError(f"eps grid must be finite and positive, got {tuple(eps_grid)!r}")

    P = p.matrix(sample, sample)
    D = WDistance.from_space(space).matrix(sample, sample)
    rows = []
    for eps in eps_grid:
        found = None
        last_witness = None
        for delta in default_delta_ladder():
            ok, wit = _separation_holds(P, D, delta, eps)
            if ok:
                found = delta
                break
            last_witness = wit
        if found is not None:
            rows.append(SeparationRow(float(eps), found, None))
        else:
            zi, xi, yi, dval = last_witness
            rows.append(
                SeparationRow(float(eps), None, (sample[zi], sample[xi], sample[yi], dval))
            )
    all_found = all(row.delta is not None for row in rows)
    return AxiomReport(
        Axiom.W3_SEPARATION,
        Verdict.HOLDS_ON_SAMPLE if all_found else Verdict.FAILS_WITH_WITNESS,
        tuple(row.witness for row in rows if row.witness is not None),
        table=tuple(rows),
        sample_size=len(sample),
    )
