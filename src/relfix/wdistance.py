"""Generalized pair distances and sample-based axiom checkers.

A pair distance p is a nonnegative function of ordered point pairs.  Unlike a
metric it need not be symmetric and p(x, x) may be positive.  Three axioms
are checked on finite data: the triangle inequality over sampled triples, a
lower-semi-continuity condition along relation-preserving sequences (the
liminf over an infinite tail is proxied by the minimum over a declared tail
window), and a separation property tying small p-balls to small metric
distance, with the existential delta searched over a fixed geometric ladder,
each ladder step decided by one 0/1 matrix product over the sample, and the
first failing triple at the smallest delta kept as a failing epsilon's witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, check_count, check_real
from .relations import Relation, _Witnessed, preserving_tail
from .spaces import (
    MetricSpace,
    Point,
    _PairFunction,
    check_space,
    describe_point,
    nonempty_sample,
    point_distance,
    row_blocks,
)

__all__ = [
    "Axiom",
    "WDistance",
    "AxiomReport",
    "default_delta_ladder",
    "check_triangle",
    "check_rlsc",
    "check_w3",
]

# Rounding allowance on p(x, z) <= p(x, y) + p(y, z) in the triangle check.
TRIANGLE_SLACK = 1e-12
# Allowance on the tail minimum against p(anchor, limit) in ``check_rlsc``.
LSC_SLACK = 1e-9


class Axiom(Enum):
    W1_TRIANGLE = "triangle"
    W2_RLSC = "relation_lsc"
    W3_SEPARATION = "separation"


def _abs_gap(x, y):
    return np.abs(x - y)


@dataclass(frozen=True)
class WDistance(_PairFunction):
    """Named nonnegative pair function; evaluations are validated lazily.

    ``array``, when present, is the same function written with numpy
    operations on scalar values; ``matrix`` and ``at`` broadcast it over
    all-scalar samples instead of calling ``p`` once per pair.
    """

    name: str
    p: Callable[[Point, Point], float]
    array: Callable | None = field(default=None, repr=False, compare=False)

    fill = np.nan

    def __call__(self, x: Point, y: Point) -> float:
        value = float(self.p(x, y))
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"{self.name} produced an invalid pair distance {value!r}")
        return value

    def _checked(self, values: np.ndarray, where: np.ndarray | None) -> np.ndarray:
        # NaN, -inf and negative values fail the first comparison, +inf the
        # second; off the mask every value is the NaN fill, so each value
        # inside it is valid when the counts agree
        ok = values >= 0.0
        ok &= values < np.inf
        if np.count_nonzero(ok) != (values.size if where is None else np.count_nonzero(where)):
            bad = ~ok if where is None else ~ok & where
            value = float(values[np.unravel_index(np.argmax(bad), bad.shape)])
            raise DomainError(f"{self.name} produced an invalid pair distance {value!r}")
        return values

    @staticmethod
    def from_metric(name: str = "metric") -> "WDistance":
        """The metric of every space, ``point_distance``, as a pair distance."""
        return WDistance(name, point_distance, _abs_gap)


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
    delta, or, when none works, the witness (z, x, y, d(x, y)) that
    ``check_w3`` takes from the smallest ladder delta, 2^-20."""

    eps: float
    delta: float | None
    witness: tuple[Point, Point, Point, float] | None


@dataclass(frozen=True)
class AxiomReport(_Witnessed):
    axiom: Axiom
    witnesses: tuple = ()
    table: tuple[SeparationRow, ...] = ()
    detail: dict = field(default_factory=dict)
    sample_size: int = 0

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
    sample = nonempty_sample(sample)
    m = len(sample)
    P = p.matrix(sample, sample)
    violations = 0
    witnesses: list[TriangleWitness] = []
    for rows in row_blocks(m, m * m):
        # bad[i, j, k]: p(x_i, z_k) > p(x_i, y_j) + p(y_j, z_k) + TRIANGLE_SLACK
        rhs = P[rows, :, None] + P[None, :, :]
        rhs += TRIANGLE_SLACK
        bad = P[rows, None, :] > rhs
        del rhs
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
    return AxiomReport(
        Axiom.W1_TRIANGLE,
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
    *,
    conv_tol: float = 1e-9,
) -> AxiomReport:
    """Lower semi-continuity of p(anchor, .) along one preserving sequence.

    Asserts min over the tail window of p(anchor, x_n) >= p(anchor, limit) -
    ``LSC_SLACK``.  The sequence must be preserving (use the universal
    relation for a plain, relation-free check) and must converge to
    ``limit`` within ``conv_tol``.
    """
    seq, window = preserving_tail(rel, seq, limit, conv_tol)
    tail = seq[-window:]
    tail_values = p.matrix([anchor], tail)[0]
    worst_at = int(np.argmin(tail_values))
    tail_min = float(tail_values[worst_at])
    at_limit = p(anchor, limit)
    return AxiomReport(
        Axiom.W2_RLSC,
        () if tail_min >= at_limit - LSC_SLACK else ((tail[worst_at], limit),),
        detail={"tail_min": tail_min, "at_limit": at_limit, "tail_window": window},
        sample_size=len(seq),
    )


def default_delta_ladder() -> tuple[float, ...]:
    return tuple(2.0**-i for i in range(21))


def check_w3(
    p: WDistance, space: MetricSpace, sample: Sequence[Point], eps_grid: Sequence[float]
) -> AxiomReport:
    """For each epsilon, the largest delta on the fixed ladder
    ``default_delta_ladder()`` (1, 1/2, ..., 2^-20) satisfying separation.

    The ladder is searched top down, so the first success is the largest
    working delta.  With the 0/1 matrices near = (p <= delta) and
    far = (d > eps), a step fails where ``near @ far`` and ``near`` are both
    nonzero: x lies in z's delta-ball and so does some y farther than eps
    from x.  An epsilon with no working delta fails the axiom; its witness
    (z, x, y, d(x, y)) is the first failing (z, x) in row-major order at
    delta = 2^-20, with the first such y.  Every sample point must lie in
    ``space``.
    """
    sample = nonempty_sample(sample)
    check_count(len(eps_grid), "eps grid size", PreconditionError, 1)
    eps_grid = [check_real(eps, "eps", PreconditionError, ends="()") for eps in eps_grid]
    check_space(space, sample)

    P = p.matrix(sample, sample)
    D = WDistance.from_metric().matrix(sample, sample)
    rows = []
    for eps in eps_grid:
        far = (D > eps).astype(float)
        for delta in default_delta_ladder():
            near = (P <= delta).astype(float)
            bad = (near @ far > 0.0) & (near > 0.0)
            if not bad.any():
                rows.append(SeparationRow(eps, delta, None))
                break
        else:
            z, x = np.unravel_index(np.argmax(bad), bad.shape)
            y = np.argmax(near[z] * far[x])
            witness = (sample[z], sample[x], sample[y], float(D[x, y]))
            rows.append(SeparationRow(eps, None, witness))
    return AxiomReport(
        Axiom.W3_SEPARATION,
        tuple(row.witness for row in rows if row.witness is not None),
        table=tuple(rows),
        sample_size=len(sample),
    )
