"""Binary relations on points and sample-based closure checks.

Universally quantified relation properties are decided on finite samples;
every report records the size of the sample it was decided on, and its
verdict is read off its counterexample pairs, so a failing verdict always
carries at least one.  The infinite-tail condition behind
``witness_d_self_closed`` is proxied by the last ``TAIL_FRACTION`` of the
supplied finite sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import PreconditionError, check_real
from .spaces import (
    Point,
    _PairFunction,
    _pairs_in,
    as_sample,
    as_values,
    describe_point,
    nonempty_sample,
    point_distance,
    row_blocks,
    take,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SelfMap

__all__ = [
    "RelationProperty",
    "Verdict",
    "Relation",
    "RelationReport",
    "SubsequenceWitness",
    "universal_relation",
    "is_preserving",
    "check_t_closed",
    "check_weak_t_closed",
    "find_start_points",
    "check_complete_on",
    "witness_d_self_closed",
]

# Share of a finite sequence, from its end, that stands in for its infinite tail.
TAIL_FRACTION = 0.25
# Largest distance from a sequence's last entry to its limit in ``witness_d_self_closed``.
LIMIT_TOL = 1e-9


class RelationProperty(Enum):
    T_CLOSED = "t_closed"
    WEAK_T_CLOSED = "weak_t_closed"
    COMPLETE = "complete"


class Verdict(Enum):
    HOLDS_ON_SAMPLE = "holds_on_sample"
    FAILS_WITH_WITNESS = "fails_with_witness"


class _Witnessed:
    """A sample verdict read off ``witnesses``: it holds exactly when there are none."""

    @property
    def ok(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> Verdict:
        return Verdict.HOLDS_ON_SAMPLE if self.ok else Verdict.FAILS_WITH_WITNESS


@dataclass(frozen=True)
class Relation(_PairFunction):
    """A decidable predicate over ordered point pairs.

    ``array``, when present, is the same predicate written with numpy
    operations on scalar values; ``matrix`` and ``at`` broadcast it over
    all-scalar samples instead of calling ``holds`` once per pair.
    """

    name: str
    holds: Callable[[Point, Point], bool]
    array: Callable | None = field(default=None, repr=False, compare=False)

    fill = False

    def __call__(self, x: Point, y: Point) -> bool:
        return bool(self.holds(x, y))

    @staticmethod
    def on_grids(name: str, pred) -> "Relation":
        return Relation(name, lambda x, y: bool(pred(as_values(x), as_values(y))))


def universal_relation() -> Relation:
    """The relation that relates every ordered pair, of any point kind; on
    scalar samples it broadcasts, so no point is built."""
    return Relation("universal", lambda x, y: True, lambda x, y: True)


@dataclass(frozen=True)
class RelationReport(_Witnessed):
    """Sample-relative verdict for one relation property."""

    prop: RelationProperty
    witnesses: Sequence[tuple[Point, Point]]
    sample_size: int

    def to_record(self) -> dict:
        return {
            "property": self.prop.value,
            "verdict": self.verdict.value,
            "sample_size": self.sample_size,
            "witnesses": [
                [describe_point(a), describe_point(b)] for a, b in self.witnesses[:10]
            ],
            "witness_count": len(self.witnesses),
        }


def is_preserving(rel: Relation, seq: Sequence[Point]) -> bool:
    """True iff every consecutive pair of the sequence is related."""
    seq = as_sample(seq)
    if len(seq) < 2:
        raise PreconditionError("a preserving check needs at least two points")
    k = np.arange(len(seq))
    return bool(rel.at(seq, seq, k[:-1], k[1:]).all())


def preserving_tail(
    rel: Relation, seq: Sequence[Point], limit: Point, tol: float
) -> tuple[Sequence[Point], int]:
    """``seq`` through ``as_sample`` and the length of its tail window, the
    last ``TAIL_FRACTION`` of it; raises ``PreconditionError`` unless ``seq``
    is a ``rel``-preserving sequence of two or more entries ending within
    ``tol`` of ``limit``."""
    check_real(tol, "tolerance", PreconditionError)
    seq = as_sample(seq)
    if not is_preserving(rel, seq):
        raise PreconditionError(f"sequence is not {rel.name}-preserving")
    gap = point_distance(seq[-1], limit)
    if gap > tol:
        raise PreconditionError(
            f"sequence tail is {gap:.3e} from the limit, above tolerance {tol:.3e}"
        )
    return seq, max(1, int(len(seq) * TAIL_FRACTION))


def _check_closed(
    rel: Relation, map_: "SelfMap", sample: Sequence[Point], either_order: bool
) -> RelationReport:
    sample = nonempty_sample(sample)
    images = map_.apply_all(sample)

    def failing(rows: slice) -> np.ndarray:
        bad = rel.matrix(sample[rows], sample)
        # the related pairs whose images are not related
        bad ^= rel.matrix(images[rows], images, where=bad)
        if either_order:
            bad ^= rel.matrix(images, images[rows], where=bad.T).T
        return bad

    m = len(sample)
    bad = _pairs_in(sample, ((rows, 0, failing(rows)) for rows in row_blocks(m, m)))
    prop = RelationProperty.WEAK_T_CLOSED if either_order else RelationProperty.T_CLOSED
    return RelationReport(prop, bad, len(sample))


def check_t_closed(rel: Relation, map_: "SelfMap", sample: Sequence[Point]) -> RelationReport:
    """Do images of related sampled pairs stay related, in the same order?"""
    return _check_closed(rel, map_, sample, either_order=False)


def check_weak_t_closed(rel: Relation, map_: "SelfMap", sample: Sequence[Point]) -> RelationReport:
    """Like ``check_t_closed`` but the image pair may be related in either order."""
    return _check_closed(rel, map_, sample, either_order=True)


def find_start_points(
    rel: Relation, map_: "SelfMap", sample: Sequence[Point]
) -> Sequence[Point]:
    """All sampled x with (x, map(x)) related, admissible iteration seeds,
    as ``take`` gives them."""
    sample = nonempty_sample(sample)
    k = np.arange(len(sample))
    starts = rel.at(sample, map_.apply_all(sample), k, k)
    return take(sample, np.flatnonzero(starts))


def check_complete_on(rel: Relation, sample: Sequence[Point]) -> RelationReport:
    """Is every sampled pair, including the diagonal, related in some order?"""
    sample = nonempty_sample(sample)

    def unrelated(rows: slice) -> np.ndarray:
        # the pairs (i, j) with j >= i: columns from the block's first row on
        head, tail = sample[rows], sample[rows.start :]
        out = ~np.tri(len(head), len(tail), -1, dtype=bool)
        out &= ~rel.matrix(head, tail, where=out)
        out &= ~rel.matrix(tail, head, where=out.T).T
        return out

    m = len(sample)
    bad = _pairs_in(sample, ((rows, rows.start, unrelated(rows)) for rows in row_blocks(m, m)))
    return RelationReport(RelationProperty.COMPLETE, bad, len(sample))


@dataclass(frozen=True)
class SubsequenceWitness:
    """Indices at which a convergent preserving sequence relates to its limit.

    ``ok`` means the relation held at every index of the tail window, the
    finite proxy for an infinite subsequence; on failure ``indices`` lists
    every position where the relation fails instead.
    """

    ok: bool
    indices: tuple[int, ...]
    tail_start: int


def witness_d_self_closed(rel: Relation, seq: Sequence[Point], limit: Point) -> SubsequenceWitness:
    """Check the subsequence-to-limit condition on a finite sequence.

    The sequence must be preserving and its final entry must lie within
    ``LIMIT_TOL`` of ``limit``; otherwise a ``PreconditionError`` is raised.
    """
    seq, window = preserving_tail(rel, seq, limit, LIMIT_TOL)
    related = rel.matrix(seq, [limit])[:, 0]
    tail_start = len(seq) - window
    ok = bool(related[tail_start:].all())
    return SubsequenceWitness(ok, tuple(np.flatnonzero(related == ok).tolist()), tail_start)
