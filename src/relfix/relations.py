"""Binary relations on points and sample-based closure checks.

Universally quantified relation properties are decided on finite samples;
every report records the size of the sample it was decided on, and a failing
verdict always carries at least one concrete counterexample pair.  The
infinite-tail condition behind ``witness_d_self_closed`` is proxied by a
declared tail window of the supplied finite sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .spaces import (
    Point,
    as_scalar,
    as_values,
    describe_point,
    evaluate_pairs,
    point_distance,
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


class RelationProperty(Enum):
    T_CLOSED = "t_closed"
    WEAK_T_CLOSED = "weak_t_closed"
    COMPLETE = "complete"
    START_POINTS_NONEMPTY = "start_points_nonempty"


class Verdict(Enum):
    HOLDS_ON_SAMPLE = "holds_on_sample"
    FAILS_WITH_WITNESS = "fails_with_witness"


@dataclass(frozen=True)
class Relation:
    """A decidable predicate over ordered point pairs.

    ``array``, when present, is the same predicate written with numpy
    operations on scalar values; ``matrix`` and ``at`` broadcast it over
    all-scalar samples instead of calling ``holds`` once per pair.
    """

    name: str
    holds: Callable[[Point, Point], bool]
    array: Callable | None = field(default=None, repr=False, compare=False)

    def __call__(self, x: Point, y: Point) -> bool:
        return bool(self.holds(x, y))

    def matrix(
        self, xs: Sequence[Point], ys: Sequence[Point], where: np.ndarray | None = None
    ) -> np.ndarray:
        """Bool array of ``self(xs[i], ys[j])``; False off the ``where`` mask."""
        return evaluate_pairs(self, self.array, xs, ys, fill=False, where=where)

    def at(self, xs: Sequence[Point], ys: Sequence[Point], i, j) -> np.ndarray:
        """Bool array of ``self(xs[i[k]], ys[j[k]])`` over the index pairs."""
        return evaluate_pairs(self, self.array, xs, ys, fill=False, at=(i, j))

    @staticmethod
    def elementwise(name: str, pred: Callable) -> "Relation":
        """A relation on scalar points from one predicate written with numpy
        operations (``&``, ``|``, ``np.where``), so that it accepts floats and
        broadcast arrays alike."""
        return Relation(name, lambda x, y: bool(pred(as_scalar(x), as_scalar(y))), pred)

    @staticmethod
    def on_scalars(name: str, pred: Callable[[float, float], bool]) -> "Relation":
        return Relation(name, lambda x, y: bool(pred(as_scalar(x), as_scalar(y))))

    @staticmethod
    def on_grids(name: str, pred) -> "Relation":
        return Relation(name, lambda x, y: bool(pred(as_values(x), as_values(y))))


def universal_relation() -> Relation:
    """The relation that relates every ordered pair."""
    return Relation("universal", lambda x, y: True)


@dataclass(frozen=True)
class RelationReport:
    """Sample-relative verdict for one relation property."""

    prop: RelationProperty
    verdict: Verdict
    witnesses: tuple[tuple[Point, Point], ...]
    sample_size: int

    def __post_init__(self) -> None:
        if self.verdict is Verdict.FAILS_WITH_WITNESS and not self.witnesses:
            raise PreconditionError("a failing verdict needs at least one witness pair")

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.HOLDS_ON_SAMPLE

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
    seq = list(seq)
    if len(seq) < 2:
        raise PreconditionError("a preserving check needs at least two points")
    k = np.arange(len(seq))
    return bool(rel.at(seq, seq, k[:-1], k[1:]).all())


def preserving_tail(
    rel: Relation, seq: Sequence[Point], limit: Point, tol: float, tail_fraction: float
) -> tuple[list[Point], int]:
    """``seq`` as a list and the length of its tail window, the last
    ``tail_fraction`` of it; raises ``PreconditionError`` unless ``seq`` is a
    ``rel``-preserving sequence of two or more entries ending within ``tol``
    of ``limit``."""
    if not 0.0 < tail_fraction <= 1.0:
        raise PreconditionError(f"tail fraction must lie in (0, 1], got {tail_fraction!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tolerance must be finite and nonnegative, got {tol!r}")
    seq = list(seq)
    if len(seq) < 2:
        raise PreconditionError("need at least two sequence entries")
    if not is_preserving(rel, seq):
        raise PreconditionError(f"sequence is not {rel.name}-preserving")
    gap = point_distance(seq[-1], limit)
    if gap > tol:
        raise PreconditionError(
            f"sequence tail is {gap:.3e} from the limit, above tolerance {tol:.3e}"
        )
    return seq, max(1, int(len(seq) * tail_fraction))


def _check_closed(
    rel: Relation, map_: "SelfMap", sample: Sequence[Point], either_order: bool
) -> RelationReport:
    sample = list(sample)
    if not sample:
        raise PreconditionError("empty sample")
    images = map_.apply_all(sample)
    related = rel.matrix(sample, sample)
    kept = rel.matrix(images, images, where=related)
    if either_order:
        kept |= rel.matrix(images, images, where=(related & ~kept).T).T
    bad = tuple((sample[i], sample[j]) for i, j in np.argwhere(related & ~kept))
    verdict = Verdict.FAILS_WITH_WITNESS if bad else Verdict.HOLDS_ON_SAMPLE
    prop = RelationProperty.WEAK_T_CLOSED if either_order else RelationProperty.T_CLOSED
    return RelationReport(prop, verdict, bad, len(sample))


def check_t_closed(rel: Relation, map_: "SelfMap", sample: Sequence[Point]) -> RelationReport:
    """Do images of related sampled pairs stay related, in the same order?"""
    return _check_closed(rel, map_, sample, either_order=False)


def check_weak_t_closed(rel: Relation, map_: "SelfMap", sample: Sequence[Point]) -> RelationReport:
    """Like ``check_t_closed`` but the image pair may be related in either order."""
    return _check_closed(rel, map_, sample, either_order=True)


def find_start_points(rel: Relation, map_: "SelfMap", sample: Sequence[Point]) -> list[Point]:
    """All sampled x with (x, map(x)) related; admissible iteration seeds."""
    sample = list(sample)
    if not sample:
        raise PreconditionError("empty sample")
    k = np.arange(len(sample))
    starts = rel.at(sample, map_.apply_all(sample), k, k)
    return [x for x, ok in zip(sample, starts) if ok]


def check_complete_on(rel: Relation, sample: Sequence[Point]) -> RelationReport:
    """Is every sampled pair, including the diagonal, related in some order?"""
    sample = list(sample)
    if not sample:
        raise PreconditionError("empty sample")
    related = rel.matrix(sample, sample)
    unrelated = np.triu(~(related | related.T))
    bad = tuple((sample[i], sample[j]) for i, j in np.argwhere(unrelated))
    verdict = Verdict.FAILS_WITH_WITNESS if bad else Verdict.HOLDS_ON_SAMPLE
    return RelationReport(RelationProperty.COMPLETE, verdict, bad, len(sample))


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


def witness_d_self_closed(
    rel: Relation,
    seq: Sequence[Point],
    limit: Point,
    *,
    tol: float = 1e-9,
    tail_fraction: float = 0.25,
) -> SubsequenceWitness:
    """Check the subsequence-to-limit condition on a finite sequence.

    The sequence must be preserving and its final entry must lie within
    ``tol`` of ``limit``; otherwise a ``PreconditionError`` is raised.
    """
    seq, window = preserving_tail(rel, seq, limit, tol, tail_fraction)
    related = rel.matrix(seq, [limit])[:, 0]
    tail_start = len(seq) - window
    if related[tail_start:].all():
        good = tuple(i for i, r in enumerate(related) if r)
        return SubsequenceWitness(True, good, tail_start)
    bad = tuple(i for i, r in enumerate(related) if not r)
    return SubsequenceWitness(False, bad, tail_start)
