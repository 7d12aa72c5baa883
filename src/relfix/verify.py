"""Empirical contraction estimates and full hypothesis verification.

``estimate_lambda`` measures the worst ratio p(Tx, Ty) / p(x, y) over the
related pairs of a sample.  Pairs with p(x, y) = 0 are never divided
through: they must map to p(Tx, Ty) = 0 and are otherwise recorded on a
separate violation channel, since 0/0 is a hypothesis question rather than a
number.  It returns the estimate without the diagonal, because a pair
distance may be positive at a fixed point, which pins the ratio at 1, and
the estimate with it, for callers to disclose alongside.  ``verify_theorem``
iterates with the first.

``compare_classical`` measures the same map on the same pairs against the
plain metric contraction and against the generalized displacement
M(x, y) = max{d(x,y), d(x,Tx), d(y,Ty), (d(x,Ty) + d(y,Tx)) / 2}, counting
the pairs on which either test fails.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import OrbitTrace, SelfMap, StopReason, iterate
from .errors import DivergenceError, EstimationError, PreconditionError
from .relations import (
    Relation,
    check_t_closed,
    find_start_points,
    witness_d_self_closed,
)
from .spaces import (
    MetricSpace,
    Point,
    _Pairs,
    _pairs_in,
    as_sample,
    check_space,
    describe_point,
    nonempty_sample,
    points_equal,
    row_blocks,
)
from .wdistance import WDistance

__all__ = [
    "ContractionEstimate",
    "PairComparison",
    "ClassicalComparison",
    "OverallVerdict",
    "TheoremReport",
    "related_pairs",
    "estimate_lambda",
    "compare_classical",
    "verify_theorem",
]

@dataclass(frozen=True)
class ContractionEstimate:
    lambda_hat: float
    witness_pair: tuple[Point, Point] | None
    pairs_checked: int
    zero_p_pairs: int
    zero_p_violations: Sequence[tuple[Point, Point]]
    include_diagonal: bool

    @property
    def is_contraction(self) -> bool:
        """A worst ratio below 1 over at least one checked pair, and no pair
        with p(x, y) = 0 < p(Tx, Ty)."""
        return self.pairs_checked > 0 and self.lambda_hat < 1.0 and not self.zero_p_violations

    def to_record(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "witness_pair": [describe_point(a) for a in self.witness_pair]
            if self.witness_pair
            else None,
            "pairs_checked": self.pairs_checked,
            "zero_p_pairs": self.zero_p_pairs,
            "zero_p_violations": len(self.zero_p_violations),
            "include_diagonal": self.include_diagonal,
            "is_contraction": self.is_contraction,
        }


@dataclass(frozen=True)
class PairComparison:
    x: Point
    y: Point
    d_image: float
    d_pair: float
    m_displacement: float

    def to_record(self) -> dict:
        return {
            "x": describe_point(self.x),
            "y": describe_point(self.y),
            "d_image": self.d_image,
            "d_pair": self.d_pair,
            "m_displacement": self.m_displacement,
        }


@dataclass(frozen=True)
class ClassicalComparison:
    """The related-pair count, how many of those pairs fail the metric and
    the displacement tests, and the first failing pair of each test in
    row-major order (None when no pair fails it)."""

    pairs: int
    banach_failure_count: int
    mt_failure_count: int
    first_banach_failure: PairComparison | None
    first_mt_failure: PairComparison | None

    def to_record(self) -> dict:
        return {
            "pairs": self.pairs,
            "banach_failure_count": self.banach_failure_count,
            "mt_failure_count": self.mt_failure_count,
            "first_banach_failure": _record_or_none(self.first_banach_failure),
            "first_mt_failure": _record_or_none(self.first_mt_failure),
        }


def _record_or_none(row: PairComparison | None) -> dict | None:
    return None if row is None else row.to_record()


class OverallVerdict(Enum):
    ALL_VERIFIED_ON_SAMPLE = "all_verified_on_sample"
    INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class TheoremReport:
    """Per-hypothesis verdicts for the contraction fixed-point theorem."""

    r_complete_proxy: bool
    start_count: int
    t_closed: bool
    continuity_or_self_closed: bool
    contraction: bool
    lambda_hat_with_diagonal: float
    estimate: ContractionEstimate
    orbit: OrbitTrace | None
    reasons: tuple[str, ...]

    @property
    def start_points(self) -> bool:
        return self.start_count > 0

    @property
    def overall(self) -> OverallVerdict:
        verdicts = (self.r_complete_proxy, self.start_points, self.t_closed,
                    self.continuity_or_self_closed, self.contraction)
        if all(verdicts):
            return OverallVerdict.ALL_VERIFIED_ON_SAMPLE
        return OverallVerdict.INCOMPLETE

    @property
    def lambda_hat(self) -> float:
        return self.estimate.lambda_hat

    def to_record(self) -> dict:
        return {
            "r_complete_proxy": self.r_complete_proxy,
            "start_points": self.start_points,
            "t_closed": self.t_closed,
            "continuity_or_self_closed": self.continuity_or_self_closed,
            "contraction": self.contraction,
            "overall": self.overall.value,
            "lambda_hat": self.lambda_hat,
            "lambda_hat_with_diagonal": self.lambda_hat_with_diagonal,
            "estimate": self.estimate.to_record(),
            "orbit": self.orbit.to_record() if self.orbit else None,
            "reasons": list(self.reasons),
        }


# Exact point equality, the diagonal that contraction estimates skip.
_SAME_POINT = Relation("same_point", points_equal, array=np.equal)


class _WorstRatio:
    """Running worst ratios p(Tx, Ty) / p(x, y) over the row blocks of
    ``points`` x ``points`` met in order, without (entry 0) and with (entry 1)
    the diagonal: the first maximum wins, and pairs with p(x, y) = 0 go to
    the zero-p channel instead.  Witnesses and violations are kept as
    indices into ``points``."""

    def __init__(self, points: Sequence[Point]):
        self.points, self.violations = points, ([], [])
        self.best, self.witness = [0.0, 0.0], [None, None]
        self.checked, self.zero_pairs = [0, 0], [0, 0]

    def add(self, same: np.ndarray, base: np.ndarray, image: np.ndarray, rows: slice) -> None:
        """Fold in the block of the rows ``rows`` of ``points`` x ``points``: the
        same-point mask (first, so that it is made before the larger blocks),
        p(x, y) and p(Tx, Ty), NaN off the block's pairs.  ``image`` is
        turned into the ratios."""
        zero = base == 0.0
        positive = base > 0.0
        moved = zero & (image > 0.0)
        np.divide(image, base, out=image, where=positive)
        image[~positive] = -math.inf
        self._fold(1, image, zero, positive, moved, rows)
        image[same] = -math.inf
        for mask in (zero, positive, moved):
            mask[same] = False
        self._fold(0, image, zero, positive, moved, rows)

    def _fold(self, e: int, ratios, zero, positive, moved, rows) -> None:
        m = len(self.points)
        self.checked[e] += int(np.count_nonzero(zero) + np.count_nonzero(positive))
        self.zero_pairs[e] += int(np.count_nonzero(zero))
        self.violations[e].append(_pair_index(rows, m, np.flatnonzero(moved)))
        worst = float(ratios.max(initial=-math.inf))
        if worst > -math.inf and (self.witness[e] is None or worst > self.best[e]):
            self.best[e], self.witness[e] = worst, _pair_index(rows, m, np.argmax(ratios))

    def estimates(self) -> tuple[ContractionEstimate, ContractionEstimate]:
        out = []
        for e, blocks in enumerate(self.violations):
            i, j = (np.concatenate(side) for side in zip(*blocks))
            blocks.clear()  # frees the pieces before the next estimate's are joined
            k = self.witness[e]
            witness = None if k is None else (self.points[k[0]], self.points[k[1]])
            out.append(ContractionEstimate(
                self.best[e], witness, self.checked[e], self.zero_pairs[e],
                _Pairs(self.points, i, j), e == 1,
            ))
        return out[0], out[1]


def _related_blocks(rel: Relation, sample: Sequence[Point]):
    """The row blocks ``rows`` of sample x sample, each with the bool mask of
    the related pairs in ``sample[rows]`` x ``sample``."""
    m = len(sample)
    for rows in row_blocks(m, m):
        yield rows, rel.matrix(sample[rows], sample)


def _pair_index(rows: slice, m: int, k):
    """The sample indices (i, j) of the pairs at flat positions ``k`` of a
    block of the rows ``rows`` of an m-column sample x sample array."""
    return k // m + rows.start, k % m


def related_pairs(rel: Relation, sample: Sequence[Point]) -> Sequence[tuple[Point, Point]]:
    """All related ordered pairs from sample x sample, in row-major order, as
    a sequence of ``(x, y)`` tuples held as index arrays into the sample
    points that appear in some pair."""
    sample = as_sample(sample)
    return _pairs_in(sample, ((rows, 0, related) for rows, related in _related_blocks(rel, sample)))


def estimate_lambda(
    map_: SelfMap,
    p: WDistance,
    rel: Relation,
    sample: Sequence[Point],
) -> tuple[ContractionEstimate, ContractionEstimate]:
    """The worst contraction ratios over every related pair of sample x
    sample, without and with the diagonal, however many pairs there are.

    The relation and the pair distances are evaluated a block of rows at a
    time, and the distances are folded into ratios in place, so no array
    spans the whole sample x sample.  A sample with no related pair raises
    ``EstimationError``.
    """
    sample = as_sample(sample)
    images = map_.apply_all(sample)
    worst = _WorstRatio(sample)
    for rows, related in _related_blocks(rel, sample):
        worst.add(
            _SAME_POINT.matrix(sample[rows], sample, where=related),
            p.matrix(sample[rows], sample, where=related),
            p.matrix(images[rows], images, where=related),
            rows,
        )
    if not worst.checked[1]:
        raise EstimationError("cannot estimate a contraction factor from an empty pair set")
    return worst.estimates()


def compare_classical(
    map_: SelfMap,
    space: MetricSpace,
    rel: Relation,
    sample: Sequence[Point],
) -> ClassicalComparison:
    """The metric and generalized-displacement tests on every related pair
    of sample x sample.

    A pair fails the metric test when its image moved and d(Tx, Ty) >=
    d(x, y), which no factor below 1 can dominate, and the displacement test
    when its image moved and d(Tx, Ty) >= M(x, y), which rules out every
    comparison function strictly below the identity.  The relation and the
    four distances are evaluated a block of rows at a time, and only the
    counts and the first failing pair of each test are kept.  Every sample
    point must lie in ``space``; the images need not.
    """
    sample = as_sample(sample)
    check_space(space, sample)
    m = len(sample)
    images = map_.apply_all(sample)
    d = WDistance.from_metric()
    d_to_image = d.at(sample, images, range(m), range(m))
    pairs, counts, first = 0, [0, 0], [None, None]
    for rows, related in _related_blocks(rel, sample):
        xs, txs = sample[rows], images[rows]
        d_image = d.matrix(txs, images, where=related)
        d_pair = d.matrix(xs, sample, where=related)
        d_cross = 0.5 * (  # d(Tx, y) = d(y, Tx)
            d.matrix(xs, images, where=related) + d.matrix(txs, sample, where=related)
        )
        displacement = np.maximum(
            np.maximum(d_pair, d_to_image[rows, None]), np.maximum(d_to_image[None, :], d_cross)
        )
        moved = d_image > 0.0  # False off the related pairs, where the blocks hold NaN
        pairs += int(np.count_nonzero(related))
        for e, fails in enumerate((moved & (d_image >= d_pair), moved & (d_image >= displacement))):
            counts[e] += int(np.count_nonzero(fails))
            if first[e] is None and fails.any():
                k = int(np.argmax(fails))
                i, j = _pair_index(rows, m, k)
                first[e] = PairComparison(
                    sample[i], sample[j],
                    float(d_image.flat[k]), float(d_pair.flat[k]), float(displacement.flat[k]),
                )
    return ClassicalComparison(pairs, *counts, *first)


def verify_theorem(
    map_: SelfMap,
    space: MetricSpace,
    rel: Relation,
    p: WDistance,
    sample: Sequence[Point],
    orbit_seed: Point,
) -> TheoremReport:
    """Aggregate every hypothesis check and produce the factor to feed the
    iteration engine.

    The completeness of the ambient space is proxied by the generated orbit
    itself: it must converge and stay inside the space.  The
    continuity-or-self-closedness alternative is decided on the self-closed
    branch, witnessed along the generated orbit against its final point.
    """
    check_space(space)
    sample = nonempty_sample(sample)
    if not rel(orbit_seed, map_.apply(orbit_seed)):
        raise PreconditionError("orbit seed is not a start point: (x0, Tx0) unrelated")

    reasons: list[str] = []

    start_count = len(find_start_points(rel, map_, sample))
    if not start_count:
        reasons.append("no sampled start points")

    closure = check_t_closed(rel, map_, sample)
    t_ok = closure.ok
    if not t_ok:
        reasons.append("relation is not map-closed on the sample")

    try:
        estimate, estimate_diag = estimate_lambda(map_, p, rel, sample)
    except EstimationError as exc:
        reasons.append(str(exc))
        empty = ContractionEstimate(math.inf, None, 0, 0, (), False)
        return TheoremReport(
            False, start_count, t_ok, False, False, math.inf, empty, None, tuple(reasons)
        )

    contraction_ok = estimate.is_contraction
    if not contraction_ok:
        reasons.append(
            f"contraction unverified: lambda_hat = {estimate.lambda_hat:.6g}, "
            f"{len(estimate.zero_p_violations)} zero-p violations"
            if estimate.pairs_checked
            else "contraction unverified: no off-diagonal related pair was checked"
        )

    orbit: OrbitTrace | None = None
    self_closed_ok = False
    complete_ok = False
    if contraction_ok:
        try:
            orbit = iterate(map_, orbit_seed, p, estimate.lambda_hat)
            witness = witness_d_self_closed(rel, orbit.points, orbit.final)
            self_closed_ok = witness.ok
            if not self_closed_ok:
                reasons.append("orbit has tail entries unrelated to its limit")
            complete_ok = orbit.stop_reason is StopReason.CONVERGED and all(
                space.contains(pt) for pt in orbit.points
            )
            if not complete_ok:
                reasons.append("orbit did not converge inside the space")
        except (DivergenceError, PreconditionError) as exc:
            reasons.append(f"orbit check failed: {exc}")
    else:
        reasons.append("orbit checks skipped without a verified contraction")

    return TheoremReport(
        complete_ok,
        start_count,
        t_ok,
        self_closed_ok,
        contraction_ok,
        estimate_diag.lambda_hat,
        estimate,
        orbit,
        tuple(reasons),
    )
