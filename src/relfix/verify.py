"""Empirical contraction estimates and full hypothesis verification.

``estimate_lambda`` measures the worst ratio p(Tx, Ty) / p(x, y) over related
sampled pairs.  Pairs with p(x, y) = 0 are never divided through: they must
map to p(Tx, Ty) = 0 and are otherwise recorded on a separate violation
channel, since 0/0 is a hypothesis question rather than a number.  Diagonal
pairs are excluded by default because a pair distance may be positive at a
fixed point, which pins the ratio at 1; callers are expected to disclose the
diagonal-included estimate alongside.  It and ``verify_theorem`` share one
fold, which keeps the witnesses and zero-p violations as point indices.

``compare_classical`` measures the same map against the plain metric
contraction and against the generalized displacement
M(x, y) = max{d(x,y), d(x,Tx), d(y,Ty), (d(x,Ty) + d(y,Tx)) / 2}, recording
every pair on which either comparison test fails.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .engine import OrbitTrace, SelfMap, StopReason, iterate
from .errors import DivergenceError, EstimationError, PreconditionError, ShapeError
from .relations import (
    Relation,
    check_t_closed,
    find_start_points,
    witness_d_self_closed,
)
from .spaces import (
    MetricSpace,
    Point,
    _Lazy,
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

# Most related pairs ``related_pairs`` returns; past it they are strided down.
# The contraction estimates of ``verify_theorem`` read every related pair.
PAIR_CAP = 1_000_000


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
    rows: Sequence[PairComparison]
    banach_failures: Sequence[PairComparison]
    mt_failures: Sequence[PairComparison]

    def to_record(self) -> dict:
        return {
            "pairs": len(self.rows),
            "banach_failures": [r.to_record() for r in self.banach_failures[:10]],
            "banach_failure_count": len(self.banach_failures),
            "mt_failures": [r.to_record() for r in self.mt_failures[:10]],
            "mt_failure_count": len(self.mt_failures),
        }


class OverallVerdict(Enum):
    ALL_VERIFIED_ON_SAMPLE = "all_verified_on_sample"
    INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class TheoremReport:
    """Per-hypothesis verdicts for the contraction fixed-point theorem."""

    r_complete_proxy: bool
    start_points: bool
    t_closed: bool
    continuity_or_self_closed: bool
    contraction: bool
    overall: OverallVerdict
    lambda_hat: float
    lambda_hat_with_diagonal: float
    estimate: ContractionEstimate
    orbit: OrbitTrace | None
    reasons: tuple[str, ...]

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
    """Running worst ratios p(Tx, Ty) / p(x, y) over blocks of pairs met in
    order, without (entry 0) and with (entry 1) the diagonal: the first
    maximum wins, and pairs with p(x, y) = 0 go to the zero-p channel
    instead.  Witnesses and violations are kept as indices into ``points``."""

    def __init__(self, points: Sequence[Point]):
        self.points, self.violations = points, ([], [])
        self.best, self.witness = [0.0, 0.0], [None, None]
        self.checked, self.zero_pairs = [0, 0], [0, 0]

    def add(self, same: np.ndarray, base: np.ndarray, image: np.ndarray, index: Callable) -> None:
        """Fold in one block: the same-point mask (first, so that it is made
        before the larger blocks), p(x, y) and p(Tx, Ty), NaN off the block's
        pairs, and ``index(k)``, the point indices (i, j) at flat positions k.
        ``image`` is turned into the ratios."""
        zero = base == 0.0
        positive = base > 0.0
        moved = zero & (image > 0.0)
        np.divide(image, base, out=image, where=positive)
        image[~positive] = -math.inf
        self._fold(1, image, zero, positive, moved, index)
        image[same] = -math.inf
        for mask in (zero, positive, moved):
            mask[same] = False
        self._fold(0, image, zero, positive, moved, index)

    def _fold(self, e: int, ratios, zero, positive, moved, index) -> None:
        self.checked[e] += int(np.count_nonzero(zero) + np.count_nonzero(positive))
        self.zero_pairs[e] += int(np.count_nonzero(zero))
        self.violations[e].append(index(np.flatnonzero(moved)))
        worst = float(ratios.max(initial=-math.inf))
        if worst > -math.inf and (self.witness[e] is None or worst > self.best[e]):
            self.best[e], self.witness[e] = worst, index(np.argmax(ratios))

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


def _index_pairs(
    rel: Relation, pairs: Sequence[tuple[Point, Point]]
) -> tuple[Sequence[Point], np.ndarray, np.ndarray]:
    """The pairs' distinct points and index arrays with
    ``pairs[k] == (points[i[k]], points[j[k]])``, all related under ``rel``.

    Index-backed pairs give their own arrays, re-checked unless
    ``related_pairs`` built them under ``rel``; any other sequence is hashed
    into its distinct points in order of first appearance."""
    if isinstance(pairs, _Pairs):
        points, i, j = pairs.points, pairs.i, pairs.j
        if pairs.relation is rel:
            return points, i, j
    else:
        index: dict[Point, int] = {}
        i, j = [], []
        for pair in pairs:
            try:
                x, y = pair
            except (TypeError, ValueError):
                raise ShapeError(f"pair entries must be (x, y), got {pair!r}") from None
            i.append(index.setdefault(x, len(index)))
            j.append(index.setdefault(y, len(index)))
        points = as_sample(index)
        i, j = np.array(i, dtype=np.intp), np.array(j, dtype=np.intp)
    if not rel.at(points, points, i, j).all():
        raise PreconditionError(f"pair is not related under {rel.name}")
    return points, i, j


def _related_blocks(rel: Relation, sample: Sequence[Point]):
    """The row blocks ``rows`` of sample x sample, each with the bool mask of
    the related pairs in ``sample[rows]`` x ``sample``."""
    m = len(sample)
    for rows in row_blocks(m, m):
        yield rows, rel.matrix(sample[rows], sample)


def related_pairs(rel: Relation, sample: Sequence[Point]) -> Sequence[tuple[Point, Point]]:
    """All related ordered pairs from sample x sample; past ``PAIR_CAP`` of
    them, every k-th one in row-major order, k the least stride that keeps
    at most ``PAIR_CAP``.  Only when m^2 exceeds ``PAIR_CAP`` are the pairs
    counted first, in a pass of their own.

    The pairs are a sequence of ``(x, y)`` tuples held as index arrays into
    the sample points that appear in some pair; ``estimate_lambda`` and
    ``compare_classical`` read those arrays directly."""
    sample = as_sample(sample)
    m = len(sample)
    stride = 1
    if m * m > PAIR_CAP:
        total = sum(int(np.count_nonzero(related)) for _, related in _related_blocks(rel, sample))
        stride = max(1, math.ceil(total / PAIR_CAP))

    def kept():
        seen = 0
        for rows, related in _related_blocks(rel, sample):
            if stride > 1:
                chosen = np.flatnonzero(related)
                related[:] = False
                related.flat[chosen[-seen % stride :: stride]] = True
                seen += chosen.size
                del chosen
            yield rows, 0, related

    return _pairs_in(sample, kept(), rel)


def estimate_lambda(
    map_: SelfMap,
    p: WDistance,
    rel: Relation,
    pairs: Sequence[tuple[Point, Point]],
    include_diagonal: bool = False,
) -> ContractionEstimate:
    """Worst-case contraction ratio over the supplied related pairs."""
    points, i, j = _index_pairs(rel, pairs)
    if not i.size:
        raise EstimationError("cannot estimate a contraction factor from an empty pair set")
    images = map_.apply_all(points)
    worst = _WorstRatio(points)
    worst.add(
        _SAME_POINT.at(points, points, i, j), p.at(points, points, i, j),
        p.at(images, images, i, j), lambda k: (i[k], j[k]),
    )
    return worst.estimates()[include_diagonal]


def compare_classical(
    map_: SelfMap,
    space: MetricSpace,
    rel: Relation,
    pairs: Sequence[tuple[Point, Point]],
) -> ClassicalComparison:
    """Metric and generalized-displacement comparison on related pairs.

    A pair lands in ``banach_failures`` when d(Tx, Ty) >= d(x, y) > 0 is
    impossible to dominate with any factor below 1, and in ``mt_failures``
    when d(Tx, Ty) >= M(x, y), which rules out every comparison function
    that is strictly below the identity.  Every paired point must lie in
    ``space``; the images need not.
    """
    points, i, j = _index_pairs(rel, pairs)
    check_space(space, points)
    images = map_.apply_all(points)
    d = WDistance.from_metric()
    d_image = d.at(images, images, i, j)
    d_pair = d.at(points, points, i, j)
    d_cross = 0.5 * (d.at(points, images, i, j) + d.at(points, images, j, i))
    d_to_image = d.at(points, images, range(len(points)), range(len(points)))
    displacement = np.maximum.reduce([d_pair, d_to_image[i], d_to_image[j], d_cross])

    def row(k: int) -> PairComparison:
        return PairComparison(
            points[i[k]], points[j[k]],
            float(d_image[k]), float(d_pair[k]), float(displacement[k]),
        )

    moved = d_image > 0.0
    banach = np.flatnonzero(moved & (d_image >= d_pair))
    mt = np.flatnonzero(moved & (d_image >= displacement))
    return ClassicalComparison(
        _Lazy(i.size, row),
        _Lazy(banach.size, lambda n: row(banach[n])),
        _Lazy(mt.size, lambda n: row(mt[n])),
    )


def _sample_estimates(
    map_: SelfMap,
    p: WDistance,
    rel: Relation,
    sample: Sequence[Point],
) -> tuple[ContractionEstimate, ContractionEstimate]:
    """The estimates without and with the diagonal over every related sample
    pair, however many there are.

    The relation and the pair distances are evaluated a block of rows at a
    time, and the distances are folded into ratios in place, so no array
    spans the whole sample x sample.
    """
    m = len(sample)
    images = map_.apply_all(sample)
    worst = _WorstRatio(sample)
    for rows, related in _related_blocks(rel, sample):
        worst.add(
            _SAME_POINT.matrix(sample[rows], sample, where=related),
            p.matrix(sample[rows], sample, where=related),
            p.matrix(images[rows], images, where=related),
            lambda k: (k // m + rows.start, k % m),
        )
    if not worst.checked[1]:
        raise EstimationError("cannot estimate a contraction factor from an empty pair set")
    return worst.estimates()


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

    starts = find_start_points(rel, map_, sample)
    start_ok = bool(starts)
    if not start_ok:
        reasons.append("no sampled start points")

    closure = check_t_closed(rel, map_, sample)
    t_ok = closure.ok
    if not t_ok:
        reasons.append("relation is not map-closed on the sample")

    try:
        estimate, estimate_diag = _sample_estimates(map_, p, rel, sample)
    except EstimationError as exc:
        reasons.append(str(exc))
        empty = ContractionEstimate(math.inf, None, 0, 0, (), False)
        return TheoremReport(
            False, start_ok, t_ok, False, False,
            OverallVerdict.INCOMPLETE, math.inf, math.inf, empty, None, tuple(reasons),
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

    verdicts = (complete_ok, start_ok, t_ok, self_closed_ok, contraction_ok)
    overall = (
        OverallVerdict.ALL_VERIFIED_ON_SAMPLE
        if all(verdicts)
        else OverallVerdict.INCOMPLETE
    )
    return TheoremReport(
        complete_ok,
        start_ok,
        t_ok,
        self_closed_ok,
        contraction_ok,
        overall,
        estimate.lambda_hat,
        estimate_diag.lambda_hat,
        estimate,
        orbit,
        tuple(reasons),
    )
