"""Picard iteration with certified geometric bounds and uniqueness probes.

The engine generates the orbit x0, Tx0, T^2 x0, ... and records, per step,
the metric gap d(x_n, x_{n+1}), the pair-distance gap p(x_n, x_{n+1}), and
the theoretical tail bound u_n = lambda^n p(x0, x1) / (1 - lambda).
Convergence is detected on d-gaps, not p-gaps: a pair distance may vanish
off the diagonal or stay positive on it, while the metric controls actual
point separation.  lambda is always an input, either an analytic constant
or an estimate from sampling; the engine never invents one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError
from .errors import check_count, check_real
from .relations import Relation, check_complete_on
from .spaces import (
    GridFn,
    Point,
    ScalarPoint,
    ScalarSample,
    _Lazy,
    _assign,
    as_sample,
    as_scalar,
    as_values,
    describe_point,
    point_distance,
    points_equal,
    row_blocks,
)
from .wdistance import WDistance

__all__ = [
    "StopReason",
    "UniquenessVerdict",
    "SelfMap",
    "OrbitTrace",
    "FixedPointCertificate",
    "CauchyCheck",
    "ProbeResult",
    "iterate",
    "cauchy_bound",
    "certify_cauchy",
    "certify_limit_uniqueness",
    "certify_fixed_point",
    "probe_uniqueness",
]

GAP_LIMIT = 1e8
# Final tail bounds u_N, v_N at most this count as vanished in the limit lemma.
VANISH_TOL = 1e-6
# Rounding allowance on d(y, z) <= u_N + v_N, the limit lemma's conclusion.
SEPARATION_SLACK = 1e-12
# Orbit steps over which the uniqueness probe checks the lambda^n decay.
PROBE_STEPS = 25
# Fixed-point candidates farther apart than this in the metric are distinct.
CANDIDATE_SEPARATION = 1e-8
# Rounding allowance on p(x_n, x_m) <= u_n in ``certify_cauchy``.
CAUCHY_SLACK = 1e-10


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


class UniquenessVerdict(Enum):
    UNIQUE_BY_CONDITION_1 = "unique_by_condition_1"
    UNIQUE_BY_CONDITION_2 = "unique_by_condition_2"
    PROBE_FAILED = "probe_failed"


@dataclass(frozen=True)
class SelfMap:
    """A named map from points to points of the same kind.

    ``array``, when present, is the same map written with numpy operations
    on scalar values; ``apply_all`` maps an all-scalar sample through it in
    one call.
    """

    name: str
    apply: Callable[[Point], Point]
    array: Callable | None = field(default=None, repr=False, compare=False)

    def apply_all(self, points: Sequence[Point]) -> Sequence[Point]:
        """The image of every point, in order; a ``ScalarSample`` when the
        array form maps them."""
        sample = as_sample(points) if self.array is not None else points
        if self.array is None or not isinstance(sample, ScalarSample):
            return [self.apply(pt) for pt in sample]
        with np.errstate(all="ignore"):
            image = self.array(sample.values)
        values = np.empty(sample.values.size)
        _assign(values, image, self.name)
        return ScalarSample(values)

    @staticmethod
    def elementwise(name: str, fn: Callable) -> "SelfMap":
        """A map on scalar points from one function written with numpy
        operations (``np.where``, ``np.select``), so that it accepts floats
        and arrays alike."""
        return SelfMap(name, lambda pt: ScalarPoint(fn(as_scalar(pt))), fn)

    @staticmethod
    def on_scalars(name: str, fn: Callable[[float], float]) -> "SelfMap":
        return SelfMap(name, lambda pt: ScalarPoint(fn(as_scalar(pt))))

    @staticmethod
    def on_grids(name: str, fn) -> "SelfMap":
        def apply(pt: Point) -> Point:
            values = as_values(pt)
            return GridFn(pt.grid, fn(values))

        return SelfMap(name, apply)

    @staticmethod
    def identity() -> "SelfMap":
        return SelfMap("identity", lambda pt: pt)


@dataclass(frozen=True)
class OrbitTrace:
    """The recorded orbit together with gap and bound sequences.

    ``points`` has length N + 1 while the gap and bound arrays have length N.
    The bound entries are finite only when ``lambda_used`` is below 1.
    """

    points: tuple[Point, ...]
    p_gaps: np.ndarray
    d_gaps: np.ndarray
    bound: np.ndarray
    lambda_used: float
    stop_reason: StopReason

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    @property
    def final(self) -> Point:
        return self.points[-1]

    def to_record(self) -> dict:
        return {
            "steps": self.steps,
            "stop_reason": self.stop_reason.value,
            "lambda_used": self.lambda_used,
            "final": describe_point(self.final),
            "final_d_gap": float(self.d_gaps[-1]) if self.steps else 0.0,
        }


@dataclass(frozen=True)
class FixedPointCertificate:
    point: Point
    residual: float
    p_self: float


class CauchyCheck(NamedTuple):
    violations: Sequence[tuple[int, int, float, float]]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ProbeResult:
    verdict: UniquenessVerdict
    z: Point | None
    notes: tuple[str, ...] = ()

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "z": describe_point(self.z) if self.z is not None else None,
            "notes": list(self.notes),
        }


def default_tolerance(point: Point) -> float:
    return 1e-9 if isinstance(point, ScalarPoint) else 1e-8


def _build_trace(points, d_gaps, p_gaps, lam, stop) -> OrbitTrace:
    n = len(d_gaps)
    d = np.asarray(d_gaps, dtype=float)
    p = np.asarray(p_gaps, dtype=float)
    p01 = p[0] if n else 0.0
    if lam < 1.0:
        bound = p01 * lam ** np.arange(n) / (1.0 - lam)
    else:
        bound = np.full(n, np.inf)
    for arr in (d, p, bound):
        arr.setflags(write=False)
    return OrbitTrace(tuple(points), p, d, bound, lam, stop)


def iterate(
    map_: SelfMap,
    x0: Point,
    p: WDistance,
    lam: float,
    max_iter: int = 10_000,
    tol: float | None = None,
) -> OrbitTrace:
    """Run Picard iteration from x0 until the d-gap falls below ``tol``.

    Divergence (a gap beyond 1e8 or a non-finite iterate) raises
    ``DivergenceError`` carrying the last finite portion of the trace.
    """
    check_real(lam, "contraction factor", DomainError)
    max_iter = check_count(max_iter, "max_iter", PreconditionError, 1)
    tol = default_tolerance(x0) if tol is None else tol
    check_real(tol, "tolerance", PreconditionError, ends="()")

    points: list[Point] = [x0]
    d_gaps: list[float] = []
    p_gaps: list[float] = []
    stop = StopReason.MAX_ITER
    x = x0
    for _ in range(max_iter):
        try:
            nxt = map_.apply(x)
        except DomainError as exc:
            raise DivergenceError(
                f"iterate of {map_.name} left the finite range: {exc}",
                _build_trace(points, d_gaps, p_gaps, lam, StopReason.DIVERGED),
            ) from exc
        gap = point_distance(x, nxt)
        d_gaps.append(gap)
        p_gaps.append(p(x, nxt))
        points.append(nxt)
        if not math.isfinite(gap) or gap > GAP_LIMIT:
            raise DivergenceError(
                f"gap {gap:.3e} exceeded the divergence threshold {GAP_LIMIT:.0e}",
                _build_trace(points, d_gaps, p_gaps, lam, StopReason.DIVERGED),
            )
        if gap <= tol:
            stop = StopReason.CONVERGED
            break
        x = nxt
    return _build_trace(points, d_gaps, p_gaps, lam, stop)


def cauchy_bound(lam: float, p01: float, n: int) -> float:
    """The geometric tail bound lambda^n * p01 / (1 - lambda)."""
    check_real(lam, "contraction factor", DomainError, 0.0, 1.0, "[)")
    check_real(p01, "initial pair distance", DomainError)
    check_count(n, "step index", DomainError, 0)
    return lam**n * p01 / (1.0 - lam)


def certify_cauchy(trace: OrbitTrace, p: WDistance) -> CauchyCheck:
    """Check p(x_n, x_m) <= u_n + CAUCHY_SLACK for every recorded index pair n < m.
    The violations (n, m, p(x_n, x_m), u_n) come in row-major order, held as
    arrays of n, m and p(x_n, x_m); each tuple is built when it is read.
    The bound u_n exists only for a ``lambda_used`` in [0, 1), the domain of
    ``cauchy_bound``; any other raises ``PreconditionError``."""
    check_real(trace.lambda_used, "contraction factor lambda", PreconditionError, 0.0, 1.0, "[)")
    pts = trace.points
    if not pts:
        raise PreconditionError("empty trace")
    count = len(pts)
    bound = np.asarray(trace.bound, dtype=float)
    index = np.arange(count)
    n, m, values = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for rows in row_blocks(count - 1, count):
        later = index[rows, None] < index[None, :]
        block = p.matrix(pts[rows], pts, where=later)
        i, j = np.nonzero(later & (block > bound[rows, None] + CAUCHY_SLACK))
        n.append(i + rows.start)
        m.append(j)
        values.append(block[i, j])
    n, m, values = (np.concatenate(a) for a in (n, m, values))
    return CauchyCheck(_Lazy(
        n.size, lambda k: (int(n[k]), int(m[k]), float(values[k]), float(bound[n[k]]))
    ))


def certify_limit_uniqueness(
    p: WDistance,
    xs: Sequence[Point],
    y: Point,
    z: Point,
    u: Sequence[float],
    v: Sequence[float],
) -> bool:
    """Numeric form of the two-target limit lemma: the bounds force y = z.

    Verifies p(x_n, y) <= u_n and p(x_n, z) <= v_n for every n and that both
    bound sequences have vanished at the tail (final values at most
    ``VANISH_TOL``), then asserts d(y, z) <= u[-1] + v[-1] + SEPARATION_SLACK
    in the point metric.
    """
    xs = as_sample(xs)
    if not xs or len(u) != len(xs) or len(v) != len(xs):
        raise PreconditionError("xs, u, v must be nonempty and of equal length")
    check_real(u[-1], "final bound u_N", PreconditionError, 0.0, VANISH_TOL)
    check_real(v[-1], "final bound v_N", PreconditionError, 0.0, VANISH_TOL)
    for n, x in enumerate(xs):
        if not p(x, y) <= u[n]:  # so that a NaN bound fails too
            raise PreconditionError(f"hypothesis p(x_n, y) <= u_n fails at n = {n}")
        if not p(x, z) <= v[n]:
            raise PreconditionError(f"hypothesis p(x_n, z) <= v_n fails at n = {n}")
    return point_distance(y, z) <= u[-1] + v[-1] + SEPARATION_SLACK


def certify_fixed_point(map_: SelfMap, point: Point, p: WDistance) -> FixedPointCertificate:
    """Issue a certificate after re-checking the residual with an extra map
    application; refuses when either residual exceeds
    ``default_tolerance(point)``."""
    tol = default_tolerance(point)
    image = map_.apply(point)
    residual = point_distance(point, image)
    follow_up = point_distance(image, map_.apply(image))
    if residual > tol or follow_up > tol:
        raise PreconditionError(
            f"residual {residual:.3e} (follow-up {follow_up:.3e}) above tolerance {tol:.3e}"
        )
    return FixedPointCertificate(point, residual, p(point, point))


def _geometric_decay_holds(
    map_: SelfMap,
    p: WDistance,
    lam: float,
    z: Point,
    candidates: list[Point],
    tol: float,
) -> bool:
    """Whether p(T^n z, c) <= lam^n p(z, c) + tol for every candidate c and
    n <= ``PROBE_STEPS``.  Once T returns its point bit for bit the orbit
    stays there, so the steps left are checked against the same p values."""
    base = [p(z, c) for c in candidates]
    gaps, moving = base, True
    for n in range(PROBE_STEPS + 1):
        if any(gap > lam**n * p0 + tol for gap, p0 in zip(gaps, base)):
            return False
        if moving and n < PROBE_STEPS:
            image = map_.apply(z)
            if moving := not _same_bits(image, z):
                z, gaps = image, [p(image, c) for c in candidates]
    return True


def _same_bits(x: Point, y: Point) -> bool:
    """Of one kind and equal bit for bit (-0.0 is not 0.0)."""
    x, y = (np.asarray(pt.values if isinstance(pt, GridFn) else pt.value) for pt in (x, y))
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _first_of_each(pool: Sequence[Point], index: np.ndarray) -> list[int]:
    """``index`` in order, less each entry whose point in a ``ScalarSample``
    ``pool`` equals an earlier one's bit for bit (-0.0 is not 0.0)."""
    if isinstance(pool, ScalarSample):
        _, first = np.unique(pool.values[index].view(np.int64), return_index=True)
        index = index[np.sort(first)]
    return index.tolist()


def probe_uniqueness(
    rel: Relation,
    map_: SelfMap,
    p: WDistance,
    lam: float,
    fp_candidates: Sequence[Point],
    sample: Sequence[Point],
    *,
    z_hint: Point | None = None,
) -> ProbeResult:
    """Try the two uniqueness conditions against the candidate fixed points.

    Each candidate's residual must be within ``default_tolerance``.
    Condition 1 looks for a point z related to every candidate (a caller
    hint is tried first, before the sample is mapped, then images of the
    sample in order, each scalar image once, as the test depends on z alone)
    and verifies the lambda^n decay of p(T^n z, c) over ``PROBE_STEPS``
    steps, mapping the orbit only until T fixes it bit for bit; condition 2
    checks completeness of the relation on the image sample and that the
    contraction forces the pair distance between distinct candidates to
    vanish.  Both allow ``default_tolerance`` of the first candidate on
    their inequalities.  Candidates farther apart than
    ``CANDIDATE_SEPARATION`` in the metric are distinct, and no condition
    certifies uniqueness for them.  The verdict names the condition that
    certified uniqueness, or reports failure.
    """
    check_real(lam, "contraction factor", DomainError)
    candidates = list(fp_candidates)
    if not candidates:
        raise PreconditionError("no fixed-point candidates supplied")
    tol = default_tolerance(candidates[0])
    for c in candidates:
        tol_c = default_tolerance(c)
        res = point_distance(c, map_.apply(c))
        if res > tol_c:
            raise PreconditionError(
                f"candidate residual {res:.3e} above tolerance {tol_c:.3e}"
            )

    notes: list[str] = []
    separated = any(
        point_distance(a, b) > CANDIDATE_SEPARATION
        for i, a in enumerate(candidates)
        for b in candidates[i + 1 :]
    )

    # Condition 1: a common relation ancestor with geometrically decaying
    # pair distance to every candidate.
    mapped = functools.cache(lambda: map_.apply_all(sample))

    def pools():  # the hint first, then the images, mapped only when reached
        yield [] if z_hint is None else [z_hint]
        yield mapped()

    ancestors = (  # points built only when reached
        pool[k]
        for pool in pools()
        for k in _first_of_each(pool, np.flatnonzero(rel.matrix(pool, candidates).all(axis=1)))
    )
    z = None
    for z in ancestors:
        if _geometric_decay_holds(map_, p, lam, z, candidates, tol):
            if not separated:
                return ProbeResult(UniquenessVerdict.UNIQUE_BY_CONDITION_1, z)
            notes.append("decay held but candidates stay separated")
            break
    else:
        notes.append(
            "no sampled image is related to every candidate" if z is None
            else "no related z sustained the geometric decay"
        )

    # Condition 2: relation complete on the image sample and the contraction
    # collapses every distinct candidate pair.
    images = mapped()
    if images and not check_complete_on(rel, images).ok:
        notes.append("relation is not complete on the image sample")
    elif images:
        failure = (
            "contraction factor not below 1, condition 2 inapplicable" if lam >= 1.0
            else _collapse_failure(rel, map_, p, lam, tol, candidates)
        )
        if failure is None:
            return ProbeResult(UniquenessVerdict.UNIQUE_BY_CONDITION_2, None, tuple(notes))
        notes.append(failure)
    return ProbeResult(UniquenessVerdict.PROBE_FAILED, None, tuple(notes))


def _collapse_failure(rel, map_, p, lam: float, tol: float, candidates) -> str | None:
    """Why condition 2 fails on the first distinct candidate pair it fails on,
    or None when the contraction collapses every one of them."""
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            if points_equal(a, b):
                continue
            if rel(a, b):
                first, second = a, b
            elif rel(b, a):
                first, second = b, a
            else:
                return "candidate pair unrelated in both orders"
            pv = p(first, second)
            if p(map_.apply(first), map_.apply(second)) > lam * pv + tol:
                return "contraction fails on a candidate pair"
            if pv > tol / (1.0 - lam) or point_distance(a, b) > CANDIDATE_SEPARATION:
                return "candidate pair distance did not collapse"
    return None
