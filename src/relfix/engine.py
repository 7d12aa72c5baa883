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

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError
from .relations import Relation, check_complete_on
from .spaces import (
    GridFn,
    Point,
    ScalarPoint,
    as_scalar,
    as_values,
    describe_point,
    point_distance,
    points_equal,
    row_blocks,
    scalar_values,
)
from .wdistance import WDistance

# Rows formatted and written at a time by the CSV writers, so that a long
# file is never held whole as one string.
CSV_BLOCK_ROWS = 256

__all__ = [
    "StopReason",
    "UniquenessVerdict",
    "SelfMap",
    "OrbitTrace",
    "FixedPointCertificate",
    "CauchyCheck",
    "ProbeResult",
    "default_tolerance",
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


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


class UniquenessVerdict(Enum):
    UNIQUE_BY_CONDITION_1 = "unique_by_condition_1"
    UNIQUE_BY_CONDITION_2 = "unique_by_condition_2"
    NOT_PROBED = "not_probed"
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

    def apply_all(self, points: Sequence[Point]) -> list[Point]:
        """The image of every point, in order."""
        values = scalar_values(points) if self.array is not None else None
        if values is None:
            return [self.apply(pt) for pt in points]
        with np.errstate(all="ignore"):
            images = np.broadcast_to(self.array(values), values.shape)
        return [ScalarPoint(v) for v in images.tolist()]

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

    def to_csv(self, path) -> None:
        """Write rows of (n, point value or sup norm, d_gap, p_gap, bound)."""
        sizes = [pt.value if isinstance(pt, ScalarPoint) else pt.sup_norm for pt in self.points]
        with open(path, "w", newline="") as fh:
            fh.write("n,point_or_norm,d_gap,p_gap,bound\r\n")
            for s in range(0, self.steps, CSV_BLOCK_ROWS):
                block = slice(s, s + CSV_BLOCK_ROWS)
                rows = zip(
                    range(s, s + CSV_BLOCK_ROWS), sizes[block], self.d_gaps[block].tolist(),
                    self.p_gaps[block].tolist(), self.bound[block].tolist(),
                )
                fh.write("".join(f"{n},{x!r},{d!r},{p!r},{b!r}\r\n" for n, x, d, p, b in rows))
            fh.write(f"{self.steps},{sizes[-1]!r},,,\r\n")

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
    unique: UniquenessVerdict

    def to_record(self) -> dict:
        return {
            "point": describe_point(self.point),
            "residual": self.residual,
            "p_self": self.p_self,
            "unique": self.unique.value,
        }


class CauchyCheck(NamedTuple):
    ok: bool
    violations: tuple[tuple[int, int, float, float], ...]


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
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"contraction factor must be a finite nonnegative real, got {lam!r}")
    if max_iter < 1:
        raise PreconditionError("max_iter must be at least 1")
    if tol is None:
        tol = default_tolerance(x0)
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be finite and positive, got {tol!r}")

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
    if not (0.0 <= lam < 1.0):
        raise DomainError(f"contraction factor must lie in [0, 1), got {lam!r}")
    if p01 < 0.0:
        raise DomainError("initial pair distance must be nonnegative")
    if n < 0:
        raise DomainError("step index must be nonnegative")
    return lam**n * p01 / (1.0 - lam)


def certify_cauchy(trace: OrbitTrace, p: WDistance, tol: float = 1e-10) -> CauchyCheck:
    """Check p(x_n, x_m) <= u_n + tol for every recorded index pair n < m."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tolerance must be finite and nonnegative, got {tol!r}")
    pts = trace.points
    if not pts:
        raise PreconditionError("empty trace")
    count = len(pts)
    bound = np.asarray(trace.bound, dtype=float)
    index = np.arange(count)
    violations = []
    for rows in row_blocks(count - 1, count):
        later = index[rows, None] < index[None, :]
        values = p.matrix(pts[rows], pts, where=later)
        for i, j in np.argwhere(later & (values > bound[rows, None] + tol)):
            n = rows.start + int(i)
            violations.append((n, int(j), float(values[i, j]), float(bound[n])))
    return CauchyCheck(not violations, tuple(violations))


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
    xs = list(xs)
    u = [float(a) for a in u]
    v = [float(a) for a in v]
    if not xs or len(u) != len(xs) or len(v) != len(xs):
        raise PreconditionError("xs, u, v must be nonempty and of equal length")
    if u[-1] > VANISH_TOL or v[-1] > VANISH_TOL:
        raise PreconditionError(
            f"bound sequences have not vanished: final values {u[-1]:.3e}, {v[-1]:.3e}"
        )
    for n, x in enumerate(xs):
        if p(x, y) > u[n]:
            raise PreconditionError(f"hypothesis p(x_n, y) <= u_n fails at n = {n}")
        if p(x, z) > v[n]:
            raise PreconditionError(f"hypothesis p(x_n, z) <= v_n fails at n = {n}")
    return point_distance(y, z) <= u[-1] + v[-1] + SEPARATION_SLACK


def certify_fixed_point(
    map_: SelfMap,
    point: Point,
    p: WDistance,
    unique: UniquenessVerdict = UniquenessVerdict.NOT_PROBED,
) -> FixedPointCertificate:
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
    return FixedPointCertificate(point, residual, p(point, point), unique)


def _geometric_decay_holds(
    map_: SelfMap,
    p: WDistance,
    lam: float,
    z: Point,
    candidates: list[Point],
    tol: float,
) -> bool:
    base = [p(z, c) for c in candidates]
    zn = z
    for n in range(PROBE_STEPS + 1):
        factor = lam**n
        for c, p0 in zip(candidates, base):
            if p(zn, c) > factor * p0 + tol:
                return False
        if n < PROBE_STEPS:
            zn = map_.apply(zn)
    return True


def probe_uniqueness(
    rel: Relation,
    map_: SelfMap,
    p: WDistance,
    lam: float,
    fp_candidates: Sequence[Point],
    sample: Sequence[Point],
    *,
    decay_tol: float = 1e-9,
    z_hint: Point | None = None,
) -> ProbeResult:
    """Try the two uniqueness conditions against the candidate fixed points.

    Each candidate's residual must be within ``default_tolerance``.
    Condition 1 looks for a point z related to every candidate (a caller
    hint is tried first, then images of the sample) and verifies the
    lambda^n decay of p(T^n z, c), up to ``decay_tol``, over ``PROBE_STEPS``
    steps; condition 2 checks completeness of the relation on the image
    sample and that the contraction forces the pair distance between
    distinct candidates to vanish.  Candidates farther apart than
    ``CANDIDATE_SEPARATION`` in the metric are distinct, and no condition
    certifies uniqueness for them.  The verdict names the condition that
    certified uniqueness, or reports failure.
    """
    if not (math.isfinite(decay_tol) and decay_tol >= 0.0):
        raise PreconditionError(f"decay_tol must be finite and nonnegative, got {decay_tol!r}")
    candidates = list(fp_candidates)
    if not candidates:
        raise PreconditionError("no fixed-point candidates supplied")
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
    images = map_.apply_all(sample)
    z_pool = ([z_hint] if z_hint is not None else []) + images
    related_to_all = rel.matrix(z_pool, candidates).all(axis=1)
    found_related_z = False
    for z, related in zip(z_pool, related_to_all):
        if not related:
            continue
        found_related_z = True
        if _geometric_decay_holds(map_, p, lam, z, candidates, decay_tol):
            if separated:
                notes.append("decay held but candidates stay separated")
                break
            return ProbeResult(UniquenessVerdict.UNIQUE_BY_CONDITION_1, z, tuple(notes))
    if found_related_z and not notes:
        notes.append("no related z sustained the geometric decay")
    elif not found_related_z:
        notes.append("no sampled image is related to every candidate")

    # Condition 2: relation complete on the image sample and the contraction
    # collapses every distinct candidate pair.
    completeness = check_complete_on(rel, images) if images else None
    if completeness is not None and completeness.ok:
        if lam >= 1.0:
            notes.append("contraction factor not below 1, condition 2 inapplicable")
        else:
            collapse_ok = True
            for i, a in enumerate(candidates):
                for b in candidates[i + 1 :]:
                    if points_equal(a, b):
                        continue
                    if rel(a, b):
                        first, second = a, b
                    elif rel(b, a):
                        first, second = b, a
                    else:
                        collapse_ok = False
                        notes.append("candidate pair unrelated in both orders")
                        break
                    pv = p(first, second)
                    contracted = p(map_.apply(first), map_.apply(second))
                    if contracted > lam * pv + decay_tol:
                        collapse_ok = False
                        notes.append("contraction fails on a candidate pair")
                        break
                    if pv > decay_tol / (1.0 - lam) or point_distance(a, b) > CANDIDATE_SEPARATION:
                        collapse_ok = False
                        notes.append("candidate pair distance did not collapse")
                        break
                if not collapse_ok:
                    break
            if collapse_ok and not separated:
                return ProbeResult(UniquenessVerdict.UNIQUE_BY_CONDITION_2, None, tuple(notes))
    elif completeness is not None:
        notes.append("relation is not complete on the image sample")

    return ProbeResult(UniquenessVerdict.PROBE_FAILED, None, tuple(notes))
