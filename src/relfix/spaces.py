"""Points, grids, and the two concrete metric-space kinds.

Two kinds of space are supported: real intervals (possibly half-open on the
right) and spaces of grid functions on a uniform grid over [0, 1].  The grid
metric is the maximum over nodes, the discrete stand-in for the sup norm.
All values are immutable after construction, so every operation here is pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, SamplingError, ShapeError

__all__ = [
    "Grid",
    "ScalarPoint",
    "GridFn",
    "Point",
    "Interval",
    "FunctionSpace",
    "MetricSpace",
    "scalar",
    "grid_fn",
    "zero_grid_fn",
    "constant_grid_fn",
    "as_scalar",
    "as_values",
    "points_equal",
    "point_distance",
    "describe_point",
    "interval_space",
    "function_space",
    "metric_eval",
    "sample_space",
    "MAX_SAMPLE_POINTS",
    "MAX_GRID_N",
    "scalar_values",
    "row_blocks",
    "evaluate_pairs",
]

MAX_SAMPLE_POINTS = 1_000_000

# Largest grid subinterval count: a grid function then takes 8 MB.
MAX_GRID_N = 2**20

# Elements per block when a pair array is built a few rows at a time.
BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with ``n`` subintervals, nodes ``i / n``."""

    n: int

    def __post_init__(self) -> None:
        n = self.n
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"grid needs a positive integer subinterval count, got {n!r}")
        if n > MAX_GRID_N:
            raise DomainError(f"grid subinterval count {n} exceeds the limit {MAX_GRID_N}")
        object.__setattr__(self, "n", int(n))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.linspace(0.0, 1.0, self.n + 1)
        t.setflags(write=False)
        return t


@dataclass(frozen=True)
class ScalarPoint:
    """A real scalar value."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise DomainError(f"scalar point must be finite, got {self.value!r}")


@dataclass(frozen=True, eq=False)
class GridFn:
    """Real-valued function sampled at the nodes of a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n + 1,):
            raise ShapeError(
                f"expected {self.grid.n + 1} node values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


Point = Union[ScalarPoint, GridFn]


def scalar(value: float) -> ScalarPoint:
    return ScalarPoint(float(value))


def grid_fn(grid: Grid, values: Sequence[float]) -> GridFn:
    return GridFn(grid, np.asarray(values, dtype=float))


def zero_grid_fn(grid: Grid) -> GridFn:
    return GridFn(grid, np.zeros(grid.n + 1))


def constant_grid_fn(grid: Grid, value: float) -> GridFn:
    return GridFn(grid, np.full(grid.n + 1, float(value)))


def as_scalar(point: Point) -> float:
    if not isinstance(point, ScalarPoint):
        raise ShapeError(f"expected a scalar point, got {type(point).__name__}")
    return point.value


def as_values(point: Point) -> np.ndarray:
    if not isinstance(point, GridFn):
        raise ShapeError(f"expected a grid function, got {type(point).__name__}")
    return point.values


def points_equal(x: Point, y: Point) -> bool:
    """Exact value equality; grid functions must share the grid."""
    if isinstance(x, ScalarPoint) and isinstance(y, ScalarPoint):
        return x.value == y.value
    if isinstance(x, GridFn) and isinstance(y, GridFn):
        return x.grid == y.grid and bool(np.array_equal(x.values, y.values))
    return False


def point_distance(x: Point, y: Point) -> float:
    """Canonical distance for the point kind: |x - y| or max over nodes."""
    if isinstance(x, ScalarPoint) and isinstance(y, ScalarPoint):
        return abs(x.value - y.value)
    if isinstance(x, GridFn) and isinstance(y, GridFn):
        if x.grid != y.grid:
            raise ShapeError("grid functions live on different grids")
        return float(np.max(np.abs(x.values - y.values)))
    raise ShapeError(
        f"cannot measure distance between {type(x).__name__} and {type(y).__name__}"
    )


def describe_point(point: Point) -> dict:
    """Plain-data summary used by serialized reports."""
    if isinstance(point, ScalarPoint):
        return {"kind": "scalar", "value": point.value}
    return {"kind": "grid_fn", "n": point.grid.n, "sup_norm": point.sup_norm}


@dataclass(frozen=True)
class Interval:
    """Real interval [lo, hi] or [lo, hi) when ``hi_inclusive`` is false."""

    lo: float
    hi: float
    hi_inclusive: bool = True

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, value: float) -> bool:
        # The open endpoint is decided by exact comparison, no epsilon.
        if value < self.lo:
            return False
        return value <= self.hi if self.hi_inclusive else value < self.hi


@dataclass(frozen=True)
class FunctionSpace:
    """All grid functions on a fixed uniform grid."""

    grid: Grid


Kind = Union[Interval, FunctionSpace]


@dataclass(frozen=True)
class MetricSpace:
    """A space kind together with its metric.

    When ``metric`` is omitted the canonical metric of the kind is used:
    the absolute difference on intervals, the max over grid nodes on
    function spaces.
    """

    kind: Kind
    metric: Callable[[Point, Point], float] | None = None

    def contains(self, point: Point) -> bool:
        if isinstance(self.kind, Interval):
            return isinstance(point, ScalarPoint) and self.kind.contains(point.value)
        return isinstance(point, GridFn) and point.grid == self.kind.grid


def interval_space(lo: float, hi: float, hi_inclusive: bool = True) -> MetricSpace:
    return MetricSpace(Interval(float(lo), float(hi), hi_inclusive))


def function_space(grid: Grid) -> MetricSpace:
    return MetricSpace(FunctionSpace(grid))


def metric_eval(space: MetricSpace, x: Point, y: Point) -> float:
    """Evaluate the space metric; raises ``ShapeError`` on mismatched points."""
    if isinstance(space.kind, Interval):
        if not (isinstance(x, ScalarPoint) and isinstance(y, ScalarPoint)):
            raise ShapeError("interval spaces hold scalar points only")
    else:
        if not (isinstance(x, GridFn) and isinstance(y, GridFn)):
            raise ShapeError("function spaces hold grid functions only")
        if x.grid != space.kind.grid or y.grid != space.kind.grid:
            raise ShapeError("grid functions do not live on the space's grid")
    dist = (space.metric or point_distance)(x, y)
    if not (math.isfinite(dist) and dist >= 0.0):
        raise DomainError(f"metric returned an invalid distance {dist!r}")
    return float(dist)


def _interval_lattice(iv: Interval, step: float) -> list[float]:
    span = iv.hi - iv.lo
    ratio = span / step + 1e-9
    if not ratio < MAX_SAMPLE_POINTS:
        raise SamplingError(
            f"step {step!r} gives more than {MAX_SAMPLE_POINTS} points on [{iv.lo}, {iv.hi}]"
        )
    last = int(math.floor(ratio))
    vals = [iv.lo + i * step for i in range(last + 1)]
    if vals and math.isclose(vals[-1], iv.hi, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(iv.hi))):
        vals[-1] = iv.hi
        if not iv.hi_inclusive:
            vals.pop()
    return vals


def sample_space(
    space: MetricSpace,
    *,
    step: float | None = None,
    count: int | None = None,
    seed: int = 0,
    box: tuple[float, float] = (0.0, 2.0),
) -> list[Point]:
    """Deterministic finite sample of the space.

    Intervals are sampled on the lattice ``lo, lo + step, ...`` honoring the
    open endpoint.  Function spaces get ``count`` random grid functions with
    node values drawn uniformly from ``box``, preceded by the constant-zero
    function.  Identical arguments always produce identical samples.
    """
    if isinstance(space.kind, Interval):
        if step is None or not (math.isfinite(step) and step > 0):
            raise SamplingError(f"interval sampling needs a finite step > 0, got {step!r}")
        vals = _interval_lattice(space.kind, step)
        if not vals:
            raise SamplingError("interval sample is empty")
        return [ScalarPoint(v) for v in vals]

    if count is None or count < 1:
        raise SamplingError("function-space sampling needs count > 0")
    lo, hi = box
    if not lo < hi:
        raise SamplingError(f"empty sampling box {box!r}")
    grid = space.kind.grid
    rng = np.random.default_rng(seed)
    out: list[Point] = [zero_grid_fn(grid)]
    for _ in range(count):
        out.append(GridFn(grid, rng.uniform(lo, hi, grid.n + 1)))
    return out


def scalar_values(points: Sequence[Point]) -> np.ndarray | None:
    """The values of an all-scalar point sequence as a float array, or None
    when some point is not a ``ScalarPoint``."""
    if not all(isinstance(pt, ScalarPoint) for pt in points):
        return None
    return np.fromiter((pt.value for pt in points), dtype=float, count=len(points))


def row_blocks(rows: int, width: int):
    """Slices of consecutive rows covering ``rows``, each holding about
    ``BLOCK_ELEMENTS`` entries of a row ``width`` wide."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def evaluate_pairs(
    fn: Callable[[Point, Point], object],
    array: Callable | None,
    xs: Sequence[Point],
    ys: Sequence[Point],
    *,
    fill,
    where: np.ndarray | None = None,
    at: tuple[Sequence[int], Sequence[int]] | None = None,
) -> np.ndarray:
    """``fn(xs[i], ys[j])`` for every i, j, or with ``at=(i, j)`` for each
    index pair ``fn(xs[i[k]], ys[j[k]])``.  In the all-pairs form, entries
    off the ``where`` mask hold ``fill``, whose type is that of the result.

    When ``array`` is given and every point is a ``ScalarPoint`` it is
    broadcast over the point values, a block of rows at a time; otherwise
    ``fn`` runs once per pair inside the mask, a row at a time.  This is the
    only place the two evaluation paths part.
    """
    if at is not None:
        i, j = (np.asarray(k, dtype=np.intp) for k in at)
        if i.shape != j.shape:
            raise ShapeError(f"cannot align {len(i)} indices with {len(j)}")
    out = np.full((len(xs), len(ys)) if at is None else i.shape, fill)
    vx = scalar_values(xs) if array is not None else None
    vy = vx if ys is xs else scalar_values(ys) if vx is not None else None
    if vy is not None:
        blocks = row_blocks(len(xs), len(ys)) if at is None else [slice(None)]
        with np.errstate(all="ignore"):
            for rows in blocks:
                a, b = (vx[rows, None], vy[None, :]) if at is None else (vx[i], vy[j])
                value = np.broadcast_to(array(a, b), out[rows].shape)
                if where is None:
                    out[rows] = value
                else:
                    np.copyto(out[rows], value, casting="unsafe", where=where[rows])
        return out
    if at is not None:
        out[:] = [fn(xs[a], ys[b]) for a, b in zip(i.tolist(), j.tolist())]
        return out
    for i, x in enumerate(xs):
        cols = range(len(ys)) if where is None else np.flatnonzero(where[i]).tolist()
        out[i, cols] = [fn(x, ys[j]) for j in cols]
    return out
