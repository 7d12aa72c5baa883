"""Points, grids, and the two concrete metric spaces.

Two kinds of space are supported: real intervals (possibly half-open on the
right) and spaces of grid functions on a uniform grid over [0, 1].  A space
only decides membership: the metric is always ``point_distance``, the max
over nodes on grids.  All values are immutable, so every operation is pure.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, PreconditionError, SamplingError, ShapeError
from .errors import check_count, check_real

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
    "interval_space",
    "function_space",
    "sample_space",
]

MAX_SAMPLE_POINTS = 1_000_000

# Largest grid subinterval count: a grid function then takes 8 MB.
MAX_GRID_N = 2**20

# Elements per block when a pair array is built a few rows at a time.
BLOCK_ELEMENTS = 1 << 14

# Range of the node values of sampled grid functions.
SAMPLE_BOX = (0.0, 2.0)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with ``n`` subintervals, nodes ``i / n``."""

    n: int

    def __post_init__(self) -> None:
        n = check_count(self.n, "grid subinterval count", DomainError, 1, MAX_GRID_N)
        object.__setattr__(self, "n", n)

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

    def contains(self, point: Point) -> bool:
        # The open endpoint is decided by exact comparison, no epsilon.
        if not isinstance(point, ScalarPoint) or point.value < self.lo:
            return False
        return point.value <= self.hi if self.hi_inclusive else point.value < self.hi


@dataclass(frozen=True)
class FunctionSpace:
    """All grid functions on a fixed uniform grid."""

    grid: Grid

    def contains(self, point: Point) -> bool:
        return isinstance(point, GridFn) and point.grid == self.grid


MetricSpace = Union[Interval, FunctionSpace]


def interval_space(lo: float, hi: float, hi_inclusive: bool = True) -> Interval:
    return Interval(float(lo), float(hi), hi_inclusive)


def function_space(grid: Grid) -> FunctionSpace:
    return FunctionSpace(grid)


def check_space(space: object, points: Sequence[Point] = ()) -> None:
    """Raise ``ShapeError`` unless ``space`` is an interval or a function
    space, and ``PreconditionError`` on the first of ``points`` outside it."""
    if not isinstance(space, (Interval, FunctionSpace)):
        raise ShapeError(f"expected an Interval or a FunctionSpace, got {type(space).__name__}")
    if isinstance(space, Interval) and isinstance(points, ScalarSample):
        v = points.values  # only the first point outside is built, for the message
        outside = (v < space.lo) | ((v > space.hi) if space.hi_inclusive else (v >= space.hi))
        points = take(points, np.flatnonzero(outside)[:1])
    for pt in points:
        if not space.contains(pt):
            raise PreconditionError(f"sample point {describe_point(pt)} lies outside the space")


class _Lazy(Sequence):
    """A read-only sequence of ``size`` items whose n-th item is built by
    ``item(n)`` when it is read; slices are lists, and it equals any
    sequence with the same items."""

    def __init__(self, size: int, item: Callable[[int], object]):
        self._size, self._item = size, item

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return map(self._item, range(self._size))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._item(n) for n in range(*k.indices(self._size))]
        n = operator.index(k)
        if not -self._size <= n < self._size:
            raise IndexError("sequence index out of range")
        return self._item(n % self._size)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class ScalarSample(_Lazy):
    """Scalar points over the finite float array ``values``, each built when
    it is read; a slice is a ``ScalarSample`` over the sliced values."""

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if not np.isfinite(values).all():
            ScalarPoint(values[~np.isfinite(values)][0])  # raises its DomainError
        values.setflags(write=False)
        self._hold(values)

    def _hold(self, values: np.ndarray) -> None:
        self.values = values
        super().__init__(values.size, lambda n: ScalarPoint(values[n]))

    def __getitem__(self, k):
        return take(self, k) if isinstance(k, slice) else super().__getitem__(k)


def take(sample: Sequence[Point], index) -> Sequence[Point]:
    """The items of ``sample`` at ``index``, an index array (or a slice of a
    ``ScalarSample``): a ``ScalarSample`` over their values when ``sample``
    is one, otherwise a list.  A sample's values were checked finite when it
    was built, so a slice is a read-only view of them and an index array a
    read-only copy, neither checked again."""
    if not isinstance(sample, ScalarSample):
        return [sample[k] for k in index]
    values = sample.values[index]
    values.setflags(write=False)
    taken = ScalarSample.__new__(ScalarSample)
    taken._hold(values)
    return taken


def as_sample(points: Sequence[Point]) -> Sequence[Point]:
    """A ``ScalarSample`` unchanged, other scalar points as a ``ScalarSample``
    over their values, and grid functions as a list."""
    if isinstance(points, ScalarSample):
        return points
    points = list(points)
    if not all(isinstance(pt, ScalarPoint) for pt in points):
        return points
    return ScalarSample(np.fromiter((pt.value for pt in points), dtype=float, count=len(points)))


def nonempty_sample(points: Sequence[Point]) -> Sequence[Point]:
    """``as_sample(points)``; raises ``PreconditionError`` when it is empty."""
    sample = as_sample(points)
    if not sample:
        raise PreconditionError("empty sample")
    return sample


def _interval_lattice(iv: Interval, step: float) -> np.ndarray:
    span = iv.hi - iv.lo
    ratio = span / step + 1e-9
    if not ratio < MAX_SAMPLE_POINTS:
        raise SamplingError(
            f"step {step!r} gives more than {MAX_SAMPLE_POINTS} points on [{iv.lo}, {iv.hi}]"
        )
    vals = iv.lo + np.arange(int(math.floor(ratio)) + 1) * step
    if math.isclose(vals[-1], iv.hi, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(iv.hi))):
        vals[-1] = iv.hi
        if not iv.hi_inclusive:
            vals = vals[:-1]
    return vals


def sample_space(
    space: MetricSpace,
    *,
    step: float | None = None,
    count: int | None = None,
    seed: int = 0,
) -> ScalarSample | list[GridFn]:
    """Deterministic finite sample of the space.

    Intervals are sampled on the lattice ``lo, lo + step, ...`` honoring the
    open endpoint, as a ``ScalarSample`` over the lattice values.  Function
    spaces get a list of ``count`` random grid functions with node values
    drawn uniformly from ``SAMPLE_BOX``, preceded by the constant-zero function.
    Identical arguments always produce identical samples.
    """
    check_space(space)
    if isinstance(space, Interval):
        if step is None:
            raise SamplingError("interval sampling needs a step")
        vals = _interval_lattice(space, check_real(step, "step", SamplingError, ends="()"))
        if not vals.size:
            raise SamplingError("interval sample is empty")
        return ScalarSample(vals)

    check_count(count, "function-space sample count", SamplingError, 1)
    grid = space.grid
    rng = np.random.default_rng(check_count(seed, "seed", SamplingError, 0))
    out: list[GridFn] = [zero_grid_fn(grid)]
    for _ in range(count):
        out.append(GridFn(grid, rng.uniform(*SAMPLE_BOX, grid.n + 1)))
    return out


def row_blocks(rows: int, width: int):
    """Slices of consecutive rows covering ``rows``, each holding about
    ``BLOCK_ELEMENTS`` entries of a row ``width`` wide."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


class _Pairs(_Lazy):
    """The pairs ``(points[i[k]], points[j[k]])``, held as index arrays."""

    def __init__(self, points: Sequence[Point], i: np.ndarray, j: np.ndarray):
        super().__init__(i.size, lambda k: (points[i[k]], points[j[k]]))
        self.points, self.i, self.j = points, i, j


def _pairs_in(points: Sequence[Point], blocks) -> _Pairs:
    """The pairs of ``points``, in row-major order, at the True entries of a
    bool array met in order as ``(rows, left, mask)``: ``mask`` holds the
    entries of the rows ``rows`` from column ``left`` on, and the entries
    left of it are False.  Only the points in some pair are kept."""
    i, j = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for rows, left, mask in blocks:
        r, c = np.nonzero(mask)  # two views of one buffer, which the sums below free
        i.append(r + rows.start)
        j.append(c + left)
    i = np.concatenate(i)  # frees the row pieces before the column ones are joined
    j = np.concatenate(j)
    used = np.zeros(len(points), dtype=bool)
    used[i] = used[j] = True
    remap = np.cumsum(used) - 1
    i = remap[i]  # rebinding frees each old array before the next is copied
    j = remap[j]
    return _Pairs(take(points, np.flatnonzero(used)), i, j)


def _assign(out: np.ndarray, value, name: str, rows=slice(None), where=None) -> None:
    """Write an array form's result ``value`` into ``out[rows]``, only on
    ``where[rows]`` when a mask is given; a result that does not broadcast
    to the block raises ``ShapeError`` naming ``name``."""
    try:
        if where is None:
            out[rows] = value
        else:
            np.copyto(out[rows], value, casting="unsafe", where=where[rows])
    except ValueError:
        raise ShapeError(
            f"{name}: array form gave shape {np.shape(value)}, "
            f"which does not broadcast to its block of shape {out[rows].shape}"
        ) from None


class _PairFunction:
    """Evaluation over point pairs, shared by ``Relation`` and ``WDistance``.

    A subclass is a dataclass with the fields ``name`` and ``array``; it
    defines ``__call__`` on one pair and ``fill``, the value off a ``where``
    mask, whose type is the result's, and may override ``_checked``, which
    sees every result.  ``array``, when present, is the same function in
    numpy operations on scalar values; ``matrix`` and ``at`` broadcast it
    over all-scalar samples instead of calling ``self`` once per pair.
    """

    def matrix(
        self, xs: Sequence[Point], ys: Sequence[Point], where: np.ndarray | None = None
    ) -> np.ndarray:
        """Array of ``self(xs[i], ys[j])``, ``fill`` off the ``where`` mask."""
        return self._checked(self._evaluate(xs, ys, where, None), where)

    def at(self, xs: Sequence[Point], ys: Sequence[Point], i, j) -> np.ndarray:
        """Array of ``self(xs[i[k]], ys[j[k]])`` over the index pairs."""
        return self._checked(self._evaluate(xs, ys, None, (i, j)), None)

    def _checked(self, values: np.ndarray, where: np.ndarray | None) -> np.ndarray:
        return values

    def _evaluate(self, xs, ys, where, at) -> np.ndarray:
        """The all-pairs or, with ``at=(i, j)``, the index-pair form.

        When ``array`` is given and every point is a ``ScalarPoint`` it is
        broadcast over the values of ``as_sample``, a block of rows at a
        time, and its result is written straight into the block.  Otherwise
        ``self`` runs once per pair inside the mask, a row at a time, on
        points read once from each side.  This is the only place the two
        evaluation paths part.
        """
        if at is not None:
            i, j = (np.asarray(k, dtype=np.intp) for k in at)
            if i.shape != j.shape:
                raise ShapeError(f"cannot align {len(i)} indices with {len(j)}")
        if self.array is not None:
            xs, ys = as_sample(xs), as_sample(ys)
        shape = (len(xs), len(ys)) if at is None else i.shape
        # every entry is written, except those a ``where`` mask leaves at ``fill``
        out = np.empty(shape, type(self.fill)) if where is None else np.full(shape, self.fill)
        if self.array is not None and isinstance(xs, ScalarSample) and isinstance(ys, ScalarSample):
            vx, vy = xs.values, ys.values
            blocks = row_blocks(*shape) if at is None else [slice(None)]
            with np.errstate(all="ignore"):
                for rows in blocks:
                    a, b = (vx[rows, None], vy[None, :]) if at is None else (vx[i], vy[j])
                    _assign(out, self.array(a, b), self.name, rows, where)
            return out
        xs, ys = list(xs), list(ys)
        if at is not None:
            out[:] = [self(xs[a], ys[b]) for a, b in zip(i.tolist(), j.tolist())]
            return out
        for i, x in enumerate(xs):
            cols = range(len(ys)) if where is None else np.flatnonzero(where[i]).tolist()
            out[i, cols] = [self(x, ys[j]) for j in cols]
        return out

    @classmethod
    def elementwise(cls, name: str, fn: Callable):
        """An instance on scalar points from one function written with numpy
        operations (``&``, ``|``, ``np.where``), so that it accepts floats
        and broadcast arrays alike."""
        return cls(name, lambda x, y: fn(as_scalar(x), as_scalar(y)), fn)

    @classmethod
    def on_scalars(cls, name: str, fn: Callable[[float, float], object]):
        return cls(name, lambda x, y: fn(as_scalar(x), as_scalar(y)))
