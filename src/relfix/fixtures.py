"""Worked fixtures: spaces, relations, maps, and pair distances that exercise
every corner of the checker suite.

Each fixture packages one self-contained scenario.  The registry keys
(``Ex1_7`` and friends) are the identifiers accepted by the command line
front end; the constructor names describe what each scenario is about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SelfMap
from .errors import DomainError, check_real
from .fractional import FbvpProblem, apply_operator
from .relations import Relation
from .spaces import (
    MetricSpace,
    Point,
    function_space,
    interval_space,
    scalar,
    zero_grid_fn,
)
from .wdistance import WDistance

__all__ = [
    "Fixture",
    "FIXTURES",
    "parity_successor_fixture",
    "ceiling_window_fixture",
    "jump_plateau_fixture",
    "ordered_halving_fixture",
    "product_shrink_fixture",
    "fbvp_fixture",
    "product_nonneg_relation",
    "F_REGISTRY",
    "constant_source",
    "sine_mix_source",
    "affine_source",
]


@dataclass(frozen=True)
class Fixture:
    """One scenario: a space, a relation, a self-map, and optional extras.

    ``wdistance`` is the pair distance that makes the map a relation
    contraction, when the scenario has one.  ``value_p`` wraps a plain value
    function g as the pair distance (x, y) -> g(y) for the lower
    semi-continuity checks.  ``lambda_hint`` is the analytic contraction
    factor when one is known.
    """

    title: str
    space: MetricSpace
    relation: Relation
    map: SelfMap
    wdistance: WDistance | None = None
    value_p: WDistance | None = None
    default_step: float | None = None
    orbit_seed: Point | None = None
    lambda_hint: float | None = None
    z_hint: Point | None = None


def parity_successor_fixture() -> Fixture:
    """Integers 1..20 where even points relate to odd ones, under x -> x + 1.

    Images of related pairs are related only after swapping the order, so the
    relation is weakly map-closed but not map-closed.
    """

    def even_to_odd(x, y):
        # points off the integers relate to nothing
        integers = (np.floor(x) == x) & (np.floor(y) == y)
        return integers & (np.mod(x, 2.0) == 0.0) & (np.mod(y, 2.0) == 1.0)

    return Fixture(
        title="parity relation under the successor map",
        space=interval_space(1.0, 20.0),
        relation=Relation.elementwise("even_to_odd", even_to_odd),
        map=SelfMap.elementwise("successor", lambda v: v + 1.0),
        default_step=1.0,
    )


def _same_integer_window(x, y):
    # np.round, like round, rounds halves to even
    def near(m):
        return (np.abs(x - m) < 0.2) & (np.abs(y - m) < 0.2)

    return near(np.round(x)) | near(np.round(y))


def _ceiling(v):
    # np.ceil gives -0.0 on (-1, 0); adding 0.0 makes it 0.0, so reports never show -0.0
    return np.ceil(v) + 0.0


def ceiling_window_fixture() -> Fixture:
    """The ceiling function on points related by sharing an integer window.

    Ceiling jumps at integers, so it is not continuous along sequences that
    approach an integer from the right; its value there only ever overshoots,
    which is exactly the lower-semi-continuity direction.
    """
    return Fixture(
        title="ceiling function on integer windows",
        space=interval_space(-3.0, 3.0),
        relation=Relation.elementwise("same_integer_window", _same_integer_window),
        map=SelfMap.elementwise("ceiling", _ceiling),
        value_p=WDistance.elementwise("ceiling_value", lambda _x, y: _ceiling(y)),
        default_step=0.25,
    )


def _plateau(v):
    return np.where(v < 1.0, 2.0, np.where(v == 1.0, 1.0, 0.5))


def _product_leq_coordinate(x, y):
    product = x * y
    return (product <= x) | (product <= y)


def jump_plateau_fixture() -> Fixture:
    """A three-level step function, related pairs have product below a
    coordinate.

    The step drops past 1, so plain lower semi-continuity fails for sequences
    approaching 1 from the right; those sequences are never
    relation-preserving, which is why the relation-restricted check passes.
    """
    return Fixture(
        title="three-level plateau under the product relation",
        space=interval_space(0.0, 4.0),
        relation=Relation.elementwise("product_leq_coordinate", _product_leq_coordinate),
        map=SelfMap.elementwise("plateau", _plateau),
        value_p=WDistance.elementwise("plateau_value", lambda _x, y: _plateau(y)),
        default_step=0.25,
    )


def ordered_halving_fixture() -> Fixture:
    """Half-open interval [1, 3) ordered downward, halving map capped at 2.

    The plain metric expands the related pair (2, 1), while the pair distance
    |x| + |y| contracts every related sampled pair; 2 is the fixed point.
    The map branch below 2 is extended past the interval so orbits stay
    total.
    """

    def capped_halving(v):
        return np.where(v < 2.0, v / 2.0, 2.0)

    return Fixture(
        title="descending order with a capped halving map",
        space=interval_space(1.0, 3.0, hi_inclusive=False),
        relation=Relation.elementwise("descending", lambda x, y: x >= y),
        map=SelfMap.elementwise("capped_halving", capped_halving),
        wdistance=WDistance.elementwise("abs_sum", lambda x, y: np.abs(x) + np.abs(y)),
        default_step=0.1,
        orbit_seed=scalar(2.0),
    )


def _shrink_toward_zero(v):
    # nested np.where: on a single float it is several times faster than np.select
    return np.where(
        v <= 2.0 / 3.0, v / 3.0, np.where(v < 1.0, 1.0 - v, np.where(v == 1.0, 0.75, v - 0.5))
    )


def product_shrink_fixture() -> Fixture:
    """Four-branch map on [0, 2] contracting the second-coordinate distance.

    With p(x, y) = y the worst related-pair ratio is 3/4, attained at y = 1
    and y = 2, and 0 is the unique fixed point.  The relation relates (0, y)
    for every y, which supplies the common ancestor for the uniqueness probe.
    """
    return Fixture(
        title="four-branch shrink map under the product relation",
        space=interval_space(0.0, 2.0),
        relation=Relation.elementwise("product_leq_coordinate", _product_leq_coordinate),
        map=SelfMap.elementwise("four_branch_shrink", _shrink_toward_zero),
        wdistance=WDistance.elementwise("second_coordinate", lambda _x, y: y),
        default_step=0.01,
        orbit_seed=scalar(2.0),
        lambda_hint=0.75,
        z_hint=scalar(0.0),
    )


FIXTURES = {
    "Ex1_7": parity_successor_fixture,
    "Ex1_13": ceiling_window_fixture,
    "Ex1_14": jump_plateau_fixture,
    "Ex2_3": ordered_halving_fixture,
    "Ex2_4": product_shrink_fixture,
}


def product_nonneg_relation() -> Relation:
    """Grid functions relate when their pointwise product is nonnegative."""
    return Relation.on_grids(
        "pointwise_product_nonneg", lambda u, v: bool(np.all(u * v >= 0.0))
    )


def fbvp_fixture(problem: FbvpProblem) -> Fixture:
    """The boundary-value operator packaged for the relation checkers."""
    return Fixture(
        title="fractional boundary-value integral operator",
        space=function_space(problem.grid),
        relation=product_nonneg_relation(),
        map=SelfMap("fbvp_operator", lambda pt: apply_operator(problem, pt)),
        wdistance=WDistance.from_metric("sup_metric"),
        orbit_seed=zero_grid_fn(problem.grid),
        z_hint=zero_grid_fn(problem.grid),
    )


# Named right-hand sides for the boundary-value problem.  Each factory takes
# its parameters explicitly and returns an elementwise (t, x) -> value
# callable; the second entry of a registry row names the accepted parameters.


def constant_source(c: float):
    check_real(c, "constant source", DomainError)

    def f(t, x):
        return np.full_like(np.asarray(t, dtype=float), float(c))

    return f


def sine_mix_source(a: float):
    """a * (1 + t + sin(x)^2); Lipschitz in x with constant a."""
    check_real(a, "scale", DomainError)

    def f(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return a * (1.0 + t + np.sin(x) ** 2)

    return f


def affine_source(a: float):
    """a * (1 + x); Lipschitz in x with constant a."""
    check_real(a, "scale", DomainError)

    def f(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return a * (1.0 + x) + 0.0 * t

    return f


F_REGISTRY = {
    "constant": (constant_source, ("c",)),
    "sine_mix": (sine_mix_source, ("a",)),
    "affine": (affine_source, ("a",)),
}
