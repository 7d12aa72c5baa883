"""The input contract: a value of the documented type outside its domain
raises a ``RelfixError``, and no public call lets another exception or a
numpy warning out for such a value.

``CONTRACT`` lists every public callable that takes a number, with the
domain of each numeric argument as two lists: values inside it (the call
may return or raise a ``RelfixError``) and values of the same type outside
it (the call must raise a ``RelfixError``).  Each example puts at most one
argument outside its domain, so every check is reached on its own.
"""

import importlib
import inspect
import math
import warnings
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relfix
from relfix import (
    FbvpProblem,
    Grid,
    Interval,
    RelfixError,
    ScalarPoint,
    WDistance,
    caputo_derivative_nodes,
    caputo_residual,
    cauchy_bound,
    certify_limit_uniqueness,
    check_rlsc,
    check_w3,
    constant_grid_fn,
    function_space,
    gamma_fn,
    grid_fn,
    interval_space,
    iterate,
    lambda_paper,
    lambda_tight,
    probe_uniqueness,
    rl_integral,
    rl_integral_nodes,
    sample_space,
    scalar,
    solve_fbvp,
    universal_relation,
)
from relfix.fixtures import (
    affine_source,
    constant_source,
    product_shrink_fixture,
    sine_mix_source,
)
from relfix.spaces import MAX_GRID_N

NONFINITE = [math.nan, math.inf, -math.inf]


def reals(lo=0.0, hi=math.inf, ends="[]", more=()):
    """Floats inside and outside an interval: each finite end, the floats
    next to it on both sides, 1 beyond it, an interior point, NaN and the
    infinities; ``more`` adds values inside."""
    inside, outside = list(more), list(NONFINITE)
    for end, closed, out in ((lo, ends[0] == "[", -math.inf), (hi, ends[1] == "]", math.inf)):
        if math.isfinite(end):
            (inside if closed else outside).append(end)
            inside.append(math.nextafter(end, -out))
            outside += [math.nextafter(end, out), end + math.copysign(1.0, out)]
    if math.isfinite(lo):
        inside.append((lo + hi) / 2 if math.isfinite(hi) else lo + 0.5)
    return inside, outside


def counts(lo, hi=None):
    """Integers inside and outside ``lo..hi``, and reals of no integer value."""
    inside = [lo, np.int64(lo)] + ([lo + 1] if hi is None else [hi])
    outside = [lo - 1, lo + 0.5, float(lo), True, *NONFINITE]
    return inside, outside + ([] if hi is None else [hi + 1])


def sequences(domain, length=1):
    """Sequences of ``length`` values all inside, and ones with a value
    outside or a value short."""
    inside, outside = domain
    head = [inside[0]] * (length - 1)
    return [[v] * length for v in inside], [head + [v] for v in outside] + [head]


class Entry(NamedTuple):
    target: Callable
    call: Callable
    domains: dict

    def __str__(self):
        return f"{self.target.__name__}({', '.join(self.domains)})"


SHRINK = product_shrink_fixture()
METRIC = WDistance.from_metric()
GRID = Grid(8)
SHRINK_SAMPLE = [scalar(v) for v in (0.0, 0.5, 1.0, 2.0)]
SEQ, LIMIT = [scalar(1.0)] * 3, scalar(1.0)
X = grid_fn(GRID, GRID.nodes**2)
PROBLEM = FbvpProblem(1.5, 0.5, 0.0, constant_source(1.0), GRID)
TAIL = [scalar(v) for v in (2e-7, 1e-7, 0.0)]
TAIL_BOUNDS = ([[2e-7, 1e-7, 0.0], [1.0, 1.0, 1e-6]], [
    [2e-7, 1e-7, bad] for bad in (*NONFINITE, -1.0, 2e-6)
] + [[math.nan, 1e-7, 0.0], [0.0, 1e-7, 0.0], [0.0]])
TOL = reals(ends="()", more=[None])
ANY = reals(-math.inf, more=[-1.5, 0.0, 1e308])
# An interval's ends are any reals in order, infinite ones included.
ENDS = {"lo": ([-math.inf, -1.0, 0.0], [math.nan, math.inf]),
        "hi": ([1.0, 2.0, math.inf], [math.nan, -math.inf])}
BETA = reals(1.0, 2.0, "(]")
ORDER = reals(ends="()", more=[200.0, 1e300])

CONTRACT = [
    Entry(Grid, Grid, {"n": counts(1, MAX_GRID_N)}),
    Entry(ScalarPoint, ScalarPoint, {"value": ANY}),
    Entry(scalar, scalar, {"value": ANY}),
    Entry(Interval, Interval, ENDS),
    Entry(interval_space, interval_space, ENDS),
    Entry(constant_grid_fn, lambda value: constant_grid_fn(GRID, value), {"value": ANY}),
    Entry(grid_fn, lambda values: grid_fn(GRID, values),
          {"values": sequences(ANY, GRID.n + 1)}),
    Entry(sample_space, lambda step: sample_space(SHRINK.space, step=step),
          {"step": reals(ends="()")}),
    Entry(sample_space,
          lambda count, seed: sample_space(function_space(GRID), count=count, seed=seed),
          {"count": counts(1), "seed": counts(0)}),
    Entry(check_rlsc,
          lambda conv_tol: check_rlsc(
              METRIC, scalar(0.0), universal_relation(), SEQ, LIMIT, conv_tol=conv_tol),
          {"conv_tol": reals()}),
    Entry(check_w3,
          lambda eps_grid: check_w3(SHRINK.wdistance, SHRINK.space, SHRINK_SAMPLE, eps_grid),
          {"eps_grid": sequences(reals(ends="()"))}),
    Entry(iterate,
          lambda lam, max_iter, tol: iterate(
              SHRINK.map, scalar(2.0), SHRINK.wdistance, lam, max_iter, tol),
          {"lam": reals(), "max_iter": counts(1), "tol": TOL}),
    Entry(cauchy_bound, cauchy_bound,
          {"lam": reals(0.0, 1.0, "[)"), "p01": reals(), "n": counts(0)}),
    Entry(certify_limit_uniqueness,
          lambda u, v: certify_limit_uniqueness(METRIC, TAIL, scalar(0.0), scalar(0.0), u, v),
          {"u": TAIL_BOUNDS, "v": TAIL_BOUNDS}),
    Entry(probe_uniqueness,
          lambda lam: probe_uniqueness(
              SHRINK.relation, SHRINK.map, SHRINK.wdistance, lam, [scalar(0.0)], SHRINK_SAMPLE,
              z_hint=SHRINK.z_hint),
          {"lam": reals()}),
    Entry(gamma_fn, gamma_fn, {"z": ORDER}),
    Entry(rl_integral, lambda beta, t_index: rl_integral(X, beta, t_index),
          {"beta": ORDER, "t_index": counts(0, GRID.n)}),
    Entry(rl_integral_nodes, lambda beta: rl_integral_nodes(X.values, beta, GRID),
          {"beta": ORDER}),
    Entry(caputo_derivative_nodes, lambda beta: caputo_derivative_nodes(X, beta), {"beta": BETA}),
    Entry(caputo_residual,
          lambda beta, t_index: caputo_residual(X, beta, lambda t, x: 0.0, t_index),
          {"beta": BETA, "t_index": counts(1, GRID.n - 1)}),
    Entry(lambda_paper, lambda_paper, {"beta": BETA, "k": reals(0.0, 1.0, "()")}),
    Entry(lambda_tight, lambda_tight, {"beta": BETA, "k": reals(0.0, 1.0, "()")}),
    Entry(FbvpProblem,
          lambda beta, k, L, n: FbvpProblem(beta, k, L, constant_source(1.0), Grid(n)),
          {"beta": BETA, "k": reals(0.0, 1.0, "()"), "L": reals(), "n": counts(3, MAX_GRID_N)}),
    Entry(solve_fbvp, lambda tol, max_iter: solve_fbvp(PROBLEM, tol=tol, max_iter=max_iter),
          {"tol": reals(ends="()"), "max_iter": counts(1)}),
    # The named sources of a boundary-value problem, outside ``relfix.__all__``.
    Entry(constant_source, constant_source, {"c": reals()}),
    Entry(sine_mix_source, sine_mix_source, {"a": reals()}),
    Entry(affine_source, affine_source, {"a": reals()}),
]


@pytest.mark.parametrize("entry", CONTRACT, ids=str)
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_out_of_domain_values_raise_relfix_errors(entry, data):
    outside = data.draw(st.sampled_from([None, *entry.domains]), label="outside")
    kwargs = {
        name: data.draw(st.sampled_from(domain[1] if name == outside else domain[0]), label=name)
        for name, domain in entry.domains.items()
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            entry.call(**kwargs)
        except RelfixError:
            return
    assert outside is None, f"{outside} = {kwargs[outside]!r} was accepted"


# Result records: their numeric fields are outputs, never arguments.
RECORDS = {
    "RelationReport", "SubsequenceWitness", "AxiomReport", "OrbitTrace", "FixedPointCertificate",
    "ContractionEstimate", "PairComparison", "TheoremReport", "FbvpSolution", "ProbeResult",
    "CauchyCheck", "ClassicalComparison",
}
NUMERIC = {"float", "int", "float | None", "int | None", "tuple[float, float]", "Sequence[float]"}


def public_parameters():
    """``(name, callable, parameter)`` for each parameter of the callables in
    ``relfix.__all__``, leaving out records, exceptions and enumerations."""
    for name in sorted(set(relfix.__all__) - RECORDS):
        target = getattr(relfix, name)
        if not callable(target) or isinstance(target, type) and issubclass(
            target, (BaseException, Enum)
        ):
            continue
        for param in inspect.signature(target).parameters.values():
            yield name, target, param


def test_every_public_numeric_argument_is_in_the_contract():
    covered = {(entry.target, name) for entry in CONTRACT for name in entry.domains}
    missing = [
        f"{name}({param.name})"
        for name, target, param in public_parameters()
        if param.annotation in NUMERIC and (target, param.name) not in covered
    ]
    assert not missing, f"numeric arguments with no contract entry: {missing}"


# Every public parameter with a default, a setting a caller may leave out.
# Adding or removing one means editing this list.
SETTINGS = {
    "FbvpProblem(variant)", "Interval(hi_inclusive)", "Relation(array)", "SelfMap(array)",
    "WDistance(array)", "check_rlsc(conv_tol)", "estimate_lambda(include_diagonal)",
    "interval_space(hi_inclusive)", "iterate(max_iter)", "iterate(tol)",
    "probe_uniqueness(z_hint)", "sample_space(count)", "sample_space(seed)",
    "sample_space(step)", "solve_fbvp(max_iter)", "solve_fbvp(tol)",
}


def test_public_settings_are_the_committed_list():
    found = {
        f"{name}({param.name})"
        for name, _, param in public_parameters()
        if param.default is not param.empty
    }
    assert found == SETTINGS, (
        f"added: {sorted(found - SETTINGS)}, removed: {sorted(SETTINGS - found)}"
    )


LIBRARY_MODULES = ("engine", "errors", "fractional", "relations", "spaces", "verify", "wdistance")


def test_package_exports_the_join_of_the_module_lists():
    modules = [importlib.import_module(f"relfix.{name}") for name in LIBRARY_MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert relfix.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(relfix, name) is getattr(module, name), f"{module.__name__}.{name}"
