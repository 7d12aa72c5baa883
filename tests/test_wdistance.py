"""Pair-distance axiom checkers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfix import (
    PreconditionError,
    Verdict,
    WDistance,
    check_rlsc,
    check_triangle,
    check_w3,
    default_delta_ladder,
    function_space,
    Grid,
    interval_space,
    sample_space,
    scalar,
    universal_relation,
)
from relfix.fixtures import (
    ceiling_window_fixture,
    jump_plateau_fixture,
    ordered_halving_fixture,
    product_shrink_fixture,
)
from relfix.wdistance import LSC_SLACK


def pts(*values):
    return [scalar(v) for v in values]


ABS_SUM = ordered_halving_fixture().wdistance
SECOND = product_shrink_fixture().wdistance
METRIC = WDistance.from_metric()


class TestTriangle:
    def test_abs_sum_holds(self):
        assert check_triangle(ABS_SUM, pts(1, 1.5, 2, 2.5)).ok

    def test_metric_holds(self):
        assert check_triangle(METRIC, pts(0, 0.7, 1.3, 2)).ok

    def test_second_coordinate_holds_on_nonnegative_sample(self):
        assert check_triangle(SECOND, pts(0, 0.5, 1, 1.5, 2)).ok

    def test_violation_reported_with_both_sides(self):
        # p(x, y) = (x - y)^2 fails the triangle inequality on the real line
        squared = WDistance.on_scalars("squared_gap", lambda x, y: (x - y) ** 2)
        report = check_triangle(squared, pts(0, 1, 2))
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        w = report.witnesses[0]
        assert w.lhs > w.rhs
        record = report.to_record()
        assert record["violation_count"] == 2  # (0, 1, 2) and (2, 1, 0)
        assert record["violations"][0] == {
            "x": {"kind": "scalar", "value": 0.0},
            "y": {"kind": "scalar", "value": 1.0},
            "z": {"kind": "scalar", "value": 2.0},
            "lhs": 4.0,
            "rhs": 2.0,
        }

    def test_blocked_scan_counts_every_violation_in_bounded_memory(self):
        values = np.linspace(0.0, 2.0, 200)
        squared = WDistance.elementwise("squared_gap", lambda x, y: (x - y) ** 2)
        tracemalloc.start()
        try:
            report = check_triangle(squared, pts(*values))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # (x - z)^2 > (x - y)^2 + (y - z)^2 + tol, one middle point y at a time
        sq = (values[:, None] - values[None, :]) ** 2
        expected = sum(
            int(np.count_nonzero(sq > sq[:, j, None] + sq[j, None, :] + 1e-12))
            for j in range(values.size)
        )
        assert expected > 0
        assert report.detail["violations"] == expected
        assert len(report.witnesses) == 50
        first = report.witnesses[0]
        assert (first.x.value, first.y.value) == (values[0], values[1])
        assert peak < 16 * 1024 * 1024, peak

    def test_builtin_distances_pass_on_fixture_samples(self):
        for fx, sample in (
            (ordered_halving_fixture(), pts(1, 1.3, 2, 2.9)),
            (product_shrink_fixture(), pts(0, 0.4, 1, 1.7, 2)),
        ):
            assert check_triangle(fx.wdistance, sample).ok


class TestRelationLsc:
    def test_ceiling_left_approach_holds(self):
        fx = ceiling_window_fixture()
        seq = [scalar(1.0 - 1.0 / (5 * (n + 1))) for n in range(1, 61)]
        report = check_rlsc(fx.value_p, scalar(0.0), fx.relation, seq, scalar(1.0), conv_tol=0.01)
        assert report.ok
        assert report.detail["tail_min"] == 1.0

    def test_ceiling_right_approach_holds_with_overshoot(self):
        fx = ceiling_window_fixture()
        seq = [scalar(1.0 + 1.0 / (5 * (n + 1))) for n in range(1, 61)]
        report = check_rlsc(fx.value_p, scalar(0.0), fx.relation, seq, scalar(1.0), conv_tol=0.01)
        assert report.ok
        assert report.detail["tail_min"] == 2.0

    def test_plateau_preserving_sequences_hold(self):
        fx = jump_plateau_fixture()
        seq = [scalar(1.0 - 1.0 / (n + 2)) for n in range(1, 81)]
        report = check_rlsc(fx.value_p, scalar(0.0), fx.relation, seq, scalar(1.0), conv_tol=0.02)
        assert report.ok

    def test_plateau_plain_lsc_fails_from_the_right(self):
        fx = jump_plateau_fixture()
        seq = [scalar(1.0 + 1.0 / (n + 2)) for n in range(1, 81)]
        report = check_rlsc(
            fx.value_p, scalar(0.0), universal_relation(), seq, scalar(1.0), conv_tol=0.02
        )
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        assert report.detail["tail_min"] == 0.5
        assert report.detail["at_limit"] == 1.0

    def test_plateau_right_approach_is_not_preserving(self):
        fx = jump_plateau_fixture()
        seq = [scalar(1.0 + 1.0 / (n + 2)) for n in range(1, 81)]
        with pytest.raises(PreconditionError):
            check_rlsc(fx.value_p, scalar(0.0), fx.relation, seq, scalar(1.0), conv_tol=0.02)

    def test_constant_sequence_holds_with_equality(self):
        seq = pts(*([1.0] * 8))
        report = check_rlsc(METRIC, scalar(0.25), universal_relation(), seq, scalar(1.0))
        assert report.ok
        assert report.detail["tail_min"] == report.detail["at_limit"]

    def test_nonconvergent_sequence_rejected(self):
        seq = pts(1, 1, 1)
        with pytest.raises(PreconditionError):
            check_rlsc(METRIC, scalar(0.0), universal_relation(), seq, scalar(2.0))

    def test_metric_distance_is_lsc_along_any_preserving_sequence(self):
        # plain lower semi-continuity implies the relation-restricted kind; a
        # truncated sequence shows it from the side away from the anchor, as
        # the tail may fall below the limit value by LSC_SLACK alone
        seq = [scalar(2.0 + 1.0 / (n + 1)) for n in range(1, 50)]
        report = check_rlsc(
            METRIC, scalar(0.0), universal_relation(), seq, scalar(2.0), conv_tol=0.05
        )
        assert report.ok

    @pytest.mark.parametrize("below, ok", [(0.5, True), (1.0, True), (2.0, False)])
    def test_tail_may_sit_below_the_limit_value_by_the_slack_alone(self, below, ok):
        seq = pts(*([2.0 - below * LSC_SLACK] * 8))
        report = check_rlsc(
            METRIC, scalar(0.0), universal_relation(), seq, scalar(2.0), conv_tol=4 * LSC_SLACK
        )
        assert report.ok == ok

    def test_truncated_sequence_from_below_fails(self):
        # the tail sits under the limit value by its convergence gap, which
        # is far more than LSC_SLACK
        seq = [scalar(2.0 - 1.0 / (n + 1)) for n in range(1, 50)]
        report = check_rlsc(
            METRIC, scalar(0.0), universal_relation(), seq, scalar(2.0), conv_tol=0.05
        )
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        assert report.detail["at_limit"] - report.detail["tail_min"] > LSC_SLACK


LUMPY = WDistance.elementwise(
    "half_bucket", lambda x, y: np.abs(np.floor(2 * x) - np.floor(2 * y))
)
FLAT = WDistance.on_scalars("flat", lambda x, y: 0.0)
FLAT_GRID = WDistance("flat_grid", lambda x, y: 0.0)
SEPARATION_EPS = (2.0, 1.0, 0.5, 0.25, 0.1, 0.02, 1e-3)


def scan_balls(p, sample, eps_grid):
    """Reference separation search: every ladder delta, top down, decided by
    looking at each centre's delta-ball in turn.  One (eps, delta, witness)
    row per eps; the witness is the first centre z, the first x in its ball
    and the first y in it farther than eps from x, as indices, at 2^-20."""
    m = len(sample)
    P = np.array([[p(z, x) for x in sample] for z in sample])
    D = np.array([[METRIC(x, y) for y in sample] for x in sample])
    rows = []
    for eps in eps_grid:
        for delta in default_delta_ladder():
            balls = [np.flatnonzero(P[z] <= delta) for z in range(m)]
            if all((D[np.ix_(ball, ball)] <= eps).all() for ball in balls):
                rows.append((eps, delta, None))
                break
        else:
            z, x, y = next(
                (z, x, y) for z in range(m) for x in balls[z] for y in balls[z] if D[x, y] > eps
            )
            rows.append((eps, None, (z, x, y)))
    return rows


def assert_matches_ball_scan(p, space, sample, eps_grid):
    report = check_w3(p, space, sample, eps_grid)
    expected = scan_balls(p, sample, eps_grid)
    assert [(row.eps, row.delta) for row in report.table] == [row[:2] for row in expected]
    for row, (eps, _, indices) in zip(report.table, expected):
        if indices is None:
            assert row.witness is None
            continue
        z, x, y, d = row.witness
        assert (z, x, y) == tuple(sample[k] for k in indices)
        assert p(z, x) <= 2**-20 and p(z, y) <= 2**-20
        assert d == METRIC(x, y) and d > eps
    assert report.ok == all(row.delta is not None for row in report.table)
    return report


class TestSeparation:
    def test_metric_half_epsilon_always_works(self):
        sample = pts(*[i * 0.1 for i in range(21)])
        space = product_shrink_fixture().space
        report = check_w3(METRIC, space, sample, eps_grid=(0.5, 0.1))
        assert report.ok
        for row in report.table:
            ladder_at_half_eps = max(d for d in default_delta_ladder() if d <= row.eps / 2)
            assert row.delta >= ladder_at_half_eps

    def test_abs_sum_vacuous_on_shifted_interval(self):
        # p(x, y) = |x| + |y| never gets below 1 on [1, 3), so every ladder
        # delta below 1 satisfies the implication vacuously
        fx = ordered_halving_fixture()
        sample = sample_space(fx.space, step=0.25)
        report = check_w3(fx.wdistance, fx.space, sample, eps_grid=(0.5, 0.1, 0.02))
        assert report.ok

    def test_second_coordinate_separates(self):
        fx = product_shrink_fixture()
        sample = sample_space(fx.space, step=0.1)
        report = check_w3(fx.wdistance, fx.space, sample, eps_grid=(0.5, 0.1))
        assert report.ok
        assert report.table[0].delta >= 0.25

    def test_failure_carries_witness_triple(self):
        # constant zero pair distance cannot separate distinct points
        flat = WDistance.on_scalars("flat", lambda x, y: 0.0)
        space = product_shrink_fixture().space
        report = check_w3(flat, space, pts(0, 1, 2), eps_grid=(0.5,))
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        assert report.table[0].delta is None
        assert report.table[0].witness is not None

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p", [METRIC, ABS_SUM, SECOND, LUMPY, FLAT], ids=lambda p: p.name)
    def test_matches_ball_scan_on_seeded_scalar_samples(self, p, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 3.0, int(rng.integers(1, 25)))
        if seed % 2:
            values = np.round(values * 8) / 8  # repeated and dyadic points
        sample = pts(*values)
        assert_matches_ball_scan(p, interval_space(0.0, 3.0), sample, SEPARATION_EPS)

    def test_matches_ball_scan_on_grid_functions(self):
        space = function_space(Grid(4))
        sample = sample_space(space, count=12, seed=5)
        first_node = WDistance("first_node", lambda x, y: abs(x.values[0] - y.values[0]))
        for p in (METRIC, first_node, FLAT_GRID):
            assert_matches_ball_scan(p, space, sample, SEPARATION_EPS)
        assert not check_w3(FLAT_GRID, space, sample, SEPARATION_EPS).ok

    def test_failing_pair_distance_matches_ball_scan(self):
        # p reads only the half-unit bucket, so points in one bucket never separate
        sample = pts(0.0, 0.1, 0.45, 0.5, 0.7, 1.2, 1.4)
        report = assert_matches_ball_scan(LUMPY, interval_space(0.0, 3.0), sample, (0.3, 0.05))
        assert [row.delta for row in report.table] == [None, None]
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        assert len(report.witnesses) == 2

    def test_ball_boundary_at_a_ladder_delta_counts_as_inside(self):
        # under the metric a dyadic lattice puts p(z, x) exactly on the ladder;
        # a delta-ball closed at delta has diameter 2 delta here, so eps = 1/4
        # needs delta = 1/8, while an open ball would accept delta = 1/4
        sample = pts(*(k / 8 for k in range(9)))
        report = assert_matches_ball_scan(
            METRIC, interval_space(0.0, 1.0), sample, (1.0, 0.5, 0.25, 0.125, 0.3, 0.1)
        )
        assert [row.delta for row in report.table] == [1.0, 0.25, 0.125, 0.0625, 0.125, 0.0625]

    def test_metric_passes_all_three_axioms_everywhere(self):
        scalar_sample = pts(0, 0.5, 1.1, 1.9)
        space = product_shrink_fixture().space
        assert check_triangle(METRIC, scalar_sample).ok
        assert check_w3(METRIC, space, scalar_sample, eps_grid=(0.25,)).ok
        grid_space = function_space(Grid(4))
        grid_sample = sample_space(grid_space, count=5, seed=2)
        assert check_triangle(METRIC, grid_sample).ok
        assert check_w3(METRIC, grid_space, grid_sample, eps_grid=(0.5,)).ok


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=2, max_size=8
    )
)
def test_second_coordinate_triangle_property(values):
    assert check_triangle(SECOND, pts(*values)).ok


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=2, max_size=8
    )
)
def test_metric_triangle_property(values):
    assert check_triangle(METRIC, pts(*values)).ok


def _rlsc(**tols):
    # the tail sits 4.0 from the limit: conv_tol = 0.02 rejects it, 5.0 accepts it
    return check_rlsc(METRIC, scalar(0.0), universal_relation(), pts(5, 5, 5), scalar(1.0), **tols)


def _w3(eps):
    # p = 0 puts every pair within every delta, so only eps decides
    flat = WDistance.on_scalars("zero", lambda x, y: 0.0)
    space = product_shrink_fixture().space
    assert not check_w3(flat, space, pts(0, 1, 2), eps_grid=(0.5,)).ok
    return check_w3(flat, space, pts(0, 1, 2), eps_grid=(eps,))


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda bad: _rlsc(conv_tol=bad), float("nan")),
        (lambda bad: _rlsc(conv_tol=bad), float("inf")),
        (_w3, float("nan")),
        (_w3, float("inf")),
    ],
    ids=[
        "conv_tol-nan", "conv_tol-inf", "eps-nan", "eps-inf",
    ],
)
def test_tolerances_must_be_finite(call, bad):
    with pytest.raises(PreconditionError, match="finite"):
        call(bad)
