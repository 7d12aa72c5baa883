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

    @pytest.mark.parametrize("fraction", [1.5, 0.0])
    def test_tail_fraction_outside_unit_interval_rejected(self, fraction):
        seq = pts(*([1.0] * 11))
        rel = universal_relation()
        whole = check_rlsc(METRIC, scalar(0.0), rel, seq, scalar(1.0), tail_fraction=1.0)
        assert whole.detail["tail_window"] == 11
        with pytest.raises(PreconditionError, match="tail fraction"):
            check_rlsc(METRIC, scalar(0.0), rel, seq, scalar(1.0), tail_fraction=fraction)

    def test_nonconvergent_sequence_rejected(self):
        seq = pts(1, 1, 1)
        with pytest.raises(PreconditionError):
            check_rlsc(METRIC, scalar(0.0), universal_relation(), seq, scalar(2.0))

    def test_metric_distance_is_lsc_along_any_preserving_sequence(self):
        # plain lower semi-continuity implies the relation-restricted kind;
        # on a truncated sequence the tail sits within the convergence gap
        # of the limit value, so the assertion tolerance must cover it
        seq = [scalar(2.0 - 1.0 / (n + 1)) for n in range(1, 50)]
        report = check_rlsc(
            METRIC, scalar(0.0), universal_relation(), seq, scalar(2.0),
            tol=0.05, conv_tol=0.05,
        )
        assert report.ok


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
        (lambda bad: _rlsc(tol=bad, conv_tol=5.0), float("nan")),
        (lambda bad: _rlsc(tol=bad, conv_tol=5.0), float("inf")),
        (lambda bad: _rlsc(tol=bad, conv_tol=5.0), -1e-9),
        (_w3, float("nan")),
        (_w3, float("inf")),
    ],
    ids=[
        "conv_tol-nan", "conv_tol-inf", "tol-nan", "tol-inf", "tol-negative", "eps-nan", "eps-inf",
    ],
)
def test_tolerances_must_be_finite(call, bad):
    with pytest.raises(PreconditionError, match="finite"):
        call(bad)
