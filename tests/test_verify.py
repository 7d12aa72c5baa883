"""Contraction estimation, classical comparisons, theorem verification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relfix.spaces
import relfix.verify
import relfix.wdistance
from relfix import (
    ClassicalComparison,
    ContractionEstimate,
    EstimationError,
    Grid,
    OverallVerdict,
    PairComparison,
    PreconditionError,
    Relation,
    RelfixError,
    SelfMap,
    ShapeError,
    WDistance,
    check_complete_on,
    check_t_closed,
    check_w3,
    compare_classical,
    estimate_lambda,
    function_space,
    interval_space,
    point_distance,
    related_pairs,
    sample_space,
    scalar,
    universal_relation,
    verify_theorem,
    zero_grid_fn,
)
from relfix.fixtures import (
    FIXTURES,
    fbvp_fixture,
    ordered_halving_fixture,
    parity_successor_fixture,
    product_shrink_fixture,
    sine_mix_source,
)
from relfix.fractional import FbvpProblem
from relfix.spaces import as_sample


SHRINK = product_shrink_fixture()
HALVING = ordered_halving_fixture()
HALVE = SelfMap.elementwise("halve", lambda v: v / 2.0)
# Every related pair of {2, 3} under EQUAL is a diagonal pair.
DOUBLE = SelfMap.elementwise("double", lambda v: 2.0 * v)
EQUAL = Relation.elementwise("equal", lambda x, y: x == y)


def pair(a, b):
    return (scalar(a), scalar(b))


class TestEstimateLambda:
    def test_shrink_lattice_supremum_is_three_quarters(self):
        sample = sample_space(SHRINK.space, step=0.01)
        est, _ = estimate_lambda(SHRINK.map, SHRINK.wdistance, SHRINK.relation, sample)
        assert abs(est.lambda_hat - 0.75) <= 1e-12
        assert est.witness_pair[1].value in (1.0, 2.0)
        assert est.zero_p_violations == ()

    def test_halving_single_pair_ratio(self):
        # (2, 1) is the one related pair of {1, 2} off the diagonal
        est, _ = estimate_lambda(
            HALVING.map, HALVING.wdistance, HALVING.relation, [scalar(1.0), scalar(2.0)]
        )
        assert abs(est.lambda_hat - 5.0 / 6.0) <= 1e-12
        assert est.pairs_checked == 1 and est.witness_pair == pair(2.0, 1.0)

    def test_identity_map_is_not_a_contraction(self):
        rel = HALVING.relation
        sample = [scalar(v) for v in (1.0, 1.5, 2.0)]
        est, _ = estimate_lambda(SelfMap.identity(), WDistance.from_metric(), rel, sample)
        assert est.lambda_hat == 1.0
        assert not est.is_contraction

    def test_zero_p_pairs_use_violation_channel(self):
        # p(x, y) = y vanishes when y = 0; the image pair must vanish too.
        # Of the related pairs of {0, 1} off the diagonal, (1, 0) has y = 0.
        sample = [scalar(0.0), scalar(1.0)]
        est, _ = estimate_lambda(SHRINK.map, SHRINK.wdistance, SHRINK.relation, sample)
        assert est.zero_p_pairs == 1
        assert est.zero_p_violations == ()
        shift = SelfMap.on_scalars("shift_up", lambda v: v + 0.5)
        est_bad, _ = estimate_lambda(shift, SHRINK.wdistance, SHRINK.relation, sample)
        assert est_bad.zero_p_violations == (pair(1.0, 0.0),)
        assert not est_bad.is_contraction

    def test_diagonal_zero_p_violation_counts_only_with_the_diagonal(self):
        # p(x, y) = y vanishes on one related pair, (0, 0), and its image
        # pair (0.5, 0.5) does not
        sample = sample_space(interval_space(0.0, 1.0), step=0.25)
        rel = Relation.elementwise("ascending", lambda x, y: x <= y)
        shift = SelfMap.elementwise("shift_up", lambda v: v + 0.5)
        p = WDistance.elementwise("second_coordinate", lambda x, y: y + 0.0 * x)
        estimates = estimate_lambda(shift, p, rel, sample)
        for diagonal, want in ((False, ()), (True, (pair(0.0, 0.0),))):
            est = estimates[diagonal]
            assert est.include_diagonal is diagonal
            assert est.zero_p_pairs == len(want)
            assert est.zero_p_violations == want

    def test_diagonal_only_in_the_second_estimate(self):
        # the related pairs of {1, 2} are (1, 1), (2, 1) and (2, 2); T fixes 2
        sample = [scalar(1.0), scalar(2.0)]
        est, est_diag = estimate_lambda(HALVING.map, HALVING.wdistance, HALVING.relation, sample)
        assert est.pairs_checked == 1
        assert est_diag.pairs_checked == 3
        assert est_diag.lambda_hat == 1.0

    def test_diagonal_pairs_alone_are_not_a_contraction(self):
        est, _ = estimate_lambda(DOUBLE, WDistance.from_metric(), EQUAL, [scalar(2.0), scalar(3.0)])
        assert (est.lambda_hat, est.pairs_checked) == (0.0, 0)
        assert not est.is_contraction
        assert not est.to_record()["is_contraction"]

    def test_empty_pair_set_rejected(self):
        # an empty sample, and a sample whose points relate to nothing
        above_five = Relation.elementwise("from_above_five", lambda x, y: x > 5.0)
        for rel, sample in ((HALVING.relation, []), (above_five, [scalar(0.0), scalar(1.0)])):
            with pytest.raises(EstimationError, match="empty pair set"):
                estimate_lambda(HALVING.map, HALVING.wdistance, rel, sample)

    def test_related_pairs_are_every_related_pair_in_row_major_order(self):
        sample = sample_space(SHRINK.space, step=0.05)
        pairs = related_pairs(SHRINK.relation, sample)
        assert pairs == [(x, y) for x in sample for y in sample if SHRINK.relation(x, y)]
        assert pairs == related_pairs(SHRINK.relation, sample)
        assert 100 < len(pairs) < len(sample) ** 2

    def test_max_property_bounds_every_checked_pair(self):
        sample = sample_space(SHRINK.space, step=0.05)
        est, _ = estimate_lambda(SHRINK.map, SHRINK.wdistance, SHRINK.relation, sample)
        for x, y in related_pairs(SHRINK.relation, sample):
            base = SHRINK.wdistance(x, y)
            if base > 0.0 and x.value != y.value:
                image = SHRINK.wdistance(SHRINK.map.apply(x), SHRINK.map.apply(y))
                assert est.lambda_hat * base >= image - 1e-12


@pytest.mark.parametrize("entry", [None, pair(1.0, 2.0), 2.0], ids=["none", "pair", "float"])
def test_sample_entries_that_are_not_points_rejected(entry):
    with pytest.raises(ShapeError, match="expected a scalar point"):
        estimate_lambda(HALVING.map, HALVING.wdistance, HALVING.relation, [scalar(1.0), entry])


def classical(map_, space, rel, values):
    return compare_classical(map_, space, rel, [scalar(v) for v in values])


class TestCompareClassical:
    def test_halving_pair_values(self):
        # the related pairs of {1, 2} are (1, 1), (2, 1) and (2, 2)
        comparison = classical(HALVING.map, HALVING.space, HALVING.relation, (1.0, 2.0))
        row = comparison.first_banach_failure
        assert (row.x, row.y) == pair(2.0, 1.0)
        assert row.d_image == 1.5
        assert row.d_pair == 1.0
        assert row.m_displacement == 1.25
        assert comparison.first_mt_failure == row
        assert (comparison.pairs, comparison.banach_failure_count) == (3, 1)
        assert comparison.mt_failure_count == 1

    def test_shrink_displacement_equality_pair(self):
        # (0.75, 1) and (1, 0.75) both fail, the first in row-major order
        comparison = classical(SHRINK.map, SHRINK.space, SHRINK.relation, (0.75, 1.0))
        row = comparison.first_mt_failure
        assert (row.x, row.y) == pair(0.75, 1.0)
        assert row.d_image == 0.5
        assert row.m_displacement == 0.5
        assert comparison.mt_failure_count == 2

    def test_contractive_pair_reported_clean(self):
        comparison = classical(SHRINK.map, SHRINK.space, SHRINK.relation, (0.25, 0.5))
        assert comparison.pairs == 4
        assert comparison.banach_failure_count == comparison.mt_failure_count == 0
        assert comparison.first_banach_failure is comparison.first_mt_failure is None
        assert comparison.to_record()["first_mt_failure"] is None

    def test_headline_separation(self):
        # the metric expands the pair while the pair-distance ratio stays 5/6
        comparison = classical(HALVING.map, HALVING.space, HALVING.relation, (1.0, 2.0))
        assert comparison.banach_failure_count == 1
        est, _ = estimate_lambda(
            HALVING.map, HALVING.wdistance, HALVING.relation, [scalar(1.0), scalar(2.0)]
        )
        assert est.lambda_hat < 1.0


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return ("returned", fn(*args, **kwargs))
    except RelfixError as exc:
        return ("raised", type(exc).__name__, str(exc))


def fixture_sample(key, refine):
    fx = FIXTURES[key]()
    return fx, sample_space(fx.space, step=fx.default_step / refine)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("key", sorted(FIXTURES))
class TestPairSet:
    """``related_pairs`` against the pair list it stands for, and the sample
    scans against plain loops over that list."""

    def test_reads_as_the_pair_list(self, key, refine):
        fx, sample = fixture_sample(key, refine)
        pairs = related_pairs(fx.relation, sample)
        listed = [(x, y) for x in sample for y in sample if fx.relation(x, y)]
        assert len(pairs) == len(listed) > 0
        assert pairs[0] == listed[0] and pairs[-1] == listed[-1]
        assert pairs[3:17] == listed[3:17] and pairs[::7] == listed[::7]
        assert pairs[-5:1:-3] == listed[-5:1:-3]
        assert pairs[:5] + pairs[-5:] == listed[:5] + listed[-5:]
        assert pairs == listed

    def test_checks_match_the_plain_list(self, key, refine):
        fx, sample = fixture_sample(key, refine)
        p = fx.wdistance or WDistance.from_metric()
        assert outcome(estimate_lambda, fx.map, p, fx.relation, sample) == outcome(
            scan_estimates, fx.map, p, fx.relation, sample
        )
        comparison = compare_classical(fx.map, fx.space, fx.relation, sample)
        assert comparison == scan_classical(fx.map, fx.relation, sample)

    def test_scans_read_the_relation_they_are_given(self, key, refine):
        fx, sample = fixture_sample(key, refine)
        p = fx.wdistance or WDistance.from_metric()
        copied = dataclasses.replace(fx.relation)
        assert copied is not fx.relation
        assert outcome(estimate_lambda, fx.map, p, copied, sample) == outcome(
            estimate_lambda, fx.map, p, fx.relation, sample
        )
        assert compare_classical(fx.map, fx.space, copied, sample) == compare_classical(
            fx.map, fx.space, fx.relation, sample
        )
        # every pair of the sample relates under the universal relation
        every = universal_relation()
        _, with_diagonal = estimate_lambda(fx.map, p, every, sample)
        assert with_diagonal.pairs_checked == len(sample) ** 2
        assert compare_classical(fx.map, fx.space, every, sample).pairs == len(sample) ** 2


def test_pair_set_index_out_of_range():
    pairs = related_pairs(HALVING.relation, [scalar(v) for v in (1.0, 2.0)])
    assert len(pairs) == 3
    assert pairs[-3] == pairs[0]
    for k in (3, -4):
        with pytest.raises(IndexError):
            pairs[k]


def test_comparison_builds_only_its_first_failures(monkeypatch):
    sample = sample_space(HALVING.space, step=0.01)
    built = []
    init = PairComparison.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PairComparison, "__init__", counted_init)
    comparison = compare_classical(HALVING.map, HALVING.space, HALVING.relation, sample)
    record = comparison.to_record()
    assert record["pairs"] == len(related_pairs(HALVING.relation, sample)) > 20_000
    assert record["banach_failure_count"] == record["mt_failure_count"] == 7530
    first = comparison.first_banach_failure
    assert (first.x, first.y) == pair(2.0, 1.0) and comparison.first_mt_failure == first
    assert len(built) == 2


class TestDistinctPoints:
    def test_map_applied_once_per_distinct_point(self):
        calls = []

        def capped_halving(v):
            calls.append(v)
            return v / 2.0 if v < 2.0 else 2.0

        counted = SelfMap.on_scalars("capped_halving", capped_halving)
        sample = [scalar(v) for v in (1.0, 1.5, 2.0, 2.5)]
        est = estimate_lambda(counted, HALVING.wdistance, HALVING.relation, sample)
        assert sorted(calls) == [1.0, 1.5, 2.0, 2.5]
        assert est == estimate_lambda(HALVING.map, HALVING.wdistance, HALVING.relation, sample)
        calls.clear()
        comparison = compare_classical(counted, HALVING.space, HALVING.relation, sample)
        assert sorted(calls) == [1.0, 1.5, 2.0, 2.5]
        assert comparison == compare_classical(
            HALVING.map, HALVING.space, HALVING.relation, sample
        )

    def test_relation_is_evaluated_once_per_sample_pair(self):
        calls = []

        def at_most(x, y):
            calls.append((x, y))
            return x <= y

        rel = Relation.on_scalars("at_most", at_most)
        sample = [scalar(v) for v in (0.5, 1.0, 1.5, 2.0)]
        for check in (
            lambda: estimate_lambda(SHRINK.map, SHRINK.wdistance, rel, sample),
            lambda: compare_classical(SHRINK.map, SHRINK.space, rel, sample),
        ):
            calls.clear()
            check()
            assert sorted(calls) == sorted((x.value, y.value) for x in sample for y in sample)

    def test_point_moves_measured_once_per_distinct_point(self, monkeypatch):
        # grid functions take the per-pair path, one metric call per distance
        grid = Grid(4)
        sample = sample_space(function_space(grid), count=4, seed=1)
        halve = SelfMap.on_grids("halve", lambda v: v / 2.0)
        rel = universal_relation()
        expected = compare_classical(halve, function_space(grid), rel, sample)
        calls = []

        def counted(x, y):
            calls.append(1)
            return point_distance(x, y)

        monkeypatch.setattr(relfix.wdistance, "point_distance", counted)
        comparison = compare_classical(halve, function_space(grid), rel, sample)
        assert len(calls) == 4 * len(sample) ** 2 + len(sample)
        assert comparison.to_record() == expected.to_record()
        assert comparison == expected


OUTSIDE_THE_SPACE = [
    pytest.param(HALVING.space, [scalar(1.0), scalar(3.5)], id="interval"),
    pytest.param(HALVING.space, [scalar(1.0), scalar(3.0)], id="interval-open-end"),
    pytest.param(HALVING.space, [scalar(0.5), scalar(1.0)], id="interval-below"),
    pytest.param(function_space(Grid(4)), [zero_grid_fn(Grid(4)), zero_grid_fn(Grid(8))],
                 id="other-grid"),
    pytest.param(function_space(Grid(4)), [zero_grid_fn(Grid(4)), scalar(0.0)],
                 id="scalar-in-function-space"),
]


@pytest.mark.parametrize("space, sample", OUTSIDE_THE_SPACE)
def test_sample_points_outside_the_space_rejected(space, sample):
    rel = universal_relation()
    with pytest.raises(PreconditionError, match="outside the space"):
        compare_classical(SelfMap.identity(), space, rel, sample)
    with pytest.raises(PreconditionError, match="outside the space"):
        check_w3(WDistance.from_metric(), space, sample, eps_grid=(0.5,))


def test_images_may_leave_the_space():
    # Ex2_3's map halves [1, 2) into [0.5, 1), outside its space [1, 3)
    fx = FIXTURES["Ex2_3"]()
    sample = sample_space(fx.space, step=fx.default_step)
    assert not all(fx.space.contains(pt) for pt in fx.map.apply_all(sample))
    comparison = compare_classical(fx.map, fx.space, fx.relation, sample)
    assert comparison.pairs == len(related_pairs(fx.relation, sample)) > 0


class TestVerifyTheorem:
    def test_shrink_all_verified(self):
        sample = sample_space(SHRINK.space, step=0.01)
        report = verify_theorem(
            SHRINK.map, SHRINK.space, SHRINK.relation, SHRINK.wdistance, sample, scalar(1.0)
        )
        assert report.overall is OverallVerdict.ALL_VERIFIED_ON_SAMPLE
        assert abs(report.lambda_hat - 0.75) <= 1e-12
        assert report.orbit is not None
        assert report.reasons == ()

    def test_parity_fixture_incomplete(self):
        fx = parity_successor_fixture()
        sample = sample_space(fx.space, step=1.0)
        report = verify_theorem(
            fx.map, fx.space, fx.relation, WDistance.from_metric(), sample, scalar(2.0)
        )
        assert report.overall is OverallVerdict.INCOMPLETE
        assert not report.t_closed
        assert not report.contraction
        assert report.reasons != ()

    def test_integral_operator_all_verified(self):
        problem = FbvpProblem(
            beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(32)
        )
        fx = fbvp_fixture(problem)
        sample = sample_space(fx.space, count=5, seed=3)
        report = verify_theorem(
            fx.map, fx.space, fx.relation, fx.wdistance, sample, fx.orbit_seed
        )
        assert report.overall is OverallVerdict.ALL_VERIFIED_ON_SAMPLE
        assert report.lambda_hat < problem.L * 1.47

    def test_sample_without_related_pairs_leaves_lambda_infinite(self):
        # only points above 5 relate to anything, and the sample holds none
        report = verify_theorem(
            HALVE, interval_space(0.0, 20.0),
            Relation.elementwise("from_above_five", lambda x, y: x > 5.0),
            WDistance.from_metric(), [scalar(0.0), scalar(1.0)], scalar(10.0),
        )
        assert report.overall is OverallVerdict.INCOMPLETE
        assert report.lambda_hat == report.lambda_hat_with_diagonal == math.inf
        assert report.orbit is None
        assert report.reasons == (
            "no sampled start points",
            "cannot estimate a contraction factor from an empty pair set",
        )

    def test_diagonal_pairs_alone_leave_the_contraction_unverified(self):
        report = verify_theorem(
            DOUBLE, interval_space(0.0, 10.0), EQUAL, WDistance.from_metric(),
            [scalar(2.0), scalar(3.0)], scalar(0.0),
        )
        assert report.overall is OverallVerdict.INCOMPLETE
        assert not report.contraction and report.estimate.pairs_checked == 0
        assert report.orbit is None
        assert any(r.startswith("contraction unverified: ") for r in report.reasons)

    def test_no_off_diagonal_pair_is_the_reason_given(self):
        report = verify_theorem(
            DOUBLE, interval_space(0.0, 10.0), EQUAL, WDistance.from_metric(),
            [scalar(2.0), scalar(3.0)], scalar(0.0),
        )
        assert "contraction unverified: no off-diagonal related pair was checked" in report.reasons
        assert not any("lambda_hat" in r for r in report.reasons)

    @pytest.mark.parametrize(
        "map_, space, rel, seed, reason",
        [
            pytest.param(
                HALVE, interval_space(0.0, 2.0),
                Relation.elementwise("ascending", lambda x, y: x <= y), 0.0,
                "no sampled start points", id="no-start-points",
            ),
            pytest.param(
                HALVE, interval_space(0.0, 2.0),
                Relation.elementwise("above", lambda x, y: x > y), 1.0,
                "orbit has tail entries unrelated to its limit", id="tail-unrelated-to-limit",
            ),
            pytest.param(
                HALVE, interval_space(0.5, 2.0), HALVING.relation, 1.0,
                "orbit did not converge inside the space", id="orbit-leaves-space",
            ),
            pytest.param(
                SelfMap.elementwise("halve_or_double", lambda v: np.where(v <= 2, v / 2, 2 * v)),
                interval_space(0.0, 2.0), universal_relation(), 4.0,
                "orbit check failed: ", id="orbit-diverges",
            ),
        ],
    )
    def test_one_failed_hypothesis_is_named(self, map_, space, rel, seed, reason):
        # the map halves the sample, so lambda_hat = 1/2 on every case
        sample = [scalar(0.5), scalar(1.0)]
        report = verify_theorem(map_, space, rel, WDistance.from_metric(), sample, scalar(seed))
        assert report.overall is OverallVerdict.INCOMPLETE
        assert report.lambda_hat == 0.5
        assert len(report.reasons) == 1 and report.reasons[0].startswith(reason)

    def test_seed_outside_start_set_rejected(self):
        with pytest.raises(PreconditionError):
            verify_theorem(
                SelfMap.on_scalars("ascend", lambda v: v + 1.0),
                HALVING.space,
                HALVING.relation,
                HALVING.wdistance,
                [scalar(1.0)],
                scalar(1.0),
            )


@settings(max_examples=30, deadline=None)
@given(
    subset_size=st.integers(min_value=1, max_value=20),
    extra_size=st.integers(min_value=1, max_value=20),
)
def test_estimate_monotone_in_pair_set(subset_size, extra_size):
    # the related pairs of a sample's first points are some of its own
    sample = sample_space(SHRINK.space, step=0.05)
    base = sample[: subset_size + 1]
    bigger = sample[: subset_size + 1 + extra_size]
    est_small, _ = estimate_lambda(SHRINK.map, SHRINK.wdistance, SHRINK.relation, base)
    est_big, _ = estimate_lambda(SHRINK.map, SHRINK.wdistance, SHRINK.relation, bigger)
    assert est_big.lambda_hat >= est_small.lambda_hat


def scan_estimates(map_, p, rel, sample):
    """Both contraction estimates, without and then with the diagonal, by a
    plain scan of every related sample pair in row-major order."""
    images = [map_.apply(x) for x in sample]
    related = [(a, b) for a in range(len(sample)) for b in range(len(sample))
               if rel(sample[a], sample[b])]
    if not related:
        raise EstimationError("cannot estimate a contraction factor from an empty pair set")
    estimates = []
    for include_diagonal in (False, True):
        best, witness, checked, zero, violations = 0.0, None, 0, 0, []
        for a, b in related:
            x, y = sample[a], sample[b]
            if not include_diagonal and x == y:
                continue
            checked += 1
            base, image = p(x, y), p(images[a], images[b])
            if base == 0.0:
                zero += 1
                violations += [(x, y)] if image > 0.0 else []
            elif witness is None or image / base > best:
                best, witness = image / base, (x, y)
        estimates.append(
            ContractionEstimate(best, witness, checked, zero, tuple(violations), include_diagonal)
        )
    return tuple(estimates)


def scan_classical(map_, rel, sample):
    """The classical comparison by a plain scan of every related sample pair
    in row-major order."""
    images = [map_.apply(x) for x in sample]
    pairs, counts, first = 0, [0, 0], [None, None]
    for x, tx in zip(sample, images):
        for y, ty in zip(sample, images):
            if not rel(x, y):
                continue
            pairs += 1
            d_image, d_pair = point_distance(tx, ty), point_distance(x, y)
            m = max(
                d_pair, point_distance(x, tx), point_distance(y, ty),
                (point_distance(x, ty) + point_distance(y, tx)) / 2,
            )
            for e, bound in enumerate((d_pair, m)):
                if 0.0 < d_image and bound <= d_image:
                    counts[e] += 1
                    first[e] = first[e] or PairComparison(x, y, d_image, d_pair, m)
    return ClassicalComparison(pairs, *counts, *first)


# p(x, y) = 0 on every pair with y <= x, so pairs that the fold map reverses
# are zero-p violations; p(x, y) = y is positive on the diagonal off 0, and
# every related pair (x, 0) is a violation.
SCAN_DISTANCES = {
    "forward_gap": WDistance.elementwise("forward_gap", lambda x, y: np.maximum(y - x, 0.0)),
    "second_coordinate": WDistance.elementwise("second_coordinate", lambda x, y: y + 0.0 * x),
}
# Each relation with the least and most related pairs that any seed's 40
# points give it, and whether its scan must meet zero-p violations.
# ``ordered`` relates only upper-triangle pairs, on which forward_gap is 0
# only where x = y; ``top_rows`` relates whole rows, so most row blocks of
# ``_related_blocks`` hold no related pair at all.
SCAN_RELATIONS = {
    "quarter_sum_not_3k": (
        Relation.elementwise(
            "quarter_sum_not_3k", lambda x, y: (np.floor(4 * x) + np.floor(4 * y)) % 3 != 0
        ),
        (1002, 1063),
        True,
    ),
    "universal": (
        Relation.elementwise("universal", lambda x, y: np.isfinite(x + y)),
        (1600, 1600),
        True,
    ),
    "ordered": (Relation.elementwise("ordered", lambda x, y: x <= y), (873, 887), False),
    "top_rows": (
        Relation.elementwise("top_rows", lambda x, y: (x >= 2.5) & np.isfinite(y)),
        (280, 280),
        False,
    ),
}
SCAN_MAP = SelfMap.elementwise("fold", lambda v: np.abs(v - 1.25) * 0.5)


@pytest.mark.parametrize(
    "block, per_pair",
    [(None, False), (64, False), (200, False), (64, True)],
    ids=["one-block", "row-blocks", "five-row-blocks", "row-blocks-per-pair"],
)
@pytest.mark.parametrize("relation", sorted(SCAN_RELATIONS))
@pytest.mark.parametrize("distance", sorted(SCAN_DISTANCES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_estimates_match_a_plain_scan(
    seed, distance, relation, block, per_pair, monkeypatch
):
    # 40 draws from 12 quarter values: repeated points put same-point pairs
    # off the index diagonal, and tied ratios test that the first maximum
    # wins.  Every related pair of the 1,600 = 40^2 is read.
    values = np.random.default_rng(seed).integers(0, 12, size=40) / 4.0
    sample = as_sample([scalar(v) for v in values])
    (rel, (least, most), violations), map_ = SCAN_RELATIONS[relation], SCAN_MAP
    p = SCAN_DISTANCES[distance]
    if block is not None:
        monkeypatch.setattr(relfix.spaces, "BLOCK_ELEMENTS", block)
    want = scan_estimates(map_, p, rel, sample)
    if per_pair:
        rel, map_, p = (dataclasses.replace(c, array=None) for c in (rel, map_, p))
    got = estimate_lambda(map_, p, rel, sample)
    assert got == want
    assert least <= got[1].pairs_checked <= most
    assert got[0].pairs_checked < got[1].pairs_checked
    assert got[0].lambda_hat > 0.0
    if violations:
        assert got[0].zero_p_violations


@pytest.mark.parametrize("key", ["Ex2_3", "Ex2_4"])
def test_lambda_hat_never_falls_over_nested_lattices(key):
    # Each step halves the one before, so each lattice holds the last one's
    # points and the supremum over its related pairs cannot fall.
    fx = FIXTURES[key]()
    lambdas = []
    for refine in (1, 2, 4, 8, 16):
        sample = sample_space(fx.space, step=fx.default_step / refine)
        plain, _ = estimate_lambda(fx.map, fx.wdistance, fx.relation, sample)
        lambdas.append(plain.lambda_hat)
    assert lambdas == sorted(lambdas), lambdas
    if key == "Ex2_4":
        assert lambdas == [0.75] * 5


def test_classical_failure_counts_never_fall_over_nested_lattices():
    # Ex2_3 at 1,280 and 2,560 points, 819,840 and 3,278,080 related pairs:
    # the second lattice holds the first, so neither count can fall, and
    # both are counted over every related pair
    fx = FIXTURES["Ex2_3"]()
    counts = []
    for step in (2 / 1280, 2 / 2560):
        sample = sample_space(fx.space, step=step)
        comparison = compare_classical(fx.map, fx.space, fx.relation, sample)
        counts.append((comparison.banach_failure_count, comparison.mt_failure_count))
    assert counts == [(307_360, 307_360), (1_229_120, 1_229_120)]
