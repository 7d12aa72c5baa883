"""Orbit generation, geometric certificates, and uniqueness probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfix import (
    DivergenceError,
    DomainError,
    Grid,
    PreconditionError,
    Relation,
    SelfMap,
    ShapeError,
    StopReason,
    UniquenessVerdict,
    WDistance,
    cauchy_bound,
    certify_cauchy,
    certify_fixed_point,
    certify_limit_uniqueness,
    constant_grid_fn,
    function_space,
    iterate,
    point_distance,
    probe_uniqueness,
    sample_space,
    scalar,
    universal_relation,
    zero_grid_fn,
)
from relfix.engine import CAUCHY_SLACK, OrbitTrace
from relfix.fixtures import ordered_halving_fixture, product_shrink_fixture


SHRINK = product_shrink_fixture()
HALVING = ordered_halving_fixture()


class TestIterate:
    def test_shrink_orbit_first_steps_and_limit(self):
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        head = [p.value for p in trace.points[:7]]
        assert head == [2.0, 1.5, 1.0, 0.75, 0.25, 1.0 / 12.0, 1.0 / 36.0]
        assert trace.stop_reason is StopReason.CONVERGED
        assert abs(trace.final.value) <= 1.5e-9

    def test_fixed_seed_converges_in_one_step(self):
        trace = iterate(HALVING.map, scalar(2.0), HALVING.wdistance, 0.9, max_iter=50)
        assert trace.steps == 1
        assert trace.stop_reason is StopReason.CONVERGED
        assert point_distance(trace.final, HALVING.map.apply(trace.final)) == 0.0

    def test_gap_and_bound_lengths(self):
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        assert len(trace.points) == trace.steps + 1
        assert len(trace.d_gaps) == len(trace.p_gaps) == len(trace.bound) == trace.steps

    def test_divergence_raises_with_partial_trace(self):
        expanding = SelfMap.on_scalars("tripling", lambda v: 3.0 * v + 1.0)
        with pytest.raises(DivergenceError) as err:
            iterate(expanding, scalar(1.0), WDistance.from_metric(), 0.5, max_iter=200)
        trace = err.value.trace
        assert trace is not None
        assert trace.stop_reason is StopReason.DIVERGED
        assert all(math.isfinite(p.value) for p in trace.points)

    def test_divergence_is_a_gap_beyond_1e8(self):
        metric = WDistance.from_metric()
        at_limit = SelfMap.elementwise("shift", lambda v: v + 1e8)
        assert iterate(at_limit, scalar(0.0), metric, 0.5, max_iter=3).steps == 3
        beyond = SelfMap.elementwise("shift", lambda v: v + 1.5e8)
        with pytest.raises(DivergenceError, match="divergence threshold") as err:
            iterate(beyond, scalar(0.0), metric, 0.5, max_iter=3)
        assert err.value.trace.steps == 1

    def test_non_finite_image_raises_with_partial_trace(self):
        overflowing = SelfMap.on_scalars("overflowing", lambda v: v * 1e308 * 10)
        with pytest.raises(DivergenceError, match="left the finite range") as err:
            iterate(overflowing, scalar(1.0), WDistance.from_metric(), 0.5)
        trace = err.value.trace
        assert trace.stop_reason is StopReason.DIVERGED
        assert trace.points == (scalar(1.0),)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(PreconditionError, match="tolerance"):
            iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=10, tol=tol)

    def test_max_iter_stop(self):
        slow = SelfMap.on_scalars("slow", lambda v: v * 0.99)
        trace = iterate(slow, scalar(1.0), WDistance.from_metric(), 0.99, max_iter=5, tol=1e-12)
        assert trace.stop_reason is StopReason.MAX_ITER
        assert trace.steps == 5

    def test_invalid_factor_rejected(self):
        with pytest.raises(DomainError):
            iterate(SelfMap.identity(), scalar(1.0), WDistance.from_metric(), -0.1)
        with pytest.raises(TypeError):
            iterate(SelfMap.identity(), scalar(1.0), WDistance.from_metric(), "0.5")


class TestCauchyBound:
    def test_half_factor_value(self):
        assert cauchy_bound(0.5, 1.0, 3) == pytest.approx(0.25, abs=1e-15)

    def test_zero_factor(self):
        assert cauchy_bound(0.0, 7.0, 1) == 0.0
        assert cauchy_bound(0.0, 7.0, 0) == 7.0

    def test_shrink_orbit_value_against_cumulative_gap_sums(self):
        # independent oracle: the bound dominates the summed future p-gaps
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        p01 = float(trace.p_gaps[0])
        value = cauchy_bound(0.75, p01, 10)
        assert value == pytest.approx(1.5 * 0.75**10 / 0.25, rel=1e-15)
        tail_sum = float(np.sum(trace.p_gaps[10:]))
        assert tail_sum <= value

    def test_factor_at_or_above_one_rejected(self):
        with pytest.raises(DomainError):
            cauchy_bound(1.0, 1.0, 3)

    def test_bound_strictly_decreasing_in_n(self):
        values = [cauchy_bound(0.75, 2.0, n) for n in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCertifyCauchy:
    def test_shrink_orbit_has_no_violations(self):
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        check = certify_cauchy(trace, SHRINK.wdistance)
        assert check.ok and check.violations == ()

    def test_constant_orbit_at_zero(self):
        trace = iterate(SHRINK.map, scalar(0.0), SHRINK.wdistance, 0.75, max_iter=10)
        check = certify_cauchy(trace, SHRINK.wdistance)
        assert check.ok

    def test_corrupted_trace_reports_violation(self):
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        points = list(trace.points)
        points[len(points) // 2] = scalar(points[len(points) // 2].value + 1.0)
        corrupted = OrbitTrace(
            tuple(points),
            trace.p_gaps,
            trace.d_gaps,
            trace.bound,
            trace.lambda_used,
            trace.stop_reason,
        )
        check = certify_cauchy(corrupted, SHRINK.wdistance)
        assert not check.ok
        assert len(check.violations) >= 1

    @pytest.mark.parametrize("over, ok", [(2.0, False), (0.5, True)])
    def test_slack_is_cauchy_slack(self, over, ok):
        # p(x_0, x_1) = 1 + over * CAUCHY_SLACK against the bound u_0 = 1
        value = 1.0 + over * CAUCHY_SLACK
        p = WDistance.elementwise("constant", lambda x, y: value)
        trace = OrbitTrace(
            (scalar(0.0), scalar(1.0)), np.array([value]), np.array([1.0]), np.array([1.0]),
            0.5, StopReason.MAX_ITER,
        )
        assert certify_cauchy(trace, p).ok is ok


    def test_no_certificate_without_a_contraction(self):
        # at lambda = 1 every bound u_n is infinite, so no pair could violate it
        grow = SelfMap.elementwise("grow", lambda v: 1.5 * v)
        trace = iterate(grow, scalar(1.0), WDistance.from_metric(), 1.0, max_iter=5)
        with pytest.raises(PreconditionError, match="lambda"):
            certify_cauchy(trace, WDistance.from_metric())


class TestLimitUniqueness:
    def _long_orbit(self):
        return iterate(
            SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=120, tol=1e-300
        )

    def test_orbit_tail_certifies_zero_limit(self):
        trace = self._long_orbit()
        xs = list(trace.points[-40:])
        u = [float(b) for b in trace.bound[-40:]]
        assert certify_limit_uniqueness(SHRINK.wdistance, xs, scalar(0.0), scalar(0.0), u, u)

    def test_equal_targets_with_exact_bounds(self):
        xs = [scalar(1.0 / 2**n) for n in range(4, 30)]
        y = scalar(0.0)
        u = [SHRINK.wdistance(x, y) for x in xs]
        assert certify_limit_uniqueness(SHRINK.wdistance, xs, y, y, u, u)

    def test_separated_targets_violate_hypotheses(self):
        trace = self._long_orbit()
        xs = list(trace.points[-40:])
        u = [float(b) for b in trace.bound[-40:]]
        with pytest.raises(PreconditionError, match="n = 0"):
            certify_limit_uniqueness(SHRINK.wdistance, xs, scalar(0.0), scalar(0.5), u, u)

    @pytest.mark.parametrize("gap, ok", [(1.5, False), (0.9, True)])
    def test_targets_must_lie_within_the_bound_sum(self, gap, ok):
        # with p = 0 every hypothesis holds, so d(y, z) <= u + v alone decides
        zero = WDistance.elementwise("zero", lambda x, y: 0.0)
        u = v = [1e-7]
        z = scalar(gap * (u[0] + v[0]))
        assert certify_limit_uniqueness(zero, [scalar(0.0)], scalar(0.0), z, u, v) is ok

    def test_unvanished_bounds_rejected(self):
        xs = [scalar(0.0)] * 3
        with pytest.raises(PreconditionError):
            certify_limit_uniqueness(
                SHRINK.wdistance, xs, scalar(0.0), scalar(0.0), [1.0] * 3, [1.0] * 3
            )


class TestFixedPointCertificate:
    def test_certificate_for_detected_fixed_point(self):
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        cert = certify_fixed_point(SHRINK.map, trace.final, SHRINK.wdistance)
        assert cert.residual <= 1e-9
        assert cert.p_self == pytest.approx(abs(trace.final.value), abs=1e-12)

    def test_non_fixed_point_refused(self):
        with pytest.raises(PreconditionError):
            certify_fixed_point(SHRINK.map, scalar(1.0), SHRINK.wdistance)


class TestUniquenessProbe:
    def test_shrink_unique_by_common_ancestor(self):
        sample = sample_space(SHRINK.space, step=0.1)
        trace = iterate(SHRINK.map, scalar(2.0), SHRINK.wdistance, 0.75, max_iter=100)
        result = probe_uniqueness(
            SHRINK.relation, SHRINK.map, SHRINK.wdistance, 0.75, [trace.final], sample
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
        assert result.z is not None and result.z.value == 0.0

    def test_halving_unique_by_completeness(self):
        sample = sample_space(HALVING.space, step=0.1)
        trace = iterate(HALVING.map, scalar(2.0), HALVING.wdistance, 0.9756, max_iter=50)
        result = probe_uniqueness(
            HALVING.relation, HALVING.map, HALVING.wdistance, 0.9756, [trace.final], sample
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_2

    def test_equal_candidates_unique_by_completeness(self):
        sample = sample_space(HALVING.space, step=0.1)
        result = probe_uniqueness(
            HALVING.relation, HALVING.map, HALVING.wdistance, 0.9,
            [scalar(2.0), scalar(2.0)], sample,
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_2

    def test_identity_fails_contraction_on_candidate_pair(self):
        # every point is fixed, so the related pair (1, 0) keeps its distance
        sample = sample_space(HALVING.space, step=0.1)
        result = probe_uniqueness(
            HALVING.relation, SelfMap.identity(), HALVING.wdistance, 0.9,
            [scalar(0.0), scalar(1.0)], sample,
        )
        assert result.verdict is UniquenessVerdict.PROBE_FAILED
        assert "contraction fails on a candidate pair" in result.notes

    @pytest.mark.parametrize(
        "rel, p, lam, candidates, note",
        [
            pytest.param(
                universal_relation(), WDistance.from_metric(), 1.0, [0.0, 1.0],
                "decay held but candidates stay separated", id="decay-but-separated",
            ),
            pytest.param(
                universal_relation(), WDistance.from_metric(), 1.0, [0.0, 1e-5],
                "decay held but candidates stay separated", id="decay-but-separated-by-1e-5",
            ),
            pytest.param(
                Relation.elementwise("ascending", lambda x, y: x <= y), WDistance.from_metric(),
                1.0, [0.0], "contraction factor not below 1, condition 2 inapplicable",
                id="factor-not-below-one",
            ),
            pytest.param(
                HALVING.relation, WDistance.from_metric(), 0.9, [1.0, 0.0],
                "contraction fails on a candidate pair", id="pair-related-in-given-order",
            ),
            pytest.param(
                Relation.elementwise("equal", lambda x, y: x == y), WDistance.from_metric(),
                0.5, [0.0, 1.0], "candidate pair unrelated in both orders", id="pair-unrelated",
            ),
            pytest.param(
                HALVING.relation, WDistance.elementwise("zero", lambda x, y: 0.0 * (x + y)),
                0.5, [0.0, 1.0], "candidate pair distance did not collapse",
                id="pair-not-collapsed",
            ),
        ],
    )
    def test_identity_probe_failure_notes(self, rel, p, lam, candidates, note):
        # the identity fixes every candidate, and each relation is complete on
        # the one image 0.5, so each case fails on the clause its note names
        result = probe_uniqueness(
            rel, SelfMap.identity(), p, lam, [scalar(c) for c in candidates], [scalar(0.5)]
        )
        assert result.verdict is UniquenessVerdict.PROBE_FAILED
        assert note in result.notes

    @pytest.mark.parametrize(
        "halve, zero, z, verdict",
        [
            pytest.param(
                SelfMap.on_scalars("halve", lambda v: 0.5 * v), scalar(0.0), scalar(1e-8),
                UniquenessVerdict.UNIQUE_BY_CONDITION_2, id="scalar",
            ),
            pytest.param(
                SelfMap.on_grids("halve", lambda v: 0.5 * v), zero_grid_fn(Grid(4)),
                constant_grid_fn(Grid(4), 1e-8), UniquenessVerdict.UNIQUE_BY_CONDITION_1,
                id="grid",
            ),
        ],
    )
    def test_decay_allowance_follows_the_candidate_kind(self, halve, zero, z, verdict):
        # the map halves, but the probe is told lambda = 1/4, so from z = 1e-8
        # the decay misses by 2.5e-9: inside default_tolerance of a grid
        # function (1e-8), outside that of a scalar (1e-9), where condition 2
        # certifies the single candidate instead
        result = probe_uniqueness(
            universal_relation(), halve, WDistance.from_metric(), 0.25, [zero], [z], z_hint=z
        )
        assert result.verdict is verdict

    def test_decay_is_checked_over_25_steps(self):
        # from z = 1 the orbit halves down to 1/16 and stays there, so the
        # 0.5^n decay fails at step 5 from the hint and at step 4 from the
        # image 0.5; condition 2 then certifies the single candidate
        halve = SelfMap.on_scalars("halve_down_to_1/16", lambda v: v / 2 if v > 1 / 16 else v)
        result = probe_uniqueness(
            universal_relation(), halve, WDistance.from_metric(), 0.5, [scalar(0.0)],
            [scalar(1.0)], z_hint=scalar(1.0),
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_2
        assert result.notes == ("no related z sustained the geometric decay",)

    def test_no_candidates_rejected(self):
        with pytest.raises(PreconditionError):
            probe_uniqueness(
                SHRINK.relation, SHRINK.map, SHRINK.wdistance, 0.75, [], [scalar(0.0)]
            )

    def test_non_fixed_candidate_rejected(self):
        with pytest.raises(PreconditionError):
            probe_uniqueness(
                SHRINK.relation, SHRINK.map, SHRINK.wdistance, 0.75,
                [scalar(1.0)], [scalar(0.0)],
            )

    def test_probe_failure_on_disconnected_relation(self):
        # nothing relates to the fixed point, and completeness fails too
        rel = Relation.on_scalars("nothing", lambda x, y: False)
        contraction = SelfMap.on_scalars("halve", lambda v: v / 2.0)
        trace = iterate(contraction, scalar(1.0), WDistance.from_metric(), 0.5, max_iter=100)
        result = probe_uniqueness(
            rel, contraction, WDistance.from_metric(), 0.5, [trace.final],
            [scalar(0.5), scalar(1.0)],
        )
        assert result.verdict is UniquenessVerdict.PROBE_FAILED


class TestProbeTriesEachDistinctAncestorOnce:
    """The decay test depends on z alone, so a scalar image equal bit for
    bit to one already tried is not tried again."""

    @staticmethod
    def _counted(map_: SelfMap, calls: list) -> SelfMap:
        # the same map with its array form; each single-point apply is counted
        return SelfMap(map_.name, lambda pt: calls.append(pt) or map_.apply(pt), map_.array)

    def test_equal_images_are_tried_once(self):
        # every sampled x >= 2 maps to 2, so the 20 related images are one z;
        # the map runs once for the candidate's residual and once for z,
        # whose decay fails at the first step
        sample = sample_space(HALVING.space, step=0.05)
        calls = []
        args = (HALVING.relation, self._counted(HALVING.map, calls), HALVING.wdistance, 0.9756)
        result = probe_uniqueness(*args, [scalar(2.0)], sample)
        assert len(calls) == 2
        # a map without an array form maps to a list, which the probe tries whole
        listed = SelfMap.on_scalars("capped_halving", lambda v: v / 2.0 if v < 2.0 else 2.0)
        assert listed.apply_all(sample) == HALVING.map.apply_all(sample)
        plain = probe_uniqueness(
            HALVING.relation, listed, HALVING.wdistance, 0.9756, [scalar(2.0)], sample
        )
        assert (result.verdict, result.z, result.notes) == (plain.verdict, plain.z, plain.notes)
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_2

    def test_the_earliest_passing_image_in_sample_order_is_reported(self):
        # both images decay at the halving rate; 1.5 comes first in the
        # sample, though 0.5 sorts first by value
        halve = SelfMap.elementwise("halve", lambda v: 0.5 * v)
        sample = [scalar(3.0), scalar(1.0), scalar(3.0)]
        result = probe_uniqueness(
            universal_relation(), halve, WDistance.from_metric(), 0.5, [scalar(0.0)], sample
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
        assert result.z == scalar(1.5)

    def test_negative_and_positive_zero_are_both_tried(self):
        # images -0.0 and 0.0 of the map v -> 0 * v; a pair distance that
        # charges 1 for a sign change fails the decay from -0.0 and holds it
        # from 0.0, which is reported
        zero = SelfMap.elementwise("zero", lambda v: 0.0 * v)
        signed = WDistance.elementwise(
            "signed", lambda x, y: np.abs(x - y) + (np.signbit(x) != np.signbit(y))
        )
        result = probe_uniqueness(
            universal_relation(), zero, signed, 0.5, [scalar(0.0)], [scalar(-1.0), scalar(1.0)]
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
        assert math.copysign(1.0, result.z.value) == 1.0 and result.z.value == 0.0


class TestProbeStopsMappingAtAnExactFixedPoint:
    """Once T returns its point bit for bit the orbit stays there, so the
    decay test maps no further and checks the steps left against the same
    p values."""

    @staticmethod
    def _counted(map_: SelfMap, calls: list, mapped_all: list) -> SelfMap:
        # each single-point apply goes to ``calls``, each array call to ``mapped_all``
        return SelfMap(
            map_.name,
            lambda pt: calls.append(pt) or map_.apply(pt),
            lambda v: mapped_all.append(v) or map_.array(v),
        )

    def test_ex2_4_hint_is_mapped_once_and_the_sample_not_at_all(self):
        # the hint z = 0 is fixed by T: one apply for the candidate's
        # residual and one for z, where 26 were made before; the hint
        # certifies before the 201-point sample would be mapped
        sample = sample_space(SHRINK.space, step=SHRINK.default_step)
        orbit = iterate(SHRINK.map, SHRINK.orbit_seed, SHRINK.wdistance, 0.75, max_iter=60)
        args = (SHRINK.relation, SHRINK.wdistance, 0.75, [orbit.final], sample)
        calls, mapped_all = [], []
        counted = self._counted(SHRINK.map, calls, mapped_all)
        result = probe_uniqueness(args[0], counted, *args[1:], z_hint=SHRINK.z_hint)
        assert (len(calls), mapped_all) == (2, [])
        plain = probe_uniqueness(args[0], SHRINK.map, *args[1:], z_hint=SHRINK.z_hint)
        assert result == plain
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
        assert result.z == scalar(0.0) and result.notes == ()

    @pytest.mark.parametrize(
        "root, verdict",
        [
            pytest.param(25.5, UniquenessVerdict.UNIQUE_BY_CONDITION_1, id="holds-at-step-25"),
            pytest.param(24.5, UniquenessVerdict.UNIQUE_BY_CONDITION_2, id="fails-at-step-25"),
        ],
    )
    def test_a_stopped_orbit_is_held_to_every_remaining_bound(self, root, verdict):
        # from z = 1 the orbit halves down to 1/16 and stops there at step 4;
        # lambda = 16^(-1 / root) keeps lambda^n above 1/16 up to step
        # root - 1/2, so the decay passes at the step where the orbit stopped
        # and at every step to 25 at root 25.5, and fails at step 25 alone at
        # root 24.5, where condition 2 certifies the single candidate instead
        calls, mapped_all = [], []
        halve = SelfMap.elementwise("halve_down_to_1/16", lambda v: np.where(v > 1 / 16, v / 2, v))
        counted = self._counted(halve, calls, mapped_all)
        result = probe_uniqueness(
            universal_relation(), counted, WDistance.from_metric(), 16 ** (-1 / root),
            [scalar(0.0)], [scalar(1.0)], z_hint=scalar(1.0),
        )
        assert result.verdict is verdict
        # one apply for the residual and five along the orbit from the hint;
        # only when the hint fails is the sample mapped, and the orbit of its
        # image 0.5 stops a step sooner
        assert (len(calls), len(mapped_all)) == ((6, 0) if root == 25.5 else (6 + 4, 1))

    @pytest.mark.parametrize(
        "zero, wrap",
        [
            pytest.param(scalar(0.0), lambda fn: SelfMap.on_scalars("m", fn), id="scalar"),
            pytest.param(zero_grid_fn(Grid(4)), lambda fn: SelfMap.on_grids("m", fn), id="grid"),
        ],
    )
    def test_a_sign_flip_is_not_a_fixed_point(self, zero, wrap):
        # v -> -v/2 sends 0.0 to -0.0 and back, never bit for bit to itself,
        # so all 25 steps are mapped; v -> v/2 fixes 0.0 at the first
        calls = {}
        for name, fn in (("flip", lambda v: -0.5 * v), ("halve", lambda v: 0.5 * v)):
            calls[name] = []
            map_ = wrap(lambda v, fn=fn, seen=calls[name]: seen.append(1) or fn(v))
            result = probe_uniqueness(
                universal_relation(), map_, WDistance.from_metric(), 0.5, [zero], [], z_hint=zero
            )
            assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
        assert (len(calls["flip"]), len(calls["halve"])) == (1 + 25, 1 + 1)


class TestSelfMapForms:
    def test_grid_map_through_apply_and_apply_all(self):
        grid = Grid(4)
        double = SelfMap.on_grids("double", lambda v: 2.0 * v)
        sample = sample_space(function_space(grid), count=2, seed=0)
        images = double.apply_all(sample)
        assert len(images) == len(sample)
        for pt, image in zip(sample, images):
            assert image.grid == grid
            assert np.array_equal(image.values, 2.0 * pt.values)
        assert np.array_equal(double.apply(sample[1]).values, images[1].values)
        with pytest.raises(ShapeError):
            double.apply(scalar(1.0))


class TestOrbitProperties:
    def test_p_gap_chaining_under_verified_contraction(self):
        for seed in (2.0, 1.0, 0.9, 1.7):
            trace = iterate(SHRINK.map, scalar(seed), SHRINK.wdistance, 0.75, max_iter=100)
            for n in range(1, trace.steps):
                assert trace.p_gaps[n] <= 0.75 * trace.p_gaps[n - 1] + 1e-12

    def test_converged_orbit_final_gap_below_tolerance(self):
        trace = iterate(SHRINK.map, scalar(1.3), SHRINK.wdistance, 0.75, tol=1e-7)
        assert trace.stop_reason is StopReason.CONVERGED
        assert trace.d_gaps[-1] <= 1e-7


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.01, max_value=0.99),
    p01=st.floats(min_value=1e-6, max_value=100.0),
    n=st.integers(min_value=0, max_value=50),
)
def test_cauchy_bound_monotone_property(lam, p01, n):
    assert cauchy_bound(lam, p01, n + 1) < cauchy_bound(lam, p01, n)


def _identity_probe(lam):
    # the identity fixes every point, so only z = 1 keeps p(T^n z, 1) within
    # lam^n * p(z, 1); a NaN factor makes every such comparison false
    sample = [scalar(v) for v in (0.0, 0.25, 0.75, 1.0)]
    return probe_uniqueness(
        universal_relation(), SelfMap.identity(), WDistance.from_metric(), lam,
        [scalar(1.0)], sample,
    )


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: _identity_probe(math.nan), id="probe-nan"),
        pytest.param(lambda: _identity_probe(-0.5), id="probe-negative"),
        pytest.param(lambda: cauchy_bound(0.5, math.nan, 2), id="cauchy-bound-nan-p01"),
        pytest.param(lambda: cauchy_bound(0.0, math.inf, 1), id="cauchy-bound-inf-p01"),
        pytest.param(lambda: cauchy_bound(0.5, 1.0, 1.5), id="cauchy-bound-fractional-n"),
    ],
)
def test_nan_or_negative_inputs_rejected(call):
    assert _identity_probe(0.5).z == scalar(1.0)
    with pytest.raises(DomainError):
        call()

