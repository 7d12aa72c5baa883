"""Relation predicates and sample-based closure checks."""

import pytest
from hypothesis import given, settings, strategies as st

from relfix import (
    Grid,
    PreconditionError,
    Relation,
    RelationProperty,
    RelationReport,
    SelfMap,
    Verdict,
    WDistance,
    check_complete_on,
    check_rlsc,
    check_t_closed,
    check_weak_t_closed,
    constant_grid_fn,
    find_start_points,
    grid_fn,
    is_preserving,
    sample_space,
    scalar,
    universal_relation,
    witness_d_self_closed,
    zero_grid_fn,
)
from relfix.fixtures import (
    fbvp_fixture,
    ordered_halving_fixture,
    parity_successor_fixture,
    product_shrink_fixture,
)
from relfix.fractional import FbvpProblem
from relfix.spaces import ScalarSample
from relfix.fixtures import constant_source


def pts(*values):
    return [scalar(v) for v in values]


class TestIsPreserving:
    def test_descending_sequence_preserves_order_relation(self):
        rel = ordered_halving_fixture().relation
        assert is_preserving(rel, pts(3, 2, 1.5, 1))

    def test_ascending_pair_fails_order_relation(self):
        rel = ordered_halving_fixture().relation
        assert not is_preserving(rel, pts(1, 2))

    def test_product_relation_verdict_recorded_by_direct_evaluation(self):
        # golden verdict: (2, 1.5) has product 3, above both coordinates,
        # so the chain 2, 1.5, 1 is not preserving under this relation
        rel = product_shrink_fixture().relation
        assert not rel(scalar(2.0), scalar(1.5))
        assert rel(scalar(1.5), scalar(1.0))
        assert is_preserving(rel, pts(2, 1.5, 1)) is False

    def test_short_sequence_rejected(self):
        with pytest.raises(PreconditionError):
            is_preserving(universal_relation(), pts(1))


class TestClosureChecks:
    def test_parity_relation_not_map_closed_with_witness(self):
        fx = parity_successor_fixture()
        sample = sample_space(fx.space, step=1.0)
        report = check_t_closed(fx.relation, fx.map, sample)
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        assert (scalar(2.0), scalar(3.0)) in report.witnesses

    def test_parity_relation_weakly_map_closed(self):
        fx = parity_successor_fixture()
        sample = sample_space(fx.space, step=1.0)
        assert check_weak_t_closed(fx.relation, fx.map, sample).ok

    def test_order_relation_map_closed_on_lattice(self):
        fx = ordered_halving_fixture()
        sample = sample_space(fx.space, step=0.1)
        assert check_t_closed(fx.relation, fx.map, sample).ok

    def test_identity_map_always_closed(self):
        fx = parity_successor_fixture()
        sample = sample_space(fx.space, step=1.0)
        assert check_t_closed(fx.relation, SelfMap.identity(), sample).ok

    def test_swap_map_weakly_closed_on_two_points(self):
        rel = Relation.on_scalars("single_pair", lambda x, y: (x, y) == (0.0, 1.0))
        swap = SelfMap.on_scalars("swap", lambda v: 1.0 - v)
        report = check_weak_t_closed(rel, swap, pts(0, 1))
        assert report.ok

    def test_mapclosed_implies_weak_on_fixture(self):
        fx = ordered_halving_fixture()
        sample = sample_space(fx.space, step=0.2)
        assert check_t_closed(fx.relation, fx.map, sample).ok
        assert check_weak_t_closed(fx.relation, fx.map, sample).ok


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: check_t_closed(universal_relation(), SelfMap.identity(), []),
            id="empty-sample",
        ),
        pytest.param(
            lambda: RelationReport(RelationProperty.COMPLETE, Verdict.FAILS_WITH_WITNESS, [], 3),
            id="failure-without-witness",
        ),
    ],
)
def test_unchecked_or_unwitnessed_claim_rejected(call):
    with pytest.raises(PreconditionError):
        call()


class TestStartPoints:
    def test_order_fixture_start_points(self):
        fx = ordered_halving_fixture()
        found = find_start_points(fx.relation, fx.map, pts(1, 2, 2.5))
        values = {p.value for p in found}
        assert {1.0, 2.0} <= values

    def test_zero_function_starts_integral_operator(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(16))
        fx = fbvp_fixture(problem)
        zero = zero_grid_fn(problem.grid)
        found = find_start_points(fx.relation, fx.map, [zero])
        assert len(found) == 1

    def test_empty_relation_has_no_start_points(self):
        rel = Relation.on_scalars("empty", lambda x, y: False)
        assert find_start_points(rel, SelfMap.identity(), pts(1, 2, 3)) == []


class TestCompleteness:
    def test_total_order_complete_on_any_sample(self):
        rel = ordered_halving_fixture().relation
        assert check_complete_on(rel, pts(0.3, 2.0, 1.1, 1.1)).ok

    def test_parity_relation_incomplete_with_witness(self):
        rel = parity_successor_fixture().relation
        report = check_complete_on(rel, pts(1, 2, 3, 4))
        assert report.verdict is Verdict.FAILS_WITH_WITNESS
        assert (scalar(2.0), scalar(4.0)) in report.witnesses

    def test_singleton_without_diagonal_fails(self):
        rel = Relation.on_scalars("irreflexive", lambda x, y: x > y)
        report = check_complete_on(rel, pts(1))
        assert report.verdict is Verdict.FAILS_WITH_WITNESS


class TestSelfClosedWitness:
    def test_decreasing_sequence_relates_to_its_limit(self):
        rel = ordered_halving_fixture().relation
        seq = [scalar(2.0 + 1.0 / n) for n in range(1, 101)] + [scalar(2.0)]
        witness = witness_d_self_closed(rel, seq, scalar(2.0))
        assert witness.ok
        assert witness.indices == tuple(range(101))

    def test_nonnegative_grid_functions_relate_to_limit(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(8))
        rel = fbvp_fixture(problem).relation
        limit = constant_grid_fn(problem.grid, 1.0)
        seq = [
            grid_fn(problem.grid, (1.0 + 1.0 / (n + 1)) * limit.values)
            for n in range(1, 80)
        ] + [limit]
        witness = witness_d_self_closed(rel, seq, limit)
        assert witness.ok

    def test_constant_sequence_with_reflexive_limit(self):
        rel = universal_relation()
        seq = pts(*([1.5] * 8))
        witness = witness_d_self_closed(rel, seq, scalar(1.5))
        assert witness.ok and len(witness.indices) == 8

    def test_tail_window_is_the_last_quarter(self):
        seq = ScalarSample([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0])
        rel, limit = universal_relation(), scalar(1.0)
        assert witness_d_self_closed(rel, seq, limit).tail_start == 6
        report = check_rlsc(WDistance.from_metric(), scalar(0.0), rel, seq, limit)
        assert report.detail["tail_window"] == 2

    def test_non_preserving_sequence_rejected(self):
        rel = ordered_halving_fixture().relation
        with pytest.raises(PreconditionError):
            witness_d_self_closed(rel, pts(1, 2, 2), scalar(2.0))

    def test_failure_lists_offending_indices(self):
        # strictly descending by at most 2: the first entry is too far above
        # the limit and the last one equals it
        rel = Relation.on_scalars("short_descent", lambda x, y: 0 < x - y <= 2)
        bad = witness_d_self_closed(rel, pts(4, 3, 2, 1.5, 1), scalar(1.0))
        assert not bad.ok
        assert bad.indices == (0, 4)


@settings(max_examples=60, deadline=None)
@given(
    pair_bits=st.lists(st.booleans(), min_size=16, max_size=16),
    map_values=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
)
def test_map_closed_implies_weakly_map_closed(pair_bits, map_values):
    domain = [0.0, 1.0, 2.0, 3.0]
    table = {
        (x, y): pair_bits[i * 4 + j]
        for i, x in enumerate(domain)
        for j, y in enumerate(domain)
    }
    rel = Relation.on_scalars("random_table", lambda x, y: table.get((x, y), False))
    map_ = SelfMap.on_scalars("random_map", lambda v: float(map_values[int(v)]))
    sample = pts(*domain)
    if check_t_closed(rel, map_, sample).ok:
        assert check_weak_t_closed(rel, map_, sample).ok


@settings(max_examples=60, deadline=None)
@given(
    seq=st.lists(
        st.floats(min_value=1.0, max_value=2.9, allow_nan=False), min_size=2, max_size=10
    )
)
def test_order_preserving_sequences_are_exactly_the_nonincreasing_ones(seq):
    rel = ordered_halving_fixture().relation
    points = pts(*seq)
    nonincreasing = all(a >= b for a, b in zip(seq, seq[1:]))
    assert is_preserving(rel, points) == nonincreasing


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
def test_convergence_tolerance_must_be_finite_and_nonnegative(bad):
    # the tail sits 4.0 from the limit: LIMIT_TOL and a finite conv_tol of 0.02
    # reject it, and check_rlsc rejects a conv_tol outside [0, inf)
    seq, limit = pts(5, 5, 5), scalar(1.0)
    with pytest.raises(PreconditionError, match="above tolerance"):
        witness_d_self_closed(universal_relation(), seq, limit)
    metric = WDistance.from_metric()
    with pytest.raises(PreconditionError, match="above tolerance"):
        check_rlsc(metric, scalar(0.0), universal_relation(), seq, limit, conv_tol=0.02)
    with pytest.raises(PreconditionError, match="finite and nonnegative"):
        check_rlsc(metric, scalar(0.0), universal_relation(), seq, limit, conv_tol=bad)
