"""Space, point, and sampling behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relfix import (
    DomainError,
    Grid,
    SamplingError,
    SelfMap,
    ShapeError,
    WDistance,
    caputo_derivative_nodes,
    caputo_residual,
    check_w3,
    compare_classical,
    function_space,
    grid_fn,
    interval_space,
    point_distance,
    points_equal,
    sample_space,
    scalar,
    universal_relation,
    verify_theorem,
    zero_grid_fn,
)
from relfix.fixtures import product_shrink_fixture
from relfix.spaces import MAX_GRID_N, ScalarPoint, ScalarSample, take


class TestGridAndPoints:
    def test_grid_nodes_uniform(self):
        g = Grid(4)
        assert g.h == 0.25
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Grid(0)

    def test_grid_accepts_numpy_integers(self):
        for n in (np.int64(8), np.int32(8), np.uint16(8)):
            g = Grid(n)
            assert g == Grid(8)
            assert type(g.n) is int

    @pytest.mark.parametrize(
        "n", [2.0, 8.5, True, "8", np.float64(8.0), np.int64(0), MAX_GRID_N + 1, 10**12]
    )
    def test_grid_rejects_bad_counts(self, n):
        with pytest.raises(DomainError):
            Grid(n)

    def test_grid_at_the_size_cap(self):
        assert Grid(MAX_GRID_N).n == MAX_GRID_N == 2**20

    def test_scalar_rejects_nan(self):
        with pytest.raises(DomainError):
            scalar(float("nan"))

    def test_grid_fn_length_must_match(self):
        with pytest.raises(ShapeError):
            grid_fn(Grid(4), [0.0, 1.0])

    def test_grid_fn_rejects_inf(self):
        with pytest.raises(DomainError):
            grid_fn(Grid(2), [0.0, float("inf"), 1.0])

    def test_grid_fn_values_read_only(self):
        f = zero_grid_fn(Grid(3))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_points_equal_exact(self):
        g = Grid(2)
        assert points_equal(grid_fn(g, [0, 1, 2]), grid_fn(g, [0, 1, 2]))
        assert not points_equal(grid_fn(g, [0, 1, 2]), grid_fn(g, [0, 1, 2.5]))
        assert not points_equal(scalar(1.0), grid_fn(g, [1, 1, 1]))


class TestMetricEval:
    def test_interval_standard_metric(self):
        assert point_distance(scalar(2.0), scalar(1.0)) == 1.0

    def test_grid_identity_case(self):
        z = zero_grid_fn(Grid(8))
        assert point_distance(z, z) == 0.0

    def test_grid_sup_of_t_vs_t_squared(self):
        # node values of |t - t^2| on n = 4: 0, .1875, .25, .1875, 0
        g = Grid(4)
        x = grid_fn(g, g.nodes)
        y = grid_fn(g, g.nodes**2)
        assert point_distance(x, y) == 0.25

    def test_mismatched_kinds_raise(self):
        with pytest.raises(ShapeError):
            point_distance(scalar(0.5), zero_grid_fn(Grid(2)))

    def test_mismatched_grids_raise(self):
        with pytest.raises(ShapeError):
            point_distance(zero_grid_fn(Grid(4)), zero_grid_fn(Grid(8)))

    def test_half_open_membership_is_exact(self):
        space = interval_space(1.0, 3.0, hi_inclusive=False)
        assert space.contains(scalar(1.0))
        assert not space.contains(scalar(3.0))
        assert space.contains(scalar(2.9999999999))


SHRINK = product_shrink_fixture()
SHRINK_SAMPLE = [scalar(v) for v in (0.0, 0.5, 1.0)]

# Calls given None for a space, a scalar for a grid function, or index
# arrays that do not align.
NOT_THE_RIGHT_KIND = [
    pytest.param(
        lambda: universal_relation().at(SHRINK_SAMPLE, SHRINK_SAMPLE, [0, 1], [0]),
        id="relation_at",
    ),
    pytest.param(lambda: sample_space(None, step=0.1), id="sample_space"),
    pytest.param(
        lambda: check_w3(WDistance.from_metric(), None, SHRINK_SAMPLE, eps_grid=(0.5,)),
        id="check_w3",
    ),
    pytest.param(
        lambda: compare_classical(SHRINK.map, None, SHRINK.relation, SHRINK_SAMPLE),
        id="compare_classical",
    ),
    pytest.param(
        lambda: verify_theorem(
            SHRINK.map, None, SHRINK.relation, SHRINK.wdistance, SHRINK_SAMPLE, scalar(1.0)
        ),
        id="verify_theorem",
    ),
    pytest.param(lambda: caputo_derivative_nodes(scalar(1.0), 1.5), id="caputo_derivative"),
    pytest.param(
        lambda: caputo_residual(scalar(1.0), 1.5, lambda t, x: 0.0, 1), id="caputo_residual"
    ),
]


@pytest.mark.parametrize("call", NOT_THE_RIGHT_KIND)
def test_wrong_kind_of_argument_is_a_shape_error(call):
    with pytest.raises(ShapeError):
        call()


class TestSampling:
    def test_half_open_lattice_drops_endpoint(self):
        space = interval_space(1.0, 3.0, hi_inclusive=False)
        pts = sample_space(space, step=0.5)
        assert [p.value for p in pts] == [1.0, 1.5, 2.0, 2.5]

    def test_closed_lattice_keeps_endpoint(self):
        pts = sample_space(interval_space(0.0, 2.0), step=1.0)
        assert [p.value for p in pts] == [0.0, 1.0, 2.0]

    def test_fine_lattice_hits_exact_landmarks(self):
        pts = sample_space(interval_space(0.0, 2.0), step=0.01)
        values = [p.value for p in pts]
        assert len(values) == 201
        assert 1.0 in values and 2.0 in values

    def test_function_space_sample_prepends_zero(self):
        pts = sample_space(function_space(Grid(4)), count=3, seed=7)
        assert len(pts) == 4
        assert pts[0].sup_norm == 0.0

    def test_function_space_golden_sample(self):
        # frozen output of the seeded generator, default box [0, 2]
        golden = [
            [1.250190933209334, 1.794427601939151, 1.551371380490387,
             0.4504143799811837, 0.6003325698224509],
            [1.7471068907925238, 0.010530609131149449, 1.6424568367655326,
             1.5941388575040925, 0.9358699056874416],
            [0.606064853638627, 0.5568512242015466, 0.5097391753082492,
             0.8901526117652931, 1.0090965179159066],
        ]
        pts = sample_space(function_space(Grid(4)), count=3, seed=7)
        for got, want in zip(pts[1:], golden):
            assert got.values == pytest.approx(want, rel=1e-12)

    def test_sampling_is_pure(self):
        space = function_space(Grid(6))
        a = sample_space(space, count=5, seed=11)
        b = sample_space(space, count=5, seed=11)
        assert all(points_equal(x, y) for x, y in zip(a, b))

    def test_empty_or_invalid_requests_raise(self):
        with pytest.raises(SamplingError):
            sample_space(interval_space(0.0, 1.0), step=-1.0)
        with pytest.raises(SamplingError):
            sample_space(interval_space(0.0, 1.0))
        with pytest.raises(SamplingError):
            sample_space(function_space(Grid(2)), count=0)
        # the one lattice point, 0, lies within rounding of the open end 1e-12
        with pytest.raises(SamplingError, match="empty"):
            sample_space(interval_space(0.0, 1e-12, hi_inclusive=False), step=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(dict(count=2.5), id="fractional-count"),
            pytest.param(dict(count=math.nan), id="nan-count"),
            pytest.param(dict(count=True), id="bool-count"),
        ],
    )
    def test_bad_function_space_request_rejected(self, kwargs):
        with pytest.raises(SamplingError):
            sample_space(function_space(Grid(4)), **kwargs)

    def test_numpy_integer_count_accepted(self):
        pts = sample_space(function_space(Grid(4)), count=np.int64(3), seed=7)
        assert len(pts) == 4

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step_rejected(self, step):
        with pytest.raises(SamplingError):
            sample_space(interval_space(0.0, 2.0), step=step)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 2.0 / 1_000_000])
    def test_oversized_lattice_rejected_before_it_is_built(self, step):
        with pytest.raises(SamplingError, match="more than 1000000 points"):
            sample_space(interval_space(0.0, 2.0), step=step)


class TestScalarSample:
    """An interval sample reads as the list of points it stands for."""

    def setup_method(self):
        self.sample = sample_space(interval_space(0.0, 2.0), step=0.25)
        self.listed = [scalar(0.25 * k) for k in range(9)]

    def test_holds_the_lattice_as_a_read_only_array(self):
        assert isinstance(self.sample, ScalarSample)
        assert len(self.sample) == 9
        assert self.sample.values.tolist() == [pt.value for pt in self.listed]
        with pytest.raises(ValueError):
            self.sample.values[0] = 5.0

    @pytest.mark.parametrize("k", [0, 3, 8, -1, -9, np.intp(4), np.int64(-2)])
    def test_indexing(self, k):
        assert self.sample[k] == self.listed[k]

    @pytest.mark.parametrize("k", [9, -10, np.intp(9)])
    def test_index_out_of_range(self, k):
        with pytest.raises(IndexError):
            self.sample[k]

    @pytest.mark.parametrize(
        "k", [slice(2, 5), slice(None, None, 3), slice(-2, 1, -2), slice(4, 4)]
    )
    def test_slices_are_samples_of_the_same_points(self, k):
        part = self.sample[k]
        assert isinstance(part, ScalarSample)
        assert part == self.listed[k]
        assert part.values.tolist() == [pt.value for pt in self.listed[k]]

    @pytest.mark.parametrize("index", [slice(2, 7, 2), np.array([8, 0, 3])])
    def test_parts_are_read_only_and_not_checked_again(self, index, monkeypatch):
        def checked_again(sample, values):
            raise AssertionError("values of a part checked again")

        monkeypatch.setattr(ScalarSample, "__init__", checked_again)
        part = take(self.sample, index)
        assert part == [self.listed[k] for k in np.arange(9)[index]]
        assert np.shares_memory(part.values, self.sample.values) == isinstance(index, slice)
        with pytest.raises(ValueError):
            part.values[0] = 5.0

    def test_equals_the_list_and_keeps_each_point(self):
        assert self.sample == self.listed and self.listed == self.sample
        assert self.sample != self.listed[:-1]
        assert all(type(pt) is ScalarPoint for pt in self.sample)

    @pytest.mark.parametrize("at", [None, ([0, 8, 4] * 9, list(range(9)) * 3)])
    def test_per_pair_callbacks_build_each_point_once_per_call(self, at, monkeypatch):
        built = []
        post_init = ScalarPoint.__post_init__

        def counted_post_init(point):
            built.append(1)
            post_init(point)

        monkeypatch.setattr(ScalarPoint, "__post_init__", counted_post_init)
        squared = WDistance.on_scalars("squared", lambda x, y: (x - y) ** 2)
        if at is None:
            squared.matrix(self.sample, self.sample)
        else:
            squared.at(self.sample, self.sample, *at)
        assert len(built) <= 2 * len(self.sample)

    def test_map_to_infinity_rejected_when_the_sample_is_mapped(self):
        blow_up = SelfMap.elementwise("blow_up", lambda v: np.where(v > 1.0, np.inf, v))
        with pytest.raises(DomainError, match="must be finite, got inf"):
            blow_up.apply_all(self.sample)
        images = blow_up.apply_all(self.sample[:4])
        assert isinstance(images, ScalarSample) and images == self.listed[:4]


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=3,
        max_size=12,
    )
)
def test_interval_metric_axioms_on_sampled_triples(values):
    pts = [scalar(v) for v in values]
    for x in pts:
        assert point_distance(x, x) == 0.0
        for y in pts:
            dxy = point_distance(x, y)
            assert dxy == point_distance(y, x) >= 0.0
            for z in pts:
                assert point_distance(x, z) <= dxy + point_distance(y, z) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_grid_metric_axioms_on_random_samples(seed):
    space = function_space(Grid(5))
    pts = sample_space(space, count=4, seed=seed)
    for x in pts:
        assert point_distance(x, x) == 0.0
        for y in pts:
            dxy = point_distance(x, y)
            assert dxy == point_distance(y, x)
            for z in pts:
                assert point_distance(x, z) <= dxy + point_distance(y, z) + 1e-12
