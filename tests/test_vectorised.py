"""Broadcast evaluation against the per-pair loop it replaces.

Every check runs twice: once on the fixture objects, whose elementwise forms
are broadcast over the sample, and once on copies with the array form
dropped, which takes the per-pair loop.  The two runs must agree exactly,
exceptions included.  The metric, which has no per-pair copy, is compared
with a plain ``point_distance`` loop instead.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import relfix.spaces
from relfix import (
    ContractionEstimate,
    DomainError,
    GridFn,
    OverallVerdict,
    Relation,
    SelfMap,
    ShapeError,
    WDistance,
    certify_cauchy,
    check_complete_on,
    check_rlsc,
    check_t_closed,
    check_triangle,
    check_w3,
    check_weak_t_closed,
    compare_classical,
    estimate_lambda,
    find_start_points,
    function_space,
    Grid,
    interval_space,
    iterate,
    point_distance,
    probe_uniqueness,
    related_pairs,
    ScalarPoint,
    sample_space,
    scalar,
    universal_relation,
    verify_theorem,
)
from relfix import verify
from relfix.cli import main
from relfix.fixtures import FIXTURES, product_shrink_fixture
from relfix.spaces import BLOCK_ELEMENTS


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return ("returned", fn(*args, **kwargs))
    except Exception as exc:  # compared, never swallowed: both runs must match
        return ("raised", type(exc).__name__, str(exc))


def record_of(report):
    return report.to_record()


def capped(cap, fn, *args):
    """``outcome(fn, *args)`` with the pair cap ``verify.PAIR_CAP`` at ``cap``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "PAIR_CAP", cap)
        return outcome(fn, *args)


def battery(fx, sample):
    """Every vectorised check on one fixture; returns {name: outcome}."""
    rel, map_, space = fx.relation, fx.map, fx.space
    p = fx.wdistance or WDistance.from_metric()
    coarse = sample[:: max(1, len(sample) // 25)]
    pairs = related_pairs(rel, sample)
    # every related pair for the estimates, a strided share of them for the
    # six metric evaluations per pair of the classical comparison
    some_pairs = pairs[:: max(1, len(pairs) // 5000)]
    seed = fx.orbit_seed or sample[0]
    out = {
        "t_closed": outcome(check_t_closed, rel, map_, sample),
        "weak_t_closed": outcome(check_weak_t_closed, rel, map_, sample),
        "start_points": outcome(find_start_points, rel, map_, sample),
        "complete": outcome(check_complete_on, rel, sample),
        "pairs": ("returned", pairs),
        "pairs_capped": capped(37, related_pairs, rel, sample),
        "estimate": outcome(estimate_lambda, map_, p, rel, pairs),
        "estimate_diag": outcome(estimate_lambda, map_, p, rel, pairs, include_diagonal=True),
        "classical": outcome(compare_classical, map_, space, rel, some_pairs),
        "triangle": outcome(check_triangle, p, coarse),
        "w3": outcome(check_w3, p, space, coarse, eps_grid=(0.5, 0.1)),
        "theorem": outcome(
            lambda: record_of(verify_theorem(map_, space, rel, p, sample, seed))
        ),
        "theorem_capped": capped(
            41, lambda: record_of(verify_theorem(map_, space, rel, p, sample, seed))
        ),
    }
    if fx.value_p is not None:
        out["value_triangle"] = outcome(check_triangle, fx.value_p, coarse)
        seq = [scalar(1.0 - 1.0 / (n + 2)) for n in range(1, 41)]
        out["rlsc"] = outcome(
            check_rlsc, fx.value_p, scalar(0.0), rel, seq, scalar(1.0), conv_tol=0.05
        )
    orbit = iterate(map_, seed, p, 0.5, max_iter=40)
    out["cauchy"] = outcome(certify_cauchy, orbit, p)
    out["probe"] = outcome(
        probe_uniqueness, rel, map_, p, 0.75, [orbit.final], sample, z_hint=fx.z_hint
    )
    return out


def per_pair_copy(fx):
    """The fixture with every array form dropped."""
    drop = {"array": None}
    return dataclasses.replace(
        fx,
        relation=dataclasses.replace(fx.relation, **drop),
        map=dataclasses.replace(fx.map, **drop),
        wdistance=fx.wdistance and dataclasses.replace(fx.wdistance, **drop),
        value_p=fx.value_p and dataclasses.replace(fx.value_p, **drop),
    )


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("key", sorted(FIXTURES))
def test_broadcast_matches_per_pair_loop(key, refine):
    fx = FIXTURES[key]()
    reference = per_pair_copy(fx)
    assert fx.relation.array is not None and reference.relation.array is None
    sample = sample_space(fx.space, step=fx.default_step / refine)
    broadcast = battery(fx, sample)
    looped = battery(reference, sample)
    assert broadcast.keys() == looped.keys()
    for name in broadcast:
        assert broadcast[name] == looped[name], name


def assert_metric_matches_point_distance(sample):
    d = WDistance.from_metric()
    loop = np.array([[point_distance(x, y) for y in sample] for x in sample])
    assert d.matrix(sample, sample).tobytes() == loop.tobytes()
    i, j = np.indices(loop.shape).reshape(2, -1)
    assert d.at(sample, sample, i, j).tobytes() == loop.ravel().tobytes()


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("key", sorted(FIXTURES))
def test_metric_matches_point_distance_loop(key, refine):
    fx = FIXTURES[key]()
    assert_metric_matches_point_distance(sample_space(fx.space, step=fx.default_step / refine))


def test_metric_on_grid_functions_matches_point_distance_loop():
    assert_metric_matches_point_distance(sample_space(function_space(Grid(8)), count=6, seed=3))


class TestEvaluationPaths:
    def test_elementwise_relation_is_called_once_on_arrays(self):
        seen = []

        def below(x, y):
            seen.append(type(x))
            return x < y

        rel = Relation.elementwise("below", below)
        sample = [scalar(v) for v in (0.0, 1.0, 2.0)]
        assert rel.matrix(sample, sample).tolist() == [
            [False, True, True], [False, False, True], [False, False, False]
        ]
        assert seen == [np.ndarray]
        assert rel(scalar(0.0), scalar(1.0)) and seen[-1] is float

    def test_python_callables_take_the_loop(self):
        table = {(0.0, 1.0): True}
        rel = Relation.on_scalars("lookup", lambda x, y: table.get((x, y), False))
        sample = [scalar(0.0), scalar(1.0)]
        assert rel.matrix(sample, sample).tolist() == [[False, True], [False, False]]

    def test_grid_samples_take_the_loop(self):
        calls = []
        rel = Relation.elementwise("never_on_grids", lambda x, y: calls.append(1) or True)
        sample = sample_space(function_space(Grid(4)), count=2, seed=0)
        assert all(isinstance(pt, GridFn) for pt in sample)
        with pytest.raises(ShapeError):
            rel.matrix(sample, sample)  # the scalar form rejects grid functions
        assert calls == []

    def test_elementwise_map_rejects_non_finite_images(self):
        blow_up = SelfMap.elementwise("blow_up", lambda v: np.where(v > 1.0, np.inf, v))
        sample = [scalar(v) for v in (0.5, 2.0)]
        with pytest.raises(DomainError):
            blow_up.apply_all(sample)
        with pytest.raises(DomainError):
            blow_up.apply(sample[1])

    def test_invalid_pair_distance_raised_only_inside_the_mask(self):
        sample = [scalar(v) for v in (0.0, 1.0, 2.0)]
        upper = np.triu(np.ones((3, 3), dtype=bool))
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            # the invalid value sits at the pair (x, y) = (1, 0) alone
            odd = WDistance.elementwise(
                "odd", lambda x, y: np.where((x == 1.0) & (y == 0.0), bad, np.abs(y - x))
            )
            named = f"invalid pair distance {re.escape(repr(bad))}$"
            for p in (odd, dataclasses.replace(odd, array=None)):
                values = p.matrix(sample, sample, where=upper)
                assert np.isnan(values[1, 0]) and values[0, 2] == 2.0
                assert p.at(sample, sample, [0, 2, 1], [1, 0, 1]).tolist() == [1.0, 2.0, 0.0]
                with pytest.raises(DomainError, match=named):
                    p.matrix(sample, sample)
                with pytest.raises(DomainError, match=named):
                    p.matrix(sample, sample, where=~upper)
                with pytest.raises(DomainError, match=named):
                    p.at(sample, sample, [0, 1], [1, 0])

    def test_scalar_array_results_fill_the_whole_shape(self):
        # array forms that return one scalar for every pair or point give
        # the per-pair path's results, entry for entry
        sample = sample_space(interval_space(0.0, 2.0), step=0.5)
        i, j = [0, 3, 4, 4], [1, 1, 0, 4]
        upper = np.triu(np.ones((5, 5), dtype=bool))
        calls = [
            lambda obj: obj.matrix(sample, sample),
            lambda obj: obj.matrix(sample, sample, where=upper),
            lambda obj: obj.at(sample, sample, i, j),
        ]
        for obj in (universal_relation(), WDistance.elementwise("one", lambda x, y: 1.0)):
            looped = dataclasses.replace(obj, array=None)
            for call in calls:
                got, want = call(obj), call(looped)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
        one = SelfMap.elementwise("one", lambda v: 1.0)
        images = one.apply_all(sample)
        assert isinstance(images, relfix.spaces.ScalarSample)
        assert images == dataclasses.replace(one, array=None).apply_all(sample) == [scalar(1.0)] * 5

    @pytest.mark.parametrize(
        "call, block",
        [
            (lambda rel, s: rel.matrix(s, s), (5, 5)),
            (lambda rel, s: rel.matrix(s, s, where=np.eye(5, dtype=bool)), (5, 5)),
            (lambda rel, s: rel.at(s, s, [0, 1, 2], [2, 3, 4]), (3,)),
        ],
        ids=["matrix", "matrix-where", "at"],
    )
    def test_relation_array_form_of_the_wrong_shape_is_a_shape_error(self, call, block):
        bad = Relation.elementwise("bad", lambda x, y: np.zeros(7, bool))
        sample = sample_space(interval_space(0.0, 4.0), step=1.0)
        named = re.escape("bad: array form gave shape (7,), ") + ".*" + re.escape(str(block))
        with pytest.raises(ShapeError, match=named + "$"):
            call(bad, sample)

    def test_map_array_form_of_the_wrong_shape_is_a_shape_error(self):
        bad = SelfMap.elementwise("bad", lambda v: np.zeros(7))
        sample = sample_space(interval_space(0.0, 4.0), step=1.0)
        named = re.escape("bad: array form gave shape (7,), ") + ".*" + re.escape("(5,)")
        with pytest.raises(ShapeError, match=named + "$"):
            bad.apply_all(sample)


def test_theorem_on_fine_shrink_sample_in_bounded_memory():
    fx = product_shrink_fixture()
    sample = sample_space(fx.space, step=0.002)
    assert len(sample) == 1001
    tracemalloc.start()
    try:
        report = verify_theorem(fx.map, fx.space, fx.relation, fx.wdistance, sample, scalar(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lambda_hat == 0.75
    assert report.overall is OverallVerdict.ALL_VERIFIED_ON_SAMPLE
    assert peak < 16 * 1024 * 1024, peak


def test_sample_estimates_hold_the_relation_and_a_few_row_blocks():
    # Ex2_4 at its default step: 201 points, row blocks of 81 x 201 floats
    fx = product_shrink_fixture()
    sample = sample_space(fx.space, step=fx.default_step)
    m = len(sample)
    args = (fx.map, fx.wdistance, fx.relation, sample)
    verify._sample_estimates(*args)
    tracemalloc.start()
    try:
        plain, _ = verify._sample_estimates(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 201 and plain.lambda_hat == 0.75
    assert peak < 5 * BLOCK_ELEMENTS * 8, peak


def dense_scans(fx, p, v, cap):
    """What each pairwise scan returns on the points with values ``v``, from
    whole m x m numpy arrays: the closure, weak-closure and completeness
    witnesses, the related pairs strided past ``cap``, and both contraction
    estimates over every related pair."""
    w = fx.map.array(v)
    related = np.broadcast_to(fx.relation.array(v[:, None], v[None, :]), (v.size, v.size))
    image_related = fx.relation.array(w[:, None], w[None, :])

    def pairs(i, j):
        return [(scalar(v[a]), scalar(v[b])) for a, b in zip(i, j)]

    flat = np.flatnonzero(related)
    kept = flat[:: -(-flat.size // cap)] if flat.size > cap else flat
    i, j = np.divmod(flat, v.size)
    base, image = p.array(v[i], v[j]), p.array(w[i], w[j])
    estimates = []
    for include_diagonal in (False, True):
        keep = np.ones(i.size, bool) if include_diagonal else v[i] != v[j]
        ki, kj, kb, km = i[keep], j[keep], base[keep], image[keep]
        positive = kb > 0.0
        ratios = np.where(positive, km / np.where(positive, kb, 1.0), -np.inf)
        witness, best = None, 0.0
        if positive.any():
            k = int(np.argmax(ratios))
            best, witness = float(ratios[k]), pairs(ki[k : k + 1], kj[k : k + 1])[0]
        moved = (kb == 0.0) & (km > 0.0)
        estimates.append(ContractionEstimate(
            best, witness, int(keep.sum()), int((kb == 0.0).sum()),
            tuple(pairs(ki[moved], kj[moved])), include_diagonal,
        ))
    return {
        "t_closed": pairs(*np.nonzero(related & ~image_related)),
        "weak_t_closed": pairs(*np.nonzero(related & ~image_related & ~image_related.T)),
        "complete": pairs(*np.nonzero(np.triu(~related & ~related.T))),
        "related": pairs(*np.divmod(kept, v.size)),
        "estimates": tuple(estimates),
    }


def blocked_scans(fx, p, sample):
    return {
        "t_closed": list(check_t_closed(fx.relation, fx.map, sample).witnesses),
        "weak_t_closed": list(check_weak_t_closed(fx.relation, fx.map, sample).witnesses),
        "complete": list(check_complete_on(fx.relation, sample).witnesses),
        "related": list(related_pairs(fx.relation, sample)),
        "estimates": verify._sample_estimates(fx.map, p, fx.relation, sample),
    }


# Metric stand-in for Ex1_7, which has no pair distance of its own.
ABS_GAP = WDistance.elementwise("abs_gap", lambda x, y: np.abs(x - y))


# The scan that fails on a 40-point sample of the fixture; Ex2_3's relation
# is complete and map-closed.
FAILING_SCAN = {"Ex1_7": "t_closed", "Ex2_4": "complete"}


@pytest.mark.parametrize("per_pair", [False, True], ids=["broadcast", "per-pair"])
@pytest.mark.parametrize("cap", [None, 37], ids=["all-pairs", "strided"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("key", ["Ex1_7", "Ex2_3", "Ex2_4"])
def test_row_block_scans_match_dense_arrays(key, seed, cap, per_pair, monkeypatch):
    # 40 draws from the default lattice, repeats included, in row blocks of
    # one row (64 entries < 2 rows of 40); a cap of 37 thins the related
    # pairs of every fixture, and the estimates still read all of them
    fx = FIXTURES[key]()
    p = fx.wdistance or ABS_GAP
    lattice = sample_space(fx.space, step=fx.default_step).values
    values = np.random.default_rng(seed).choice(lattice, size=40)
    monkeypatch.setattr(relfix.spaces, "BLOCK_ELEMENTS", 64)
    if cap is not None:
        monkeypatch.setattr(verify, "PAIR_CAP", cap)
    want = dense_scans(fx, p, values, verify.PAIR_CAP)
    related = np.count_nonzero(fx.relation.array(values[:, None], values[None, :]))
    if per_pair:
        fx, p = per_pair_copy(fx), dataclasses.replace(p, array=None)
    got = blocked_scans(fx, p, [scalar(v) for v in values])
    assert got == want
    kept = len(want["related"])
    assert kept == related if cap is None else kept <= cap < related
    if key in FAILING_SCAN:
        assert want[FAILING_SCAN[key]]


def test_pairwise_scans_hold_no_m_by_m_array():
    # Ex2_4 at step 0.0005: 4,001 points, 16 million ordered pairs.  Each
    # scan may hold 2 MiB of row blocks and sample-long arrays, plus twice
    # the index arrays it returns (16 bytes per failing or related pair).
    fx = product_shrink_fixture()
    sample = sample_space(fx.space, step=0.0005)
    assert len(sample) == 4001
    scans = {
        "t_closed": lambda: check_t_closed(fx.relation, fx.map, sample).witnesses,
        "complete": lambda: check_complete_on(fx.relation, sample).witnesses,
        "related": lambda: related_pairs(fx.relation, sample),
        "estimates": lambda: verify._sample_estimates(fx.map, fx.wdistance, fx.relation, sample),
    }
    kept = {}
    for name, scan in scans.items():
        tracemalloc.start()
        try:
            result = scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept[name] = 0 if name == "estimates" else len(result)
        assert peak < 2 * 2**20 + 2 * 16 * kept[name], (name, peak, kept[name])
    # the completeness check keeps its failures: the pairs x <= y of the
    # 2,000 points above 1, a quarter of the unordered pairs
    assert kept["complete"] == 2000 * 2001 // 2
    assert kept["t_closed"] == 0
    assert 0 < kept["related"] <= verify.PAIR_CAP


class PointBuilds:
    """Counts ``ScalarPoint`` constructions while installed."""

    def __init__(self, monkeypatch):
        self.count = 0
        build = ScalarPoint.__post_init__

        def counted(point):
            self.count += 1
            build(point)

        monkeypatch.setattr(ScalarPoint, "__post_init__", counted)


def test_uniqueness_probe_builds_only_the_ancestors_it_reads(tmp_path, monkeypatch):
    # Ex2_4's probe stops at its hint, z = 0, so no image of the 801-point
    # sample needs to become a point object
    builds = PointBuilds(monkeypatch)
    assert main(["verify-example", "Ex2_4", "--step", "0.0025", "--out", str(tmp_path)]) == 0
    assert builds.count < 200, builds.count


@pytest.mark.parametrize("key", ["Ex1_13", "Ex1_14"])
def test_approach_batteries_build_only_the_points_they_read(key, tmp_path, monkeypatch):
    # the approach sequences (120 points for Ex1_13, 160 for Ex1_14) stay
    # float arrays; a run builds its anchors and limits, each sequence's
    # last point and the worst tail point of each semi-continuity check
    builds = PointBuilds(monkeypatch)
    assert main(["verify-example", key, "--out", str(tmp_path)]) == 0
    assert builds.count <= 12, builds.count


def test_space_check_builds_at_most_the_first_point_outside(monkeypatch):
    fx = FIXTURES["Ex2_3"]()
    pairs = related_pairs(fx.relation, sample_space(fx.space, step=0.002))
    builds = PointBuilds(monkeypatch)
    inside = []
    check_space = verify.check_space

    def counted(space, points=()):
        before = builds.count
        check_space(space, points)
        inside.append(builds.count - before)

    monkeypatch.setattr(verify, "check_space", counted)
    compare_classical(fx.map, fx.space, fx.relation, pairs)
    assert len(inside) == 1 and inside[0] <= 1, inside


def test_closure_witnesses_built_only_when_read(monkeypatch):
    # Ex1_7's parity relation fails map-closedness on 100 pairs of its
    # 20-point sample; a report keeps the first ten
    fx = FIXTURES["Ex1_7"]()
    sample = sample_space(fx.space, step=fx.default_step)
    builds = PointBuilds(monkeypatch)
    closed = check_t_closed(fx.relation, fx.map, sample)
    record = closed.to_record()
    assert record["witness_count"] == 100 and len(record["witnesses"]) == 10
    assert builds.count <= 20, builds.count
    assert (scalar(2.0), scalar(3.0)) in closed.witnesses and closed.witnesses


def test_completeness_witnesses_built_only_when_read(monkeypatch):
    fx = FIXTURES["Ex1_7"]()
    sample = sample_space(fx.space, step=fx.default_step)
    builds = PointBuilds(monkeypatch)
    record = check_complete_on(fx.relation, sample).to_record()
    assert record["witness_count"] > 10 and len(record["witnesses"]) == 10
    assert builds.count <= 20, builds.count
