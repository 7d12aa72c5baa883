"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here; the expected numbers were computed from the
stated independent oracles (hand arithmetic on the displayed formulas,
closed-form integrals, brute-force lattice enumeration, two-grid
comparisons) before being frozen into the assertions.
"""

import json
import math

import numpy as np
from relfix import (
    FbvpProblem,
    Grid,
    StopReason,
    UniquenessVerdict,
    Verdict,
    WDistance,
    certify_cauchy,
    check_rlsc,
    check_t_closed,
    check_weak_t_closed,
    compare_classical,
    estimate_lambda,
    gamma_fn,
    grid_fn,
    iterate,
    lambda_paper,
    lambda_tight,
    point_distance,
    probe_uniqueness,
    related_pairs,
    rl_integral,
    rl_integral_nodes,
    sample_space,
    scalar,
    solve_fbvp,
    universal_relation,
)
from relfix.cli import main
from relfix.fixtures import (
    ceiling_window_fixture,
    jump_plateau_fixture,
    ordered_halving_fixture,
    parity_successor_fixture,
    product_shrink_fixture,
    sine_mix_source,
)


def passed(number, label):
    print(f"acceptance criterion {number} ({label}): PASS")


def test_criterion_1_separation_of_the_pair_distance_route():
    fx = ordered_halving_fixture()
    pair = [(scalar(2.0), scalar(1.0))]
    comparison = compare_classical(fx.map, fx.space, fx.relation, pair)
    row = comparison.rows[0]
    assert abs(row.d_image - 1.5) <= 1e-12
    assert abs(row.d_pair - 1.0) <= 1e-12
    assert row.d_image > row.d_pair
    assert abs(row.m_displacement - 1.25) <= 1e-12
    assert row.m_displacement < row.d_image
    estimate = estimate_lambda(fx.map, fx.wdistance, fx.relation, pair)
    assert abs(estimate.lambda_hat - 5.0 / 6.0) <= 1e-12
    passed(1, "metric fails while the pair distance contracts at (2, 1)")


def test_criterion_2_shrink_fixture_end_to_end():
    fx = product_shrink_fixture()
    sample = sample_space(fx.space, step=0.01)
    pairs = related_pairs(fx.relation, sample)
    estimate = estimate_lambda(fx.map, fx.wdistance, fx.relation, pairs)
    assert abs(estimate.lambda_hat - 0.75) <= 1e-12

    orbit = iterate(fx.map, scalar(2.0), fx.wdistance, 0.75, max_iter=60, tol=1e-9)
    assert orbit.stop_reason is StopReason.CONVERGED
    assert orbit.steps <= 60
    residual = point_distance(orbit.final, fx.map.apply(orbit.final))
    assert residual <= 1e-9
    assert abs(orbit.final.value) <= 1e-8

    check = certify_cauchy(orbit, fx.wdistance)
    assert check.ok and check.violations == ()

    probe = probe_uniqueness(
        fx.relation, fx.map, fx.wdistance, 0.75, [orbit.final], sample, z_hint=fx.z_hint
    )
    assert probe.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
    assert probe.z.value == 0.0
    passed(2, "lattice factor 3/4, orbit to 0, certified bounds, unique by ancestor")


def test_criterion_3_lemma_suite_on_engine_orbits():
    orbits = []
    fx = product_shrink_fixture()
    for seed in (2.0, 1.0):
        orbits.append(
            (iterate(fx.map, scalar(seed), fx.wdistance, 0.75, max_iter=100), fx.wdistance, 0.75)
        )
    problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(64))
    solution = solve_fbvp(problem, tol=1e-10)
    sup_pair = WDistance.from_metric()
    orbits.append((solution.trace, sup_pair, problem.L * solution.lambda_tight))

    for trace, pair_distance, lam in orbits:
        for n in range(1, trace.steps):
            assert trace.p_gaps[n] <= lam * trace.p_gaps[n - 1] + 1e-12
        check = certify_cauchy(trace, pair_distance)
        assert check.ok, check.violations[:3]
    passed(3, "gap chaining and geometric tail bound on every produced orbit")


def test_criterion_4_relation_and_lsc_fixtures():
    parity = parity_successor_fixture()
    sample = sample_space(parity.space, step=1.0)
    closed = check_t_closed(parity.relation, parity.map, sample)
    assert closed.verdict is Verdict.FAILS_WITH_WITNESS and closed.witnesses
    assert check_weak_t_closed(parity.relation, parity.map, sample).ok

    ceiling = ceiling_window_fixture()
    left = [scalar(1.0 - 1.0 / (5 * (n + 1))) for n in range(1, 61)]
    assert check_rlsc(
        ceiling.value_p, scalar(0.0), ceiling.relation, left, scalar(1.0), conv_tol=0.01
    ).ok

    plateau = jump_plateau_fixture()
    below = [scalar(1.0 - 1.0 / (n + 2)) for n in range(1, 81)]
    assert check_rlsc(
        plateau.value_p, scalar(0.0), plateau.relation, below, scalar(1.0), conv_tol=0.02
    ).ok
    above = [scalar(1.0 + 1.0 / (n + 2)) for n in range(1, 81)]
    plain = check_rlsc(
        plateau.value_p, scalar(0.0), universal_relation(), above, scalar(1.0), conv_tol=0.02
    )
    assert plain.verdict is Verdict.FAILS_WITH_WITNESS
    assert plain.detail["tail_min"] == 0.5
    assert plain.detail["at_limit"] == 1.0
    passed(4, "closure witnesses and relation-restricted lower semi-continuity")


def test_criterion_5_fractional_kernels():
    assert abs(gamma_fn(0.5) ** 2 - math.pi) / math.pi <= 1e-12
    reference = 0.75 * math.sqrt(math.pi)
    assert abs(gamma_fn(2.5) - reference) / reference <= 1e-12

    for beta in (1.1, 1.5, 2.0):
        for n in (16, 64):
            g = Grid(n)
            const = rl_integral_nodes(np.ones(n + 1), beta, g)
            assert np.max(np.abs(const - g.nodes**beta / gamma_fn(beta + 1.0))) <= 1e-10
            lin = rl_integral_nodes(g.nodes, beta, g)
            assert np.max(np.abs(lin - g.nodes ** (beta + 1.0) / gamma_fn(beta + 2.0))) <= 1e-10

    exact = 2.0 / gamma_fn(4.5)
    errors = {}
    for n in (64, 128):
        g = Grid(n)
        errors[n] = abs(rl_integral(grid_fn(g, g.nodes**2), 1.5, n) - exact)
    ratio = errors[64] / errors[128]
    assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15
    passed(5, "gamma values, exact product integration, second-order refinement")


def test_criterion_6_contraction_constants():
    assert abs(lambda_paper(2.0, 0.5) - 1.0) <= 1e-6
    # hand evaluation of the re-derived constant with Gamma(3) = 2 and
    # Gamma(4) = 6: 1/2 + 2/(2.25 * 2) + 2 * 0.5^3 / (2.25 * 6) = 26/27
    assert abs(lambda_tight(2.0, 0.5) - 26.0 / 27.0) <= 1e-6
    for beta in np.linspace(1.05, 2.0, 20):
        for k in np.linspace(0.05, 0.95, 20):
            assert lambda_tight(float(beta), float(k)) <= lambda_paper(float(beta), float(k))
    passed(6, "hand-evaluated contraction constants and their ordering")


def test_criterion_7_boundary_value_solve():
    f = sine_mix_source(0.2)
    problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=f, grid=Grid(256))
    solution = solve_fbvp(problem, tol=1e-8)
    assert solution.trace.stop_reason is StopReason.CONVERGED
    bound = problem.L * solution.lambda_tight + 0.02
    assert solution.gap_ratio <= bound
    assert solution.fixed_point_residual <= 1e-8
    assert float(solution.x.values[0]) == 0.0

    fine = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=f, grid=Grid(512))
    fine_solution = solve_fbvp(fine, tol=1e-8)
    assert solution.caputo_residual <= 4.0 * fine_solution.caputo_residual + 1e-6
    # the integral boundary condition is reported, not asserted, for the
    # all-plus operator variant
    assert solution.boundary_residual >= 0.0
    passed(
        7,
        "solve at n = 256: ratio {:.4f} <= {:.4f}, residual {:.1e}, "
        "two-grid caputo {:.4f} vs {:.4f}".format(
            solution.gap_ratio,
            bound,
            solution.fixed_point_residual,
            solution.caputo_residual,
            fine_solution.caputo_residual,
        ),
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        assert main(["verify-example", "Ex2_4", "--out", str(out)]) == 0
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "orbit.csv").read_bytes() == (second / "orbit.csv").read_bytes()

    cfg = tmp_path / "problem.cfg"
    cfg.write_text(
        "beta = 1.5\nk = 0.5\nL = 0.2\nf = sine_mix\nf.a = 0.2\nn = 64\n"
        "tol = 1e-8\nmax_iter = 200\n"
    )
    solve_first = tmp_path / "s1"
    solve_second = tmp_path / "s2"
    for out in (solve_first, solve_second):
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(out)]) == 0
    assert (solve_first / "report.json").read_bytes() == (solve_second / "report.json").read_bytes()
    assert (solve_first / "solution.csv").read_bytes() == (solve_second / "solution.csv").read_bytes()

    record = json.loads((first / "report.json").read_text())
    assert record["summary"]["all_pass"] is True
    passed(8, "identical configuration produces byte-identical artifacts")
