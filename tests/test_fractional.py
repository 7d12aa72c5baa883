"""Gamma function, fractional quadrature, and the boundary-value solver."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from relfix import fractional
from relfix import (
    ContractionWarning,
    DomainError,
    FbvpProblem,
    Grid,
    OperatorVariant,
    PreconditionError,
    ShapeError,
    apply_operator,
    boundary_residual,
    caputo_derivative_nodes,
    caputo_residual,
    gamma_fn,
    grid_fn,
    lambda_paper,
    lambda_tight,
    rl_integral,
    rl_integral_nodes,
    scalar,
    solution_caputo_residual,
    solve_fbvp,
    zero_grid_fn,
)
from relfix.fixtures import affine_source, constant_source, sine_mix_source


class TestGamma:
    def test_one_and_factorials(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_squares_to_pi(self):
        assert gamma_fn(0.5) ** 2 == pytest.approx(math.pi, rel=1e-12)

    def test_two_point_five(self):
        assert gamma_fn(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-12)

    def test_accuracy_contract_against_stdlib(self):
        zs = np.linspace(0.1, 30.0, 2991)
        worst = max(
            abs(gamma_fn(float(z)) - math.gamma(float(z))) / math.gamma(float(z))
            for z in zs
        )
        assert worst <= 1e-12

    def test_recurrence_property(self):
        for z in (0.3, 1.7, 6.4, 12.9):
            assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-13)

    def test_poles_out_of_scope(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.5)

    def test_overflow_is_a_domain_error(self):
        assert gamma_fn(171.0) == pytest.approx(math.factorial(170), rel=1e-12)
        with pytest.raises(DomainError):
            gamma_fn(200.0)
        with pytest.raises(DomainError):
            rl_integral_nodes(np.ones(9), 200.0, Grid(8))


class TestRlIntegral:
    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0])
    @pytest.mark.parametrize("n", [8, 64])
    def test_exact_on_constants(self, beta, n):
        g = Grid(n)
        got = rl_integral_nodes(np.ones(n + 1), beta, g)
        want = g.nodes**beta / gamma_fn(beta + 1.0)
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0])
    @pytest.mark.parametrize("n", [8, 64])
    def test_exact_on_linears(self, beta, n):
        g = Grid(n)
        got = rl_integral_nodes(g.nodes, beta, g)
        want = g.nodes ** (beta + 1.0) / gamma_fn(beta + 2.0)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_linear_value_at_endpoint(self):
        g = Grid(32)
        value = rl_integral(grid_fn(g, g.nodes), 1.5, 32)
        assert value == pytest.approx(1.0 / gamma_fn(3.5), abs=1e-12)

    def test_quadratic_second_order_convergence(self):
        # closed form for the square integrand at t = 1 is 2 / Gamma(4.5)
        exact = 2.0 / gamma_fn(4.5)
        errs = {}
        for n in (64, 128):
            g = Grid(n)
            errs[n] = abs(rl_integral(grid_fn(g, g.nodes**2), 1.5, n) - exact)
        ratio = errs[64] / errs[128]
        assert 3.4 <= ratio <= 4.6

    def test_node_zero_is_zero(self):
        g = Grid(8)
        assert rl_integral(grid_fn(g, np.ones(9)), 1.5, 0) == 0.0

    def test_invalid_order_rejected(self):
        g = Grid(8)
        with pytest.raises(DomainError):
            rl_integral(zero_grid_fn(g), 0.0, 4)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: rl_integral_nodes(np.ones(1001), 150.0, Grid(1000)), id="power"),
            pytest.param(
                lambda: rl_integral(grid_fn(Grid(4096), np.ones(4097)), 100.0, 4096), id="node"
            ),
            # exactly 1 / Gamma(101) at t = 1, but h^100 / Gamma(102) underflows to 0
            pytest.param(lambda: rl_integral_nodes(np.ones(1001), 100.0, Grid(1000)), id="scale"),
        ],
    )
    def test_weights_outside_the_float_range_rejected(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="float range"):
                call()

    def test_high_order_inside_the_float_range_exact_on_constants(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = rl_integral_nodes(np.ones(1001), 50.0, Grid(1000))
        assert got[-1] == pytest.approx(1.0 / gamma_fn(51.0), rel=1e-9)


def dense_weight_row(beta, n, tau):
    """Node weights of the order-beta integral at t = tau / n, built cell by
    cell: the kernel moments over each cell [t_j, t_(j+1)], the last one cut
    at t, against the two hat functions of its ends."""
    h = 1.0 / n
    row = np.zeros(n + 1)
    for j in range(math.ceil(tau)):
        a, c = (tau - j) * h, (tau - j - 1) * h
        b = max(c, 0.0)
        dq = (a ** (beta + 1.0) - b ** (beta + 1.0)) / (beta + 1.0)
        dp = (a**beta - b**beta) / beta
        row[j] += dq - c * dp
        row[j + 1] += a * dp - dq
    return row / (math.gamma(beta) * h)


class TestLagWeights:
    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_agrees_with_dense_rows(self, beta, n):
        g = Grid(n)
        values = np.random.default_rng(n).uniform(0.5, 2.0, n + 1)
        got = rl_integral_nodes(values, beta, g)
        for i in sorted({0, 1, 2, n // 3, n // 2, n - 1, n}):
            want = dense_weight_row(beta, n, i) @ values
            assert abs(got[i] - want) <= 1e-12 * abs(want)
            assert abs(rl_integral(grid_fn(g, values), beta, i) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("beta", [1.5, 2.5])
    def test_large_grid_accuracy_against_mpmath(self, beta):
        # the same weights summed in 40-digit arithmetic; the float second
        # difference of m^(beta + 1) is off by about 5e-10 here
        mpmath = pytest.importorskip("mpmath")
        n = 2**16
        values = np.random.default_rng(7).uniform(0.0, 1.0, n + 1)
        got = rl_integral(grid_fn(Grid(n), values), beta, n)
        with mpmath.workdps(40):
            a = mpmath.mpf(beta) + 1
            g = [mpmath.mpf(m) ** a for m in range(n + 2)]
            v = [mpmath.mpf(float(x)) for x in values]
            total = v[0] * (g[n - 1] - g[n] + a * g[n] / n)
            for j in range(1, n + 1):
                m = n - j
                total += v[j] * (g[m + 1] - 2 * g[m] + (g[m - 1] if m else 0))
            want = float(total * mpmath.mpf(n) ** -beta / mpmath.gamma(a + 1))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_memory_stays_linear_in_n(self):
        # a dense (n + 1)^2 weight matrix would take 134 MB here
        n = 4096
        g = Grid(n)
        values = np.linspace(0.0, 1.0, n + 1)
        tracemalloc.start()
        try:
            rl_integral_nodes(values, 1.5, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


def direct_operator_terms(problem, x):
    """The operator's two terms by direct convolution: ``rl_integral_nodes``
    for the order-beta integral, the order-(beta + 1) node weights at t = k
    for the boundary term, and the signed coupling."""
    g = problem.grid
    fv = np.asarray(problem.f(g.nodes, x.values), dtype=float)
    main = rl_integral_nodes(fv, problem.beta, g)
    row = fractional._node_weights(problem.beta + 1.0, g.n, problem.k * g.n)
    double = row @ fv[: row.size]
    k = problem.k
    coupling = 2.0 * g.nodes / (2.0 + k * k) * (main[-1] + double)
    sign = 1.0 if problem.variant is OperatorVariant.PAPER_EXACT else -1.0
    return main, sign * coupling


class TestFftOperator:
    def test_fft_length_is_smallest_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        assert fractional._fft_length(4097) == 4320  # 2n + 1 at n = 2048
        for size in range(1, 2000):
            length = fractional._fft_length(size)
            assert length >= size and smooth(length)
            assert not any(smooth(m) for m in range(size, length))

    @pytest.mark.parametrize("variant", list(OperatorVariant))
    @pytest.mark.parametrize("beta", [1.2, 1.5, 2.0])
    @pytest.mark.parametrize("n", [8, 64, 1024, 4096])
    @pytest.mark.parametrize("k", [0.5, 0.33])  # 0.33 is off every grid here
    def test_agrees_with_direct_form(self, variant, beta, n, k):
        problem = FbvpProblem(beta, k, 0.2, sine_mix_source(0.2), Grid(n), variant)
        x = grid_fn(problem.grid, np.random.default_rng(n).uniform(0.0, 2.0, n + 1))
        got = apply_operator(problem, x).values
        main, coupling = direct_operator_terms(problem, x)
        # The scale is that of the terms: green_corrected subtracts them, and
        # its output can be twenty times smaller than either.
        scale = np.max(np.abs(main) + np.abs(coupling))
        assert np.max(np.abs(got - (main + coupling))) <= 1e-14 * scale
        assert got[0] == 0.0

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("k", [0.5, 0.33])
    def test_paper_exact_nonnegative_for_source_vanishing_early(self, n, k):
        # the order-beta integral is exactly 0 on [0, 1/2]; FFT rounding
        # there must not turn the output negative
        def late_source(t, x):
            return np.maximum(np.asarray(t, dtype=float) - 0.5, 0.0) * (1.0 + 0.1 * np.tanh(x))

        problem = FbvpProblem(1.5, k, 0.05, late_source, Grid(n))
        for x in (zero_grid_fn(problem.grid), grid_fn(problem.grid, np.linspace(0.0, 2.0, n + 1))):
            out = apply_operator(problem, x).values
            assert out[0] == 0.0
            assert np.all(out >= 0.0)

    def test_weights_built_independently_of_step_count(self, monkeypatch):
        calls = []
        build = fractional._lag_weights
        monkeypatch.setattr(
            fractional, "_lag_weights", lambda beta, n: calls.append(beta) or build(beta, n)
        )
        counts = {}
        for tol in (1e-3, 1e-13):
            calls.clear()
            problem = FbvpProblem(1.5, 0.5, 0.2, sine_mix_source(0.2), Grid(64))
            steps = solve_fbvp(problem, tol=tol).iterations
            counts[steps] = len(calls)
        assert len(counts) == 2, "the two tolerances should take different step counts"
        assert len(set(counts.values())) == 1

    def test_solve_memory_stays_linear_in_n(self):
        # the trace holds every iterate; beyond it a solve may hold 12.5
        # grid lengths: the planned weights, the nodes and one FFT's buffers
        n = 4096
        problem = FbvpProblem(1.5, 0.5, 0.2, sine_mix_source(0.2), Grid(n))
        tracemalloc.start()
        try:
            solution = solve_fbvp(problem, tol=1e-13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (solution.iterations + 1 + 12.5) * (n + 1) * 8

    def test_solve_makes_no_direct_convolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.convolve is the O(n^2) reference path")

        monkeypatch.setattr(np, "convolve", refuse)
        problem = FbvpProblem(1.5, 0.33, 0.2, sine_mix_source(0.2), Grid(4096))
        solution = solve_fbvp(problem, tol=1e-10)
        assert solution.trace.stop_reason.value == "converged"
        assert 0.0 < solution.caputo_residual < math.inf


class TestBoundaryAtK:
    """The boundary integrals run to k itself, whether or not k is a node."""

    def test_solution_converges_in_order_two_off_grid(self):
        sols = {}
        for n in (64, 128, 256, 512, 1024, 2048):
            problem = FbvpProblem(1.5, 0.33, 0.2, sine_mix_source(0.2), Grid(n))
            sols[n] = solve_fbvp(problem, tol=1e-13).x.values
        gaps = [np.max(np.abs(sols[n] - sols[2 * n][::2])) for n in (64, 128, 256, 512, 1024)]
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert min(orders) >= 1.9

    # order 1 is boundary_residual's rule; 2.2, 2.5 and 3 are beta + 1
    @pytest.mark.parametrize("q", [1.0, 2.2, 2.5, 3.0])
    @pytest.mark.parametrize("n", [8, 64, 1000])
    @pytest.mark.parametrize("k", [0.01, 0.33, 0.777])
    def test_boundary_row_exact_on_constants_and_linears(self, q, n, k):
        row = fractional._node_weights(q, n, k * n)
        t = Grid(n).nodes[: row.size]
        for got, want in ((row.sum(), k**q / gamma_fn(q + 1.0)),
                          (row @ t, k ** (q + 1.0) / gamma_fn(q + 2.0))):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("q", [1.0, 2.5])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("k", [0.01, 0.33, 0.5])
    def test_boundary_row_matches_cell_by_cell(self, q, n, k):
        row = fractional._node_weights(q, n, k * n)
        ref = dense_weight_row(q, n, k * n)
        values = np.random.default_rng(n).uniform(0.5, 2.0, n + 1)
        want = ref @ values
        assert abs(row @ values[: row.size] - want) <= 1e-12 * want
        assert not ref[row.size:].any()

    @pytest.mark.parametrize("variant", list(OperatorVariant))
    @pytest.mark.parametrize("k", [0.01, 0.33])
    def test_operator_and_residual_exact_on_linear_data(self, variant, k):
        # source 1 + t: every integral of the operator has a closed form
        beta, n = 1.5, 64
        problem = FbvpProblem(beta, k, 0.0, lambda t, x: 1.0 + t + 0.0 * x, Grid(n), variant)
        t = problem.grid.nodes
        g1, g2, g3 = (gamma_fn(beta + i) for i in (1.0, 2.0, 3.0))
        at_one = 1.0 / g1 + 1.0 / g2
        double = k ** (beta + 1.0) / g2 + k ** (beta + 2.0) / g3
        sign = 1.0 if variant is OperatorVariant.PAPER_EXACT else -1.0
        coupling = 2.0 * t / (2.0 + k * k) * (at_one + double)
        want = t**beta / g1 + t ** (beta + 1.0) / g2 + sign * coupling
        got = apply_operator(problem, zero_grid_fn(problem.grid)).values
        assert np.max(np.abs(got - want)) <= 1e-12
        residual = boundary_residual(problem, grid_fn(problem.grid, 1.0 + t))
        assert residual == pytest.approx(2.0 + k + k * k / 2.0, rel=1e-12)


class TestCaputoResidual:
    def test_power_function_rule(self):
        # the order-beta derivative of t^2 is 2 t^(2 - beta) / Gamma(3 - beta)
        g = Grid(64)
        x = grid_fn(g, g.nodes**2)
        f = lambda t, x_: 2.0 * np.asarray(t, dtype=float) ** 0.5 / gamma_fn(1.5)
        for idx in (1, 16, 32, 63):
            assert caputo_residual(x, 1.5, f, idx) <= 1e-12

    def test_linear_function_annihilated(self):
        g = Grid(32)
        x = grid_fn(g, g.nodes)
        f = lambda t, x_: 0.0 * np.asarray(t, dtype=float)
        assert caputo_residual(x, 1.5, f, 16) == 0.0

    def test_order_two_reduces_to_second_difference(self):
        g = Grid(32)
        x = grid_fn(g, 3.0 * g.nodes**2)
        cd = caputo_derivative_nodes(x, 2.0)
        assert np.max(np.abs(cd - 6.0)) <= 1e-9

    @pytest.mark.parametrize("beta", [1.2, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("k", [0.5, 0.33])  # 0.33 is off every grid here
    @pytest.mark.parametrize("solved", [True, False], ids=["solved", "random"])
    def test_solution_residual_matches_direct_reference(self, beta, n, k, solved):
        # the FFT residual against the componentwise one: the direct
        # convolution in caputo_derivative_nodes, at every interior node
        problem = FbvpProblem(beta, k, 0.2, sine_mix_source(0.2), Grid(n))
        if solved:
            x = solve_fbvp(problem, tol=1e-10).x
        else:
            x = grid_fn(problem.grid, np.random.default_rng(n).uniform(0.0, 2.0, n + 1))
        fv = problem.f(problem.grid.nodes, x.values)
        want = np.max(np.abs(caputo_derivative_nodes(x, beta) - fv)[1:-1])
        assert abs(solution_caputo_residual(problem, x) - want) <= 1e-12 * want
        # the residual reads only the operator's FFT length, not its weights
        assert solved or "operator_weights" not in vars(problem)

    def test_boundary_nodes_rejected(self):
        g = Grid(16)
        x = zero_grid_fn(g)
        with pytest.raises(PreconditionError):
            caputo_residual(x, 1.5, lambda t, x_: 0.0, 0)
        with pytest.raises(PreconditionError):
            caputo_residual(x, 1.5, lambda t, x_: 0.0, 16)
        with pytest.raises(PreconditionError, match="at least 4 nodes"):
            caputo_derivative_nodes(zero_grid_fn(Grid(2)), 1.5)


class TestContractionConstants:
    def test_displayed_constant_hand_values(self):
        # hand evaluation with Gamma(3) = 2: 1/2 + (2 + 2 * 0.125) / (2 * 2.25) = 1
        assert lambda_paper(2.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert lambda_paper(1.5, 0.5) == pytest.approx(1.5391270342392178, rel=1e-12)

    def test_tight_constant_hand_values(self):
        # hand evaluation with Gamma(3) = 2 and Gamma(4) = 6:
        # 1/2 + 2/(2.25 * 2) + 2 * 0.125 / (2.25 * 6) = 26/27
        assert lambda_tight(2.0, 0.5) == pytest.approx(26.0 / 27.0, abs=1e-12)
        assert lambda_tight(1.5, 0.5) == pytest.approx(1.4682039621678522, rel=1e-12)

    def test_small_k_limit_of_displayed_constant(self):
        beta = 1.5
        limit = 2.0 / gamma_fn(beta + 1.0)
        assert lambda_paper(beta, 1e-8) == pytest.approx(limit, rel=1e-6)

    def test_tight_below_displayed_on_grid(self):
        for beta in np.linspace(1.05, 2.0, 20):
            for k in np.linspace(0.05, 0.95, 20):
                assert lambda_tight(float(beta), float(k)) < lambda_paper(float(beta), float(k))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            lambda_paper(1.0, 0.5)
        with pytest.raises(DomainError):
            lambda_tight(1.5, 1.0)


class TestApplyOperator:
    def test_zero_source_maps_everything_to_zero(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(0.0), grid=Grid(16))
        x = grid_fn(problem.grid, np.linspace(0.0, 2.0, 17))
        assert apply_operator(problem, x).sup_norm == 0.0

    def test_constant_source_closed_form(self):
        beta, k, c = 1.5, 0.5, 0.7
        problem = FbvpProblem(beta=beta, k=k, L=0.0, f=constant_source(c), grid=Grid(64))
        x = grid_fn(problem.grid, np.linspace(0.0, 1.3, 65))
        got = apply_operator(problem, x)
        t = problem.grid.nodes
        want = c * (
            t**beta / gamma_fn(beta + 1.0)
            + 2.0 * t / ((2.0 + k * k) * gamma_fn(beta + 1.0))
            + 2.0 * t * k ** (beta + 1.0) / ((2.0 + k * k) * gamma_fn(beta + 2.0))
        )
        assert np.max(np.abs(got.values - want)) <= 1e-10

    def test_result_independent_of_input_for_constant_source(self):
        problem = FbvpProblem(beta=1.2, k=0.25, L=0.0, f=constant_source(1.0), grid=Grid(32))
        a = apply_operator(problem, zero_grid_fn(problem.grid))
        b = apply_operator(problem, grid_fn(problem.grid, np.full(33, 1.7)))
        assert np.array_equal(a.values, b.values)

    def test_origin_pinned_to_zero(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(32))
        x = grid_fn(problem.grid, np.linspace(0.0, 1.0, 33))
        assert apply_operator(problem, x).values[0] == 0.0

    def test_monotone_in_source(self):
        g = Grid(32)
        low = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(0.5), grid=g)
        high = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.5), grid=g)
        x = zero_grid_fn(g)
        assert np.all(
            apply_operator(low, x).values <= apply_operator(high, x).values + 1e-15
        )

    def test_nonnegative_cone_preserved(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(32))
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = grid_fn(problem.grid, rng.uniform(0.0, 2.0, 33))
            assert np.all(apply_operator(problem, x).values >= 0.0)

    def test_grid_mismatch_rejected(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(16))
        with pytest.raises(ShapeError):
            apply_operator(problem, zero_grid_fn(Grid(8)))

    def test_discrete_lipschitz_bound(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(64))
        bound = problem.L * lambda_tight(1.5, 0.5) + 10.0 / 64.0
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = grid_fn(problem.grid, rng.uniform(0.0, 2.0, 65))
            y = grid_fn(problem.grid, rng.uniform(0.0, 2.0, 65))
            tx = apply_operator(problem, x)
            ty = apply_operator(problem, y)
            lhs = np.max(np.abs(tx.values - ty.values))
            rhs = bound * np.max(np.abs(x.values - y.values))
            assert lhs <= rhs + 1e-12


class TestProblemValidation:
    def test_order_bounds(self):
        with pytest.raises(DomainError):
            FbvpProblem(beta=2.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(8))
        with pytest.raises(DomainError):
            FbvpProblem(beta=1.5, k=0.0, L=0.0, f=constant_source(1.0), grid=Grid(8))

    def test_negative_source_rejected(self):
        def negative(t, x):
            return -1.0 + 0.0 * np.asarray(t, dtype=float)

        with pytest.raises(DomainError):
            FbvpProblem(beta=1.5, k=0.5, L=0.0, f=negative, grid=Grid(8))

    def test_understated_lipschitz_constant_rejected(self):
        with pytest.raises(DomainError):
            FbvpProblem(beta=1.5, k=0.5, L=0.1, f=affine_source(2.0), grid=Grid(8))

    @pytest.mark.parametrize("L", [math.nan, math.inf])
    def test_non_finite_lipschitz_constant_rejected(self, L):
        with pytest.raises(DomainError, match="finite"):
            FbvpProblem(beta=1.5, k=0.5, L=L, f=constant_source(1.0), grid=Grid(8))

    def test_k_reported_as_given(self):
        problem = FbvpProblem(beta=1.5, k=0.33, L=0.0, f=constant_source(1.0), grid=Grid(8))
        solution = solve_fbvp(problem)
        assert problem.to_record()["k"] == 0.33
        assert solution.lambda_tight == lambda_tight(1.5, 0.33)
        assert solution.lambda_paper == lambda_paper(1.5, 0.33)
        keys = set(problem.to_record()) | set(solution.to_record())
        assert not keys & {"k_used", "k_snap_distance"}

    def test_too_few_subintervals_rejected(self):
        for n in (1, 2):
            with pytest.raises(DomainError, match="at least 3"):
                FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(n))

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: apply_operator(p, scalar(1.0)),
            lambda p: boundary_residual(p, scalar(1.0)),
            lambda p: solution_caputo_residual(p, scalar(1.0)),
            lambda p: rl_integral(np.zeros(9), 1.5, 3),
            lambda p: FbvpProblem(p.beta, p.k, p.L, p.f, grid=8),
            lambda p: rl_integral_nodes(np.zeros(3), 1.5, p.grid),
            # a source that ignores the shape of its arguments
            lambda p: apply_operator(
                FbvpProblem(p.beta, p.k, p.L, lambda t, x: 1.0, p.grid), zero_grid_fn(p.grid)
            ),
        ],
        ids=["apply_operator", "boundary_residual", "caputo_residual", "rl_integral",
             "problem_grid", "rl_integral_nodes", "source_shape"],
    )
    def test_wrong_point_type_is_shape_error(self, call):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(8))
        with pytest.raises(ShapeError):
            call(problem)


class TestSpotChecks:
    def test_f_is_called_once_on_every_spot_pair(self):
        # 3 times t by 4 values of x, as two arrays of 12
        calls = []
        source = sine_mix_source(0.2)

        def counted(t, x):
            calls.append((np.asarray(t).tolist(), np.asarray(x).tolist()))
            return source(t, x)

        FbvpProblem(beta=1.5, k=0.5, L=0.2, f=counted, grid=Grid(8))
        assert calls == [(
            [0.0] * 4 + [0.5] * 4 + [1.0] * 4, [0.0, 0.5, 1.0, 2.0] * 3,
        )]

    @pytest.mark.parametrize(
        "f, error, message",
        [
            pytest.param(lambda t, x: np.ones(3), ShapeError, "shape", id="wrong-shape"),
            pytest.param(lambda t, x: 1.0 + math.sqrt(x), TypeError, "array", id="floats-only"),
            pytest.param(
                lambda t, x: np.where(t == 1.0, np.nan, 1.0 + 0.0 * x), DomainError,
                r"^f\(1\.0, 0\.0\) must be finite", id="first-bad-spot-named",
            ),
        ],
    )
    def test_a_result_that_fails_is_refused_when_built(self, f, error, message):
        # a result that does not broadcast to the 12 spot pairs, an f that
        # takes only floats, and a non-finite value, named by its first spot
        with pytest.raises(error, match=message):
            FbvpProblem(beta=1.5, k=0.5, L=0.0, f=f, grid=Grid(8))

    def test_a_constant_result_is_broadcast(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=lambda t, x: 1.0, grid=Grid(8))
        assert problem.L == 0.0


class TestSolve:
    def test_constant_source_converges_in_two_steps(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(64))
        solution = solve_fbvp(problem, tol=1e-12)
        assert solution.iterations == 2
        assert solution.fixed_point_residual <= 1e-12
        assert solution.x.values[0] == 0.0

    def test_gap_ratio_below_contraction_bound(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(64))
        solution = solve_fbvp(problem, tol=1e-10)
        assert solution.gap_ratio <= problem.L * solution.lambda_tight + 0.02

    def test_supercritical_constant_warns_before_iterating(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=2.0, f=affine_source(2.0), grid=Grid(16))
        with pytest.warns(ContractionWarning):
            solution = solve_fbvp(problem, tol=1e-8, max_iter=300)
        assert solution.warning is not None

    def test_two_grid_solution_consistency(self):
        sols = {}
        for n in (128, 256, 512):
            problem = FbvpProblem(
                beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(n)
            )
            sols[n] = solve_fbvp(problem, tol=1e-10).x.values
        coarse_gap = np.max(np.abs(sols[128] - sols[256][::2]))
        fine_gap = np.max(np.abs(sols[256] - sols[512][::2]))
        assert coarse_gap <= 4.0 * fine_gap + 1e-9

    def test_caputo_residual_decays_at_fixed_interior_times(self):
        residuals = {}
        for n in (64, 128, 256):
            problem = FbvpProblem(
                beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(n)
            )
            x = solve_fbvp(problem, tol=1e-12).x
            cd = caputo_derivative_nodes(x, 1.5)
            fv = constant_source(1.0)(problem.grid.nodes, x.values)
            residuals[n] = {
                frac: abs(float(cd[int(frac * n)] - fv[int(frac * n)]))
                for frac in (0.25, 0.5, 0.75)
            }
        for frac in (0.25, 0.5, 0.75):
            assert residuals[128][frac] <= residuals[64][frac] / 1.2
            assert residuals[256][frac] <= residuals[128][frac] / 1.2

    def test_boundary_identity_for_corrected_variant(self):
        # the subtracted-coupling variant satisfies the integral boundary
        # condition up to quadrature error in the reported residual
        problem = FbvpProblem(
            beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(128),
            variant=OperatorVariant.GREEN_CORRECTED,
        )
        solution = solve_fbvp(problem, tol=1e-10)
        assert solution.boundary_residual <= 1e-4
        exact_variant = FbvpProblem(
            beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(128)
        )
        exact_solution = solve_fbvp(exact_variant, tol=1e-10)
        assert exact_solution.boundary_residual > 0.1

    def test_solution_record_is_plain_data(self):
        problem = FbvpProblem(beta=1.5, k=0.5, L=0.0, f=constant_source(1.0), grid=Grid(32))
        record = solve_fbvp(problem).to_record()
        assert record["stop_reason"] == "converged"
        assert isinstance(record["caputo_residual"], float)

    def test_uniqueness_probe_accepts_zero_function_ancestor(self):
        from relfix import UniquenessVerdict, probe_uniqueness, sample_space
        from relfix.fixtures import fbvp_fixture

        problem = FbvpProblem(beta=1.5, k=0.5, L=0.2, f=sine_mix_source(0.2), grid=Grid(64))
        fx = fbvp_fixture(problem)
        solution = solve_fbvp(problem, tol=1e-10)
        sample = sample_space(fx.space, count=4, seed=3)
        result = probe_uniqueness(
            fx.relation, fx.map, fx.wdistance, problem.L * solution.lambda_tight,
            [solution.x], sample, z_hint=fx.z_hint,
        )
        assert result.verdict is UniquenessVerdict.UNIQUE_BY_CONDITION_1
        assert result.z.sup_norm == 0.0
