"""Fractional-order kernels and the integral boundary-value solver.

The weakly singular kernel (t - s)^(beta - 1) is never integrated with a
naive rule: all quadrature here is product integration, meaning the kernel
moments against the piecewise-linear interpolant of the node data are
evaluated in closed form.  The scheme is therefore exact on constant and
linear data for every admissible order and second-order accurate on smooth
data, including at the endpoint where the kernel is unbounded for orders
below 2.

Every rule is one closed form, the product trapezoid (Diethelm, Ford and
Freed, 2002): the weight of a node's hat function at any real evaluation
point, so the boundary integrals run to k itself.  At the nodes a weight
depends only on its lag, so each order needs one lag vector of n + 1 weights
and a node-0 correction: all nodes at once are one convolution, a single
node one dot product.  Memory is O(n).

``rl_integral_nodes`` and ``rl_integral`` build their weights on each call
and convolve directly: they are the componentwise reference, accurate to
rounding at every node.  The boundary-value operator instead plans its
weights once per problem (``FbvpProblem.operator_weights``, freed with the
problem): the spectrum of the order-beta lag vector at a 2-3-5-smooth FFT
length of at least 2n + 1, the node-0 correction and the order-(beta + 1)
boundary row.  Each Picard step is then one real FFT convolution plus one
O(kn) dot product.  The FFT result is accurate in the sup norm (relative
to the largest value), not node by node: near t = 0, where the integral is
tiny, its relative error grows with n and beta, which is why the reference
functions stay direct.  ``solution_caputo_residual`` takes its order-(2 - beta)
integral through the same FFT convolution, with weights built per call, so
it costs O(n log n): it reports a max, which is all the sup norm has to be
accurate for.  ``caputo_derivative_nodes`` is its direct reference.

The boundary term couples the solution to a double integral over [0, k].
Swapping the integration order turns it into a single product integration at
order beta + 1,

    int_0^k int_0^s (s - m)^(beta - 1) f(m) dm ds
        = (1 / beta) int_0^k (k - m)^beta f(m) dm,

which keeps the scheme exact on constant and linear data; an outer
trapezoid over node values of the inner integral would lose that exactness.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from numpy.fft import irfft, rfft

from .engine import OrbitTrace, SelfMap, iterate
from .errors import ContractionWarning, DomainError, PreconditionError, ShapeError
from .errors import check_count, check_real
from .spaces import Grid, GridFn, zero_grid_fn
from .wdistance import WDistance

__all__ = [
    "gamma_fn",
    "rl_integral",
    "rl_integral_nodes",
    "caputo_derivative_nodes",
    "caputo_residual",
    "lambda_paper",
    "lambda_tight",
    "OperatorVariant",
    "FbvpProblem",
    "FbvpSolution",
    "apply_operator",
    "boundary_residual",
    "solution_caputo_residual",
    "solve_fbvp",
]

def gamma_fn(z: float) -> float:
    """Gamma function on the positive half line, up to where a float holds it
    (z of about 171.6)."""
    z = check_real(z, "gamma_fn argument", DomainError, ends="()")
    try:
        return math.gamma(z)
    except OverflowError:
        raise DomainError(f"gamma_fn({z!r}) overflows a float") from None


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _steps(a: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(s + 1) - g(s) and g(s - 1) - g(s) for g(u) = max(u, 0)^a, s >= -1.
    Past s = 1 they are s^a expm1(a log1p(+-1/s)), so that their sum keeps
    its digits where g(s + 1) - 2 g(s) + g(s - 1) cancels.  That form is
    computed in place on every entry, then replaced by the plain power form
    on the few entries with s <= 1."""
    up = np.divide(1.0, s)
    down = np.negative(up)
    power = s**a
    for out in (up, down):
        np.log1p(out, out=out)
        out *= a
        np.expm1(out, out=out)
        out *= power
    near = s <= 1.0
    g = np.maximum(s[near], 0.0) ** a
    down[near] = -g
    up[near] = (s[near] + 1.0) ** a - g
    return up, down


def _in_float_range(q: float, n: int, c: float, *weights: np.ndarray) -> tuple:
    """``weights``, or ``DomainError`` when their scale c = h^q / Gamma(q + 2)
    underflows or a power in them overflowed, as ``gamma_fn`` raises on overflow."""
    if c < sys.float_info.min or not all(np.isfinite(w).all() for w in weights):
        raise DomainError(f"order-{q:g} weights on {n} intervals leave the float range")
    return weights


@np.errstate(over="ignore", invalid="ignore")
def _node_weights(q: float, n: int, tau: float) -> np.ndarray:
    """Weights of nodes 0 .. floor(tau) + 1 in the order-q integral at
    t = tau / n, for 0 < tau < n.  With g(u) = max(u, 0)^(q + 1) and
    c = h^q / Gamma(q + 2), node j >= 1 carries a whole hat function and
    weighs c (g(s + 1) - 2 g(s) + g(s - 1)) at s = tau - j; node 0 carries
    half a hat and weighs c (g(tau - 1) - g(tau) + (q + 1) tau^q)."""
    a = q + 1.0
    c = n**-q / gamma_fn(a + 1.0)
    w, down = _steps(a, tau - np.arange(int(tau) + 2, dtype=float))
    w += down
    w[0] = down[0] + a * tau**q
    w *= c
    return _in_float_range(q, n, c, w)[0]


@np.errstate(over="ignore", invalid="ignore")
def _lag_weights(beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution kernel and node-0 correction of the order-beta rule: node
    i weighs node j >= 1 by ``kernel[i - j]`` and node 0, which carries half
    a hat, by ``kernel[i] - right[i]``, as ``_node_weights`` at tau = i."""
    c = n**-beta / gamma_fn(beta + 2.0)
    m = np.arange(n + 1, dtype=float)
    right, kernel = _steps(beta + 1.0, m)  # each step vector becomes a weight in place
    kernel += right
    kernel *= c
    m **= beta
    m *= beta + 1.0
    right -= m
    right *= c
    return _in_float_range(beta, n, c, kernel, right)


def _fft_length(size: int) -> int:
    """Smallest integer >= size whose only prime factors are 2, 3 and 5."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < size:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fft_convolve(
    values: np.ndarray, spectrum: np.ndarray, length: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Nodes 0 .. n of the linear convolution of ``values`` with the lag
    vector whose real FFT at ``length`` points is ``spectrum``: one real FFT
    each way, the product taken in place.  The inverse is written to ``out``
    (``length`` floats) when given."""
    product = rfft(values, length)
    product *= spectrum
    return irfft(product, length, out=out)[: n + 1]


def _check_on_grid(x, grid: Grid | None, name: str) -> None:
    if not isinstance(x, GridFn):
        raise ShapeError(f"{name} must be a grid function, got {type(x).__name__}")
    if grid is not None and x.grid != grid:
        raise ShapeError(f"{name} grid does not match the problem grid")


def rl_integral_nodes(values: np.ndarray, beta: float, grid: Grid) -> np.ndarray:
    """Fractional integral of order beta evaluated at every grid node."""
    beta = check_real(beta, "integral order", DomainError, ends="()")
    values = np.asarray(values, dtype=float)
    n = grid.n
    if values.shape != (n + 1,):
        raise ShapeError(f"expected {n + 1} node values, got shape {values.shape}")
    kernel, right = _lag_weights(beta, n)
    return np.convolve(kernel, values)[: n + 1] - right * values[0]


def rl_integral(values: GridFn, beta: float, t_index: int) -> float:
    """Fractional integral of order beta at one grid node."""
    _check_on_grid(values, None, "values")
    n = values.grid.n
    v, i = values.values, check_count(t_index, "node index", DomainError, 0, n)
    kernel, right = _lag_weights(check_real(beta, "integral order", DomainError, ends="()"), n)
    return float(kernel[i::-1] @ v[: i + 1] - right[i] * v[0])


def _second_differences(v: np.ndarray, h: float) -> np.ndarray:
    """Central second differences, one-sided second-order at the endpoints."""
    if v.size < 4:
        raise PreconditionError("second differences need at least 4 nodes")
    d2 = np.empty_like(v)
    d2[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
    d2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    d2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return d2


def caputo_derivative_nodes(x: GridFn, beta: float) -> np.ndarray:
    """Numeric Caputo derivative of order beta in (1, 2] at every node."""
    _check_on_grid(x, None, "input")
    check_real(beta, "derivative order", DomainError, 1.0, 2.0, "(]")
    d2 = _second_differences(x.values, x.grid.h)
    if beta == 2.0:
        return d2
    return rl_integral_nodes(d2, 2.0 - beta, x.grid)


def caputo_residual(
    x: GridFn, beta: float, f: Callable[[float, float], float], t_index: int
) -> float:
    """|numeric Caputo derivative - f(t, x(t))| at one interior node."""
    _check_on_grid(x, None, "input")
    check_count(t_index, "interior node index", PreconditionError, 1, x.grid.n - 1)
    cd = caputo_derivative_nodes(x, beta)
    t = x.grid.nodes[t_index]
    return abs(float(cd[t_index]) - float(f(t, float(x.values[t_index]))))


def _check_orders(beta: float, k: float) -> None:
    check_real(beta, "order beta", DomainError, 1.0, 2.0, "(]")
    check_real(k, "boundary parameter k", DomainError, 0.0, 1.0, "()")


def lambda_paper(beta: float, k: float) -> float:
    """Displayed contraction constant:
    1/Gamma(beta+1) + 2/((2+k^2) Gamma(beta+1)) + 2 k^(1+beta)/((2+k^2) Gamma(beta+1))."""
    _check_orders(beta, k)
    g1 = gamma_fn(beta + 1.0)
    denom = (2.0 + k * k) * g1
    return 1.0 / g1 + 2.0 / denom + 2.0 * k ** (1.0 + beta) / denom


def lambda_tight(beta: float, k: float) -> float:
    """Re-derived contraction constant with the sharper boundary term:
    1/Gamma(beta+1) + 2/((2+k^2) Gamma(beta+1)) + 2 k^(beta+1)/((2+k^2) Gamma(beta+2))."""
    _check_orders(beta, k)
    g1 = gamma_fn(beta + 1.0)
    g2 = gamma_fn(beta + 2.0)
    two_k2 = 2.0 + k * k
    return 1.0 / g1 + 2.0 / (two_k2 * g1) + 2.0 * k ** (beta + 1.0) / (two_k2 * g2)


class OperatorVariant(Enum):
    # All three terms added exactly as displayed in the source problem.
    PAPER_EXACT = "paper_exact"
    # Boundary terms subtracted, which makes the integral boundary
    # condition x(1) = -int_0^k x(s) ds hold for the fixed point.
    GREEN_CORRECTED = "green_corrected"


_F_SPOT_T = (0.0, 0.5, 1.0)
_F_SPOT_X = (0.0, 0.5, 1.0, 2.0)


class OperatorWeights(NamedTuple):
    """Weights of one problem's integral operator.

    ``spectrum`` is the real FFT, at ``length`` points, of the order-beta lag
    vector; ``right`` is that order's node-0 correction; ``boundary`` weighs
    nodes 0 .. floor(kn) + 1 into the order-(beta + 1) integral at t = k.
    """

    length: int
    spectrum: np.ndarray
    right: np.ndarray
    boundary: np.ndarray


@dataclass(frozen=True)
class FbvpProblem:
    """Integral-operator form of the order-beta boundary-value problem.

    ``f`` must accept floats or numpy arrays elementwise.  ``L`` is the
    declared Lipschitz constant of f in its second argument; nonnegativity
    and the Lipschitz bound are spot-checked on a small sample of (t, x)
    values at construction time.
    """

    beta: float
    k: float
    L: float
    f: Callable
    grid: Grid
    variant: OperatorVariant = OperatorVariant.PAPER_EXACT

    def __post_init__(self) -> None:
        _check_orders(self.beta, self.k)
        if not isinstance(self.grid, Grid):
            raise ShapeError(f"grid must be a Grid, got {type(self.grid).__name__}")
        check_count(self.grid.n, "grid subinterval count", DomainError, 3)
        check_real(self.L, "Lipschitz constant", DomainError)
        for t in _F_SPOT_T:
            for xv in _F_SPOT_X:
                check_real(float(self.f(t, xv)), f"f({t}, {xv})", DomainError)
            for xa, xb in zip(_F_SPOT_X, _F_SPOT_X[1:]):
                gap = abs(float(self.f(t, xa)) - float(self.f(t, xb)))
                if gap > self.L * abs(xa - xb) * (1.0 + 1e-9) + 1e-12:
                    raise DomainError(
                        f"f violates the declared Lipschitz bound at t = {t}: "
                        f"|f({t},{xa}) - f({t},{xb})| = {gap:.3e} > L |dx|"
                    )

    @cached_property
    def operator_weights(self) -> OperatorWeights:
        """The operator's weights, built on first use and kept with the problem."""
        n = self.grid.n
        length = _fft_length(2 * n + 1)
        kernel, right = _lag_weights(self.beta, n)
        spectrum = rfft(kernel, length)
        boundary = _node_weights(self.beta + 1.0, n, self.k * n)
        for a in (spectrum, right, boundary):
            a.setflags(write=False)
        return OperatorWeights(length, spectrum, right, boundary)

    def to_record(self) -> dict:
        return {
            "beta": self.beta,
            "k": self.k,
            "L": self.L,
            "variant": self.variant.value,
            "n": self.grid.n,
        }


def apply_operator(problem: FbvpProblem, x: GridFn) -> GridFn:
    """One application of the integral operator to a grid function."""
    grid = problem.grid
    _check_on_grid(x, grid, "input")
    t = grid.nodes
    fv = np.asarray(problem.f(t, x.values), dtype=float)
    if fv.shape != t.shape:
        raise ShapeError(f"f returned shape {fv.shape}, expected {t.shape}")
    length, spectrum, right, boundary = problem.operator_weights
    main = _fft_convolve(fv, spectrum, length, grid.n)
    main -= right * fv[0]
    main[0] = 0.0  # the integral over [0, 0]
    # Order-swapped double integral: a single product integration at order
    # beta + 1, evaluated at t = k.
    double = float(boundary @ fv[: boundary.size])
    k = problem.k
    out = np.multiply(t, 2.0)  # the coupling ramp 2t / (2 + k^2) (main[-1] + double)
    out /= 2.0 + k * k
    out *= main[-1] + double
    if problem.variant is not OperatorVariant.PAPER_EXACT:
        np.negative(out, out=out)
    out += main
    return GridFn(grid, out)


def boundary_residual(problem: FbvpProblem, x: GridFn) -> float:
    """|x(1) + int_0^k x(s) ds| with the integral taken by the order-1 rule:
    the trapezoid, its last cell cut at k."""
    _check_on_grid(x, problem.grid, "input")
    w = _node_weights(1.0, problem.grid.n, problem.k * problem.grid.n)
    return abs(float(x.values[-1]) + float(w @ x.values[: w.size]))


def solution_caputo_residual(problem: FbvpProblem, x: GridFn) -> float:
    """Max over interior nodes of |numeric Caputo derivative - f(t, x)|.

    The order-(2 - beta) integral of the second differences is one real FFT
    convolution, with lag weights built on each call: accurate in the sup
    norm, which is all the max reads.  ``caputo_derivative_nodes`` is the
    direct reference."""
    grid = problem.grid
    _check_on_grid(x, grid, "input")
    cd = _second_differences(x.values, grid.h)
    if problem.beta != 2.0:
        n = grid.n
        length = _fft_length(2 * n + 1)  # the operator's, without building its weights
        kernel, right = _lag_weights(2.0 - problem.beta, n)
        right *= cd[0]
        spectrum = rfft(kernel, length)
        del kernel
        # The spectrum is spent once multiplied in, so the result reuses it.
        cd = _fft_convolve(cd, spectrum, length, n, out=spectrum.view(float)[:length])
        cd -= right
    interior = cd[1:-1]
    interior -= np.asarray(problem.f(grid.nodes, x.values), dtype=float)[1:-1]
    return float(np.max(np.abs(interior, out=interior)))


@dataclass(frozen=True)
class FbvpSolution:
    x: GridFn
    iterations: int
    fixed_point_residual: float
    boundary_residual: float
    caputo_residual: float
    lambda_paper: float
    lambda_tight: float
    gap_ratio: float
    warning: str | None
    trace: OrbitTrace

    def to_record(self) -> dict:
        return {
            "iterations": self.iterations,
            "fixed_point_residual": self.fixed_point_residual,
            "boundary_residual": self.boundary_residual,
            "caputo_residual": self.caputo_residual,
            "lambda_paper": self.lambda_paper,
            "lambda_tight": self.lambda_tight,
            "gap_ratio": self.gap_ratio,
            "warning": self.warning,
            "stop_reason": self.trace.stop_reason.value,
            "x_at_zero": float(self.x.values[0]),
            "x_at_one": float(self.x.values[-1]),
            "sup_norm": self.x.sup_norm,
        }


def solve_fbvp(problem: FbvpProblem, tol: float = 1e-8, max_iter: int = 10_000) -> FbvpSolution:
    """Picard-iterate the integral operator from the zero function.

    When L * lambda_tight is not below 1 a ``ContractionWarning`` is emitted
    and the iteration is still attempted; divergence raises
    ``DivergenceError`` with the partial trace attached.
    """
    lam_tight = lambda_tight(problem.beta, problem.k)
    lam_disp = lambda_paper(problem.beta, problem.k)
    contraction = problem.L * lam_tight
    warning = None
    if contraction >= 1.0:
        warning = (
            f"contraction unverified: L * lambda = {contraction:.6g} >= 1; "
            "iteration attempted anyway"
        )
        warnings.warn(warning, ContractionWarning, stacklevel=2)

    operator = SelfMap("fbvp_operator", lambda pt: apply_operator(problem, pt))
    sup_pair = WDistance.from_metric("sup_metric")
    x0 = zero_grid_fn(problem.grid)
    trace = iterate(operator, x0, sup_pair, contraction, max_iter=max_iter, tol=tol)

    x = trace.final
    residual = float(np.max(np.abs(x.values - apply_operator(problem, x).values)))
    gaps = trace.d_gaps
    ratios = [
        float(gaps[i] / gaps[i - 1]) for i in range(1, len(gaps)) if gaps[i - 1] > 0.0
    ]
    return FbvpSolution(
        x=x,
        iterations=trace.steps,
        fixed_point_residual=residual,
        boundary_residual=boundary_residual(problem, x),
        caputo_residual=solution_caputo_residual(problem, x),
        lambda_paper=lam_disp,
        lambda_tight=lam_tight,
        gap_ratio=max(ratios) if ratios else 0.0,
        warning=warning,
        trace=trace,
    )
