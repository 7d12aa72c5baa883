"""Relation-constrained fixed-point iteration with w-distance certificates.

The package verifies, on finite samples, the hypotheses of a Banach-type
fixed-point theorem for self-maps that contract a generalized pair distance
only along a binary relation, runs the Picard iteration with certified
geometric tail bounds, and applies the machinery as a numerical solver for
a nonlinear fractional-order integral boundary-value problem.

Subpackages
-----------

    spaces      points, grids, metric spaces, deterministic sampling
    relations   binary relations and closure/completeness checks
    wdistance   pair distances and their axiom checkers
    engine      Picard orbits, Cauchy certificates, uniqueness probes
    verify      contraction estimation and full hypothesis verification
    fractional  gamma function, fractional quadrature, the BVP solver
    fixtures    ready-made scenarios used by the demos and the CLI
    cli         batch front end writing reports and solution tables
"""

from .engine import (
    CauchyCheck,
    FixedPointCertificate,
    OrbitTrace,
    ProbeResult,
    SelfMap,
    StopReason,
    UniquenessVerdict,
    cauchy_bound,
    certify_cauchy,
    certify_fixed_point,
    certify_limit_uniqueness,
    iterate,
    probe_uniqueness,
)
from .errors import (
    ConfigError,
    ContractionWarning,
    DivergenceError,
    DomainError,
    EstimationError,
    PreconditionError,
    RelfixError,
    SamplingError,
    ShapeError,
)
from .fractional import (
    FbvpProblem,
    FbvpSolution,
    OperatorVariant,
    apply_operator,
    boundary_residual,
    caputo_derivative_nodes,
    caputo_residual,
    gamma_fn,
    lambda_paper,
    lambda_tight,
    rl_integral,
    rl_integral_nodes,
    solution_caputo_residual,
    solve_fbvp,
)
from .relations import (
    Relation,
    RelationProperty,
    RelationReport,
    SubsequenceWitness,
    Verdict,
    check_complete_on,
    check_t_closed,
    check_weak_t_closed,
    find_start_points,
    is_preserving,
    universal_relation,
    witness_d_self_closed,
)
from .spaces import (
    FunctionSpace,
    Grid,
    GridFn,
    Interval,
    MetricSpace,
    Point,
    ScalarPoint,
    as_scalar,
    as_values,
    constant_grid_fn,
    function_space,
    grid_fn,
    interval_space,
    point_distance,
    points_equal,
    sample_space,
    scalar,
    zero_grid_fn,
)
from .verify import (
    ClassicalComparison,
    ContractionEstimate,
    OverallVerdict,
    PairComparison,
    TheoremReport,
    compare_classical,
    estimate_lambda,
    related_pairs,
    verify_theorem,
)
from .wdistance import (
    Axiom,
    AxiomReport,
    WDistance,
    check_rlsc,
    check_triangle,
    check_w3,
    default_delta_ladder,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "ScalarPoint", "GridFn", "Point", "Interval", "FunctionSpace",
    "MetricSpace", "scalar", "grid_fn", "zero_grid_fn", "constant_grid_fn",
    "as_scalar", "as_values", "points_equal", "point_distance",
    "interval_space", "function_space", "sample_space",
    "Relation", "RelationProperty", "RelationReport", "Verdict",
    "SubsequenceWitness", "universal_relation", "is_preserving",
    "check_t_closed", "check_weak_t_closed", "find_start_points",
    "check_complete_on", "witness_d_self_closed",
    "Axiom", "AxiomReport", "WDistance", "check_triangle", "check_rlsc",
    "check_w3", "default_delta_ladder",
    "SelfMap", "OrbitTrace", "FixedPointCertificate", "CauchyCheck",
    "ProbeResult", "StopReason", "UniquenessVerdict", "iterate",
    "cauchy_bound", "certify_cauchy", "certify_limit_uniqueness",
    "certify_fixed_point", "probe_uniqueness",
    "ContractionEstimate", "PairComparison", "ClassicalComparison",
    "TheoremReport", "OverallVerdict", "related_pairs", "estimate_lambda",
    "compare_classical", "verify_theorem",
    "gamma_fn", "rl_integral", "rl_integral_nodes", "caputo_derivative_nodes",
    "caputo_residual", "lambda_paper", "lambda_tight", "OperatorVariant",
    "FbvpProblem", "FbvpSolution", "apply_operator", "boundary_residual",
    "solution_caputo_residual", "solve_fbvp",
    "RelfixError", "ShapeError", "DomainError", "SamplingError",
    "PreconditionError", "EstimationError", "ConfigError", "DivergenceError",
    "ContractionWarning",
]
