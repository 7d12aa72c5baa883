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

from . import engine, errors, fractional, relations, spaces, verify, wdistance
from .engine import *
from .errors import *
from .fractional import *
from .relations import *
from .spaces import *
from .verify import *
from .wdistance import *

__version__ = "0.1.0"

# Each library module's ``__all__`` is its public list, and the package
# exports their join; tests/test_contract.py walks ``relfix.__all__``.
__all__ = [
    name
    for module in (engine, errors, fractional, relations, spaces, verify, wdistance)
    for name in module.__all__
]
