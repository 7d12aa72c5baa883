"""Exception types shared across the package, and its input contract.

A value of the documented type outside its domain (NaN, an infinity, a
negative, a zero where zero is excluded, a non-integral count, an empty
sample, a mismatched grid or a foreign point kind) raises a ``RelfixError``
subclass; a value of the wrong Python type, such as ``None`` or a str where a
number belongs, may raise ``TypeError``.  ``check_real`` and ``check_count``
decide every numeric domain.
"""

import math
import numbers
import sys

__all__ = [
    "RelfixError",
    "ShapeError",
    "DomainError",
    "SamplingError",
    "PreconditionError",
    "EstimationError",
    "ConfigError",
    "DivergenceError",
    "ContractionWarning",
]


class RelfixError(Exception):
    """Base class for all package errors."""


class ShapeError(RelfixError):
    """Mismatched point kinds, grids, or array shapes."""


class DomainError(RelfixError):
    """Argument outside the mathematical domain of an operation."""


class SamplingError(RelfixError):
    """A sampling request was malformed or produced no points."""


class PreconditionError(RelfixError):
    """A documented precondition was violated by the caller."""


class EstimationError(RelfixError):
    """Contraction estimation could not be carried out."""


class ConfigError(RelfixError):
    """A run configuration is missing or has an invalid field."""


class DivergenceError(RelfixError):
    """Picard iteration left the finite range.

    The partially recorded orbit, when available, is attached as ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ContractionWarning(UserWarning):
    """Iteration attempted although the contraction bound is not below 1."""


def check_real(value, what: str, error: type, lo=0.0, hi=math.inf, ends="[]") -> float:
    """``value`` as a float when it is finite and lies between ``lo`` and
    ``hi``, each end included where ``ends`` ("[]", "[)", "(]" or "()") has a
    square bracket; otherwise raise ``error``, or ``TypeError`` when it is
    not a real number at all."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, got {type(value).__name__}")
    x = float(value) if abs(value) <= sys.float_info.max else math.inf
    above = lo <= x if ends[0] == "[" else lo < x
    below = x <= hi if ends[1] == "]" else x < hi
    if math.isfinite(x) and above and below:
        return x
    half_line = "nonnegative" if ends[0] == "[" else "positive"
    domain = half_line if (lo, hi) == (0.0, math.inf) else f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise error(f"{what} must be finite and {domain}, got {value!r}")


def check_count(value, what: str, error: type, lo: int, hi: int | None = None) -> int:
    """``value`` as an int when it is an integer, not a bool, from ``lo`` up
    to ``hi`` (no bound when None); otherwise, whatever its type, raise
    ``error``."""
    top = math.inf if hi is None else hi
    if type(value) is bool or not isinstance(value, numbers.Integral) or not lo <= value <= top:
        span = f"of at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise error(f"{what} must be an integer {span}, got {value!r}")
    return int(value)
