"""Semantic exception hierarchy.

Every guard in the library raises one of these types so that callers can
distinguish bad inputs from numeric trouble without string matching.
"""

import math

import numpy as np


class LincoreError(Exception):
    """Base class for all library errors."""


class DomainError(LincoreError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class EvaluationOverflowError(LincoreError, OverflowError):
    """A loss evaluation would overflow float64.

    Raised instead of silently returning ``inf`` so that benchmarks and
    oracles never compare against poisoned values.
    """


class _OverflowGuard(np.errstate):
    """The numeric API's one overflow rule for the functions that sum
    scores: inside, a float overflow or invalid operation raises
    ``EvaluationOverflowError`` at once, instead of a numpy warning and an
    inf or a NaN that flows on.  ``einsum`` and ``bincount`` do not report
    them, so what they build goes through :func:`_finite`."""

    def __init__(self) -> None:
        super().__init__(over="raise", invalid="raise")

    def __exit__(self, kind, error, trace) -> None:
        super().__exit__(kind, error, trace)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise EvaluationOverflowError(f"a result leaves the float64 range: {error}") from error


def _finite(value):
    """``value``, if every entry is finite; else ``EvaluationOverflowError``."""
    if isinstance(value, float):
        finite = math.isfinite(value)
    else:  # ``count_nonzero`` tests a small mask faster than ``.all()``
        finite = np.count_nonzero(np.isfinite(value)) == value.size
    if not finite:
        raise EvaluationOverflowError("a result leaves the float64 range")
    return value


class EnumerationLimitError(LincoreError, ValueError):
    """An exact-enumeration guard was exceeded.

    Exact oracles refuse to run approximately: callers must shrink the
    instance, never trust a truncated enumeration.
    """


class BracketSearchError(LincoreError, RuntimeError):
    """The expanding bracket of the 1-D minimizer hit its width cap."""


class TrainingDivergedError(LincoreError, RuntimeError):
    """A training objective exceeded the divergence guard."""


class ConfigError(LincoreError, ValueError):
    """An experiment configuration contains unknown or invalid keys."""
