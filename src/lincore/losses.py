"""Scalar base losses and their linear-core surrogates.

A base loss ``Phi`` is a differentiable convex function with ``Phi'(0) > 0``.
Three kinds are supported:

* ``logistic``:     Phi(u) = log(1 + e^u)
* ``exponential``:  Phi(u) = e^u
* ``quartic_linear``: Phi(u) = a*u + u^4/12 + K  (slope ``a > 0``, offset ``K``)

The linear-core surrogate built from a base is affine with slope -1 on the
central interval [-tau, tau] and continues into rescaled base-loss tails:

    symmetric:    -u + tau + Phi(0)/Phi'(0)        on [-tau, tau]
                  Phi(tau - u) / Phi'(0)           for u > tau
                  Phi(-tau - u) / Phi'(0) + 2*tau  for u < -tau

    one-sided:    the affine branch extended to all u <= tau, with the same
                  right tail for u > tau.

Both variants are C^1 everywhere; they are C^2 exactly when Phi''(0) = 0
(true for the quartic-linear base, false for logistic and exponential).

All functions are vectorized: they accept scalars or arrays and return
``float`` or ``float64`` arrays correspondingly.  Non-finite inputs raise
:class:`~lincore.errors.DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy.special import expit

from .errors import DomainError, EvaluationOverflowError

LOGISTIC = "logistic"
EXPONENTIAL = "exponential"
QUARTIC_LINEAR = "quartic_linear"
_BASE_KINDS = (LOGISTIC, EXPONENTIAL, QUARTIC_LINEAR)

SYMMETRIC = "symmetric"
ONE_SIDED = "one_sided"
_SIDES = (SYMMETRIC, ONE_SIDED)

LEFT = "left"
RIGHT = "right"

# Inputs beyond this magnitude would overflow the exponential base in
# float64 once the tail offset is added; they are rejected rather than
# saturated.
_EXP_INPUT_LIMIT = 700.0

_MIN_TAU = 1e-12


@dataclass(frozen=True)
class BaseLoss:
    """A convex differentiable base ``Phi`` with ``Phi'(0) > 0``.

    ``a`` and ``offset`` are only meaningful for the quartic-linear kind;
    ``offset`` shifts values but never derivatives.
    """

    kind: str
    a: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _BASE_KINDS:
            raise DomainError(f"unknown base loss kind: {self.kind!r}")
        if self.kind == QUARTIC_LINEAR and not self.a > 0:
            raise DomainError(f"quartic-linear slope must be positive, got {self.a}")

    @classmethod
    def logistic(cls) -> "BaseLoss":
        return cls(LOGISTIC)

    @classmethod
    def exponential(cls) -> "BaseLoss":
        return cls(EXPONENTIAL)

    @classmethod
    def quartic_linear(cls, a: float = 1.0, offset: float = 0.0) -> "BaseLoss":
        return cls(QUARTIC_LINEAR, a=a, offset=offset)

    @property
    def value_at_zero(self) -> float:
        """Phi(0)."""
        if self.kind == LOGISTIC:
            return float(np.log(2.0))
        if self.kind == EXPONENTIAL:
            return 1.0
        return float(self.offset)

    @property
    def slope_at_zero(self) -> float:
        """Phi'(0), strictly positive for every supported kind."""
        if self.kind == LOGISTIC:
            return 0.5
        if self.kind == EXPONENTIAL:
            return 1.0
        return float(self.a)

    @property
    def curvature_at_zero(self) -> float:
        """Phi''(0): 1/4 (logistic), 1 (exponential), 0 (quartic-linear)."""
        if self.kind == LOGISTIC:
            return 0.25
        if self.kind == EXPONENTIAL:
            return 1.0
        return 0.0


@dataclass(frozen=True)
class LinearCoreSpec:
    """A concrete linear-core surrogate: base + smoothing side + half-width."""

    base: BaseLoss
    side: str = SYMMETRIC
    tau: float = 1.0

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise DomainError(f"unknown smoothing side: {self.side!r}")
        if not np.isfinite(self.tau) or self.tau < _MIN_TAU:
            raise DomainError(
                f"core half-width must be finite and >= {_MIN_TAU}, got {self.tau}"
            )

    @property
    def intercept(self) -> float:
        """The additive constant Phi(0)/Phi'(0) shared by all branches."""
        return self.base.value_at_zero / self.base.slope_at_zero


def _as_array(u) -> tuple[np.ndarray, bool]:
    arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("u must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def _base(base: BaseLoss, arr: np.ndarray, order: int) -> np.ndarray:
    """Unchecked Phi (``order`` 0), Phi' (1) or Phi'' (2) of a finite array."""
    if base.kind == EXPONENTIAL:
        return np.exp(arr)
    if base.kind == LOGISTIC:
        if order == 0:
            # log(1 + e^u) without overflow for large |u|.
            return np.maximum(arr, 0.0) + np.log1p(np.exp(-np.abs(arr)))
        s = expit(arr)
        return s if order == 1 else s * (1.0 - s)
    if order == 0:
        return base.a * arr + arr**4 / 12.0 + base.offset
    return base.a + arr**3 / 3.0 if order == 1 else arr**2


def _base_at(base: BaseLoss, u, order: int):
    """The checked edge of the base kernel: one validation, then ``_base``."""
    arr, scalar = _as_array(u)
    if base.kind == EXPONENTIAL and arr.size and np.max(arr) > _EXP_INPUT_LIMIT:
        raise EvaluationOverflowError(f"exponential base overflow at u={np.max(arr):.3g}")
    return _maybe_scalar(_base(base, arr, order), scalar)


def base_value(base: BaseLoss, u):
    """Evaluate Phi(u)."""
    return _base_at(base, u, 0)


def base_derivative(base: BaseLoss, u):
    """Evaluate Phi'(u)."""
    return _base_at(base, u, 1)


def base_second_derivative(base: BaseLoss, u):
    """Evaluate Phi''(u)."""
    return _base_at(base, u, 2)


def _lc(spec: LinearCoreSpec, arr: np.ndarray, order: int, knot: str | None = None) -> np.ndarray:
    """Unchecked surrogate value (``order`` 0) or derivative (1, 2) of a finite array.

    The core is ``-u + tau + c0`` with slope -1 and curvature 0.  The tails
    are ``Phi^(order)(tau - u) / Phi'(0)`` on the right and
    ``Phi^(order)(-tau - u) / Phi'(0)`` on the left, negated for the first
    derivative and shifted by ``2*tau`` for the left value.  Knots take the
    core, except that ``knot`` (``LEFT`` or ``RIGHT``) gives the knot on
    that side to its tail.  The tails call ``_base`` directly: once
    ``|u| <= 700`` both tail arguments are below 700 (the right one is
    ``tau - u < 0``, the left one ``-tau - u < |u|``), so the base guard
    cannot trip there.
    """
    tau, slope0 = spec.tau, spec.base.slope_at_zero
    if order == 0:
        # The affine core everywhere, in place, then the tails over their entries.
        out = np.negative(arr)
        out += tau
        out += spec.intercept
    else:
        out = np.full_like(arr, -1.0 if order == 1 else 0.0)
    sign = -1.0 if order == 1 else 1.0
    right = arr >= tau if knot == RIGHT else arr > tau
    if np.any(right):
        out[right] = sign * _base(spec.base, tau - arr[right], order) / slope0
    if spec.side == SYMMETRIC:
        left = arr <= -tau if knot == LEFT else arr < -tau
        if np.any(left):
            tail = sign * _base(spec.base, -tau - arr[left], order) / slope0
            out[left] = tail + 2.0 * tau if order == 0 else tail
    return out


def _lc_at(spec: LinearCoreSpec, u, order: int, knot: str | None = None):
    """The checked edge of the surrogate kernel: one validation, then ``_lc``."""
    arr, scalar = _as_array(u)
    if spec.base.kind == EXPONENTIAL and arr.size and np.max(np.abs(arr)) > _EXP_INPUT_LIMIT:
        raise EvaluationOverflowError(
            "exponential-tail surrogate overflow: |u| > "
            f"{_EXP_INPUT_LIMIT:g} (got {np.max(np.abs(arr)):.3g})"
        )
    return _maybe_scalar(_lc(spec, arr, order, knot), scalar)


def lc_value(spec: LinearCoreSpec, u):
    """Evaluate the linear-core surrogate at ``u``.

    Knots |u| == tau are evaluated from the affine core; the tail branches
    take the same value there, but the core avoids exponential calls.
    """
    return _lc_at(spec, u, 0)


def _on_core(spec: LinearCoreSpec, u) -> bool:
    """Whether ``u`` is a float where the array path returns slope -1.

    That is a finite ``u <= tau`` (and ``>= -tau`` when symmetric) that the
    exponential input guard accepts.
    """
    return (
        isinstance(u, float)
        and math.isfinite(u)
        and u <= spec.tau
        and (spec.side == ONE_SIDED or u >= -spec.tau)
        and (spec.base.kind != EXPONENTIAL or abs(u) <= _EXP_INPUT_LIMIT)
    )


def lc_derivative(spec: LinearCoreSpec, u):
    """Evaluate the first derivative of the surrogate at ``u``.

    Equals -1 on the core (and for every u <= tau in the one-sided case);
    continuous across the knots.  A float on the core returns -1.0 at once.
    """
    if _on_core(spec, u):
        return -1.0
    return _lc_at(spec, u, 1)


def lc_branch_second_derivative(spec: LinearCoreSpec, u, side_limit: str):
    """Second derivative of the branch approached from ``side_limit``.

    Away from the knots both limits agree; at u = +/-tau they expose the
    curvature jump Phi''(0)/Phi'(0) that decides C^2 smoothness.
    """
    if side_limit not in (LEFT, RIGHT):
        raise DomainError(f"side_limit must be {LEFT!r} or {RIGHT!r}, got {side_limit!r}")
    return _lc_at(spec, u, 2, side_limit)


@dataclass(frozen=True)
class MarginLoss:
    """A named scalar margin loss with vectorized value and derivative.

    The consistency computations only need these three pieces, so both
    linear-core surrogates and the plain decreasing base losses fit this
    one shape.  ``bracket_halfwidth`` seeds the minimizer's search interval.
    """

    name: str
    value: object  # callable: array -> array
    derivative: object  # callable: array -> array
    bracket_halfwidth: float = 10.0


def linear_core_margin_loss(spec: LinearCoreSpec, name: str | None = None) -> MarginLoss:
    """Wrap a linear-core spec as a :class:`MarginLoss`."""
    if name is None:
        prefix = "lc" if spec.side == SYMMETRIC else "lc_one_sided"
        name = f"{prefix}_{spec.base.kind}"
    return MarginLoss(
        name=name,
        value=lambda u: lc_value(spec, u),
        derivative=lambda u: lc_derivative(spec, u),
        bracket_halfwidth=2.0 * spec.tau + 8.0,
    )


def plain_margin_loss(base: BaseLoss, name: str | None = None) -> MarginLoss:
    """The decreasing margin loss u -> Phi(-u) for a base Phi.

    These are the ``logistic`` / ``exponential`` baselines in rate plots.
    """
    return MarginLoss(
        name=name if name is not None else base.kind,
        value=lambda u: base_value(base, -np.asarray(u, dtype=np.float64)),
        derivative=lambda u: -base_derivative(base, -np.asarray(u, dtype=np.float64)),
        bracket_halfwidth=10.0,
    )
