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
from functools import cached_property, partial
from typing import Callable

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

# Inputs of the quartic-linear base ``a v + v^4 / 12 + K`` beyond this
# magnitude times ``min(a, 1) ** 0.25`` are rejected.  Up to it ``v^4 <= 1e308
# min(a, 1)`` stays below the float64 maximum 1.8e308, and after ``/ a`` the
# value adds at most 8.4e306 to ``K / a``, the slope ``v^3 / 3a`` at most
# 1e231 a^(-1/4) and the curvature ``v^2 / a`` at most 1e154 a^(-1/2), for
# any normal ``a`` up to 1e230, the range ``BaseLoss`` accepts.  A tail
# argument is smaller than ``|u|`` and a tail lies beyond ``tau < |u|``, so
# ``+ 2 tau`` adds under 2e77.  ``BaseLoss`` keeps ``|K|`` and ``|K / a|`` within
# ``_QUARTIC_OFFSET_LIMIT`` = 1e308, so the numerator stays under 1.2e308 (``a v``
# is at most 1e307) and the value under 1.1e308.
_QUARTIC_INPUT_LIMIT = 1e77
_QUARTIC_OFFSET_LIMIT = 1e308

_MIN_TAU = 1e-12

# The core ``tau - u + c0`` is at most ``2 tau + c0`` on a symmetric surrogate.
# A one-sided core reaches ``u = -1.8e308`` (the logistic base has no input
# limit, and its ``c0`` is 2 log 2), where ``-u`` is the float64 maximum and
# adding ``tau + c0`` rounds back to it while that stays below half the float
# spacing there, 2^969 ~ 1e292.  Capping ``tau`` at 1e290 keeps both finite.
_MAX_TAU = 1e290

# The symmetric logistic left tail ``2 Phi(-tau - u) + 2 tau`` is at most
# ``-2 u + 2 log 2`` up to rounding, below the float64 maximum 1.8e308 while
# ``u >= -8.9e307``; left-tail entries below that raise instead of warning.
_LOGISTIC_LEFT_LIMIT = 8.9e307


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
        if self.kind != QUARTIC_LINEAR:
            return
        # The ranges ``_QUARTIC_INPUT_LIMIT`` is derived for: a normal slope up
        # to 1e230, and an offset and intercept within ``_QUARTIC_OFFSET_LIMIT``.
        if not np.finfo(np.float64).tiny <= self.a <= 1e230:
            raise DomainError(f"quartic-linear slope must lie in [2.2e-308, 1e230], got {self.a}")
        # As Python floats ``offset / a`` overflows to inf without a numpy warning.
        intercept = float(self.offset) / float(self.a)
        limit = _QUARTIC_OFFSET_LIMIT
        if not (abs(self.offset) <= limit and abs(intercept) <= limit):
            raise DomainError(
                f"quartic-linear offset and intercept offset/a must be finite and at most "
                f"{limit:g} in magnitude, got offset {self.offset}, slope {self.a}"
            )

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
        if not _MIN_TAU <= self.tau <= _MAX_TAU:
            raise DomainError(
                f"core half-width must lie in [{_MIN_TAU}, {_MAX_TAU:g}], got {self.tau}"
            )

    @cached_property
    def intercept(self) -> float:
        """The additive constant Phi(0)/Phi'(0) shared by all branches, computed once."""
        return self.base.value_at_zero / self.base.slope_at_zero


def _as_array(u) -> tuple[np.ndarray, bool]:
    arr = np.asarray(u, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("u must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def _input_limit(base: BaseLoss) -> float:
    """The largest ``|u|`` a surrogate of ``base`` evaluates without overflow."""
    if base.kind == QUARTIC_LINEAR:
        return _QUARTIC_INPUT_LIMIT * min(base.a, 1.0) ** 0.25
    return _EXP_INPUT_LIMIT if base.kind == EXPONENTIAL else math.inf


def _base(base: BaseLoss, arr: np.ndarray, order: int) -> np.ndarray:
    """Phi (``order`` 0), Phi' (1) or Phi'' (2) of a finite array, unchecked but
    for the exponential and quartic-linear input guards."""
    if base.kind == EXPONENTIAL:
        if arr.size and arr.max() > _EXP_INPUT_LIMIT:
            raise EvaluationOverflowError(f"exponential base overflow at u={np.max(arr):.3g}")
        return np.exp(arr)
    if base.kind == LOGISTIC:
        if order == 0:
            # log(1 + e^u) without overflow for large |u|, in place on one
            # fresh array; the sum is commutative, so its bits are those of
            # ``max(u, 0) + log1p(exp(-|u|))``.
            out = np.abs(arr)
            np.negative(out, out)
            np.exp(out, out)
            np.log1p(out, out)
            out += np.maximum(arr, 0.0)
            return out
        s = expit(arr)
        return s if order == 1 else s * (1.0 - s)
    if arr.size and np.abs(arr).max() > _input_limit(base):
        raise EvaluationOverflowError(f"quartic-linear base overflow at |u|={np.abs(arr).max():.3g}")
    if order == 0:
        return base.a * arr + arr**4 / 12.0 + base.offset
    return base.a + arr**3 / 3.0 if order == 1 else arr**2


def _base_at(base: BaseLoss, u, order: int):
    """The checked edge of the base kernel: one validation, then ``_base``."""
    arr, scalar = _as_array(u)
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
    """Surrogate value (``order`` 0) or derivative (1, 2) of a finite array,
    unchecked but for the exponential and quartic-linear guards on ``|u|``
    and the logistic left-tail guard.

    The core is ``tau - u + c0`` with slope -1 and curvature 0.  The tails
    are ``Phi^(order)(tau - u) / Phi'(0)`` on the right and
    ``Phi^(order)(-tau - u) / Phi'(0)`` on the left, negated for the first
    derivative and shifted by ``2*tau`` for the left value.  Knots take the
    core, except that ``knot`` (``LEFT`` or ``RIGHT``) gives the knot on
    that side to its tail.  The tails call ``_base`` through ``_tail`` (the
    logistic value tail writes its base out): once ``|u|`` is within its
    base's limit both tail arguments are too (the right one is
    ``tau - u < 0``, the left one ``-tau - u < |u|``), so the base guard
    cannot trip there.

    Each tail is selected by flat index: ``nonzero`` of its mask over the
    C-ordered input (``ravel``), an integer gather, and index assignment to
    scatter into a fresh C-contiguous output, which costs a fraction of N-D
    boolean masks.  ``tau - u`` has the bits of ``-u + tau``, so for the
    value it is both the core (before ``c0``) and the right tail's argument.
    """
    kind = spec.base.kind
    if kind != LOGISTIC and arr.size and np.abs(arr).max() > _input_limit(spec.base):
        raise EvaluationOverflowError(
            f"{kind}-tail surrogate overflow: |u| > "
            f"{_input_limit(spec.base):g} (got {np.max(np.abs(arr)):.3g})"
        )
    tau = spec.tau
    flat = arr.ravel()
    right = (flat >= tau if knot == RIGHT else flat > tau).nonzero()[0]
    if order == 0:
        out = np.subtract(tau, flat)
        right_tail = _tail(spec.base, out[right], 0) if right.size else None
        out += spec.intercept
    else:
        out = np.empty(flat.shape)
        out.fill(-1.0 if order == 1 else 0.0)
        right_tail = _tail(spec.base, np.subtract(tau, flat[right]), order) if right.size else None
    if right.size:
        out[right] = right_tail
    if spec.side == SYMMETRIC:
        left = (flat <= -tau if knot == LEFT else flat < -tau).nonzero()[0]
        if left.size:
            arg = flat[left]
            if order == 0 and kind == LOGISTIC and np.minimum.reduce(arg) < -_LOGISTIC_LEFT_LIMIT:
                raise EvaluationOverflowError(
                    f"logistic left-tail overflow: u < {-_LOGISTIC_LEFT_LIMIT:g} "
                    f"(got {arg.min():.3g})"
                )
            tail = _tail(spec.base, np.subtract(-tau, arg, arg), order)
            if order == 0:
                tail += 2.0 * tau
            out[left] = tail
    return out if arr.ndim == 1 else out.reshape(arr.shape)


def _tail(base: BaseLoss, arg: np.ndarray, order: int) -> np.ndarray:
    """``Phi^(order)(arg) / Phi'(0)`` of a fresh array of tail arguments,
    which it may overwrite, negated for the first derivative.

    A value tail's arguments share one sign, ``tau - u < 0`` on the right
    and ``-tau - u > 0`` on the left, so the logistic ``max(v, 0) +
    log1p(e^-|v|)`` drops the passes that move no bit there: it is
    ``log1p(e^v)`` on the right and ``v + log1p(e^-v)`` on the left.
    ``-(x / s)`` has the bits of ``(-1.0 * x) / s``: negation is exact and
    division rounds symmetrically.
    """
    if base.kind == LOGISTIC and order == 0:
        if arg[0] < 0.0:
            tail = np.exp(arg, arg)
            np.log1p(tail, tail)
        else:
            tail = np.negative(arg)
            np.exp(tail, tail)
            np.log1p(tail, tail)
            tail += arg
    else:
        tail = _base(base, arg, order)
    tail /= base.slope_at_zero
    return np.negative(tail, tail) if order == 1 else tail


def _lc_at(spec: LinearCoreSpec, u, order: int, knot: str | None = None):
    """The checked edge of the surrogate kernel: one validation, then ``_lc``."""
    arr, scalar = _as_array(u)
    return _maybe_scalar(_lc(spec, arr, order, knot), scalar)


def lc_value(spec: LinearCoreSpec, u):
    """Evaluate the linear-core surrogate at ``u``.

    Knots |u| == tau are evaluated from the affine core; the tail branches
    take the same value there, but the core avoids exponential calls.
    """
    return _lc_at(spec, u, 0)


def _accepted_float(spec: LinearCoreSpec, u) -> bool:
    """Whether ``u`` is a float the array path evaluates without raising.

    That is a finite ``u`` that the input guard of its base accepts.
    """
    return (
        isinstance(u, float)
        and math.isfinite(u)
        and (spec.base.kind == LOGISTIC or abs(u) <= _input_limit(spec.base))
    )


def lc_derivative(spec: LinearCoreSpec, u):
    """Evaluate the first derivative of the surrogate at ``u``.

    Equals -1 on the core (and for every u <= tau in the one-sided case);
    continuous across the knots.  A float skips the array set-up: the core
    returns -1.0 at once, and a tail runs ``_lc``'s tail expression on its
    one argument, so both give the array path's bits.  Any other input
    takes the array path and its errors.
    """
    if not _accepted_float(spec, u):
        return _lc_at(spec, u, 1)
    tau = spec.tau
    if u > tau:
        arg = tau - u
    elif spec.side == SYMMETRIC and u < -tau:
        arg = -tau - u
    else:
        return -1.0
    return float(-1.0 * _base(spec.base, np.array([arg]), 1)[0] / spec.base.slope_at_zero)


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
    """A named scalar margin loss: one kernel behind a checked value and derivative.

    The consistency computations only need these pieces, so both
    linear-core surrogates and the plain decreasing base losses fit this
    one shape.  ``kernel(arr, order)`` is the loss (``order`` 0) or its
    derivative (1) of a finite float64 array: it checks nothing but the
    exponential input guard, so callers that make their own finite points
    (the minimizer's probes) call it directly.  ``value`` and
    ``derivative`` are its checked wrappers: a non-finite input raises
    ``DomainError``, and a scalar gives a ``float``.
    ``bracket_halfwidth`` seeds the minimizer's search interval.
    """

    name: str
    kernel: Callable[[np.ndarray, int], np.ndarray]
    bracket_halfwidth: float = 10.0

    def value(self, u):
        arr, scalar = _as_array(u)
        return _maybe_scalar(self.kernel(arr, 0), scalar)

    def derivative(self, u):
        arr, scalar = _as_array(u)
        return _maybe_scalar(self.kernel(arr, 1), scalar)


def linear_core_margin_loss(spec: LinearCoreSpec, name: str | None = None) -> MarginLoss:
    """Wrap a linear-core spec as a :class:`MarginLoss` whose kernel is ``_lc``."""
    if name is None:
        prefix = "lc" if spec.side == SYMMETRIC else "lc_one_sided"
        name = f"{prefix}_{spec.base.kind}"
    return MarginLoss(name=name, kernel=partial(_lc, spec), bracket_halfwidth=2.0 * spec.tau + 8.0)


def _flipped_base(base: BaseLoss, arr: np.ndarray, order: int) -> np.ndarray:
    """``Phi(-u)`` (``order`` 0) or its derivative ``-Phi'(-u)`` (1): ``_base`` sign-flipped."""
    out = _base(base, np.negative(arr), order)
    return np.negative(out) if order == 1 else out


def plain_margin_loss(base: BaseLoss, name: str | None = None) -> MarginLoss:
    """The decreasing margin loss u -> Phi(-u) for a base Phi.

    These are the ``logistic`` / ``exponential`` baselines in rate plots.
    """
    return MarginLoss(
        name=name if name is not None else base.kind,
        kernel=partial(_flipped_base, base),
        bracket_halfwidth=10.0,
    )
