"""Estimation-error transformations and convergence-rate experiments.

For a margin loss ``phi`` and target excess ``t`` in [0, 1], the
transformation

    T(t) = phi(0) - inf_u [ (1-t)/2 * phi(-u) + (1+t)/2 * phi(u) ]

maps target regret to the minimal surrogate regret among sign-wrong
hypotheses.  Losses with an affine core of slope -1 through the origin obey
the linear lower bound ``T(t) >= tau * t`` (width-``tau`` core); plain
logistic/exponential margin losses only reach the square-root regime
``T(t) ~ t^2/2``.  The biased-coin construction turns the same quantities
into (excess surrogate, excess target) rate curves whose log-log slope
separates the two regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, EvaluationOverflowError
from .losses import (
    BaseLoss,
    LinearCoreSpec,
    MarginLoss,
    linear_core_margin_loss,
    plain_margin_loss,
)
from .minimize import MinimizeResult, minimize_convex


@dataclass(frozen=True)
class RatePoint:
    """One biased-coin sample: margin and the two excess errors."""

    loss_name: str
    delta: float
    excess_surrogate: float
    excess_target: float


@dataclass(frozen=True)
class TauSlope:
    tau: float
    slope: float


def conditional_objective(loss: MarginLoss, t: float, u):
    """Evaluate (1-t)/2 * phi(-u) + (1+t)/2 * phi(u)."""
    if not np.isfinite(t) or not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    scalar = np.ndim(u) == 0
    w_neg = 0.5 * (1.0 - t)
    w_pos = 0.5 * (1.0 + t)
    out = w_pos * np.asarray(loss.value(u_arr), dtype=np.float64)
    if w_neg > 0.0:
        out = out + w_neg * np.asarray(loss.value(-u_arr), dtype=np.float64)
    return float(out[0]) if scalar else out


def weighted_margin_infimum(loss: MarginLoss, w_pos, w_neg) -> MinimizeResult:
    """Minimize ``w_pos*phi(u) + w_neg*phi(-u)`` over the whole real line.

    Vectorized over weight pairs.  An evaluation gathers both sides' points,
    ``u`` where ``w_pos > 0`` and ``-u`` where ``w_neg > 0``, makes one
    ``loss.kernel`` call on them, weighs the result and adds the two sides.
    A side with weight zero is left out, so an exponential tail with weight
    exactly zero cannot overflow.  An edge value that overflows to ``+inf``
    is an uphill value like any other; an infimum that is not finite raises
    :class:`~lincore.errors.EvaluationOverflowError`.
    """
    w_pos = np.atleast_1d(np.asarray(w_pos, dtype=np.float64))
    w_neg = np.atleast_1d(np.asarray(w_neg, dtype=np.float64))
    w_pos, w_neg = (arr.copy() for arr in np.broadcast_arrays(w_pos, w_neg))
    if not (np.all(np.isfinite(w_pos)) and np.all(np.isfinite(w_neg))):
        raise DomainError("pair weights must be finite")
    if np.any(w_pos < 0.0) or np.any(w_neg < 0.0):
        raise DomainError("pair weights must be non-negative")
    if np.any(w_pos + w_neg <= 0.0):
        raise DomainError("pair weights must not both vanish")
    pos, neg = np.flatnonzero(w_pos > 0.0), np.flatnonzero(w_neg > 0.0)
    at = np.concatenate([pos, neg])
    flip = np.concatenate([np.ones(pos.size), np.full(neg.size, -1.0)])
    # ``terms`` holds the weighted kernel values, then +0.0 standing in for a
    # missing positive side and -0.0 for a missing negative side.  A problem
    # adds its two entries: ``0.0 + w_neg*phi(-u)`` and ``w_pos*phi(u) + -0.0``
    # keep the bits of a zero start plus each present side, signed zeros too.
    terms = np.zeros(at.size + 2)
    terms[-1] = -0.0
    head = terms[: at.size]
    first = np.full(w_pos.shape, at.size)
    first[pos] = np.arange(pos.size)
    second = np.full(w_pos.shape, at.size + 1)
    second[neg] = np.arange(pos.size, at.size)

    def weighted(order: int, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
        np.multiply(loss.kernel(u[at] * flip, order), weights, out=head)
        return terms[first] + terms[second]

    g = partial(weighted, 0, np.concatenate([w_pos[pos], w_neg[neg]]))
    g_prime = partial(weighted, 1, np.concatenate([w_pos[pos], -w_neg[neg]]))
    lo = np.full(w_pos.shape, -loss.bracket_halfwidth)
    hi = np.full(w_pos.shape, loss.bracket_halfwidth)
    with np.errstate(over="ignore"):
        result = minimize_convex(g, g_prime, lo, hi)
    bad = np.flatnonzero(~np.isfinite(result.value))
    if bad.size:
        raise EvaluationOverflowError(
            f"weighted margin infimum is not finite for problem indices {bad[:8].tolist()}"
        )
    return result


def transformation_T(loss: MarginLoss, t):
    """Evaluate the transformation T at ``t`` (scalar or array in [0, 1])."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    scalar = np.ndim(t) == 0
    if not np.all(np.isfinite(t_arr)) or np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise DomainError("t must lie in [0, 1]")
    result = weighted_margin_infimum(loss, 0.5 * (1.0 + t_arr), 0.5 * (1.0 - t_arr))
    out = loss.value(0.0) - result.value
    return float(out[0]) if scalar else out


def restricted_pair_infimum(base: BaseLoss, a: float, b: float) -> tuple[float, float]:
    """Closed form of ``inf_{u in [-1,1]} a*phi(-u) + b*phi(u)``.

    For any linear-core surrogate built on ``base`` (either smoothing side,
    tau = 1) the interval [-1, 1] lies in the affine core, so the objective
    is affine there and the infimum is

        (a + b) * Phi(0)/Phi'(0) + 2*min(a, b)

    attained at u = -1 when a > b and at u = +1 otherwise (ties break to +1).
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0.0 or b < 0.0:
        raise DomainError("weights must be finite and non-negative")
    if a + b <= 0.0:
        raise DomainError("weights must not both vanish")
    c0 = base.value_at_zero / base.slope_at_zero
    value = (a + b) * c0 + 2.0 * min(a, b)
    minimizer = -1.0 if a > b else 1.0
    return float(value), minimizer


def biased_coin_curve(loss: MarginLoss, delta_grid) -> list[RatePoint]:
    """Exact excess-error pairs for label probability 1/2 + delta.

    The sign-wrong prediction carries target regret 2*delta; the minimal
    surrogate excess over sign-wrong hypotheses is T(2*delta) because the
    transformation is tight for this two-point construction.
    """
    deltas = np.atleast_1d(np.asarray(delta_grid, dtype=np.float64))
    if not np.all(np.isfinite(deltas)) or np.any(deltas <= 0.0) or np.any(deltas >= 0.5):
        raise DomainError("deltas must lie strictly inside (0, 1/2)")
    excess_target = 2.0 * deltas
    excess_surrogate = transformation_T(loss, excess_target)
    return [
        RatePoint(
            loss_name=loss.name,
            delta=float(d),
            excess_surrogate=float(s),
            excess_target=float(r),
        )
        for d, s, r in zip(deltas, excess_surrogate, excess_target)
    ]


def fit_loglog_slope(points: list[RatePoint]) -> float:
    """Least-squares slope of log(excess_target) against log(excess_surrogate)."""
    if len(points) < 5:
        raise DomainError(f"need at least 5 rate points, got {len(points)}")
    surr = np.array([p.excess_surrogate for p in points])
    targ = np.array([p.excess_target for p in points])
    if np.any(surr <= 0.0) or np.any(targ <= 0.0):
        raise DomainError("rate points must have strictly positive excesses")
    slope, _ = np.polyfit(np.log(surr), np.log(targ), 1)
    return float(slope)


def tau_sweep(base: BaseLoss, taus, delta_grid) -> list[TauSlope]:
    """Log-log rate slope of the symmetric width-``tau`` surrogate per tau."""
    rows = []
    for tau in taus:
        spec = LinearCoreSpec(base, tau=float(tau))
        loss = linear_core_margin_loss(spec)
        slope = fit_loglog_slope(biased_coin_curve(loss, delta_grid))
        rows.append(TauSlope(tau=float(tau), slope=slope))
    return rows


def transformation_min_slack(loss: MarginLoss, t_grid, scale: float) -> float:
    """Smallest value of ``T(t) - scale * t`` over the grid.

    Non-negative (up to solver tolerance) exactly when the linear lower
    bound with the given scale holds on the grid.
    """
    ts = np.asarray(t_grid, dtype=np.float64)
    values = transformation_T(loss, ts)
    return float(np.min(values - scale * ts))


def rate_losses() -> list[MarginLoss]:
    """The four losses of the rate experiment, in output order."""
    return [
        linear_core_margin_loss(LinearCoreSpec(BaseLoss.logistic()), name="lc_logistic"),
        linear_core_margin_loss(LinearCoreSpec(BaseLoss.exponential()), name="lc_exponential"),
        plain_margin_loss(BaseLoss.logistic()),
        plain_margin_loss(BaseLoss.exponential()),
    ]
