"""Bracketed golden-section minimization of batched convex 1-D objectives.

The consistency computations repeatedly minimize objectives of the form
``g(u) = A*phi(-u) + B*phi(u)`` for many independent weight pairs at once.
``minimize_convex`` therefore operates on a whole batch: the objective and
its derivative map an array of points (one per problem) to an array of
values, and all problems share the iteration schedule while keeping their
own brackets.

Bracketing rule: starting from the caller's interval, each side doubles in
width while the derivative at that end still points downhill.  Convexity
then guarantees the minimizer lies inside.  Objectives whose infimum is not
attained (exponential tails decaying to an asymptote) stop expanding once a
doubling lowers the edge value by less than ``stall_tol``; the edge value is
then reported as the asymptotic infimum.  A bracket wider than ``max_width``
with neither condition met raises :class:`~lincore.errors.BracketSearchError`
with the offending problem indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketSearchError, DomainError

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0  # 0.618...

Objective = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MinimizeResult:
    """Per-problem argmin/minimum plus which infima are edge asymptotes."""

    argmin: np.ndarray
    value: np.ndarray
    at_edge: np.ndarray


def minimize_convex(
    value: Objective,
    derivative: Objective,
    lo,
    hi,
    *,
    expand: bool = True,
    n_iter: int = 120,
    stall_tol: float = 1e-12,
    max_width: float = 1e6,
    max_doublings: int = 64,
) -> MinimizeResult:
    """Minimize a batch of convex scalar objectives to ~1e-10 value accuracy.

    ``lo``/``hi`` give the initial bracket per problem (broadcastable).
    With ``expand=False`` the interval is treated as hard bounds, which is
    how restricted-interval infima are computed.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    lo, hi = (arr.copy() for arr in np.broadcast_arrays(lo, hi))
    if np.any(hi <= lo):
        raise DomainError("need lo < hi for every problem")

    f_lo = value(lo)
    f_hi = value(hi)
    best_val = np.minimum(f_lo, f_hi)
    best_arg = np.where(f_lo <= f_hi, lo, hi)
    at_edge = np.zeros(lo.shape, dtype=bool)

    if expand:
        grow_left = derivative(lo) > 0.0
        grow_right = derivative(hi) < 0.0
        for _ in range(max_doublings):
            if not (np.any(grow_left) or np.any(grow_right)):
                break
            width = hi - lo
            if np.any((width > max_width) & (grow_left | grow_right)):
                bad = np.nonzero((width > max_width) & (grow_left | grow_right))[0]
                raise BracketSearchError(
                    f"bracket width exceeded {max_width:g} before the derivative "
                    f"changed sign for problem indices {bad[:8].tolist()}"
                )
            if np.any(grow_left):
                new_lo = np.where(grow_left, lo - width, lo)
                f_new = value(new_lo)
                downhill = derivative(new_lo) > 0.0
                stalled = grow_left & downhill & (f_lo - f_new < stall_tol)
                at_edge |= stalled
                improved = f_new < best_val
                best_arg = np.where(improved, new_lo, best_arg)
                best_val = np.minimum(best_val, f_new)
                lo, f_lo = new_lo, f_new
                grow_left &= ~stalled & downhill
            if np.any(grow_right):
                new_hi = np.where(grow_right, hi + width, hi)
                f_new = value(new_hi)
                downhill = derivative(new_hi) < 0.0
                stalled = grow_right & downhill & (f_hi - f_new < stall_tol)
                at_edge |= stalled
                improved = f_new < best_val
                best_arg = np.where(improved, new_hi, best_arg)
                best_val = np.minimum(best_val, f_new)
                hi, f_hi = new_hi, f_new
                grow_right &= ~stalled & downhill
        else:
            bad = np.nonzero(grow_left | grow_right)[0]
            if bad.size:
                raise BracketSearchError(
                    f"bracket failed to close after {max_doublings} doublings "
                    f"for problem indices {bad[:8].tolist()}"
                )

    # Golden-section contraction.  Each iteration evaluates one new point
    # per problem and keeps the sub-interval containing the smaller value.
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = value(x1)
    f2 = value(x2)
    for _ in range(n_iter):
        take_left = f1 <= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
        x1_new = np.where(take_left, hi - _INV_GOLDEN * (hi - lo), x2)
        x2_new = np.where(take_left, x1, lo + _INV_GOLDEN * (hi - lo))
        f1_keep = np.where(take_left, f1, f2)
        probe = np.where(take_left, x1_new, x2_new)
        f_probe = value(probe)
        f1 = np.where(take_left, f_probe, f1_keep)
        f2 = np.where(take_left, f1_keep, f_probe)
        x1, x2 = x1_new, x2_new
        improved = f_probe < best_val
        best_arg = np.where(improved, probe, best_arg)
        best_val = np.minimum(best_val, f_probe)

    return MinimizeResult(argmin=best_arg, value=best_val, at_edge=at_edge)
