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
doubling lowers the edge value by less than ``_STALL_TOL``; the edge value
is then reported as the asymptotic infimum.  A bracket wider than
``_MAX_WIDTH``, or still open after ``_MAX_DOUBLINGS`` doublings, with
neither condition met raises :class:`~lincore.errors.BracketSearchError`
with the offending problem indices.

The golden-section contraction then runs at most ``_N_ITER`` steps.  It
stops once its state ``(lo, hi, x1, x2, f1, f2)`` equals (``==``, so never
under NaN) the state two steps back.  That stop is exact for a pure
``value``: the state cycles with period 2 from there, re-probing only points
already evaluated, and the best point moves only on a strict ``<``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketSearchError, DomainError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618..., a Python float: cheaper to broadcast

# Golden-section iterations, and the bracket search's stall tolerance,
# width cap and doubling cap.
_N_ITER = 120
_STALL_TOL = 1e-12
_MAX_WIDTH = 1e6
_MAX_DOUBLINGS = 64

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
        # Per side, left then right: the edge, its value, and where it still
        # grows.  ``sign`` is the direction the edge moves; the edge is
        # downhill while ``sign * derivative < 0``.
        edges, f_edges = [lo, hi], [f_lo, f_hi]
        grow = [derivative(lo) > 0.0, derivative(hi) < 0.0]
        for _ in range(_MAX_DOUBLINGS):
            if not (np.any(grow[0]) or np.any(grow[1])):
                break
            width = edges[1] - edges[0]
            if np.any((width > _MAX_WIDTH) & (grow[0] | grow[1])):
                bad = np.nonzero((width > _MAX_WIDTH) & (grow[0] | grow[1]))[0]
                raise BracketSearchError(
                    f"bracket width exceeded {_MAX_WIDTH:g} before the derivative "
                    f"changed sign for problem indices {bad[:8].tolist()}"
                )
            for side, sign in enumerate((-1.0, 1.0)):
                if not np.any(grow[side]):
                    continue
                new_edge = np.where(grow[side], edges[side] + sign * width, edges[side])
                f_new = value(new_edge)
                downhill = sign * derivative(new_edge) < 0.0
                stalled = grow[side] & downhill & (f_edges[side] - f_new < _STALL_TOL)
                at_edge |= stalled
                improved = f_new < best_val
                best_arg = np.where(improved, new_edge, best_arg)
                best_val = np.minimum(best_val, f_new)
                edges[side], f_edges[side] = new_edge, f_new
                grow[side] &= ~stalled & downhill
        else:
            bad = np.nonzero(grow[0] | grow[1])[0]
            if bad.size:
                raise BracketSearchError(
                    f"bracket failed to close after {_MAX_DOUBLINGS} doublings "
                    f"for problem indices {bad[:8].tolist()}"
                )
        lo, hi = edges

    # Golden-section contraction.  Each iteration evaluates one new point
    # per problem and keeps the sub-interval containing the smaller value,
    # until the state repeats the one two steps back (see above).
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = value(x1)
    f2 = value(x2)
    older, newer = None, (lo, hi, x1, x2, f1, f2)
    for _ in range(_N_ITER):
        take_left = f1 <= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
        step = _INV_GOLDEN * (hi - lo)
        probe = np.where(take_left, hi - step, lo + step)
        x1, x2 = np.where(take_left, probe, x2), np.where(take_left, x1, probe)
        f_probe = value(probe)
        f1, f2 = np.where(take_left, f_probe, f2), np.where(take_left, f1, f_probe)
        improved = f_probe < best_val
        best_arg = np.where(improved, probe, best_arg)
        best_val = np.minimum(best_val, f_probe)
        state = (lo, hi, x1, x2, f1, f2)
        if older is not None and all((a == b).all() for a, b in zip(state, older)):
            break
        older, newer = newer, state

    return MinimizeResult(argmin=best_arg, value=best_val, at_edge=at_edge)
