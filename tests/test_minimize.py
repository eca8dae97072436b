"""Batched golden-section minimizer: brackets, stalls, and accuracy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincore.minimize
from lincore import (
    BaseLoss,
    BracketSearchError,
    DomainError,
    EvaluationOverflowError,
    LincoreError,
    LinearCoreSpec,
    linear_core_margin_loss,
    plain_margin_loss,
    weighted_margin_infimum,
)
from lincore.minimize import minimize_convex


class TestQuadratics:
    def test_batch_of_shifted_parabolas(self):
        centers = np.linspace(-3, 7, 40)

        def f(u):
            return (u - centers) ** 2 + 1.0

        def fp(u):
            return 2 * (u - centers)

        res = minimize_convex(f, fp, np.full(40, -1.0), np.full(40, 1.0))
        np.testing.assert_allclose(res.argmin, centers, atol=1e-8)
        np.testing.assert_allclose(res.value, 1.0, atol=1e-12)
        assert not res.at_edge.any()

    def test_value_accuracy_beats_1e10(self):
        def f(u):
            return np.cosh(u - 0.7)

        def fp(u):
            return np.sinh(u - 0.7)

        res = minimize_convex(f, fp, np.array([-10.0]), np.array([10.0]))
        assert abs(res.value[0] - 1.0) < 1e-10

    def test_hard_bounds_mode_stays_inside(self):
        """expand=False treats the interval as a constraint."""

        def f(u):
            return (u - 5.0) ** 2

        def fp(u):
            return 2 * (u - 5.0)

        res = minimize_convex(f, fp, np.array([-1.0]), np.array([1.0]), expand=False)
        assert res.argmin[0] == pytest.approx(1.0, abs=1e-8)
        assert res.value[0] == pytest.approx(16.0, abs=1e-7)


class TestAsymptotes:
    def test_decaying_exponential_reports_edge_infimum(self):
        """Objectives whose infimum is a tail asymptote stall and return it."""

        def f(u):
            return np.exp(-u)

        def fp(u):
            return -np.exp(-u)

        res = minimize_convex(f, fp, np.array([-1.0]), np.array([1.0]))
        assert res.at_edge[0]
        assert res.value[0] < 1e-12

    def test_mixed_batch_edge_and_interior(self):
        which = np.array([0.0, 1.0])  # 0: asymptote, 1: interior minimum

        def f(u):
            return np.where(which == 0, np.exp(-u), (u - 2.0) ** 2)

        def fp(u):
            return np.where(which == 0, -np.exp(-u), 2 * (u - 2.0))

        res = minimize_convex(f, fp, np.full(2, -1.0), np.full(2, 1.0))
        assert res.at_edge[0] and not res.at_edge[1]
        assert res.value[0] < 1e-12
        assert res.argmin[1] == pytest.approx(2.0, abs=1e-8)

    def test_linear_objective_hits_width_cap(self, monkeypatch):
        """A function decreasing forever at a constant rate cannot bracket."""
        monkeypatch.setattr(lincore.minimize, "_MAX_WIDTH", 1e4)

        def f(u):
            return -u

        def fp(u):
            return np.full_like(u, -1.0)

        with pytest.raises(BracketSearchError):
            minimize_convex(f, fp, np.array([-1.0]), np.array([1.0]))


def test_flat_core_objective():
    """A flat bottom (affine core summed both ways) still minimizes exactly."""

    def f(u):
        return np.maximum(np.abs(u) - 1.0, 0.0) + 2.0

    def fp(u):
        return np.sign(u) * (np.abs(u) > 1.0)

    res = minimize_convex(f, fp, np.array([-9.0]), np.array([9.0]))
    assert res.value[0] == pytest.approx(2.0, abs=1e-12)
    assert abs(res.argmin[0]) <= 1.0 + 1e-6


def test_empty_bracket_raises_domain_error():
    with pytest.raises(DomainError, match="lo < hi"):
        minimize_convex(np.abs, np.sign, np.array([1.0, 0.0]), np.array([2.0, 0.0]))


# ----------------------------------------------------------------------
# Bitwise oracle: the contraction's early stop and one-call objective keep
# every output bit of the plain 120-step loop with a two-call objective.
# ----------------------------------------------------------------------

_REF_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _reference_minimize(value, derivative, lo, hi, expand=True, states=None):
    """The minimizer as a plain loop: 64 doublings at most, then all 120 steps.

    Appends the contraction's ``(lo, hi, x1, x2, f1, f2)`` after each step
    (the initial state first) to ``states`` when given.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    lo, hi = (arr.copy() for arr in np.broadcast_arrays(lo, hi))
    if np.any(hi <= lo):
        raise DomainError("need lo < hi for every problem")
    f_lo, f_hi = value(lo), value(hi)
    best_val = np.minimum(f_lo, f_hi)
    best_arg = np.where(f_lo <= f_hi, lo, hi)
    at_edge = np.zeros(lo.shape, dtype=bool)
    if expand:
        edges, f_edges = [lo, hi], [f_lo, f_hi]
        grow = [derivative(lo) > 0.0, derivative(hi) < 0.0]
        for _ in range(64):
            if not (np.any(grow[0]) or np.any(grow[1])):
                break
            width = edges[1] - edges[0]
            if np.any((width > 1e6) & (grow[0] | grow[1])):
                raise BracketSearchError("width")
            for side, sign in enumerate((-1.0, 1.0)):
                if not np.any(grow[side]):
                    continue
                new_edge = np.where(grow[side], edges[side] + sign * width, edges[side])
                f_new = value(new_edge)
                downhill = sign * derivative(new_edge) < 0.0
                stalled = grow[side] & downhill & (f_edges[side] - f_new < 1e-12)
                at_edge |= stalled
                improved = f_new < best_val
                best_arg = np.where(improved, new_edge, best_arg)
                best_val = np.minimum(best_val, f_new)
                edges[side], f_edges[side] = new_edge, f_new
                grow[side] &= ~stalled & downhill
        else:
            if np.any(grow[0] | grow[1]):
                raise BracketSearchError("doublings")
        lo, hi = edges
    x1 = hi - _REF_INV_GOLDEN * (hi - lo)
    x2 = lo + _REF_INV_GOLDEN * (hi - lo)
    f1, f2 = value(x1), value(x2)
    if states is not None:
        states.append((lo, hi, x1, x2, f1, f2))
    for _ in range(120):
        take_left = f1 <= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
        x1_new = np.where(take_left, hi - _REF_INV_GOLDEN * (hi - lo), x2)
        x2_new = np.where(take_left, x1, lo + _REF_INV_GOLDEN * (hi - lo))
        f1_keep = np.where(take_left, f1, f2)
        probe = np.where(take_left, x1_new, x2_new)
        f_probe = value(probe)
        f1 = np.where(take_left, f_probe, f1_keep)
        f2 = np.where(take_left, f1_keep, f_probe)
        x1, x2 = x1_new, x2_new
        improved = f_probe < best_val
        best_arg = np.where(improved, probe, best_arg)
        best_val = np.minimum(best_val, f_probe)
        if states is not None:
            states.append((lo, hi, x1, x2, f1, f2))
    return best_arg, best_val, at_edge


def _reference_infimum(loss, w_pos, w_neg, expand=True):
    """``weighted_margin_infimum`` with one loss call per side and evaluation.

    A weighted value or slope that overflows is ``+-inf``, computed without a
    warning; an infimum that is not finite raises ``EvaluationOverflowError``.
    """
    w_pos, w_neg = np.broadcast_arrays(np.atleast_1d(w_pos), np.atleast_1d(w_neg))
    pos, neg = w_pos > 0.0, w_neg > 0.0

    def g(u):
        out = np.zeros_like(u)
        with np.errstate(over="ignore"):
            if np.any(pos):
                out[pos] = w_pos[pos] * np.asarray(loss.value(u[pos]), dtype=np.float64)
            if np.any(neg):
                out[neg] += w_neg[neg] * np.asarray(loss.value(-u[neg]), dtype=np.float64)
        return out

    def g_prime(u):
        out = np.zeros_like(u)
        with np.errstate(over="ignore"):
            if np.any(pos):
                out[pos] = w_pos[pos] * np.asarray(loss.derivative(u[pos]), dtype=np.float64)
            if np.any(neg):
                out[neg] -= w_neg[neg] * np.asarray(loss.derivative(-u[neg]), dtype=np.float64)
        return out

    half = np.full(w_pos.shape, loss.bracket_halfwidth)
    result = _reference_minimize(g, g_prime, -half, half, expand=expand)
    if not np.isfinite(result[1]).all():
        raise EvaluationOverflowError("the infimum is not finite")
    return g, g_prime, result


def _margin_loss(kind, side, tau):
    base = BaseLoss(kind)
    if side == "plain":
        return plain_margin_loss(base)
    return linear_core_margin_loss(LinearCoreSpec(base, side=side, tau=tau))


# A weight: zero, moderate, or anywhere from 1e-300 to 1e300.
_weights = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300)),
)


@st.composite
def _weight_pairs(draw):
    n = draw(st.integers(1, 12))
    w_pos = np.array(draw(st.lists(_weights, min_size=n, max_size=n)))
    w_neg = np.array(draw(st.lists(_weights, min_size=n, max_size=n)))
    both_zero = (w_pos == 0.0) & (w_neg == 0.0)
    w_pos[both_zero] = 1.0
    return w_pos, w_neg


def _outcome(fn):
    try:
        return fn()
    except LincoreError as err:
        return type(err)


@given(
    weights=_weight_pairs(),
    kind=st.sampled_from(["logistic", "exponential"]),
    side=st.sampled_from(["symmetric", "one_sided", "plain"]),
    tau=st.sampled_from([0.05, 0.5, 1.0, 5.0]),
    expand=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_bitwise_equal_to_the_full_length_two_call_loop(weights, kind, side, tau, expand):
    """Same argmin, value and at_edge bits (or the same error) as the plain loop:
    through ``weighted_margin_infimum`` when expanding, and through
    ``minimize_convex`` on the two-call objective under hard bounds."""
    w_pos, w_neg = weights
    loss = _margin_loss(kind, side, tau)
    g, g_prime, _ = _reference_infimum(loss, w_pos, w_neg, expand=False)
    want = _outcome(lambda: _reference_infimum(loss, w_pos, w_neg, expand)[2])
    if expand:
        got = _outcome(lambda: weighted_margin_infimum(loss, w_pos, w_neg))
    else:
        half = np.full(w_pos.shape, loss.bracket_halfwidth)
        got = _outcome(lambda: minimize_convex(g, g_prime, -half, half, expand=False))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    for have, expect in zip((got.argmin, got.value, got.at_edge), want):
        assert np.array_equal(have, expect)


def _counted(fn):
    def counted(u):
        counted.calls += 1
        return fn(u)

    counted.calls = 0
    return counted


def test_early_stop_fires_where_the_state_repeats_two_steps_back():
    """A standard problem stops at the first step whose state equals the one
    two steps earlier, well before the 120-step cap."""
    g, _, _ = _reference_infimum(_margin_loss("logistic", "symmetric", 1.0), [0.7, 0.2], [0.3, 0.8])
    states = []
    half = np.full(2, 10.0)
    _reference_minimize(g, None, -half, half, expand=False, states=states)
    repeats = [
        k
        for k in range(2, len(states))
        if all(np.array_equal(a, b) for a, b in zip(states[k], states[k - 2]))
    ]
    assert repeats and repeats[0] < 120
    value = _counted(g)
    minimize_convex(value, None, -half, half, expand=False)
    # Two calls for the ends, two for the first golden points, one per step.
    assert value.calls == 4 + repeats[0]


def test_nan_valued_objective_runs_the_full_length():
    """NaN never compares equal, so a NaN objective gets all 120 steps even
    though its bracket shrinks to a fixed point."""
    value = _counted(lambda u: np.full_like(u, np.nan))
    states = []
    _reference_minimize(value, None, np.full(3, -1.0), np.full(3, 1.0), expand=False, states=states)
    assert all(np.array_equal(a, b) for a, b in zip(states[-1][:4], states[-3][:4]))
    value.calls = 0
    result = minimize_convex(value, None, np.full(3, -1.0), np.full(3, 1.0), expand=False)
    assert value.calls == 4 + 120
    assert np.isnan(result.value).all()


@pytest.mark.parametrize(
    "case, error",
    [
        ("linear", BracketSearchError),
        ("exponential_overflow", EvaluationOverflowError),
    ],
)
def test_errors_raised_for_the_same_inputs(case, error):
    if case == "linear":
        run = lambda: minimize_convex(lambda u: -u, lambda u: np.full_like(u, -1.0), [-1.0], [1.0])
        reference = lambda: _reference_minimize(
            lambda u: -u, lambda u: np.full_like(u, -1.0), [-1.0], [1.0]
        )
    else:
        loss = _margin_loss("exponential", "symmetric", 1.0)
        w_pos, w_neg = np.array([1.0, 1e300]), np.array([1.0, 1e-300])
        run = lambda: weighted_margin_infimum(loss, w_pos, w_neg)
        reference = lambda: _reference_infimum(loss, w_pos, w_neg)
    with pytest.raises(error):
        reference()
    with pytest.raises(error):
        run()


def test_an_overflowing_edge_is_uphill_and_the_infimum_exact():
    """Expanding the bracket of ``1e299*phi(u) + 1e256*phi(-u)`` (exponential
    base, tau 5) reaches an edge whose weighted value overflows to +inf.  That
    edge is uphill: no warning, and the infimum is the closed form
    ``2*sqrt(w_pos*w_neg) + 2*tau*w_neg`` at ``tau + ln(w_pos/w_neg)/2``."""
    loss = _margin_loss("exponential", "symmetric", 5.0)
    w_pos, w_neg = 1e299, 1e256
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = weighted_margin_infimum(loss, w_pos, w_neg)
        reference = _reference_infimum(loss, w_pos, w_neg)[2]
    want = 2.0 * np.sqrt(w_pos) * np.sqrt(w_neg) + 10.0 * w_neg
    assert result.value[0] == pytest.approx(want, rel=1e-12)
    assert result.argmin[0] == pytest.approx(5.0 + np.log(w_pos / w_neg) / 2.0, abs=1e-5)
    assert not result.at_edge[0]
    for have, expect in zip((result.argmin, result.value, result.at_edge), reference):
        assert np.array_equal(have, expect)


def test_an_infimum_that_overflows_raises():
    """Weights of 1e300 on a surrogate whose values are near 1e10 overflow at
    every point: ``EvaluationOverflowError``, not an infinite infimum."""
    spec = LinearCoreSpec(BaseLoss.quartic_linear(offset=1e10))
    loss = linear_core_margin_loss(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflowError, match=r"indices \[1\]"):
            weighted_margin_infimum(loss, [1.0, 1e300], [1.0, 1e300])
        with pytest.raises(EvaluationOverflowError):
            _reference_infimum(loss, [1.0, 1e300], [1.0, 1e300])
