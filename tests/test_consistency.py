"""Transformation numerics, closed-form oracles, and rate-curve fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import (
    BaseLoss,
    DomainError,
    LinearCoreSpec,
    ONE_SIDED,
    RatePoint,
    SYMMETRIC,
    biased_coin_curve,
    conditional_objective,
    fit_loglog_slope,
    linear_core_margin_loss,
    plain_margin_loss,
    restricted_pair_infimum,
    tau_sweep,
    transformation_T,
    transformation_min_slack,
    weighted_margin_infimum,
)
from lincore.consistency import rate_losses

EXP_LC = linear_core_margin_loss(LinearCoreSpec(BaseLoss.exponential()))
LOG_LC = linear_core_margin_loss(LinearCoreSpec(BaseLoss.logistic()))


def plain_logistic_transformation(t):
    """Entropy-style closed form for the plain logistic margin loss."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = 0.5 * (1 + tp) * np.log1p(tp) + 0.5 * (1 - tp) * np.log1p(-tp)
    return out


class TestConditionalObjective:
    def test_endpoint_weights(self):
        assert conditional_objective(EXP_LC, 0.0, 0.0) == pytest.approx(2.0)
        assert conditional_objective(EXP_LC, 1.0, 0.0) == pytest.approx(2.0)

    def test_mixed_weights_on_the_core(self):
        expected = 0.25 * (2 + 2 * math.log(2)) + 0.75 * (2 * math.log(2))
        assert conditional_objective(LOG_LC, 0.5, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_weight_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            conditional_objective(EXP_LC, 1.5, 0.0)
        with pytest.raises(DomainError):
            conditional_objective(EXP_LC, -0.1, 0.0)


class TestTransformation:
    def test_zero_at_zero(self):
        assert transformation_T(EXP_LC, 0.0) <= 1e-12

    def test_exponential_analytic_form(self):
        ts = np.linspace(0.0, 1.0, 201)
        expected = 1.0 + ts - np.sqrt(1.0 - ts**2)
        np.testing.assert_allclose(transformation_T(EXP_LC, ts), expected, atol=1e-10)
        assert transformation_T(EXP_LC, 0.6) == pytest.approx(0.8, abs=1e-10)

    def test_plain_logistic_matches_entropy_form(self):
        loss = plain_margin_loss(BaseLoss.logistic())
        ts = np.linspace(0.0, 0.999, 120)
        np.testing.assert_allclose(
            transformation_T(loss, ts), plain_logistic_transformation(ts), atol=1e-9
        )
        assert transformation_T(loss, 0.6) == pytest.approx(0.19274475702175753, abs=1e-9)

    def test_monotone_in_target_excess(self):
        ts = np.linspace(0.0, 1.0, 200)
        for loss in rate_losses():
            values = transformation_T(loss, ts)
            assert np.all(np.diff(values) >= -1e-10)

    @pytest.mark.parametrize("side", [SYMMETRIC, ONE_SIDED])
    @pytest.mark.parametrize("kind", ["logistic", "exponential", "quartic_linear"])
    def test_linear_lower_bound_unit_core(self, kind, side):
        loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss(kind), side=side))
        ts = np.linspace(0.0, 1.0, 200)
        assert transformation_min_slack(loss, ts, 1.0) >= -1e-8
        assert transformation_T(loss, 0.0) <= 1e-9

    def test_scaled_core_lower_bound(self):
        """A width-tau core guarantees T(t) >= tau * t."""
        ts = np.linspace(0.0, 1.0, 100)
        for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
            loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss.logistic(), tau=tau))
            assert transformation_min_slack(loss, ts, tau) >= -1e-8

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            transformation_T(EXP_LC, 1.2)
        with pytest.raises(DomainError):
            transformation_T(EXP_LC, np.array([0.1, float("nan")]))


class TestRestrictedPairInfimum:
    def test_paper_style_examples(self):
        value, minimizer = restricted_pair_infimum(BaseLoss.exponential(), 0.7, 0.3)
        assert value == pytest.approx(1.6, abs=1e-15)
        assert minimizer == -1.0
        value, minimizer = restricted_pair_infimum(BaseLoss.logistic(), 0.5, 0.5)
        assert value == pytest.approx(2 * math.log(2) + 1.0, abs=1e-14)
        assert minimizer == 1.0  # ties break toward +1
        for base in (BaseLoss.logistic(), BaseLoss.exponential(), BaseLoss.quartic_linear()):
            value, minimizer = restricted_pair_infimum(base, 1.0, 0.0)
            assert value == pytest.approx(base.value_at_zero / base.slope_at_zero, abs=1e-14)
            assert minimizer == -1.0

    def test_rejects_negative_or_empty_weights(self):
        with pytest.raises(DomainError):
            restricted_pair_infimum(BaseLoss.logistic(), -0.1, 0.5)
        with pytest.raises(DomainError):
            restricted_pair_infimum(BaseLoss.logistic(), 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["logistic", "exponential", "quartic_linear"])
    @pytest.mark.parametrize("side", [SYMMETRIC, ONE_SIDED])
    def test_matches_numeric_restricted_minimization(self, kind, side):
        """Closed form equals golden-section on [-1, 1] for random weights."""
        from lincore.minimize import minimize_convex

        base = BaseLoss(kind)
        loss = linear_core_margin_loss(LinearCoreSpec(base, side=side))
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 3, size=500)
        b = rng.uniform(0, 3, size=500)
        keep = a + b > 1e-12
        a, b = a[keep], b[keep]

        def g(u):
            return a * np.asarray(loss.value(-u)) + b * np.asarray(loss.value(u))

        def gp(u):
            return -a * np.asarray(loss.derivative(-u)) + b * np.asarray(loss.derivative(u))

        numeric = minimize_convex(g, gp, np.full(a.shape, -1.0), np.full(a.shape, 1.0), expand=False)
        closed = np.array([restricted_pair_infimum(base, ai, bi)[0] for ai, bi in zip(a, b)])
        np.testing.assert_allclose(numeric.value, closed, atol=1e-9)


class TestBiasedCoin:
    def test_exponential_small_margin_point(self):
        [point] = biased_coin_curve(EXP_LC, [0.01])
        assert point.excess_target == pytest.approx(0.02)
        assert point.excess_surrogate == pytest.approx(1.02 - math.sqrt(1 - 0.0004), abs=1e-12)

    def test_plain_logistic_small_margin_point(self):
        loss = plain_margin_loss(BaseLoss.logistic())
        [point] = biased_coin_curve(loss, [0.01])
        assert point.excess_surrogate == pytest.approx(0.0002000, abs=2e-7)

    def test_excesses_vanish_together(self):
        deltas = np.logspace(-6, -3, 6)
        for loss in (EXP_LC, LOG_LC):
            points = biased_coin_curve(loss, deltas)
            assert points[0].excess_surrogate < 1e-5
            assert all(p.excess_surrogate >= 0 for p in points)

    def test_margin_domain(self):
        with pytest.raises(DomainError):
            biased_coin_curve(EXP_LC, [0.5])
        with pytest.raises(DomainError):
            biased_coin_curve(EXP_LC, [0.0])


class TestSlopeFit:
    def test_exact_lines(self):
        deltas = np.logspace(-3, -1, 9)
        identity = [RatePoint("x", d, 2 * d, 2 * d) for d in deltas]
        assert fit_loglog_slope(identity) == pytest.approx(1.0, abs=1e-12)
        sqrt_line = [RatePoint("x", d, (2 * d) ** 2, 2 * d) for d in deltas]
        assert fit_loglog_slope(sqrt_line) == pytest.approx(0.5, abs=1e-12)

    def test_lc_logistic_slope_near_one(self):
        deltas = np.logspace(-4, -1, 25)
        slope = fit_loglog_slope(biased_coin_curve(LOG_LC, deltas))
        assert 0.95 <= slope <= 1.05

    def test_validation(self):
        deltas = np.logspace(-3, -1, 4)
        with pytest.raises(DomainError):
            fit_loglog_slope(biased_coin_curve(LOG_LC, deltas))
        with pytest.raises(DomainError):
            fit_loglog_slope([RatePoint("x", d, 0.0, 2 * d) for d in np.logspace(-3, -1, 6)])


class TestTauSweep:
    def test_robust_widths_keep_unit_slope(self):
        grid = np.logspace(-4, -2, 25)
        rows = tau_sweep(BaseLoss.logistic(), [0.1, 0.5, 1.0, 2.0, 5.0], grid)
        for row in rows:
            assert 0.95 <= row.slope <= 1.05, f"tau={row.tau}: slope {row.slope}"

    def test_vanishing_width_reverts_to_square_root(self):
        grid = np.logspace(-3, -1, 25)
        [row] = tau_sweep(BaseLoss.logistic(), [1e-5], grid)
        assert 0.45 <= row.slope <= 0.6

    def test_transformation_zero_for_every_width(self):
        for tau in (0.1, 1.0, 5.0):
            loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss.logistic(), tau=tau))
            assert transformation_T(loss, 0.0) <= 1e-9


class TestPairInfimumOverReals:
    def test_exponential_closed_form(self):
        """Global pair infimum for the symmetric exponential surrogate."""
        rng = np.random.default_rng(7)
        a = rng.uniform(0.05, 2.0, size=300)
        b = rng.uniform(0.05, 2.0, size=300)
        result = weighted_margin_infimum(EXP_LC, a, b)
        expected = 2 * np.sqrt(a * b) + 2 * np.minimum(a, b)
        np.testing.assert_allclose(result.value, expected, atol=1e-9)

    def test_rejects_negative_weights(self):
        with pytest.raises(DomainError):
            weighted_margin_infimum(EXP_LC, np.array([-1.0]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        """A NaN weight used to give value 1.08e-30 with at_edge set."""
        with pytest.raises(DomainError):
            weighted_margin_infimum(EXP_LC, np.array([bad]), np.array([0.5]))
        with pytest.raises(DomainError):
            weighted_margin_infimum(EXP_LC, np.array([0.5, 0.5]), np.array([0.5, bad]))


def test_rate_loss_names():
    assert [loss.name for loss in rate_losses()] == [
        "lc_logistic",
        "lc_exponential",
        "logistic",
        "exponential",
    ]


@given(t=st.floats(0.0, 1.0), kind=st.sampled_from(["logistic", "exponential"]))
@settings(max_examples=120, deadline=None)
def test_transformation_dominates_identity(t, kind):
    loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss(kind)))
    assert transformation_T(loss, t) >= t - 1e-8


def test_transformation_matches_independent_optimizer():
    """Cross-check the bracketed minimizer against scipy's scalar optimizer."""
    from scipy.optimize import minimize_scalar

    losses = rate_losses() + [
        linear_core_margin_loss(LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)),
        linear_core_margin_loss(LinearCoreSpec(BaseLoss.quartic_linear())),
    ]
    for loss in losses:
        for t in (0.05, 0.3, 0.62, 0.9):
            result = minimize_scalar(
                lambda u: 0.5 * (1 - t) * float(np.asarray(loss.value(np.array([-u])))[0])
                + 0.5 * (1 + t) * float(np.asarray(loss.value(np.array([u])))[0]),
                bounds=(-60.0, 60.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            reference = float(np.asarray(loss.value(np.zeros(1)))[0]) - result.fun
            assert transformation_T(loss, t) == pytest.approx(reference, abs=1e-8)
