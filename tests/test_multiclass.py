"""Multi-class sum losses, softmax baselines, and the regret oracle."""

import math
import warnings

import numpy as np
import pytest

from lincore import (
    BaseLoss,
    DomainError,
    EnumerationLimitError,
    LinearCoreSpec,
    ONE_SIDED,
    SYMMETRIC,
    ce_gradient,
    ce_loss,
    gce_gradient,
    gce_loss,
    lc_derivative,
    mc_conditional_regrets,
    mc_sum_loss,
    mc_sum_loss_gradient,
)

EXP_SYM = LinearCoreSpec(BaseLoss.exponential())
LOG_ONE = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)


def finite_difference(fn, scores, h=1e-6):
    grad = np.zeros_like(scores)
    for i in range(scores.size):
        up, down = scores.copy(), scores.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


class TestSumLoss:
    def test_zero_margins(self):
        assert mc_sum_loss(EXP_SYM, np.zeros(3), 0) == pytest.approx(4.0)

    def test_confident_correct_prediction(self):
        value = mc_sum_loss(EXP_SYM, np.array([2.0, 0.0, 0.0]), 0)
        assert value == pytest.approx(2.0 / math.e, abs=1e-14)

    def test_two_classes_reduce_to_binary_margin_loss(self):
        from lincore import lc_value

        scores = np.array([0.7, -0.4])
        assert mc_sum_loss(EXP_SYM, scores, 0) == pytest.approx(lc_value(EXP_SYM, 1.1))
        assert mc_sum_loss(EXP_SYM, scores, 1) == pytest.approx(lc_value(EXP_SYM, -1.1))

    def test_gradient_closed_form_and_zero_sum(self):
        grad = mc_sum_loss_gradient(EXP_SYM, np.zeros(2), 0)
        np.testing.assert_allclose(grad, [-1.0, 1.0])
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.normal(scale=2, size=4)
            y = int(rng.integers(0, 4))
            grad = mc_sum_loss_gradient(EXP_SYM, scores, y)
            assert abs(grad.sum()) < 1e-12

    @pytest.mark.parametrize("spec", [EXP_SYM, LOG_ONE], ids=["exp-sym", "log-one"])
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(4)
        for _ in range(25):
            scores = rng.normal(scale=1.5, size=4)
            y = int(rng.integers(0, 4))
            grad = mc_sum_loss_gradient(spec, scores, y)
            fd = finite_difference(lambda s: mc_sum_loss(spec, s, y), scores)
            np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_convex_along_random_segments(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            y = int(rng.integers(0, 5))
            mid = mc_sum_loss(EXP_SYM, (a + b) / 2, y)
            chord = 0.5 * (mc_sum_loss(EXP_SYM, a, y) + mc_sum_loss(EXP_SYM, b, y))
            assert mid <= chord + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=5)
        perm = rng.permutation(5)
        inverse = np.argsort(perm)
        for y in range(5):
            direct = mc_sum_loss(EXP_SYM, scores, y)
            permuted = mc_sum_loss(EXP_SYM, scores[inverse], int(perm[y]))
            assert direct == pytest.approx(permuted, abs=1e-12)

    def test_label_validation(self):
        with pytest.raises(DomainError):
            mc_sum_loss(EXP_SYM, np.zeros(3), 3)
        with pytest.raises(DomainError):
            mc_sum_loss(EXP_SYM, np.array([0.0, float("inf")]), 0)

    def test_scores_whose_differences_overflow_are_rejected(self):
        """Finite scores 1e308 and -1e308 are 2e308 apart: each function used
        to overflow inside, warning and then returning infinities or failing
        with a message about its own input."""
        spec = LinearCoreSpec(BaseLoss.quartic_linear())
        scores, p = np.array([1e308, -1e308]), np.array([0.5, 0.5])
        calls = (
            lambda: mc_sum_loss(spec, scores, 0),
            lambda: mc_sum_loss(spec, scores[None], [0]),
            lambda: mc_sum_loss_gradient(spec, scores, 0),
            lambda: mc_sum_loss_gradient(spec, scores[None], [0]),
            lambda: mc_conditional_regrets(spec, p, scores),
            lambda: mc_conditional_regrets(spec, p[None], scores[None]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError, match="finite differences"):
                    call()


class TestConditionalRegrets:
    def test_zero_one_regret_is_probability_gap(self):
        p = np.array([0.5, 0.3, 0.2])
        scores = np.array([0.0, 1.0, 0.0])
        regret_01, _ = mc_conditional_regrets(EXP_SYM, p, scores)
        assert regret_01 == pytest.approx(0.2)

    def test_two_class_pair_minimizer_achieves_zero_regret(self):
        """With one pair the pairwise optimum is attainable exactly."""
        p = np.array([0.7, 0.3])
        # Optimal margin of the exponential pair objective: tau + ln(a/b)/2.
        m_star = 1.0 + 0.5 * math.log(0.7 / 0.3)
        _, regret = mc_conditional_regrets(EXP_SYM, p, np.array([m_star, 0.0]))
        assert regret <= 1e-6

    def test_uniform_weights_make_core_scores_optimal(self):
        p = np.ones(4) / 4
        _, regret = mc_conditional_regrets(EXP_SYM, p, np.zeros(4))
        assert regret <= 1e-9

    @pytest.mark.parametrize("side", [SYMMETRIC, ONE_SIDED])
    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    def test_pointwise_consistency_inequality(self, kind, side):
        """300 draws, grouped by class count into one batched call each; the
        first few draws also go through the single-input path."""
        spec = LinearCoreSpec(BaseLoss(kind), side=side)
        rng = np.random.default_rng(8)
        draws: dict[int, list] = {}
        for i in range(300):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            scores = rng.normal(scale=2.0, size=n)
            draws.setdefault(n, []).append((p, scores))
            if i < 3:
                regret_01, regret_sur = mc_conditional_regrets(spec, p, scores)
                assert regret_01 <= regret_sur + 1e-8
        assert sum(len(group) for group in draws.values()) == 300
        for group in draws.values():
            p, scores = (np.stack(part) for part in zip(*group))
            regret_01, regret_sur = mc_conditional_regrets(spec, p, scores)
            assert regret_01.shape == (len(group),)
            assert np.all(regret_01 <= regret_sur + 1e-8)

    def test_size_guard(self):
        p = np.ones(9) / 9
        with pytest.raises(EnumerationLimitError):
            mc_conditional_regrets(EXP_SYM, p, np.zeros(9))

    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            mc_conditional_regrets(EXP_SYM, np.array([0.6, 0.6]), np.zeros(2))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(4))
        scores = rng.normal(size=4)
        perm = rng.permutation(4)
        inverse = np.argsort(perm)
        direct = mc_conditional_regrets(EXP_SYM, p, scores)
        permuted = mc_conditional_regrets(EXP_SYM, p[inverse], scores[inverse])
        assert direct[0] == pytest.approx(permuted[0], abs=1e-12)
        assert direct[1] == pytest.approx(permuted[1], abs=1e-9)


class TestSoftmaxBaselines:
    def test_ce_symmetric_two_class(self):
        assert ce_loss(np.zeros(2), 0) == pytest.approx(math.log(2))

    def test_ce_gradient_zero_sum_and_finite_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            scores = rng.normal(scale=2, size=5)
            y = int(rng.integers(0, 5))
            grad = ce_gradient(scores, y)
            assert abs(grad.sum()) < 1e-12
            fd = finite_difference(lambda s: ce_loss(s, y), scores)
            np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_gce_value_and_limit(self):
        assert gce_loss(np.zeros(2), 0, 0.5) == pytest.approx((1 - math.sqrt(0.5)) / 0.5)
        rng = np.random.default_rng(10)
        scores = rng.normal(size=4)
        p_y = np.exp(scores - scores.max())
        p_y /= p_y.sum()
        assert gce_loss(scores, 2, 1.0) == pytest.approx(1 - p_y[2], abs=1e-12)

    def test_gce_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for q in (0.3, 0.7, 1.0):
            for _ in range(10):
                scores = rng.normal(scale=2, size=4)
                y = int(rng.integers(0, 4))
                grad = gce_gradient(scores, y, q)
                fd = finite_difference(lambda s: gce_loss(s, y, q), scores)
                np.testing.assert_allclose(grad, fd, atol=1e-5)
                assert abs(grad.sum()) < 1e-12

    def test_gce_q_domain(self):
        with pytest.raises(DomainError):
            gce_loss(np.zeros(2), 0, 0.0)
        with pytest.raises(DomainError):
            gce_loss(np.zeros(2), 0, 1.2)


def test_one_sided_gradient_saturates_below_width():
    """Every margin at or below the core width moves with unit slope."""
    rng = np.random.default_rng(12)
    margins = rng.uniform(-8, LOG_ONE.tau, size=500)
    slopes = lc_derivative(LOG_ONE, margins)
    assert np.all(np.abs(slopes) == 1.0)
    scores = np.array([0.2, 0.2 - LOG_ONE.tau])
    grad = mc_sum_loss_gradient(LOG_ONE, scores, 0)
    assert abs(grad[0]) == 1.0


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


BATCH_KERNELS = {
    "sum_loss": lambda s, y: mc_sum_loss(LOG_ONE, s, y),
    "sum_loss_exp": lambda s, y: mc_sum_loss(EXP_SYM, s, y),
    "sum_loss_gradient": lambda s, y: mc_sum_loss_gradient(LOG_ONE, s, y),
    "sum_loss_gradient_exp": lambda s, y: mc_sum_loss_gradient(EXP_SYM, s, y),
    "ce_loss": ce_loss,
    "ce_gradient": ce_gradient,
    "gce_loss": lambda s, y: gce_loss(s, y, 0.7),
    "gce_gradient": lambda s, y: gce_gradient(s, y, 0.3),
}


class TestBatchFirst:
    """Row k of a (B, C) call is bitwise the (C,) call on row k."""

    @pytest.mark.parametrize("name", sorted(BATCH_KERNELS))
    def test_rows_match_single_calls(self, name):
        fn = BATCH_KERNELS[name]
        rng = np.random.default_rng(21)
        for n in (2, 3, 5, 8):
            scores = rng.normal(scale=3.0, size=(30, n))
            labels = rng.integers(0, n, size=30)
            batch = fn(scores, labels)
            assert batch.shape == (scores.shape if "gradient" in name else labels.shape)
            for k in range(labels.size):
                single = fn(scores[k], int(labels[k]))
                assert isinstance(single, np.ndarray if "gradient" in name else float)
                assert _bits(batch[k]) == _bits(single)

    @pytest.mark.parametrize("spec", [EXP_SYM, LOG_ONE], ids=["exp-sym", "log-one"])
    def test_regret_rows_match_single_calls(self, spec):
        from lincore.multiclass import conditional_surrogate_regret

        rng = np.random.default_rng(22)
        for n in (2, 4, 8):
            p = rng.dirichlet(np.ones(n), size=12)
            scores = rng.normal(scale=2.0, size=(12, n))
            regret_01, regret_sur = mc_conditional_regrets(spec, p, scores)
            weighted = conditional_surrogate_regret(spec, p, scores)
            assert regret_01.shape == regret_sur.shape == (12,)
            assert _bits(weighted) == _bits(regret_sur)
            for k in range(12):
                single = mc_conditional_regrets(spec, p[k], scores[k])
                assert all(isinstance(v, float) for v in single)
                assert _bits(single) == _bits((regret_01[k], regret_sur[k]))
                assert _bits(conditional_surrogate_regret(spec, p[k], scores[k])) == _bits(
                    regret_sur[k]
                )

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.0, 1.0]),
            np.array([0, 1, 2]),
            np.array([[0, 1]]),
            np.array([-1, 0]),
            np.array([0, 3]),
            np.array([True, False]),
        ],
        ids=["float", "too-many", "2-d", "minus-one", "too-large", "bool"],
    )
    @pytest.mark.parametrize("name", sorted(BATCH_KERNELS))
    def test_batched_edge_rejects_bad_labels(self, name, labels):
        with pytest.raises(DomainError):
            BATCH_KERNELS[name](np.zeros((2, 3)), labels)

    @pytest.mark.parametrize(
        "scores",
        [np.float64(1.0), np.zeros((2, 2, 3)), np.zeros((2, 1))],
        ids=["0-d", "3-d", "C=1"],
    )
    @pytest.mark.parametrize("name", sorted(BATCH_KERNELS))
    def test_edge_rejects_scores_of_wrong_rank(self, name, scores):
        with pytest.raises(DomainError):
            BATCH_KERNELS[name](scores, np.zeros(scores.shape[:-1], dtype=int))

    def test_single_input_rejects_bad_labels(self):
        """A float label used to be truncated silently (1.5 scored as label 1)."""
        with pytest.raises(DomainError):
            mc_sum_loss(EXP_SYM, np.zeros(3), 1.5)
        with pytest.raises(DomainError):
            ce_gradient(np.zeros(3), -1)

    def test_regret_oracle_rejects_mismatched_batches(self):
        p = np.full((2, 3), 1.0 / 3.0)
        negative = np.array([[0.5, 0.6, -0.1], [0.2, 0.3, 0.5]])
        with pytest.raises(DomainError):
            mc_conditional_regrets(EXP_SYM, p, np.zeros((3, 3)))
        with pytest.raises(DomainError):
            mc_conditional_regrets(EXP_SYM, negative, np.zeros((2, 3)))
        with pytest.raises(DomainError):
            mc_conditional_regrets(EXP_SYM, np.array([np.nan, 0.5, 0.5]), np.zeros(3))


def _reduction_softmax(scores):
    """The softmax with the class max and sum both taken as numpy reductions."""
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _reduction_ce_loss(scores, labels):
    shifted = scores - scores.max(axis=1, keepdims=True)
    return np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(labels.size), labels]


def _reduction_softmax_gradients(scores, labels, qs):
    """``p_y**q * (p - onehot(y))`` per ``(F, B, C)`` row, scaled one row at a time."""
    grads = _reduction_softmax(scores)
    p_y = grads[:, np.arange(labels.size), labels]
    grads -= np.eye(scores.shape[-1])[labels]
    for grad, p, q in zip(grads, p_y, qs):
        grad *= (p ** float(q))[:, None]
    return grads


def _class_axis_scores(rng, shape):
    """Random scores with tied maxima, all-equal rows, and rows of +0.0 and -0.0."""
    scores = rng.normal(scale=4.0, size=shape)
    rows = scores.reshape(-1, shape[-1])
    n = shape[-1]
    rows[0::5, : n // 2 + 1] = rows[0::5, :1]
    rows[1::5] = 1.5
    rows[2::5] = rng.choice([0.0, -0.0], size=(len(rows[2::5]), n))
    rows[3::5, -1] = rows[3::5].max(axis=1)
    return scores


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_class_axis_kernels_match_reduction_form_bitwise(n):
    """The kernels take the class max without a reduction, with the same bits."""
    from lincore.multiclass import _ce_loss, _softmax, _softmax_gradients

    rng = np.random.default_rng(23 + n)
    qs = (0.0, 0.1, 0.5, 0.7, 1.0)
    stacked = _class_axis_scores(rng, (len(qs), 64, n))
    scores = _class_axis_scores(rng, (64, n))
    labels = rng.integers(0, n, size=64)
    assert np.array_equal(_softmax(stacked), _reduction_softmax(stacked))
    assert np.array_equal(_softmax(scores), _reduction_softmax(scores))
    assert np.array_equal(
        _softmax_gradients(stacked, labels, qs), _reduction_softmax_gradients(stacked, labels, qs)
    )
    assert np.array_equal(_ce_loss(scores, labels), _reduction_ce_loss(scores, labels))
    assert np.array_equal(ce_loss(scores, labels), _reduction_ce_loss(scores, labels))
    for q in qs:
        want = _reduction_softmax_gradients(scores[None], labels, (q,))[0]
        got = ce_gradient(scores, labels) if q == 0.0 else gce_gradient(scores, labels, q)
        assert np.array_equal(got, want)


def _indexed_sum_loss_gradient(scores, labels, spec):
    """The sum-loss gradient of ``(B, C)`` scores, gathered with a row index per label."""
    rows = np.arange(labels.size)
    slopes = lc_derivative(spec, scores[rows, labels][:, None] - scores)
    grad = -slopes
    grad[rows, labels] = slopes.sum(axis=1) - slopes[rows, labels]
    return grad


@pytest.mark.parametrize("spec", [LOG_ONE, EXP_SYM], ids=["logistic_one_sided", "exp_symmetric"])
@pytest.mark.parametrize("n_rates", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 10])
def test_rate_axis_kernels_match_separate_calls_bitwise(n, n_rates, spec):
    """``(R, B)`` labels against ``(R, F, B, C)`` scores give the bytes of R separate calls.

    The inputs are the trainer's strided views of one score block: the
    softmax rows ``[:, :-1]`` and the sum-loss row ``[:, -1]``.
    """
    from lincore.multiclass import _softmax_gradients, _sum_loss_gradient

    rng = np.random.default_rng(41 + n)
    qs = (0.0, 0.1, 0.5, 0.7, 1.0)
    scores = _class_axis_scores(rng, (n_rates, len(qs) + 1, 64, n))
    labels = rng.integers(0, n, size=(n_rates, 64))
    softmax_rows = _softmax_gradients(scores[:, :-1], labels, qs)
    sum_rows = _sum_loss_gradient(scores[:, -1], labels, spec)
    assert softmax_rows.shape == (n_rates, len(qs), 64, n)
    assert sum_rows.shape == (n_rates, 64, n)
    for r in range(n_rates):
        one_rate = scores[r, :-1].copy()
        assert softmax_rows[r].tobytes() == _softmax_gradients(one_rate, labels[r], qs).tobytes()
        want = _reduction_softmax_gradients(one_rate, labels[r], qs)
        assert softmax_rows[r].tobytes() == want.tobytes()
        want = _indexed_sum_loss_gradient(scores[r, -1].copy(), labels[r], spec)
        assert sum_rows[r].tobytes() == want.tobytes()
        assert sum_rows[r].tobytes() == mc_sum_loss_gradient(spec, scores[r, -1], labels[r]).tobytes()


@pytest.mark.parametrize("n_rates, batch", [(1, 1), (3, 1), (1, 64), (3, 64), (2, 257)])
def test_exponent_column_powers_match_scalar_powers_bitwise(n_rates, batch):
    """One ``pow`` over an exponent column gives each row the bits of ``row ** float(q)``.

    Numpy sends a scalar ``** 0.5`` to ``sqrt``; a single-column batch is
    the case where the exponent column is no longer broadcast along a row.
    """
    from lincore.multiclass import _powers

    rng = np.random.default_rng(batch + 10 * n_rates)
    qs = tuple(k / 10 for k in range(11)) + tuple(1.0 - rng.random(40))
    special = [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]
    p = rng.random((n_rates, len(qs), batch)) ** 8
    flat = p.reshape(-1)
    flat[::3] = np.resize(special, flat[::3].size)
    got = _powers(p, qs)
    assert got.shape == p.shape
    for r in range(n_rates):
        for f, q in enumerate(qs):
            assert got[r, f].tobytes() == (p[r, f] ** float(q)).tobytes()
