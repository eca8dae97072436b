"""Stochastic estimators: unbiasedness, variance, and the SGD driver."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import (
    BaseLoss,
    ChainModel,
    DomainError,
    HmmSpec,
    LinearCoreSpec,
    ONE_SIDED,
    PairProposal,
    SequenceData,
    TrainConfig,
    TrainingDivergedError,
    crf_nll_and_gradient,
    empirical_gradient_variance,
    exact_pair_estimator_expectation,
    feature_radius_exact,
    generate_hmm_split,
    hamming_loss,
    joint_feature,
    lc_derivative,
    lc_ksample_gradient_estimate,
    lc_pair_gradient_estimate,
    loss_augmented_viterbi,
    model_weights,
    sequence_score,
    sgd_train,
    ssvm_loss_and_subgradient,
    structured_sum_loss_exact,
    structured_sum_loss_gradient_exact,
    uniform_negative_gradient_exact,
    viterbi,
)
from lincore import inference, structured, trainers
from lincore.experiments import run_train_seq
from lincore.rng import (
    DOMAIN_DIAGNOSTIC,
    DOMAIN_TRAIN_SAMPLE,
    keyed_rng,
    rekey,
    stream_keys,
    stream_rng,
)
from lincore.structured import _check_instance, _check_sequence, all_sequence_scores, enumerate_sequences
from lincore.trainers import (
    NEIGHBOR,
    OBJECTIVES,
    UNIFORM_FULL,
    corruption_probability,
    neighbor_probability,
    sgd_step,
    sample_corruption,
    sample_neighbor,
    sample_uniform_full,
    uniform_full_probability,
)

ONE_LOG = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)


class TestProposals:
    def test_corruption_probabilities_sum_to_one(self):
        y = np.array([0, 1, 2])
        seqs = enumerate_sequences(3, 3)
        total = sum(corruption_probability(y, seq, 3, 0.3) for seq in seqs)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_corruption_sampler_matches_probabilities(self):
        y = np.array([0, 1])
        counts = {}
        n_draws = 20000
        for i in range(n_draws):
            drawn = tuple(sample_corruption(y, 2, 0.3, stream_rng(0, DOMAIN_DIAGNOSTIC, i)))
            counts[drawn] = counts.get(drawn, 0) + 1
        for seq in enumerate_sequences(2, 2):
            expected = corruption_probability(y, seq, 2, 0.3)
            observed = counts.get(tuple(seq), 0) / n_draws
            assert observed == pytest.approx(expected, abs=4 * np.sqrt(expected / n_draws) + 1e-3)

    def test_neighbor_sampler_support_and_probability(self):
        base = np.array([1, 0, 2])
        assert neighbor_probability(3, 3) == pytest.approx(1.0 / 6.0)
        for i in range(200):
            drawn = sample_neighbor(base, 3, stream_rng(1, DOMAIN_DIAGNOSTIC, i))
            assert int(np.sum(drawn != base)) == 1

    def test_uniform_full_excludes_the_anchor(self):
        base = np.array([0, 0])
        assert uniform_full_probability(2, 2) == pytest.approx(1.0 / 3.0)
        for i in range(200):
            drawn = sample_uniform_full(base, 2, stream_rng(2, DOMAIN_DIAGNOSTIC, i))
            assert np.any(drawn != base)

    def test_proposal_validation(self):
        with pytest.raises(DomainError):
            PairProposal(corruption_rate=0.0)
        with pytest.raises(DomainError):
            PairProposal(inner="gibbs")


class TestPairEstimator:
    def test_zero_similarity_zeroes_the_gradient(self):
        """An anchor that disagrees everywhere carries weight zero."""
        rng = np.random.default_rng(0)
        model = ChainModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        x = rng.normal(size=(2, 2))
        y = np.array([0, 0])
        for i in range(400):
            est = lc_pair_gradient_estimate(
                model, x, y, ONE_LOG, PairProposal(0.5), stream_rng(3, DOMAIN_DIAGNOSTIC, i)
            )
            if hamming_loss(est.outer, y) == 1.0:
                assert est.w1 == 0.0
                assert not est.gradient.any()
                break
        else:
            pytest.fail("never drew a maximally distant anchor")

    def test_zero_model_saturated_slope(self):
        x = np.random.default_rng(1).normal(size=(3, 2))
        y = np.array([0, 1, 0])
        model = ChainModel.zeros(2, 2)
        est = lc_pair_gradient_estimate(
            model, x, y, ONE_LOG, PairProposal(0.3), stream_rng(4, DOMAIN_DIAGNOSTIC)
        )
        margin = sequence_score(model, x, est.outer) - sequence_score(model, x, est.inner)
        assert margin == 0.0
        assert lc_derivative(ONE_LOG, margin) == -1.0

    def test_expectation_rejects_labels_out_of_range(self):
        """The label -1 used to wrap to the last label and give a finite gradient."""
        model = ChainModel(np.arange(6.0).reshape(3, 2), np.zeros((3, 3)))
        with pytest.raises(DomainError):
            exact_pair_estimator_expectation(
                model, np.ones((2, 2)), [-1, 0], ONE_LOG, PairProposal(0.3)
            )

    def test_uniform_full_expectation_equals_exact_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            model = ChainModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
            x = rng.normal(size=(5, 2))
            y = rng.integers(0, 2, size=5)
            expectation = exact_pair_estimator_expectation(
                model, x, y, ONE_LOG, PairProposal(0.3, UNIFORM_FULL)
            )
            exact = structured_sum_loss_gradient_exact(ONE_LOG, model, x, y)
            np.testing.assert_allclose(expectation, exact, atol=1e-10)

    @pytest.mark.parametrize("n, length", [(3, 3), (2, 1), (4, 2), (2, 5)])
    def test_neighbor_expectation_matches_restricted_sum(self, n, length):
        """The single-position proposal is unbiased for the Hamming-1 inner sum.

        L = 1 has no transitions; at L >= 2 the Hamming-1 support is
        strictly smaller than the Y^L - 1 competitors.
        """
        rng = np.random.default_rng(3)
        model = ChainModel(rng.normal(size=(n, 2)), rng.normal(size=(n, n)))
        x = rng.normal(size=(length, 2))
        y = rng.integers(0, n, size=length)
        seqs = enumerate_sequences(n, length)
        feats = np.stack([joint_feature(n, x, seq) for seq in seqs])
        scores = all_sequence_scores(model, x, seqs)
        restricted = np.zeros(feats.shape[1])
        for i, outer in enumerate(seqs):
            weight = 1.0 - hamming_loss(outer, y)
            for j, inner in enumerate(seqs):
                if int(np.sum(inner != outer)) != 1:
                    continue
                slope = lc_derivative(ONE_LOG, float(scores[i] - scores[j]))
                restricted += weight * slope * (feats[i] - feats[j])
        expectation = exact_pair_estimator_expectation(
            model, x, y, ONE_LOG, PairProposal(0.3, NEIGHBOR)
        )
        np.testing.assert_allclose(expectation, restricted, atol=1e-10)

    @pytest.mark.parametrize("inner", [NEIGHBOR, UNIFORM_FULL])
    @pytest.mark.parametrize("n", [2, 3, 100])
    def test_estimate_has_the_bits_of_the_joint_feature_difference(self, n, inner):
        """The dense estimate is ``coeff * (phi(outer) - phi(inner))`` bit for bit."""
        rng = np.random.default_rng(n)
        model = ChainModel(rng.normal(size=(n, 3)), rng.normal(size=(n, n)))
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, n, size=4)
        proposal = PairProposal(0.3, inner)
        for i in range(200):
            est = lc_pair_gradient_estimate(
                model, x, y, ONE_LOG, proposal, stream_rng(14, DOMAIN_DIAGNOSTIC, i)
            )
            outer, competitor, _, _, coeff = trainers._sample_pair(
                model, x, y, ONE_LOG, proposal, stream_rng(14, DOMAIN_DIAGNOSTIC, i)
            )
            want = coeff * (joint_feature(n, x, outer) - joint_feature(n, x, competitor))
            assert est.gradient.tobytes() == want.tobytes()

    def test_monte_carlo_mean_approaches_expectation(self):
        rng = np.random.default_rng(4)
        model = ChainModel(0.3 * rng.normal(size=(2, 2)), 0.3 * rng.normal(size=(2, 2)))
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 2, size=3)
        proposal = PairProposal(0.4, NEIGHBOR)
        target = exact_pair_estimator_expectation(model, x, y, ONE_LOG, proposal)
        # Draw i is the stream_rng(5, DOMAIN_DIAGNOSTIC, i) stream, keyed in one pass.
        rng = keyed_rng()
        draws = np.stack(
            [
                lc_pair_gradient_estimate(model, x, y, ONE_LOG, proposal, rekey(rng, key)).gradient
                for key in stream_keys(5, DOMAIN_DIAGNOSTIC, np.arange(60000))
            ]
        )
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - target) <= 4 * stderr + 1e-9)


def test_each_gradient_oracle_builds_its_features_once(monkeypatch):
    """Every exact gradient is one ``_feature_delta`` over the enumerated
    sequences, with no per-sequence ``joint_feature``."""
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapped

    delta = spy("_feature_delta", structured._feature_delta)
    for module in (structured, trainers):
        monkeypatch.setattr(module, "_feature_delta", delta)
    monkeypatch.setattr(structured, "joint_feature", spy("joint_feature", structured.joint_feature))
    assert not hasattr(trainers, "joint_feature")
    rng = np.random.default_rng(15)
    model = ChainModel(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))
    x = rng.normal(size=(3, 2))
    y = rng.integers(0, 3, size=3)
    oracles = [
        lambda: structured_sum_loss_gradient_exact(ONE_LOG, model, x, y),
        lambda: uniform_negative_gradient_exact(ONE_LOG, model, x, y),
        lambda: exact_pair_estimator_expectation(model, x, y, ONE_LOG, PairProposal(0.3)),
    ]
    for oracle in oracles:
        calls.clear()
        oracle()
        assert calls == ["_feature_delta"]


class _FixedSequenceRng:
    """Generator stand-in whose integer draws replay a fixed sequence."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=np.int64)

    def integers(self, low, high=None, size=None):
        return self.labels.reshape(size)


class TestKSampleEstimator:
    def test_anchor_draw_contributes_nothing(self):
        """Drawing the anchor itself yields phi'(0) times a zero feature gap."""
        rng = np.random.default_rng(0)
        model = ChainModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        x = rng.normal(size=(2, 2))
        y = np.array([1, 0])
        grad = lc_ksample_gradient_estimate(
            model, x, y, ONE_LOG, 1, _FixedSequenceRng([[1, 0]])
        )
        assert grad.shape == (2 * 2 + 4,)
        assert not grad.any()

    def test_matches_enumerated_expectation(self):
        rng = np.random.default_rng(7)
        model = ChainModel(0.2 * rng.normal(size=(3, 2)), 0.2 * rng.normal(size=(3, 3)))
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 3, size=3)
        target = uniform_negative_gradient_exact(ONE_LOG, model, x, y)
        draws = np.stack(
            [
                lc_ksample_gradient_estimate(
                    model, x, y, ONE_LOG, 8, stream_rng(8, DOMAIN_DIAGNOSTIC, i)
                )
                for i in range(40000)
            ]
        )
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - target) <= 4 * stderr + 1e-9)

    def test_zero_negatives_rejected(self):
        model = ChainModel.zeros(3, 2)
        with pytest.raises(DomainError):
            lc_ksample_gradient_estimate(
                model, np.zeros((4, 2)), np.zeros(4, dtype=int), ONE_LOG, 0, stream_rng(0, 0)
            )
        with pytest.raises(DomainError):
            TrainConfig(objective="lincore_ksample", n_negatives=0)

    def test_single_terms_bounded_by_twice_feature_radius(self):
        rng = np.random.default_rng(9)
        model = ChainModel(0.5 * rng.normal(size=(3, 2)), 0.5 * rng.normal(size=(3, 3)))
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 3, size=3)
        radius = feature_radius_exact([x], 3)
        for i in range(500):
            grad = lc_ksample_gradient_estimate(
                model, x, y, ONE_LOG, 1, stream_rng(10, DOMAIN_DIAGNOSTIC, i)
            )
            assert np.linalg.norm(grad) <= 2 * radius + 1e-12


class TestVariance:
    def test_deterministic_estimator_has_zero_variance(self):
        rng = np.random.default_rng(11)
        model = ChainModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 2, size=3)
        exact = structured_sum_loss_gradient_exact(ONE_LOG, model, x, y)
        variance = empirical_gradient_variance(
            lambda m, xs, ys, r: exact, model, x, y, trials=100, seed=0
        )
        assert variance <= 1e-20

    def test_bound_and_averaging_law(self):
        rng = np.random.default_rng(12)
        model = ChainModel(0.2 * rng.normal(size=(3, 2)), 0.2 * rng.normal(size=(3, 3)))
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 3, size=3)
        radius = feature_radius_exact([x], 3)
        exact = uniform_negative_gradient_exact(ONE_LOG, model, x, y)
        variances = {}
        for k in (1, 4):
            variances[k] = empirical_gradient_variance(
                lambda m, xs, ys, r, k=k: lc_ksample_gradient_estimate(m, xs, ys, ONE_LOG, k, r),
                model,
                x,
                y,
                trials=4000,
                seed=13,
                true_gradient=exact,
            )
            assert variances[k] <= 4 * radius**2 / k
        assert 0.8 * variances[1] / 4 <= variances[4] <= 1.2 * variances[1] / 4

    def test_trial_guard(self):
        with pytest.raises(DomainError):
            empirical_gradient_variance(
                lambda m, xs, ys, r: np.zeros(3), None, None, None, trials=1, seed=0
            )


def tiny_data(seed=0, n_train=16, n_test=4, length=3, n_labels=2, dim=2):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_labels, dim))
    def draw():
        y = rng.integers(0, n_labels, size=length)
        return centers[y] + 0.3 * rng.normal(size=(length, dim)), y
    return SequenceData(
        train=[draw() for _ in range(n_train)],
        test=[draw() for _ in range(n_test)],
        n_labels=n_labels,
    )


class TestSgdTrain:
    def test_zero_step_size_keeps_zero_model(self):
        data = tiny_data()
        result = sgd_train(data, TrainConfig(eta=0.0, iterations=50, objective="ssvm"))
        assert not model_weights(result.model).any()

    @pytest.mark.parametrize("objective", ["ssvm", "crf", "lincore", "lincore_ksample"])
    def test_histories_are_bitwise_deterministic(self, objective):
        data = tiny_data()
        eta = 1e-4 if objective == "lincore" else 0.05
        config = TrainConfig(
            eta=eta, iterations=120, seed=7, objective=objective, eval_interval=40
        )
        first = sgd_train(data, config)
        second = sgd_train(data, config)
        np.testing.assert_array_equal(
            model_weights(first.model), model_weights(second.model)
        )
        assert len(first.history) == len(second.history)
        for a, b in zip(first.history, second.history):
            assert (a.iteration, a.objective, a.test_error) == (b.iteration, b.objective, b.test_error)

    def test_history_covers_start_and_end(self):
        data = tiny_data()
        result = sgd_train(
            data, TrainConfig(eta=0.05, iterations=100, objective="crf", eval_interval=30)
        )
        iterations = [row.iteration for row in result.history]
        assert iterations[0] == 0
        assert iterations[-1] == 100
        seconds = [row.seconds for row in result.history]
        assert all(b >= a for a, b in zip(seconds, seconds[1:]))

    def test_divergence_guard_trips(self):
        data = tiny_data()
        config = TrainConfig(
            eta=1e13,
            iterations=60,
            objective="lincore",
            eval_interval=20,
        )
        with pytest.raises(TrainingDivergedError):
            sgd_train(data, config)

    def test_divergence_guard_sees_the_weights(self):
        """Beyond the enumeration limit every objective is NaN; the weights
        ran to a norm of 1.9e33 here without tripping the guard."""
        data = generate_hmm_split(
            HmmSpec(length=12, n_labels=30, dim=20, n_sequences=50, seed=0), n_test=10
        )
        config = TrainConfig(
            eta=0.01,
            iterations=200,
            objective="lincore",
            inner_proposal=UNIFORM_FULL,
            eval_interval=50,
        )
        with pytest.raises(TrainingDivergedError, match="weight norm"):
            sgd_train(data, config)

    def test_divergence_guard_sees_the_objective(self, monkeypatch):
        """At zero weights the train-seq shape (Y=3, L=4) has objective 5,154
        and weight norm 0, so only the objective half can trip."""
        monkeypatch.setattr(trainers, "_DIVERGENCE_GUARD", 50.0)
        with pytest.raises(TrainingDivergedError, match="objective 5.15e\\+03 .* at iteration 0$"):
            run_train_seq({"iterations": 1})

    @pytest.mark.parametrize(
        "n_labels, eta, past", [(3, 100.0, True), (3, 0.1, False), (60, 0.1, False)]
    )
    def test_crf_objective_past_the_scaled_range(self, n_labels, eta, past):
        """The batched evaluation objective is the mean of per-instance
        :func:`crf_nll_and_gradient` values, bit for bit, inside the scaled
        recursion's range and past it, where ``log Z`` comes from the
        log-space recursion."""
        spec = HmmSpec(length=4, n_labels=n_labels, dim=5, n_sequences=20, seed=1)
        data = generate_hmm_split(spec, 2)
        config = TrainConfig(
            eta=eta, iterations=3, objective="crf", eval_interval=3, eval_max_instances=8
        )
        result = sgd_train(data, config)
        model, instances = result.model, data.train[:8]
        for x, _ in instances:
            unary = inference._unary_table(model, np.asarray(x, dtype=np.float64))
            assert inference._scaled_forward(unary, model.transition)[0] != past
        nll = [crf_nll_and_gradient(model, x, y)[0] for x, y in instances]
        assert result.history[-1].objective == float(np.mean(nll))

    def test_objective_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(objective="perceptron")
        with pytest.raises(DomainError):
            TrainConfig(eta=-0.1)
        # Evaluation without instances recorded NaN objectives; iterations
        # index the stream keys, which take one 32-bit word.
        for bad in (
            dict(eval_interval=10, eval_max_instances=0),
            dict(eval_interval=1, eval_max_instances=-3),
            dict(iterations=2**32),
        ):
            with pytest.raises(DomainError):
                TrainConfig(**bad)
        TrainConfig(eval_interval=0, eval_max_instances=0)
        TrainConfig(eval_interval=10, eval_max_instances=1, iterations=2**32 - 1)

    def test_crf_learns_tiny_problem(self):
        data = tiny_data(n_train=40, n_test=12)
        result = sgd_train(
            data, TrainConfig(eta=0.1, iterations=2500, objective="crf", eval_interval=2500)
        )
        assert result.history[-1].test_error <= 0.25

    def test_step_seconds_time_the_steps_alone(self, monkeypatch):
        """One entry per step; evaluation and rekeying stay off the step clock."""
        clock = [0.0]
        real_step, real_objective = trainers.sgd_step, trainers._mean_objective

        def one_second_step(*args, **kwargs):
            clock[0] += 1.0
            real_step(*args, **kwargs)

        def slow_objective(*args):
            clock[0] += 100.0
            return real_objective(*args)

        monkeypatch.setattr(trainers, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(trainers, "sgd_step", one_second_step)
        monkeypatch.setattr(trainers, "_mean_objective", slow_objective)
        config = TrainConfig(
            eta=0.05, iterations=12, batch_size=2, objective="crf", eval_interval=4
        )
        result = sgd_train(tiny_data(), config)
        assert result.step_seconds.tolist() == [1.0] * 24
        assert [row.iteration for row in result.history] == [0, 4, 8, 12]
        empty = sgd_train(tiny_data(), TrainConfig(iterations=0)).step_seconds
        assert empty.shape == (0,)


def test_stream_rng_is_stable():
    """Stream derivation is part of the reproducibility contract."""
    a = stream_rng(42, DOMAIN_DIAGNOSTIC, 3, 1).integers(0, 1000, size=5)
    b = stream_rng(42, DOMAIN_DIAGNOSTIC, 3, 1).integers(0, 1000, size=5)
    c = stream_rng(42, DOMAIN_DIAGNOSTIC, 3, 2).integers(0, 1000, size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _dense_reference_step(model, x, y, config, rng):
    """Dense ``w -= eta * g`` with the gradient accumulated over all labels."""
    n, length = model.n_labels, y.size
    if config.objective == "ssvm":
        competitor, augmented = loss_augmented_viterbi(model, x, y)
        if augmented - sequence_score(model, x, y) <= 0.0:
            grad = np.zeros(n * model.dim + n * n)
        else:
            grad = joint_feature(n, x, competitor) - joint_feature(n, x, y)
    elif config.objective == "crf":
        # Expected minus observed joint feature, both dense and flat.
        unary = x @ model.unary.T
        inside, alpha, kernel, psi, scale, _ = inference._scaled_forward(unary, model.transition)
        if inside:
            beta, edge_weights = inference._scaled_backward(alpha, kernel, psi, scale)
            unary_marginals = alpha * beta
            expected_transition = kernel * (alpha[:-1].T @ edge_weights)
        else:
            marg = inference._log_space_forward_backward(unary, model.transition)
            unary_marginals = marg.unary_marginals
            expected_transition = marg.transition_marginals.sum(axis=0)
        expected = np.concatenate([(unary_marginals.T @ x).ravel(), expected_transition.ravel()])
        grad = expected - joint_feature(n, x, y)
    else:
        k = config.n_negatives
        negatives = rng.integers(0, n, size=(k, length))
        scores = all_sequence_scores(model, x, negatives)
        coeffs = lc_derivative(config.spec, sequence_score(model, x, y) - scores) / k
        total = float(np.sum(coeffs))
        unary = np.zeros((n, model.dim))
        np.add.at(unary, y, total * x)
        np.add.at(unary, negatives.ravel(), -(np.repeat(coeffs, length)[:, None] * np.tile(x, (k, 1))))
        transition = np.zeros((n, n))
        np.add.at(transition, (y[:-1], y[1:]), total)
        np.add.at(
            transition,
            (negatives[:, :-1].ravel(), negatives[:, 1:].ravel()),
            -np.repeat(coeffs, length - 1),
        )
        grad = np.concatenate([unary.ravel(), transition.ravel()])
    u, t = model.unary, model.transition
    u -= config.eta * grad[: u.size].reshape(u.shape)
    t -= config.eta * grad[u.size :].reshape(t.shape)
    return grad


def _repeating_instances(data):
    """Each instance with its first two labels repeated along the sequence,
    so every transition cell it uses is used more than once."""
    return [
        (np.asarray(x, dtype=np.float64), np.resize(np.asarray(y, dtype=np.int64)[:2], len(y)))
        for x, y in data.train
    ]


def _assert_steps_match_dense_reference(sparse, instances, config, steps):
    """``steps`` SGD steps leave the same weights as the dense reference,
    and each public gradient equals the reference gradient bit for bit."""
    proposal = PairProposal(config.corruption_rate)
    dense = ChainModel(sparse.unary.copy(), sparse.transition.copy())
    for t in range(steps):
        x, y = instances[t % len(instances)]
        if config.objective == "lincore_ksample":
            public = lc_ksample_gradient_estimate(
                dense, x, y, config.spec, config.n_negatives, stream_rng(5, DOMAIN_TRAIN_SAMPLE, t)
            )
        elif config.objective == "crf":
            public = crf_nll_and_gradient(dense, x, y)[1]
        else:
            public = ssvm_loss_and_subgradient(dense, x, y)[1]
        sgd_step(sparse, x, y, config, proposal, stream_rng(5, DOMAIN_TRAIN_SAMPLE, t))
        grad = _dense_reference_step(dense, x, y, config, stream_rng(5, DOMAIN_TRAIN_SAMPLE, t))
        assert np.array_equal(public, grad)
    assert np.array_equal(sparse.unary, dense.unary)
    assert np.array_equal(sparse.transition, dense.transition)


@pytest.mark.parametrize("objective", ["ssvm", "lincore_ksample", "crf"])
@pytest.mark.parametrize("n_labels", [3, 150, 400])
def test_sparse_updates_match_dense_reference_bitwise(objective, n_labels):
    """Writing only touched transition cells leaves weights identical to a
    dense update.

    At 150 and 400 labels the length-6 sequences have few enough edges that
    the update keeps only their transition cells; at 3 it keeps the whole
    block.  The CRF step subtracts its gradient blocks in place, with each
    repeated transition cell's count subtracted once, as the dense
    difference does.
    """
    data = tiny_data(seed=3, n_train=20, length=6, n_labels=n_labels, dim=4)
    sparse = ChainModel.zeros(n_labels, 4)
    _assert_steps_match_dense_reference(
        sparse, _repeating_instances(data), TrainConfig(eta=0.05, objective=objective), 300
    )
    assert np.any(model_weights(sparse) != 0.0)


def test_crf_step_matches_dense_reference_beyond_the_scaled_range(monkeypatch):
    """One transition cell 1,000 nats down puts every call on the log-space
    recursion, while the other cells keep the posteriors spread out."""
    calls = []
    fallback = inference._log_space_forward_backward

    def spy(unary, transition):
        calls.append(np.ptp(transition))
        return fallback(unary, transition)

    monkeypatch.setattr(inference, "_log_space_forward_backward", spy)
    rng = np.random.default_rng(16)
    sparse = ChainModel(rng.normal(size=(3, 4)), rng.normal(size=(3, 3)))
    sparse.transition[2, 2] = -1000.0
    data = tiny_data(seed=3, n_train=20, length=6, n_labels=3, dim=4)
    steps = 60
    _assert_steps_match_dense_reference(
        sparse, _repeating_instances(data), TrainConfig(eta=0.05, objective="crf"), steps
    )
    assert len(calls) == 3 * steps and min(calls) > inference._SCALED_RANGE_LIMIT


def _bad_instance(kind, n_labels=3):
    x = np.zeros((3, 2))
    y = np.array([0, 1, 2])
    if kind == "negative_label":
        y = np.array([0, -1, 2])
    elif kind == "label_too_large":
        y = np.array([0, n_labels, 2])
    elif kind == "float_label":
        y = np.array([0.0, 1.5, 2.0])
    elif kind == "length_mismatch":
        y = np.array([0, 1])
    elif kind == "dim_mismatch":
        x = np.zeros((3, 5))
    else:
        x = np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]])
    return x, y


@pytest.mark.parametrize("objective", ["lincore", "lincore_ksample", "ssvm", "crf"])
@pytest.mark.parametrize(
    "kind",
    ["negative_label", "label_too_large", "float_label", "length_mismatch", "dim_mismatch", "non_finite"],
)
def test_malformed_training_instance_rejected_before_the_first_step(monkeypatch, objective, kind):
    """The pair samplers used to train on a -1 label, wrapped to the last one."""

    def no_step(*args, **kwargs):
        raise AssertionError("sgd_step ran on malformed data")

    monkeypatch.setattr(trainers, "sgd_step", no_step)
    data = tiny_data(n_labels=3)
    with pytest.raises(DomainError):
        bad = SequenceData(train=[*data.train, _bad_instance(kind)], test=data.test, n_labels=3)
        sgd_train(bad, TrainConfig(objective=objective, iterations=50))


def _count_checks(monkeypatch) -> list:
    """Record each instance check that ``trainers`` makes, through
    ``_check_sequence`` (as :class:`SequenceData` does) or ``_check_instance``."""
    checks = []

    def counting(check):
        def counting_check(*args, **kwargs):
            checks.append(args)
            return check(*args, **kwargs)

        return counting_check

    monkeypatch.setattr(trainers, "_check_sequence", counting(_check_sequence))
    monkeypatch.setattr(trainers, "_check_instance", counting(_check_instance))
    return checks


def test_evaluations_reuse_the_checked_instances(monkeypatch):
    """Each train and test instance is validated once, while the data is
    built, however often the run evaluates."""
    checks = _count_checks(monkeypatch)
    data = tiny_data(seed=3, n_train=7, n_test=5, n_labels=3)
    assert len(checks) == len(data.train) + len(data.test)
    result = sgd_train(data, TrainConfig(objective="lincore", iterations=20, eval_interval=4))
    assert len(result.history) == 6
    assert len(checks) == len(data.train) + len(data.test)


def test_float_labels_rejected_instead_of_truncated():
    """Float labels used to be cast to int64: [0.5, 1.7] trained as [0, 1]."""
    with pytest.raises(DomainError, match="integers"):
        data = SequenceData(train=[(np.zeros((2, 2)), np.array([0.5, 1.7]))], n_labels=2)
        sgd_train(data, TrainConfig(iterations=2))
    with pytest.raises(DomainError, match="integers"):
        loss_augmented_viterbi(ChainModel.zeros(3, 2), np.zeros((2, 2)), [0.7, 1.2])


@pytest.mark.parametrize("n_labels", [1, 0, True, 2.5, "3"], ids=repr)
def test_label_count_must_be_an_integer_of_at_least_2(n_labels):
    """On all-zero labels a count of 1 or True used to reach numpy's
    ``ValueError: high <= 0``, and a count of 2.5 trained as 2."""
    with pytest.raises(DomainError, match="n_labels"):
        SequenceData(train=tiny_data().train, n_labels=n_labels)


@pytest.mark.parametrize("split", ["train", "test"])
def test_empty_label_sequence_rejected(split):
    """An empty sequence is rejected before the first step, in either split."""
    empty = (np.zeros((0, 2)), np.array([], dtype=np.int64))
    good = (np.zeros((2, 2)), np.array([0, 1]))
    splits = {"train": ([good, empty], [good]), "test": ([good], [empty])}[split]
    with pytest.raises(DomainError, match="length >= 1"):
        data = SequenceData(*splits, n_labels=2)
        sgd_train(data, TrainConfig(iterations=2))


_EDGE_CASES = ("nan", "inf", "negative_label", "label_too_large", "float_label",
               "length_mismatch", "dim_mismatch", "empty_sequence")


def _edge_case_instance(kind, n_labels, length, dim, rng):
    """A ``(length, dim)`` instance over ``n_labels`` labels broken as ``kind`` says."""
    x = rng.normal(size=(length, dim))
    y = rng.integers(0, n_labels, size=length)
    at = int(rng.integers(0, length))
    if kind in ("nan", "inf"):
        x[at, int(rng.integers(0, dim))] = np.nan if kind == "nan" else -np.inf
    elif kind in ("negative_label", "label_too_large"):
        y[at] = -1 if kind == "negative_label" else n_labels
    elif kind == "float_label":
        y = y.astype(float)
    elif kind == "length_mismatch":
        y = y[1:] if length > 1 else np.append(y, 0)
    elif kind == "dim_mismatch":
        x = rng.normal(size=(length, dim + 1))
    else:
        x, y = np.zeros((0, dim)), y[:0]
    return x, y


@given(
    kind=st.sampled_from(_EDGE_CASES),
    n_labels=st.integers(2, 6),
    dim=st.integers(1, 4),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    n_test=st.integers(0, 3),
    split=st.sampled_from(["train", "test"]),
    where=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sequence_data_rejects_every_malformed_instance(kind, n_labels, dim, sizes, n_test, split, where, seed):
    """One broken instance anywhere in either split fails construction; the
    same data without it builds."""
    rng = np.random.default_rng(seed)
    draw = lambda length: (rng.normal(size=(length, dim)), rng.integers(0, n_labels, size=length))
    train = [draw(length) for length in sizes]
    test = [draw(length) for length in sizes[:n_test]]
    assert len(SequenceData(train, test, n_labels=n_labels).train) == len(sizes)
    broken = train if split == "train" else test
    broken.insert(where % (len(broken) + 1), _edge_case_instance(kind, n_labels, sizes[0], dim, rng))
    with pytest.raises(DomainError):
        SequenceData(train, test, n_labels=n_labels)


def test_sequence_data_splits_are_read_only():
    """Nothing can be written into or appended to the checked splits."""
    data = tiny_data(n_labels=3)
    x, y = data.train[0]
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        y[0] = -1
    with pytest.raises(AttributeError):
        data.train.append(_bad_instance("negative_label"))
    with pytest.raises(TypeError):
        data.test[0] = _bad_instance("non_finite")


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_sequence_data_keeps_what_it_checked(objective):
    """Writing NaN or a -1 label into the caller's arrays after construction
    reaches neither the data nor the run: the splits hold checked copies."""
    data = tiny_data(n_labels=3)
    x, y = data.train[0][0].copy(), data.train[0][1].copy()
    kept = SequenceData(train=[(x, y), *data.train[1:]], test=data.test, n_labels=3)
    reference = sgd_train(kept, TrainConfig(objective=objective, iterations=8, seed=1))
    x[0, 0], y[0] = np.nan, -1
    assert np.array_equal(kept.train[0][0], data.train[0][0])
    assert np.array_equal(kept.train[0][1], data.train[0][1])
    result = sgd_train(kept, TrainConfig(objective=objective, iterations=8, seed=1))
    assert np.array_equal(model_weights(result.model), model_weights(reference.model))


def test_generate_hmm_split_checks_each_instance_once(monkeypatch):
    checks = _count_checks(monkeypatch)
    data = generate_hmm_split(HmmSpec(length=4, n_labels=3, dim=2, n_sequences=6), n_test=3)
    assert len(data.train) == 6 and len(data.test) == 3
    assert len(checks) == 9


@pytest.mark.parametrize("inner", [NEIGHBOR, UNIFORM_FULL])
def test_pair_step_and_estimator_share_one_sampler(monkeypatch, inner):
    """From one stream the sparse SGD step and the dense estimator draw the
    same pair, and the step moves the weights by ``-eta`` times the estimate."""
    drawn = []

    def recording_update(unary, transition, x, outer, competitor, step):
        drawn.append((outer, competitor))
        apply_pair_update(unary, transition, x, outer, competitor, step)

    apply_pair_update = trainers._apply_pair_update
    monkeypatch.setattr(trainers, "_apply_pair_update", recording_update)
    data = tiny_data(seed=4, n_train=10, length=5, n_labels=4, dim=3)
    config = TrainConfig(eta=0.05, objective="lincore", inner_proposal=inner)
    proposal = PairProposal(config.corruption_rate, inner)
    rng = np.random.default_rng(11)
    model = ChainModel(0.3 * rng.normal(size=(4, 3)), 0.3 * rng.normal(size=(4, 4)))
    updates = 0
    for t in range(300):
        x, y = data.train[t % len(data.train)]
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)
        estimate_rng = stream_rng(6, DOMAIN_TRAIN_SAMPLE, t)
        step_rng = stream_rng(6, DOMAIN_TRAIN_SAMPLE, t)
        estimate = lc_pair_gradient_estimate(model, x, y, config.spec, proposal, estimate_rng)
        stepped = ChainModel(model.unary.copy(), model.transition.copy())
        drawn.clear()
        sgd_step(stepped, x, y, config, proposal, step_rng)
        assert estimate_rng.random() == step_rng.random()  # same number of draws
        change = model_weights(stepped) - model_weights(model)
        expected = -config.eta * estimate.gradient
        assert np.linalg.norm(change - expected) <= 1e-12 * np.linalg.norm(expected)
        if estimate.w1 == 0.0:
            assert not drawn and not change.any()
            continue
        ((outer, competitor),) = drawn
        assert np.array_equal(outer, estimate.outer)
        assert np.array_equal(competitor, estimate.inner)
        updates += 1
    assert updates > 250


def _decode_error_reference(model, instances):
    """Per-instance public Viterbi, as the mean of Hamming losses."""
    return float(np.mean([hamming_loss(viterbi(model, x)[0], y) for x, y in instances]))


def test_batched_test_error_matches_single_decodes():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n, dim = int(rng.integers(2, 6)), 3
        # Integer weights on integer inputs make exact ties common.
        scale = 1 if trial % 2 else 0.5
        model = ChainModel(
            np.round(rng.normal(size=(n, dim)) / scale) * scale,
            np.round(rng.normal(size=(n, n)) / scale) * scale,
        )
        instances = []
        for _ in range(int(rng.integers(1, 12))):
            length = int(rng.integers(1, 5))
            x = rng.integers(-1, 2, size=(length, dim)).astype(float)
            instances.append((x, rng.integers(0, n, size=length)))
        assert trainers.test_hamming_error(model, instances) == _decode_error_reference(model, instances)
    zero = ChainModel.zeros(3, 2)
    ties = [(np.zeros((4, 2)), np.array([0, 0, 1, 2])), (np.zeros((4, 2)), np.zeros(4, int))]
    assert trainers.test_hamming_error(zero, ties) == 0.25


@pytest.mark.parametrize("n", [3, 60, 400])
def test_stacked_unary_rows_keep_their_single_instance_bits(n):
    """One ``(N, L, d) @ (d, Y)`` product per length group, as the Viterbi
    test error and the CRF objective take it, gives each instance the bits
    of its own ``x @ unary.T``."""
    rng = np.random.default_rng(n)
    model = ChainModel(rng.normal(size=(n, 20)), rng.normal(size=(n, n)))
    instances = [(rng.normal(size=(4, 20)), rng.integers(0, n, size=4)) for _ in range(64)]
    positions = np.arange(64)
    stacked = trainers._stack(instances, positions, 0) @ model.unary.T
    for row, (x, _) in zip(stacked, instances):
        assert row.tobytes() == inference._unary_table(model, x).tobytes()


def _mixed_length_instances():
    """Ten instances of length 3 and five of length 2, interleaved."""
    data = tiny_data(seed=4, n_train=10, n_test=0, length=3, n_labels=3, dim=2)
    short = [(x[:2], y[:2]) for x, y in tiny_data(seed=5, n_train=5, n_test=0, n_labels=3, dim=2).train]
    return [(np.asarray(x), np.asarray(y)) for x, y in [*data.train[:4], *short, *data.train[4:]]]


@pytest.mark.parametrize("objective", ["lincore", "crf", "ssvm"])
def test_batched_evaluation_matches_single_calls(objective):
    """The recorded objective is the mean of per-instance exact sum losses,
    of per-instance CRF negative log-likelihoods or of per-instance hinge
    losses."""
    instances = _mixed_length_instances()
    rng = np.random.default_rng(6)
    model = ChainModel(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))
    config = TrainConfig(objective=objective)
    if objective == "crf":
        want = float(np.mean([crf_nll_and_gradient(model, x, y)[0] for x, y in instances]))
    elif objective == "ssvm":
        # A trained model puts some rows past the margin, at loss 0.
        data = SequenceData(train=instances, n_labels=3)
        model = sgd_train(data, TrainConfig(objective="ssvm", eta=0.1)).model
        losses = [ssvm_loss_and_subgradient(model, x, y)[0] for x, y in instances]
        assert 0.0 in losses and max(losses) > 0.0
        want = float(np.mean(losses))
    else:
        want = float(np.mean([structured_sum_loss_exact(config.spec, model, x, y) for x, y in instances]))
    assert trainers._mean_objective(objective, model, instances, config) == want


def test_an_ssvm_record_makes_one_oracle_call_per_length_group(monkeypatch):
    """One evaluation of the ``ssvm`` objective calls the public oracle
    once per length group, which checks its stacked rows once, where it
    used to make one call, and one check, per instance."""
    instances = _mixed_length_instances()
    data = SequenceData(train=instances, n_labels=3)
    calls = {"ssvm_loss_and_subgradient": 0, "_check_instance": 0}
    for module, name in [(trainers, "ssvm_loss_and_subgradient"), (structured, "_check_instance")]:
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    config = TrainConfig(objective="ssvm", iterations=0, eval_interval=1, eval_max_instances=len(instances))
    assert len(sgd_train(data, config).history) == 1
    assert calls == {"ssvm_loss_and_subgradient": 2, "_check_instance": 2}


# Reference copies of the pair-step pieces as they were written with
# boolean masks, set building and numpy-scalar compares.  The lean step
# must draw the same numbers in the same order and write the same bits.


def _reference_sample_corruption(y, n_labels, rate, rng):
    y = np.asarray(y, dtype=np.int64)
    flip = rng.random(y.size) < rate
    out = y.copy()
    if np.any(flip):
        draws = rng.integers(0, n_labels - 1, size=int(np.sum(flip)))
        kept = y[flip]
        out[flip] = draws + (draws >= kept)
    return out


def _reference_sample_neighbor(y_prime, n_labels, rng):
    out = np.asarray(y_prime, dtype=np.int64).copy()
    pos = int(rng.integers(0, out.size))
    draw = int(rng.integers(0, n_labels - 1))
    out[pos] = draw + (draw >= out[pos])
    return out


def _reference_apply_pair_update(model_unary, model_transition, x, y_outer, y_inner, step):
    diff = np.nonzero(y_outer != y_inner)[0]
    for j in diff:
        model_unary[y_outer[j]] -= step * x[j]
        model_unary[y_inner[j]] += step * x[j]
    length = y_outer.size
    if length > 1 and diff.size:
        edges = set()
        for j in diff:
            if j > 0:
                edges.add(j - 1)
            if j < length - 1:
                edges.add(j)
        for j in sorted(edges):
            model_transition[y_outer[j], y_outer[j + 1]] -= step
            model_transition[y_inner[j], y_inner[j + 1]] += step


def _stream_state(rng):
    """The generator's full state, its counter and key arrays included, as text."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _assert_same_update(x, plus, minus, step, unary, transition):
    got = (unary.copy(), transition.copy())
    want = (unary.copy(), transition.copy())
    trainers._apply_pair_update(*got, x, plus, minus, step)
    _reference_apply_pair_update(*want, x, plus, minus, step)
    assert np.array_equal(got[0], want[0]) and got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1]) and got[1].tobytes() == want[1].tobytes()


@given(
    n_labels=st.sampled_from([3, 100, 400]),
    length=st.integers(1, 20),
    rate=st.sampled_from([1e-9, 0.02, 0.3, 0.98, 1.0 - 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_pair_step_pieces_match_the_reference_bitwise(n_labels, length, rate, seed):
    """Same draws, same stream state afterwards and the same weight bits."""
    data_rng = np.random.default_rng(seed)
    y = data_rng.integers(0, n_labels, size=length)
    x = data_rng.normal(size=(length, 3))
    unary = data_rng.normal(size=(n_labels, 3))
    transition = data_rng.normal(size=(n_labels, n_labels))
    step = float(data_rng.normal())
    rng = stream_rng(seed, DOMAIN_TRAIN_SAMPLE, length)
    reference_rng = stream_rng(seed, DOMAIN_TRAIN_SAMPLE, length)

    outer = sample_corruption(y, n_labels, rate, rng)
    assert outer.dtype == np.int64
    assert np.array_equal(outer, _reference_sample_corruption(y, n_labels, rate, reference_rng))
    assert _stream_state(rng) == _stream_state(reference_rng)
    inner = sample_neighbor(outer, n_labels, rng)
    assert inner.dtype == np.int64
    assert np.array_equal(inner, _reference_sample_neighbor(outer, n_labels, reference_rng))
    assert _stream_state(rng) == _stream_state(reference_rng)

    # The neighbor pair differs at one position; the corruption pair at
    # many, so transition cells can repeat; an equal pair changes nothing.
    for plus, minus in ((outer, inner), (y, outer), (outer, y), (outer, outer)):
        _assert_same_update(x, plus, minus, step, unary, transition)
