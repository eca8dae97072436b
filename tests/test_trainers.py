"""Stochastic estimators: unbiasedness, variance, and the SGD driver."""

import numpy as np
import pytest

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
from lincore import trainers
from lincore.rng import (
    DOMAIN_DIAGNOSTIC,
    DOMAIN_TRAIN_SAMPLE,
    keyed_rng,
    rekey,
    stream_keys,
    stream_rng,
)
from lincore.structured import _check_instance, all_sequence_scores, enumerate_sequences
from lincore.trainers import (
    NEIGHBOR,
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

    def test_neighbor_expectation_matches_restricted_sum(self):
        """The single-position proposal is unbiased for the Hamming-1 inner sum."""
        rng = np.random.default_rng(3)
        model = ChainModel(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 3, size=3)
        seqs = enumerate_sequences(3, 3)
        feats = np.stack([joint_feature(3, x, seq) for seq in seqs])
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
            divergence_guard=1e12,
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


@pytest.mark.parametrize("objective", ["ssvm", "lincore_ksample"])
@pytest.mark.parametrize("n_labels", [3, 150])
def test_sparse_updates_match_dense_reference_bitwise(objective, n_labels):
    """Writing only touched labels leaves weights identical to a dense update.

    At 150 labels the length-6 sequences touch few enough labels that the
    update runs on the compact label block; at 3 it keeps every label.
    """
    data = tiny_data(seed=3, n_train=20, length=6, n_labels=n_labels, dim=4)
    config = TrainConfig(eta=0.05, objective=objective)
    proposal = PairProposal(config.corruption_rate)
    sparse = ChainModel.zeros(n_labels, 4)
    dense = ChainModel.zeros(n_labels, 4)
    for t in range(300):
        x, y = data.train[t % len(data.train)]
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)
        if objective == "lincore_ksample":
            public = lc_ksample_gradient_estimate(
                dense, x, y, config.spec, config.n_negatives, stream_rng(5, DOMAIN_TRAIN_SAMPLE, t)
            )
        else:
            public = ssvm_loss_and_subgradient(dense, x, y)[1]
        sgd_step(sparse, x, y, config, proposal, stream_rng(5, DOMAIN_TRAIN_SAMPLE, t))
        grad = _dense_reference_step(dense, x, y, config, stream_rng(5, DOMAIN_TRAIN_SAMPLE, t))
        assert np.array_equal(public, grad)
    assert np.array_equal(sparse.unary, dense.unary)
    assert np.array_equal(sparse.transition, dense.transition)
    assert np.any(model_weights(sparse) != 0.0)


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
    bad = SequenceData(train=data.train + [_bad_instance(kind)], test=data.test, n_labels=3)
    with pytest.raises(DomainError):
        sgd_train(bad, TrainConfig(objective=objective, iterations=50))


def test_evaluations_reuse_the_checked_instances(monkeypatch):
    """Each train and test instance is validated once, however often the run evaluates."""
    checks = []

    def counting_check(*args, **kwargs):
        checks.append(args)
        return _check_instance(*args, **kwargs)

    monkeypatch.setattr(trainers, "_check_instance", counting_check)
    data = tiny_data(seed=3, n_train=7, n_test=5, n_labels=3)
    result = sgd_train(data, TrainConfig(objective="lincore", iterations=20, eval_interval=4))
    assert len(result.history) == 6
    assert len(checks) == len(data.train) + len(data.test)


def test_float_labels_rejected_instead_of_truncated():
    """Float labels used to be cast to int64: [0.5, 1.7] trained as [0, 1]."""
    data = SequenceData(train=[(np.zeros((2, 2)), np.array([0.5, 1.7]))])
    with pytest.raises(DomainError, match="integers"):
        sgd_train(data, TrainConfig(iterations=2))
    with pytest.raises(DomainError, match="integers"):
        loss_augmented_viterbi(ChainModel.zeros(3, 2), np.zeros((2, 2)), [0.7, 1.2])


@pytest.mark.parametrize("split", ["train", "test"])
def test_empty_label_sequence_rejected(split):
    """Inferring the label count from an empty sequence used to raise numpy's
    bare ValueError before any instance was checked."""
    empty = (np.zeros((0, 2)), np.array([], dtype=np.int64))
    good = (np.zeros((2, 2)), np.array([0, 1]))
    data = {
        "train": SequenceData(train=[good, empty], test=[good]),
        "test": SequenceData(train=[good], test=[empty]),
    }[split]
    with pytest.raises(DomainError, match="non-empty"):
        sgd_train(data, TrainConfig(iterations=2))


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


def test_batched_evaluation_matches_single_calls():
    """The recorded objective is the mean of per-instance exact sum losses."""
    data = tiny_data(seed=4, n_train=10, n_test=0, length=3, n_labels=3, dim=2)
    short = [(x[:2], y[:2]) for x, y in tiny_data(seed=5, n_train=5, n_test=0, n_labels=3, dim=2).train]
    instances = [(np.asarray(x), np.asarray(y)) for x, y in data.train[:4] + short + data.train[4:]]
    rng = np.random.default_rng(6)
    model = ChainModel(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))
    config = TrainConfig(objective="lincore")
    want = float(np.mean([structured_sum_loss_exact(config.spec, model, x, y) for x, y in instances]))
    assert trainers._mean_objective("lincore", model, instances, config) == want
