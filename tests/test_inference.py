"""Exact dynamic programs against brute-force enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import (
    ChainModel,
    DomainError,
    crf_nll_and_gradient,
    forward_backward,
    hamming_loss,
    joint_feature,
    loss_augmented_viterbi,
    model_weights,
    sequence_score,
    ssvm_loss_and_subgradient,
    viterbi,
    weights_to_model,
)
from lincore import inference, structured
from lincore.structured import all_sequence_scores, enumerate_sequences


def brute_force_argmax(scores, seqs):
    """Max score; ties resolved to the sequence whose reversed tuple is smallest."""
    best = float(np.max(scores))
    ties = seqs[scores == best]
    chosen = min(tuple(reversed(seq)) for seq in ties)
    return np.array(list(reversed(chosen)), dtype=np.int64), best


def random_instance(rng, n_max=5, len_max=6, dim=3):
    n = int(rng.integers(2, n_max))
    length = int(rng.integers(1, len_max))
    model = ChainModel(rng.normal(size=(n, dim)), rng.normal(size=(n, n)))
    x = rng.normal(size=(length, dim))
    return model, x, n, length


class TestViterbi:
    def test_single_position_is_argmax(self):
        rng = np.random.default_rng(0)
        model = ChainModel(rng.normal(size=(4, 2)), rng.normal(size=(4, 4)))
        x = rng.normal(size=(1, 2))
        best, score = viterbi(model, x)
        unary = x @ model.unary.T
        assert best[0] == int(np.argmax(unary[0]))
        assert score == pytest.approx(float(np.max(unary[0])))

    def test_zero_model_decodes_all_lowest_labels(self):
        best, score = viterbi(ChainModel.zeros(3, 2), np.zeros((5, 2)))
        np.testing.assert_array_equal(best, np.zeros(5, dtype=np.int64))
        assert score == 0.0

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            model, x, n, length = random_instance(rng)
            seqs = enumerate_sequences(n, length)
            scores = all_sequence_scores(model, x, seqs)
            expected_seq, expected = brute_force_argmax(scores, seqs)
            got_seq, got = viterbi(model, x)
            assert got == pytest.approx(expected, abs=1e-10)
            np.testing.assert_array_equal(got_seq, expected_seq)

    def test_tie_rule_matches_enumeration_on_integer_models(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            length = int(rng.integers(1, 5))
            model = ChainModel(
                rng.integers(-1, 2, size=(n, 2)).astype(float),
                rng.integers(-1, 2, size=(n, n)).astype(float),
            )
            x = rng.integers(-1, 2, size=(length, 2)).astype(float)
            seqs = enumerate_sequences(n, length)
            scores = all_sequence_scores(model, x, seqs)
            expected_seq, _ = brute_force_argmax(scores, seqs)
            got_seq, _ = viterbi(model, x)
            np.testing.assert_array_equal(got_seq, expected_seq)

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            viterbi(ChainModel.zeros(2, 2), np.zeros((0, 2)))


class TestLossAugmentedViterbi:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            model, x, n, length = random_instance(rng)
            y = rng.integers(0, n, size=length)
            seqs = enumerate_sequences(n, length)
            augmented = all_sequence_scores(model, x, seqs) + np.array(
                [hamming_loss(seq, y) for seq in seqs]
            )
            _, got = loss_augmented_viterbi(model, x, y)
            assert got == pytest.approx(float(np.max(augmented)), abs=1e-9)

    def test_zero_model_maximizes_disagreement(self):
        y = np.zeros(4, dtype=np.int64)
        seq, score = loss_augmented_viterbi(ChainModel.zeros(3, 2), np.zeros((4, 2)), y)
        assert score == pytest.approx(1.0)
        assert np.all(seq != y)
        np.testing.assert_array_equal(seq, np.ones(4, dtype=np.int64))

    def test_augmentation_dominates_plain_decoding(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            model, x, n, length = random_instance(rng)
            y = rng.integers(0, n, size=length)
            _, plain = viterbi(model, x)
            _, augmented = loss_augmented_viterbi(model, x, y)
            assert augmented >= plain - 1e-12

    def test_tiny_margin_still_rewards_disagreement(self):
        """A correct model with a sub-1/L margin loses to the augmentation."""
        model = ChainModel(np.array([[0.1], [0.0]]), np.zeros((2, 2)))
        x = np.ones((2, 1))
        y = np.zeros(2, dtype=np.int64)
        seq, _ = loss_augmented_viterbi(model, x, y)
        assert np.any(seq != y)


class TestForwardBackward:
    def test_single_position_softmax(self):
        rng = np.random.default_rng(5)
        model = ChainModel(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))
        x = rng.normal(size=(1, 2))
        marg = forward_backward(model, x)
        unary = (x @ model.unary.T)[0]
        expected = np.exp(unary - np.max(unary))
        expected /= expected.sum()
        np.testing.assert_allclose(marg.unary_marginals[0], expected, atol=1e-12)
        logz = np.log(np.sum(np.exp(unary - np.max(unary)))) + np.max(unary)
        assert marg.log_partition == pytest.approx(logz, abs=1e-12)

    def test_log_partition_matches_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            model, x, n, length = random_instance(rng)
            scores = all_sequence_scores(model, x, enumerate_sequences(n, length))
            expected = float(np.log(np.sum(np.exp(scores - scores.max()))) + scores.max())
            marg = forward_backward(model, x)
            assert marg.log_partition == pytest.approx(expected, abs=1e-8)
            assert marg.log_partition >= float(scores.max())

    def test_marginal_normalization_and_consistency(self):
        rng = np.random.default_rng(7)
        model, x, n, length = ChainModel(rng.normal(size=(4, 3)), rng.normal(size=(4, 4))), rng.normal(size=(6, 3)), 4, 6
        marg = forward_backward(model, x)
        np.testing.assert_allclose(marg.unary_marginals.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_allclose(marg.transition_marginals.sum(axis=(1, 2)), 1.0, atol=1e-8)
        for j in range(length - 1):
            np.testing.assert_allclose(
                marg.transition_marginals[j].sum(axis=0), marg.unary_marginals[j + 1], atol=1e-6
            )
            np.testing.assert_allclose(
                marg.transition_marginals[j].sum(axis=1), marg.unary_marginals[j], atol=1e-6
            )

    def test_uniform_model_gives_uniform_marginals(self):
        marg = forward_backward(ChainModel.zeros(4, 2), np.zeros((3, 2)))
        np.testing.assert_allclose(marg.unary_marginals, 0.25, atol=1e-12)


class TestCrf:
    def test_nll_decreases_to_zero_for_dominant_score(self):
        model = ChainModel(np.array([[10.0], [-10.0]]), np.zeros((2, 2)))
        x = np.ones((3, 1))
        nll, _ = crf_nll_and_gradient(model, x, np.zeros(3, dtype=np.int64))
        assert nll < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            model, x, n, length = random_instance(rng, n_max=4, len_max=5, dim=2)
            y = rng.integers(0, n, size=length)
            _, grad = crf_nll_and_gradient(model, x, y)
            w = model_weights(model)
            fd = np.zeros_like(w)
            for i in range(w.size):
                up, down = w.copy(), w.copy()
                up[i] += 1e-6
                down[i] -= 1e-6
                fd[i] = (
                    crf_nll_and_gradient(weights_to_model(up, n, 2), x, y)[0]
                    - crf_nll_and_gradient(weights_to_model(down, n, 2), x, y)[0]
                ) / 2e-6
            np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_gradient_vanishes_at_maximum_likelihood_fit(self):
        """A quasi-Newton fit of one example drives the gradient to zero."""
        from scipy.optimize import minimize

        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2))
        y = np.array([0, 1, 0])

        def objective(w):
            return crf_nll_and_gradient(weights_to_model(w, 2, 2), x, y)

        result = minimize(
            objective,
            model_weights(ChainModel.zeros(2, 2)),
            jac=True,
            method="L-BFGS-B",
            options={"gtol": 1e-9, "maxiter": 2000},
        )
        _, grad = crf_nll_and_gradient(weights_to_model(result.x, 2, 2), x, y)
        assert np.linalg.norm(grad) < 1e-6


class TestSsvm:
    def test_separable_instance_has_zero_loss_and_subgradient(self):
        model = ChainModel(np.array([[5.0], [-5.0]]), np.zeros((2, 2)))
        x = np.ones((2, 1))
        loss, subgrad = ssvm_loss_and_subgradient(model, x, np.zeros(2, dtype=np.int64))
        assert loss == 0.0
        assert not subgrad.any()

    def test_zero_model_loss_is_full_augmentation(self):
        loss, subgrad = ssvm_loss_and_subgradient(
            ChainModel.zeros(3, 2), np.zeros((4, 2)), np.zeros(4, dtype=np.int64)
        )
        assert loss == pytest.approx(1.0)
        competitor = np.ones(4, dtype=np.int64)
        expected = joint_feature(3, np.zeros((4, 2)), competitor) - joint_feature(
            3, np.zeros((4, 2)), np.zeros(4, dtype=np.int64)
        )
        np.testing.assert_array_equal(subgrad, expected)

    def test_matches_brute_force_hinge(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            model, x, n, length = random_instance(rng)
            y = rng.integers(0, n, size=length)
            seqs = enumerate_sequences(n, length)
            scores = all_sequence_scores(model, x, seqs)
            ref = sequence_score(model, x, y)
            hinge = max(
                max(0.0, hamming_loss(seq, y) - (ref - float(s)))
                for seq, s in zip(seqs, scores)
                if not np.array_equal(seq, y)
            )
            loss, _ = ssvm_loss_and_subgradient(model, x, y)
            assert loss == pytest.approx(hinge, abs=1e-10)


def test_inference_kernels_scale_quadratically_in_labels():
    """Log-time vs log-labels slope sits in the quadratic band at fixed length.

    The time at Y=2 is the per-call overhead (validation, set-up and the
    O(length) loop); it is taken off every time before the fit, so a faster
    Y^2 term cannot read as sub-quadratic scaling.  The calls run in 7
    rounds that take turns across the sizes, and each round fits its own
    slope to the fastest of its 4 calls per size.  The median of the 7
    slopes is asserted: a stall that hits one size in one round moves one
    slope, not the verdict, while every round still has to scale
    quadratically for the median to land in the band.  A round whose Y=2
    call stalled past a larger size has no log to fit; it counts as an
    infinitely steep slope, the direction such a stall tilts the fit.
    A first round of the same calls is run and discarded, so the first
    calls of a fresh process stay out of the fit.

    Each kernel is fitted inside one regime of its own code.  Viterbi decodes
    ``Y <= 181`` in whole-instance tiles and larger ``Y`` in runs of rows
    (:func:`inference._viterbi_tiles`); a fit across that step read slopes
    of about 1.7.  A run of rows also copies ``2^15`` elements per position
    whatever ``Y`` is, which the ``Y = 2`` floor does not take off: 41% of
    the candidates at ``Y = 283`` and 5% at 800.  Fits from ``Y = 200``
    read 1.51 to 2.47 in 180 fresh processes, two of them outside the band;
    fits from 283 read 1.87 to 2.16 in 30.  Forward-backward allocates an
    ``(L - 1, Y, Y)`` edge tensor, 23 MB at ``Y = 400`` and ``L = 20``:
    there a call took 7 ms in some processes and 11 ms in others, and one
    fit up to 400 in 30 read 2.66.  Past 32 MiB (``Y = 480``) a call costs
    about 2.5 times the quadratic trend.  So its fit stops at 283, an
    11.6 MB tensor.
    """
    import time

    rng = np.random.default_rng(11)
    length, dim, floor = 20, 20, 2
    regimes = {
        "loss_augmented_viterbi": (283, 400, 566, 800),
        "forward_backward": (100, 141, 200, 283),
    }
    for kernel, sizes in regimes.items():
        cases = []
        for n in (floor, *sizes):
            model = ChainModel(rng.normal(size=(n, dim)), rng.normal(size=(n, n)))
            cases.append((model, rng.normal(size=(length, dim)), rng.integers(0, n, size=length)))
        times = np.full((8, len(cases)), np.inf)  # row 0: the warm-up
        for round_times in times:
            for k, (model, x, y) in enumerate(cases):
                for _ in range(4):
                    tick = time.perf_counter()
                    if kernel == "loss_augmented_viterbi":
                        loss_augmented_viterbi(model, x, y)
                    else:
                        forward_backward(model, x)
                    round_times[k] = min(round_times[k], time.perf_counter() - tick)
        times = times[1:]
        quadratic = times[:, 1:] - times[:, :1]
        slopes = [
            float(np.polyfit(np.log(sizes), np.log(row), 1)[0]) if (row > 0).all() else np.inf
            for row in quadratic
        ]
        slope = float(np.median(slopes))
        assert 1.6 <= slope <= 2.4, (
            f"{kernel}: median slope {slope:.2f} of {np.round(slopes, 2)}, times {times}"
        )


def test_forward_backward_marginals_match_enumeration():
    """Posterior marginals agree with explicit sums over all sequences."""
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        length = int(rng.integers(2, 5))
        model = ChainModel(rng.normal(size=(n, 2)), rng.normal(size=(n, n)))
        x = rng.normal(size=(length, 2))
        seqs = enumerate_sequences(n, length)
        scores = all_sequence_scores(model, x, seqs)
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        marg = forward_backward(model, x)
        for j in range(length):
            for c in range(n):
                expected = float(probs[seqs[:, j] == c].sum())
                assert marg.unary_marginals[j, c] == pytest.approx(expected, abs=1e-10)
        for j in range(length - 1):
            for a in range(n):
                for b in range(n):
                    expected = float(probs[(seqs[:, j] == a) & (seqs[:, j + 1] == b)].sum())
                    assert marg.transition_marginals[j, a, b] == pytest.approx(
                        expected, abs=1e-10
                    )



def _allocating_viterbi(unary, transition):
    """Reference recursion with fresh temporaries per step."""
    length, n = unary.shape
    back = np.zeros((length, n), dtype=np.int64)
    dp = unary[0].copy()
    for j in range(1, length):
        cand = dp[:, None] + transition  # (from, to)
        back[j] = np.argmax(cand, axis=0)
        dp = cand[back[j], np.arange(n)] + unary[j]
    last = int(np.argmax(dp))
    best = np.empty(length, dtype=np.int64)
    best[-1] = last
    for j in range(length - 1, 0, -1):
        best[j - 1] = back[j, best[j]]
    return best, float(dp[last])


def test_viterbi_decodes_bitwise_equal_to_allocating_reference():
    """Reusing buffers changes no addition and no tie-break."""
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        length = int(rng.integers(1, 12))
        if trial % 2:
            model = ChainModel(
                rng.integers(-1, 2, size=(n, 2)).astype(float),
                rng.integers(-1, 2, size=(n, n)).astype(float),
            )
            x = rng.integers(-1, 2, size=(length, 2)).astype(float)
        else:
            model = ChainModel(rng.normal(size=(n, 2)), rng.normal(size=(n, n)))
            x = rng.normal(size=(length, 2))
        y = rng.integers(0, n, size=length)
        unary = x @ model.unary.T
        augmented = unary + 1.0 / length
        augmented[np.arange(length), y] -= 1.0 / length
        for (got_seq, got), (want_seq, want) in (
            (viterbi(model, x), _allocating_viterbi(unary, model.transition)),
            (loss_augmented_viterbi(model, x, y), _allocating_viterbi(augmented, model.transition)),
        ):
            np.testing.assert_array_equal(got_seq, want_seq)
            assert got == want and np.signbit(got) == np.signbit(want)

def _enumerated_posteriors(model, x):
    n, length = model.n_labels, x.shape[0]
    seqs = enumerate_sequences(n, length)
    scores = all_sequence_scores(model, x, seqs)
    top = float(scores.max())
    logz = float(np.log(np.sum(np.exp(scores - top))) + top)
    probs = np.exp(scores - logz)
    unary = np.zeros((length, n))
    edges = np.zeros((max(length - 1, 0), n, n))
    for j in range(length):
        np.add.at(unary[j], seqs[:, j], probs)
    for j in range(length - 1):
        np.add.at(edges[j], (seqs[:, j], seqs[:, j + 1]), probs)
    return logz, unary, edges


def _assert_matches_enumeration(model, x):
    logz, unary, edges = _enumerated_posteriors(model, x)
    marg = forward_backward(model, x)
    assert marg.log_partition == pytest.approx(logz, abs=1e-8)
    np.testing.assert_allclose(marg.unary_marginals, unary, rtol=0, atol=1e-10)
    np.testing.assert_allclose(marg.transition_marginals, edges, rtol=0, atol=1e-10)


@given(
    n=st.integers(2, 5),
    length=st.integers(1, 5),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_forward_backward_matches_enumeration_at_any_scale(n, length, scale, seed):
    """Scaled and fallback recursions both reproduce the enumerated posterior."""
    rng = np.random.default_rng(seed)
    model = ChainModel(scale * rng.normal(size=(n, 2)), scale * rng.normal(size=(n, n)))
    _assert_matches_enumeration(model, rng.normal(size=(length, 2)))


def _potential_range(unary, transition):
    """Nats the scaled recursion must span: ptp(T) + max_j ptp(U_j)."""
    return float(np.ptp(transition) + np.max(np.ptp(unary, axis=1)))


def test_wide_potential_range_takes_the_log_space_fallback(monkeypatch):
    calls = []
    fallback = inference._log_space_forward_backward

    def spy(unary, transition):
        calls.append(_potential_range(unary, transition))
        return fallback(unary, transition)

    monkeypatch.setattr(inference, "_log_space_forward_backward", spy)
    rng = np.random.default_rng(14)
    model = ChainModel(300.0 * rng.normal(size=(3, 2)), 800.0 * rng.normal(size=(3, 3)))
    x = rng.normal(size=(4, 2))
    _assert_matches_enumeration(model, x)
    assert len(calls) == 1 and calls[0] > 1000.0
    nll, grad = crf_nll_and_gradient(model, x, np.array([0, 1, 2, 0]))
    assert len(calls) == 2
    assert np.isfinite(nll) and np.all(np.isfinite(grad))


def test_scaled_and_log_space_recursions_agree():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n, length = 50, int(rng.integers(1, 21))
        model = ChainModel(rng.normal(size=(n, 4)), rng.normal(size=(n, n)))
        x = rng.normal(size=(length, 4))
        y = rng.integers(0, n, size=length)
        unary = x @ model.unary.T
        assert _potential_range(unary, model.transition) < inference._SCALED_RANGE_LIMIT
        scaled = forward_backward(model, x)
        exact = inference._log_space_forward_backward(unary, model.transition)
        assert scaled.log_partition == pytest.approx(exact.log_partition, abs=1e-10)
        np.testing.assert_allclose(scaled.unary_marginals, exact.unary_marginals, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            scaled.transition_marginals, exact.transition_marginals, rtol=0, atol=1e-10
        )
        _, grad = crf_nll_and_gradient(model, x, y)
        expected = np.concatenate(
            [(exact.unary_marginals.T @ x).ravel(), exact.transition_marginals.sum(axis=0).ravel()]
        )
        np.testing.assert_allclose(grad, expected - joint_feature(n, x, y), rtol=0, atol=1e-10)


def test_batched_viterbi_matches_single_decodes_including_ties():
    """Row i of the one kernel is the allocating reference's path and score
    for unary[i], with the same first-index ties, in a batch and alone."""
    rng = np.random.default_rng(41)
    for trial in range(60):
        n, length, count = int(rng.integers(2, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        if trial % 3 == 0:
            # Small integers: many exact ties among candidates and end scores.
            unary = rng.integers(-1, 2, size=(count, length, n)).astype(float)
            transition = rng.integers(-1, 2, size=(n, n)).astype(float)
        else:
            unary = rng.normal(size=(count, length, n))
            transition = rng.normal(size=(n, n))
        paths, scores = inference._viterbi(unary, transition)
        assert paths.shape == (count, length) and scores.shape == (count,)
        for k in range(count):
            want_path, want = _allocating_viterbi(unary[k], transition)
            alone_paths, alone_scores = inference._viterbi(unary[k : k + 1], transition)
            for path, score in ((paths[k], scores[k]), (alone_paths[0], alone_scores[0])):
                np.testing.assert_array_equal(path, want_path)
                assert score == want and np.signbit(score) == np.signbit(want)
    flat_paths, flat_scores = inference._viterbi(np.zeros((3, 4, 5)), np.zeros((5, 5)))
    np.testing.assert_array_equal(flat_paths, np.zeros((3, 4), dtype=np.int64))
    np.testing.assert_array_equal(flat_scores, np.zeros(3))


def _potentials(rng, kind, shape):
    if kind == "gaussian":
        return rng.normal(size=shape)
    if kind == "ties":  # small integers: many exactly tied candidates
        return rng.integers(-1, 2, size=shape).astype(float)
    return np.full(shape, -0.0)  # every score a signed zero


def _assert_same_decode(got, want):
    (got_path, got), (want_path, want) = got, want
    np.testing.assert_array_equal(got_path, want_path)
    assert got == want and np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("kind", ["gaussian", "ties", "zeros"])
def test_tiled_viterbi_matches_the_allocating_reference(kind):
    """Sizes whose candidate blocks outgrow the cache budget: one instance
    split into runs of ``to`` rows that do not divide Y, batches split into
    instance groups with a partial last group, and batches of 2 and 3
    instances split into runs.  Every path and score keeps the reference's
    bits, alone and in a batch."""
    rng = np.random.default_rng(43)
    for n in (182, 257, 400):
        assert len(inference._viterbi_tiles(1, n)) > 1
        for length in range(1, 7):
            transition = _potentials(rng, kind, (n, n))
            unary = _potentials(rng, kind, (length, n))
            paths, scores = inference._viterbi(unary[None], transition)
            _assert_same_decode((paths[0], scores[0]), _allocating_viterbi(unary, transition))

            model = ChainModel(_potentials(rng, kind, (n, 2)), transition)
            x = _potentials(rng, kind, (length, 2))
            y = rng.integers(0, n, size=length)
            unary = x @ model.unary.T
            augmented = unary + 1.0 / length
            augmented[np.arange(length), y] -= 1.0 / length
            _assert_same_decode(viterbi(model, x), _allocating_viterbi(unary, transition))
            _assert_same_decode(
                loss_augmented_viterbi(model, x, y), _allocating_viterbi(augmented, transition)
            )
    # Y = 100: instance groups.  Y = 257 and 400: runs of rows, where each
    # instance refills the shared dp-row block before its first run.
    for n, counts in ((100, (3, 4, 8)), (257, (2, 3)), (400, (2, 3))):
        for count in counts:
            for length in range(1, 7):
                transition = _potentials(rng, kind, (n, n))
                unary = _potentials(rng, kind, (count, length, n))
                paths, scores = inference._viterbi(unary, transition)
                for k in range(count):
                    want = _allocating_viterbi(unary[k], transition)
                    alone_paths, alone_scores = inference._viterbi(unary[k : k + 1], transition)
                    _assert_same_decode((paths[k], scores[k]), want)
                    _assert_same_decode((alone_paths[0], alone_scores[0]), want)
    assert len(inference._viterbi_tiles(8, 100)) > 1


@pytest.mark.parametrize("shape", [(1,), (7,), (1, 400), (3, 5), (81, 400), (1, 81, 257)])
def test_aligned_empty_gives_contiguous_float64_on_a_cache_line(shape):
    held = []
    for pad in range(1, 6):  # blocks kept alive land at different raw offsets
        held.append(np.empty(pad))
        got = structured._aligned_empty(shape)
        held.append(got)
        assert got.shape == shape and got.dtype == np.float64
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.ctypes.data % structured._CACHE_LINE == 0


@pytest.mark.parametrize("n, dim", [(2, 1), (3, 20), (400, 20)])
def test_zero_model_is_the_checked_zero_model_with_an_aligned_transition(n, dim):
    got, want = ChainModel.zeros(n, dim), ChainModel(np.zeros((n, dim)), np.zeros((n, n)))
    for a, b in ((got.unary, want.unary), (got.transition, want.transition)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous and a.flags.writeable
    assert got.transition.ctypes.data % structured._CACHE_LINE == 0


def _allocating_crf(model, x, y):
    """The scaled CRF recursion as written before its ``(Y, Y)`` blocks were
    aligned, every array allocated by numpy: ``(nll, grad_unary,
    grad_transition, unary_marginals, transition_marginals, log Z)``."""
    unary = x @ model.unary.T
    transition = model.transition
    length, n = unary.shape
    t_shift = transition.max()
    u_shift = unary.max(axis=1)
    kernel = np.subtract(transition, t_shift)
    np.exp(kernel, out=kernel)
    psi = np.exp(unary - u_shift[:, None])
    alpha = np.empty((length, n))
    scale = np.empty(length)
    alpha[0] = psi[0]
    for j in range(length):
        message = alpha[j]
        if j:
            np.dot(alpha[j - 1], kernel, out=message)
            message *= psi[j]
        scale[j] = message.sum()
        message /= scale[j]
    log_partition = float(np.log(scale).sum() + u_shift.sum() + (length - 1) * t_shift)
    edge_weights = psi[1:] / scale[1:, None]
    beta = np.empty_like(alpha)
    beta[-1] = 1.0
    for j in range(length - 2, -1, -1):
        weights = edge_weights[j]
        weights *= beta[j + 1]
        np.dot(kernel, weights, out=beta[j])
    edges = alpha[:-1, :, None] * kernel
    edges *= edge_weights[:, None, :]
    unary_marginals = alpha * beta
    grad_transition = alpha[:-1].T @ edge_weights
    grad_transition *= kernel
    nll = float(log_partition - sequence_score(model, x, y))
    grad_unary = unary_marginals.T @ x
    observed = np.zeros_like(grad_unary)
    np.add.at(observed, y, x)
    grad_unary -= observed
    src, dst = y[:-1], y[1:]
    cells = src * n + dst
    grad_transition[src, dst] -= (cells[:, None] == cells).sum(axis=1)
    return nll, grad_unary, grad_transition, unary_marginals, edges, log_partition


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 50, 182, 400])
@pytest.mark.parametrize("length", [1, 2, 20])
def test_crf_fast_path_matches_the_allocating_reference(n, length):
    """Aligned ``(Y, Y)`` blocks move no bit, and calls whose edges span a
    cache budget of cells get them on a cache line."""
    rng = np.random.default_rng([n, length])
    aligned = (length - 1) * n * n >= structured._CACHE_ELEMENTS
    for _ in range(3):
        model = ChainModel(rng.normal(size=(n, 4)), rng.normal(size=(n, n)))
        x = rng.normal(size=(length, 4))
        y = rng.integers(0, n, size=length)
        nll, grad_unary, grad_transition, unary_marginals, edges, log_z = _allocating_crf(model, x, y)
        blocks = inference._crf_gradient_blocks(model, x, y)
        for got, want in zip(blocks, (nll, grad_unary, grad_transition)):
            _same_bits(got, want)
        flat_nll, flat = crf_nll_and_gradient(model, x, y)
        _same_bits(flat_nll, nll)
        _same_bits(flat, np.concatenate([grad_unary.ravel(), grad_transition.ravel()]))
        marg = forward_backward(model, x)
        _same_bits(marg.unary_marginals, unary_marginals)
        _same_bits(marg.transition_marginals, edges)
        _same_bits(marg.log_partition, log_z)
        _same_bits(inference._crf_nll(model, x[None], y[None]), np.array([nll]))
        if aligned:
            kernel = inference._scaled_forward(x @ model.unary.T, model.transition)[2]
            for block in (kernel, blocks[2]):
                assert block.ctypes.data % structured._CACHE_LINE == 0


@pytest.mark.parametrize("count", [1, 2, 64])
@pytest.mark.parametrize("n", [3, 5, 60, 129, 400])
@pytest.mark.parametrize("length", [1, 2, 9, 20])
def test_batched_forward_rows_keep_their_single_table_bits(count, n, length):
    """Every row of one ``(N, L, Y)`` forward call has the ``alpha``, ``psi``,
    ``scale`` and ``log Z`` of its ``(L, Y)`` table alone, and every
    ``_crf_nll`` row the value of :func:`crf_nll_and_gradient`.  A 2-D GEMM
    in place of the stacked products moves bits from ``Y = 5``, and a
    ``log(scale)`` sum along a strided axis from ``L = 8``."""
    rng = np.random.default_rng([count, n, length])
    model = ChainModel(rng.normal(size=(n, 4)), rng.normal(size=(n, n)))
    xs = rng.normal(size=(count, length, 4))
    ys = rng.integers(0, n, size=(count, length))
    unary = xs @ model.unary.T
    inside, alpha, kernel, psi, scale, log_z = inference._scaled_forward(unary, model.transition)
    assert inside.shape == (count,) and inside.all()
    nll = inference._crf_nll(model, xs, ys)
    assert nll.shape == (count,)
    for i in range(count):
        _same_bits(unary[i], xs[i] @ model.unary.T)
        one = inference._scaled_forward(unary[i], model.transition)
        assert one[0]
        for got, want in zip((alpha[i], kernel, psi[i], scale[i], log_z[i]), one[1:]):
            _same_bits(got, want)
        _same_bits(nll[i], crf_nll_and_gradient(model, xs[i], ys[i])[0])


def test_batched_forward_drops_rows_past_the_scaled_range():
    """Rows past ``_SCALED_RANGE_LIMIT`` never enter the scaled recursion, so
    a batch that mixes them with rows inside it raises no ``RuntimeWarning``,
    and their values come from the log-space recursion."""
    import warnings

    rng = np.random.default_rng(30)
    n, length = 5, 6
    model = ChainModel(rng.normal(size=(n, 3)), rng.normal(size=(n, n)))
    xs = rng.normal(size=(8, length, 3))
    far = np.array([1, 4, 5])
    xs[far] *= 1e4  # unary ranges of thousands of nats
    ys = rng.integers(0, n, size=(8, length))
    unary = xs @ model.unary.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside, alpha, *_, log_z = inference._scaled_forward(unary, model.transition)
        nll = inference._crf_nll(model, xs, ys)
    np.testing.assert_array_equal(np.flatnonzero(~inside), far)
    assert alpha.shape == (8 - far.size, length, n) and log_z.shape == (8 - far.size,)
    for i in range(8):
        if i in far:
            log_space = inference._log_space_forward_backward(unary[i], model.transition)
            _same_bits(nll[i], log_space.log_partition - sequence_score(model, xs[i], ys[i]))
        _same_bits(nll[i], crf_nll_and_gradient(model, xs[i], ys[i])[0])


def test_ssvm_evaluation_checks_each_instance_once(monkeypatch):
    """``ssvm_loss_and_subgradient`` checks its instance and then decodes
    unchecked; the checked ``loss_augmented_viterbi`` keeps its own check,
    and the SSVM step's ``hinge_violation`` still goes through it."""
    rng = np.random.default_rng(31)
    model = ChainModel(rng.normal(size=(4, 3)), rng.normal(size=(4, 4)))
    x, y = rng.normal(size=(5, 3)), rng.integers(0, 4, size=5)
    want = ssvm_loss_and_subgradient(model, x, y)
    calls = {"_check_instance": 0, "loss_augmented_viterbi": 0}
    for name in calls:
        real = getattr(inference, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(inference, name, counted)
    got = ssvm_loss_and_subgradient(model, x, y)
    assert calls == {"_check_instance": 1, "loss_augmented_viterbi": 0}
    _same_bits(got[0], want[0])
    _same_bits(got[1], want[1])
    inference.hinge_violation(model, x, y)
    assert calls == {"_check_instance": 2, "loss_augmented_viterbi": 1}
