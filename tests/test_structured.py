"""Chain scorers, joint features, exact structured losses, regret oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import (
    BaseLoss,
    ChainModel,
    DomainError,
    EnumerationLimitError,
    LinearCoreSpec,
    ONE_SIDED,
    feature_radius_bound,
    feature_radius_exact,
    hamming_loss,
    joint_feature,
    lc_value,
    mc_conditional_regrets,
    model_weights,
    sequence_score,
    structured_conditional_regrets,
    structured_sum_loss_exact,
    structured_sum_loss_gradient_exact,
    weights_to_model,
)
from lincore import structured
from lincore.structured import (
    _chain_scores,
    _feature_delta,
    all_sequence_scores,
    enumerate_sequences,
    feature_difference,
    similarity_weights,
    validate_loss_matrix,
)

EXP_SYM = LinearCoreSpec(BaseLoss.exponential())
LOG_ONE = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)


def random_model(rng, n_labels, dim, scale=1.0):
    return ChainModel(
        scale * rng.normal(size=(n_labels, dim)), scale * rng.normal(size=(n_labels, n_labels))
    )


class TestHamming:
    def test_half_mismatch(self):
        assert hamming_loss([1, 2], [1, 3]) == 0.5

    def test_extremes(self):
        y = np.array([0, 1, 2, 1])
        assert hamming_loss(y, y) == 0.0
        assert hamming_loss(y, (y + 1) % 3) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            hamming_loss([0, 1], [0, 1, 2])


class TestScoresAndFeatures:
    def test_zero_model_scores_zero(self):
        model = ChainModel.zeros(3, 2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        for seq in enumerate_sequences(3, 4)[::17]:
            assert sequence_score(model, x, seq) == 0.0

    def test_single_position_has_no_transitions(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 3, 2)
        x = rng.normal(size=(1, 2))
        assert sequence_score(model, x, [2]) == pytest.approx(float(model.unary[2] @ x[0]))

    def test_score_is_linear_in_weights_via_joint_feature(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            model = random_model(rng, n, 3)
            x = rng.normal(size=(length, 3))
            y = rng.integers(0, n, size=length)
            direct = sequence_score(model, x, y)
            via_features = float(model_weights(model) @ joint_feature(n, x, y))
            assert direct == pytest.approx(via_features, abs=1e-12)

    def test_batch_and_single_scores_agree_bitwise(self):
        """One arithmetic: a sequence scores the same bits alone or in a batch."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            length = int(rng.integers(1, 12))
            model = random_model(rng, n, 5)
            x = rng.normal(size=(length, 5))
            seqs = rng.integers(0, n, size=(6, length))
            singles = [sequence_score(model, x, seq) for seq in seqs]
            assert all_sequence_scores(model, x, seqs).tolist() == singles

    @pytest.mark.parametrize(
        "seqs",
        [[[-1, 0]], [[3, 0]], [[1]], [[0, 1, 2]], [0, 1], [[0.0, 1.0]]],
        ids=["wrapped_label", "label_too_large", "short", "long", "one_dim", "float"],
    )
    def test_batch_scores_reject_malformed_sequences(self, seqs):
        """-1 used to wrap to the last label and a short row to score a prefix."""
        model = ChainModel(np.arange(6.0).reshape(3, 2), np.zeros((3, 3)))
        with pytest.raises(DomainError):
            all_sequence_scores(model, np.ones((2, 2)), np.array(seqs))

    def test_flat_layout_round_trip(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 4, 5)
        rebuilt = weights_to_model(model_weights(model), 4, 5)
        np.testing.assert_array_equal(rebuilt.unary, model.unary)
        np.testing.assert_array_equal(rebuilt.transition, model.transition)

    def test_feature_radius_bounds_every_sequence(self):
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=(3, 2)) for _ in range(5)]
        exact = feature_radius_exact(xs, 3)
        bound = feature_radius_bound(xs, 3)
        assert bound >= exact
        for x in xs:
            for seq in enumerate_sequences(3, 3):
                assert np.linalg.norm(joint_feature(3, x, seq)) <= exact + 1e-12


class TestExactStructuredLoss:
    def test_zero_model_single_position(self):
        value = structured_sum_loss_exact(EXP_SYM, ChainModel.zeros(2, 2), np.zeros((1, 2)), [0])
        assert value == pytest.approx(lc_value(EXP_SYM, 0.0))

    def test_independent_double_loop_oracle(self):
        """Hand-rolled 4x4 double loop over L=2, |Y|=2 sequences."""
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=(2, 3))
        y = np.array([1, 0])
        seqs = [(a, b) for a in range(2) for b in range(2)]
        scores = {
            seq: model.unary[seq[0]] @ x[0]
            + model.unary[seq[1]] @ x[1]
            + model.transition[seq[0], seq[1]]
            for seq in seqs
        }
        expected = 0.0
        for outer in seqs:
            weight = 1.0 - (int(outer[0] != y[0]) + int(outer[1] != y[1])) / 2.0
            for inner in seqs:
                if inner == outer:
                    continue
                expected += weight * lc_value(EXP_SYM, scores[outer] - scores[inner])
        got = structured_sum_loss_exact(EXP_SYM, model, x, y)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_distant_labels_contribute_nothing(self):
        """Weights vanish for maximally distant candidates under 0-1 distance."""
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 2)
        x = rng.normal(size=(1, 2))
        seqs = enumerate_sequences(2, 1)
        scores = all_sequence_scores(model, x, seqs)
        expected = lc_value(EXP_SYM, float(scores[0] - scores[1]))
        assert structured_sum_loss_exact(EXP_SYM, model, x, [0]) == pytest.approx(expected)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for spec in (EXP_SYM, LOG_ONE):
            model = random_model(rng, 2, 2, scale=0.5)
            x = rng.normal(size=(3, 2))
            y = rng.integers(0, 2, size=3)
            grad = structured_sum_loss_gradient_exact(spec, model, x, y)
            w = model_weights(model)
            fd = np.zeros_like(w)
            for i in range(w.size):
                up, down = w.copy(), w.copy()
                up[i] += 1e-6
                down[i] -= 1e-6
                fd[i] = (
                    structured_sum_loss_exact(spec, weights_to_model(up, 2, 2), x, y)
                    - structured_sum_loss_exact(spec, weights_to_model(down, 2, 2), x, y)
                ) / 2e-6
            np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_convex_along_weight_segments(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2))
        y = np.array([0, 1])
        for _ in range(40):
            w_a = rng.normal(size=2 * 2 + 4)
            w_b = rng.normal(size=2 * 2 + 4)
            mid = structured_sum_loss_exact(EXP_SYM, weights_to_model((w_a + w_b) / 2, 2, 2), x, y)
            chord = 0.5 * (
                structured_sum_loss_exact(EXP_SYM, weights_to_model(w_a, 2, 2), x, y)
                + structured_sum_loss_exact(EXP_SYM, weights_to_model(w_b, 2, 2), x, y)
            )
            assert mid <= chord + 1e-10

    def test_enumeration_guard(self):
        model = ChainModel.zeros(4, 2)
        x = np.zeros((7, 2))
        with pytest.raises(EnumerationLimitError):
            structured_sum_loss_exact(EXP_SYM, model, x, np.zeros(7, dtype=int))


class TestStructuredRegrets:
    def test_argmax_at_target_minimum_gives_zero_target_regret(self):
        ell = np.array([[0.0, 0.4, 1.0], [0.4, 0.0, 0.6], [1.0, 0.6, 0.0]])
        p = np.array([0.2, 0.5, 0.3])
        best = int(np.argmin(ell @ p))
        scores = np.zeros(3)
        scores[best] = 1.0
        regret_target, _ = structured_conditional_regrets(EXP_SYM, p, scores, ell)
        assert regret_target == 0.0

    @pytest.mark.parametrize("side_spec", [EXP_SYM, LOG_ONE], ids=["exp-sym", "log-one"])
    def test_pointwise_consistency_inequality(self, side_spec):
        """300 draws, grouped by label count into one batched call each; the
        first few draws also go through the single-input path."""
        rng = np.random.default_rng(9)
        draws: dict[int, list] = {}
        for i in range(300):
            n = int(rng.integers(3, 7))
            p = rng.dirichlet(np.ones(n))
            scores = rng.normal(scale=2.0, size=n)
            ell = rng.uniform(0, 1, size=(n, n))
            np.fill_diagonal(ell, 0.0)
            draws.setdefault(n, []).append((p, scores, ell))
            if i < 3:
                regret_target, regret_sur = structured_conditional_regrets(side_spec, p, scores, ell)
                assert regret_target <= regret_sur + 1e-8
        assert sum(len(group) for group in draws.values()) == 300
        for group in draws.values():
            p, scores, ell = (np.stack(part) for part in zip(*group))
            regret_target, regret_sur = structured_conditional_regrets(side_spec, p, scores, ell)
            assert regret_target.shape == (len(group),)
            assert np.all(regret_target <= regret_sur + 1e-8)

    def test_zero_one_matrix_reduces_to_multiclass(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            scores = rng.normal(size=n)
            ell = 1.0 - np.eye(n)
            struct = structured_conditional_regrets(EXP_SYM, p, scores, ell)
            multi = mc_conditional_regrets(EXP_SYM, p, scores)
            assert struct[0] == pytest.approx(multi[0], abs=1e-10)
            assert struct[1] == pytest.approx(multi[1], abs=1e-10)

    def test_loss_matrix_validation(self):
        with pytest.raises(DomainError):
            validate_loss_matrix(np.array([[0.0, 1.2], [0.3, 0.0]]))
        with pytest.raises(DomainError):
            validate_loss_matrix(np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(DomainError):
            validate_loss_matrix(np.array([[0.0, -0.1], [0.5, 0.0]]))

    def test_size_guard(self):
        n = 9
        ell = 1.0 - np.eye(n)
        with pytest.raises(EnumerationLimitError):
            structured_conditional_regrets(EXP_SYM, np.ones(n) / n, np.zeros(n), ell)


def test_chunked_enumeration_matches_single_block(monkeypatch):
    """Row-blocked pairwise sums agree with the one-shot computation."""
    import lincore.structured as structured_module

    rng = np.random.default_rng(11)
    model = random_model(rng, 3, 2, scale=0.4)
    x = rng.normal(size=(4, 2))
    y = rng.integers(0, 3, size=4)
    value_full = structured_sum_loss_exact(EXP_SYM, model, x, y)
    grad_full = structured_sum_loss_gradient_exact(EXP_SYM, model, x, y)
    monkeypatch.setattr(structured_module, "_CHUNK_ELEMENTS", 7 * 81)
    value_chunked = structured_sum_loss_exact(EXP_SYM, model, x, y)
    grad_chunked = structured_sum_loss_gradient_exact(EXP_SYM, model, x, y)
    assert value_chunked == pytest.approx(value_full, rel=1e-12)
    np.testing.assert_allclose(grad_chunked, grad_full, rtol=1e-12, atol=1e-12)


def test_regret_oracle_matches_direct_conditional_error():
    """The similarity-mixed pairwise path equals the per-label double loop."""
    from lincore import lc_value as phi

    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        p = rng.dirichlet(np.ones(n))
        scores = rng.normal(size=n)
        ell = rng.uniform(0, 1, size=(n, n))
        np.fill_diagonal(ell, 0.0)
        # Direct definition: expected (over labels) similarity-weighted sum loss.
        realized = 0.0
        for label in range(n):
            for cand in range(n):
                weight = p[label] * (1.0 - ell[cand, label])
                for other in range(n):
                    if other != cand:
                        realized += weight * phi(EXP_SYM, scores[cand] - scores[other])
        mixed = (1.0 - ell) @ p
        from lincore import weighted_margin_infimum
        from lincore.losses import linear_core_margin_loss

        loss = linear_core_margin_loss(EXP_SYM)
        ii, jj = np.triu_indices(n, k=1)
        best = float(np.sum(weighted_margin_infimum(loss, mixed[ii], mixed[jj]).value))
        _, regret_sur = structured_conditional_regrets(EXP_SYM, p, scores, ell)
        assert regret_sur == pytest.approx(realized - best, abs=1e-9)


def test_joint_feature_rejects_labels_out_of_range():
    """The label -1 used to wrap to the last label's row."""
    with pytest.raises(DomainError):
        joint_feature(3, np.ones((2, 2)), [-1, 0])
    with pytest.raises(DomainError):
        joint_feature(3, np.ones((2, 2)), [0, 3])


def test_joint_feature_rejects_float_labels():
    """A float label used to be truncated to the integer below it."""
    with pytest.raises(DomainError):
        joint_feature(3, np.ones((2, 2)), [0.5, 1.0])


class TestBatchedStructuredRegrets:
    def test_nan_probability_raises(self):
        """A NaN in p used to pass the sum check and return (nan, nan)."""
        ell = 0.5 * (1.0 - np.eye(3))
        with pytest.raises(DomainError):
            structured_conditional_regrets(
                LOG_ONE, np.array([np.nan, 0.5, 0.5]), np.array([0.0, 1.0, 2.0]), ell
            )

    @pytest.mark.parametrize("spec", [EXP_SYM, LOG_ONE], ids=["exp-sym", "log-one"])
    def test_rows_match_single_calls(self, spec):
        rng = np.random.default_rng(13)
        for n in (2, 3, 6, 8):
            p = rng.dirichlet(np.ones(n), size=10)
            scores = rng.normal(scale=2.0, size=(10, n))
            ell = rng.uniform(0.0, 1.0, size=(10, n, n))
            ell[:, np.arange(n), np.arange(n)] = 0.0
            regret_target, regret_sur = structured_conditional_regrets(spec, p, scores, ell)
            assert regret_target.shape == regret_sur.shape == (10,)
            for k in range(10):
                single = structured_conditional_regrets(spec, p[k], scores[k], ell[k])
                assert all(isinstance(v, float) for v in single)
                assert np.asarray(single).tobytes() == np.array(
                    [regret_target[k], regret_sur[k]]
                ).tobytes()

    def test_batch_shapes_must_agree(self):
        p = np.full((2, 3), 1.0 / 3.0)
        ell = 1.0 - np.eye(3)
        with pytest.raises(DomainError):
            structured_conditional_regrets(EXP_SYM, p, np.zeros((2, 3)), ell)
        with pytest.raises(DomainError):
            structured_conditional_regrets(EXP_SYM, p[0], np.zeros(3), ell[None])
        with pytest.raises(DomainError):
            structured_conditional_regrets(EXP_SYM, p, np.zeros((2, 3)), np.stack([ell] * 3))
        big = np.stack([1.0 - np.eye(9)] * 2)
        with pytest.raises(EnumerationLimitError):
            structured_conditional_regrets(EXP_SYM, np.full((2, 9), 1 / 9), np.zeros((2, 9)), big)


def _memory_blocked_sum_loss(spec, model, x, y):
    """The batched sum loss with as many instance rows per block as the
    2**22-element memory budget holds: one block for every batch at m = 81."""
    seqs = enumerate_sequences(model.n_labels, x.shape[-2])
    scores = _chain_scores(model, x, seqs)
    weights = similarity_weights(seqs, y)
    count, m = scores.shape
    totals = np.zeros(count)
    phi0 = lc_value(spec, 0.0)
    anchors = max(1, 2**22 // m)
    for start in range(0, m, anchors):
        stop = min(start + anchors, m)
        rows = max(1, 2**22 // ((stop - start) * m))
        for first in range(0, count, rows):
            block = scores[first : first + rows]
            margins = block[:, start:stop, None] - block[:, None, :]
            inner = lc_value(spec, margins).sum(axis=2) - phi0
            for i, row in enumerate(inner, first):
                totals[i] += np.dot(weights[i, start:stop], row)
    return totals


class TestBatchedSumLoss:
    @pytest.mark.parametrize("spec", [EXP_SYM, LOG_ONE], ids=["exp-sym", "log-one"])
    def test_rows_match_single_calls_bitwise(self, spec):
        rng = np.random.default_rng(31)
        for n, length, count in ((2, 1, 3), (3, 4, 7), (4, 3, 1), (2, 6, 5)):
            model = random_model(rng, n, 3, scale=0.3)
            x = rng.normal(size=(count, length, 3))
            y = rng.integers(0, n, size=(count, length))
            values = structured_sum_loss_exact(spec, model, x, y)
            assert values.shape == (count,)
            for k in range(count):
                single = structured_sum_loss_exact(spec, model, x[k], y[k])
                assert isinstance(single, float)
                assert np.float64(single).tobytes() == values[k].tobytes()

    def test_chunked_rows_match_single_calls_bitwise(self, monkeypatch):
        """Blocks split both the anchors and the instances at the budget."""
        import lincore.structured as structured_module

        rng = np.random.default_rng(32)
        model = random_model(rng, 3, 2, scale=0.4)
        x = rng.normal(size=(5, 4, 2))
        y = rng.integers(0, 3, size=(5, 4))
        for budget in (7 * 81, 2 * 81 * 81, 3 * 81 * 81):
            monkeypatch.setattr(structured_module, "_CHUNK_ELEMENTS", budget)
            values = structured_sum_loss_exact(LOG_ONE, model, x, y)
            singles = [structured_sum_loss_exact(LOG_ONE, model, x[k], y[k]) for k in range(5)]
            assert values.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize(
        "spec, n_labels, length, count",
        [
            (LOG_ONE, 3, 4, 1),
            (LOG_ONE, 3, 4, 5),
            (LOG_ONE, 3, 4, 64),
            (EXP_SYM, 3, 4, 64),
            (LOG_ONE, 2, 12, 2),
        ],
        ids=["m81-1", "m81-5", "m81-64", "m81-64-exp-sym", "m4096-2"],
    )
    def test_cache_blocks_match_memory_blocks_bitwise(self, spec, n_labels, length, count):
        """Rows blocked at the cache budget give the bits of the rows blocked
        at the memory budget alone, and of each row's own call.  At m = 4096
        the memory budget also splits the anchors, into four blocks."""
        rng = np.random.default_rng(34)
        model = random_model(rng, n_labels, 3, scale=0.4)
        x = rng.normal(size=(count, length, 3))
        y = rng.integers(0, n_labels, size=(count, length))
        values = structured_sum_loss_exact(spec, model, x, y)
        assert values.tobytes() == _memory_blocked_sum_loss(spec, model, x, y).tobytes()
        for k in range(count):
            single = structured_sum_loss_exact(spec, model, x[k], y[k])
            assert np.float64(single).tobytes() == values[k].tobytes()

    def test_batched_scores_match_single_rows_bitwise(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, 4, 5)
        seqs = enumerate_sequences(4, 3)
        x = rng.normal(size=(6, 3, 5))
        rows = _chain_scores(model, x, seqs)
        for k in range(6):
            assert rows[k].tobytes() == all_sequence_scores(model, x[k], seqs).tobytes()

    @pytest.mark.parametrize("n_labels, length", [(3, 1), (3, 4), (60, 20), (400, 9)])
    def test_own_sequence_scores_match_single_rows_bitwise(self, n_labels, length):
        """``(N, K, L)`` sequences score each instance's own ``K`` rows with
        the bits of that instance's ``(L, d)`` call."""
        rng = np.random.default_rng([33, n_labels, length])
        model = random_model(rng, n_labels, 5)
        x = rng.normal(size=(6, length, 5))
        seqs = rng.integers(0, n_labels, size=(6, 3, length))
        rows = _chain_scores(model, x, seqs)
        assert rows.shape == (6, 3)
        for k in range(6):
            assert rows[k].tobytes() == _chain_scores(model, x[k], seqs[k]).tobytes()

    def test_batch_validation(self):
        model = ChainModel.zeros(3, 2)
        x = np.zeros((2, 4, 2))
        with pytest.raises(DomainError):
            structured_sum_loss_exact(LOG_ONE, model, x, np.zeros((2, 3), dtype=int))
        with pytest.raises(DomainError):
            structured_sum_loss_exact(LOG_ONE, model, x, np.zeros(4, dtype=int))
        with pytest.raises(DomainError):
            structured_sum_loss_exact(LOG_ONE, model, x, np.array([[0, 0, 0, 0], [0, 3, 0, 0]]))
        with pytest.raises(DomainError):
            structured_sum_loss_exact(LOG_ONE, model, np.zeros((0, 4, 2)), np.zeros((0, 4), dtype=int))
        with pytest.raises(DomainError):
            structured_sum_loss_exact(LOG_ONE, model, np.zeros((2, 4, 3)), np.zeros((2, 4), dtype=int))
        bad = x.copy()
        bad[1, 2, 0] = np.nan
        with pytest.raises(DomainError):
            structured_sum_loss_exact(LOG_ONE, model, bad, np.zeros((2, 4), dtype=int))
        with pytest.raises(EnumerationLimitError):
            structured_sum_loss_exact(
                LOG_ONE, ChainModel.zeros(5, 2), np.zeros((2, 6, 2)), np.zeros((2, 6), dtype=int)
            )


N_LABELS, LENGTH, ROWS = 3, 3, 2


@st.composite
def label_arrays(draw):
    """``(ROWS, LENGTH)`` labels that are in range, or that break the label
    rule in every row: negative, too large, float, huge float or bool."""
    kind = draw(st.sampled_from(["in_range", "negative", "too_large", "float", "huge_float", "bool"]))
    cells = st.integers(0, N_LABELS - 1)
    y = np.array(draw(st.lists(cells, min_size=ROWS * LENGTH, max_size=ROWS * LENGTH))).reshape(ROWS, LENGTH)
    column = draw(st.integers(0, LENGTH - 1))
    if kind == "in_range":
        return kind, y.astype(draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64])))
    if kind == "negative":
        y[:, column] = draw(st.integers(-(2**63), -1))
        return kind, y
    if kind == "too_large":
        dtype = draw(st.sampled_from([np.int64, np.uint64]))
        y = y.astype(dtype)
        y[:, column] = draw(st.integers(N_LABELS, np.iinfo(dtype).max))
        return kind, y
    if kind == "float":
        y = y.astype(np.float64)
        y[:, column] += draw(st.sampled_from([0.0, 0.5, 0.7]))
        return kind, y
    if kind == "huge_float":
        y = y.astype(np.float64)
        y[:, column] = draw(st.sampled_from([1e30, -1e30, 2.0**63, np.inf, np.nan]))
        return kind, y
    return kind, y.astype(bool)


@given(case=label_arrays(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_one_label_rule_at_every_entry_point(case, seed):
    """Every chain entry point applies the same label rule, silently: all
    accept or all raise DomainError, and batched rows keep the single bits."""
    kind, y = case
    rng = np.random.default_rng(seed)
    model = random_model(rng, N_LABELS, 2, scale=0.3)
    x = rng.normal(size=(ROWS, LENGTH, 2))
    calls = [lambda: structured_sum_loss_exact(LOG_ONE, model, x, y)]
    for k in range(ROWS):
        calls += [
            lambda k=k: structured_sum_loss_exact(LOG_ONE, model, x[k], y[k]),
            lambda k=k: sequence_score(model, x[k], y[k]),
            lambda k=k: all_sequence_scores(model, x[k], y),
            lambda k=k: joint_feature(N_LABELS, x[k], y[k]),
        ]
    outcomes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in calls:
            try:
                outcomes.append(call())
            except DomainError:
                outcomes.append(None)
    assert not caught, [str(w.message) for w in caught]
    if kind != "in_range":
        assert all(outcome is None for outcome in outcomes)
        return
    assert all(outcome is not None for outcome in outcomes)
    singles = np.array(outcomes[1::4])
    assert outcomes[0].tobytes() == singles.tobytes()


def _ordered_sum(n_labels, x, sequences, coeffs):
    """Dense ``sum_k coeffs[k] * joint_feature(sequences[k])``, each entry
    added from 0.0 one term at a time in ``(k, position)`` order."""
    unary = np.zeros((n_labels, x.shape[1]))
    transition = np.zeros((n_labels, n_labels))
    for seq, coeff in zip(sequences.tolist(), coeffs.tolist()):
        for j, label in enumerate(seq):
            unary[label] += coeff * x[j]
        for a, b in zip(seq[:-1], seq[1:]):
            transition[a, b] += coeff
    return np.concatenate([unary.ravel(), transition.ravel()])


# Signed zeros beside magnitudes from 1e-5 to 1e4 of either sign.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-5, 1e4).flatmap(lambda v: st.sampled_from([v, -v])),
)


@st.composite
def delta_cases(draw):
    """Sequences over Y in {2, 3, 100, 400}, L from 1, with coefficients,
    inputs and weights holding signed zeros.  Most cases draw their labels
    from a pool of at most three, so cells and unary rows repeat."""
    n_labels = draw(st.sampled_from([2, 3, 100, 400]))
    count, length, dim = draw(st.integers(1, 6)), draw(st.integers(1, 10)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = min(draw(st.sampled_from([n_labels, 1, 2, 3])), n_labels)
    sequences = rng.choice(rng.choice(n_labels, size=alphabet, replace=False), size=(count, length))
    entries = lambda n: np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))  # noqa: E731
    split = draw(st.none() if count == 1 else st.one_of(st.none(), st.integers(1, count - 1)))
    model = ChainModel(
        np.resize(entries(7), (n_labels, dim)), np.resize(entries(11), (n_labels, n_labels))
    )
    return (
        sequences,
        entries(count),
        entries(length * dim).reshape(length, dim),
        split,
        model,
        draw(st.sampled_from([0.0, 1e-3, 0.37, 5.0])),
    )


@pytest.mark.parametrize("cells_per_edge", [0, None, 2**40], ids=["touched", "rule", "whole"])
@settings(max_examples=75, deadline=None)
@given(case=delta_cases())
def test_feature_delta_matches_ordered_dense_sums_bitwise(cells_per_edge, case):
    """The sparse-update kernel against dense sums of ``joint_feature``
    terms, bit for bit (signed zeros included), on both transition layouts:
    the densified delta, and ``weights - step * delta`` after
    ``subtract_from``, which skips the cells the sequences leave at 0.0."""
    sequences, coeffs, x, split, model, step = case
    n_labels = model.n_labels
    ratio = structured._CELLS_PER_EDGE if cells_per_edge is None else cells_per_edge
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structured, "_CELLS_PER_EDGE", ratio)
        delta = _feature_delta(n_labels, x, sequences, coeffs, split)
    edges = sequences.shape[0] * (sequences.shape[1] - 1)
    assert isinstance(delta.cells, slice) == (ratio * edges >= n_labels**2)
    if split is None:
        want = _ordered_sum(n_labels, x, sequences, coeffs)
    else:
        want = _ordered_sum(n_labels, x, sequences[:split], coeffs[:split]) - _ordered_sum(
            n_labels, x, sequences[split:], coeffs[split:]
        )
    assert delta.dense().tobytes() == want.tobytes()
    expected = model_weights(model) - step * want
    delta.subtract_from(model, step)
    assert model_weights(model).tobytes() == expected.tobytes()


@settings(max_examples=75, deadline=None)
@given(case=delta_cases())
def test_feature_difference_is_the_difference_of_joint_features(case):
    """Unit coefficients sum each sequence in ``joint_feature``'s own order."""
    sequences, _, x, _, model, _ = case
    plus, minus = sequences[0], sequences[-1]
    n_labels = model.n_labels
    single = _ordered_sum(n_labels, x, plus[None], np.ones(1))
    assert single.tobytes() == joint_feature(n_labels, x, plus).tobytes()
    want = joint_feature(n_labels, x, plus) - joint_feature(n_labels, x, minus)
    assert feature_difference(n_labels, x, plus, minus).dense().tobytes() == want.tobytes()
