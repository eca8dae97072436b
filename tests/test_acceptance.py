"""End-to-end acceptance suite.

One test per shipped numerical claim, each at its stated tolerance; the
conftest hook prints a per-criterion summary line after the run.  The two
strict-xfail cases document a real property of the width-scaled surrogates:
their transformation obeys the linear bound with constant ``tau`` (checked
and passing below), not ``1/tau``, so the ``1/tau`` inequality is provably
violated for widths below one.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lincore import (
    BaseLoss,
    ChainModel,
    LEFT,
    LinearCoreSpec,
    ONE_SIDED,
    PairProposal,
    RIGHT,
    TrainConfig,
    ce_gradient,
    ce_loss,
    crf_nll_and_gradient,
    empirical_gradient_variance,
    exact_pair_estimator_expectation,
    feature_radius_exact,
    forward_backward,
    gce_gradient,
    gce_loss,
    generate_hmm_split,
    lc_branch_second_derivative,
    lc_derivative,
    lc_ksample_gradient_estimate,
    lc_value,
    linear_core_margin_loss,
    loss_augmented_viterbi,
    mc_conditional_regrets,
    mc_sum_loss,
    mc_sum_loss_gradient,
    model_weights,
    restricted_pair_infimum,
    sgd_train,
    structured_conditional_regrets,
    structured_sum_loss_exact,
    structured_sum_loss_gradient_exact,
    transformation_T,
    transformation_min_slack,
    uniform_negative_gradient_exact,
    viterbi,
    weights_to_model,
)
from lincore.datagen import HmmSpec
from lincore.experiments import run_noise, run_rates, run_scaling, run_stability, run_train_seq
from lincore.losses import SYMMETRIC
from lincore.minimize import minimize_convex
from lincore.structured import all_sequence_scores, enumerate_sequences
from lincore.trainers import UNIFORM_FULL

ALL_BASES = [BaseLoss.logistic(), BaseLoss.exponential(), BaseLoss.quartic_linear()]
BOTH_SIDES = (SYMMETRIC, ONE_SIDED)


def test_criterion_01_rate_slopes():
    """Linear-core slopes near 1, plain-loss slopes near 1/2, in under 10 s."""
    start = time.perf_counter()
    result = run_rates()
    elapsed = time.perf_counter() - start
    assert 0.95 <= result.slopes["lc_logistic"] <= 1.05
    assert 0.95 <= result.slopes["lc_exponential"] <= 1.05
    assert 0.45 <= result.slopes["logistic"] <= 0.55
    assert 0.45 <= result.slopes["exponential"] <= 0.55
    assert elapsed < 10.0


def test_criterion_02_transformation_linear_bound_unit_width():
    ts = np.linspace(0.0, 1.0, 200)
    for base in ALL_BASES:
        for side in BOTH_SIDES:
            loss = linear_core_margin_loss(LinearCoreSpec(base, side=side))
            assert transformation_min_slack(loss, ts, 1.0) >= -1e-8
            assert transformation_T(loss, 0.0) <= 1e-9
    exp_loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss.exponential()))
    analytic = 1.0 + ts - np.sqrt(1.0 - ts**2)
    assert np.max(np.abs(transformation_T(exp_loss, ts) - analytic)) < 1e-8


_TAU_BOUND_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "for core half-width tau the attainable linear lower bound is "
        "T(t) >= tau*t (exact exponential form: T(t) = tau*t + 1 - sqrt(1-t^2)); "
        "the 1/tau constant exceeds it everywhere on (0, 1] when tau < 1"
    ),
)


@pytest.mark.parametrize(
    "tau",
    [
        pytest.param(0.1, marks=_TAU_BOUND_XFAIL),
        pytest.param(0.5, marks=_TAU_BOUND_XFAIL),
        1.0,
        2.0,
        5.0,
    ],
)
def test_criterion_02_transformation_scaled_width_stated_bound(tau):
    """Stated scaled-width bound T(t) >= t/tau."""
    ts = np.linspace(0.0, 1.0, 200)
    loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss.exponential(), tau=tau))
    assert transformation_min_slack(loss, ts, 1.0 / tau) >= -1e-8


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_criterion_02_transformation_scaled_width_attainable_bound(tau):
    """The width-scaled cores do satisfy the provable bound T(t) >= tau*t."""
    ts = np.linspace(0.0, 1.0, 200)
    for base in (BaseLoss.logistic(), BaseLoss.exponential()):
        loss = linear_core_margin_loss(LinearCoreSpec(base, tau=tau))
        assert transformation_min_slack(loss, ts, tau) >= -1e-8


def test_criterion_03_tau_stability():
    result = run_stability()
    slopes = {row.tau: row.slope for row in result.rows}
    for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert 0.95 <= slopes[tau] <= 1.05, f"tau={tau}: slope {slopes[tau]:.4f}"
    assert 0.45 <= slopes[1e-5] <= 0.6, f"vanishing-core slope {slopes[1e-5]:.4f}"


def test_criterion_04_smoothness_suite():
    rng = np.random.default_rng(17)
    for base in ALL_BASES:
        for side in BOTH_SIDES:
            spec = LinearCoreSpec(base, side=side)
            # C1: finite differences across a grid that includes the knots.
            grid = np.concatenate([np.linspace(-7, 7, 997), [-1.0, 0.0, 1.0]])
            step = 1e-6
            fd = (lc_value(spec, grid + step) - lc_value(spec, grid - step)) / (2 * step)
            assert np.max(np.abs(fd - lc_derivative(spec, grid))) < 1e-4
            # Convexity on 1e5 random triples.
            triples = np.sort(rng.uniform(-9, 9, size=(100_000, 3)), axis=1)
            keep = triples[:, 2] - triples[:, 0] > 1e-9
            triples = triples[keep]
            lam = (triples[:, 1] - triples[:, 0]) / (triples[:, 2] - triples[:, 0])
            mid = lc_value(spec, triples[:, 1])
            chord = (1 - lam) * lc_value(spec, triples[:, 0]) + lam * lc_value(spec, triples[:, 2])
            assert np.all(mid <= chord + 1e-12)
    # C2 at the knots: exact agreement for the quartic-linear base.
    quartic = LinearCoreSpec(BaseLoss.quartic_linear())
    for knot in (-1.0, 1.0):
        assert lc_branch_second_derivative(quartic, knot, LEFT) == 0.0
        assert lc_branch_second_derivative(quartic, knot, RIGHT) == 0.0
    # Curvature jump for the smooth-tail bases equals Phi''(0)/Phi'(0).
    for base in (BaseLoss.logistic(), BaseLoss.exponential()):
        spec = LinearCoreSpec(base)
        jump = lc_branch_second_derivative(spec, 1.0, RIGHT) - lc_branch_second_derivative(
            spec, 1.0, LEFT
        )
        assert abs(jump - base.curvature_at_zero / base.slope_at_zero) < 1e-8


def test_criterion_05_restricted_pair_infimum():
    rng = np.random.default_rng(23)
    for base in (BaseLoss.logistic(), BaseLoss.exponential()):
        loss = linear_core_margin_loss(LinearCoreSpec(base))
        a = rng.uniform(0.0, 2.0, size=1000)
        b = rng.uniform(0.0, 2.0, size=1000)
        keep = a + b > 1e-9
        a, b = a[keep], b[keep]

        def g(u):
            return a * np.asarray(loss.value(-u)) + b * np.asarray(loss.value(u))

        def gp(u):
            return -a * np.asarray(loss.derivative(-u)) + b * np.asarray(loss.derivative(u))

        numeric = minimize_convex(
            g, gp, np.full(a.shape, -1.0), np.full(a.shape, 1.0), expand=False
        )
        closed = np.array([restricted_pair_infimum(base, ai, bi)[0] for ai, bi in zip(a, b)])
        assert np.max(np.abs(numeric.value - closed)) < 1e-9


def _reference_surrogate_regret(spec, weights, scores):
    """The pairwise surrogate regret with each pair infimum from scipy's
    bounded Brent search, so the check does not share lincore's minimizer."""

    def pair_infimum(w_pos, w_neg):
        pair = np.array([w_pos, w_neg])
        res = minimize_scalar(
            lambda u: pair @ lc_value(spec, np.array([u, -u])),
            bounds=(-60.0, 60.0),
            method="bounded",
            options={"xatol": 1e-10, "maxiter": 2000},
        )
        return float(res.fun)

    total = 0.0
    for i, j in zip(*np.triu_indices(scores.size, k=1)):
        margin = scores[i] - scores[j]
        realized = weights[i] * lc_value(spec, margin) + weights[j] * lc_value(spec, -margin)
        total += realized - pair_infimum(weights[i], weights[j])
    return total


def test_criterion_06_multiclass_pointwise_consistency():
    """Zero-one regret never exceeds surrogate regret; 1e4 draws in < 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    draws_per_combo = 625  # 4 sizes x 2 sides x 2 bases x 625 = 10_000
    checked = 0
    for n in (2, 3, 4, 5):
        for side in BOTH_SIDES:
            for base in (BaseLoss.logistic(), BaseLoss.exponential()):
                spec = LinearCoreSpec(base, side=side)
                p = rng.dirichlet(np.ones(n), size=draws_per_combo)
                scores = rng.normal(scale=2.0, size=(draws_per_combo, n))
                regret_01 = np.max(p, axis=1) - p[
                    np.arange(draws_per_combo), np.argmax(scores, axis=1)
                ]
                batch_01, regret_sur = mc_conditional_regrets(spec, p, scores)
                np.testing.assert_allclose(batch_01, regret_01, rtol=0, atol=1e-12)
                assert np.all(regret_01 <= regret_sur + 1e-8)
                # Tie the batched path to the per-draw oracle and to an
                # independent pair-infimum reference.
                for k in range(0, draws_per_combo, 125):
                    single = mc_conditional_regrets(spec, p[k], scores[k])
                    assert single[0] == pytest.approx(float(regret_01[k]), abs=1e-12)
                    assert single[1] == pytest.approx(float(regret_sur[k]), abs=1e-9)
                    reference = _reference_surrogate_regret(spec, p[k], scores[k])
                    assert reference == pytest.approx(float(regret_sur[k]), abs=1e-9)
                checked += draws_per_combo
    assert checked == 10_000
    assert time.perf_counter() - start < 60.0


def test_criterion_07_structured_pointwise_consistency():
    rng = np.random.default_rng(31)
    checked = 0
    for n in (3, 4, 5, 6):
        for side in BOTH_SIDES:
            batch = 1250
            spec = LinearCoreSpec(BaseLoss.logistic(), side=side)
            p = rng.dirichlet(np.ones(n), size=batch)
            scores = rng.normal(scale=2.0, size=(batch, n))
            ell = rng.uniform(0.0, 1.0, size=(batch, n, n))
            diag = np.arange(n)
            ell[:, diag, diag] = 0.0
            expected_loss = np.einsum("bij,bj->bi", ell, p)
            predicted = np.argmax(scores, axis=1)
            regret_target = (
                expected_loss[np.arange(batch), predicted] - expected_loss.min(axis=1)
            )
            mixed = np.einsum("bij,bj->bi", 1.0 - ell, p)
            batch_target, regret_sur = structured_conditional_regrets(spec, p, scores, ell)
            np.testing.assert_allclose(batch_target, regret_target, rtol=0, atol=1e-12)
            assert np.all(regret_target <= regret_sur + 1e-8)
            for k in range(0, batch, 250):
                single = structured_conditional_regrets(spec, p[k], scores[k], ell[k])
                assert single[0] == pytest.approx(float(regret_target[k]), abs=1e-12)
                assert single[1] == pytest.approx(float(regret_sur[k]), abs=1e-9)
                reference = _reference_surrogate_regret(spec, mixed[k], scores[k])
                assert reference == pytest.approx(float(regret_sur[k]), abs=1e-9)
            checked += batch
    assert checked == 10_000


def _reverse_lex_argmax(scores, seqs):
    best = float(np.max(scores))
    ties = seqs[scores == best]
    chosen = min(tuple(reversed(seq)) for seq in ties)
    return np.array(list(reversed(chosen)), dtype=np.int64), best


def test_criterion_08_exact_inference_oracles():
    rng = np.random.default_rng(37)
    size_pool = [(2, 8), (2, 12), (3, 6), (4, 5), (5, 4), (6, 4), (8, 3), (16, 3)]
    for trial in range(500):
        n, max_len = size_pool[trial % len(size_pool)]
        length = int(rng.integers(1, max_len + 1))
        model = ChainModel(rng.normal(size=(n, 3)), rng.normal(size=(n, n)))
        x = rng.normal(size=(length, 3))
        y = rng.integers(0, n, size=length)
        seqs = enumerate_sequences(n, length)
        scores = all_sequence_scores(model, x, seqs)

        expected_seq, expected_score = _reverse_lex_argmax(scores, seqs)
        got_seq, got_score = viterbi(model, x)
        assert abs(got_score - expected_score) < 1e-8
        np.testing.assert_array_equal(got_seq, expected_seq)

        augmented = scores + np.mean(seqs != y[None, :], axis=1)
        exp_aug_seq, exp_aug_score = _reverse_lex_argmax(augmented, seqs)
        got_aug_seq, got_aug_score = loss_augmented_viterbi(model, x, y)
        assert abs(got_aug_score - exp_aug_score) < 1e-8
        np.testing.assert_array_equal(got_aug_seq, exp_aug_seq)

        shift = scores.max()
        logz = float(np.log(np.sum(np.exp(scores - shift))) + shift)
        assert abs(forward_backward(model, x).log_partition - logz) < 1e-8


def _finite_difference(fn, w, step=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2 * step)
    return grad


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(41)
    specs = [LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED), LinearCoreSpec(BaseLoss.exponential())]
    for trial in range(100):
        n = int(rng.integers(2, 6))
        scores = rng.normal(scale=1.5, size=n)
        y = int(rng.integers(0, n))
        spec = specs[trial % 2]
        got = mc_sum_loss_gradient(spec, scores, y)
        fd = _finite_difference(lambda s: mc_sum_loss(spec, s, y), scores)
        assert np.max(np.abs(got - fd)) < 1e-5

        got = ce_gradient(scores, y)
        fd = _finite_difference(lambda s: ce_loss(s, y), scores)
        assert np.max(np.abs(got - fd)) < 1e-5

        q = float(rng.uniform(0.1, 1.0))
        got = gce_gradient(scores, y, q)
        fd = _finite_difference(lambda s: gce_loss(s, y, q), scores)
        assert np.max(np.abs(got - fd)) < 1e-5

    for trial in range(100):
        n = int(rng.integers(2, 4))
        length = int(rng.integers(1, 5))
        # Modest weight scale keeps sequence-score gaps small, so the
        # exponential-tail loss values stay in the range where the
        # central-difference oracle itself is accurate to well below 1e-5.
        model = ChainModel(0.25 * rng.normal(size=(n, 2)), 0.25 * rng.normal(size=(n, n)))
        x = 0.8 * rng.normal(size=(length, 2))
        y = rng.integers(0, n, size=length)
        w = model_weights(model)

        got = crf_nll_and_gradient(model, x, y)[1]
        fd = _finite_difference(
            lambda v: crf_nll_and_gradient(weights_to_model(v, n, 2), x, y)[0], w
        )
        assert np.max(np.abs(got - fd)) < 1e-5

        spec = specs[trial % 2]
        got = structured_sum_loss_gradient_exact(spec, model, x, y)
        # Step 1e-5: roundoff on loss values up to ~1e4 stays ~1e-7 while
        # truncation stays well below the tolerance.
        fd = _finite_difference(
            lambda v: structured_sum_loss_exact(spec, weights_to_model(v, n, 2), x, y),
            w,
            step=1e-5,
        )
        assert np.max(np.abs(got - fd)) < 1e-5


def test_criterion_10_pair_estimator_unbiasedness():
    """Exact sample-space expectation equals the exact gradient (<= 1e-10)."""
    rng = np.random.default_rng(43)
    proposal = PairProposal(0.3, UNIFORM_FULL)
    for n, length in [(2, 6), (2, 5), (2, 4), (4, 3), (8, 2), (4, 2)]:
        for side in BOTH_SIDES:
            spec = LinearCoreSpec(BaseLoss.logistic(), side=side)
            model = ChainModel(rng.normal(size=(n, 2)), rng.normal(size=(n, n)))
            x = rng.normal(size=(length, 2))
            y = rng.integers(0, n, size=length)
            expectation = exact_pair_estimator_expectation(model, x, y, spec, proposal)
            exact = structured_sum_loss_gradient_exact(spec, model, x, y)
            assert np.max(np.abs(expectation - exact)) < 1e-10


def test_criterion_11_variance_bound():
    spec = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)
    rng = np.random.default_rng(47)
    model = ChainModel(0.2 * rng.normal(size=(3, 2)), 0.2 * rng.normal(size=(3, 3)))
    x = rng.normal(size=(3, 2))
    y = rng.integers(0, 3, size=3)
    radius = feature_radius_exact([x], 3)
    exact = uniform_negative_gradient_exact(spec, model, x, y)
    variances = {}
    for k in (1, 4, 16, 64):
        variances[k] = empirical_gradient_variance(
            lambda m, xs, ys, r, k=k: lc_ksample_gradient_estimate(m, xs, ys, spec, k, r),
            model,
            x,
            y,
            trials=10_000,
            seed=53,
            true_gradient=exact,
        )
        assert variances[k] <= 4 * radius**2 / k, f"K={k}: {variances[k]:.4f}"
    assert 0.8 * variances[1] / 4 <= variances[4] <= 1.2 * variances[1] / 4


def test_criterion_12_scaling_shape():
    """SSVM pays the quadratic label cost; the pair sampler does not.

    The pair sampler's step is flat in Y and short, so one 220-step block
    times in about 13 ms, and such blocks time bimodally on a shared
    machine: two blocks of the same step can land 1.8x apart.  Its ratio is
    therefore the median over 7 rounds that each time both sizes afresh; a
    stall moves one round's ratio, not the verdict.
    """
    start = time.perf_counter()
    result = run_scaling()
    rounds = [run_scaling({"methods": ["lincore"], "label_sizes": [100, 400]}) for _ in range(7)]
    elapsed = time.perf_counter() - start
    per = {(row.method, row.n_labels): row.seconds_per_batch for row in result.rows}
    flat = [large.seconds_per_batch / small.seconds_per_batch for small, large in (r.rows for r in rounds)]
    assert per[("ssvm", 400)] / per[("ssvm", 100)] >= 4.0
    assert np.median(flat) <= 2.0, f"lincore 400/100 per round: {np.round(flat, 2)}"
    assert per[("ssvm", 400)] / per[("lincore", 400)] >= 5.0
    assert elapsed < 15 * 60


def _tail(values, fraction=0.1):
    count = max(2, int(len(values) * fraction))
    return np.asarray(values[-count:], dtype=float)


def test_criterion_13_training_efficacy_and_chattering():
    """Both objectives reach the error band; the hinge keeps chattering.

    Oscillation is compared as the coefficient of variation of the terminal
    objective window: the two train objectives live on scales ~1e6 apart
    (a [0,1] hinge against a weighted sum over the whole label space), so
    relative amplitude is the comparable notion of oscillation.
    """
    data = generate_hmm_split(
        HmmSpec(length=4, n_labels=3, dim=10, n_sequences=200, seed=0), n_test=100
    )
    histories = {}
    for objective, eta, rate in (("lincore", 1e-5, 0.5), ("ssvm", 0.01, 0.3)):
        config = TrainConfig(
            eta=eta,
            iterations=20_000,
            seed=0,
            objective=objective,
            corruption_rate=rate,
            eval_interval=200,
            eval_max_instances=32,
        )
        result = sgd_train(data, config)
        errors = [row.test_error for row in result.history]
        assert float(np.median(_tail(errors))) <= 0.05, f"{objective}: {errors[-10:]}"
        histories[objective] = [row.objective for row in result.history]
    def oscillation(track):
        tail = _tail(track)
        return float(np.std(tail) / abs(np.mean(tail)))
    assert oscillation(histories["ssvm"]) > oscillation(histories["lincore"])


def test_criterion_14_noise_robustness():
    config = {"noise_rates": [0.3, 0.4], "q_grid": [1.0]}
    wins = {0.3: 0, 0.4: 0}
    saturations = []
    spans = []
    for seed in range(5):
        result = run_noise(config, seed=seed)
        accuracy = {
            (a.loss, a.noise_rate): a.test_accuracy
            for a in result.accuracies
            if a.loss in ("ce", "lc")
        }
        for rate in (0.3, 0.4):
            wins[rate] += accuracy[("lc", rate)] >= accuracy[("ce", rate)]
        groups = result.gradient_groups
        saturations.append(float(np.mean(np.abs(groups["lc"].noisy - 1.0) <= 1e-9)))
        spans.append(float(groups["ce"].noisy.max() - groups["ce"].noisy.min()))
    assert wins[0.3] >= 3, f"LC beat CE on only {wins[0.3]}/5 seeds at rate 0.3"
    assert wins[0.4] >= 3, f"LC beat CE on only {wins[0.4]}/5 seeds at rate 0.4"
    assert min(saturations) >= 0.9
    assert min(spans) >= 0.2


def _rows_without(path: Path, drop: set) -> list:
    with open(path) as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in drop]
    return [[row[i] for i in keep] for row in rows]


def test_criterion_15_determinism(tmp_path):
    """Every artifact is byte-identical across reruns, timing columns aside."""
    from tests.test_experiments import (
        TINY_NOISE,
        TINY_RATES,
        TINY_SCALING,
        TINY_STABILITY,
        TINY_TRAIN,
    )

    runs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        run_rates(TINY_RATES, seed=11, out_dir=base / "rates")
        run_stability(TINY_STABILITY, seed=11, out_dir=base / "stability")
        run_train_seq(TINY_TRAIN, seed=11, out_dir=base / "train")
        run_noise(TINY_NOISE, seed=11, out_dir=base / "noise")
        run_scaling(TINY_SCALING, seed=11, out_dir=base / "scaling")
        runs[tag] = base

    identical = [
        "rates/rates.csv",
        "rates/slopes.json",
        "stability/stability.csv",
        "noise/noise.csv",
        "noise/grad_hist.csv",
    ]
    for name in identical:
        assert (runs["a"] / name).read_bytes() == (runs["b"] / name).read_bytes(), name
    assert _rows_without(runs["a"] / "train/history.csv", {"seconds"}) == _rows_without(
        runs["b"] / "train/history.csv", {"seconds"}
    )
    drop = {"seconds_per_batch", "cv", "cv_flag"}
    assert _rows_without(runs["a"] / "scaling/scaling.csv", drop) == _rows_without(
        runs["b"] / "scaling/scaling.csv", drop
    )
    for sub in ("rates", "stability", "train", "noise", "scaling"):
        config_a = json.loads((runs["a"] / sub / "manifest.json").read_text())["config"]
        config_b = json.loads((runs["b"] / sub / "manifest.json").read_text())["config"]
        assert config_a == config_b
