"""Experiment drivers: artifacts, schemas, config handling, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy

from lincore import ConfigError, DomainError, TrainingDivergedError
from lincore.datagen import IdnSpec, generate_idn_dataset
from lincore.experiments import (
    NOISE_DEFAULTS,
    _train_linear_stacked,
    run_noise,
    run_rates,
    run_scaling,
    run_stability,
    run_train_seq,
)
from lincore.losses import ONE_SIDED, BaseLoss, LinearCoreSpec
from lincore.multiclass import mc_sum_loss_gradient
from lincore.rng import DOMAIN_NOISE_TRAIN, stream_rng

TINY_RATES = {"delta_min": 1e-3, "delta_max": 1e-1, "n_deltas": 8}
TINY_STABILITY = {
    "robust_taus": [1.0],
    "vanishing_taus": [1e-4],
    "n_deltas": 8,
}
TINY_TRAIN = {
    "iterations": 150,
    "eval_interval": 50,
    "n_train": 12,
    "n_test": 4,
    "dim": 4,
    "eval_max_instances": 8,
}
TINY_NOISE = {
    "noise_rates": [0.4],
    "q_grid": [0.5],
    "n_train": 400,
    "n_test": 200,
    "epochs": 3,
}
TINY_SCALING = {
    "label_sizes": [4, 8],
    "length": 5,
    "dim": 4,
    "n_sequences": 4,
    "warmup_batches": 2,
    "timed_batches": 10,
}


def read_csv(path: Path) -> list:
    with open(path) as handle:
        return list(csv.reader(handle))


class TestConfigHandling:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            run_rates({"delta_mni": 1e-3})

    def test_defaults_are_not_mutated(self):
        before = dict(NOISE_DEFAULTS)
        run_noise(dict(TINY_NOISE), seed=0)
        assert NOISE_DEFAULTS == before

    @pytest.mark.parametrize(
        "driver, bad",
        [
            (run_rates, {"n_deltas": "x"}),
            (run_rates, {"delta_min": "1e-3"}),
            (run_rates, {"n_deltas": True}),
            (run_stability, {"n_deltas": 2.5}),
            (run_stability, {"base": 1}),
            (run_stability, {"robust_delta_max": float("nan")}),
            (run_scaling, {"dim": "x"}),
            (run_scaling, {"methods": "lincore"}),
            (run_noise, {"dim": 2.5}),
            (run_noise, {"eta": [0.05]}),
            (run_train_seq, {"eta": "x"}),
            (run_train_seq, {"eval_interval": 1.5}),
            (run_train_seq, {"objective": None}),
        ],
        ids=lambda value: value.__name__ if callable(value) else repr(value),
    )
    def test_override_of_the_wrong_kind_rejected(self, driver, bad, tmp_path):
        """These ended in a TypeError traceback, or (eval_interval 1.5) trained silently."""
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be "):
            driver(bad, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_integer_for_a_float_default_accepted(self):
        result = run_train_seq(dict(TINY_TRAIN, tau=1, n_test=np.int64(4), eta=np.float64(0.01)))
        assert result.config["tau"] == 1


class TestRatesDriver:
    def test_artifacts_and_schema(self, tmp_path):
        result = run_rates(TINY_RATES, seed=1, out_dir=tmp_path)
        rows = read_csv(tmp_path / "rates.csv")
        assert rows[0] == ["loss", "delta", "excess_surrogate", "excess_target"]
        assert len(rows) == 1 + 4 * TINY_RATES["n_deltas"]
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert set(slopes) == {"lc_logistic", "lc_exponential", "logistic", "exponential"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == dict(run_rates.__globals__["RATES_DEFAULTS"], **TINY_RATES)
        assert manifest["seed"] == 1
        assert result.slopes == slopes

    def test_manifest_records_versions_and_machine(self, tmp_path):
        run_rates(TINY_RATES, seed=0, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__
        assert manifest["machine"] == {
            "cpu_count": os.cpu_count(),
            "blas_threads": {
                name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        }
        assert manifest["artifacts"] == ["rates.csv", "slopes.json"]

    def test_rates_csv_deterministic(self, tmp_path):
        run_rates(TINY_RATES, seed=3, out_dir=tmp_path / "a")
        run_rates(TINY_RATES, seed=3, out_dir=tmp_path / "b")
        assert (tmp_path / "a/rates.csv").read_bytes() == (tmp_path / "b/rates.csv").read_bytes()
        assert (tmp_path / "a/slopes.json").read_bytes() == (tmp_path / "b/slopes.json").read_bytes()

    def test_manifest_records_phase_timings(self, tmp_path):
        run_rates(TINY_RATES, seed=0, out_dir=tmp_path)
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        phases = [timings[key] for key in ("seconds_curves", "seconds_fits")]
        assert min(phases) > 0.0
        assert sum(phases) <= timings["seconds_total"]

    @pytest.mark.parametrize("driver", [run_rates, run_stability], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n_deltas", [-1, 0, 4])
    def test_too_few_deltas_rejected_before_the_grid(self, driver, n_deltas, tmp_path):
        """A negative count used to end in a ValueError traceback from ``np.logspace``."""
        with pytest.raises(ConfigError, match=r"^n_deltas must be an integer in \[5, inf\]"):
            driver({"n_deltas": n_deltas}, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"delta_min": -1.0},
            {"delta_min": 0.0},
            {"delta_min": 0},
            {"delta_max": 0.5},
            {"delta_max": 0.7},
            {"delta_min": 0.05, "delta_max": 0.01},
            {"delta_min": 0.01, "delta_max": 0.01},
        ],
        ids=repr,
    )
    def test_bad_delta_bounds_rejected_before_the_grid(self, bad, tmp_path):
        """A bound at or below 0 used to reach ``np.log10`` and warn before a later error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="delta_min and delta_max must satisfy"):
                run_rates(dict(TINY_RATES, **bad), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestStabilityDriver:
    def test_rows_cover_both_sweeps_without_duplicates(self, tmp_path):
        result = run_stability(TINY_STABILITY, out_dir=tmp_path)
        taus = [row.tau for row in result.rows]
        assert taus == [1.0, 1e-4]
        rows = read_csv(tmp_path / "stability.csv")
        assert rows[0] == ["tau", "slope"]
        assert len(rows) == 3

    def test_duplicate_tau_keeps_the_robust_sweep_row(self):
        result = run_stability(
            {"robust_taus": [0.1], "vanishing_taus": [1e-1], "n_deltas": 8}
        )
        assert [row.tau for row in result.rows] == [0.1]

    def test_no_tau_rejected(self, tmp_path):
        """Both tau lists empty used to write a header-only stability.csv."""
        with pytest.raises(ConfigError):
            run_stability(dict(TINY_STABILITY, robust_taus=[], vanishing_taus=[]), out_dir=tmp_path)
        assert not (tmp_path / "stability.csv").exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"robust_taus": ["x"]},
            {"vanishing_taus": [1e-3, "0.1"]},
            {"robust_taus": [float("nan")]},
            {"vanishing_taus": [float("inf")]},
            {"robust_taus": [True]},
            {"robust_taus": 1.0},
        ],
        ids=repr,
    )
    def test_bad_tau_entries_rejected(self, bad, tmp_path):
        """A non-numeric tau used to end in a ValueError from ``float``."""
        with pytest.raises(ConfigError):
            run_stability(dict(TINY_STABILITY, **bad), out_dir=tmp_path)
        assert not (tmp_path / "stability.csv").exists()

    def test_manifest_records_phase_timings(self, tmp_path):
        run_stability(TINY_STABILITY, out_dir=tmp_path)
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        phases = [timings[key] for key in ("seconds_robust", "seconds_vanishing")]
        assert min(phases) > 0.0
        assert sum(phases) <= timings["seconds_total"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"robust_delta_min": 0.0},
            {"robust_delta_min": -1e-3},
            {"robust_delta_max": 0.6},
            {"vanishing_delta_min": 0.2, "vanishing_delta_max": 0.1},
            {"vanishing_delta_max": 0.5},
        ],
        ids=repr,
    )
    def test_bad_delta_bounds_rejected_before_the_grid(self, bad, tmp_path):
        """``robust_delta_min = 0`` used to send ``-inf`` through ``np.logspace`` with a warning."""
        prefix = next(iter(bad)).split("delta")[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^{prefix}delta_min and {prefix}delta_max"):
                run_stability(dict(TINY_STABILITY, **bad), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestTrainSeqDriver:
    def test_history_csv_schema(self, tmp_path):
        result = run_train_seq(TINY_TRAIN, seed=2, out_dir=tmp_path)
        rows = read_csv(tmp_path / "history.csv")
        assert rows[0] == ["iteration", "objective", "test_error", "seconds"]
        assert len(rows) == 1 + len(result.result.history)
        assert rows[1][0] == "0"
        assert rows[-1][0] == "150"

    def test_history_deterministic_excluding_seconds(self, tmp_path):
        run_train_seq(TINY_TRAIN, seed=5, out_dir=tmp_path / "a")
        run_train_seq(TINY_TRAIN, seed=5, out_dir=tmp_path / "b")
        rows_a = read_csv(tmp_path / "a/history.csv")
        rows_b = read_csv(tmp_path / "b/history.csv")
        assert [r[:3] for r in rows_a] == [r[:3] for r in rows_b]

    def test_manifest_lists_timing_columns(self, tmp_path):
        run_train_seq(TINY_TRAIN, seed=2, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nondeterministic_columns"]["history.csv"] == ["seconds"]

    def test_manifest_records_phase_timings(self, tmp_path):
        """The steps are part of training, and data plus training part of the run."""
        run_train_seq(TINY_TRAIN, seed=2, out_dir=tmp_path)
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        data, train, steps = (timings[f"seconds_{key}"] for key in ("data", "train", "steps"))
        assert 0.0 < steps <= train
        assert 0.0 < data
        assert data + train <= timings["seconds_total"]

    def test_bad_objective_rejected(self):
        with pytest.raises(Exception):
            run_train_seq(dict(TINY_TRAIN, objective="adaboost"))

    def test_zero_negatives_rejected_before_the_first_evaluation(self, monkeypatch):
        """``n_negatives = 0`` used to pass one exact evaluation before the first step raised."""
        import lincore.trainers

        calls = []
        monkeypatch.setattr(lincore.trainers, "_mean_objective", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="n_negatives"):
            run_train_seq(dict(TINY_TRAIN, objective="lincore_ksample", n_negatives=0))
        assert calls == []


class TestNoiseDriver:
    def test_accuracy_rows_and_histogram(self, tmp_path):
        result = run_noise(TINY_NOISE, seed=0, out_dir=tmp_path)
        rows = read_csv(tmp_path / "noise.csv")
        assert rows[0] == ["loss", "q", "noise_rate", "test_accuracy"]
        losses = [r[0] for r in rows[1:]]
        assert losses == ["ce", "gce", "gce_best", "lc"]
        hist = read_csv(tmp_path / "grad_hist.csv")
        assert hist[0] == ["loss", "group", "bin_left", "bin_right", "count"]
        groups = {(r[0], r[1]) for r in hist[1:]}
        assert groups == {("ce", "clean"), ("ce", "noisy"), ("lc", "clean"), ("lc", "noisy")}
        counts = sum(int(r[4]) for r in hist[1:] if r[0] == "ce")
        assert counts == TINY_NOISE["n_train"]
        assert 0.0 <= result.accuracies[0].test_accuracy <= 1.0

    def test_noise_csv_deterministic(self, tmp_path):
        run_noise(TINY_NOISE, seed=9, out_dir=tmp_path / "a")
        run_noise(TINY_NOISE, seed=9, out_dir=tmp_path / "b")
        assert (tmp_path / "a/noise.csv").read_bytes() == (tmp_path / "b/noise.csv").read_bytes()
        assert (
            tmp_path / "a/grad_hist.csv"
        ).read_bytes() == (tmp_path / "b/grad_hist.csv").read_bytes()


    def test_rate_rows_do_not_depend_on_the_other_rates(self, tmp_path):
        """The study fits its rates together; a rate's rows must not see its neighbours."""
        seen = set()
        for rates in ([0.4], [0.2, 0.3, 0.4], [0.0, 0.4]):
            out = tmp_path / "_".join(map(str, rates))
            run_noise(dict(TINY_NOISE, noise_rates=rates), seed=4, out_dir=out)
            lines = (out / "noise.csv").read_bytes().splitlines()
            rows = [line for line in lines if line.split(b",")[2] == b"0.4"]
            assert len(rows) == 4
            seen.add((b"\n".join(rows), (out / "grad_hist.csv").read_bytes()))
        assert len(seen) == 1

    def test_manifest_records_phase_timings(self, tmp_path):
        run_noise(TINY_NOISE, seed=0, out_dir=tmp_path)
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        phases = [timings[key] for key in ("seconds_data", "seconds_train", "seconds_eval")]
        assert min(phases) >= 0.0
        assert sum(phases) <= timings["seconds_total"]

    def test_a_runaway_fit_raises_naming_its_epoch(self, tmp_path):
        """At eta 1e8 the weights overflow within the first epoch: the fit stops
        after it with ``TrainingDivergedError``, not with a warning from inside
        a step or a silent NaN model."""
        config = {"eta": 1e8, "epochs": 2, "noise_rates": [0.4], "q_grid": [1.0]}
        with pytest.raises(TrainingDivergedError, match="in epoch 0: "):
            run_noise(config, out_dir=tmp_path)
        assert not (tmp_path / "noise.csv").exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"q_grid": [0.0]},
            {"q_grid": [-1.0]},
            {"q_grid": [float("nan")]},
            {"q_grid": [0.5, 1.5]},
            {"q_grid": []},
            {"q_grid": ["half"]},
            {"q_grid": ["0.5"]},
            {"q_grid": [True]},
            {"noise_rates": ["0.4"]},
            {"noise_rates": [0.4, True]},
            {"epochs": 0},
            {"batch_size": TINY_NOISE["n_train"] + 1},
            {"batch_size": 0},
            {"batch_size": 2.5},
            {"n_test": 0},
            {"n_bins": 0},
            {"hist_noise_rate": 0.3},
            {"noise_rates": [0.4, 0.4]},
            {"eta": 0.0},
            {"eta": float("inf")},
            {"eta": float("nan")},
            {"weight_decay": -0.01},
            {"weight_decay": float("nan")},
        ],
        ids=repr,
    )
    def test_bad_config_rejected(self, bad):
        with pytest.raises(ConfigError):
            run_noise(dict(TINY_NOISE, **bad))


def _softmax_2d(scores):
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


def _ce_oracle(scores, labels):
    return _softmax_2d(scores) - np.eye(scores.shape[1])[labels]


def _gce_oracle(scores, labels, q):
    probs = _softmax_2d(scores)
    scale = probs[np.arange(labels.size), labels] ** q
    return scale[:, None] * (probs - np.eye(scores.shape[1])[labels])


def _per_loss_fit(x, y, cfg, seed, grad_scores, *params):
    """One loss at a time: the trainer the stacked fit replaced, kept as its oracle."""
    weights = np.zeros((cfg["n_classes"], x.shape[1]))
    n, batch_size = x.shape[0], cfg["batch_size"]
    for epoch in range(cfg["epochs"]):
        order = stream_rng(seed, DOMAIN_NOISE_TRAIN, epoch).permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            batch = order[start : start + batch_size]
            xb = x[batch]
            grad = grad_scores(xb @ weights.T, y[batch], *params)
            weights -= cfg["eta"] * (grad.T @ xb / batch_size + cfg["weight_decay"] * weights)
    return weights


@pytest.mark.parametrize("rates", [[0.0, 0.2, 0.4], [0.4]], ids=["three_rates", "one_rate"])
@pytest.mark.parametrize("n_classes", [2, 3, 9])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("q_grid", [[0.5], [0.1, 0.5, 1.0]], ids=["sqrt", "grid"])
def test_stacked_fit_matches_per_loss_oracle_bitwise(seed, q_grid, n_classes, rates):
    """Every row of the stacked fit is the per-loss fit on the same batches, bit for bit.

    Each noise rate's rows equal the one-loss fits on that rate's own
    dataset: its features and its labels.  ``q = 0.5`` is the trap: numpy
    raises a scalar ``** 0.5`` with ``sqrt``, an array of exponents with
    ``pow``, and the two can differ in the last bit.  The oracle's softmax
    reduces the class axis, the stacked fit's does not.
    """
    cfg = dict(NOISE_DEFAULTS, **dict(TINY_NOISE, q_grid=q_grid, n_classes=n_classes))
    datasets = [
        generate_idn_dataset(
            IdnSpec(
                n_train=cfg["n_train"],
                n_test=0,
                dim=cfg["dim"],
                n_classes=cfg["n_classes"],
                noise_rate=rate,
                seed=seed,
                center_scale=cfg["center_scale"],
            )
        )
        for rate in rates
    ]
    xs = [np.hstack([data.x_train, np.ones((cfg["n_train"], 1))]) for data in datasets]
    labels = np.stack([data.y_train for data in datasets])
    spec = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED, tau=cfg["tau"])
    stacked = _train_linear_stacked(xs[0], labels, cfg, seed, spec)
    assert stacked.shape == (len(rates), len(q_grid) + 2, cfg["n_classes"], xs[0].shape[1])
    for rate_rows, x, y in zip(stacked, xs, labels):
        oracle = [_per_loss_fit(x, y, cfg, seed, _ce_oracle)]
        oracle += [_per_loss_fit(x, y, cfg, seed, _gce_oracle, q) for q in q_grid]
        oracle.append(_per_loss_fit(x, y, cfg, seed, partial(mc_sum_loss_gradient, spec)))
        assert rate_rows.shape == (len(oracle), cfg["n_classes"], x.shape[1])
        for row, want in zip(rate_rows, oracle):
            assert np.any(want != 0.0)
            assert np.array_equal(row, want)


class TestScalingDriver:
    def test_rows_and_schema(self, tmp_path):
        result = run_scaling(TINY_SCALING, seed=0, out_dir=tmp_path)
        assert len(result.rows) == 2 * 3
        rows = read_csv(tmp_path / "scaling.csv")
        assert rows[0] == ["method", "Y", "seconds_per_batch", "cv", "cv_flag"]
        assert len(rows) == 7
        methods = {r[0] for r in rows[1:]}
        assert methods == {"ssvm", "crf", "lincore"}
        for row in result.rows:
            assert row.seconds_per_batch > 0
        for row, written in zip(result.rows, rows[1:]):
            assert float(written[3]) == row.cv
            assert int(written[4]) == int(row.cv_flag)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nondeterministic_columns"] == {
            "scaling.csv": ["seconds_per_batch", "cv", "cv_flag"]
        }

    @pytest.mark.parametrize(
        "bad",
        [
            {"timed_batches": 0},
            {"warmup_batches": -1},
            {"label_sizes": []},
            {"methods": []},
            {"label_sizes": ["x"]},
            {"label_sizes": [2.5]},
            {"label_sizes": [1]},
            {"label_sizes": [True]},
            {"label_sizes": 4},
        ],
        ids=repr,
    )
    def test_bad_config_rejected(self, bad, tmp_path):
        """These used to write a NaN median or a header-only scaling.csv."""
        with pytest.raises(ConfigError):
            run_scaling(dict(TINY_SCALING, **bad), out_dir=tmp_path)
        assert not (tmp_path / "scaling.csv").exists()

    def test_manifest_records_phase_timings(self, tmp_path):
        """The steps are part of training, and data plus training part of the run."""
        run_scaling(TINY_SCALING, seed=0, out_dir=tmp_path)
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        data, train, steps = (timings[f"seconds_{key}"] for key in ("data", "train", "steps"))
        assert 0.0 < steps <= train
        assert 0.0 < data
        assert data + train <= timings["seconds_total"]

    def test_non_timing_columns_deterministic(self, tmp_path):
        run_scaling(TINY_SCALING, seed=4, out_dir=tmp_path / "a")
        run_scaling(TINY_SCALING, seed=4, out_dir=tmp_path / "b")
        rows_a = read_csv(tmp_path / "a/scaling.csv")
        rows_b = read_csv(tmp_path / "b/scaling.csv")
        assert [r[:2] for r in rows_a] == [r[:2] for r in rows_b]


def test_selftest_checks_fail_under_optimized_python():
    """``python -O`` strips asserts; a failing check must still fail there."""
    script = (
        "import lincore.experiments as ex\n"
        "class Bad:\n"
        "    slopes = dict.fromkeys(['lc_logistic', 'lc_exponential', 'logistic', 'exponential'], 0.5)\n"
        "ex.run_rates = lambda *args, **kwargs: Bad()\n"
        "try:\n"
        "    ex._check_rate_slopes()\n"
        "except AssertionError as exc:\n"
        "    print('failed:', exc)\n"
        "else:\n"
        "    print('passed vacuously')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("failed: lc_logistic slope 0.5000"), done.stdout


def test_manifest_records_blas_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run_rates(TINY_RATES, seed=0, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["machine"]["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "2",
        "MKL_NUM_THREADS": None,
    }


def test_scaling_batches_draw_the_stream_rng_streams(monkeypatch):
    """Each timed batch trains on the instance and stream stream_rng defines."""
    import lincore.experiments as experiments
    import lincore.trainers
    from lincore.rng import DOMAIN_TRAIN_INSTANCE, DOMAIN_TRAIN_SAMPLE, stream_rng

    seen = []

    def record_step(model, x, y, config, proposal, rng, **kwargs):
        seen.append((x.tobytes(), rng.integers(0, 2**62, size=3).tolist()))

    monkeypatch.setattr(lincore.trainers, "sgd_step", record_step)
    run_scaling(dict(TINY_SCALING, label_sizes=[4], methods=["lincore", "ssvm"]), seed=3)
    data = experiments.generate_hmm_split(
        experiments.HmmSpec(length=5, n_labels=4, dim=4, n_sequences=4, seed=3), n_test=0
    )
    want = []
    for t in range(1, TINY_SCALING["warmup_batches"] + TINY_SCALING["timed_batches"] + 1):
        x, _ = data.train[int(stream_rng(3, DOMAIN_TRAIN_INSTANCE, t).integers(0, 4))]
        want.append((x.tobytes(), stream_rng(3, DOMAIN_TRAIN_SAMPLE, t, 0).integers(0, 2**62, size=3).tolist()))
    assert seen == want + want
