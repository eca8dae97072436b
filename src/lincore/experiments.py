"""Experiment drivers and their CSV/JSON artifacts.

Each driver is a pure function of (config, seed) up to wall-clock columns:
``run_rates``, ``run_stability``, ``run_scaling``, ``run_noise``, and
``run_train_seq`` return plain result objects and, given an output
directory, write the corresponding CSV files plus a ``manifest.json`` that
round-trips the effective configuration and lists which columns are
timing-derived (and therefore excluded from byte-for-byte determinism).

Configurations are flat dictionaries: driver defaults merged with caller
overrides; unknown keys are errors rather than silent typos.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from ._version import __version__
from .consistency import (
    RatePoint,
    TauSlope,
    biased_coin_curve,
    fit_loglog_slope,
    rate_losses,
    tau_sweep,
)
from .datagen import HmmSpec, IdnSpec, generate_hmm_split, generate_idn_dataset
from .errors import ConfigError, TrainingDivergedError
from .losses import _BASE_KINDS, _SIDES, BaseLoss, LinearCoreSpec, ONE_SIDED, SYMMETRIC
from .multiclass import _softmax, _softmax_gradients, _sum_loss_gradient
from .rng import DOMAIN_NOISE_TRAIN, stream_rng
from .structured import ChainModel
from .trainers import PairProposal, TrainConfig, TrainResult, sgd_train

# The environment variables that set the BLAS thread count; unset ones
# are recorded as null.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_TIMING_COLUMNS = {
    "history.csv": ["seconds"],
    "scaling.csv": ["seconds_per_batch", "cv", "cv_flag"],
}


def _merge_config(defaults: dict, overrides: dict | None) -> dict:
    config = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overrides.items():
            ok, what = _KINDS[type(defaults[key])]
            if not ok(value):
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        config.update(overrides)
    return config


def _write_artifacts(
    out_dir: str | None,
    command: str,
    config: dict,
    seed: int,
    t0: float,
    files: dict,
    phases: dict,
) -> None:
    """Write a driver's files and its ``manifest.json`` into ``out_dir``.

    ``files`` maps each file name to its content, in manifest order: a
    ``(header, rows)`` pair for a ``.csv`` name, a JSON value otherwise.
    ``seconds_total`` runs from ``t0`` until the files are written;
    ``phases`` adds named per-phase seconds beside it.  Does nothing when
    ``out_dir`` is None.
    """
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, content) -> None:
        with open(out / name, "w", newline="") as handle:
            if name.endswith(".csv"):
                writer = csv.writer(handle)
                writer.writerow(content[0])
                writer.writerows(content[1])
            else:
                json.dump(content, handle, indent=2, sort_keys=True)
                handle.write("\n")

    for name, content in files.items():
        write(name, content)
    write(
        "manifest.json",
        {
            "command": command,
            "seed": seed,
            "config": config,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "lincore": __version__,
            },
            "machine": {
                "cpu_count": os.cpu_count(),
                "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
            },
            "timings": {"seconds_total": time.perf_counter() - t0, **phases},
            "artifacts": list(files),
            "nondeterministic_columns": {
                name: cols for name, cols in _TIMING_COLUMNS.items() if name in files
            },
        },
    )


def _base_from_name(name: str) -> BaseLoss:
    if name not in _BASE_KINDS:
        raise ConfigError(f"unknown base loss {name!r}")
    return BaseLoss(name)


def _is_count(value, lo: int, hi=np.inf) -> bool:
    """Whether ``value`` is an integer in ``[lo, hi]``; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= value <= hi


def _is_real(value) -> bool:
    """Whether ``value`` is a finite number; a bool or a numeric string is not one."""
    return _is_count(value, -np.inf) or isinstance(value, (float, np.floating)) and np.isfinite(value)


# The check an override must pass, and its description, by its default's type.
_KINDS = {
    int: (lambda value: _is_count(value, -np.inf), "an integer"),
    float: (_is_real, "a finite number"),
    str: (lambda value: isinstance(value, str), "a string"),
    list: (lambda value: isinstance(value, (list, tuple)), "a list"),
}


def _check_count(cfg: dict, key: str, lo: int, hi=np.inf) -> None:
    """Reject a ``key`` setting that is not an integer in ``[lo, hi]``."""
    if not _is_count(cfg[key], lo, hi):
        raise ConfigError(f"{key} must be an integer in [{lo}, {hi}], got {cfg[key]!r}")


def _delta_grid(cfg: dict, prefix: str = "") -> np.ndarray:
    """The ``n_deltas`` log-spaced biases from ``<prefix>delta_min`` to ``<prefix>delta_max``.

    Both bounds must be finite with ``0 < min < max < 1/2``: a coin's bias
    lies in ``(0, 1/2)``, and a bound at or below 0 would reach
    ``np.log10`` as NaN or ``-inf``.  A slope fit needs at least 5 biases.
    """
    _check_count(cfg, "n_deltas", 5)
    lo, hi = cfg[f"{prefix}delta_min"], cfg[f"{prefix}delta_max"]
    if not 0.0 < lo < hi < 0.5:
        raise ConfigError(
            f"{prefix}delta_min and {prefix}delta_max must satisfy 0 < min < max < 1/2, "
            f"got {lo!r} and {hi!r}"
        )
    return np.logspace(np.log10(lo), np.log10(hi), cfg["n_deltas"])


def _check_entries(cfg: dict, key: str, ok, what: str) -> None:
    """Reject a ``key`` setting that is not a list whose every entry passes ``ok``."""
    values = cfg[key]
    if not isinstance(values, (list, tuple)) or not all(ok(value) for value in values):
        raise ConfigError(f"{key} must be a list of {what}, got {values!r}")


# ----------------------------------------------------------------------
# rates
# ----------------------------------------------------------------------

RATES_DEFAULTS = {
    "delta_min": 1e-4,
    "delta_max": 1e-1,
    "n_deltas": 25,
}


@dataclass(frozen=True)
class RatesResult:
    points: list
    slopes: dict


def run_rates(config: dict | None = None, seed: int = 0, out_dir: str | None = None) -> RatesResult:
    """Biased-coin rate curves for the two surrogates and the two baselines.

    The manifest records ``seconds_curves`` (the ``biased_coin_curve``
    calls) and ``seconds_fits`` (the log-log slope fits) beside the total.
    """
    cfg = _merge_config(RATES_DEFAULTS, config)
    t0 = time.perf_counter()
    deltas = _delta_grid(cfg)
    points: list[RatePoint] = []
    slopes: dict[str, float] = {}
    phases = dict.fromkeys(("seconds_curves", "seconds_fits"), 0.0)
    for loss in rate_losses():
        tick = time.perf_counter()
        curve = biased_coin_curve(loss, deltas)
        tock = time.perf_counter()
        points.extend(curve)
        slopes[loss.name] = fit_loglog_slope(curve)
        phases["seconds_curves"] += tock - tick
        phases["seconds_fits"] += time.perf_counter() - tock
    rates_rows = [
        (p.loss_name, repr(p.delta), repr(p.excess_surrogate), repr(p.excess_target))
        for p in points
    ]
    files = {
        "rates.csv": (["loss", "delta", "excess_surrogate", "excess_target"], rates_rows),
        "slopes.json": slopes,
    }
    _write_artifacts(out_dir, "rates", cfg, seed, t0, files, phases)
    return RatesResult(points=points, slopes=slopes)


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------

STABILITY_DEFAULTS = {
    "base": "logistic",
    "robust_taus": [0.1, 0.5, 1.0, 2.0, 5.0],
    "vanishing_taus": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
    # The robust sweep stays below the core crossover t ~ 2*tau for its
    # smallest tau; the vanishing sweep uses the wider grid on which the
    # smallest thresholds revert to the square-root regime.
    "robust_delta_min": 1e-4,
    "robust_delta_max": 1e-2,
    "vanishing_delta_min": 1e-3,
    "vanishing_delta_max": 1e-1,
    "n_deltas": 25,
}


@dataclass(frozen=True)
class StabilityResult:
    rows: list


def run_stability(
    config: dict | None = None, seed: int = 0, out_dir: str | None = None
) -> StabilityResult:
    """Rate slopes across core half-widths, including the vanishing-core limit.

    The manifest records ``seconds_robust`` and ``seconds_vanishing``, the
    two ``tau_sweep`` calls, beside the total.
    """
    cfg = _merge_config(STABILITY_DEFAULTS, config)
    t0 = time.perf_counter()
    for key in ("robust_taus", "vanishing_taus"):
        _check_entries(cfg, key, _is_real, "finite numbers")
    if not (cfg["robust_taus"] or cfg["vanishing_taus"]):
        raise ConfigError("robust_taus and vanishing_taus must not both be empty")
    base = _base_from_name(cfg["base"])
    robust_grid = _delta_grid(cfg, "robust_")
    vanishing_grid = _delta_grid(cfg, "vanishing_")
    tick = time.perf_counter()
    rows: list[TauSlope] = tau_sweep(base, cfg["robust_taus"], robust_grid)
    tock = time.perf_counter()
    seen = {row.tau for row in rows}
    extra = [tau for tau in cfg["vanishing_taus"] if float(tau) not in seen]
    rows.extend(tau_sweep(base, extra, vanishing_grid))
    phases = {"seconds_robust": tock - tick, "seconds_vanishing": time.perf_counter() - tock}
    stability_rows = [(repr(row.tau), repr(row.slope)) for row in rows]
    files = {"stability.csv": (["tau", "slope"], stability_rows)}
    _write_artifacts(out_dir, "stability", cfg, seed, t0, files, phases)
    return StabilityResult(rows=rows)


# ----------------------------------------------------------------------
# scaling
# ----------------------------------------------------------------------

SCALING_DEFAULTS = {
    "label_sizes": [50, 100, 200, 400],
    "length": 20,
    "dim": 20,
    "n_sequences": 16,
    "methods": ["ssvm", "crf", "lincore"],
    "warmup_batches": 20,
    "timed_batches": 200,
    "eta": 0.01,
    "corruption_rate": 0.3,
    "cv_threshold": 0.25,
}


@dataclass(frozen=True)
class ScalingRow:
    method: str
    n_labels: int
    seconds_per_batch: float
    cv: float
    cv_flag: bool


@dataclass(frozen=True)
class ScalingResult:
    rows: list


def run_scaling(
    config: dict | None = None, seed: int = 0, out_dir: str | None = None
) -> ScalingResult:
    """Median per-batch update time for each method across label-set sizes.

    Each row is one :func:`sgd_train` run without evaluation: batch ``t`` is
    the single-instance step of iteration ``t``, timed on the monotonic
    clock; warm-up batches are discarded; the reported value is the median
    and the coefficient of variation flags jittery measurements.  Updates
    run on a single worker.
    """
    cfg = _merge_config(SCALING_DEFAULTS, config)
    t0 = time.perf_counter()
    # An empty timing list has a NaN median; an empty sweep, a header-only CSV.
    _check_count(cfg, "warmup_batches", 0)
    _check_count(cfg, "timed_batches", 1)
    _check_entries(cfg, "label_sizes", lambda n: _is_count(n, 2), "integers >= 2")
    if not (cfg["label_sizes"] and cfg["methods"]):
        raise ConfigError("label_sizes and methods must not be empty")
    rows: list[ScalingRow] = []
    phases = dict.fromkeys(("seconds_data", "seconds_train", "seconds_steps"), 0.0)
    for n_labels in cfg["label_sizes"]:
        tick = time.perf_counter()
        data = generate_hmm_split(
            HmmSpec(
                length=cfg["length"],
                n_labels=int(n_labels),
                dim=cfg["dim"],
                n_sequences=cfg["n_sequences"],
                seed=seed,
            ),
            n_test=0,
        )
        phases["seconds_data"] += time.perf_counter() - tick
        for method in cfg["methods"]:
            train_cfg = TrainConfig(
                eta=cfg["eta"],
                iterations=cfg["warmup_batches"] + cfg["timed_batches"],
                objective=method,
                seed=seed,
                corruption_rate=cfg["corruption_rate"],
            )
            tick = time.perf_counter()
            step_seconds = sgd_train(data, train_cfg).step_seconds
            phases["seconds_train"] += time.perf_counter() - tick
            phases["seconds_steps"] += float(step_seconds.sum())
            timed = step_seconds[cfg["warmup_batches"] :]
            median = float(np.median(timed))
            cv = float(np.std(timed) / np.mean(timed))
            rows.append(
                ScalingRow(
                    method=method,
                    n_labels=int(n_labels),
                    seconds_per_batch=median,
                    cv=cv,
                    cv_flag=cv > cfg["cv_threshold"],
                )
            )
    scaling_rows = [
        (r.method, r.n_labels, repr(r.seconds_per_batch), repr(r.cv), int(r.cv_flag)) for r in rows
    ]
    files = {"scaling.csv": (["method", "Y", "seconds_per_batch", "cv", "cv_flag"], scaling_rows)}
    _write_artifacts(out_dir, "scaling", cfg, seed, t0, files, phases)
    return ScalingResult(rows=rows)


# ----------------------------------------------------------------------
# train-seq
# ----------------------------------------------------------------------

TRAIN_SEQ_DEFAULTS = {
    "objective": "lincore",
    "n_labels": 3,
    "length": 4,
    "dim": 20,
    "n_train": 200,
    "n_test": 100,
    "transition_temperature": 1.0,
    "eta": 0.01,
    "iterations": 20000,
    "eval_interval": 200,
    "eval_max_instances": 64,
    "batch_size": 1,
    "corruption_rate": 0.3,
    "inner_proposal": "neighbor",
    "n_negatives": 4,
    "base": "logistic",
    "side": ONE_SIDED,
    "tau": 1.0,
}


@dataclass(frozen=True)
class TrainSeqResult:
    result: TrainResult
    config: dict


def run_train_seq(
    config: dict | None = None, seed: int = 0, out_dir: str | None = None
) -> TrainSeqResult:
    """Train one objective on synthetic chain data; emit the history CSV."""
    cfg = _merge_config(TRAIN_SEQ_DEFAULTS, config)
    t0 = time.perf_counter()
    if cfg["side"] not in _SIDES:
        raise ConfigError(f"unknown smoothing side {cfg['side']!r}")
    tick = time.perf_counter()
    data = generate_hmm_split(
        HmmSpec(
            length=cfg["length"],
            n_labels=cfg["n_labels"],
            dim=cfg["dim"],
            n_sequences=cfg["n_train"],
            seed=seed,
            transition_temperature=cfg["transition_temperature"],
        ),
        n_test=cfg["n_test"],
    )
    seconds_data = time.perf_counter() - tick
    spec = LinearCoreSpec(_base_from_name(cfg["base"]), side=cfg["side"], tau=cfg["tau"])
    train_cfg = TrainConfig(
        eta=cfg["eta"],
        iterations=cfg["iterations"],
        batch_size=cfg["batch_size"],
        seed=seed,
        objective=cfg["objective"],
        spec=spec,
        corruption_rate=cfg["corruption_rate"],
        inner_proposal=cfg["inner_proposal"],
        n_negatives=cfg["n_negatives"],
        eval_interval=cfg["eval_interval"],
        eval_max_instances=cfg["eval_max_instances"],
    )
    tick = time.perf_counter()
    result = sgd_train(data, train_cfg)
    phases = {
        "seconds_data": seconds_data,
        "seconds_train": time.perf_counter() - tick,
        "seconds_steps": float(result.step_seconds.sum()),
    }
    history_rows = [
        (row.iteration, repr(row.objective), repr(row.test_error), repr(row.seconds))
        for row in result.history
    ]
    files = {"history.csv": (["iteration", "objective", "test_error", "seconds"], history_rows)}
    _write_artifacts(out_dir, "train-seq", cfg, seed, t0, files, phases)
    return TrainSeqResult(result=result, config=cfg)


# ----------------------------------------------------------------------
# noise
# ----------------------------------------------------------------------

NOISE_DEFAULTS = {
    "noise_rates": [0.2, 0.3, 0.4],
    "q_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    "n_train": 4000,
    "n_test": 2000,
    "dim": 10,
    "n_classes": 2,
    "center_scale": 1.2,
    "epochs": 20,
    "batch_size": 64,
    "eta": 0.05,
    "weight_decay": 0.01,
    "tau": 4.0,
    "hist_noise_rate": 0.4,
    "n_bins": 40,
}


@dataclass(frozen=True)
class NoiseAccuracy:
    loss: str
    q: float | None
    noise_rate: float
    test_accuracy: float


@dataclass(frozen=True)
class GradientGroups:
    """Raw gradient magnitudes at the final model, split clean vs noisy."""

    loss: str
    clean: np.ndarray
    noisy: np.ndarray


@dataclass(frozen=True)
class NoiseResult:
    accuracies: list
    gradient_groups: dict
    realized_flip_rates: dict


def _check_noise_config(cfg: dict) -> None:
    """Reject a noise config that would train on nothing or on NaN, or drop an artifact."""
    for key in ("q_grid", "noise_rates"):
        _check_entries(cfg, key, _is_real, "finite numbers")
    qs, rates = cfg["q_grid"], cfg["noise_rates"]
    eta, decay, hist = cfg["eta"], cfg["weight_decay"], cfg["hist_noise_rate"]
    for key in ("epochs", "n_test", "n_bins"):
        _check_count(cfg, key, 1)
    _check_count(cfg, "batch_size", 1, cfg["n_train"])
    checks = [
        (qs and all(0.0 < q <= 1.0 for q in qs), f"q_grid entries must lie in (0, 1], got {qs}"),
        (len(set(rates)) == len(rates), f"noise_rates must not repeat a rate, got {rates}"),
        (
            any(abs(rate - hist) < 1e-12 for rate in rates),
            f"hist_noise_rate {hist} is not one of noise_rates {rates}",
        ),
        (eta > 0.0, f"eta must be > 0, got {eta}"),
        (decay >= 0.0, f"weight_decay must be >= 0, got {decay}"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def _train_linear_stacked(x, labels, cfg: dict, seed: int, spec: LinearCoreSpec) -> np.ndarray:
    """Minibatch SGD of every loss and noise rate on shared batches; ``(R, F, C, d)`` weights.

    ``labels`` has one row per noise rate.  Row ``f = 0`` is cross-entropy, then GCE at each
    ``q_grid`` entry, then the linear-core sum loss; each model keeps the bits of its own fit.
    The gradient kernels are the unchecked ones of :mod:`lincore.multiclass`; the generator's
    labels need no re-validation.  Instead the weights are checked once per epoch: a step
    that overflows leaves them non-finite for good, and ``TrainingDivergedError`` names the
    epoch where that happened.
    """
    qs = (0.0, *cfg["q_grid"])
    weights = np.zeros((labels.shape[0], len(qs) + 1, cfg["n_classes"], x.shape[1]))
    n, batch_size = x.shape[0], cfg["batch_size"]
    for epoch in range(cfg["epochs"]):
        order = stream_rng(seed, DOMAIN_NOISE_TRAIN, epoch).permutation(n)
        # A runaway step overflows here; the check after the epoch reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n - batch_size + 1, batch_size):
                batch = order[start : start + batch_size]
                xb, yb = x[batch], labels[:, batch]
                scores = np.matmul(xb, weights.transpose(0, 1, 3, 2))
                softmax_rows = _softmax_gradients(scores[:, :-1], yb, qs)
                lc_rows = _sum_loss_gradient(scores[:, -1], yb, spec)[:, None]
                grads = np.concatenate([softmax_rows, lc_rows], axis=1)
                update = np.matmul(grads.transpose(0, 1, 3, 2), xb)
                weights -= cfg["eta"] * (update / batch_size + cfg["weight_decay"] * weights)
        if not np.isfinite(weights).all():
            raise TrainingDivergedError(
                f"label-noise fit diverged in epoch {epoch}: the weights are no longer finite"
            )
    return weights


def _accuracy(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.argmax(x @ weights.T, axis=1) == y))


def run_noise(config: dict | None = None, seed: int = 0, out_dir: str | None = None) -> NoiseResult:
    """Label-noise robustness study on the synthetic boundary-noise task.

    Trains cross-entropy, the generalized-cross-entropy grid, and the
    one-sided linear-core sum loss at every noise rate in one stacked fit,
    so every model sees the same batches; reports clean-test accuracy, and
    collects per-group gradient magnitudes at the final model of the
    histogram noise rate (per-pair surrogate slopes for the linear-core
    loss, true-label softmax gap ``1 - p_y`` for cross-entropy).  The
    manifest records the data, train and eval seconds beside the total.
    """
    cfg = _merge_config(NOISE_DEFAULTS, config)
    t0 = time.perf_counter()
    _check_noise_config(cfg)
    spec = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED, tau=cfg["tau"])
    accuracies: list[NoiseAccuracy] = []
    gradient_groups: dict[str, GradientGroups] = {}
    realized: dict[float, float] = {}
    tick = time.perf_counter()
    datasets = [
        generate_idn_dataset(
            IdnSpec(
                n_train=cfg["n_train"],
                n_test=cfg["n_test"],
                dim=cfg["dim"],
                n_classes=cfg["n_classes"],
                noise_rate=float(rate),
                seed=seed,
                center_scale=cfg["center_scale"],
            )
        )
        for rate in cfg["noise_rates"]
    ]
    # Only the labels depend on the rate (see ``generate_idn_dataset``).
    x_train = np.hstack([datasets[0].x_train, np.ones((cfg["n_train"], 1))])
    x_test = np.hstack([datasets[0].x_test, np.ones((cfg["n_test"], 1))])
    rate_labels = np.stack([dataset.y_train for dataset in datasets])
    tock = time.perf_counter()
    stacked = _train_linear_stacked(x_train, rate_labels, cfg, seed, spec)
    tack = time.perf_counter()
    for rate, dataset, weights in zip(cfg["noise_rates"], datasets, stacked):
        realized[float(rate)] = float(np.mean(dataset.flipped))
        ce_weights, gce_weights, lc_weights = weights[0], weights[1:-1], weights[-1]
        accuracies.append(
            NoiseAccuracy("ce", None, float(rate), _accuracy(ce_weights, x_test, dataset.y_test))
        )
        best_q, best_acc = None, -1.0
        for q, q_weights in zip(cfg["q_grid"], gce_weights):
            acc = _accuracy(q_weights, x_test, dataset.y_test)
            accuracies.append(NoiseAccuracy("gce", float(q), float(rate), acc))
            if acc > best_acc:
                best_q, best_acc = float(q), acc
        accuracies.append(NoiseAccuracy("gce_best", best_q, float(rate), best_acc))
        accuracies.append(
            NoiseAccuracy("lc", None, float(rate), _accuracy(lc_weights, x_test, dataset.y_test))
        )

        if abs(float(rate) - cfg["hist_noise_rate"]) < 1e-12:
            labels = dataset.y_train
            idx = np.arange(labels.size)
            # Per-pair surrogate slopes: the gradient off the true label.
            lc_slopes = np.abs(_sum_loss_gradient(x_train @ lc_weights.T, labels, spec))
            off_label = labels[:, None] != np.arange(lc_slopes.shape[1])
            lc_mag = lc_slopes[off_label].reshape(labels.size, -1)
            ce_mag = 1.0 - _softmax(x_train @ ce_weights.T)[idx, labels]
            flipped = dataset.flipped
            for name, mag in (("lc", lc_mag), ("ce", ce_mag)):
                gradient_groups[name] = GradientGroups(
                    name, clean=mag[~flipped].ravel(), noisy=mag[flipped].ravel()
                )
    seconds = (tock - tick, tack - tock, time.perf_counter() - tack)
    phases = dict(zip(("seconds_data", "seconds_train", "seconds_eval"), seconds))

    noise_rows = [
        (a.loss, "" if a.q is None else repr(a.q), repr(a.noise_rate), repr(a.test_accuracy))
        for a in accuracies
    ]
    hist_rows = []
    edges = np.linspace(0.0, 1.0, cfg["n_bins"] + 1)
    for name, groups in sorted(gradient_groups.items()):
        for group_name, values in (("clean", groups.clean), ("noisy", groups.noisy)):
            counts, _ = np.histogram(np.clip(values, 0.0, 1.0), bins=edges)
            for k, count in enumerate(counts):
                hist_rows.append(
                    (name, group_name, repr(float(edges[k])), repr(float(edges[k + 1])), int(count))
                )
    files = {
        "noise.csv": (["loss", "q", "noise_rate", "test_accuracy"], noise_rows),
        "grad_hist.csv": (["loss", "group", "bin_left", "bin_right", "count"], hist_rows),
    }
    _write_artifacts(out_dir, "noise", cfg, seed, t0, files, phases)
    return NoiseResult(
        accuracies=accuracies, gradient_groups=gradient_groups, realized_flip_rates=realized
    )


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(condition, message: str) -> None:
    """Fail a selftest check; unlike ``assert`` this survives ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _check_scalar_closed_forms() -> str:
    from .losses import lc_value

    exp_spec = LinearCoreSpec(BaseLoss.exponential())
    log_spec = LinearCoreSpec(BaseLoss.logistic())
    checks = [
        (lc_value(exp_spec, 0.0), 2.0),
        (lc_value(exp_spec, 1.0), 1.0),
        (lc_value(exp_spec, -2.0), float(np.e + 2.0)),
        (lc_value(log_spec, 0.0), float(1.0 + 2.0 * np.log(2.0))),
    ]
    worst = max(abs(got - want) for got, want in checks)
    _require(worst < 1e-12, f"closed-form mismatch {worst:.2e}")
    return f"max deviation {worst:.1e}"


def _check_smoothness() -> str:
    from .losses import lc_derivative as deriv, lc_value as value

    rng = stream_rng(0, 6)
    worst = 0.0
    for base in (BaseLoss.logistic(), BaseLoss.exponential(), BaseLoss.quartic_linear()):
        for side in (SYMMETRIC, ONE_SIDED):
            spec = LinearCoreSpec(base, side=side)
            grid = np.concatenate([np.linspace(-6, 6, 401), [-1.0, 1.0]])
            step = 1e-6
            fd = (value(spec, grid + step) - value(spec, grid - step)) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fd - deriv(spec, grid)))))
            triples = np.sort(rng.uniform(-8, 8, size=(10000, 3)), axis=1)
            lam = (triples[:, 1] - triples[:, 0]) / (triples[:, 2] - triples[:, 0])
            mid = value(spec, triples[:, 1])
            chord = (1 - lam) * value(spec, triples[:, 0]) + lam * value(spec, triples[:, 2])
            _require(np.all(mid <= chord + 1e-12), "convexity violated")
    _require(worst < 1e-4, f"C1 finite-difference gap {worst:.2e}")
    return f"C1 gap {worst:.1e}"


def _check_transformation_bounds() -> str:
    from .consistency import transformation_T, transformation_min_slack
    from .losses import linear_core_margin_loss

    ts = np.linspace(0.0, 1.0, 200)
    worst = np.inf
    for base in (BaseLoss.logistic(), BaseLoss.exponential(), BaseLoss.quartic_linear()):
        for side in (SYMMETRIC, ONE_SIDED):
            loss = linear_core_margin_loss(LinearCoreSpec(base, side=side))
            slack = transformation_min_slack(loss, ts, 1.0)
            worst = min(worst, slack)
            _require(slack >= -1e-8, f"T(t) >= t violated by {slack:.2e} for {loss.name}")
            _require(transformation_T(loss, 0.0) <= 1e-9, "T(0) > 0")
    exp_loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss.exponential()))
    analytic = 1.0 + ts - np.sqrt(1.0 - ts**2)
    gap = float(np.max(np.abs(transformation_T(exp_loss, ts) - analytic)))
    _require(gap < 1e-8, f"analytic transformation mismatch {gap:.2e}")
    # Scaled cores keep the linear lower bound with constant tau.
    for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
        loss = linear_core_margin_loss(LinearCoreSpec(BaseLoss.logistic(), tau=tau))
        slack = transformation_min_slack(loss, ts, tau)
        _require(slack >= -1e-8, f"T(t) >= {tau}*t violated by {slack:.2e}")
    return f"min slack {worst:.1e}, analytic gap {gap:.1e}"


def _check_restricted_infimum() -> str:
    from .consistency import restricted_pair_infimum
    from .losses import linear_core_margin_loss
    from .minimize import minimize_convex

    rng = stream_rng(1, 6)
    worst = 0.0
    for base in (BaseLoss.logistic(), BaseLoss.exponential()):
        loss = linear_core_margin_loss(LinearCoreSpec(base))
        a = rng.uniform(0.0, 2.0, size=200)
        b = rng.uniform(0.0, 2.0, size=200)
        keep = a + b > 0
        a, b = a[keep], b[keep]

        def g(u, a=a, b=b):
            return a * np.asarray(loss.value(-u)) + b * np.asarray(loss.value(u))

        def gp(u, a=a, b=b):
            return -a * np.asarray(loss.derivative(-u)) + b * np.asarray(loss.derivative(u))

        numeric = minimize_convex(g, gp, np.full(a.shape, -1.0), np.full(a.shape, 1.0), expand=False)
        closed = np.array([restricted_pair_infimum(base, ai, bi)[0] for ai, bi in zip(a, b)])
        worst = max(worst, float(np.max(np.abs(numeric.value - closed))))
    _require(worst < 1e-9, f"restricted infimum mismatch {worst:.2e}")
    return f"max deviation {worst:.1e}"


def _check_multiclass_regret() -> str:
    from .multiclass import mc_conditional_regrets

    rng = stream_rng(2, 6)
    by_size: dict[int, list] = {}
    for _ in range(250):
        n = int(rng.integers(2, 6))
        by_size.setdefault(n, []).append((rng.dirichlet(np.ones(n)), rng.normal(scale=2.0, size=n)))
    worst = np.inf
    for p, scores in (map(np.array, zip(*draws)) for draws in by_size.values()):
        for side in (SYMMETRIC, ONE_SIDED):
            spec = LinearCoreSpec(BaseLoss.logistic(), side=side)
            r01, rsur = mc_conditional_regrets(spec, p, scores)
            worst = min(worst, float(np.min(rsur - r01)))
            gap = np.max(r01 - rsur)
            _require(np.all(r01 <= rsur + 1e-8), f"pointwise consistency violated by {gap:.2e}")
    return f"min surplus {worst:.1e}"


def _check_structured_regret() -> str:
    from .structured import structured_conditional_regrets

    rng = stream_rng(3, 6)
    spec = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)
    by_size: dict[int, list] = {}
    for _ in range(250):
        n = int(rng.integers(3, 7))
        p = rng.dirichlet(np.ones(n))
        scores = rng.normal(scale=2.0, size=n)
        ell = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(ell, 0.0)
        by_size.setdefault(n, []).append((p, scores, ell))
    worst = np.inf
    for p, scores, ell in (map(np.array, zip(*draws)) for draws in by_size.values()):
        rt, rs = structured_conditional_regrets(spec, p, scores, ell)
        worst = min(worst, float(np.min(rs - rt)))
        gap = np.max(rt - rs)
        _require(np.all(rt <= rs + 1e-8), f"structured consistency violated by {gap:.2e}")
    return f"min surplus {worst:.1e}"


def _check_inference_oracles() -> str:
    from .inference import forward_backward, loss_augmented_viterbi, viterbi
    from .structured import all_sequence_scores, enumerate_sequences, hamming_loss

    rng = stream_rng(4, 6)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        length = int(rng.integers(1, 6))
        model = ChainModel(rng.normal(size=(n, 3)), rng.normal(size=(n, n)))
        x = rng.normal(size=(length, 3))
        seqs = enumerate_sequences(n, length)
        scores = all_sequence_scores(model, x, seqs)
        best, best_score = viterbi(model, x)
        worst = max(worst, abs(best_score - float(np.max(scores))))
        _require(
            np.array_equal(best, seqs[int(np.argmax(scores))])
            or abs(best_score - float(np.max(scores))) < 1e-10,
            "Viterbi decode disagrees with enumeration",
        )
        y = seqs[int(rng.integers(0, len(seqs)))]
        _, aug_score = loss_augmented_viterbi(model, x, y)
        target = max(
            float(s) + hamming_loss(seq, y) for s, seq in zip(scores, seqs)
        )
        worst = max(worst, abs(aug_score - target))
        logz = forward_backward(model, x).log_partition
        brute = float(np.log(np.sum(np.exp(scores - scores.max()))) + scores.max())
        worst = max(worst, abs(logz - brute))
    _require(worst < 1e-8, f"inference oracle mismatch {worst:.2e}")
    return f"max deviation {worst:.1e}"


def _check_pair_estimator_unbiased() -> str:
    from .structured import structured_sum_loss_gradient_exact
    from .trainers import UNIFORM_FULL, exact_pair_estimator_expectation

    rng = stream_rng(5, 6)
    spec = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)
    model = ChainModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    x = rng.normal(size=(4, 2))
    y = rng.integers(0, 2, size=4)
    proposal = PairProposal(0.3, UNIFORM_FULL)
    expectation = exact_pair_estimator_expectation(model, x, y, spec, proposal)
    exact = structured_sum_loss_gradient_exact(spec, model, x, y)
    gap = float(np.max(np.abs(expectation - exact)))
    _require(gap < 1e-10, f"pair estimator biased by {gap:.2e}")
    return f"max gap {gap:.1e}"


def _check_rate_slopes() -> str:
    result = run_rates()
    for name, lo, hi in [
        ("lc_logistic", 0.95, 1.05),
        ("lc_exponential", 0.95, 1.05),
        ("logistic", 0.45, 0.55),
        ("exponential", 0.45, 0.55),
    ]:
        slope = result.slopes[name]
        _require(lo <= slope <= hi, f"{name} slope {slope:.4f} outside [{lo}, {hi}]")
    return ", ".join(f"{k}={v:.3f}" for k, v in sorted(result.slopes.items()))


def _check_determinism() -> str:
    from .datagen import generate_hmm_data

    a = generate_hmm_data(HmmSpec(length=5, n_labels=3, dim=4, n_sequences=6, seed=9))
    b = generate_hmm_data(HmmSpec(length=5, n_labels=3, dim=4, n_sequences=6, seed=9))
    for (xa, ya), (xb, yb) in zip(a.train, b.train):
        _require(np.array_equal(xa, xb) and np.array_equal(ya, yb), "data not deterministic")
    cfg = dict(TRAIN_SEQ_DEFAULTS, iterations=200, eval_interval=50, n_train=20, n_test=5, dim=6)
    h1 = run_train_seq(cfg, seed=3).result.history
    h2 = run_train_seq(cfg, seed=3).result.history
    same = all(
        r1.iteration == r2.iteration
        and r1.objective == r2.objective
        and r1.test_error == r2.test_error
        for r1, r2 in zip(h1, h2)
    )
    _require(same and len(h1) == len(h2), "training history not deterministic")
    return f"{len(h1)} identical history rows"


SELFTEST_CHECKS = [
    ("scalar_closed_forms", _check_scalar_closed_forms),
    ("smoothness_and_convexity", _check_smoothness),
    ("transformation_bounds", _check_transformation_bounds),
    ("restricted_pair_infimum", _check_restricted_infimum),
    ("multiclass_pointwise_consistency", _check_multiclass_regret),
    ("structured_pointwise_consistency", _check_structured_regret),
    ("exact_inference_oracles", _check_inference_oracles),
    ("pair_estimator_unbiasedness", _check_pair_estimator_unbiased),
    ("rate_slopes", _check_rate_slopes),
    ("determinism", _check_determinism),
]


def run_selftest(verbose: bool = True) -> list:
    """Run the invariant battery; returns one result per check."""
    results = []
    for name, check in SELFTEST_CHECKS:
        t0 = time.perf_counter()
        try:
            detail = check()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        elapsed = time.perf_counter() - t0
        results.append(CheckResult(name=name, passed=passed, detail=detail))
        if verbose:
            status = "ok" if passed else "FAIL"
            print(f"[{status:4s}] {name} ({elapsed:.1f}s): {detail}")
    return results
