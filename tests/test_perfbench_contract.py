"""The library surface the benchmark harness relies on.

``perfbench/`` drives lincore from outside the program: its traced run wraps
the functions named in ``perfbench/tracing.py``'s ``TRACED`` and tags each
``minimize_convex`` call with its problem count, and a workload calls
``sgd_step`` with six positional arguments and reads the result fields and
config keys named below.  Its ``trainers.pair_update_ratio`` counts the
``lincore`` steps that call ``lc_derivative`` through ``lincore.trainers``,
and its ``losses.lc_derivative.calls`` count one call per ``lincore_ksample``
step.
A rename or a signature change then fails here, in the test suite,
instead of in a benchmark run.
The harness file is loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import lincore
import lincore.losses
import lincore.minimize
import lincore.trainers
from lincore import ChainModel, PairProposal, TrainConfig
from lincore.consistency import RatePoint, TauSlope
from lincore.experiments import (
    NOISE_DEFAULTS,
    STABILITY_DEFAULTS,
    GradientGroups,
    NoiseResult,
    RatesResult,
    StabilityResult,
    TrainSeqResult,
)
from lincore.rng import DOMAIN_TRAIN_SAMPLE, stream_rng
from lincore.trainers import HistoryRow, TrainResult

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    traced = _load_tracing().TRACED
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"lincore.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"lincore.{layer}.{name}"


def test_sgd_step_takes_the_workload_positional_arguments():
    """The neighbor-step check calls ``sgd_step(probe, x, y, config, proposal, rng)``."""
    signature = inspect.signature(lincore.trainers.sgd_step)
    signature.bind("probe", "x", "y", "config", "proposal", "rng")
    assert list(signature.parameters)[:6] == ["model", "x", "y", "config", "proposal", "rng"]


def test_minimize_convex_takes_the_tagged_arguments():
    """``_minimize_tag`` reads the problem count from ``lo``/``hi``, the third
    and fourth positional arguments, beside an ``expand`` keyword."""
    signature = inspect.signature(lincore.minimize.minimize_convex)
    signature.bind("value", "derivative", "lo", "hi", expand=False)
    assert list(signature.parameters)[:4] == ["value", "derivative", "lo", "hi"]
    tag = _load_tracing()._minimize_tag
    assert tag("value", "derivative", [0.0, -1.0, 2.0], 5.0, expand=False) == 3


@pytest.mark.parametrize(
    "cls, names",
    [
        (TrainResult, {"model", "history"}),
        (HistoryRow, {"iteration", "objective", "test_error"}),
        (TrainSeqResult, {"result", "config"}),
        (NoiseResult, {"realized_flip_rates", "gradient_groups"}),
        (GradientGroups, {"noisy"}),
        (RatesResult, {"slopes", "points"}),
        (RatePoint, {"loss_name", "excess_surrogate", "excess_target"}),
        (StabilityResult, {"rows"}),
        (TauSlope, {"tau", "slope"}),
    ],
    ids=[
        "TrainResult", "HistoryRow", "TrainSeqResult", "NoiseResult", "GradientGroups",
        "RatesResult", "RatePoint", "StabilityResult", "TauSlope",
    ],
)
def test_result_fields_the_workloads_read(cls, names):
    """``sgd_train(...).model`` and ``run_noise(...).gradient_groups["lc"].noisy``, say."""
    assert names <= {field.name for field in dataclasses.fields(cls)}


def test_config_keys_the_noise_family_reads():
    """The flip-rate check scales by the default ``n_train``; the stability
    check picks its rows by the default ``robust_taus``."""
    assert isinstance(NOISE_DEFAULTS["n_train"], int)
    assert STABILITY_DEFAULTS["robust_taus"]


def test_a_pair_step_calls_lc_derivative_once_exactly_when_it_updates(monkeypatch):
    """``pair_update_ratio`` reads an ``lc_derivative`` span under a ``lincore``
    ``sgd_step`` span as an update: a step that updates calls it once through
    ``lincore.trainers``, and a step whose outer draw disagrees with ``y`` at
    every position (``w1 == 0``) calls it zero times."""
    calls = []
    derivative = lincore.trainers.lc_derivative

    def counting(spec, u):
        calls.append(u)
        return derivative(spec, u)

    monkeypatch.setattr(lincore.trainers, "lc_derivative", counting)
    config = TrainConfig(objective="lincore", corruption_rate=0.8)
    proposal = PairProposal(config.corruption_rate, config.inner_proposal)
    x = np.random.default_rng(0).normal(size=(2, 3))
    y = np.array([0, 1])
    seen = set()
    for seed in range(40):
        twin = stream_rng(seed, DOMAIN_TRAIN_SAMPLE, 1)
        skipped = bool(np.all(lincore.trainers.sample_corruption(y, 3, 0.8, twin) != y))
        model = ChainModel.zeros(3, 3)
        calls.clear()
        rng = stream_rng(seed, DOMAIN_TRAIN_SAMPLE, 1)
        lincore.trainers.sgd_step(model, x, y, config, proposal, rng)
        assert len(calls) == (0 if skipped else 1)
        assert model.unary.any() == (not skipped)
        seen.add(skipped)
    assert seen == {False, True}


def test_a_ksample_step_scores_and_differentiates_once(monkeypatch):
    """A ``lincore_ksample`` step makes one ``_chain_scores`` call (``y*``
    and its negatives together) and one ``lc_derivative`` call (all K
    margins at once) through ``lincore.trainers``."""
    calls = {"lc_derivative": 0, "_chain_scores": 0}
    for name in calls:
        original = getattr(lincore.trainers, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lincore.trainers, name, counting)
    config = TrainConfig(objective="lincore_ksample")
    proposal = PairProposal(config.corruption_rate, config.inner_proposal)
    rng = np.random.default_rng(0)
    for n_labels, length in [(3, 4), (100, 20), (400, 20)]:
        model = ChainModel(rng.normal(size=(n_labels, 3)), rng.normal(size=(n_labels, n_labels)))
        x = rng.normal(size=(length, 3))
        y = rng.integers(0, n_labels, size=length)
        for seed in range(3):
            calls.update(dict.fromkeys(calls, 0))
            rng = stream_rng(seed, DOMAIN_TRAIN_SAMPLE, 1)
            lincore.trainers.sgd_step(model, x, y, config, proposal, rng)
            assert calls == {"lc_derivative": 1, "_chain_scores": 1}


def test_a_margin_infimum_calls_no_public_loss_function(monkeypatch):
    """``weighted_margin_infimum`` evaluates through ``loss.kernel``, so the
    traced ``losses.lc_value`` and ``losses.lc_derivative`` (and the base
    functions) see no call from it, in any namespace the tracer patches.  The
    regret oracle's realized values still go through ``lc_value``."""
    names = ("lc_value", "lc_derivative", "base_value", "base_derivative")
    calls = dict.fromkeys(names, 0)
    layers = _load_tracing().LAYERS
    for namespace in [lincore, *(importlib.import_module(f"lincore.{layer}") for layer in layers)]:
        for name in names:
            if hasattr(namespace, name):
                original = getattr(lincore.losses, name)

                def counting(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(namespace, name, counting)
    base = lincore.BaseLoss.exponential()
    spec = lincore.LinearCoreSpec(base, tau=0.5)
    for loss in (lincore.linear_core_margin_loss(spec), lincore.plain_margin_loss(base)):
        result = lincore.weighted_margin_infimum(loss, [0.7, 0.0, 1e-3], [0.3, 2.0, 0.0])
        assert np.isfinite(result.value).all()
        lincore.transformation_T(loss, [0.0, 0.5, 1.0])
    assert calls == dict.fromkeys(names, 0)
    lincore.mc_conditional_regrets(spec, np.array([0.2, 0.3, 0.5]), np.array([1.0, 0.0, -1.0]))
    assert calls["lc_value"] > 0
