"""Input-error branches at the API boundary: each raises its LincoreError subclass."""

import re

import numpy as np
import pytest

from lincore import (
    BaseLoss,
    ChainModel,
    ConfigError,
    DomainError,
    IdnSpec,
    LinearCoreSpec,
    SequenceData,
    TrainConfig,
    enumerate_sequences,
    feature_radius_bound,
    feature_radius_exact,
    joint_feature,
    sgd_train,
    weighted_margin_infimum,
    weights_to_model,
)
from lincore.experiments import run_train_seq
from lincore.multiclass import conditional_surrogate_regret
from lincore.structured import validate_loss_matrix
from lincore.trainers import (
    corruption_probability,
    neighbor_probability,
    uniform_full_probability,
)

TINY_TRAIN_SEQ = {"n_train": 2, "n_test": 1, "iterations": 1}

CASES = {
    "chain_model_unary_rank": (
        DomainError,
        "unary weights",
        lambda: ChainModel(np.zeros(3), np.zeros((3, 3))),
    ),
    "chain_model_transition_shape": (
        DomainError,
        "transition matrix",
        lambda: ChainModel(np.zeros((3, 2)), np.zeros((2, 2))),
    ),
    "chain_model_non_finite": (
        DomainError,
        "finite",
        lambda: ChainModel(np.full((2, 2), np.nan), np.zeros((2, 2))),
    ),
    "weights_to_model_length": (
        DomainError,
        "flat weights",
        lambda: weights_to_model(np.zeros(5), 2, 2),
    ),
    "joint_feature_length": (
        DomainError,
        "matching label",
        lambda: joint_feature(2, np.zeros((3, 2)), [0, 1]),
    ),
    "radius_exact_non_finite": (
        DomainError,
        "finite",
        lambda: feature_radius_exact([np.array([[np.nan, 1.0]])], 3),
    ),
    "radius_bound_non_finite": (
        DomainError,
        "finite",
        lambda: feature_radius_bound([np.array([[np.nan, 1.0]])], 3),
    ),
    "radius_bound_1d_inputs": (
        DomainError,
        "(length, dim)",
        lambda: feature_radius_bound([np.ones(3)], 3),
    ),
    "radius_bound_empty_inputs": (
        DomainError,
        "length >= 1",
        lambda: feature_radius_bound([np.zeros((0, 2))], 3),
    ),
    "corruption_rate_above_one": (
        DomainError,
        "corruption rate",
        lambda: corruption_probability([0, 1], [0, 0], 2, 1.5),
    ),
    "corruption_unequal_lengths": (
        DomainError,
        "equal length",
        lambda: corruption_probability([0, 1], [0, 1, 0], 2, 0.3),
    ),
    "corruption_one_label": (
        DomainError,
        "n_labels must be an integer >= 2",
        lambda: corruption_probability([0, 1], [0, 1], 1, 0.3),
    ),
    "neighbor_one_label": (
        DomainError,
        "n_labels must be an integer >= 2",
        lambda: neighbor_probability(3, 1),
    ),
    "uniform_full_one_label": (
        DomainError,
        "n_labels must be an integer >= 2",
        lambda: uniform_full_probability(3, 1),
    ),
    "radius_exact_no_inputs": (DomainError, "at least one input", lambda: feature_radius_exact([], 3)),
    "radius_bound_no_inputs": (DomainError, "at least one input", lambda: feature_radius_bound([], 3)),
    "enumerate_one_label": (DomainError, "n_labels >= 2", lambda: enumerate_sequences(1, 3)),
    "loss_matrix_not_square": (
        DomainError,
        "square",
        lambda: validate_loss_matrix(np.zeros((2, 3))),
    ),
    "loss_matrix_non_finite": (
        DomainError,
        "finite",
        lambda: validate_loss_matrix([[0.0, np.nan], [1.0, 0.0]]),
    ),
    "margin_infimum_zero_weights": (
        DomainError,
        "both vanish",
        lambda: weighted_margin_infimum(BaseLoss.logistic(), 0.0, 0.0),
    ),
    "quartic_slope_overflows_its_guard": (
        DomainError,
        "quartic-linear slope",
        lambda: BaseLoss.quartic_linear(a=1e300),
    ),
    "quartic_slope_subnormal": (DomainError, "quartic-linear slope", lambda: BaseLoss.quartic_linear(a=5e-324)),
    "quartic_slope_infinite": (DomainError, "quartic-linear slope", lambda: BaseLoss.quartic_linear(a=np.inf)),
    "quartic_offset_nan": (
        DomainError,
        "quartic-linear offset",
        lambda: BaseLoss.quartic_linear(a=1e-10, offset=float("nan")),
    ),
    "quartic_offset_infinite": (
        DomainError,
        "quartic-linear offset",
        lambda: BaseLoss.quartic_linear(a=1e-10, offset=float("inf")),
    ),
    "quartic_intercept_overflows": (
        DomainError,
        "quartic-linear offset",
        lambda: BaseLoss.quartic_linear(a=1e-10, offset=1e300),
    ),
    "quartic_intercept_overflows_numpy_slope": (
        DomainError,
        "quartic-linear offset",
        lambda: BaseLoss.quartic_linear(a=np.float64(1e-10), offset=np.float64(1e300)),
    ),
    "half_width_beyond_its_cap": (
        DomainError,
        "core half-width",
        lambda: LinearCoreSpec(BaseLoss.logistic(), tau=1e308),
    ),
    "idn_spec_one_class": (DomainError, "n_classes >= 2", lambda: IdnSpec(n_classes=1)),
    "surrogate_regret_shapes": (
        DomainError,
        "matching shapes",
        lambda: conditional_surrogate_regret(
            LinearCoreSpec(BaseLoss.logistic()), np.ones(3) / 3, np.zeros(2)
        ),
    ),
    "sgd_train_no_data": (
        DomainError,
        "empty",
        lambda: sgd_train(SequenceData(train=[], n_labels=2), TrainConfig()),
    ),
    "sgd_train_1d_inputs": (
        DomainError,
        "(length, dim)",
        lambda: sgd_train(
            SequenceData(train=[(np.zeros(3), np.zeros(3, dtype=int))], n_labels=2), TrainConfig()
        ),
    ),
    "driver_unknown_base": (
        ConfigError,
        "unknown base loss",
        lambda: run_train_seq(dict(TINY_TRAIN_SEQ, base="bogus")),
    ),
    "driver_unknown_side": (
        ConfigError,
        "unknown smoothing side",
        lambda: run_train_seq(dict(TINY_TRAIN_SEQ, side="bogus")),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_input_error_raises_its_lincore_error(name):
    error, message, call = CASES[name]
    with pytest.raises(error, match=re.escape(message)):
        call()
