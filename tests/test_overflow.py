"""The overflow rule of the numeric API: a finite input gives a finite result
without a numpy warning, or the call raises a ``LincoreError`` subclass."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import (
    BaseLoss,
    ChainModel,
    EvaluationOverflowError,
    LincoreError,
    LinearCoreSpec,
    base_derivative,
    base_second_derivative,
    base_value,
    ce_gradient,
    ce_loss,
    crf_nll_and_gradient,
    forward_backward,
    gce_gradient,
    gce_loss,
    lc_branch_second_derivative,
    lc_derivative,
    lc_value,
    loss_augmented_viterbi,
    mc_sum_loss,
    mc_sum_loss_gradient,
    sequence_score,
    ssvm_loss_and_subgradient,
    structured_sum_loss_exact,
    structured_sum_loss_gradient_exact,
    viterbi,
)
from lincore.losses import _MAX_TAU, _MIN_TAU
from lincore.structured import all_sequence_scores

SPEC = LinearCoreSpec(BaseLoss.logistic())

# Finite chain inputs whose products or sums overflow float64.
PRODUCT_OVERFLOW = (  # x @ unary.T passes the float64 maximum
    ChainModel([[1e300, -1e300], [0, 0], [-1e300, 1e300]], np.zeros((3, 3))),
    np.array([[1e10, 1e10], [1e10, -1e10], [0.0, 1.0]]),
    np.array([0, 1, 2]),
)
SUM_OVERFLOW = (  # every score is finite; the sum loss's totals are not
    ChainModel(np.zeros((3, 2)), [[1e307, -1e307, 0], [0, 0, 0], [-1e307, 1e307, 0]]),
    np.ones((3, 2)),
    np.array([0, 1, 2]),
)

CHAIN_FUNCTIONS = {
    "sequence_score": lambda m, x, y: sequence_score(m, x, y),
    "all_sequence_scores": lambda m, x, y: all_sequence_scores(m, x, np.stack([y, y[::-1]])),
    "viterbi": lambda m, x, y: viterbi(m, x),
    "loss_augmented_viterbi": lambda m, x, y: loss_augmented_viterbi(m, x, y),
    "forward_backward": lambda m, x, y: forward_backward(m, x),
    "crf_nll_and_gradient": lambda m, x, y: crf_nll_and_gradient(m, x, y),
    "ssvm_loss_and_subgradient": lambda m, x, y: ssvm_loss_and_subgradient(m, x, y),
    "structured_sum_loss_exact": lambda m, x, y: structured_sum_loss_exact(SPEC, m, x, y),
    "structured_sum_loss_gradient_exact": lambda m, x, y: structured_sum_loss_gradient_exact(SPEC, m, x, y),
}


@pytest.mark.parametrize(
    "name, instance",
    [(name, PRODUCT_OVERFLOW) for name in CHAIN_FUNCTIONS]
    + [("structured_sum_loss_exact", SUM_OVERFLOW)],
)
def test_chain_overflow_raises_evaluation_overflow_error(name, instance):
    """Instead of a NaN score, a warning from ``matmul`` or ``subtract``, or
    an ``inf`` sum loss."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflowError):
            CHAIN_FUNCTIONS[name](*instance)


def _assert_finite(result):
    if isinstance(result, tuple):
        for part in result:
            _assert_finite(part)
    elif dataclasses.is_dataclass(result):
        _assert_finite(tuple(getattr(result, f.name) for f in dataclasses.fields(result)))
    else:
        assert np.all(np.isfinite(result)), result


def _assert_rule(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except LincoreError:
            return
    _assert_finite(result)


TINY = float(np.finfo(np.float64).tiny)
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, TINY, 0.5, -1.0, 700.0, -701.0, 1e77, -1e154, 1e290, -1e300)
EXTREMES += (1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(-1e308, 1e308, allow_subnormal=True))
BASES = [BaseLoss.logistic(), BaseLoss.exponential()] + [
    BaseLoss.quartic_linear(a, offset)
    for a, offset in [(TINY, 0.0), (TINY, -1.0), (1e-10, 0.0), (1.0, 0.0), (1.0, 1e300), (1e230, -1e308)]
]
SPECS = st.builds(
    LinearCoreSpec,
    st.sampled_from(BASES),
    st.sampled_from(["symmetric", "one_sided"]),
    st.sampled_from([_MIN_TAU, 1.0, 1e10, _MAX_TAU]),
)


def _array(data, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(FLOATS, min_size=size, max_size=size))).reshape(shape)


def _loss_call(data):
    spec, u = data.draw(SPECS), _array(data, (data.draw(st.integers(1, 4)),))
    kind = data.draw(st.sampled_from(["lc_value", "lc_derivative", "lc_derivative_float", "second", "base"]))
    if kind == "lc_value":
        return lambda: lc_value(spec, u)
    if kind == "lc_derivative":
        return lambda: lc_derivative(spec, u)
    if kind == "lc_derivative_float":
        return lambda: lc_derivative(spec, float(u[0]))
    if kind == "second":
        return lambda: lc_branch_second_derivative(spec, u, data.draw(st.sampled_from(["left", "right"])))
    base_fn = data.draw(st.sampled_from([base_value, base_derivative, base_second_derivative]))
    return lambda: base_fn(spec.base, u)


def _multiclass_call(data):
    classes, rows = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 2))
    scores = _array(data, (rows, classes))
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows)))
    spec, q = data.draw(SPECS), data.draw(st.sampled_from([TINY, 0.3, 1.0]))
    return data.draw(st.sampled_from([
        lambda: mc_sum_loss(spec, scores, labels),
        lambda: mc_sum_loss_gradient(spec, scores, labels),
        lambda: ce_loss(scores, labels),
        lambda: ce_gradient(scores, labels),
        lambda: gce_loss(scores, labels, q),
        lambda: gce_gradient(scores, labels, q),
    ]))


def _chain_call(data):
    n, length, dim = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    model = ChainModel(_array(data, (n, dim)), _array(data, (n, n)))
    x = _array(data, (length, dim))
    y = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length)))
    function = CHAIN_FUNCTIONS[data.draw(st.sampled_from(sorted(CHAIN_FUNCTIONS)))]
    return lambda: function(model, x, y)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_finite_inputs_give_finite_results_or_a_lincore_error(data):
    """The public numeric functions of the loss, multiclass and chain layers,
    fed ±1e308, subnormals, ±0.0, huge score gaps, ``tau`` up to its cap
    and chain weights and inputs whose products overflow."""
    layer = data.draw(st.sampled_from([_loss_call, _multiclass_call, _chain_call]))
    _assert_rule(layer(data))
