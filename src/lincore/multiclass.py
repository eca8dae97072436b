"""Multi-class sum losses, softmax baselines, and conditional-regret oracles.

The sum surrogate of a score vector ``s`` and true label ``y`` is

    sum_{y' != y} phi(s[y] - s[y'])

with ``phi`` a (decreasing) linear-core surrogate, so each term penalizes a
small or negative margin against the competing label.  Cross-entropy and
generalized cross-entropy are provided as the baselines of the label-noise
study.

Batch-first: each quantity has one unchecked kernel ``_name(scores, labels,
*params)`` over ``(B, C)`` scores and ``(B,)`` integer labels.  The public
functions validate once and call it; ``(C,)`` scores with an ``int`` label
give a ``float`` (or ``(C,)`` gradient), ``(B, C)`` scores give one per row.

The regret oracle is brute force by design: it enumerates label pairs,
computes every pairwise infimum with the shared convex minimizer, and is
guarded to small label counts so it can serve as ground truth.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .consistency import weighted_margin_infimum
from .errors import DomainError, EnumerationLimitError
from .losses import LinearCoreSpec, _lc, lc_value, linear_core_margin_loss

MAX_ORACLE_LABELS = 8


def _check_scores(scores, what: str = "scores") -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise DomainError(f"{what} must be (C,) or (B, C) with at least 2 classes")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    with np.errstate(over="ignore"):  # an overflow is caught below, not warned
        spread = arr.max(axis=-1) - arr.min(axis=-1)
    if not np.all(np.isfinite(spread)):
        raise DomainError(f"{what} must have finite differences: max - min overflows")
    return arr


def _integer_labels(y) -> np.ndarray:
    """Labels as int64; a float label would otherwise be truncated silently."""
    labels = np.asarray(y)
    if labels.size and labels.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
    return labels.astype(np.int64, copy=False)


def _check_labels(y, n_labels: int) -> np.ndarray:
    """Labels as int64, each in ``[0, n_labels)``: the one label rule."""
    labels = _integer_labels(y)
    # A negative label views above any count.
    if labels.size and labels.view(np.uint64).max() >= n_labels:
        raise DomainError("label out of range")
    return labels


def _check_distribution(p) -> np.ndarray:
    arr = _check_scores(p, "probabilities")
    if np.any(arr < 0.0) or np.any(np.abs(np.sum(arr, axis=-1) - 1.0) > 1e-12):
        raise DomainError("probabilities must be non-negative and sum to 1 within 1e-12")
    return arr


def _check_q(q: float) -> float:
    q = float(q)
    if not np.isfinite(q) or not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    return q


def _oracle_batch(p, scores) -> tuple[np.ndarray, np.ndarray, bool]:
    """Validated ``(B, C)`` distributions and scores, and whether they were a batch."""
    p = _check_distribution(p)
    scores = _check_scores(scores)
    if p.shape != scores.shape:
        raise DomainError("p and scores must have matching shapes")
    if p.shape[-1] > MAX_ORACLE_LABELS:
        raise EnumerationLimitError(f"at most {MAX_ORACLE_LABELS} oracle labels, got {p.shape[-1]}")
    return np.atleast_2d(p), np.atleast_2d(scores), p.ndim == 2


def _unbatch(batched: bool, *values):
    """Per-row results of a batch as they are; of a single input, as floats."""
    return values if batched else tuple(float(v[0]) for v in values)


def _batched(kernel, scores, y, *args):
    """Validate ``scores`` and their labels ``y``, then run ``kernel`` on them as a batch."""
    scores = _check_scores(scores)
    labels = _check_labels(y, scores.shape[-1])
    if labels.shape != scores.shape[:-1]:
        raise DomainError("need one label per score row")
    if scores.ndim == 2:
        return kernel(scores, labels, *args)
    out = kernel(scores[None], labels[None], *args)
    return out[0] if out.ndim == 2 else float(out[0])


def _sum_loss(scores, labels, spec):
    rows = np.arange(labels.size)
    values = lc_value(spec, scores[rows, labels][:, None] - scores)
    return values.sum(axis=1) - values[rows, labels]


@lru_cache(maxsize=16)
def _row_starts(shape: tuple) -> np.ndarray:
    """Read-only flat index of each row's first entry in a C-ordered array of ``shape``."""
    starts = np.arange(0, int(np.prod(shape)), shape[-1]).reshape(shape[:-1])
    starts.setflags(write=False)
    return starts


def _sum_loss_gradient(scores, labels, spec):
    cells = _row_starts(scores.shape) + labels  # (..., B, C) scores, (..., B) labels
    slopes = _lc(spec, scores.reshape(-1)[cells][..., None] - scores, 1)
    grad = -slopes
    np.put(grad, cells, slopes.sum(axis=-1) - slopes.reshape(-1)[cells])
    return grad


@lru_cache(maxsize=16)
def _onehot_rows(n: int) -> np.ndarray:
    """Read-only identity, built once instead of per minibatch; row ``y`` is one-hot ``y``."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _class_max(scores):
    """``scores.max(axis=-1, keepdims=True)`` without a reduction's per-call cost.

    Max is exact in any order.  Only a tied zero's sign may differ, and no
    caller sees it: a shifted zero is exponentiated (``exp(+-0) == 1``) or
    subtracted from a log-sum of at least ``log 2``.
    """
    top = scores[..., 0]
    for c in range(1, scores.shape[-1]):
        top = np.maximum(top, scores[..., c])
    return top[..., None]


def _softmax(scores):
    probs = np.exp(scores - _class_max(scores))
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _ce_loss(scores, labels):
    shifted = scores - _class_max(scores)
    return np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(labels.size), labels]


def _gce_loss(scores, labels, q):
    return (1.0 - _softmax(scores)[np.arange(labels.size), labels] ** q) / q


def _powers(p_y, qs):
    """``p_y[..., f, :] ** qs[f]`` with each row's bits of a scalar ``** float(q)``: one ``pow``
    with an exponent column, stride 0 along a row as a scalar's is, and ``sqrt`` where numpy
    sends a scalar ``** 0.5`` (the two can differ in the last bit)."""
    powers = np.power(p_y, np.array(qs, dtype=np.float64)[:, None])
    for f in [f for f, q in enumerate(qs) if q == 0.5]:
        powers[..., f, :] = np.sqrt(p_y[..., f, :])
    return powers


def _softmax_gradients(scores, labels, qs):
    """``p_y**q * (p - onehot(y))`` of ``(..., F, B, C)`` scores, row ``f`` at ``qs[f]``.

    ``labels`` are ``(..., B)``, the same for every ``f``.  ``q = 0`` is
    cross-entropy, bit for bit: ``p_y ** 0.0 == 1`` and ``1.0 * g == g``.
    """
    grads = _softmax(scores)
    labels = labels[..., None, :]
    powers = _powers(grads.reshape(-1)[_row_starts(grads.shape) + labels], qs)
    grads -= _onehot_rows(scores.shape[-1])[labels]
    grads *= powers[..., None]
    return grads


def _gce_gradient(scores, labels, q):
    return _softmax_gradients(scores[None], labels, (q,))[0]


def _surrogate_regret(spec, weights, scores):
    ii, jj = np.triu_indices(scores.shape[1], k=1)
    margins = scores[:, ii] - scores[:, jj]
    w_i, w_j = weights[:, ii], weights[:, jj]
    realized = w_i * lc_value(spec, margins) + w_j * lc_value(spec, -margins)
    loss = linear_core_margin_loss(spec)
    infima = weighted_margin_infimum(loss, w_i.ravel(), w_j.ravel()).value
    return (realized - infima.reshape(margins.shape)).sum(axis=1)


def mc_sum_loss(spec: LinearCoreSpec, scores, y):
    return _batched(_sum_loss, scores, y, spec)


def mc_sum_loss_gradient(spec: LinearCoreSpec, scores, y) -> np.ndarray:
    return _batched(_sum_loss_gradient, scores, y, spec)


def ce_loss(scores, y):
    """Softmax negative log-likelihood."""
    return _batched(_ce_loss, scores, y)


def ce_gradient(scores, y) -> np.ndarray:
    return _batched(_gce_gradient, scores, y, 0.0)


def gce_loss(scores, y, q: float):
    """Generalized cross-entropy (1 - p_y^q) / q."""
    return _batched(_gce_loss, scores, y, _check_q(q))


def gce_gradient(scores, y, q: float) -> np.ndarray:
    return _batched(_gce_gradient, scores, y, _check_q(q))


def conditional_surrogate_regret(spec: LinearCoreSpec, weights, scores):
    """Surrogate conditional regret under per-label weights.

    Decomposes the weighted sum loss over unordered label pairs and
    subtracts each pair's infimum over the real line:

        sum_{i<j} [ w_i phi(m_ij) + w_j phi(-m_ij) - inf_u (w_i phi(u) + w_j phi(-u)) ]

    With weights = conditional label probabilities this is the multi-class
    conditional regret; with similarity-mixed weights it is the structured
    one.  Each summand is non-negative, so the result is a certified upper
    bound on the regret relative to the pairwise-optimal score profile.
    ``(B, C)`` weights and scores give one regret per row.
    """
    weights = np.asarray(weights, dtype=np.float64)
    scores = _check_scores(scores)
    if weights.shape != scores.shape:
        raise DomainError("weights and scores must have matching shapes")
    regret = _surrogate_regret(spec, np.atleast_2d(weights), np.atleast_2d(scores))
    return _unbatch(scores.ndim == 2, regret)[0]


def mc_conditional_regrets(spec: LinearCoreSpec, p, scores):
    """(zero-one regret, surrogate regret) at one input, or per row of a batch.

    Brute-force oracle; refuses more than ``MAX_ORACLE_LABELS`` labels.
    """
    p, scores, batched = _oracle_batch(p, scores)
    predicted = np.argmax(scores, axis=1)
    regret_01 = np.max(p, axis=1) - p[np.arange(predicted.size), predicted]
    return _unbatch(batched, regret_01, _surrogate_regret(spec, p, scores))
