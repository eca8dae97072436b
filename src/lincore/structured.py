"""Linear-chain scorers, joint features, and exact structured-loss oracles.

A :class:`ChainModel` scores a sequence ``y`` for inputs ``x`` as

    sum_j unary[y_j] . x_j  +  sum_{j>=2} transition[y_{j-1}, y_j]

which is linear in the flattened weights, as witnessed by
:func:`joint_feature`: ``sequence_score(model, x, y) ==
model_weights(model) . joint_feature(n_labels, x, y)``.  The flat layout is
fixed: the unary block is label-major then feature-index, followed by the
row-major transition block.  Trainers and the gradient-variance bound rely
on this layout, so it must not change.

The structured sum loss weights every candidate label by its similarity to
the truth and aggregates pairwise margins against all competitors:

    sum_{y'} (1 - ell(y', y)) * sum_{y'' != y'} phi(score(y') - score(y''))

Exact evaluation enumerates the whole label space and is guarded; the
guards raise instead of truncating because these functions are the oracles
other code is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, EnumerationLimitError, _finite, _OverflowGuard
from .losses import LinearCoreSpec, lc_derivative, lc_value
from .multiclass import _check_labels, _oracle_batch, _surrogate_regret, _unbatch

ENUMERATION_LIMIT = 4096

# Pairwise enumeration works on row blocks of roughly this many matrix
# elements to bound peak memory at the guard limit.
_CHUNK_ELEMENTS = 2**22

# The exact sum loss stacks as many instance rows per margin block as fit
# roughly this many elements, so each block's surrogate temporaries stay in
# cache (budgets from 2**13 to 2**16 time the same).
_CACHE_ELEMENTS = 2**15

# Bytes per cache line.  A large add or product whose output starts off a
# line runs up to a third slower, and ``np.empty`` only promises 16 bytes.
_CACHE_LINE = 64


def _aligned_empty(shape: tuple) -> np.ndarray:
    """Uninitialized C-contiguous float64 array of ``shape`` whose data
    starts on a ``_CACHE_LINE``-byte boundary: one line over-allocated, then sliced."""
    size = math.prod(shape)
    raw = np.empty(size + _CACHE_LINE // 8)
    start = -raw.ctypes.data % _CACHE_LINE // 8
    return raw[start : start + size].reshape(shape)


def _empty_for(cells: int):
    """The one allocation rule of the chain recursions: a call over ``(L - 1)
    * N * Y^2`` cells of ``N`` tables takes :func:`_aligned_empty` scratch
    from the cache budget on, else ``np.empty`` (an address costs 1-2 µs)."""
    return _aligned_empty if cells >= _CACHE_ELEMENTS else np.empty


@dataclass(frozen=True)
class ChainModel:
    """Linear-chain sequence scorer: unary weights (Y, d) + transitions (Y, Y)."""

    unary: np.ndarray
    transition: np.ndarray

    def __post_init__(self) -> None:
        unary = np.asarray(self.unary, dtype=np.float64)
        transition = np.asarray(self.transition, dtype=np.float64)
        if unary.ndim != 2:
            raise DomainError("unary weights must be a (n_labels, dim) matrix")
        n = unary.shape[0]
        if transition.shape != (n, n):
            raise DomainError("transition matrix must be square with one row per label")
        if not (np.all(np.isfinite(unary)) and np.all(np.isfinite(transition))):
            raise DomainError("model weights must be finite")
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "transition", transition)

    @property
    def n_labels(self) -> int:
        return self.unary.shape[0]

    @property
    def dim(self) -> int:
        return self.unary.shape[1]

    @classmethod
    def zeros(cls, n_labels: int, dim: int) -> "ChainModel":
        """The all-zero model, with a cache-line-aligned transition."""
        transition = _aligned_empty((n_labels, n_labels))
        transition.fill(0.0)
        return cls(np.zeros((n_labels, dim)), transition)


def model_weights(model: ChainModel) -> np.ndarray:
    """Flatten a chain model into the fixed weight layout."""
    return np.concatenate([model.unary.ravel(), model.transition.ravel()])


def weights_to_model(weights: np.ndarray, n_labels: int, dim: int) -> ChainModel:
    """Inverse of :func:`model_weights`."""
    weights = np.asarray(weights, dtype=np.float64)
    expected = n_labels * dim + n_labels * n_labels
    if weights.shape != (expected,):
        raise DomainError(f"expected flat weights of length {expected}, got {weights.shape}")
    unary = weights[: n_labels * dim].reshape(n_labels, dim)
    transition = weights[n_labels * dim :].reshape(n_labels, n_labels)
    return ChainModel(unary.copy(), transition.copy())


def _check_inputs(x) -> np.ndarray:
    """``x`` as a finite float ``(length, dim)`` matrix with ``length >= 1``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DomainError("inputs must be a (length, dim) matrix with length >= 1")
    # ``count_nonzero`` tests a small mask about 0.7 µs faster than ``.all()``.
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise DomainError("inputs must be finite")
    return x


def _check_instance(model: ChainModel, x: np.ndarray, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    return _check_sequence(model.n_labels, model.dim, x, y)


def _check_sequence(n_labels: int, dim: int | None, x, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The one instance rule: finite ``(L >= 1, dim)`` inputs (any ``dim``
    for ``None``) and, if given, ``L`` integer labels in ``[0, n_labels)``."""
    x = _check_inputs(x)
    if dim is not None and x.shape[1] != dim:
        raise DomainError(f"input dim {x.shape[1]} does not match dim {dim} of the model or data")
    if y is None:
        return x, None
    y = _check_labels(y, n_labels)
    if y.shape != (x.shape[0],):
        raise DomainError("label sequence length must match the input length")
    return x, y


def hamming_loss(y, y_other) -> float:
    """Fraction of positions where two equal-length label sequences differ."""
    a = np.asarray(y)
    b = np.asarray(y_other)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DomainError("sequences must be 1-D and of equal length")
    return float(np.mean(a != b))


def _chain_scores(model: ChainModel, x: np.ndarray, sequences: np.ndarray) -> np.ndarray:
    """Unchecked scores of the (K, L) ``sequences`` for the (L, d) inputs.

    The one sequence scorer: each sequence gathers its unary rows and
    dots them with ``x``, then adds its gathered transitions.  Every score
    in the package comes from here, so a sequence scores the same bits
    alone, in a pair or in a full enumeration.  ``(N, L, d)`` inputs give
    ``(N, K)`` scores, each row bitwise the scores of its own ``(L, d)``
    call, of the shared ``(K, L)`` sequences or of each instance's own
    ``(N, K, L)`` ones.  Callers validate first.
    """
    gathered = model.unary[sequences]
    if x.ndim == 2:
        scores = np.einsum("kld,ld->k", gathered, x)
    elif sequences.ndim == 2:
        scores = np.einsum("kld,nld->nk", gathered, x)
    else:
        scores = np.einsum("nkld,nld->nk", gathered, x)
    if sequences.shape[-1] > 1:
        scores += model.transition[sequences[..., :-1], sequences[..., 1:]].sum(axis=-1)
    return scores


def sequence_score(model: ChainModel, x, y) -> float:
    x, y = _check_instance(model, x, y)
    with _OverflowGuard():
        return float(_finite(_chain_scores(model, x, y[None])[0]))


def joint_feature(n_labels: int, x, y) -> np.ndarray:
    """Flat feature map phi(x, y) with score(x, y) = weights . phi(x, y)."""
    x = np.asarray(x, dtype=np.float64)
    y = _check_labels(y, n_labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DomainError("need (length, dim) inputs and a matching label sequence")
    dim = x.shape[1]
    unary = np.zeros((n_labels, dim))
    with _OverflowGuard():
        np.add.at(unary, y, x)
    transition = np.zeros((n_labels, n_labels))
    if y.size > 1:
        np.add.at(transition, (y[:-1], y[1:]), 1.0)
    return np.concatenate([unary.ravel(), transition.ravel()])


# A feature delta keeps the whole (Y, Y) transition block while the block
# has at most this many cells per edge of its sequences, and only the
# touched cells beyond that: up to there, filling and applying the block
# costs less than sorting out the cells (at L = 20, d = 20 both the hinge
# and the K-negative delta cross over between 130 and 240 cells per edge).
_CELLS_PER_EDGE = 128


@dataclass(frozen=True)
class FeatureDelta:
    """A flat-layout feature vector: the whole ``(Y, d)`` unary block, and
    the transition block whole or on the cells its sequences touch.

    ``transition[i]`` is the value of the row-major transition cell
    ``cells[i]`` (``slice(None)``: every cell); every other cell is zero.
    Each stored entry holds exactly the value the dense ``np.add.at``
    accumulation would hold, so densifying or applying it is bitwise
    identical to working with the dense vector.
    """

    n_labels: int
    unary: np.ndarray
    cells: np.ndarray | slice
    transition: np.ndarray

    def dense(self) -> np.ndarray:
        transition = np.zeros(self.n_labels * self.n_labels)
        transition[self.cells] = self.transition
        return np.concatenate([self.unary.ravel(), transition])

    def subtract_from(self, model: "ChainModel", step: float) -> None:
        """In-place ``weights -= step * delta`` for ``step >= 0``.

        A cell left out holds 0.0, and ``w - step * 0.0 == w``, so skipping
        it moves no bit.
        """
        unary, transition = model.unary, model.transition
        unary -= step * self.unary
        if isinstance(self.cells, slice):
            transition -= step * self.transition.reshape(transition.shape)
        else:
            transition[np.divmod(self.cells, self.n_labels)] -= step * self.transition


def _feature_delta(
    n_labels: int, x: np.ndarray, sequences: np.ndarray, coeffs: np.ndarray, split: int | None = None
) -> FeatureDelta:
    """``sum_k coeffs[k] * joint_feature(n_labels, x, sequences[k])`` as a
    :class:`FeatureDelta`, for inputs ``x`` shared as ``(L, d)`` or one per
    sequence as ``(K, L, d)``; with ``split``, the rows from ``split`` on
    are summed apart and their sum subtracted.

    Each unary entry ``label * d + column`` and each transition cell adds
    its terms from 0.0 in row-major ``(k, position)`` order, as
    ``np.add.at`` over the stacked sequences does, because ``np.bincount``
    adds its weights left to right.  The transitions keep the whole
    ``(Y, Y)`` block up to ``_CELLS_PER_EDGE`` cells per edge and the
    touched cells beyond it.
    """
    length, dim = x.shape[-2:]
    parts = 1 if split is None else 2
    edges = sequences[:, :-1] * n_labels + sequences[:, 1:]
    if _CELLS_PER_EDGE * edges.size >= n_labels * n_labels:
        cells, size = slice(None), n_labels * n_labels
    else:
        cells = np.sort(edges, axis=None)
        cells = np.concatenate((cells[:1], cells[1:][cells[1:] != cells[:-1]]))
        edges, size = np.searchsorted(cells, edges), cells.size
    rows = sequences * dim
    if split is not None:
        rows[split:] += n_labels * dim
        edges[split:] += size
    unary = np.bincount(
        (rows[:, :, None] + np.arange(dim)).ravel(),
        (coeffs[:, None, None] * x).ravel(),
        minlength=parts * n_labels * dim,
    )
    transition = np.bincount(edges.ravel(), np.repeat(coeffs, length - 1), minlength=parts * size)
    if split is not None:
        unary = unary[: n_labels * dim] - unary[n_labels * dim :]
        transition = transition[:size] - transition[size:]
    return FeatureDelta(n_labels, unary.reshape(n_labels, dim), cells, transition)


def feature_difference(n_labels: int, x, plus, minus) -> FeatureDelta:
    """``joint_feature(plus) - joint_feature(minus)`` as a :class:`FeatureDelta`.

    Each sequence's features are summed in :func:`joint_feature`'s order
    before the subtraction, so the dense form matches the difference of
    the two dense features bit for bit.
    """
    sequences = np.array([plus, minus], dtype=np.int64)
    with _OverflowGuard():
        delta = _feature_delta(n_labels, np.asarray(x, dtype=np.float64), sequences, np.ones(2), split=1)
    _finite(delta.unary)
    return delta


def enumerate_sequences(n_labels: int, length: int) -> np.ndarray:
    """All label sequences in lexicographic order, shape (n_labels**length, length)."""
    if n_labels < 2 or length < 1:
        raise DomainError("need n_labels >= 2 and length >= 1")
    total = n_labels**length
    if total > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"label space size {total} exceeds the enumeration guard {ENUMERATION_LIMIT}"
        )
    return np.array(list(product(range(n_labels), repeat=length)), dtype=np.int64)


def all_sequence_scores(model: ChainModel, x, sequences) -> np.ndarray:
    """Scores of many label sequences at once."""
    x, _ = _check_instance(model, x)
    sequences = _check_labels(sequences, model.n_labels)
    if sequences.ndim != 2 or sequences.shape[1] != x.shape[0]:
        raise DomainError("sequences must be a (count, length) matrix matching the input length")
    with _OverflowGuard():
        return _finite(_chain_scores(model, x, sequences))


def similarity_weights(sequences: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 - Hamming distance of every enumerated sequence to ``y``.

    ``(N, L)`` targets give ``(N, K)`` weights, one row per target.  The
    differing positions are counted one position at a time: the count is
    exact, so ``1 - count / L`` has the bits of averaging the float mask,
    without its slow reduction over the short last axis.
    """
    y = np.asarray(y)
    length = sequences.shape[1]
    differ = np.zeros(y.shape[:-1] + sequences.shape[:1], dtype=np.intp)
    for j in range(length):
        differ += sequences[:, j] != y[..., j, None]
    return 1.0 - differ / length


def _check_batch(model: ChainModel, x, y) -> tuple[np.ndarray, np.ndarray, bool]:
    """Validated ``(L, d)`` or ``(N, L, d)`` inputs with their labels, and
    whether they were a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        x, y = _check_instance(model, x, y)
        return x, y, False
    y = np.asarray(y)
    if y.shape != x.shape[:2]:
        raise DomainError("need one label sequence per input matrix, matching its length")
    # Rows of equal length check as one (N * L, d) instance.
    _, labels = _check_instance(model, x.reshape(x.shape[0] * x.shape[1], x.shape[2]), y.ravel())
    return x, labels.reshape(y.shape), True


def structured_sum_loss_exact(spec: LinearCoreSpec, model: ChainModel, x, y):
    """Exact structured sum loss by full enumeration of the label space.

    ``(L, d)`` inputs with ``(L,)`` labels give a float.  ``(N, L, d)``
    inputs with ``(N, L)`` labels give one value per row, each bitwise the
    value of the row's own call: the label space is enumerated and scored
    once, and the surrogate runs once per block of margins.  The anchors
    split at the memory budget ``_CHUNK_ELEMENTS`` as for a single
    instance; the instance rows then split at the cache budget
    ``_CACHE_ELEMENTS``.  Each row is summed over its own contiguous axis,
    so neither split moves a bit.
    """
    x, y, batched = _check_batch(model, x, y)
    seqs = enumerate_sequences(model.n_labels, x.shape[-2])
    with _OverflowGuard():
        scores = _finite(np.atleast_2d(_chain_scores(model, x, seqs)))
        weights = np.atleast_2d(similarity_weights(seqs, y))
        count, m = scores.shape
        totals = np.zeros(count)
        phi0 = lc_value(spec, 0.0)
        anchors = max(1, _CHUNK_ELEMENTS // m)
        for start in range(0, m, anchors):
            stop = min(start + anchors, m)
            rows = max(1, _CACHE_ELEMENTS // ((stop - start) * m))
            for first in range(0, count, rows):
                block = scores[first : first + rows]
                margins = block[:, start:stop, None] - block[:, None, :]
                inner = lc_value(spec, margins).sum(axis=2) - phi0
                for i, row in enumerate(inner, first):
                    totals[i] += np.dot(weights[i, start:stop], row)
    return totals if batched else float(totals[0])


def structured_sum_loss_gradient_exact(spec: LinearCoreSpec, model: ChainModel, x, y) -> np.ndarray:
    """Exact gradient of the structured sum loss in flat weight space."""
    x, y = _check_instance(model, x, y)
    n = model.n_labels
    seqs = enumerate_sequences(n, x.shape[0])
    with _OverflowGuard():
        scores = _finite(_chain_scores(model, x, seqs))
        weights = similarity_weights(seqs, y)

        # Each ordered pair (y', y'') with y' != y'' contributes
        # weights[y'] * phi'(score' - score'') * (feature' - feature'').
        # Accumulate per-sequence coefficients: alpha_k = (row sums) - (column sums).
        m = scores.size
        alpha = np.zeros(m)
        chunk = max(1, _CHUNK_ELEMENTS // m)
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            margins = scores[start:stop, None] - scores[None, :]
            slopes = lc_derivative(spec, margins)
            idx = np.arange(start, stop)
            slopes[idx - start, idx] = 0.0
            w_rows = weights[start:stop, None] * slopes
            alpha[start:stop] += w_rows.sum(axis=1)
            alpha -= w_rows.sum(axis=0)
        return _finite(_feature_delta(n, x, seqs, alpha).dense())


def validate_loss_matrix(ell) -> np.ndarray:
    """Check a target loss matrix (or a batch): square, zero diagonal, entries in [0, 1]."""
    ell = np.asarray(ell, dtype=np.float64)
    if ell.ndim not in (2, 3) or ell.shape[-1] != ell.shape[-2] or ell.shape[-1] < 2:
        raise DomainError("loss matrix must be square with at least 2 labels")
    if not np.all(np.isfinite(ell)):
        raise DomainError("loss matrix entries must be finite")
    if np.any(np.abs(np.diagonal(ell, axis1=-2, axis2=-1)) > 0.0):
        raise DomainError("loss matrix diagonal must be zero")
    if np.any(ell < 0.0) or np.any(ell > 1.0):
        raise DomainError(
            "loss matrix entries must lie in [0, 1]; larger losses would make "
            "similarity weights negative"
        )
    return ell


def structured_conditional_regrets(spec: LinearCoreSpec, p, scores, loss_matrix):
    """(target regret, surrogate regret) for an explicit finite label set.

    ``p`` is the conditional distribution over labels, ``scores`` the score
    vector, ``loss_matrix`` the target loss.  The surrogate side mixes the
    distribution through the similarity weights W(y') = sum_y p_y (1 - ell(y', y))
    and reuses the pairwise-infimum decomposition.  ``(B, n)`` distributions
    and scores with ``(B, n, n)`` loss matrices give one pair of regrets per row.
    """
    p, scores, batched = _oracle_batch(p, scores)
    ell = validate_loss_matrix(loss_matrix)
    ell = ell if batched else ell[None]
    if ell.shape != p.shape + p.shape[-1:]:
        raise DomainError("p, scores, and loss matrix sizes must agree")
    expected_loss = (ell @ p[:, :, None])[:, :, 0]
    rows, predicted = np.arange(p.shape[0]), np.argmax(scores, axis=1)
    regret_target = expected_loss[rows, predicted] - np.min(expected_loss, axis=1)
    similarity_mix = ((1.0 - ell) @ p[:, :, None])[:, :, 0]
    regret_surrogate = _surrogate_regret(spec, similarity_mix, scores)
    return _unbatch(batched, regret_target, regret_surrogate)


def _check_input_list(xs) -> list:
    """Each of ``xs`` through :func:`_check_inputs`; an empty list has no radius."""
    xs = [_check_inputs(x) for x in xs]
    if not xs:
        raise DomainError("need at least one input")
    return xs


def feature_radius_exact(xs, n_labels: int) -> float:
    """Largest joint-feature norm over all inputs and all label sequences."""
    best = 0.0
    for x in _check_input_list(xs):
        seqs = enumerate_sequences(n_labels, x.shape[0])
        for seq in seqs:
            best = max(best, float(np.linalg.norm(joint_feature(n_labels, x, seq))))
    return best


def feature_radius_bound(xs, n_labels: int) -> float:
    """Cheap upper bound on the joint-feature norm for large label spaces.

    The unary block norm is at most the summed row norms of ``x`` (all
    positions on one label) and the transition block at most L-1 counts in
    one cell.
    """
    best = 0.0
    for x in _check_input_list(xs):
        unary_bound = float(np.sum(np.linalg.norm(x, axis=1)))
        best = max(best, float(np.hypot(unary_bound, x.shape[0] - 1)))
    return best
