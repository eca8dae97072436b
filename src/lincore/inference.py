"""Exact dynamic programming for the chain baselines.

Viterbi and forward-backward both run in O(L * Y^2).  Ties in any
maximization break toward the lower label index, which makes decoded
sequences reproducible and lets enumeration oracles predict them exactly:
backtracking with first-argmax predecessors returns the optimal sequence
that is lexicographically smallest when read from the last position
backwards.

Forward-backward runs in probability space with per-position scaling
(Rabiner 1989).  With ``E = exp(T - max T)`` and ``psi_j = exp(U_j - max
U_j)``, the forward messages ``alpha_j`` are normalized to sum to one by
factors ``c_j``, the backward messages ``beta_j`` are divided by the same
factors, and ``log Z`` is ``sum_j log c_j`` plus the shifts.  Each step is
a BLAS matrix-vector product; the only exponentials are the ``Y^2``
entries of ``E`` and the ``L * Y`` entries of ``psi``.  Let ``R = ptp(T) +
max_j ptp(U_j)`` be the potential range in nats.  Every ``alpha_j`` entry
is then at least ``exp(-R) / Y``, every ``beta_j`` entry lies in
``[exp(-ptp T), Y exp(R)]`` because ``sum_a alpha_j beta_j = 1``, and every
``c_j`` lies in ``[exp(-ptp T), Y]``.  While ``R`` stays below 600 nats
nothing can leave the normal float64 range.  Beyond it the potentials fall
back to the max-shifted log-sum-exp recursion, which cannot overflow at
any scale but pays an ``exp`` per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multiclass import _row_starts
from .structured import (
    _CACHE_ELEMENTS,
    ChainModel,
    _aligned_empty,
    _chain_scores,
    _check_instance,
    feature_difference,
)

# Potential range (nats) up to which the scaled recursion stays inside the
# normal float64 range: exp(-600) / Y is normal for any Y below 1e40.
_SCALED_RANGE_LIMIT = 600.0


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _unary_table(model: ChainModel, x: np.ndarray) -> np.ndarray:
    return x @ model.unary.T  # (L, Y)


@lru_cache(maxsize=16)
def _viterbi_tiles(count: int, n: int) -> tuple:
    """Cache-sized tiles ``(i0, i1, t0, t1)`` of the flat ``(instance, to)``
    candidate rows: instances ``i0:i1``, each over its ``to`` rows ``t0:t1``.
    A tile holds whole instances while one ``Y x Y`` block fits
    ``_CACHE_ELEMENTS``, otherwise a run of one instance's rows."""
    group = _CACHE_ELEMENTS // (n * n)
    if group:
        return tuple((i, min(i + group, count), 0, n) for i in range(0, count, group))
    width = max(1, _CACHE_ELEMENTS // n)
    return tuple((i, i + 1, t, min(t + width, n)) for i in range(count) for t in range(0, n, width))


def _viterbi(unary: np.ndarray, transition: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one Viterbi recursion: best paths ``(N, L)`` and scores ``(N,)``
    of ``(N, L, Y)`` unary tables under one ``(Y, Y)`` transition matrix.

    Candidates ``dp[from] + T[from, to]`` are laid out as flat ``(instance,
    to)`` rows over ``from``, so each argmax (ties to the first index) runs
    along a contiguous row; the chosen value and the backtrack's pointers
    come back with flat takes.  Each position runs over the tiles of
    :func:`_viterbi_tiles`, so a candidate block never outgrows the cache
    budget shared with the exact sum loss; the chosen values go to a second
    buffer, and the unary term is added once the last tile is done.  Large
    calls add into a cache-line-aligned candidate buffer.  Runs of one
    instance's ``to`` rows also get aligned transition rows and add from one
    aligned ``block`` that holds the instance's ``dp`` row in every row,
    copied once per position.  A tile only regroups whole rows and a copy
    moves no bit, so no addition and no tie-break moves, and a row decodes
    the same bits alone or in any batch.  Callers validate first.
    """
    count, length, n = unary.shape
    bounds = _viterbi_tiles(count, n)
    i0, i1, t0, t1 = bounds[0]  # the largest tile
    # A call that adds a cache budget of candidates or more writes them to
    # aligned buffers; smaller calls skip the microseconds an address costs.
    empty = _aligned_empty if (length - 1) * count * n * n >= _CACHE_ELEMENTS else np.empty
    cand = empty((i1 - i0, t1 - t0, n))  # (instance, to, from)
    runs = t1 < n  # tiles are runs of one instance's rows
    if runs:  # block: the current instance's dp row in each of its rows
        to_from, picked, block = (empty(s) for s in ((n, n), (count, n), (t1 - t0, n)))
        np.copyto(to_from, transition.T)
    else:
        to_from, picked = np.ascontiguousarray(transition.T), np.empty((count, n))
    rows = cand.reshape(-1, n)
    chosen = np.empty(rows.shape[0], dtype=np.int64)
    back = np.empty((length, count * n), dtype=np.int64)
    dp = unary[:, 0].copy()
    flat = picked.reshape(-1)  # the chosen candidates, before the unary term
    if len(bounds) == 1:  # the whole arrays: small calls pay for no views
        tiles = [(None, dp[:, None, :], to_from, cand, rows, back, _row_starts(rows.shape), chosen, flat)]
    else:
        tiles = []
        for i0, i1, t0, t1 in bounds:
            size, first = (i1 - i0) * (t1 - t0), i0 * n + t0
            tiles.append((
                (block, dp[i0]) if runs and t0 == 0 else None,  # refill: once per instance
                block[: t1 - t0] if runs else dp[i0:i1, None, :],
                to_from[t0:t1],
                rows[:size].reshape(i1 - i0, t1 - t0, n),
                rows[:size],
                back[:, first : first + size],
                _row_starts((size, n)),
                chosen[:size],
                flat[first : first + size],
            ))
    for j in range(1, length):
        for fill, dp_from, to_rows, tile, tile_rows, pointers, starts, cells, values in tiles:
            if fill is not None:
                np.copyto(*fill)
            pred = pointers[j]
            np.add(dp_from, to_rows, out=tile)
            tile_rows.argmax(axis=1, out=pred)
            np.add(pred, starts, out=cells)
            tile_rows.take(cells, out=values, mode="clip")  # in range; "raise" would buffer
        np.add(picked, unary[:, j], out=dp)
    starts = _row_starts((count, n))  # each instance's first entry in dp and back rows
    best = np.empty((length, count), dtype=np.int64)
    dp.argmax(axis=1, out=best[-1])
    scores = dp.reshape(-1).take(starts + best[-1])
    for j in range(length - 1, 0, -1):
        back[j].take(starts + best[j], out=best[j - 1], mode="clip")
    return best.T, scores


def viterbi(model: ChainModel, x) -> tuple[np.ndarray, float]:
    """Highest-scoring label sequence and its score."""
    x, _ = _check_instance(model, x)
    paths, scores = _viterbi(_unary_table(model, x)[None], model.transition)
    return paths[0], float(scores[0])


def loss_augmented_viterbi(model: ChainModel, x, y_true) -> tuple[np.ndarray, float]:
    """Maximize sequence score plus Hamming loss against ``y_true``.

    Hamming decomposes per position, so the augmentation just adds 1/L to
    the unary score of every label that disagrees with the target.
    """
    x, y_true = _check_instance(model, x, y_true)
    return _loss_augmented_viterbi(model, x, y_true)


def _loss_augmented_viterbi(model: ChainModel, x: np.ndarray, y_true: np.ndarray) -> tuple:
    """Unchecked :func:`loss_augmented_viterbi`.  Callers validate first."""
    length = x.shape[0]
    unary = _unary_table(model, x) + 1.0 / length
    unary[np.arange(length), y_true] -= 1.0 / length
    paths, scores = _viterbi(unary[None], model.transition)
    return paths[0], float(scores[0])


@dataclass(frozen=True)
class Marginals:
    """Forward-backward output: per-position and per-edge label posteriors."""

    unary_marginals: np.ndarray  # (L, Y)
    transition_marginals: np.ndarray  # (L-1, Y, Y)
    log_partition: float


@dataclass(frozen=True)
class _ScaledChain:
    """Scaled forward-backward quantities; edge posteriors are
    ``alpha[j, a] * kernel[a, b] * edge_weights[j, b]``."""

    alpha: np.ndarray  # (L, Y), rows sum to one
    beta: np.ndarray  # (L, Y), sum(alpha[j] * beta[j]) == 1
    kernel: np.ndarray  # (Y, Y), exp(T - max T)
    edge_weights: np.ndarray  # (L-1, Y), psi[j+1] * beta[j+1] / c[j+1]
    log_partition: float


def _edge_block(length: int, n: int) -> np.ndarray | None:
    """Out buffer of a CRF ``(Y, Y)`` block: aligned by :func:`_viterbi`'s
    size rule, else ``None`` (numpy allocates; small calls skip an address)."""
    return _aligned_empty((n, n)) if (length - 1) * n * n >= _CACHE_ELEMENTS else None


def _scaled_forward(unary: np.ndarray, transition: np.ndarray) -> tuple:
    """The one forward recursion, over ``(N, L, Y)`` unary tables or one
    ``(L, Y)`` table: ``(inside, alpha, kernel, psi, scale, log_partition)``.

    Tables whose potential range ``R`` is too wide (or not a number) are
    marked off in ``inside`` and dropped before the recursion runs; the other
    outputs hold the tables kept, in order.  Each position is one stacked
    ``(N, 1, Y) @ (Y, Y)`` matmul, a BLAS matrix-vector product per row
    (``np.dot`` for one table: the same product without matmul's set-up),
    and every sum runs along a row's own contiguous axis, so each row keeps
    the bits of its table alone.  A 2-D ``(N, Y) @ (Y, Y)`` GEMM would not.
    """
    length, n = unary.shape[-2:]
    t_shift = np.maximum.reduce(transition, axis=None)
    u_shift = np.maximum.reduce(unary, axis=-1)
    spread = np.maximum.reduce(u_shift - np.minimum.reduce(unary, axis=-1), axis=-1)
    spread += t_shift - np.minimum.reduce(transition, axis=None)
    inside = spread <= _SCALED_RANGE_LIMIT
    if np.count_nonzero(inside) < inside.size:
        unary, u_shift = unary[inside], u_shift[inside]
    kernel = np.subtract(transition, t_shift, out=_edge_block(length, n))
    np.exp(kernel, out=kernel)
    psi = np.exp(unary - u_shift[..., None])

    alpha = np.empty_like(psi)
    scale = np.empty(u_shift.shape)
    # Per-position views of the messages, factors psi_j and scales c_j.
    if alpha.ndim == 2:
        product, messages, factors, totals = np.dot, alpha, psi, scale[:, None]
    else:
        product = np.matmul
        messages, factors = (a.swapaxes(0, 1)[:, :, None] for a in (alpha, psi))
        totals = scale.T[:, :, None, None]
    messages[0] = factors[0]
    for j in range(length):
        message, total = messages[j], totals[j]
        if j:
            product(messages[j - 1], kernel, out=message)
            message *= factors[j]
        np.add.reduce(message, axis=-1, keepdims=True, out=total)
        message /= total
    log_partition = np.add.reduce(np.log(scale), axis=-1) + np.add.reduce(u_shift, axis=-1)
    log_partition += (length - 1) * t_shift
    return inside, alpha, kernel, psi, scale, log_partition


def _scaled_forward_backward(unary: np.ndarray, transition: np.ndarray) -> _ScaledChain | None:
    """Scaled recursion, or ``None`` when the potential range is too wide for it."""
    inside, alpha, kernel, psi, scale, log_partition = _scaled_forward(unary, transition)
    if not inside:
        return None
    edge_weights = psi[1:] / scale[1:, None]
    beta = np.empty_like(alpha)
    beta[-1] = 1.0
    for j in range(alpha.shape[0] - 2, -1, -1):
        weights = edge_weights[j]
        weights *= beta[j + 1]
        np.dot(kernel, weights, out=beta[j])
    return _ScaledChain(alpha, beta, kernel, edge_weights, float(log_partition))


def _log_space_forward_backward(unary: np.ndarray, transition: np.ndarray) -> Marginals:
    """Max-shifted log-sum-exp recursion for potentials beyond the scaled range."""
    length, n = unary.shape
    alpha = np.empty_like(unary)
    alpha[0] = unary[0]
    for j in range(1, length):
        alpha[j] = unary[j] + _logsumexp(alpha[j - 1][:, None] + transition, axis=0)
    log_partition = float(_logsumexp(alpha[-1], axis=0))
    beta = np.zeros((length, n))
    for j in range(length - 2, -1, -1):
        beta[j] = _logsumexp(transition + (unary[j + 1] + beta[j + 1])[None, :], axis=1)

    unary_marginals = np.exp(alpha + beta - log_partition)
    transition_marginals = np.empty((max(length - 1, 0), n, n))
    for j in range(length - 1):
        log_edge = (
            alpha[j][:, None]
            + transition
            + (unary[j + 1] + beta[j + 1])[None, :]
            - log_partition
        )
        transition_marginals[j] = np.exp(log_edge)
    return Marginals(unary_marginals, transition_marginals, log_partition)


def forward_backward(model: ChainModel, x) -> Marginals:
    x, _ = _check_instance(model, x)
    unary = _unary_table(model, x)
    chain = _scaled_forward_backward(unary, model.transition)
    if chain is None:
        return _log_space_forward_backward(unary, model.transition)
    edges = chain.alpha[:-1, :, None] * chain.kernel
    edges *= chain.edge_weights[:, None, :]
    return Marginals(chain.alpha * chain.beta, edges, chain.log_partition)


def _crf_nll(model: ChainModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Unchecked CRF negative log-likelihoods ``log Z - score(y)`` of ``(N,
    L, d)`` inputs and ``(N, L)`` labels, from one batched forward pass:
    ``(N,)``, each row the bits of its instance alone.  Rows past the scaled
    range take ``log Z`` from the log-space recursion.  Callers validate first."""
    unary = xs @ model.unary.T  # (N, L, Y), each row bitwise x @ unary.T
    inside, *_, log_partition = _scaled_forward(unary, model.transition)
    log_z = np.empty(len(unary))
    log_z[inside] = log_partition
    for i in np.flatnonzero(~inside):
        log_z[i] = _log_space_forward_backward(unary[i], model.transition).log_partition
    return log_z - _chain_scores(model, xs, ys[:, None])[:, 0]


def _crf_gradient_blocks(model: ChainModel, x: np.ndarray, y: np.ndarray) -> tuple:
    """Unchecked CRF negative log-likelihood and its gradient as blocks:
    ``(nll, grad_unary (Y, d), grad_transition (Y, Y))``.

    Each block is the expected feature under the model posterior minus the
    observed one.  The expected transition counts ``sum_j alpha_j[a] E[a,
    b] W_j[b]``, with ``W_j = psi_{j+1} beta_{j+1} / c_{j+1}``, come from
    one matrix product scaled in place, so the per-edge posterior tensor is
    never formed; large calls write it, like ``E``, to an aligned buffer.
    The observed unary block is summed as
    :func:`joint_feature` sums it and each observed transition cell's count
    is subtracted once, so the blocks equal the dense ``expected -
    joint_feature(y)`` bit for bit.  Callers validate first.
    """
    unary = _unary_table(model, x)
    chain = _scaled_forward_backward(unary, model.transition)
    if chain is None:
        marg = _log_space_forward_backward(unary, model.transition)
        log_partition, unary_marginals = marg.log_partition, marg.unary_marginals
        grad_transition = marg.transition_marginals.sum(axis=0)
    else:
        log_partition, unary_marginals = chain.log_partition, chain.alpha * chain.beta
        grad_transition = np.matmul(
            chain.alpha[:-1].T, chain.edge_weights, out=_edge_block(*chain.alpha.shape)
        )
        grad_transition *= chain.kernel
    nll = log_partition - _chain_scores(model, x, y[None])[0]

    grad_unary = unary_marginals.T @ x  # (Y, d)
    observed = np.zeros(grad_unary.shape)
    np.add.at(observed, y, x)
    grad_unary -= observed
    # Each edge subtracts its cell's full count; an edge that repeats a
    # cell writes the same value again.
    src, dst = y[:-1], y[1:]
    cells = src * model.n_labels + dst
    grad_transition[src, dst] -= np.add.reduce(cells[:, None] == cells, axis=1)
    return float(nll), grad_unary, grad_transition


def crf_nll_and_gradient(model: ChainModel, x, y) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of ``y`` and its exact flat-weight gradient
    (see :func:`_crf_gradient_blocks`)."""
    x, y = _check_instance(model, x, y)
    nll, grad_unary, grad_transition = _crf_gradient_blocks(model, x, y)
    return nll, np.concatenate([grad_unary.ravel(), grad_transition.ravel()])


def hinge_violation(model: ChainModel, x, y) -> tuple[float, np.ndarray]:
    """Structured hinge violation of ``y`` and its loss-augmented competitor.

    ``x`` and ``y`` are the arrays :func:`_check_instance` returns.
    """
    competitor, augmented = loss_augmented_viterbi(model, x, y)
    return float(augmented - _chain_scores(model, x, y[None])[0]), competitor


def ssvm_loss_and_subgradient(model: ChainModel, x, y) -> tuple[float, np.ndarray]:
    """Structured hinge loss with the Hamming target and one subgradient.

    The most violated competitor comes from loss-augmented decoding.  At an
    exact margin tie (violation 0) the hinge sits on its kink; the zero
    branch is chosen, so the subgradient is zero there.
    """
    x, y = _check_instance(model, x, y)
    competitor, augmented = _loss_augmented_viterbi(model, x, y)
    violation = float(augmented - _chain_scores(model, x, y[None])[0])
    dim = model.n_labels * model.dim + model.n_labels**2
    if violation <= 0.0:
        return float(max(violation, 0.0)), np.zeros(dim)
    return float(violation), feature_difference(model.n_labels, x, competitor, y).dense()
