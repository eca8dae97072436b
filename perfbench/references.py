"""Reference computations the workload checks compare lincore against.

Each one is written from the paper's definitions with numpy, scipy and
itertools only; nothing here imports lincore, so a fault in the program
cannot hide in the reference.  ``test_references.py`` checks every one of
them against brute-force enumeration on tiny instances.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

LOG2 = float(np.log(2.0))


def unary_table(unary: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-position label scores ``x_j . unary[y]``, shape (L, Y)."""
    return np.asarray(x, dtype=np.float64) @ np.asarray(unary, dtype=np.float64).T


def chain_score(unary: np.ndarray, transition: np.ndarray, x: np.ndarray, y) -> float:
    """Score of one label sequence: unary terms plus transitions between neighbours."""
    table = unary_table(unary, x)
    y = [int(v) for v in y]
    total = sum(float(table[j, y[j]]) for j in range(len(y)))
    total += sum(float(transition[y[j - 1], y[j]]) for j in range(1, len(y)))
    return total


def viterbi(unary: np.ndarray, transition: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-product (max-sum in log space) recursion with first-index tie-breaking."""
    table = unary_table(unary, x)
    length, n = table.shape
    best = table[0].copy()
    back = np.zeros((length, n), dtype=np.int64)
    for j in range(1, length):
        cand = best[:, None] + transition
        back[j] = np.argmax(cand, axis=0)
        best = np.max(cand, axis=0) + table[j]
    path = np.empty(length, dtype=np.int64)
    path[-1] = int(np.argmax(best))
    for j in range(length - 1, 0, -1):
        path[j - 1] = back[j, path[j]]
    return path, float(best[path[-1]])


def log_partition(unary: np.ndarray, transition: np.ndarray, x: np.ndarray) -> float:
    """Forward log-sum-exp recursion for log Z."""
    table = unary_table(unary, x)
    alpha = table[0]
    for j in range(1, table.shape[0]):
        alpha = table[j] + logsumexp(alpha[:, None] + transition, axis=0)
    return float(logsumexp(alpha))


def hamming(a, b) -> float:
    return float(np.mean(np.asarray(a) != np.asarray(b)))


def decode_error(unary: np.ndarray, transition: np.ndarray, instances) -> float:
    """Mean Hamming loss of reference Viterbi decodes."""
    return float(np.mean([hamming(viterbi(unary, transition, x)[0], y) for x, y in instances]))


def all_sequences(n_labels: int, length: int) -> np.ndarray:
    return np.array(list(product(range(n_labels), repeat=length)), dtype=np.int64)


# Linear-core surrogates in closed form (tau = half-width of the core).
# Logistic base: Phi(u) = log(1 + e^u), Phi(0) = log 2, Phi'(0) = 1/2.
# Exponential base: Phi(u) = e^u, Phi(0) = Phi'(0) = 1.


def _softplus(u):
    return np.logaddexp(0.0, u)


def lc_logistic(u, tau: float = 1.0, one_sided: bool = False):
    u = np.asarray(u, dtype=np.float64)
    core = -u + tau + 2.0 * LOG2
    right = 2.0 * _softplus(tau - u)
    left = core if one_sided else 2.0 * _softplus(-tau - u) + 2.0 * tau
    return np.where(u > tau, right, np.where(u < -tau, left, core))


def lc_exponential(u, tau: float = 1.0, one_sided: bool = False):
    u = np.asarray(u, dtype=np.float64)
    core = -u + tau + 1.0
    # The exponent is clipped only where the branch is not selected.
    right = np.exp(np.minimum(tau - u, 0.0))
    left = core if one_sided else np.exp(np.maximum(-tau - u, 0.0)) + 2.0 * tau
    return np.where(u > tau, right, np.where(u < -tau, left, core))


def exponential_core_T(t):
    """The transformation T(t) = 1 + t - sqrt(1 - t^2) of the exponential core."""
    t = np.asarray(t, dtype=np.float64)
    return 1.0 + t - np.sqrt(1.0 - t**2)


def structured_sum_loss(phi, unary, transition, x, y) -> float:
    """sum_{y'} (1 - ham(y', y)) sum_{y'' != y'} phi(score(y') - score(y'')), by enumeration."""
    n, length = transition.shape[0], len(y)
    seqs = all_sequences(n, length)
    table = unary_table(unary, x)
    scores = table[np.arange(length), seqs].sum(axis=1)
    if length > 1:
        scores = scores + transition[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    weights = 1.0 - np.mean(seqs != np.asarray(y)[None, :], axis=1)
    pair = phi(scores[:, None] - scores[None, :])
    np.fill_diagonal(pair, 0.0)
    return float(weights @ pair.sum(axis=1))


def pair_infimum(phi, w_pos: float, w_neg: float, bound: float = 60.0) -> float:
    """inf_u  w_pos * phi(u) + w_neg * phi(-u), by bounded scalar minimization."""
    res = minimize_scalar(
        lambda u: w_pos * float(phi(u)) + w_neg * float(phi(-u)),
        bounds=(-bound, bound),
        method="bounded",
        options={"xatol": 1e-10, "maxiter": 2000},
    )
    return float(res.fun)


def surrogate_regret(phi, weights, scores) -> float:
    """sum_{i<j} [w_i phi(s_i - s_j) + w_j phi(s_j - s_i) - inf_u (w_i phi(u) + w_j phi(-u))]."""
    weights = np.asarray(weights, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    total = 0.0
    n = scores.size
    for i in range(n):
        for j in range(i + 1, n):
            m = scores[i] - scores[j]
            realized = weights[i] * float(phi(m)) + weights[j] * float(phi(-m))
            total += realized - pair_infimum(phi, weights[i], weights[j])
    return total
