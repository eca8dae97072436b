"""Checks of the benchmark's reference computations against brute force.

Run with ``python3 -m pytest perfbench``.  The instances are tiny, so every
reference is compared with full enumeration or a dense grid search.
"""

import math
from itertools import product

import numpy as np
import pytest

import references as ref

SHAPES = [(2, 1), (2, 4), (3, 3), (4, 2), (3, 5)]
GRID = np.linspace(-12.0, 12.0, 240001)


def _instance(n, length, seed, dim=3):
    rng = np.random.default_rng([n, length, seed])
    return rng.normal(size=(n, dim)), rng.normal(size=(n, n)), rng.normal(size=(length, dim))


def _enumerated_scores(unary, transition, x):
    n, length = transition.shape[0], x.shape[0]
    seqs = list(product(range(n), repeat=length))
    scores = []
    for seq in seqs:
        s = sum(float(x[j] @ unary[seq[j]]) for j in range(length))
        s += sum(float(transition[seq[j - 1], seq[j]]) for j in range(1, length))
        scores.append(s)
    return seqs, np.array(scores)


def _lc_scalar(phi, phi0_slope, u, tau, one_sided):
    """The surrogate written branch by branch from its base loss."""
    if u > tau:
        return phi(tau - u) / phi0_slope
    if u < -tau and not one_sided:
        return phi(-tau - u) / phi0_slope + 2.0 * tau
    return -u + tau + phi(0.0) / phi0_slope


def _logistic(v):
    return math.log1p(math.exp(v)) if v < 30 else v + math.log1p(math.exp(-v))


@pytest.mark.parametrize("n,length", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_viterbi_and_log_partition_match_enumeration(n, length, seed):
    unary, transition, x = _instance(n, length, seed)
    seqs, scores = _enumerated_scores(unary, transition, x)
    path, best = ref.viterbi(unary, transition, x)
    assert best == pytest.approx(scores.max(), abs=1e-12)
    assert ref.chain_score(unary, transition, x, path) == pytest.approx(scores.max(), abs=1e-12)
    top = scores.max()
    assert ref.log_partition(unary, transition, x) == pytest.approx(
        top + math.log(np.sum(np.exp(scores - top))), abs=1e-12
    )


@pytest.mark.parametrize("n,length", SHAPES)
def test_decode_error_matches_enumerated_argmax(n, length):
    unary, transition, _ = _instance(n, length, 0)
    rng = np.random.default_rng(5)
    instances = [(rng.normal(size=(length, 3)), rng.integers(0, n, size=length)) for _ in range(4)]
    errors = []
    for x, y in instances:
        seqs, scores = _enumerated_scores(unary, transition, x)
        errors.append(np.mean(np.array(seqs[int(np.argmax(scores))]) != y))
    assert ref.decode_error(unary, transition, instances) == pytest.approx(np.mean(errors), abs=1e-15)


def test_all_sequences_is_lexicographic_enumeration():
    seqs = ref.all_sequences(3, 4)
    nested = [(a, b, c, d) for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
    assert [tuple(s) for s in seqs] == nested


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
def test_surrogate_closed_forms_match_branch_definitions(one_sided, tau):
    us = np.concatenate([np.linspace(-9.0, 9.0, 721), [-tau, tau]])
    logistic = ref.lc_logistic(us, tau=tau, one_sided=one_sided)
    exponential = ref.lc_exponential(us, tau=tau, one_sided=one_sided)
    for u, lv, ev in zip(us, logistic, exponential):
        assert lv == pytest.approx(_lc_scalar(_logistic, 0.5, u, tau, one_sided), abs=1e-12)
        assert ev == pytest.approx(_lc_scalar(math.exp, 1.0, u, tau, one_sided), abs=1e-12)
    # Differentiable across the knots: one-sided difference quotients agree.
    for f in (ref.lc_logistic, ref.lc_exponential):
        for knot in (-tau, tau):
            h = 1e-6
            left = (f(knot, tau, one_sided) - f(knot - h, tau, one_sided)) / h
            right = (f(knot + h, tau, one_sided) - f(knot, tau, one_sided)) / h
            assert left == pytest.approx(right, abs=1e-5)


def test_exponential_core_transformation_matches_grid_search():
    phi = lambda u: ref.lc_exponential(u)
    for t in (0.0, 0.1, 0.37, 0.8, 0.99):
        objective = 0.5 * (1 - t) * phi(-GRID) + 0.5 * (1 + t) * phi(GRID)
        assert ref.exponential_core_T(t) == pytest.approx(float(phi(0.0)) - objective.min(), abs=1e-7)


@pytest.mark.parametrize("one_sided", [False, True])
def test_pair_infimum_and_regret_match_grid_search(one_sided):
    phi = lambda u: ref.lc_logistic(u, one_sided=one_sided)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a, b = rng.uniform(0.05, 2.0, size=2)
        brute = float(np.min(a * phi(GRID) + b * phi(-GRID)))
        assert ref.pair_infimum(phi, a, b) == pytest.approx(brute, abs=1e-7)
    weights = rng.dirichlet(np.ones(4))
    scores = rng.normal(scale=2.0, size=4)
    brute = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            m = scores[i] - scores[j]
            inf = float(np.min(weights[i] * phi(GRID) + weights[j] * phi(-GRID)))
            brute += weights[i] * float(phi(m)) + weights[j] * float(phi(-m)) - inf
    assert ref.surrogate_regret(phi, weights, scores) == pytest.approx(brute, abs=1e-6)


@pytest.mark.parametrize("n,length", [(2, 3), (3, 2), (3, 4)])
def test_structured_sum_loss_matches_double_loop(n, length):
    unary, transition, x = _instance(n, length, 1)
    y = np.arange(length) % n
    phi = lambda u: ref.lc_logistic(u, one_sided=True)
    seqs, scores = _enumerated_scores(unary, transition, x)
    brute = 0.0
    for i, a in enumerate(seqs):
        weight = 1.0 - np.mean(np.array(a) != y)
        brute += weight * sum(float(phi(scores[i] - scores[j])) for j in range(len(seqs)) if j != i)
    assert ref.structured_sum_loss(phi, unary, transition, x, y) == pytest.approx(brute, rel=1e-12)
