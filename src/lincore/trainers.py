"""Stochastic gradient estimators and the shared SGD driver.

Two estimators avoid enumerating the label space:

* the pair sampler draws an anchor ``y'`` from a per-position corruption of
  the true sequence and a competitor ``y''`` from an inner proposal, then
  importance-weights the single margin term so its expectation equals the
  exact gradient of the structured sum loss restricted to the inner
  proposal's support (the single-position ``neighbor`` proposal reaches only
  Hamming-1 competitors; ``uniform_full`` reaches every competitor and is
  the mode unbiasedness is certified under);

* the K-negative sampler averages margin terms against ``K`` uniformly drawn
  sequences and estimates the gradient of the uniform-expectation loss
  ``E_y[phi(score(y*) - score(y))]``; each term has norm at most ``2R`` for
  feature radius ``R``, so its variance is at most ``4 R^2 / K`` whenever the
  surrogate derivative stays in [-1, 0] (true everywhere for one-sided
  logistic/exponential surrogates).

Both write margin terms the same way: a sampled (anchor A, competitor B)
pair contributes ``weight * phi'(score(A) - score(B)) * (feature(A) -
feature(B))``, the chain rule of ``phi(score(A) - score(B))``.

A training run is one logical thread: per-iteration randomness comes from
counter-based streams keyed by (seed, iteration, slot), so histories are
bitwise reproducible and distinct runs can execute concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EnumerationLimitError, TrainingDivergedError
from .inference import (
    _unary_table,
    _viterbi,
    crf_nll_and_gradient,
    hinge_violation,
    ssvm_loss_and_subgradient,
)
from .losses import BaseLoss, LinearCoreSpec, ONE_SIDED, lc_derivative
from .rng import (
    DOMAIN_DIAGNOSTIC,
    DOMAIN_TRAIN_INSTANCE,
    DOMAIN_TRAIN_SAMPLE,
    iteration_keys,
    keyed_rng,
    rekey,
    stream_rng,
)
from .structured import (
    ChainModel,
    ENUMERATION_LIMIT,
    FeatureDelta,
    _chain_scores,
    _check_instance,
    _integer_labels,
    _touched,
    all_sequence_scores,
    enumerate_sequences,
    feature_difference,
    hamming_loss,
    joint_feature,
    structured_sum_loss_exact,
)

NEIGHBOR = "neighbor"
UNIFORM_FULL = "uniform_full"

OBJECTIVES = ("ssvm", "crf", "lincore", "lincore_ksample")


def default_train_spec() -> LinearCoreSpec:
    """One-sided logistic surrogate: bounded derivative, safe importance weights."""
    return LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)


@dataclass(frozen=True)
class PairProposal:
    """Outer corruption proposal plus the inner competitor proposal.

    The outer draw keeps each position of the true sequence with
    probability ``1 - corruption_rate`` and otherwise resamples it uniformly
    among the other labels, so its probability is exactly computable for
    any sequence.
    """

    corruption_rate: float = 0.3
    inner: str = NEIGHBOR

    def __post_init__(self) -> None:
        if not 0.0 < self.corruption_rate < 1.0:
            raise DomainError("corruption rate must lie strictly in (0, 1)")
        if self.inner not in (NEIGHBOR, UNIFORM_FULL):
            raise DomainError(f"unknown inner proposal {self.inner!r}")


@dataclass(frozen=True)
class GradEstimate:
    """One pair-sampled gradient with its importance weights."""

    gradient: np.ndarray
    w1: float
    w2: float
    outer: np.ndarray
    inner: np.ndarray


def corruption_probability(y: np.ndarray, y_prime: np.ndarray, n_labels: int, rate: float) -> float:
    """Exact outer-proposal probability of drawing ``y_prime`` from ``y``."""
    diff = int(np.sum(np.asarray(y) != np.asarray(y_prime)))
    return _corruption_probability(diff, len(y), n_labels, rate)


def _corruption_probability(diff: int, length: int, n_labels: int, rate: float) -> float:
    """Outer-proposal probability of a draw that differs from ``y`` in ``diff`` positions."""
    return float((1.0 - rate) ** (length - diff) * (rate / (n_labels - 1)) ** diff)


def sample_corruption(y: np.ndarray, n_labels: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    flip = rng.random(y.size) < rate
    out = y.copy()
    if np.any(flip):
        # Uniform over the other labels: shift draws past the kept label.
        draws = rng.integers(0, n_labels - 1, size=int(np.sum(flip)))
        kept = y[flip]
        out[flip] = draws + (draws >= kept)
    return out


def sample_neighbor(y_prime: np.ndarray, n_labels: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform single-position reassignment; never returns ``y_prime`` itself."""
    out = np.asarray(y_prime, dtype=np.int64).copy()
    pos = int(rng.integers(0, out.size))
    draw = int(rng.integers(0, n_labels - 1))
    out[pos] = draw + (draw >= out[pos])
    return out


def neighbor_probability(length: int, n_labels: int) -> float:
    return 1.0 / (length * (n_labels - 1))


def sample_uniform_full(y_prime: np.ndarray, n_labels: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform over all sequences except ``y_prime`` (rejection on collision)."""
    y_prime = np.asarray(y_prime, dtype=np.int64)
    while True:
        out = rng.integers(0, n_labels, size=y_prime.size)
        if np.any(out != y_prime):
            return out


def uniform_full_probability(length: int, n_labels: int) -> float:
    return 1.0 / float(n_labels**length - 1)


def _sample_pair(
    model: ChainModel,
    x: np.ndarray,
    y: np.ndarray,
    spec: LinearCoreSpec,
    proposal: PairProposal,
    rng: np.random.Generator,
) -> tuple:
    """Draw (outer, inner) and return ``(outer, inner, w1, w2, coeff)``.

    ``coeff = w1 / d2 * phi'(score(outer) - score(inner))``, with ``w2 =
    1 / d2``, is the margin coefficient of ``feature(outer) -
    feature(inner)``; the dense estimate and the sparse SGD update both use
    it as returned.  An outer draw that disagrees with ``y`` everywhere has
    ``w1 == 0``; it returns ``coeff = 0`` without scoring, and the SGD step
    skips its update.
    """
    n = model.n_labels
    outer = sample_corruption(y, n, proposal.corruption_rate, rng)
    if proposal.inner == NEIGHBOR:
        inner = sample_neighbor(outer, n, rng)
        d2 = neighbor_probability(y.size, n)
    else:
        inner = sample_uniform_full(outer, n, rng)
        d2 = uniform_full_probability(y.size, n)
    # One Hamming count gives both d1 and w1 = (1 - hamming_loss(outer, y)) / d1.
    diff = int(np.count_nonzero(outer != y))
    d1 = _corruption_probability(diff, y.size, n, proposal.corruption_rate)
    if d1 <= 0.0 or d2 <= 0.0:
        raise DomainError("degenerate proposal probability")
    w1, w2 = (1.0 - diff / y.size) / d1, 1.0 / d2
    if w1 == 0.0:
        return outer, inner, w1, w2, 0.0
    scores = _chain_scores(model, x, np.array([outer, inner]))
    return outer, inner, w1, w2, w1 / d2 * lc_derivative(spec, scores[0] - scores[1])


def lc_pair_gradient_estimate(
    model: ChainModel,
    x,
    y,
    spec: LinearCoreSpec,
    proposal: PairProposal,
    rng: np.random.Generator,
) -> GradEstimate:
    """One importance-weighted pair sample of the structured-loss gradient."""
    x, y = _check_instance(model, x, y)
    outer, inner, w1, w2, coeff = _sample_pair(model, x, y, spec, proposal, rng)
    n = model.n_labels
    gradient = coeff * (joint_feature(n, x, outer) - joint_feature(n, x, inner))
    return GradEstimate(gradient=gradient, w1=float(w1), w2=float(w2), outer=outer, inner=inner)


def exact_pair_estimator_expectation(
    model: ChainModel,
    x,
    y,
    spec: LinearCoreSpec,
    proposal: PairProposal,
    *,
    limit: int = 64,
) -> np.ndarray:
    """Expectation of the pair estimator by exhaustive sample-space enumeration.

    Every (outer, inner) pair in the proposal support is weighted by its
    exact probability; the result is what unbiasedness compares against the
    exact restricted-loss gradient.
    """
    x, y = _check_instance(model, x, y)
    n = model.n_labels
    length = y.size
    seqs = enumerate_sequences(n, length, limit)
    feats = np.stack([joint_feature(n, x, seq) for seq in seqs])
    scores = all_sequence_scores(model, x, seqs)
    expectation = np.zeros(feats.shape[1])
    for i, outer in enumerate(seqs):
        d1 = corruption_probability(y, outer, n, proposal.corruption_rate)
        w1 = (1.0 - hamming_loss(outer, y)) / d1
        if proposal.inner == NEIGHBOR:
            inner_idx = [
                j for j, other in enumerate(seqs) if int(np.sum(other != outer)) == 1
            ]
            d2 = neighbor_probability(length, n)
        else:
            inner_idx = [j for j in range(len(seqs)) if j != i]
            d2 = uniform_full_probability(length, n)
        for j in inner_idx:
            coeff = d1 * d2 * w1 * (1.0 / d2) * lc_derivative(spec, scores[i] - scores[j])
            expectation += coeff * (feats[i] - feats[j])
    return expectation


def lc_ksample_gradient_estimate(
    model: ChainModel,
    x,
    y_star,
    spec: LinearCoreSpec,
    n_negatives: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Average of ``n_negatives`` uniform-competitor margin gradients."""
    x, y_star = _check_instance(model, x, y_star)
    return _ksample_delta(model, x, y_star, spec, n_negatives, rng).dense()


def _ksample_delta(
    model: ChainModel,
    x,
    y_star,
    spec: LinearCoreSpec,
    n_negatives: int,
    rng: np.random.Generator,
) -> FeatureDelta:
    if n_negatives < 1:
        raise DomainError("need at least one negative sample")
    negatives = rng.integers(0, model.n_labels, size=(n_negatives, y_star.size))
    scores = _chain_scores(model, x, np.concatenate([y_star[None], negatives]))
    coeffs = lc_derivative(spec, scores[0] - scores[1:]) / n_negatives
    return _accumulate_ksample(model, x, y_star, negatives, coeffs)


def _accumulate_ksample(
    model: ChainModel,
    x: np.ndarray,
    y_star: np.ndarray,
    negatives: np.ndarray,
    coeffs: np.ndarray,
) -> FeatureDelta:
    """sum_k c_k * (feature(y*) - feature(y_k)) on the labels it touches."""
    n = model.n_labels
    length = y_star.size
    total = float(np.sum(coeffs))
    labels, size, (y_star, negatives) = _touched(n, y_star, negatives)
    unary = np.zeros((size, model.dim))
    np.add.at(unary, y_star, total * x)
    weighted_x = np.repeat(coeffs, length)[:, None] * np.tile(x, (negatives.shape[0], 1))
    np.add.at(unary, negatives.ravel(), -weighted_x)
    transition = np.zeros((size, size))
    if length > 1:
        np.add.at(transition, (y_star[:-1], y_star[1:]), total)
        np.add.at(
            transition,
            (negatives[:, :-1].ravel(), negatives[:, 1:].ravel()),
            -np.repeat(coeffs, length - 1),
        )
    return FeatureDelta(n, labels, unary, transition)


def uniform_negative_gradient_exact(
    spec: LinearCoreSpec, model: ChainModel, x, y_star, *, limit: int = ENUMERATION_LIMIT
) -> np.ndarray:
    """Exact gradient of E_{y ~ Uniform}[phi(score(y*) - score(y))]."""
    x, y_star = _check_instance(model, x, y_star)
    seqs = enumerate_sequences(model.n_labels, y_star.size, limit)
    scores = _chain_scores(model, x, np.concatenate([y_star[None], seqs]))
    coeffs = lc_derivative(spec, scores[0] - scores[1:]) / len(seqs)
    return _accumulate_ksample(model, x, y_star, seqs, coeffs).dense()


def empirical_gradient_variance(
    estimator,
    model: ChainModel,
    x,
    y,
    trials: int,
    seed: int,
    *,
    true_gradient: np.ndarray | None = None,
) -> float:
    """Mean squared L2 deviation of estimates from their mean (or a reference).

    ``estimator(model, x, y, rng) -> flat array`` is called once per trial
    with an independent counter-based stream.
    """
    if trials < 2:
        raise DomainError("variance needs at least 2 trials")
    samples = np.stack(
        [
            estimator(model, x, y, stream_rng(seed, DOMAIN_DIAGNOSTIC, trial))
            for trial in range(trials)
        ]
    )
    center = np.mean(samples, axis=0) if true_gradient is None else np.asarray(true_gradient)
    return float(np.mean(np.sum((samples - center) ** 2, axis=1)))


@dataclass(frozen=True)
class SequenceData:
    """Train/test splits of (inputs (L, d), labels (L,)) instances.

    ``n_labels`` sizes the label alphabet; when omitted it is inferred from
    the largest label present anywhere in the data.
    """

    train: list
    test: list = field(default_factory=list)
    n_labels: int | None = None

    def label_count(self) -> int:
        if self.n_labels is not None:
            return int(self.n_labels)
        labels = [_integer_labels(y) for _, y in list(self.train) + list(self.test)]
        if any(y.size == 0 for y in labels):
            raise DomainError("label sequences must be non-empty")
        return max(max((int(y.max()) for y in labels), default=0) + 1, 2)


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.01
    iterations: int = 1000
    batch_size: int = 1
    seed: int = 0
    objective: str = "lincore"
    spec: LinearCoreSpec = field(default_factory=default_train_spec)
    corruption_rate: float = 0.3
    inner_proposal: str = NEIGHBOR
    n_negatives: int = 4
    eval_interval: int = 0
    eval_max_instances: int = 64
    divergence_guard: float = 1e12

    def __post_init__(self) -> None:
        if not self.eta >= 0.0:
            raise DomainError("step size must be non-negative")
        if not 0 <= self.iterations < 2**32 or self.batch_size < 1:
            raise DomainError("need 0 <= iterations < 2**32 and batch_size >= 1")
        if self.eval_interval > 0 and self.eval_max_instances < 1:
            raise DomainError("evaluation needs eval_max_instances >= 1")
        if self.objective not in OBJECTIVES:
            raise DomainError(f"unknown objective {self.objective!r}; pick one of {OBJECTIVES}")


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    objective: float
    test_error: float
    seconds: float


@dataclass(frozen=True)
class TrainResult:
    model: ChainModel
    history: list


def _length_groups(instances) -> list:
    """Positions of the instances of each length, in first-seen order."""
    groups: dict[int, list] = {}
    for i, (_, y) in enumerate(instances):
        groups.setdefault(len(y), []).append(i)
    return [np.array(positions) for positions in groups.values()]


def _stack(instances, positions: np.ndarray, part: int) -> np.ndarray:
    return np.stack([instances[i][part] for i in positions])


def test_hamming_error(model: ChainModel, instances) -> float:
    """Mean Hamming loss of Viterbi decodes against the true sequences.

    ``instances`` are the ``(x, y)`` arrays :func:`_check_instance` returns.
    Instances of equal length are decoded together in one batched Viterbi.
    """
    if not instances:
        return float("nan")
    errors = np.empty(len(instances))
    for positions in _length_groups(instances):
        unary = np.stack([_unary_table(model, instances[i][0]) for i in positions])
        paths = _viterbi(unary, model.transition)[0]
        errors[positions] = np.mean(paths != _stack(instances, positions, 1), axis=1)
    return float(np.mean(errors))


def _mean_objective(objective: str, model: ChainModel, instances, config: TrainConfig) -> float:
    # The surrogate objectives record the full exact sum loss as the
    # monitoring metric (NaN when the label space is too large to
    # enumerate); the neighbor proposal optimizes its restricted variant,
    # which moves together with the full sum on these scales.  Instances
    # of equal length are evaluated in one batched call.
    if objective == "ssvm":
        values = [ssvm_loss_and_subgradient(model, x, y)[0] for x, y in instances]
    elif objective == "crf":
        values = [crf_nll_and_gradient(model, x, y)[0] for x, y in instances]
    else:
        values = np.empty(len(instances))
        for positions in _length_groups(instances):
            xs, ys = _stack(instances, positions, 0), _stack(instances, positions, 1)
            try:
                values[positions] = structured_sum_loss_exact(config.spec, model, xs, ys)
            except EnumerationLimitError:
                return float("nan")
    return float(np.mean(values))


def _apply_pair_update(
    model_unary: np.ndarray,
    model_transition: np.ndarray,
    x: np.ndarray,
    y_outer: np.ndarray,
    y_inner: np.ndarray,
    step: float,
) -> None:
    """In-place ``w -= step * (feature(outer) - feature(inner))``.

    Touches only positions where the sequences disagree, so the cost is
    independent of the label-set size.
    """
    diff = np.nonzero(y_outer != y_inner)[0]
    for j in diff:
        model_unary[y_outer[j]] -= step * x[j]
        model_unary[y_inner[j]] += step * x[j]
    length = y_outer.size
    if length > 1 and diff.size:
        edges = set()
        for j in diff:
            if j > 0:
                edges.add(j - 1)
            if j < length - 1:
                edges.add(j)
        for j in sorted(edges):
            model_transition[y_outer[j], y_outer[j + 1]] -= step
            model_transition[y_inner[j], y_inner[j + 1]] += step


def sgd_train(data: SequenceData, config: TrainConfig) -> TrainResult:
    """Run plain SGD from zero initialization on the selected objective.

    Histories are deterministic functions of (data, config): instance picks
    and estimator draws come from (seed, iteration, slot) streams; only the
    wall-clock column varies across reruns.
    """
    if not data.train:
        raise DomainError("training set is empty")
    x0 = np.asarray(data.train[0][0], dtype=np.float64)
    if x0.ndim != 2:
        raise DomainError("inputs must be (length, dim) matrices")
    n_labels = data.label_count()
    model = ChainModel.zeros(n_labels, x0.shape[1])
    # Check every instance before the first step: the pair samplers index
    # weights by label directly, so a label such as -1 would wrap silently.
    train = [_check_instance(model, x, y) for x, y in data.train]
    test = [_check_instance(model, x, y) for x, y in data.test]
    proposal = PairProposal(config.corruption_rate, config.inner_proposal)
    eval_instances = train[: config.eval_max_instances]

    history: list[HistoryRow] = []
    start = time.perf_counter()

    def record(iteration: int) -> None:
        # The objective alone misses a runaway: it is NaN wherever the
        # label space is too large to enumerate.
        norm = float(np.hypot(np.linalg.norm(model.unary), np.linalg.norm(model.transition)))
        if not norm <= config.divergence_guard:
            raise TrainingDivergedError(
                f"weight norm {norm:.3g} exceeded guard "
                f"{config.divergence_guard:.3g} at iteration {iteration}"
            )
        objective = _mean_objective(config.objective, model, eval_instances, config)
        if np.isfinite(objective) and objective > config.divergence_guard:
            raise TrainingDivergedError(
                f"objective {objective:.3g} exceeded guard "
                f"{config.divergence_guard:.3g} at iteration {iteration}"
            )
        history.append(
            HistoryRow(
                iteration=iteration,
                objective=objective,
                test_error=test_hamming_error(model, test),
                seconds=time.perf_counter() - start,
            )
        )

    if config.eval_interval > 0:
        record(0)
    # The (seed, iteration, slot) streams of stream_rng, as keys of one
    # generator: each stream is drawn in full before the next is keyed.
    stop = config.iterations + 1
    pick_keys = iteration_keys(config.seed, DOMAIN_TRAIN_INSTANCE, 1, stop)
    sample_keys = iteration_keys(config.seed, DOMAIN_TRAIN_SAMPLE, 1, stop, config.batch_size)
    rng = keyed_rng()
    scale = config.eta / config.batch_size
    for t, (pick_key,), slot_keys in zip(range(1, stop), pick_keys, sample_keys):
        picks = rekey(rng, pick_key).integers(0, len(train), size=config.batch_size)
        for idx, key in zip(picks, slot_keys):
            x, y = train[int(idx)]
            sgd_step(model, x, y, config, proposal, rekey(rng, key), step=scale)
        if config.eval_interval > 0 and t % config.eval_interval == 0:
            record(t)
    if config.eval_interval > 0 and (not history or history[-1].iteration != config.iterations):
        record(config.iterations)
    return TrainResult(model=model, history=history)


def sgd_step(
    model: ChainModel,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    proposal: PairProposal,
    rng: np.random.Generator,
    *,
    step: float | None = None,
) -> None:
    """One in-place model update on a single instance.

    This is the unit the scaling benchmark times.  The pair-sampling update
    touches O(length * dim) numbers regardless of the label-set size; the
    exact-inference updates pay their O(length * labels^2) dynamic program.
    The hinge and K-negative updates write only the labels and transition
    cells their sequences use, with the same values a dense update would.
    """
    unary, transition = model.unary, model.transition
    n_labels = model.n_labels
    step = config.eta if step is None else step
    if config.objective == "lincore":
        outer, inner, w1, _, coeff = _sample_pair(model, x, y, config.spec, proposal, rng)
        if w1 != 0.0:
            _apply_pair_update(unary, transition, x, outer, inner, step * coeff)
        return
    if config.objective == "lincore_ksample":
        delta = _ksample_delta(model, x, y, config.spec, config.n_negatives, rng)
    elif config.objective == "ssvm":
        violation, competitor = hinge_violation(model, x, y)
        if violation <= 0.0:
            return
        delta = feature_difference(n_labels, x, competitor, y)
    else:
        grad = crf_nll_and_gradient(model, x, y)[1]
        unary -= step * grad[: unary.size].reshape(unary.shape)
        transition -= step * grad[unary.size :].reshape(transition.shape)
        return
    delta.subtract_from(model, step)
