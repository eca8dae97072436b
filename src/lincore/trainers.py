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
    _crf_gradient_blocks,
    _crf_nll,
    _unary_table,
    _viterbi,
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
    FeatureDelta,
    _chain_scores,
    _check_instance,
    _check_sequence,
    _feature_delta,
    enumerate_sequences,
    feature_difference,
    structured_sum_loss_exact,
)

NEIGHBOR = "neighbor"
UNIFORM_FULL = "uniform_full"

OBJECTIVES = ("ssvm", "crf", "lincore", "lincore_ksample")

# Training stops with :class:`TrainingDivergedError` once the weight norm
# or a finite evaluation objective exceeds this.
_DIVERGENCE_GUARD = 1e12


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


def _check_label_count(n) -> None:
    """The one label-count rule: an integer >= 2, not a bool, a float or a string."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"n_labels must be an integer >= 2, got {n!r}")


def corruption_probability(y: np.ndarray, y_prime: np.ndarray, n_labels: int, rate: float) -> float:
    """Exact outer-proposal probability of drawing ``y_prime`` from ``y``."""
    y, y_prime = np.asarray(y), np.asarray(y_prime)
    if y.shape != y_prime.shape or y.ndim != 1 or y.size < 1:
        raise DomainError("sequences must be 1-D and of equal length")
    PairProposal(rate)  # the one corruption-rate rule
    _check_label_count(n_labels)
    return _corruption_probability(int(np.count_nonzero(y != y_prime)), y.size, n_labels, rate)


def _corruption_probability(diff: int, length: int, n_labels: int, rate: float) -> float:
    """Outer-proposal probability of a draw that differs from ``y`` in ``diff`` positions."""
    return float((1.0 - rate) ** (length - diff) * (rate / (n_labels - 1)) ** diff)


def sample_corruption(y: np.ndarray, n_labels: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    flipped = np.nonzero(rng.random(y.size) < rate)[0]
    out = y.copy()
    if flipped.size:
        # Uniform over the other labels: shift draws past the kept label.
        draws = rng.integers(0, n_labels - 1, size=flipped.size)
        out[flipped] = draws + (draws >= y[flipped])
    return out


def sample_neighbor(y_prime: np.ndarray, n_labels: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform single-position reassignment; never returns ``y_prime`` itself."""
    out = np.array(y_prime, dtype=np.int64)
    pos = int(rng.integers(0, out.size))
    draw = int(rng.integers(0, n_labels - 1))
    out[pos] = draw + (draw >= int(out[pos]))
    return out


def neighbor_probability(length: int, n_labels: int) -> float:
    _check_label_count(n_labels)
    return 1.0 / (length * (n_labels - 1))


def sample_uniform_full(y_prime: np.ndarray, n_labels: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform over all sequences except ``y_prime`` (rejection on collision)."""
    y_prime = np.asarray(y_prime, dtype=np.int64)
    while True:
        out = rng.integers(0, n_labels, size=y_prime.size)
        if np.any(out != y_prime):
            return out


def uniform_full_probability(length: int, n_labels: int) -> float:
    _check_label_count(n_labels)
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
    gradient = coeff * feature_difference(model.n_labels, x, outer, inner).dense()
    return GradEstimate(gradient=gradient, w1=float(w1), w2=float(w2), outer=outer, inner=inner)


def exact_pair_estimator_expectation(
    model: ChainModel,
    x,
    y,
    spec: LinearCoreSpec,
    proposal: PairProposal,
) -> np.ndarray:
    """Expectation of the pair estimator by exhaustive sample-space enumeration.

    Every (outer, inner) pair in the proposal support is weighted by its
    exact probability and becomes coefficients on the two enumerated
    sequences; the result is what unbiasedness compares against the exact
    restricted-loss gradient.
    """
    x, y = _check_instance(model, x, y)
    n = model.n_labels
    length = y.size
    seqs = enumerate_sequences(n, length)
    scores = _chain_scores(model, x, seqs)
    alpha = np.zeros(len(seqs))
    for i, outer in enumerate(seqs):
        diff = int(np.count_nonzero(outer != y))
        d1 = _corruption_probability(diff, length, n, proposal.corruption_rate)
        w1 = (1.0 - diff / length) / d1
        if proposal.inner == NEIGHBOR:
            inner = np.count_nonzero(seqs != outer, axis=1) == 1
            d2 = neighbor_probability(length, n)
        else:
            inner = np.arange(len(seqs)) != i
            d2 = uniform_full_probability(length, n)
        coeff = d1 * d2 * w1 * (1.0 / d2) * lc_derivative(spec, scores[i] - scores[inner])
        alpha[i] += coeff.sum()
        alpha[inner] -= coeff
    return _feature_delta(n, x, seqs, alpha).dense()


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
    if n_negatives < 1:
        raise DomainError("need at least one negative sample")
    negatives = rng.integers(0, model.n_labels, size=(n_negatives, y_star.size))
    return _ksample_delta(model, x, y_star, spec, negatives).dense()


def _ksample_delta(
    model: ChainModel, x: np.ndarray, y_star: np.ndarray, spec: LinearCoreSpec, competitors
) -> FeatureDelta:
    """Mean over the ``(K, L)`` competitors ``y_k`` of ``c_k * (feature(y*) -
    feature(y_k))``, with ``c_k = phi'(score(y*) - score(y_k))``.

    ``y*`` carries ``sum_k c_k / K`` and each ``y_k`` carries ``-c_k / K``,
    in one accumulation that adds ``y*``'s terms first.
    """
    sequences = np.concatenate([y_star[None], competitors])
    scores = _chain_scores(model, x, sequences)
    coeffs = lc_derivative(spec, scores[0] - scores[1:]) / len(competitors)
    weights = np.concatenate([[float(np.sum(coeffs))], -coeffs])
    return _feature_delta(model.n_labels, x, sequences, weights)


def uniform_negative_gradient_exact(spec: LinearCoreSpec, model: ChainModel, x, y_star) -> np.ndarray:
    """Exact gradient of E_{y ~ Uniform}[phi(score(y*) - score(y))]."""
    x, y_star = _check_instance(model, x, y_star)
    competitors = enumerate_sequences(model.n_labels, y_star.size)
    return _ksample_delta(model, x, y_star, spec, competitors).dense()


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
    """Train/test splits of (inputs (L, d), labels (L,)) instances over
    an alphabet of ``n_labels`` labels, each instance checked once, here,
    with one ``d`` across both splits (the pair samplers index weights by
    label, so a -1 would wrap silently).  A split is a tuple of read-only
    private copies, so nothing unchecked can be appended or written in,
    neither through the split nor through the caller's arrays."""

    train: tuple
    test: tuple = ()
    n_labels: int = field(kw_only=True)

    def __post_init__(self) -> None:
        _check_label_count(self.n_labels)
        dim = None
        for split in ("train", "test"):
            checked = []
            for x, y in getattr(self, split):
                x, y = _check_sequence(self.n_labels, dim, np.array(x, dtype=np.float64), np.array(y))
                x.setflags(write=False)
                y.setflags(write=False)
                checked.append((x, y))
                dim = x.shape[1]
            object.__setattr__(self, split, tuple(checked))


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

    def __post_init__(self) -> None:
        if not self.eta >= 0.0:
            raise DomainError("step size must be non-negative")
        if not 0 <= self.iterations < 2**32 or self.batch_size < 1 or self.n_negatives < 1:
            raise DomainError("need 0 <= iterations < 2**32, batch_size >= 1 and n_negatives >= 1")
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
    step_seconds: np.ndarray  # one per SGD step; evaluation and rekeying are off its clock


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
        paths = _viterbi(_unary_table(model, _stack(instances, positions, 0)), model.transition)[0]
        errors[positions] = np.mean(paths != _stack(instances, positions, 1), axis=1)
    return float(np.mean(errors))


def _mean_objective(objective: str, model: ChainModel, instances, config: TrainConfig) -> float:
    # The surrogate objectives record the full exact sum loss as the
    # monitoring metric (NaN when the label space is too large to
    # enumerate); the neighbor proposal optimizes its restricted variant,
    # which moves together with the full sum on these scales.  The CRF
    # objective needs ``log Z`` only, so it runs the batched forward pass
    # alone.  Instances of equal length are evaluated in one batched call,
    # each row with the bits of its instance alone.
    if objective == "ssvm":
        return float(np.mean([ssvm_loss_and_subgradient(model, x, y)[0] for x, y in instances]))
    values = np.empty(len(instances))
    for positions in _length_groups(instances):
        xs, ys = _stack(instances, positions, 0), _stack(instances, positions, 1)
        if objective == "crf":
            values[positions] = _crf_nll(model, xs, ys)
            continue
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

    Touches only positions where the sequences disagree and the edges next
    to them, each once and in increasing order, so the cost is independent
    of the label-set size.
    """
    outer, inner = y_outer.tolist(), y_inner.tolist()
    differs = [a != b for a, b in zip(outer, inner)]
    for j, changed in enumerate(differs):
        if changed:
            model_unary[outer[j]] -= step * x[j]
            model_unary[inner[j]] += step * x[j]
    for j in range(len(outer) - 1):
        if differs[j] or differs[j + 1]:
            model_transition[outer[j], outer[j + 1]] -= step
            model_transition[inner[j], inner[j + 1]] += step


def _training_steps(seed: int, n_train: int, batch_size: int, iterations: int):
    """Yield ``(t, slot, index, rng)`` for each step of iterations ``1 .. iterations``.

    Iteration ``t`` picks its ``batch_size`` instances from the ``(seed,
    DOMAIN_TRAIN_INSTANCE, t)`` stream; slot ``s`` trains on pick ``s`` and
    draws from the ``(seed, DOMAIN_TRAIN_SAMPLE, t, s)`` stream.  ``rng`` is
    one generator rekeyed to each stream in turn, so a step must be done
    with it before the next step is drawn.
    """
    pick_keys = iteration_keys(seed, DOMAIN_TRAIN_INSTANCE, 1, iterations + 1)
    sample_keys = iteration_keys(seed, DOMAIN_TRAIN_SAMPLE, 1, iterations + 1, batch_size)
    rng = keyed_rng()
    for t, (pick_key,), slot_keys in zip(range(1, iterations + 1), pick_keys, sample_keys):
        draw = rekey(rng, pick_key).integers
        # Successive scalar draws give the values of one ``size=batch_size``
        # draw; a lone scalar draw costs a quarter of a ``size=1`` one.
        picks = [draw(0, n_train) for _ in range(batch_size)]
        for slot, (idx, key) in enumerate(zip(picks, slot_keys)):
            yield t, slot, int(idx), rekey(rng, key)


def sgd_train(data: SequenceData, config: TrainConfig) -> TrainResult:
    """Run plain SGD from zero initialization on the selected objective.

    Histories are deterministic functions of (data, config): instance picks
    and estimator draws come from (seed, iteration, slot) streams; only the
    wall-clock column and ``step_seconds`` vary across reruns.
    """
    train, test = data.train, data.test  # checked when the data was built
    if not train:
        raise DomainError("training set is empty")
    model = ChainModel.zeros(data.n_labels, train[0][0].shape[1])
    proposal = PairProposal(config.corruption_rate, config.inner_proposal)
    eval_instances = train[: config.eval_max_instances]

    history: list[HistoryRow] = []
    start = time.perf_counter()

    def record(iteration: int) -> None:
        # The objective alone misses a runaway: it is NaN wherever the
        # label space is too large to enumerate.
        norm = float(np.hypot(np.linalg.norm(model.unary), np.linalg.norm(model.transition)))
        if not norm <= _DIVERGENCE_GUARD:
            raise TrainingDivergedError(
                f"weight norm {norm:.3g} exceeded guard "
                f"{_DIVERGENCE_GUARD:.3g} at iteration {iteration}"
            )
        objective = _mean_objective(config.objective, model, eval_instances, config)
        if np.isfinite(objective) and objective > _DIVERGENCE_GUARD:
            raise TrainingDivergedError(
                f"objective {objective:.3g} exceeded guard "
                f"{_DIVERGENCE_GUARD:.3g} at iteration {iteration}"
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
    scale = config.eta / config.batch_size
    step_seconds = []
    steps = _training_steps(config.seed, len(train), config.batch_size, config.iterations)
    for t, slot, idx, rng in steps:
        tick = time.perf_counter()
        sgd_step(model, *train[idx], config, proposal, rng, step=scale)
        step_seconds.append(time.perf_counter() - tick)
        if slot == config.batch_size - 1 and config.eval_interval > 0 and t % config.eval_interval == 0:
            record(t)
    if config.eval_interval > 0 and (not history or history[-1].iteration != config.iterations):
        record(config.iterations)
    return TrainResult(model=model, history=history, step_seconds=np.array(step_seconds))


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
    The hinge and K-negative updates build one :class:`FeatureDelta`:
    ordered bincounts of the ``(Y, d)`` unary block and of the transitions,
    kept whole for a small ``Y`` and on the touched cells otherwise, so an
    update at large ``Y`` costs about O(K * length * dim) plus one
    ``(Y, d)`` pass, with the bits of the dense ``np.add.at`` update.  The
    CRF update scales its two gradient blocks in place and subtracts them
    from the weights, with the bits of the dense flat update.  ``step``
    must be non-negative.  Callers validate first.
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
        negatives = rng.integers(0, n_labels, size=(config.n_negatives, y.size))
        delta = _ksample_delta(model, x, y, config.spec, negatives)
    elif config.objective == "ssvm":
        violation, competitor = hinge_violation(model, x, y)
        if violation <= 0.0:
            return
        delta = feature_difference(n_labels, x, competitor, y)
    else:
        _, grad_unary, grad_transition = _crf_gradient_blocks(model, x, y)
        grad_unary *= step
        unary -= grad_unary
        grad_transition *= step
        transition -= grad_transition
        return
    delta.subtract_from(model, step)
