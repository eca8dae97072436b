"""Seeded synthetic datasets for the experiment drivers.

Sequence data comes from a linear hidden Markov chain: labels follow a
random softmax transition kernel, features are Gaussian clouds around
per-label centers.  Classification data for the label-noise study uses
Gaussian class clusters whose labels are flipped with a probability that
grows as the example's projection onto a random direction approaches a
random threshold, so corruption concentrates near a linear boundary.  Both
generators are pure functions of their spec (seed included).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import DomainError
from .rng import DOMAIN_HMM_DATA, DOMAIN_IDN_DATA, stream_rng
from .trainers import SequenceData


@dataclass(frozen=True)
class HmmSpec:
    """Synthetic sequence-tagging data: chain structure + Gaussian emissions."""

    length: int = 10
    n_labels: int = 3
    dim: int = 20
    n_sequences: int = 200
    seed: int = 0
    transition_temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.length < 1 or self.n_labels < 2 or self.dim < 1 or self.n_sequences < 1:
            raise DomainError("need length >= 1, n_labels >= 2, dim >= 1, n_sequences >= 1")
        if not np.isfinite(self.transition_temperature) or self.transition_temperature < 0:
            raise DomainError("transition temperature must be a finite non-negative real")


def generate_hmm_data(spec: HmmSpec) -> SequenceData:
    """Draw ``n_sequences`` (features, labels) pairs; deterministic in the seed.

    A temperature of zero removes all chain structure: labels become
    i.i.d. uniform.
    """
    return generate_hmm_split(spec, n_test=0)


def generate_hmm_split(spec: HmmSpec, n_test: int) -> SequenceData:
    """Train sequences from ``spec`` plus ``n_test`` test sequences drawn
    after them, checked once as one :class:`SequenceData`."""
    n_train, spec = spec.n_sequences, replace(spec, n_sequences=spec.n_sequences + n_test)
    rng = stream_rng(spec.seed, DOMAIN_HMM_DATA)
    logits = spec.transition_temperature * rng.normal(size=(spec.n_labels, spec.n_labels))
    kernel = np.exp(logits - logits.max(axis=1, keepdims=True))
    kernel /= kernel.sum(axis=1, keepdims=True)
    centers = rng.normal(size=(spec.n_labels, spec.dim))
    # Each transition draws as Generator.choice(p=row) does: the row's
    # normalized CDF, one uniform, searchsorted(side="right").  The CDFs
    # are built once, and a sequence's uniforms drawn together.
    cdf = kernel.cumsum(axis=1)
    cdf = cdf / cdf[:, -1:]

    instances = []
    for _ in range(spec.n_sequences):
        labels = np.empty(spec.length, dtype=np.int64)
        labels[0] = rng.integers(0, spec.n_labels)
        uniforms = rng.random(spec.length - 1)
        for j in range(1, spec.length):
            labels[j] = cdf[labels[j - 1]].searchsorted(uniforms[j - 1], side="right")
        features = centers[labels] + rng.normal(size=(spec.length, spec.dim))
        instances.append((features, labels))
    return SequenceData(train=instances[:n_train], test=instances[n_train:], n_labels=spec.n_labels)


@dataclass(frozen=True)
class IdnSpec:
    """Instance-dependent label-noise classification data."""

    n_train: int = 4000
    n_test: int = 2000
    dim: int = 10
    n_classes: int = 4
    noise_rate: float = 0.3
    seed: int = 0
    center_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_train < 1 or self.n_test < 0 or self.dim < 1 or self.n_classes < 2:
            raise DomainError("need n_train >= 1, n_test >= 0, dim >= 1, n_classes >= 2")
        if not 0.0 <= self.noise_rate < 0.5:
            raise DomainError(
                "noise rate must lie in [0, 0.5): the boundary-proximity squashing "
                "cannot push the mean flip probability to 1/2 or beyond"
            )


@dataclass(frozen=True)
class IdnDataset:
    x_train: np.ndarray
    y_train: np.ndarray  # observed, possibly flipped
    y_clean: np.ndarray
    flipped: np.ndarray  # boolean per training example
    flip_probability: np.ndarray
    boundary_distance: np.ndarray  # |projection - threshold| per training example
    x_test: np.ndarray
    y_test: np.ndarray


def _calibrate_scale(distance: np.ndarray, target: float) -> float:
    """Bisection on the squashing scale so the mean flip probability hits target.

    mean(sigmoid(-distance / scale)) grows monotonically from 0 (scale -> 0)
    to 1/2 (scale -> inf), so any target in (0, 1/2) is reachable.  The
    bracket reaches a float fixed point after about 60 of the 200 steps;
    ``mean_prob`` is deterministic, so once a step leaves ``(lo, hi)``
    unchanged every later step would too, and the search stops there.
    """

    def mean_prob(scale: float) -> float:
        return float(np.mean(expit(-distance / scale)))

    lo, hi = 1e-9, 1e9
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        state = (lo, hi)
        lo, hi = (mid, hi) if mean_prob(mid) < target else (lo, mid)
        if (lo, hi) == state:
            break
    return float(np.sqrt(lo * hi))


def generate_idn_dataset(spec: IdnSpec) -> IdnDataset:
    """Gaussian class clusters with boundary-concentrated label flips.

    Flip probabilities are a decreasing logistic function of the distance
    between the example's projection onto a random direction and a random
    threshold; the squashing scale is calibrated by bisection so the mean
    flip probability equals the requested noise rate.  Flipped labels move
    to a fixed confusion neighbor (next class index, cyclically).

    Only the labels depend on the rate: the features, the clean labels, the
    test split and the boundary distances come from the ``(seed,
    DOMAIN_IDN_DATA)`` stream before any rate-dependent draw, so for a fixed
    seed, shape, class count and ``center_scale`` they are byte-identical
    at every rate in ``[0, 1/2)``.  The label-noise study fits all its rates
    on one feature matrix because of this.
    """
    rng = stream_rng(spec.seed, DOMAIN_IDN_DATA)
    centers = spec.center_scale * rng.normal(size=(spec.n_classes, spec.dim))
    total = spec.n_train + spec.n_test
    y_all = rng.integers(0, spec.n_classes, size=total)
    x_all = centers[y_all] + rng.normal(size=(total, spec.dim))

    x_train, y_clean = x_all[: spec.n_train], y_all[: spec.n_train]
    x_test, y_test = x_all[spec.n_train :], y_all[spec.n_train :]

    direction = rng.normal(size=spec.dim)
    direction /= np.linalg.norm(direction)
    projection = x_train @ direction
    threshold = float(rng.normal() * np.std(projection) + np.mean(projection))
    distance = np.abs(projection - threshold)

    if spec.noise_rate == 0.0:
        probs = np.zeros(spec.n_train)
        flipped = np.zeros(spec.n_train, dtype=bool)
    else:
        scale = _calibrate_scale(distance, spec.noise_rate)
        probs = expit(-distance / scale)
        flipped = rng.random(spec.n_train) < probs
    y_train = y_clean.copy()
    y_train[flipped] = (y_clean[flipped] + 1) % spec.n_classes
    return IdnDataset(
        x_train=x_train,
        y_train=y_train,
        y_clean=y_clean,
        flipped=flipped,
        flip_probability=probs,
        boundary_distance=distance,
        x_test=x_test,
        y_test=y_test,
    )
