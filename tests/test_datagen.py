"""Synthetic data generators: determinism, calibration, structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

import lincore.datagen

from lincore import (
    DomainError,
    HmmSpec,
    IdnSpec,
    generate_hmm_data,
    generate_hmm_split,
    generate_idn_dataset,
)
from lincore.datagen import _calibrate_scale
from lincore.rng import DOMAIN_HMM_DATA, stream_rng


class TestHmmData:
    def test_same_seed_same_data(self):
        spec = HmmSpec(length=5, n_labels=3, dim=4, n_sequences=10, seed=12)
        a = generate_hmm_data(spec)
        b = generate_hmm_data(spec)
        for (xa, ya), (xb, yb) in zip(a.train, b.train):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_different_seeds_differ(self):
        a = generate_hmm_data(HmmSpec(length=5, n_labels=3, dim=4, n_sequences=4, seed=0))
        b = generate_hmm_data(HmmSpec(length=5, n_labels=3, dim=4, n_sequences=4, seed=1))
        assert any(
            not np.array_equal(xa, xb) for (xa, _), (xb, _) in zip(a.train, b.train)
        )

    def test_zero_temperature_gives_unstructured_labels(self):
        """With no chain potential, consecutive labels are independent uniform."""
        spec = HmmSpec(length=50, n_labels=3, dim=2, n_sequences=200, seed=3, transition_temperature=0.0)
        data = generate_hmm_data(spec)
        labels = np.concatenate([y for _, y in data.train])
        freqs = np.bincount(labels, minlength=3) / labels.size
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.02)
        pairs = np.concatenate([y[:-1] * 3 + y[1:] for _, y in data.train])
        pair_freqs = np.bincount(pairs, minlength=9) / pairs.size
        np.testing.assert_allclose(pair_freqs, 1 / 9, atol=0.02)

    def test_split_shares_the_generation_stream(self):
        spec = HmmSpec(length=4, n_labels=3, dim=4, n_sequences=6, seed=5)
        split = generate_hmm_split(spec, n_test=3)
        assert len(split.train) == 6 and len(split.test) == 3
        full = generate_hmm_data(
            HmmSpec(length=4, n_labels=3, dim=4, n_sequences=9, seed=5)
        )
        np.testing.assert_array_equal(split.test[0][0], full.train[6][0])

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            HmmSpec(length=0)
        with pytest.raises(DomainError):
            HmmSpec(n_labels=1)
        with pytest.raises(DomainError):
            HmmSpec(transition_temperature=-1.0)

    def test_learnable_structure(self):
        """A trained chain model beats the label-marginal baseline."""
        from lincore import TrainConfig, sgd_train

        data = generate_hmm_split(
            HmmSpec(length=4, n_labels=3, dim=10, n_sequences=60, seed=2), n_test=30
        )
        labels = np.concatenate([y for _, y in data.train])
        baseline = 1.0 - np.bincount(labels, minlength=3).max() / labels.size
        result = sgd_train(
            data, TrainConfig(eta=0.05, iterations=3000, objective="crf", eval_interval=3000)
        )
        assert result.history[-1].test_error < baseline


class TestIdnData:
    def test_zero_noise_flips_nothing(self):
        data = generate_idn_dataset(IdnSpec(n_train=500, n_test=100, noise_rate=0.0, seed=0))
        assert not data.flipped.any()
        np.testing.assert_array_equal(data.y_train, data.y_clean)

    @pytest.mark.parametrize("rate", [0.2, 0.4])
    def test_realized_flip_rate_is_calibrated(self, rate):
        data = generate_idn_dataset(
            IdnSpec(n_train=20000, n_test=10, noise_rate=rate, seed=1)
        )
        assert abs(float(np.mean(data.flipped)) - rate) <= 0.02
        assert abs(float(np.mean(data.flip_probability)) - rate) <= 1e-6

    def test_flips_concentrate_near_the_boundary(self):
        data = generate_idn_dataset(IdnSpec(n_train=20000, n_test=10, noise_rate=0.3, seed=2))
        flipped_distance = data.boundary_distance[data.flipped].mean()
        clean_distance = data.boundary_distance[~data.flipped].mean()
        assert flipped_distance < clean_distance

    def test_flips_move_to_the_fixed_confusion_neighbor(self):
        data = generate_idn_dataset(
            IdnSpec(n_train=5000, n_test=10, n_classes=4, noise_rate=0.3, seed=3)
        )
        moved = data.y_train[data.flipped]
        expected = (data.y_clean[data.flipped] + 1) % 4
        np.testing.assert_array_equal(moved, expected)

    def test_deterministic_in_seed(self):
        spec = IdnSpec(n_train=1000, n_test=100, noise_rate=0.3, seed=4)
        a = generate_idn_dataset(spec)
        b = generate_idn_dataset(spec)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)
        np.testing.assert_array_equal(a.x_test, b.x_test)

    def test_rate_domain(self):
        with pytest.raises(DomainError):
            IdnSpec(noise_rate=0.5)
        with pytest.raises(DomainError):
            IdnSpec(noise_rate=-0.1)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_train=st.integers(1, 60),
    n_test=st.integers(0, 20),
    dim=st.integers(1, 6),
    n_classes=st.integers(2, 10),
    center_scale=st.floats(0.0, 5.0),
    rates=st.lists(st.floats(0.0, 0.5, exclude_max=True), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_only_the_labels_depend_on_the_noise_rate(
    seed, n_train, n_test, dim, n_classes, center_scale, rates
):
    """The label-noise study fits all its rates on one feature matrix and relies on this."""
    shape = dict(n_train=n_train, n_test=n_test, dim=dim, n_classes=n_classes)
    reference = generate_idn_dataset(
        IdnSpec(**shape, noise_rate=0.0, seed=seed, center_scale=center_scale)
    )
    for rate in rates:
        data = generate_idn_dataset(
            IdnSpec(**shape, noise_rate=rate, seed=seed, center_scale=center_scale)
        )
        for name in ("x_train", "x_test", "y_clean", "y_test", "boundary_distance"):
            assert getattr(data, name).tobytes() == getattr(reference, name).tobytes(), name


def _choice_loop_hmm_data(spec):
    """The label draw written with one Generator.choice call per position."""
    rng = stream_rng(spec.seed, DOMAIN_HMM_DATA)
    logits = spec.transition_temperature * rng.normal(size=(spec.n_labels, spec.n_labels))
    kernel = np.exp(logits - logits.max(axis=1, keepdims=True))
    kernel /= kernel.sum(axis=1, keepdims=True)
    centers = rng.normal(size=(spec.n_labels, spec.dim))
    instances = []
    for _ in range(spec.n_sequences):
        labels = np.empty(spec.length, dtype=np.int64)
        labels[0] = rng.integers(0, spec.n_labels)
        for j in range(1, spec.length):
            labels[j] = rng.choice(spec.n_labels, p=kernel[labels[j - 1]])
        features = centers[labels] + rng.normal(size=(spec.length, spec.dim))
        instances.append((features, labels))
    return instances


@pytest.mark.parametrize(
    "spec",
    [
        HmmSpec(length=4, n_labels=3, n_sequences=60, seed=0),
        HmmSpec(length=12, n_labels=7, dim=5, n_sequences=30, seed=3, transition_temperature=2.5),
        HmmSpec(length=5, n_labels=4, dim=3, n_sequences=30, seed=2, transition_temperature=0.0),
        HmmSpec(length=1, n_labels=2, dim=2, n_sequences=10, seed=9),
    ],
)
def test_cdf_label_draws_match_choice_loop_bitwise(spec):
    got = generate_hmm_data(spec).train
    want = _choice_loop_hmm_data(spec)
    assert len(got) == len(want)
    for (x, y), (x_ref, y_ref) in zip(got, want):
        assert y.tobytes() == y_ref.tobytes()
        assert x.tobytes() == x_ref.tobytes()


def _full_bisection(distance, target):
    """The calibration run for all 200 steps, and the step that first left
    ``(lo, hi)`` unchanged (``None`` if none did)."""
    lo, hi, still = 1e-9, 1e9, None
    for step in range(200):
        mid = np.sqrt(lo * hi)
        before = (lo, hi)
        if float(np.mean(expit(-distance / mid))) < target:
            lo = mid
        else:
            hi = mid
        if still is None and (lo, hi) == before:
            still = step
    return float(np.sqrt(lo * hi)), still


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@given(
    distance=hnp.arrays(
        np.float64, st.integers(1, 300), elements=st.floats(0.0, 1e6, allow_subnormal=True)
    ),
    target=st.floats(1e-6, 0.4999),
)
@settings(max_examples=150, deadline=None)
def test_calibration_early_stop_keeps_the_scale_bits(distance, target):
    assert _bits(_calibrate_scale(distance, target)) == _bits(_full_bisection(distance, target)[0])


@pytest.mark.parametrize("rate", [0.05, 0.2, 0.3, 0.49])
def test_calibration_stops_where_the_bracket_first_stands_still(monkeypatch, rate):
    distance = np.abs(np.random.default_rng(5).normal(size=4000))
    want, still = _full_bisection(distance, rate)
    calls = []
    monkeypatch.setattr(lincore.datagen, "expit", lambda x: calls.append(1) or expit(x))
    assert _bits(_calibrate_scale(distance, rate)) == _bits(want)
    assert still is not None and len(calls) == still + 1 < 200


def test_calibration_of_nan_distances_matches_the_full_loop():
    """A NaN mean probability never falls below the target: the bracket shrinks onto lo."""
    distance = np.array([1.0, np.nan, 2.0])
    assert _bits(_calibrate_scale(distance, 0.3)) == _bits(_full_bisection(distance, 0.3)[0])
