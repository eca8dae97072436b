"""Keyed random streams against their definition, SeedSequence + Philox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import DomainError, HmmSpec, TrainConfig, generate_hmm_split, sgd_train
from lincore import rng as rng_module
from lincore.rng import (
    DOMAIN_TRAIN_INSTANCE,
    DOMAIN_TRAIN_SAMPLE,
    iteration_keys,
    keyed_rng,
    rekey,
    stream_keys,
    stream_rng,
)
from lincore.structured import ChainModel
from lincore.trainers import PairProposal, sgd_step


def seed_sequence_key(seed, domain, iteration, slot):
    return np.random.SeedSequence(seed, spawn_key=(domain, iteration, slot)).generate_state(
        2, np.uint64
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    domain=st.integers(0, 2**40),
    iterations=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    slot=st.integers(0, 2**100),
)
def test_stream_keys_match_seed_sequence(seed, domain, iterations, slot):
    keys = stream_keys(seed, domain, np.array(iterations, dtype=np.uint64), slot)
    assert keys.shape == (len(iterations), 2) and keys.dtype == np.uint64
    generator = keyed_rng()
    for key, iteration in zip(keys, iterations):
        np.testing.assert_array_equal(key, seed_sequence_key(seed, domain, iteration, slot))
        generator.integers(0, 3)  # leave a buffered half-word behind
        rekeyed, fresh = rekey(generator, key), stream_rng(seed, domain, iteration, slot)
        np.testing.assert_array_equal(rekeyed.integers(0, 7, size=5), fresh.integers(0, 7, size=5))
        np.testing.assert_array_equal(rekeyed.random(3), fresh.random(3))
        np.testing.assert_array_equal(rekeyed.normal(size=2), fresh.normal(size=2))


def test_stream_keys_edges():
    assert stream_keys(3, 4, np.array([], dtype=np.int64)).shape == (0, 2)
    np.testing.assert_array_equal(
        stream_keys(0, 0, [0, 2**32 - 1])[1], seed_sequence_key(0, 0, 2**32 - 1, 0)
    )
    for bad in ([2**32], [-1], [1.0], [[1]]):
        with pytest.raises(DomainError):
            stream_keys(0, 4, bad)
    for seed, domain, slot in ((-1, 4, 0), (0, -4, 0), (0, 4, -1)):
        with pytest.raises(DomainError):
            stream_keys(seed, domain, [1], slot)


def test_iteration_keys_cross_block_boundaries(monkeypatch):
    monkeypatch.setattr(rng_module, "_KEY_BLOCK", 4)
    keys = list(iteration_keys(9, DOMAIN_TRAIN_SAMPLE, 1, 11, slots=3))
    assert len(keys) == 10
    for t, per_slot in enumerate(keys, 1):
        for slot in range(3):
            np.testing.assert_array_equal(
                per_slot[slot], seed_sequence_key(9, DOMAIN_TRAIN_SAMPLE, t, slot)
            )


def _train_with_stream_rng(data, config):
    """sgd_train's step loop written directly on stream_rng, without evaluation."""
    train = [(np.asarray(x, float), np.asarray(y, np.int64)) for x, y in data.train]
    model = ChainModel.zeros(data.n_labels, train[0][0].shape[1])
    proposal = PairProposal(config.corruption_rate, config.inner_proposal)
    for t in range(1, config.iterations + 1):
        picks = stream_rng(config.seed, DOMAIN_TRAIN_INSTANCE, t).integers(
            0, len(train), size=config.batch_size
        )
        for slot, idx in enumerate(picks):
            x, y = train[int(idx)]
            rng = stream_rng(config.seed, DOMAIN_TRAIN_SAMPLE, t, slot)
            sgd_step(model, x, y, config, proposal, rng, step=config.eta / config.batch_size)
    return model


@pytest.mark.parametrize(
    "objective, batch_size",
    [("lincore", 1), ("lincore", 2), ("lincore_ksample", 3), ("ssvm", 1), ("crf", 2)],
)
def test_sgd_train_draws_the_stream_rng_streams(objective, batch_size, monkeypatch):
    """Weights after keyed-stream training equal the stream_rng loop's bit for bit,
    across key blocks."""
    monkeypatch.setattr(rng_module, "_KEY_BLOCK", 16)
    data = generate_hmm_split(HmmSpec(length=4, n_labels=3, dim=5, n_sequences=20, seed=2), 0)
    config = TrainConfig(
        eta=1e-4 if objective == "lincore" else 0.05,
        iterations=40,
        batch_size=batch_size,
        seed=5,
        objective=objective,
    )
    got = sgd_train(data, config).model
    want = _train_with_stream_rng(data, config)
    assert got.unary.tobytes() == want.unary.tobytes()
    assert got.transition.tobytes() == want.transition.tobytes()


def test_a_scalar_pick_draws_the_value_of_a_one_element_draw():
    """``_training_steps`` draws a lone instance pick as a scalar, a quarter
    of the cost of ``size=1``.  The generator is rekeyed before it draws
    again, so only the drawn value has to agree, here over 400 keys and
    training-set sizes from 1 to 2**33 (both sides of the 32-bit bound)."""
    keys = stream_keys(17, DOMAIN_TRAIN_INSTANCE, np.arange(1, 401))
    edges = [1, 2, 3, 5, 7, 200, 2**16 + 1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**33]
    spread = np.unique(np.exp2(np.random.default_rng(3).uniform(0, 33, size=27)).astype(np.int64))
    sizes = sorted(set(edges) | {int(n) for n in spread if n >= 1})
    generator = keyed_rng()
    for key in keys:
        for n_train in sizes:
            scalar = rekey(generator, key).integers(0, n_train)
            sized = rekey(generator, key).integers(0, n_train, size=1)
            assert scalar == sized[0], (key, n_train)
