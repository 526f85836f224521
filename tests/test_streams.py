"""Certification's bulk stream derivation against numpy's own.

``seeding.seed_words`` redoes ``SeedSequence.generate_state`` for a block of
seeds at once, ``seeding.stream_states`` turns the words into the PCG64
state ``default_rng`` seeds, and ``bounds._pair_block`` decodes each
decomposition pair's draws from its stream's raw outputs. Each must give
numpy's values exactly, so every comparison here is ``==``.
"""
import numpy as np
import pytest

from edglab import bounds, seeding
from test_batched_bounds import _random_pairs

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)


def child_seeds(n, label="jsdec", master=2024):
    return [seeding.child_seed(master, label, i) for i in range(n)]


@pytest.mark.parametrize("seeds", [EDGE_SEEDS, child_seeds(1000)], ids=["edges", "child-seeds"])
def test_seed_words_equal_seed_sequence(seeds):
    want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    got = seeding.seed_words(seeds)
    assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
    assert np.array_equal(got, want)


def test_stream_states_equal_default_rng():
    seeds = [*EDGE_SEEDS, *child_seeds(200, "cert")]
    for seed, state in zip(seeds, seeding.stream_states(seeds), strict=True):
        assert state == np.random.default_rng(seed).bit_generator.state, seed


def test_raw_outputs_equal_default_rng():
    indices = range(300, 600)
    raw = seeding.child_raw(7, "jsdec", indices, 73)
    assert raw.shape == (len(indices), 73) and raw.dtype == np.uint64
    for i, row in zip(indices, raw, strict=True):
        assert np.array_equal(row, seeding.child_rng(7, "jsdec", i).bit_generator.random_raw(73)), i


def test_instance_generators_are_the_child_generators():
    indices = range(40)
    got = seeding.child_rngs(2024, "cert", indices)
    for i, rng in zip(indices, got, strict=True):
        want = seeding.child_rng(2024, "cert", i)
        assert rng.bit_generator.state == want.bit_generator.state, i
        # A draw leaves its successor where numpy's own generator would.
        assert rng.integers(2, 7) == want.integers(2, 7) and rng.normal() == want.normal(), i
        assert rng.bit_generator.state == want.bit_generator.state, i


@pytest.mark.parametrize("seed", [2024, 0])
def test_pair_blocks_equal_the_frozen_draws_at_every_block(seed):
    n, block = 10000, bounds.PAIR_BLOCK
    for lo in range(0, n, block):
        indices = range(lo, min(lo + block, n))
        assert np.array_equal(bounds._pair_block(seed, indices), _random_pairs(seed, indices)), lo


def test_rejected_shape_draws_go_through_the_generator(monkeypatch):
    # A zero low half makes Lemire's product 0, below its threshold of 1 for
    # a bound of 5, so numpy draws again from the next word. Such rows must
    # take their shapes and cells from their own generator, not from the
    # (here zeroed) words, and still give numpy's joints.
    forced = [0, 3, 17, 255]
    child_raw, child_rng = bounds.child_raw, bounds.child_rng
    redrawn = []

    def raw_with_rejections(*args):
        raw = child_raw(*args)
        raw[forced] = 0
        return raw

    def counted_rng(seed, label, i):
        redrawn.append(i)
        return child_rng(seed, label, i)

    monkeypatch.setattr(bounds, "child_raw", raw_with_rejections)
    monkeypatch.setattr(bounds, "child_rng", counted_rng)
    indices = range(512, 768)
    got = bounds._pair_block(2024, indices)
    assert redrawn == [indices[row] for row in forced]
    monkeypatch.undo()
    assert np.array_equal(got, _random_pairs(2024, indices))
