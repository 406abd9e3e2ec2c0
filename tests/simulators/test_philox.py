"""Vectorised Philox substreams equal NumPy's per-child generators.

The batched trajectory walker draws a whole tile's uniforms with
:func:`repro.simulators._philox.substream_uniforms`; the loop walker builds
``Generator(Philox(child))`` per shot.  Counts are only bit-identical across
the two if every double agrees, so these tests compare them directly.
"""

import numpy as np
import pytest

from repro.simulators import _philox

SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32 + 5, 2 ** 200 + 3, [3, 1, 4], None]
DRAWS = [0, 1, 3, 4, 5, 73]


def reference(entropy, start, count, draws):
    children = np.random.SeedSequence(entropy).spawn(start + count)[start:]
    out = np.empty((count, draws))
    for row, child in enumerate(children):
        out[row] = np.random.Generator(np.random.Philox(child)).random(draws)
    return out


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("draws", DRAWS)
def test_tile_matches_numpy_generators(seed, draws):
    root = np.random.SeedSequence(seed)
    got = _philox.substream_uniforms(root, 0, 9, draws)
    # seed=None drew fresh entropy: compare on the same root entropy.
    assert np.array_equal(got, reference(root.entropy, 0, 9, draws))


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_tile_offset(seed):
    root = np.random.SeedSequence(seed)
    got = _philox.substream_uniforms(root, 1000, 5, 11)
    assert np.array_equal(got, reference(root.entropy, 1000, 5, 11))


def test_tiles_concatenate_to_the_whole_run():
    root = np.random.SeedSequence(2020)
    whole = _philox.substream_uniforms(root, 0, 30, 7)
    tiles = [
        _philox.substream_uniforms(root, start, min(8, 30 - start), 7)
        for start in range(0, 30, 8)
    ]
    assert np.array_equal(np.concatenate(tiles), whole)


def test_empty_tile_shapes():
    root = np.random.SeedSequence(3)
    assert _philox.substream_uniforms(root, 0, 0, 5).shape == (0, 5)
    assert _philox.substream_uniforms(root, 0, 4, 0).shape == (4, 0)


@pytest.mark.parametrize("seed", [0, 2 ** 200 + 3, [3, 1, 4]], ids=repr)
def test_child_keys_past_32_bits(seed):
    """An index >= 2**32 is two spawn-key words and mixes one more."""
    root = np.random.SeedSequence(seed)
    indices = [5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 45 + 3]
    keys = _philox.child_keys(root, indices)
    for row, index in enumerate(indices):
        child = np.random.SeedSequence(root.entropy, spawn_key=(index,))
        expected = np.random.Philox(child).state["state"]["key"]
        assert keys[row].tolist() == expected.tolist(), index
