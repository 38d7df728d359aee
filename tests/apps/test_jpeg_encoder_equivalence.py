"""The vectorized JPEG encoder must reproduce the per-block one exactly.

``encode_blocks`` codes every block of a strip at once: one DCT over
the ``(blocks, 8, 8)`` stack, a fancy-index zig-zag gather, and zero
runs, ZRLs and magnitude bits from the nonzero offsets.  The token
stream and the bit count feed the simulated message sizes, so they
must be *equal* — not close — to what the original block-by-block
Python loop produced.  :func:`reference_encode_blocks` below is a
frozen copy of that loop.
"""

import numpy as np
import pytest

from repro.apps.jpeg.codec import (
    compress_strip,
    decompress_strip,
    encode_blocks,
    quantization_table,
    zigzag_order,
)
from repro.apps.jpeg.dct import BLOCK, forward_dct, inverse_dct
from repro.apps.jpeg.parallel import synthetic_image
from repro.errors import ApplicationError
from repro.sim import RandomStreams

_ZIGZAG = zigzag_order()


def _reference_magnitude_bits(value):
    return int(value).bit_length() if value else 0


def reference_encode_blocks(strip, quality=75):
    """The original per-block encoder, frozen."""
    height, width = strip.shape
    if height % BLOCK or width % BLOCK:
        raise ApplicationError("strip dimensions must be multiples of 8")
    table = quantization_table(quality)
    tokens = []
    nbits = 0
    previous_dc = 0
    shifted = strip.astype(np.float64) - 128.0
    for by in range(0, height, BLOCK):
        for bx in range(0, width, BLOCK):
            block = shifted[by:by + BLOCK, bx:bx + BLOCK]
            coefficients = np.round(forward_dct(block) / table).astype(np.int32)
            scan = [int(coefficients[i, j]) for i, j in _ZIGZAG]

            dc_diff = scan[0] - previous_dc
            previous_dc = scan[0]
            nbits += 4 + _reference_magnitude_bits(dc_diff)

            ac_pairs = []
            run = 0
            for value in scan[1:]:
                if value == 0:
                    run += 1
                    continue
                while run > 15:
                    ac_pairs.append((15, 0))  # ZRL
                    nbits += 8
                    run -= 16
                ac_pairs.append((run, value))
                nbits += 8 + _reference_magnitude_bits(value)
                run = 0
            nbits += 4  # EOB
            tokens.append((dc_diff, ac_pairs))
    return tokens, nbits


def assert_same_encoding(strip, quality):
    expected = reference_encode_blocks(strip, quality)
    actual = encode_blocks(strip, quality)
    assert actual == expected
    # Plain Python ints, exactly as the loop built them.
    for dc_diff, pairs in actual[0]:
        assert type(dc_diff) is int and type(pairs) is list
        assert all(type(run) is int and type(value) is int for run, value in pairs)
    assert type(actual[1]) is int


@pytest.fixture(scope="module")
def image():
    return synthetic_image(RandomStreams(3), 64, 64)


class TestEquivalence:
    @pytest.mark.parametrize("quality", range(1, 101))
    def test_every_quality(self, image, quality):
        assert_same_encoding(image[:16, :32], quality)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(8, 8), (8, 64), (64, 8), (24, 40), (64, 64)])
    def test_random_strips_and_shapes(self, seed, shape):
        rng = np.random.default_rng(seed)
        strip = rng.integers(0, 256, size=shape).astype(np.float64)
        assert_same_encoding(strip, int(rng.integers(1, 101)))

    @pytest.mark.parametrize("seed", range(4))
    def test_photographic_strips(self, seed):
        image = synthetic_image(RandomStreams(seed), 256, 256)
        for top in range(0, 256, 64):
            assert_same_encoding(image[top:top + 64], 75)

    @pytest.mark.parametrize("level", [0.0, 128.0, 255.0])
    def test_all_flat_blocks(self, level):
        """No AC coefficient at all, and (at 128) not even a DC one."""
        strip = np.full((16, 24), level)
        assert_same_encoding(strip, 75)
        tokens, _ = encode_blocks(strip, 75)
        assert all(pairs == [] for _, pairs in tokens)

    def test_zero_runs_longer_than_fifteen(self):
        """Zero runs of 16, 31, 30, 47, 38 and 22 coefficients need
        1, 1, 1, 2, 2 and 1 ZRLs; the stream must contain all eight."""
        table = quantization_table(90)
        blocks = []
        for positions in ([17], [32, 63], [48], [1, 40, 63]):
            scan = np.zeros(BLOCK * BLOCK)
            scan[0] = 4
            for position in positions:
                scan[position] = 3
            coefficients = np.zeros((BLOCK, BLOCK))
            for value, (i, j) in zip(scan, _ZIGZAG):
                coefficients[i, j] = value
            # Invert the DCT so the encoder re-derives these coefficients.
            blocks.append(inverse_dct(coefficients * table) + 128.0)
        strip = np.hstack(blocks)
        tokens, _ = encode_blocks(strip, 90)
        zrls = sum(pair == (15, 0) for _, pairs in tokens for pair in pairs)
        assert zrls == 8
        assert_same_encoding(strip, 90)

    def test_bad_shape_rejected(self):
        with pytest.raises(ApplicationError):
            encode_blocks(np.zeros((12, 16)))


def test_compress_round_trip_still_decodes(image):
    tokens, nbytes = compress_strip(image, 75)
    assert nbytes == (reference_encode_blocks(image, 75)[1] + 7) // 8
    restored = decompress_strip(tokens, image.shape, 75)
    assert np.abs(restored - image).mean() < 8.0
