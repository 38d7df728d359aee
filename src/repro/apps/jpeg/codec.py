"""A real baseline-JPEG-style grayscale codec.

The full pipeline the paper's JPEG application exercises: level shift,
8x8 blocking, DCT, quantization (standard luminance table scaled by a
quality factor), zig-zag scan, DC differential coding and AC run-length
coding with a bit-accurate size model.  The decoder inverts every step,
so compression quality is measured end to end (PSNR).

Entropy coding uses the JPEG magnitude-category size model (4-bit
run/size tokens plus magnitude bits) rather than a full Huffman table;
the byte counts it produces are within a few percent of baseline JPEG
for typical images, which is all the communication model needs.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.apps.jpeg.dct import BLOCK, FLOPS_PER_BLOCK_DCT, forward_dct, inverse_dct
from repro.errors import ApplicationError
from repro.hardware.node import Work

__all__ = [
    "STANDARD_LUMINANCE_TABLE",
    "quantization_table",
    "zigzag_order",
    "encode_blocks",
    "decode_blocks",
    "compress_strip",
    "decompress_strip",
    "compression_work",
    "decompression_work",
    "psnr",
]

#: The standard JPEG (Annex K) luminance quantization table.
STANDARD_LUMINANCE_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def quantization_table(quality: int) -> np.ndarray:
    """The luminance table scaled by an IJG-style quality factor."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in 1..100, got %r" % (quality,))
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((STANDARD_LUMINANCE_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def zigzag_order() -> List[Tuple[int, int]]:
    """The 64 (row, col) positions of the JPEG zig-zag scan."""
    order = []
    for s in range(2 * BLOCK - 1):
        diagonal = [(i, s - i) for i in range(BLOCK) if 0 <= s - i < BLOCK]
        if s % 2 == 0:
            diagonal.reverse()
        order.extend(diagonal)
    return order


_ZIGZAG = zigzag_order()
#: The zig-zag scan as flat indices into a row-major 8x8 block.
_ZIGZAG_FLAT = np.array([i * BLOCK + j for i, j in _ZIGZAG])
_COEFFICIENTS = BLOCK * BLOCK


def _magnitude_bits(values: np.ndarray) -> np.ndarray:
    """JPEG magnitude category of each integer: the bit length of
    ``|value|`` (0 for 0).  ``frexp`` returns exactly that exponent for
    integers below 2**53."""
    return np.frexp(np.abs(values).astype(np.float64))[1]


def encode_blocks(strip: np.ndarray, quality: int = 75):
    """Compress one image strip (height divisible by 8).

    Returns ``(tokens, nbits)``: the token stream needed to decode and
    the bit-accurate compressed size.  One token per block, in raster
    order: ``(dc_diff, ac_pairs)``, where ``ac_pairs`` lists
    ``(zero_run, value)`` per nonzero AC coefficient, preceded by a
    ``(15, 0)`` ZRL for every 16 zeros of a longer run.  Each block
    costs a 4-bit DC token plus its magnitude bits, 8 bits plus
    magnitude bits per AC pair, 8 bits per ZRL and a 4-bit EOB.

    Every block is coded at once: :func:`forward_dct` transforms the
    whole ``(blocks, 8, 8)`` stack, and the zig-zag scan, zero runs and
    bit counts are array operations over all blocks.
    """
    height, width = strip.shape
    if height % BLOCK or width % BLOCK:
        raise ApplicationError("strip dimensions must be multiples of 8")
    table = quantization_table(quality)
    shifted = strip.astype(np.float64) - 128.0
    blocks = shifted.reshape(height // BLOCK, BLOCK, width // BLOCK, BLOCK).swapaxes(1, 2)
    blocks = blocks.reshape(-1, BLOCK, BLOCK)
    coefficients = np.round(forward_dct(blocks) / table).astype(np.int32)
    scan = coefficients.reshape(len(blocks), _COEFFICIENTS)[:, _ZIGZAG_FLAT]

    dc_diffs = np.diff(scan[:, 0], prepend=0)
    scan[:, 0] = 0
    # Flat offsets of the nonzero AC coefficients, block by block; the
    # zero run before each one reaches back to the previous nonzero of
    # its block, or to the block's DC slot.
    offsets = np.flatnonzero(scan)
    values = scan.ravel()[offsets]
    block_of = offsets // _COEFFICIENTS
    previous = np.empty_like(offsets)
    previous[:1] = -1
    previous[1:] = offsets[:-1]
    runs = offsets - np.maximum(previous, block_of * _COEFFICIENTS) - 1
    zrls = runs // 16

    nbits = int(
        8 * len(dc_diffs) + _magnitude_bits(dc_diffs).sum()  # DC token + EOB
        + 8 * (len(values) + zrls.sum()) + _magnitude_bits(values).sum()
    )

    if zrls.any():
        # Expand each pair into its ZRLs followed by the pair itself.
        source = np.repeat(np.arange(len(runs)), zrls + 1)
        last = np.zeros(len(source), dtype=bool)
        last[np.cumsum(zrls + 1) - 1] = True
        runs = np.where(last, runs[source] % 16, 15)
        values = np.where(last, values[source], 0)
        block_of = block_of[source]
    pairs = list(zip(runs.tolist(), values.tolist()))
    ends = np.cumsum(np.bincount(block_of, minlength=len(dc_diffs))).tolist()
    tokens = []
    start = 0
    for dc_diff, end in zip(dc_diffs.tolist(), ends):
        tokens.append((dc_diff, pairs[start:end]))
        start = end
    return tokens, nbits


def decode_blocks(tokens, shape: Tuple[int, int], quality: int = 75) -> np.ndarray:
    """Reconstruct a strip from its token stream."""
    height, width = shape
    table = quantization_table(quality)
    strip = np.empty((height, width), dtype=np.float64)
    blocks_per_row = width // BLOCK
    previous_dc = 0
    for index, (dc_diff, ac_pairs) in enumerate(tokens):
        scan = [0] * (BLOCK * BLOCK)
        previous_dc += dc_diff
        scan[0] = previous_dc
        position = 1
        for run, value in ac_pairs:
            position += run
            if value != 0:
                scan[position] = value
                position += 1
        coefficients = np.zeros((BLOCK, BLOCK))
        for value, (i, j) in zip(scan, _ZIGZAG):
            coefficients[i, j] = value
        block = inverse_dct(coefficients * table) + 128.0
        by = (index // blocks_per_row) * BLOCK
        bx = (index % blocks_per_row) * BLOCK
        strip[by:by + BLOCK, bx:bx + BLOCK] = block
    return np.clip(strip, 0.0, 255.0)


def compress_strip(strip: np.ndarray, quality: int = 75):
    """Compress a strip; returns ``(tokens, compressed_bytes)``."""
    tokens, nbits = encode_blocks(strip, quality)
    return tokens, (nbits + 7) // 8


def decompress_strip(tokens, shape: Tuple[int, int], quality: int = 75) -> np.ndarray:
    """Inverse of :func:`compress_strip`."""
    return decode_blocks(tokens, shape, quality)


# ----------------------------------------------------------------------
# Cost model: honest operation counts for the simulated nodes
# ----------------------------------------------------------------------

#: Integer ops per pixel for level shift, zig-zag and run-length steps.
_INT_OPS_PER_PIXEL = 6
#: Flops per pixel for quantization (divide + round).
_QUANT_FLOPS_PER_PIXEL = 2


def compression_work(pixels: int) -> Work:
    """The Work one node performs compressing ``pixels`` pixels."""
    blocks = pixels / float(BLOCK * BLOCK)
    return Work(
        flops=blocks * FLOPS_PER_BLOCK_DCT + pixels * _QUANT_FLOPS_PER_PIXEL,
        int_ops=pixels * _INT_OPS_PER_PIXEL,
        mem_bytes=pixels * 2.0,
    )


def decompression_work(pixels: int) -> Work:
    """The Work one node performs decompressing ``pixels`` pixels."""
    return compression_work(pixels)


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (peak 255)."""
    mse = float(np.mean((original.astype(np.float64) - reconstructed) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * math.log10(255.0 ** 2 / mse)
