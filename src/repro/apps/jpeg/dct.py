"""8x8 type-II discrete cosine transform (the JPEG core).

The orthonormal DCT-II basis matrix ``C`` satisfies ``C @ C.T = I``;
forward block transform is ``C @ B @ C.T`` and the inverse is
``C.T @ B @ C``.  Implemented with explicit matrices so the operation
counts charged to the simulated nodes are honest: two 8x8 matrix
multiplies per block, 2 * 8 * 8 * (8 multiplies + 7 adds) ~ 2048 flops.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "dct_matrix", "forward_dct", "inverse_dct", "FLOPS_PER_BLOCK_DCT"]

#: JPEG block edge length.
BLOCK = 8

#: Floating-point operations for one 8x8 forward (or inverse) DCT:
#: two matrix products of 8x8 matrices at 2*8^3 flops each.
FLOPS_PER_BLOCK_DCT = 2 * 2 * BLOCK ** 3


def dct_matrix() -> np.ndarray:
    """The orthonormal 8x8 DCT-II basis matrix."""
    n = np.arange(BLOCK)
    k = n.reshape(-1, 1)
    basis = np.cos((2 * n + 1) * k * np.pi / (2.0 * BLOCK)) * np.sqrt(2.0 / BLOCK)
    basis[0, :] /= np.sqrt(2.0)
    return basis


_DCT = dct_matrix()
_DCT_T = _DCT.T.copy()


def forward_dct(block: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT of one 8x8 block, or of every block of an
    ``(..., 8, 8)`` stack (float64 in, float64 out).  A stack runs the
    same product order per block, so its results are bit-identical to
    transforming the blocks one at a time."""
    if block.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError("expected an 8x8 block, got %r" % (block.shape,))
    return _DCT @ block @ _DCT_T


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of one 8x8 coefficient block."""
    if coefficients.shape != (BLOCK, BLOCK):
        raise ValueError("expected an 8x8 block, got %r" % (coefficients.shape,))
    return _DCT_T @ coefficients @ _DCT
