"""Parallel 2-D FFT with a distributed transpose.

Section 3.3: "To compute the FFT in two dimensions ... compute a one
dimensional FFT for each of the rows and each of the columns ... a
distributed 2D-FFT involves transfer of large amount of data between
processors."  The classic decomposition: each rank owns a band of
rows (generated in place, as FFT benchmarks do), runs 1-D FFTs over
its rows, all ranks exchange blocks in an all-to-all transpose, and a
second 1-D pass over the received rows completes the column
transforms.  The result stays distributed: rank ``k`` ends up holding
columns band ``k`` of the spectrum, stored as rows.  The transpose is
the communication-intensive phase that makes this a tool benchmark.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.base import ParallelApplication, split_evenly
from repro.apps.fft.radix2 import fft1d, fft_flops
from repro.hardware.node import Work
from repro.sim import RandomStreams

__all__ = ["FftWorkload", "ParallelFft2d"]

_TRANSPOSE_TAG = "fft.transpose"


class FftWorkload(object):
    """A complex field of ``size`` x ``size``, generated band-wise."""

    def __init__(self, size: int, rng: RandomStreams) -> None:
        self.size = int(size)
        self.rng = rng

    def row_bounds(self, processors: int) -> List[tuple]:
        chunks = split_evenly(self.size, processors)
        bounds = []
        row = 0
        for chunk in chunks:
            bounds.append((row, row + chunk))
            row += chunk
        return bounds

    def rows_for_rank(self, rank: int, processors: int) -> np.ndarray:
        """The row band rank ``rank`` generates (deterministic)."""
        top, bottom = self.row_bounds(processors)[rank]
        stream = self.rng.fresh_numpy_stream("fft.rows.rank%d" % rank)
        shape = (bottom - top, self.size)
        real = stream.normal(0.0, 1.0, size=shape)
        imag = stream.normal(0.0, 1.0, size=shape)
        return (real + 1j * imag).astype(np.complex128)

    def full_field(self, processors: int) -> np.ndarray:
        """The whole field as the ranks generated it (for checking)."""
        return np.vstack([self.rows_for_rank(r, processors) for r in range(processors)])

    def __repr__(self) -> str:
        return "<FftWorkload %dx%d>" % (self.size, self.size)


class ParallelFft2d(ParallelApplication):
    """The paper's 2D-FFT benchmark (Numerical Algorithms class)."""

    name = "fft2d"
    paper_class = "Numerical Algorithms"
    # The field is seeded, but every message and every charged flop
    # depends only on the size and the processor count.
    seed_sensitive = False

    def __init__(self, size: int = 256) -> None:
        if size < 2 or size & (size - 1):
            raise ValueError("size must be a power of two >= 2")
        self.size = size

    def make_workload(self, rng: RandomStreams) -> FftWorkload:
        return FftWorkload(self.size, rng)

    def program(self, comm, workload: FftWorkload):
        n = workload.size
        bounds = workload.row_bounds(comm.size)
        local = workload.rows_for_rank(comm.rank, comm.size).copy()

        # Row-pass FFT over the local band.
        yield from comm.node.execute(Work(flops=local.shape[0] * fft_flops(n)))
        local = fft1d(local)

        if comm.size > 1:
            local = yield from self._transpose(comm, local, bounds)
        else:
            local = local.T.copy()

        # Column-pass FFT (columns now stored as local rows).
        yield from comm.node.execute(Work(flops=local.shape[0] * fft_flops(n)))
        local = fft1d(local)

        # Result stays distributed: rank k holds spectrum columns band
        # k, stored as rows.
        return {"columns_band": local, "bounds": bounds[comm.rank]}

    def _transpose(self, comm, local, bounds):
        """Exchange blocks so each rank holds its column band as rows."""
        my_cols = slice(bounds[comm.rank][0], bounds[comm.rank][1])
        blocks = {comm.rank: local[:, my_cols]}
        for step in range(1, comm.size):
            dst = (comm.rank + step) % comm.size
            dst_cols = slice(bounds[dst][0], bounds[dst][1])
            yield from comm.send(dst, payload=local[:, dst_cols].copy(), tag=_TRANSPOSE_TAG)
        for _ in range(1, comm.size):
            msg = yield from comm.recv(tag=_TRANSPOSE_TAG)
            blocks[msg.src] = msg.payload
        stacked = np.vstack([blocks[rank] for rank in range(comm.size)])
        # Local reshuffle of the block is memory-bound work.
        yield from comm.node.execute(Work(mem_bytes=float(stacked.nbytes)))
        return stacked.T.copy()

    def verify(self, workload: FftWorkload, results: List[dict]) -> None:
        processors = len(results)
        expected = np.fft.fft2(workload.full_field(processors))
        reassembled = np.empty((workload.size, workload.size), dtype=np.complex128)
        for result in results:
            top, bottom = result["bounds"]
            # Rank's rows are spectrum columns top:bottom.
            reassembled[:, top:bottom] = result["columns_band"].T
        error = np.max(np.abs(reassembled - expected)) / np.max(np.abs(expected))
        self._require(error < 1e-8, "spectrum error %.2e too large" % error)
