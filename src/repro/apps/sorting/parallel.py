"""Parallel Sorting by Regular Sampling over the tool API.

"This algorithm represents a class of applications in which the
computation and communication requirements are data dependent"
(Section 3.3): partition sizes, and therefore the all-to-all exchange
volumes, depend on the key distribution.

As in standard parallel-sorting benchmarks, keys start distributed
(each rank generates its block) and end distributed (rank ``k`` holds
the ``k``-th ordered partition): the timed phases are local sort,
sampling/pivot selection, the all-to-all exchange and the final merge.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.base import ParallelApplication, split_evenly
from repro.apps.sorting.psrs import (
    local_sort_work,
    merge_sorted_runs,
    merge_work,
    partition_by_pivots,
    regular_sample,
    select_pivots,
)
from repro.hardware.node import Work
from repro.sim import RandomStreams

__all__ = ["SortWorkload", "PsrsSort"]

_SAMPLE_TAG = "psrs.samples"
_PIVOT_TAG = "psrs.pivots"
_EXCHANGE_TAG = "psrs.exchange"


class SortWorkload(object):
    """Total key count plus the seeded streams each rank draws from."""

    def __init__(self, total_keys: int, rng: RandomStreams) -> None:
        self.total_keys = int(total_keys)
        self.rng = rng

    def keys_for_rank(self, rank: int, size: int) -> np.ndarray:
        """The block rank ``rank`` generates (deterministic)."""
        counts = split_evenly(self.total_keys, size)
        stream = self.rng.fresh_numpy_stream("psrs.keys.rank%d" % rank)
        return stream.integers(0, 2 ** 31 - 1, size=counts[rank], dtype=np.int64)

    def __repr__(self) -> str:
        return "<SortWorkload n=%d>" % self.total_keys


class PsrsSort(ParallelApplication):
    """The paper's Sorting by Regular Sampling benchmark (Utilities)."""

    name = "psrs"
    paper_class = "Utilities"

    def __init__(self, keys: int = 250_000) -> None:
        self.keys = keys

    def make_workload(self, rng: RandomStreams) -> SortWorkload:
        return SortWorkload(self.keys, rng)

    def program(self, comm, workload: SortWorkload):
        size = comm.size
        local = workload.keys_for_rank(comm.rank, size).copy()

        # Phase 1 — local sort.  The charged work is a comparison
        # sort's; integer keys sort to the same array whatever the
        # algorithm, so the host uses numpy's fastest.
        yield from comm.node.execute(local_sort_work(len(local)))
        local.sort()

        if size == 1:
            return {"partition": local}

        # Phase 2 — regular sampling; rank 0 selects pivots.
        samples = regular_sample(local, size)
        if comm.rank == 0:
            gathered = [samples]
            for _ in range(1, size):
                msg = yield from comm.recv(tag=_SAMPLE_TAG)
                gathered.append(msg.payload)
            all_samples = np.concatenate(gathered)
            yield from comm.node.execute(local_sort_work(len(all_samples)))
            pivots = select_pivots(all_samples, size)
            for rank in range(1, size):
                yield from comm.send(rank, payload=pivots, tag=_PIVOT_TAG)
        else:
            yield from comm.send(0, payload=samples, tag=_SAMPLE_TAG)
            msg = yield from comm.recv(src=0, tag=_PIVOT_TAG)
            pivots = msg.payload

        # Phase 3 — partition and all-to-all exchange (data dependent).
        yield from comm.node.execute(Work(int_ops=float(len(local))))
        segments = partition_by_pivots(local, pivots)
        incoming = [segments[comm.rank]]
        for step in range(1, size):
            dst = (comm.rank + step) % size
            yield from comm.send(dst, payload=segments[dst], tag=_EXCHANGE_TAG)
        for _ in range(1, size):
            msg = yield from comm.recv(tag=_EXCHANGE_TAG)
            incoming.append(msg.payload)

        # Phase 4 — merge incoming runs; rank k now owns partition k.
        total = int(sum(len(run) for run in incoming))
        yield from comm.node.execute(merge_work(total, size))
        merged = merge_sorted_runs(incoming)
        return {"partition": merged}

    def verify(self, workload: SortWorkload, results: List[dict]) -> None:
        partitions = [result["partition"] for result in results]
        # Each partition sorted; partitions globally ordered.
        for index, partition in enumerate(partitions):
            self._require(
                bool(np.all(np.diff(partition) >= 0)), "partition %d not sorted" % index
            )
        for left, right in zip(partitions, partitions[1:]):
            if len(left) and len(right):
                self._require(
                    int(left[-1]) <= int(right[0]), "partitions out of global order"
                )
        # The union of partitions is exactly the generated multiset.
        merged = np.concatenate(partitions)
        expected = np.sort(
            np.concatenate(
                [workload.keys_for_rank(rank, len(results)) for rank in range(len(results))]
            )
        )
        self._require(len(merged) == len(expected), "key count changed")
        self._require(bool(np.array_equal(np.sort(merged), expected)), "keys were altered")
