"""Parallel Sorting by Regular Sampling — algorithm pieces.

The real PSRS algorithm (Shi & Schaeffer): local sort, regular
sampling, pivot selection from the gathered sample, partitioning by
pivot, all-to-all exchange and final k-way merge.  "PSRS partitions
the data into ordered subsets of approximately equal size" (Section
3.3).  These helpers are pure functions so tests can exercise every
phase in isolation.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.hardware.node import Work

__all__ = [
    "regular_sample",
    "select_pivots",
    "partition_by_pivots",
    "merge_sorted_runs",
    "local_sort_work",
    "merge_work",
]


def regular_sample(sorted_block: np.ndarray, parts: int) -> np.ndarray:
    """``parts`` regularly spaced samples from a sorted block."""
    n = len(sorted_block)
    if n == 0:
        return sorted_block[:0]
    positions = [(i * n) // parts for i in range(parts)]
    return sorted_block[positions]


def select_pivots(all_samples: np.ndarray, parts: int) -> np.ndarray:
    """``parts - 1`` pivots from the gathered, sorted sample."""
    ordered = np.sort(all_samples)
    n = len(ordered)
    positions = [(i * n) // parts + parts // 2 for i in range(1, parts)]
    positions = [min(p, n - 1) for p in positions]
    return ordered[positions]


def partition_by_pivots(sorted_block: np.ndarray, pivots: np.ndarray) -> List[np.ndarray]:
    """Split a sorted block into ``len(pivots)+1`` ordered segments."""
    cut_points = np.searchsorted(sorted_block, pivots, side="right")
    return np.split(sorted_block, cut_points)


def merge_sorted_runs(runs: List[np.ndarray]) -> np.ndarray:
    """K-way merge of sorted runs, computed as concatenate plus sort.

    The charged cost (:func:`merge_work`) is that of a true linear
    k-way merge.  For integer keys every sort algorithm yields the same
    array, so the host uses numpy's default sort, which is faster than
    ``kind="mergesort"`` even on presorted runs.
    """
    if not runs:
        return np.array([], dtype=np.int64)
    merged = np.concatenate(runs)
    merged.sort()
    return merged


#: Integer ops per key comparison step: a 1995 qsort paid an indirect
#: comparison-function call, branches and element moves per step.
_OPS_PER_COMPARISON = 30


def local_sort_work(n: int) -> Work:
    """Work for a local comparison sort of ``n`` keys."""
    if n <= 1:
        return Work()
    comparisons = n * math.log2(n)
    return Work(int_ops=comparisons * _OPS_PER_COMPARISON, mem_bytes=8.0 * n)


def merge_work(n: int, ways: int) -> Work:
    """Work for a ``ways``-way merge of ``n`` total keys."""
    if n <= 1 or ways <= 1:
        return Work(int_ops=float(max(n, 0)))
    passes = math.log2(ways)
    return Work(int_ops=n * passes * _OPS_PER_COMPARISON, mem_bytes=8.0 * n)
