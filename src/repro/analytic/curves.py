"""The curve-level cache above the job-level :class:`ResultCache`.

A *curve* is one configuration's timing function over its size axis:
``(platform, tool, kind, processors) -> {size: seconds}``.  Analytic
jobs that land on a known curve are answered from memory; new size
points on a known curve extend it with one vectorized evaluation.  The
key deliberately excludes ``seed``: eligible jobs are deterministic
(noise=0 draws nothing from the platform's seeded streams), so every
seed sits on the same curve — which is exactly what makes whole-grid
re-sweeps with fresh seeds near-free.  (Within one pass the scheduler
already hands the engine one job per seed class; see
:func:`~repro.core.jobs.canonical_job`.)
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["CurveCache", "curve_key"]

#: A curve's identity: (platform, tool, kind, processors).
CurveKey = Tuple[str, str, str, int]


def curve_key(job) -> CurveKey:
    """The curve a :class:`MeasurementJob` samples."""
    return (job.platform, job.tool, job.kind, job.processors)


class CurveCache(object):
    """Thread-safe accumulation of evaluated curve points.

    ``hits``/``misses`` count size points served from / absent from
    cached curves; ``evaluations`` counts vectorized model calls (one
    per curve with any missing points in a batch).
    """

    def __init__(self) -> None:
        self._curves: Dict[CurveKey, Dict[int, Optional[float]]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evaluations = 0  # guarded-by: _lock

    def __repr__(self) -> str:
        with self._lock:
            return "<CurveCache curves=%d hits=%d misses=%d>" % (
                len(self._curves), self.hits, self.misses,
            )

    def lookup(self, key: CurveKey, sizes: Sequence[int]) -> Tuple[Dict[int, Optional[float]], List[int]]:
        """Split ``sizes`` into known points and missing ones.

        Returns ``(known, missing)`` and updates the hit/miss counters;
        ``missing`` preserves first-seen order without duplicates.
        """
        with self._lock:
            curve = self._curves.get(key, {})
            known: Dict[int, Optional[float]] = {}
            missing: List[int] = []
            for size in sizes:
                if size in curve:
                    known[size] = curve[size]
                elif size not in known and size not in missing:
                    missing.append(size)
            self.hits += len(known)
            self.misses += len(missing)
            return known, missing

    def extend(self, key: CurveKey, sizes: Sequence[int], values: Sequence[Optional[float]]) -> None:
        """Record freshly evaluated points for one curve."""
        with self._lock:
            curve = self._curves.setdefault(key, {})
            for size, value in zip(sizes, values):
                curve[size] = value
            self.evaluations += 1

    def curve(self, key: CurveKey) -> Dict[int, Optional[float]]:
        """Snapshot of one curve's accumulated points."""
        with self._lock:
            return dict(self._curves.get(key, {}))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "curves": len(self._curves),
                "points": sum(len(c) for c in self._curves.values()),
                "hits": self.hits,
                "misses": self.misses,
                "evaluations": self.evaluations,
            }
