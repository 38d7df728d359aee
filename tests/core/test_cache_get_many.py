"""Bulk cache probes: ``get_many`` across every backend.

The scheduler probes jobs in chunks, so one ``get_many`` must behave
exactly like N ``get`` calls — same presence semantics (absent keys
simply omitted, ``None`` values preserved), same hit/miss accounting
at the :class:`ResultCache` layer, and on disk at most one refresh of
the segment tails per probe instead of one read per key.
"""

import os
import tempfile

import pytest

from repro.core.cache import (
    MISSING,
    CacheBackend,
    DiskBackend,
    MemoryBackend,
    ResultCache,
    ShardedBackend,
    job_key,
)
from repro.core.jobs import MeasurementJob


def jobs(count, seed=0):
    return [
        MeasurementJob("sendrecv", "p4", "sun-ethernet", 2,
                       (("nbytes", 100 * index),), seed=seed)
        for index in range(count)
    ]


class TestBackends:
    @pytest.mark.parametrize("factory", [
        MemoryBackend,
        lambda: ShardedBackend([MemoryBackend() for _ in range(3)]),
    ])
    def test_get_many_matches_get(self, factory):
        backend = factory()
        stored = jobs(6)
        keys = [job_key(job) for job in stored]
        for index, key in enumerate(keys[:4]):
            backend.put(key, None if index == 0 else float(index), stored[index])

        found = backend.get_many(keys)
        assert set(found) == set(keys[:4])
        assert found[keys[0]] is None  # None is a value, not a miss
        for key in keys:
            single = backend.get(key)
            if key in found:
                assert single == found[key]
            else:
                assert single is MISSING

    def test_disk_get_many_refreshes_then_serves_the_memo(self):
        stored = jobs(8)
        with tempfile.TemporaryDirectory() as root:
            backend = DiskBackend(root)
            keys = [job_key(job) for job in stored]
            for job, key in zip(stored[:5], keys[:5]):
                backend.put(key, 1.5, job)

            # A fresh backend over the same directory: the resume path,
            # where nothing is memoized yet.
            fresh = DiskBackend(root)
            found = fresh.get_many(keys)
            assert found == {key: 1.5 for key in keys[:5]}
            # A miss refreshes the memo from the segment tails, so a
            # line another writer appended since shows up ...
            backend.put(keys[5], None, stored[5])
            assert fresh.get_many(keys) == dict(found, **{keys[5]: None})
            # ... and a probe that hits throughout answers from the
            # memo (delete the segments to prove it).
            for name in os.listdir(root):
                os.unlink(os.path.join(root, name))
            assert fresh.get_many(keys[:5]) == found

    def test_default_backend_implementation_loops(self):
        """The CacheBackend base gives subclasses get_many for free."""

        class Tiny(CacheBackend):
            def __init__(self):
                self.data = {}

            def get(self, key):
                return self.data.get(key, MISSING)

            def put(self, key, value, job=None):
                self.data[key] = value

        backend = Tiny()
        backend.put("a", 1.0)
        assert backend.get_many(["a", "b"]) == {"a": 1.0}


class TestResultCache:
    def test_counters_and_presence(self):
        cache = ResultCache()
        stored = jobs(5)
        for job in stored[:3]:
            cache.store(job, 2.0)
        results = cache.get_many(stored)
        assert set(results) == set(stored[:3])
        assert cache.hits == 3
        assert cache.misses == 2

    def test_duplicate_jobs_probe_once(self):
        cache = ResultCache()
        job = jobs(1)[0]
        cache.store(job, 1.0)
        assert cache.get_many([job, job, job]) == {job: 1.0}
        assert cache.hits == 1
        assert cache.misses == 0

    def test_backend_without_get_many_still_works(self):
        """A backend that overrides only ``get`` and ``put`` probes in
        bulk through the ``CacheBackend`` base's ``get_many``."""

        class Plain(CacheBackend):
            def __init__(self):
                self.data = {}

            def get(self, key):
                return self.data.get(key, MISSING)

            def put(self, key, value, job=None):
                self.data[key] = value

        cache = ResultCache(Plain())
        stored = jobs(3)
        cache.store(stored[0], None)
        results = cache.get_many(stored)
        assert results == {stored[0]: None}
        assert cache.hits == 1 and cache.misses == 2

    def test_a_backend_outside_the_protocol_is_refused_at_the_probe(self):
        """No fallback for duck-typed backends without ``get_many``."""

        class GetOnly(object):
            def get(self, key):
                return MISSING

        with pytest.raises(AttributeError, match="get_many"):
            ResultCache(GetOnly()).get_many(jobs(1))

    def test_get_many_agrees_with_lookup(self):
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache.on_disk(root)
            stored = jobs(4)
            cache.store(stored[1], 3.25)
            bulk = cache.get_many(stored)
            assert bulk == {stored[1]: 3.25}
            assert cache.lookup(stored[0]) is MISSING
            assert cache.lookup(stored[1]) == 3.25
