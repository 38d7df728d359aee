"""Bulk cache probes: ``get_many`` on the cache and its disk store.

The scheduler probes jobs in chunks, so one ``get_many`` must behave
exactly like N ``lookup`` calls — same presence semantics (absent jobs
simply omitted, ``None`` values preserved), same hit/miss accounting
at the :class:`ResultCache` layer, and on disk at most one refresh of
the segment tails per probe instead of one read per key.
"""

import os
import tempfile

from repro.core.cache import MISSING, DiskBackend, ResultCache, job_key
from repro.core.jobs import MeasurementJob


def jobs(count, seed=0):
    return [
        MeasurementJob("sendrecv", "p4", "sun-ethernet", 2,
                       (("nbytes", 100 * index),), seed=seed)
        for index in range(count)
    ]


class TestBackends:
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

    def test_get_many_agrees_with_lookup(self):
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache.on_disk(root)
            stored = jobs(4)
            cache.store(stored[1], 3.25)
            bulk = cache.get_many(stored)
            assert bulk == {stored[1]: 3.25}
            assert cache.lookup(stored[0]) is MISSING
            assert cache.lookup(stored[1]) == 3.25
