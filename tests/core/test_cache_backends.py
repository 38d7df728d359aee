"""Unit tests for the cache stores (memory, disk, sharded)."""

import gc
import glob
import json
import os
import pathlib
import weakref

import pytest

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    MISSING,
    DiskBackend,
    ResultCache,
    ShardedBackend,
    job_key,
)
from repro.core.jobs import application_job, sendrecv_job
from repro.errors import EvaluationError

JOB = sendrecv_job("p4", "sun-ethernet", 1024)
OTHER = sendrecv_job("pvm", "sun-ethernet", 1024)


def segments(root):
    """The segment files of the disk backend at ``root``."""
    return sorted(glob.glob(os.path.join(str(root), "seg-*.jsonl")))


def get(store, key):
    """One key's sample in ``store``, or :data:`MISSING`."""
    return store.get_many([key]).get(key, MISSING)


#: The three forms of :class:`ResultCache`, each over a fresh directory.
CACHE_FORMS = {
    "memory": lambda root: ResultCache(),
    "disk": lambda root: ResultCache.on_disk(root),
    "sharded": lambda root: ResultCache.on_disk(root, shards=2),
}


@pytest.fixture(params=sorted(CACHE_FORMS))
def cache(request, tmp_path):
    return CACHE_FORMS[request.param](str(tmp_path / "cache"))


class TestJobKey:
    def test_stable_and_content_addressed(self):
        assert job_key(JOB) == job_key(sendrecv_job("p4", "sun-ethernet", 1024))
        assert job_key(JOB) != job_key(OTHER)
        assert len(job_key(JOB)) == 64
        int(job_key(JOB), 16)  # hex

    def test_param_order_is_canonical(self):
        left = application_job("montecarlo", "p4", "sun-ethernet", 4, samples=10, chunk=2)
        right = application_job("montecarlo", "p4", "sun-ethernet", 4, chunk=2, samples=10)
        assert job_key(left) == job_key(right)


class TestCacheConformance:
    """What every form of :class:`ResultCache` answers alike."""

    def test_none_sample_is_a_hit(self, cache):
        assert cache.lookup(JOB) is MISSING
        cache.store(JOB, None)
        assert cache.lookup(JOB) is None
        assert cache.get_many([JOB]) == {JOB: None}
        assert JOB in cache and cache.peek(JOB) is None
        assert (cache.hits, cache.misses) == (2, 1)

    def test_get_many_agrees_with_lookup(self, cache):
        stored = [sendrecv_job("p4", "sun-ethernet", 1024, seed=s) for s in range(6)]
        for index, job in enumerate(stored[:4]):
            cache.store(job, None if index == 0 else float(index))
        bulk = cache.get_many(stored + stored[:2])  # a duplicate probes once
        assert bulk == {job: None if index == 0 else float(index)
                        for index, job in enumerate(stored[:4])}
        for job in stored:
            assert cache.lookup(job) == bulk.get(job, MISSING)
        assert (cache.hits, cache.misses) == (8, 4)

    def test_peek_and_contains_leave_the_counters(self, cache):
        with pytest.raises(KeyError):
            cache.peek(JOB)
        assert JOB not in cache
        cache.store(JOB, 0.25)
        assert cache.peek(JOB) == 0.25 and JOB in cache and OTHER not in cache
        assert (cache.hits, cache.misses) == (0, 0)

    def test_len_and_clear(self, cache):
        cache.store(JOB, 1.5)
        cache.store(OTHER, 2.5)
        cache.store(JOB, 1.5)
        assert len(cache) == 2
        assert cache.lookup(JOB) == 1.5
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        assert cache.lookup(JOB) is MISSING and JOB not in cache
        cache.store(JOB, 1.5)  # stores again after a clear
        assert cache.lookup(JOB) == 1.5 and len(cache) == 1


class TestRetention:
    def test_a_dropped_job_is_not_retained(self, cache):
        """The cache keeps keys and samples, never the jobs it was
        asked about: a long-lived shared cache (``repro serve``) must
        not hold every job object for its life."""
        job = sendrecv_job("p4", "sun-ethernet", 2048, seed=7)
        cache.store(job, 0.5)
        assert cache.get_many([job]) == {job: 0.5}
        assert cache.lookup(job) == 0.5
        dropped = weakref.ref(job)
        del job
        gc.collect()
        assert dropped() is None
        assert len(cache) == 1


class TestDiskBackend:
    def test_round_trip_survives_reopen(self, tmp_path):
        key = job_key(JOB)
        DiskBackend(str(tmp_path)).put(key, 0.25, JOB)
        fresh = DiskBackend(str(tmp_path))
        assert get(fresh, key) == 0.25
        assert len(fresh) == 1
        assert fresh.keys() == [key]

    def test_none_sample_round_trips(self, tmp_path):
        key = job_key(JOB)
        DiskBackend(str(tmp_path)).put(key, None, JOB)
        assert get(DiskBackend(str(tmp_path)), key) is None

    def test_entries_reconstruct_jobs(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        backend.put(job_key(JOB), 0.25, JOB)
        backend.put(job_key(OTHER), 0.5, OTHER)
        entries = dict(DiskBackend(str(tmp_path)).entries())
        assert entries == {JOB: 0.25, OTHER: 0.5}

    def test_stale_schema_reads_as_miss(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        key = job_key(JOB)
        backend.put(key, 0.25, JOB)
        del backend
        [path] = segments(tmp_path)
        entry = json.loads(pathlib.Path(path).read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION - 1
        with open(path, "w") as handle:
            handle.write(json.dumps(entry) + "\n")
        fresh = DiskBackend(str(tmp_path))
        assert get(fresh, key) is MISSING
        assert list(fresh.entries()) == []
        # len/keys agree with get: a drained stale directory is empty.
        assert len(fresh) == 0
        assert fresh.keys() == []

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        key = job_key(JOB)
        backend.put(key, 0.25, JOB)
        del backend
        [path] = segments(tmp_path)
        with open(path, "w") as handle:
            handle.write("{not json\n")
        fresh = DiskBackend(str(tmp_path))
        assert get(fresh, key) is MISSING
        assert list(fresh.entries()) == []

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
    def test_torn_entry_is_a_miss_everywhere(self, tmp_path, damage):
        """A torn last line (cut short by a kill, binary garbage, an
        empty line) must read as a miss through *every* read surface —
        get_many, keys, entries and len — never as an exception or a
        phantom entry, and must not take the line before it along."""
        backend = DiskBackend(str(tmp_path))
        torn_key = job_key(JOB)
        backend.put(job_key(OTHER), 0.5, OTHER)
        backend.put(torn_key, 0.25, JOB)
        del backend
        [path] = segments(tmp_path)
        kept, last = pathlib.Path(path).read_bytes().splitlines(keepends=True)
        damaged = {
            "truncate": last[: len(last) // 2],
            "garbage": b"\x00\xff\x13garbage\n",
            "empty": b"\n",
        }[damage]
        with open(path, "wb") as handle:
            handle.write(kept + damaged)
        fresh = DiskBackend(str(tmp_path))
        assert get(fresh, torn_key) is MISSING
        assert fresh.keys() == [job_key(OTHER)]
        assert dict(fresh.entries()) == {OTHER: 0.5}
        assert len(fresh) == 1

    def test_truncated_tail_is_terminated_by_the_next_writer(self, tmp_path):
        """A segment whose last line was cut short: that entry is a
        miss, and the first line the next writer appends after it
        still reads back (it is not glued onto the torn fragment)."""
        backend = DiskBackend(str(tmp_path))
        backend.put(job_key(OTHER), 0.5, OTHER)
        backend.put(job_key(JOB), 0.25, JOB)
        del backend
        [path] = segments(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 7)
        third = sendrecv_job("mpi", "sun-ethernet", 1024)
        writer = DiskBackend(str(tmp_path))
        assert get(writer, job_key(JOB)) is MISSING
        writer.put(job_key(third), 0.75, third)
        assert segments(tmp_path) == [path]  # took the free segment
        fresh = DiskBackend(str(tmp_path))
        assert get(fresh, job_key(third)) == 0.75
        assert get(fresh, job_key(JOB)) is MISSING
        assert dict(fresh.entries()) == {OTHER: 0.5, third: 0.75}

    def test_clear_removes_every_segment_but_no_foreign_file(self, tmp_path):
        """clear() deletes the segments of every writer; files of the
        one-file-per-entry layout are not the store's and stay."""
        key = job_key(JOB)
        legacy = os.path.join(str(tmp_path), key[:2], key + ".json")
        os.makedirs(os.path.dirname(legacy))
        with open(legacy, "w") as handle:
            handle.write("{}")
        first, second = DiskBackend(str(tmp_path)), DiskBackend(str(tmp_path))
        first.put(key, 0.25, JOB)
        second.put(job_key(OTHER), 0.5, OTHER)
        assert len(segments(tmp_path)) == 2
        first.clear()
        assert segments(tmp_path) == []
        assert os.path.exists(legacy)
        assert len(DiskBackend(str(tmp_path))) == 0
        first.put(key, 0.25, JOB)  # writes again after a clear
        assert get(DiskBackend(str(tmp_path)), key) == 0.25

    def test_writers_reuse_free_segments(self, tmp_path):
        """Concurrent writers each own a segment; a later writer takes
        a free one instead of creating another, so the segment count
        stays at the peak number of concurrent writers."""
        keys = [job_key(sendrecv_job("p4", "sun-ethernet", 1024, seed=s))
                for s in range(4)]
        first, second = DiskBackend(str(tmp_path)), DiskBackend(str(tmp_path))
        first.put(keys[0], 0.0)
        second.put(keys[1], 1.0)
        assert len(segments(tmp_path)) == 2
        del first, second
        for index in (2, 3):
            DiskBackend(str(tmp_path)).put(keys[index], float(index))
        assert len(segments(tmp_path)) == 2
        fresh = DiskBackend(str(tmp_path))
        assert [get(fresh, key) for key in keys] == [0.0, 1.0, 2.0, 3.0]

    def test_one_segment_no_litter(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        for index in range(8):
            backend.put(job_key(sendrecv_job("p4", "sun-ethernet", 1024, seed=index)),
                        float(index))
        files = [os.path.join(directory, name)
                 for directory, _, names in os.walk(str(tmp_path))
                 for name in names]
        assert files == segments(tmp_path)
        assert len(pathlib.Path(files[0]).read_text().splitlines()) == 8

    def test_a_dropped_writer_stays_open_while_an_append_holds_it(self, tmp_path):
        """clear() (or a short write) on one thread drops the writer a
        put on another thread may be appending through: its descriptor
        must stay open until that put lets go, or the append could land
        in whatever file reused the descriptor number."""
        backend = DiskBackend(str(tmp_path))
        backend.put(job_key(JOB), 0.25, JOB)
        in_flight = backend._segment_writer()  # what a concurrent put holds
        backend.clear()
        assert in_flight.close.alive
        os.fstat(in_flight.fd)
        closer = in_flight.close
        del in_flight
        assert not closer.alive
        backend.put(job_key(OTHER), 0.5, OTHER)
        assert get(DiskBackend(str(tmp_path)), job_key(OTHER)) == 0.5

    def test_clear_removes_entries(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        backend.put(job_key(JOB), 0.25, JOB)
        backend.clear()
        assert len(backend) == 0
        assert get(DiskBackend(str(tmp_path)), job_key(JOB)) is MISSING


class TestShardedBackend:
    def test_needs_children(self):
        with pytest.raises(EvaluationError):
            ShardedBackend([])
        with pytest.raises(EvaluationError):
            ShardedBackend.on_disk("unused", shards=0)

    def test_routes_to_exactly_one_shard(self, tmp_path):
        backend = ShardedBackend([DiskBackend(str(tmp_path / str(index)))
                                  for index in range(4)])
        key = job_key(JOB)
        backend.put(key, 0.25, JOB)
        holders = [child for child in backend.backends if len(child)]
        assert len(holders) == 1
        assert holders[0] is backend.backends[backend.shard_index(key)]
        assert get(backend, key) == 0.25
        assert len(backend) == 1

    def test_disk_shards_share_a_root(self, tmp_path):
        backend = ShardedBackend.on_disk(str(tmp_path), shards=3)
        keys = [job_key(sendrecv_job("p4", "sun-ethernet", 1024, seed=s))
                for s in range(12)]
        for index, key in enumerate(keys):
            backend.put(key, float(index))
        assert sorted(os.listdir(str(tmp_path))) == [
            "manifest.json", "shard-00", "shard-01", "shard-02"]
        reopened = ShardedBackend.on_disk(str(tmp_path), shards=3)
        assert [get(reopened, key) for key in keys] == [float(i) for i in range(12)]
        assert len(reopened) == 12


class TestResultCache:
    def test_on_disk_factory(self, tmp_path):
        single = ResultCache.on_disk(str(tmp_path / "one"))
        assert isinstance(single.backend, DiskBackend)
        sharded = ResultCache.on_disk(str(tmp_path / "many"), shards=2)
        assert isinstance(sharded.backend, ShardedBackend)
        assert len(sharded.backend.backends) == 2
        with pytest.raises(EvaluationError):
            ResultCache.on_disk(str(tmp_path), shards=0)

    def test_clear_resets_store_and_counters(self, tmp_path):
        cache = ResultCache.on_disk(str(tmp_path))
        cache.store(JOB, 1.0)
        cache.lookup(JOB)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        assert cache.lookup(JOB) is MISSING


class TestConcurrentAccess:
    """One shared cache, many concurrent scheduler runs — the shape
    the evaluation service creates.  The counters and the dict access
    are guarded by a lock; these tests pin that ``hits + misses``
    never loses an increment under contention."""

    def _hammer(self, worker, threads):
        import sys
        import threading

        errors = []

        def wrapped(index):
            try:
                worker(index)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        # Shrink the bytecode switch interval so an unguarded
        # read-modify-write on the counters would actually interleave.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=wrapped, args=(index,))
                    for index in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []

    def test_shared_counters_survive_concurrent_hits(self):
        threads, rounds = 8, 400
        cache = ResultCache()
        jobs = [sendrecv_job("p4", "sun-ethernet", 1024, seed=s) for s in range(4)]
        for job in jobs:
            cache.store(job, 1.0)

        def worker(index):
            for _ in range(rounds):
                for job in jobs:
                    assert cache.lookup(job) == 1.0

        self._hammer(worker, threads)
        assert cache.hits == threads * rounds * len(jobs)
        assert cache.misses == 0

    def test_disjoint_miss_store_hit_cycles_account_exactly(self):
        """Each thread owns a disjoint job slice (distinct seeds, like
        concurrent service runs over different specs): every lookup is
        counted exactly once, and every store lands."""
        threads, per_thread = 8, 50
        cache = ResultCache()

        def worker(index):
            jobs = [sendrecv_job("p4", "sun-ethernet", 1024,
                                 seed=index * per_thread + offset)
                    for offset in range(per_thread)]
            for job in jobs:
                assert cache.lookup(job) is MISSING
                cache.store(job, float(index))
            for job in jobs:
                assert cache.lookup(job) == float(index)

        self._hammer(worker, threads)
        assert cache.misses == threads * per_thread
        assert cache.hits == threads * per_thread
        assert len(cache) == threads * per_thread

    def test_memory_store_concurrent_put_get(self):
        threads, per_thread = 8, 200
        backend = ResultCache().backend

        def worker(index):
            keys = ["%02d-%04d" % (index, offset) for offset in range(per_thread)]
            for offset, key in enumerate(keys):
                backend.put(key, float(offset))
            for offset, key in enumerate(keys):
                assert get(backend, key) == float(offset)

        self._hammer(worker, threads)
        assert len(backend) == threads * per_thread

    @pytest.mark.parametrize("make_backend", [
        lambda root: DiskBackend(root),
        lambda root: ShardedBackend.on_disk(root, shards=3),
    ], ids=["disk", "sharded"])
    def test_disk_backends_concurrent_put_get(self, tmp_path, make_backend):
        """`repro serve --cache-dir` shares one disk-backed store
        across concurrent runs; the read-through memo must not tear."""
        threads, per_thread = 8, 40
        backend = make_backend(str(tmp_path))

        def worker(index):
            keys = [job_key(sendrecv_job("p4", "sun-ethernet", 1024,
                                         seed=index * per_thread + offset))
                    for offset in range(per_thread)]
            for offset, key in enumerate(keys):
                backend.put(key, float(offset))
            for offset, key in enumerate(keys):
                assert get(backend, key) == float(offset)

        self._hammer(worker, threads)
        assert len(backend) == threads * per_thread

    def test_disk_backend_concurrent_same_keys(self, tmp_path):
        """Every thread reads and re-writes the *same* keys — the
        worst case for an unguarded memo dict (read-through inserts
        racing writes), and a harmless one for the entry files
        themselves (deterministic values, atomic replace)."""
        threads, rounds = 8, 60
        backend = DiskBackend(str(tmp_path))
        keys = [job_key(sendrecv_job("p4", "sun-ethernet", 1024, seed=s))
                for s in range(4)]
        for offset, key in enumerate(keys):
            backend.put(key, float(offset))

        def worker(index):
            for _ in range(rounds):
                for offset, key in enumerate(keys):
                    assert get(backend, key) == float(offset)
                    backend.put(key, float(offset))

        self._hammer(worker, threads)
        assert [get(backend, key) for key in keys] == [0.0, 1.0, 2.0, 3.0]

    def test_peek_is_counter_neutral_under_concurrency(self, tmp_path):
        """peek() now goes through the cache lock: hammering it while
        lookups run must leave hits + misses == lookup calls exactly."""
        threads, rounds = 8, 150
        cache = ResultCache.on_disk(str(tmp_path))
        cache.store(JOB, 1.0)

        def worker(index):
            for _ in range(rounds):
                if index % 2:
                    assert cache.peek(JOB) == 1.0
                else:
                    assert cache.lookup(JOB) == 1.0

        self._hammer(worker, threads)
        lookup_threads = threads // 2
        assert cache.hits == lookup_threads * rounds
        assert cache.misses == 0


    def test_a_slow_store_does_not_block_other_probes(self, monkeypatch):
        """The cache lock covers only the counters: while one run's
        store sits in store I/O, another run's lookup and bulk probe go
        straight through."""
        import threading

        entered, release = threading.Event(), threading.Event()
        cache = ResultCache()
        put = cache.backend.put

        def slow_put(key, value, job=None):
            entered.set()
            release.wait(30)
            put(key, value, job)

        monkeypatch.setattr(cache.backend, "put", slow_put)
        storer = threading.Thread(target=cache.store, args=(JOB, 1.0))
        storer.start()
        try:
            assert entered.wait(30)
            probed = threading.Thread(
                target=lambda: (cache.lookup(OTHER), cache.get_many([OTHER, JOB])))
            probed.start()
            probed.join(10)
            assert not probed.is_alive()
        finally:
            release.set()
            storer.join()
        assert (cache.hits, cache.misses) == (0, 3)
        assert cache.lookup(JOB) == 1.0

    def test_disk_counters_account_exactly_under_threads(self, tmp_path):
        """``hits + misses`` equals the lookups made, bulk or single,
        with store I/O running outside the cache lock."""
        threads, rounds = 8, 20
        cache = ResultCache.on_disk(str(tmp_path), shards=2)
        jobs = [sendrecv_job("p4", "sun-ethernet", 1024, seed=s) for s in range(6)]
        for job in jobs[:3]:
            cache.store(job, 1.0)

        def worker(index):
            for _ in range(rounds):
                if index % 2:
                    assert set(cache.get_many(jobs)) == set(jobs[:3])
                else:
                    assert cache.lookup(jobs[index % 6]) == (
                        1.0 if index % 6 < 3 else MISSING)

        self._hammer(worker, threads)
        bulk = threads // 2 * rounds
        single = threads // 2 * rounds
        assert cache.hits + cache.misses == bulk * len(jobs) + single
        assert cache.hits == bulk * 3 + rounds * sum(
            1 for index in range(0, threads, 2) if index % 6 < 3)


class TestCacheManifest:
    """The shard roster is part of the on-disk layout; reopening with
    a different one must fail loudly instead of silently re-routing."""

    def test_manifest_written_on_create(self, tmp_path):
        from repro.core.cache import CACHE_MANIFEST_NAME, read_cache_manifest

        ResultCache.on_disk(str(tmp_path / "flat"))
        ResultCache.on_disk(str(tmp_path / "sharded"), shards=4)
        flat = read_cache_manifest(str(tmp_path / "flat"))
        sharded = read_cache_manifest(str(tmp_path / "sharded"))
        assert flat == {"schema": CACHE_SCHEMA_VERSION, "shards": 1,
                        "layout": "flat"}
        assert sharded == {"schema": CACHE_SCHEMA_VERSION, "shards": 4,
                           "layout": "sharded"}
        assert os.path.exists(
            os.path.join(str(tmp_path / "flat"), CACHE_MANIFEST_NAME))

    def test_default_adopts_recorded_roster(self, tmp_path):
        key = job_key(JOB)
        ResultCache.on_disk(str(tmp_path), shards=3).backend.put(key, 0.5)
        adopted = ResultCache.on_disk(str(tmp_path))
        assert isinstance(adopted.backend, ShardedBackend)
        assert len(adopted.backend.backends) == 3
        assert get(adopted.backend, key) == 0.5

    def test_mismatched_roster_names_both_counts(self, tmp_path):
        ResultCache.on_disk(str(tmp_path), shards=2)
        with pytest.raises(EvaluationError) as excinfo:
            ResultCache.on_disk(str(tmp_path), shards=5)
        message = str(excinfo.value)
        assert "2" in message and "shards=5" in message

    def test_pre_manifest_directories_open_as_fresh(self, tmp_path):
        """A directory of the one-file-per-entry era with no manifest
        (shard-NN or hex-fanout subdirectories) opens as a fresh cache
        with whatever roster is asked for: its entries read as misses,
        and its files are left in place."""
        key = job_key(JOB)
        entry = json.dumps({"schema": CACHE_SCHEMA_VERSION, "key": key,
                            "seconds": 0.5, "job": JOB.to_dict()})
        legacy, flat = str(tmp_path / "legacy"), str(tmp_path / "flat")
        old_files = [os.path.join(legacy, "shard-%02d" % index, key[:2], key + ".json")
                     for index in range(3)]
        old_files.append(os.path.join(flat, key[:2], key + ".json"))
        for path in old_files:
            os.makedirs(os.path.dirname(path))
            with open(path, "w") as handle:
                handle.write(entry)

        reopened = ResultCache.on_disk(legacy, shards=2)
        assert len(reopened.backend.backends) == 2
        assert reopened.lookup(JOB) is MISSING and len(reopened) == 0
        adopted = ResultCache.on_disk(flat)
        assert isinstance(adopted.backend, DiskBackend)
        assert adopted.lookup(JOB) is MISSING and len(adopted) == 0
        assert all(os.path.exists(path) for path in old_files)

    def test_corrupt_manifest_reads_as_absent(self, tmp_path):
        from repro.core.cache import CACHE_MANIFEST_NAME, read_cache_manifest

        root = str(tmp_path)
        ResultCache.on_disk(root, shards=2)
        with open(os.path.join(root, CACHE_MANIFEST_NAME), "w") as handle:
            handle.write("{torn")
        assert read_cache_manifest(root) is None
        # The shard-NN directories still tell the truth.
        with pytest.raises(EvaluationError):
            ResultCache.on_disk(root, shards=3)
        reopened = ResultCache.on_disk(root)
        assert len(reopened.backend.backends) == 2
        assert read_cache_manifest(root)["shards"] == 2

    @pytest.mark.parametrize("damage", ["torn", "lost"])
    def test_a_damaged_manifest_is_recovered_not_overwritten(self, tmp_path, damage):
        """A sharded directory with entries whose manifest is torn or
        deleted reopens with its own roster and serves its entries; it
        is neither re-routed nor recorded afresh as flat."""
        from repro.core.cache import CACHE_MANIFEST_NAME, read_cache_manifest

        root = str(tmp_path)
        ResultCache.on_disk(root, shards=4).store(JOB, 0.5)
        path = os.path.join(root, CACHE_MANIFEST_NAME)
        if damage == "torn":
            with open(path, "w") as handle:
                handle.write('{"schema": 1, "sha')
        else:
            os.unlink(path)
        with pytest.raises(EvaluationError, match="created with 4 shard"):
            ResultCache.on_disk(root, shards=3)
        reopened = ResultCache.on_disk(root)
        assert len(reopened.backend.backends) == 4
        assert reopened.lookup(JOB) == 0.5
        assert read_cache_manifest(root)["shards"] == 4
        assert ResultCache.on_disk(root, shards=4).lookup(JOB) == 0.5

    def test_a_flat_directory_without_its_manifest_stays_flat(self, tmp_path):
        from repro.core.cache import CACHE_MANIFEST_NAME

        root = str(tmp_path)
        ResultCache.on_disk(root).store(JOB, 0.5)
        os.unlink(os.path.join(root, CACHE_MANIFEST_NAME))
        with pytest.raises(EvaluationError, match="created with 1 shard"):
            ResultCache.on_disk(root, shards=2)
        assert ResultCache.on_disk(root).lookup(JOB) == 0.5
