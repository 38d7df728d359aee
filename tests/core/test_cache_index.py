"""One index per cache directory per process: reuse, exactness, bounds.

* Every disk backend a process opens over one directory shares what
  the process has read of it, so reopening the directory N times with
  K lines appended between opens parses N*K lines plus the initial
  contents, not the whole log at every open.
* The reuse is exact: after the directory is removed and recreated,
  after another process clears it, and after a segment is rewritten
  in place at equal length, the next backend (and the next
  ``ResultCache.on_disk``) reads afresh, and its run simulates again.
* The registry stays bounded when directories come and go, and a
  forked child opens a backend even if a thread of its parent held a
  registry or index lock at the fork.
"""

import gc
import glob
import multiprocessing
import os
import shutil
import sys
import threading
import tracemalloc

import pytest

import repro.core.cache as cache_module
from repro.core.cache import DiskBackend, ResultCache
from repro.core.jobs import canonical_job
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec

FORK = multiprocessing.get_context("fork")
SPEC = EvaluationSpec(
    platforms=("sun-ethernet",),
    seeds=(0,),
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)
SIMULATIONS = len({canonical_job(job) for job in SPEC.jobs()})


def segments(root):
    return sorted(glob.glob(os.path.join(str(root), "seg-*.jsonl")))


def key_for(index):
    return "%064x" % index


@pytest.fixture
def parses(monkeypatch):
    """Counts ``DiskBackend._parse`` calls in this process."""
    calls = [0]
    real = DiskBackend._parse

    def counting(line):
        calls[0] += 1
        return real(line)

    monkeypatch.setattr(DiskBackend, "_parse", staticmethod(counting))
    return calls


@pytest.fixture
def registry(monkeypatch):
    """A registry of this test's own, empty at the start."""
    fresh = cache_module._Indexes()
    monkeypatch.setattr(cache_module, "_INDEXES", fresh)
    return fresh


def _append_server(root, conn):
    """Child body: append the requested keys through one backend."""
    backend = DiskBackend(root)
    while True:
        keys = conn.recv()
        if keys is None:
            return
        for index in keys:
            backend.put(key_for(index), float(index))
        conn.send(None)


class TestReopenReadsOnlyAppendedLines:
    def test_reopening_reads_only_appended_lines(self, tmp_path, parses):
        """The structural guard: N reopens with K lines appended by
        another process between them parse N*K lines plus the initial
        ones.  Re-reading the whole log at each open parses
        quadratically many (N*M + K*N*(N+1)/2)."""
        root, initial, rounds, per_round = str(tmp_path), 40, 12, 5
        parent_end, child_end = FORK.Pipe()
        child = FORK.Process(target=_append_server, args=(root, child_end))
        child.start()
        try:
            parent_end.send(range(initial))
            parent_end.recv()
            written = initial
            for _ in range(rounds):
                parent_end.send(range(written, written + per_round))
                parent_end.recv()
                written += per_round
                backend = DiskBackend(root)
                assert backend.get_many([key_for(i) for i in range(written)]) == {
                    key_for(i): float(i) for i in range(written)}
            parent_end.send(None)
            child.join(60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert parses[0] == initial + rounds * per_round

    def test_a_scheduler_per_pass_rereads_nothing_it_wrote(self, tmp_path, parses):
        """A fresh scheduler over a cache this process filled serves
        the whole spec from the shared index: no line is parsed again
        and nothing is simulated."""
        root = str(tmp_path / "cache")
        first = Scheduler(cache_dir=root, shards=2)
        first.run(SPEC)
        assert first.simulations_run == SIMULATIONS
        before = parses[0]
        again = Scheduler(cache_dir=root)
        again.run(SPEC)
        assert again.simulations_run == 0
        assert parses[0] == before


def _clear_in_child(root):
    ResultCache.on_disk(root).clear()


def _remove_and_recreate(root):
    shutil.rmtree(root)
    os.makedirs(root)


def _clear_from_another_process(root):
    child = FORK.Process(target=_clear_in_child, args=(root,))
    child.start()
    child.join(60)
    assert child.exitcode == 0


def _rewrite_in_place(root):
    """Every line now carries another schema, at the same length."""
    for path in segments(root):
        with open(path, "rb") as handle:
            data = handle.read()
        damaged = data.replace(b'"schema": 1', b'"schema": 0')
        assert damaged != data and len(damaged) == len(data)
        with open(path, "r+b") as handle:
            handle.write(damaged)


CHANGES = {
    "removed-and-recreated": _remove_and_recreate,
    "cleared-by-another-process": _clear_from_another_process,
    "segment-rewritten-at-equal-length": _rewrite_in_place,
}


class TestExactReuse:
    @pytest.mark.parametrize("change", sorted(CHANGES))
    @pytest.mark.parametrize("open_with", ["scheduler", "disk-backend"])
    def test_a_changed_directory_is_read_afresh(self, tmp_path, change, open_with):
        """The next open after the directory changed under the index
        serves what a fresh read gives: every sample is a miss, and a
        run simulates them all again."""
        root = str(tmp_path / "cache")
        first = Scheduler(cache_dir=root)
        first.run(SPEC)
        assert first.simulations_run == SIMULATIONS
        keys = [first.cache.key(job) for job in SPEC.jobs()]
        assert set(first.cache.backend.get_many(keys)) == set(keys)
        CHANGES[change](root)
        if open_with == "disk-backend":
            assert DiskBackend(root).get_many(keys) == {}
        again = Scheduler(cache=ResultCache.on_disk(root))
        again.run(SPEC)
        assert again.simulations_run == SIMULATIONS


def _put_and_reopen(root, number, errors):
    try:
        for index in range(40):
            if index % 10 == 0:
                backend = DiskBackend(root)  # drops the last one's writer
            key = key_for(number * 1000 + index)
            backend.put(key, float(index))
            assert backend.get_many([key]) == {key: float(index)}
    except Exception as error:  # reported by the test
        errors.append(error)


class TestThreadedSharing:
    def test_threads_sharing_one_index_lose_no_update(self, tmp_path):
        """Six threads (more than the cores) reopen backends over one
        directory and append through them under a shortened switch
        interval, taking over each other's freed segments.  A lost or
        doubled offset update would leave a digest that no longer
        matches the disk: the next open would then start a new index."""
        root = str(tmp_path)
        shared = DiskBackend(root)._index
        errors = []
        threads = [threading.Thread(target=_put_and_reopen, args=(root, number, errors))
                   for number in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        again = DiskBackend(root)
        assert again._index is shared
        on_disk = {key: entry["seconds"] for key, entry in again._scan().items()}
        assert len(on_disk) == 6 * 40
        assert shared.get_many(list(on_disk)) == on_disk


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestBoundedRegistry:
    def test_deleted_directories_leave_no_index_or_descriptor(self, tmp_path, registry):
        """50 directories opened, filled and deleted in turn: at most
        the last one's index stays registered, every descriptor is
        closed, and what stays allocated is small and fixed."""

        def cycle(number):
            root = str(tmp_path / ("cache-%02d" % number))
            cache = ResultCache.on_disk(root)
            for index in range(20):
                cache.backend.put(key_for(number * 100 + index), float(index))
            assert cache.backend.get_many([key_for(number * 100)]) == {key_for(number * 100): 0.0}
            del cache
            shutil.rmtree(root)

        cycle(0)  # warm-up: first-use allocations are not retention
        gc.collect()
        fds = open_fds()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for number in range(1, 50):
                cycle(number)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(registry._by_path) <= 1
        assert open_fds() == fds
        assert retained < 64 * 1024, retained


def _open_and_write(root):
    backend = DiskBackend(root)
    backend.put(key_for(1), 1.0)
    assert DiskBackend(root).get_many([key_for(1)]) == {key_for(1): 1.0}


def _hold(lock, held, release):
    with lock:
        held.set()
        release.wait(60)


class TestForkSafety:
    @pytest.mark.parametrize("which", ["registry", "index"])
    def test_a_child_forked_while_a_lock_is_held_opens_a_backend(self, tmp_path, which):
        """A thread holds the registry's lock (or the directory index's)
        at the fork: the child still opens a backend over the same
        directory and writes through it."""
        root = str(tmp_path)
        DiskBackend(root).put(key_for(0), 0.0)
        if which == "registry":
            lock = cache_module._INDEXES._lock
        else:
            lock = DiskBackend(root)._index._tail_lock
        held, release = threading.Event(), threading.Event()
        holder = threading.Thread(target=_hold, args=(lock, held, release))
        holder.start()
        try:
            assert held.wait(60)
            child = FORK.Process(target=_open_and_write, args=(root,))
            child.start()
            child.join(60)
            if child.is_alive():
                child.kill()
                child.join()
            assert child.exitcode == 0
        finally:
            release.set()
            holder.join()
        assert DiskBackend(root).get_many([key_for(1)]) == {key_for(1): 1.0}
