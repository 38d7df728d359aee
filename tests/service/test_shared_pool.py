"""One worker pool per server: every run borrows it, the owner closes it.

``repro serve`` builds one executor at boot, starts its workers before
any thread exists, and hands it to every run's scheduler.  These tests
pin the ownership contract: the registry never closes the shared pool,
so the same worker processes serve run after run; a worker that dies
fails only the run it was executing, and the next run gets a fresh
pool; and ``repro serve`` closes the pool exactly once, after the
registry has shut down.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core import executors
from repro.core.cache import ResultCache
from repro.core.jobs import execute_job
from repro.core.progress import RunCompleted
from repro.core.scheduler import ProcessPoolExecutor, Scheduler
from repro.history import HistoryStore
from repro.service.client import ServiceClient
from repro.service.registry import JobRegistry
from repro.service.server import ServiceServer

from service_helpers import tiny_spec

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a monkeypatched execute_job reaches pool workers only via fork",
)


class CountingPool(ProcessPoolExecutor):
    """A process pool that counts how often it is closed."""

    def __init__(self, max_workers=2):
        super().__init__(max_workers=max_workers)
        self.closes = 0

    def close(self):
        self.closes += 1
        super().close()


def children():
    return {process.pid for process in multiprocessing.active_children()}


def finish(registry, run_id):
    """Follow a run's stream to its end; the stored record."""
    events = list(registry.events(run_id))
    return events, registry.status(run_id)


@pytest.fixture
def shared(tmp_path):
    """A started pool shared by a registry's runs, each run over a
    fresh cache so that every run simulates; closed by the test's
    owner side, as ``repro serve`` does."""
    pool = CountingPool(max_workers=2)
    before = children()
    pool.start()
    workers = children() - before
    store = HistoryStore(str(tmp_path / "runs.db"))
    registry = JobRegistry(
        store, scheduler_factory=lambda: Scheduler(executor=pool, cache=ResultCache()),
    )
    yield pool, workers, registry
    registry.shutdown(timeout=30)
    pool.close()
    store.close()


def test_start_forks_every_worker_before_the_first_run(shared):
    pool, workers, registry = shared
    assert len(workers) == pool.max_workers


def test_one_pool_outlives_many_runs(shared):
    pool, workers, registry = shared
    first_pool = pool._pool
    for seed in range(3):
        spec = tiny_spec(tools=("p4", "express"), seeds=(seed,))
        run_id = registry.submit("alice", spec)["run_id"]
        events, record = finish(registry, run_id)
        assert record["state"] == "completed"
        assert isinstance(events[-1], RunCompleted)
        assert events[-1].simulated == spec.job_count()
        assert {sample["seconds"] for sample in record["result"]["samples"]} == {
            execute_job(job) for job in spec.jobs()
        }
    assert pool._pool is first_pool
    assert workers <= children()
    registry.shutdown(timeout=30)
    assert pool.closes == 0  # the registry borrows the pool; it never closes it


@needs_fork
def test_a_killed_worker_fails_only_its_run(tmp_path, monkeypatch):
    """A job of seed 13 kills the worker executing it.  The run it
    belongs to fails; the runs before and after it complete, the
    latter over a pool built afresh."""
    real = executors.execute_job

    def deadly(job):
        if job.seed == 13:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(job)

    # Patched before the pool forks, so its workers inherit it.
    monkeypatch.setattr(executors, "execute_job", deadly)
    pool = CountingPool(max_workers=2)
    pool.start()
    store = HistoryStore(str(tmp_path / "runs.db"))
    registry = JobRegistry(
        store, scheduler_factory=lambda: Scheduler(executor=pool, cache=ResultCache()),
    )
    try:
        states = []
        for seed in (0, 13, 1):
            run_id = registry.submit("alice", tiny_spec(seeds=(seed,)))["run_id"]
            states.append((finish(registry, run_id)[1], run_id))
        assert [record["state"] for record, _ in states] == [
            "completed", "failed", "completed"]
        assert "BrokenProcessPool" in states[1][0]["error"]
        assert registry.status(states[0][1])["state"] == "completed"
    finally:
        registry.shutdown(timeout=30)
        pool.close()
        store.close()


def test_repro_serve_closes_its_one_pool_once_after_the_last_run(tmp_path, monkeypatch):
    """``repro serve --jobs 2``, in this process: two runs share the
    pool started at boot, and SIGTERM closes it exactly once."""
    from repro.cli import main

    started, closed = [], []
    serving = threading.Event()
    start, close, serve = (ProcessPoolExecutor.start, ProcessPoolExecutor.close,
                           ServiceServer.start)

    def record_start(self):
        start(self)
        started.append((self, self._pool))

    def record_close(self):
        closed.append(self)
        close(self)

    def record_serve(self):
        serve(self)
        serving.port = self.port
        serving.set()

    monkeypatch.setattr(ProcessPoolExecutor, "start", record_start)
    monkeypatch.setattr(ProcessPoolExecutor, "close", record_close)
    monkeypatch.setattr(ServiceServer, "start", record_serve)
    outcome = {}

    def drive():
        if not serving.wait(60):
            return  # the server never came up; main() has returned
        try:
            client = ServiceClient(port=serving.port, timeout=60.0)
            for seed in (0, 1):
                run_id = client.submit(tiny_spec(seeds=(seed,)).to_dict())
                outcome.setdefault("states", []).append(client.wait(run_id)["state"])
            executor, pool = started[0]
            outcome["same_pool"] = executor._pool is pool
            outcome["closed_while_serving"] = list(closed)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    handlers = {signum: signal.getsignal(signum)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    client_thread = threading.Thread(target=drive)
    client_thread.start()
    try:
        code = main(["serve", "--port", "0", "--db", str(tmp_path / "runs.db"),
                     "--jobs", "2"])
    finally:
        client_thread.join(120)
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    assert code == 0
    assert outcome["states"] == ["completed", "completed"]
    assert outcome["same_pool"] is True
    assert outcome["closed_while_serving"] == []
    assert len(started) == 1
    assert closed == [started[0][0]]
