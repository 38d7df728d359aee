"""Fleet behavior end to end: reclaim after death, cancellation,
failure transport, and the exactly-once accounting the counters prove.

"Kill" here means what it means on a real cluster: a worker stops
heartbeating while holding a lease.  Tests stage that by claiming a
ticket under a fake worker id and backdating the claim's mtime past
the lease timeout — indistinguishable, at the queue level, from a
SIGKILLed process (the subprocess version runs in the CI
distributed-smoke job and ``examples/distributed_sweep.py``).
"""

import os
import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.distributed import JobQueue, RemoteExecutor, Worker, WorkerPool
from repro.errors import EvaluationError

_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def tiny_spec(**overrides):
    kwargs = dict(_TINY)
    kwargs.update(overrides)
    return EvaluationSpec(**kwargs)


def backdate(path, seconds):
    past = os.path.getmtime(path) - seconds
    os.utime(path, (past, past))


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestStaleLeaseReclaim:
    def test_killed_worker_jobs_rerun_exactly_the_lost_ones(self, tmp_path):
        """A worker dies mid-job (claim held, heartbeat stopped, no
        result landed): the healthy fleet reclaims and re-runs *that*
        ticket — and nothing else twice.  simulations == job count."""
        queue = JobQueue(str(tmp_path / "queue"), lease_timeout=1.0)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        for index, job in enumerate(jobs):
            queue.enqueue("t-%06d" % index, job)

        doomed = queue.claim("w-dead")
        assert doomed is not None
        backdate(doomed.path, 60.0)  # died: heartbeat never comes

        outcomes_dir = os.path.join(queue.root, "outcomes")
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            assert wait_until(
                lambda: len(os.listdir(outcomes_dir)) == len(jobs)
            ), "fleet never finished the queue (reclaim failed?)"
        # Exactly once each: the lost ticket re-ran on a healthy
        # worker, nothing was duplicated, nothing served stale.
        assert pool.simulated == len(jobs)
        assert pool.cache_hits == 0
        assert pool.processed == len(jobs)
        doomed_outcome = queue.take_outcome(doomed.ticket)
        assert doomed_outcome["worker"] != "w-dead"
        assert doomed_outcome["cache_hit"] is False

    def test_death_after_store_costs_a_lookup_not_a_simulation(self, tmp_path):
        """A worker dies *between* persisting the sample and releasing
        the lease: the reclaimed re-run must be a cache hit — this is
        the at-least-once-but-idempotent half of the design."""
        queue = JobQueue(str(tmp_path / "queue"), lease_timeout=1.0)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        jobs = tiny_spec(tools=("p4",)).jobs()
        for index, job in enumerate(jobs):
            queue.enqueue("t-%06d" % index, job)

        doomed = queue.claim("w-dead")
        from repro.core.jobs import execute_job

        cache.store(doomed.job, execute_job(doomed.job))  # work landed...
        backdate(doomed.path, 60.0)  # ...then the worker died

        outcomes_dir = os.path.join(queue.root, "outcomes")
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            assert wait_until(
                lambda: len(os.listdir(outcomes_dir)) == len(jobs)
            )
        assert pool.simulated == len(jobs) - 1  # the lost one not re-simulated
        assert pool.cache_hits == 1
        reclaimed = queue.take_outcome(doomed.ticket)
        assert reclaimed["cache_hit"] is True

    def test_scheduler_run_survives_a_killed_worker(self, tmp_path):
        """The full stack — Scheduler -> RemoteExecutor -> queue ->
        fleet — completes (correct values, every job simulated once)
        even when one ticket's first claimant dies silently."""
        queue_dir = str(tmp_path / "queue")
        queue = JobQueue(queue_dir, lease_timeout=0.75)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        spec = tiny_spec(tools=("p4", "express"))
        executor = RemoteExecutor(
            queue_dir=queue_dir, max_workers=2,
            poll_interval=0.005, timeout=120.0, lease_timeout=0.75,
        )
        scheduler = Scheduler(executor=executor)
        done = {}

        def drive():
            done["result"] = scheduler.run(spec)

        coordinator = threading.Thread(target=drive)
        coordinator.start()
        try:
            # Let the coordinator publish its admission window, then
            # have a doomed claimant grab the *first* ticket (the one
            # the executor must yield next) and die on it.
            assert wait_until(lambda: len(queue.pending()) >= 1)
            doomed = queue.claim("w-dead")
            assert doomed is not None
            backdate(doomed.path, 60.0)
            with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
                coordinator.join(timeout=120.0)
                assert not coordinator.is_alive(), "run wedged on the dead claim"
        finally:
            coordinator.join(timeout=5.0)
        assert done["result"].values == Scheduler().run(spec).values
        assert scheduler.simulations_run == spec.job_count()
        assert pool.simulated == spec.job_count()  # exactly once each
        assert pool.cache_hits == 0


class TestCancellation:
    def test_abandoning_the_stream_revokes_unclaimed_tickets(self, tmp_path):
        """Lease revocation is the cancellation primitive: closing the
        outcome iterator withdraws every published-but-unclaimed
        ticket, so no worker ever runs work nobody wants."""
        queue_dir = str(tmp_path / "queue")
        queue = JobQueue(queue_dir)
        executor = RemoteExecutor(
            queue_dir=queue_dir, max_workers=2, poll_interval=0.005,
            timeout=120.0,
        )
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        stream = executor.submit(jobs)
        got = {}

        def consume_one():
            got["outcome"] = next(stream)

        consumer = threading.Thread(target=consume_one)
        consumer.start()
        # The window (max_workers * window_factor = 4) publishes, then
        # the coordinator blocks on the first outcome.  Serve exactly
        # that one by hand — no real workers anywhere.
        assert wait_until(lambda: len(queue.pending()) == 4)
        claim = queue.claim("w-manual")
        queue.complete(claim, {"ticket": claim.ticket, "value": 1.25,
                               "wall_seconds": 0.01, "attempts": 1,
                               "cache_hit": False, "error": None})
        consumer.join(timeout=30.0)
        assert not consumer.is_alive()
        assert got["outcome"].value == 1.25

        stream.close()  # cancellation
        assert queue.pending() == []  # every unclaimed ticket revoked
        assert queue.claimed() == []

    def test_claimed_work_finishes_and_persists_through_cancel(self, tmp_path):
        """In-flight jobs complete and land in the shared cache even
        when the coordinator walks away — the cooperative-cancel
        contract, which is also what makes resume-after-cancel warm."""
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache.on_disk(str(tmp_path / "cache"))
        executor = RemoteExecutor(
            queue_dir=queue.root, max_workers=2, poll_interval=0.005,
            timeout=120.0,
        )
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            stream = executor.submit(jobs)
            next(stream)
            stream.close()
            # Whatever was claimed at close time still completes.
            assert wait_until(lambda: not queue.claimed())
        assert 1 <= pool.processed < len(jobs) + 1
        # The consumed ticket's sample is durably in the shared cache.
        from repro.core.cache import MISSING

        assert cache.lookup(jobs[0]) is not MISSING


class TestFailureTransport:
    def test_worker_failure_reraises_original_type(self, tmp_path, monkeypatch):
        import repro.core.executors as executors_module

        def explode(job):
            raise ValueError("boom-123")

        monkeypatch.setattr(executors_module, "execute_job", explode)
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache.on_disk(str(tmp_path / "cache"))
        executor = RemoteExecutor(
            queue_dir=queue.root, max_workers=2, poll_interval=0.005,
            timeout=120.0,
        )
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            with pytest.raises(ValueError, match="boom-123"):
                list(executor.submit(tiny_spec(tools=("p4",)).jobs()[:3]))
            # The worker that hit the failure is still serving.
            assert wait_until(lambda: pool.workers[0].failed + pool.workers[1].failed >= 1)

    def test_unresolvable_error_type_degrades_to_evaluation_error(self, tmp_path):
        from repro.distributed.executor import _rebuild_error

        rebuilt = _rebuild_error({"type": "SomeCustomClusterError",
                                  "message": "node fell over"})
        assert isinstance(rebuilt, EvaluationError)
        assert "SomeCustomClusterError" in str(rebuilt)
        assert "node fell over" in str(rebuilt)

    def test_repro_error_types_resolve(self, tmp_path):
        from repro.distributed.executor import _rebuild_error

        rebuilt = _rebuild_error({"type": "EvaluationError", "message": "bad"})
        assert type(rebuilt) is EvaluationError
        assert isinstance(_rebuild_error({"type": "OSError", "message": "io"}),
                          OSError)


#: 1, 2, 4, 8 ms, then capped at a 10 ms poll_interval.
BACKOFF = [0.001, 0.002, 0.004, 0.008, 0.01, 0.01]


class TestPollBackoff:
    """Idle sleeps on both ends of the queue start at 1 ms after
    activity and double up to ``poll_interval``.  Every wait is
    recorded rather than slept, so these tests never sleep."""

    def test_worker_backs_off_and_resets_after_each_ticket(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        job = tiny_spec(tools=("p4",)).jobs()[0]
        cache.store(job, 1.5)  # served as a cache hit: nothing simulates
        worker = Worker(queue, cache, poll_interval=0.01,
                        heartbeat_interval=3600.0)
        loop = threading.current_thread()
        waits = []

        class RecordingStop(threading.Event):
            def wait(self, timeout=None):
                if threading.current_thread() is not loop:
                    return super().wait(timeout)  # the heartbeat thread
                waits.append(timeout)
                if len(waits) == len(BACKOFF):
                    queue.enqueue("t-000000", job)
                elif len(waits) >= len(BACKOFF) + 3:
                    self.set()
                return self.is_set()

        worker._stop = RecordingStop()
        stats = worker.run()
        assert stats["processed"] == 1 and stats["cache_hits"] == 1
        assert waits == pytest.approx(BACKOFF + BACKOFF[:3])

    def test_coordinator_backs_off_and_resets_per_ticket(self, tmp_path, monkeypatch):
        import repro.distributed.executor as executor_module

        queue = JobQueue(str(tmp_path / "queue"))
        executor = RemoteExecutor(queue_dir=queue.root, max_workers=1,
                                  poll_interval=0.01)
        sleeps = []

        def serve_one():
            claim = queue.claim("w-manual")
            queue.complete(claim, {"ticket": claim.ticket, "value": 1.25,
                                   "wall_seconds": 0.01, "attempts": 1,
                                   "cache_hit": False, "error": None})

        def record(seconds):
            sleeps.append(seconds)
            if len(sleeps) in (len(BACKOFF), len(BACKOFF) + 3):
                serve_one()
            assert len(sleeps) < 50, "the coordinator never saw an outcome"

        monkeypatch.setattr(executor_module.time, "sleep", record)
        outcomes = list(executor.submit(tiny_spec(tools=("p4",)).jobs()[:2]))
        assert [outcome.value for outcome in outcomes] == [1.25, 1.25]
        # Ticket 0 waited out the whole ramp; ticket 1 started over.
        assert sleeps == pytest.approx(BACKOFF + BACKOFF[:3])


class TestWorkerKnobs:
    def test_max_jobs_bounds_the_loop(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        jobs = tiny_spec(tools=("p4",)).jobs()
        for index, job in enumerate(jobs):
            queue.enqueue("t-%06d" % index, job)
        worker = Worker(queue, cache, max_jobs=2, poll_interval=0.005)
        stats = worker.run()
        assert stats["processed"] == 2
        assert len(queue.pending()) == len(jobs) - 2

    def test_idle_exit_drains_then_stops(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        queue.enqueue("t-000000", tiny_spec(tools=("p4",)).jobs()[0])
        worker = Worker(queue, cache, idle_seconds=0.2, poll_interval=0.01)
        stats = worker.run()  # returns by itself once drained + idle
        assert stats["processed"] == 1

    def test_remote_executor_times_out_without_workers(self, tmp_path):
        executor = RemoteExecutor(
            queue_dir=str(tmp_path / "queue"), max_workers=1,
            poll_interval=0.01, timeout=0.2,
        )
        with pytest.raises(EvaluationError, match="repro worker"):
            list(executor.submit(tiny_spec(tools=("p4",)).jobs()[:1]))

    def test_submit_requires_a_queue(self):
        executor = RemoteExecutor(max_workers=2)
        with pytest.raises(EvaluationError, match="queue_dir"):
            executor.submit([])

    def test_create_executor_remote(self, tmp_path):
        from repro.core.executors import create_executor

        executor = create_executor(3, backend="remote",
                                   queue_dir=str(tmp_path / "queue"))
        assert executor.name == "remote"
        assert executor.max_workers == 3
        with pytest.raises(EvaluationError, match="queue"):
            create_executor(2, backend="remote")
        with pytest.raises(EvaluationError, match="remote"):
            create_executor(2, backend="process",
                            queue_dir=str(tmp_path / "queue"))
