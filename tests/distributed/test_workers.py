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


def enqueue_chunks(queue, jobs, size=4):
    """Publish ``jobs`` as tickets of ``size`` jobs, as the coordinator
    does; returns the tickets in order."""
    tickets = []
    for start in range(0, len(jobs), size):
        tickets.append("t-%06d" % len(tickets))
        queue.enqueue(tickets[-1], jobs[start:start + size])
    return tickets


def serve_by_hand(queue, value=1.25):
    """Claim the oldest ticket and complete every job in it with
    ``value`` — a worker with no simulator behind it."""
    claim = queue.claim("w-manual")
    records = [{"value": value, "wall_seconds": 0.01, "attempts": 1,
                "cache_hit": False, "error": None} for _ in claim.jobs]
    queue.complete(claim, {"ticket": claim.ticket, "worker": "w-manual",
                           "wall_seconds": 0.01 * len(records),
                           "outcomes": records, "error": None})
    return claim


class Died(BaseException):
    """Stands in for SIGKILL: not an Exception, so nothing in the
    worker catches it and nothing after it runs."""


class DyingCache(object):
    """The worker's cache view until the process 'dies' on the store
    after ``stores`` successful ones."""

    def __init__(self, cache, stores):
        self.cache = cache
        self.stores = stores

    def lookup(self, job):
        return self.cache.lookup(job)

    def store(self, job, value):
        if self.stores == 0:
            raise Died()
        self.stores -= 1
        self.cache.store(job, value)


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestStaleLeaseReclaim:
    def test_killed_worker_jobs_rerun_exactly_the_lost_ones(self, tmp_path):
        """A worker dies on a chunk before any of its jobs finished
        (claim held, heartbeat stopped, no result landed): the healthy
        fleet reclaims and re-runs *that* ticket — and nothing else
        twice.  simulations == job count."""
        queue = JobQueue(str(tmp_path / "queue"), lease_timeout=1.0)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        tickets = enqueue_chunks(queue, jobs)

        doomed = queue.claim("w-dead")
        assert doomed is not None and len(doomed.jobs) == 4
        backdate(doomed.path, 60.0)  # died: heartbeat never comes

        outcomes_dir = os.path.join(queue.root, "outcomes")
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            assert wait_until(
                lambda: len(os.listdir(outcomes_dir)) == len(tickets)
            ), "fleet never finished the queue (reclaim failed?)"
        # Exactly once each: the lost ticket re-ran on a healthy
        # worker, nothing was duplicated, nothing served stale.
        assert pool.simulated == len(jobs)
        assert pool.cache_hits == 0
        assert pool.processed == len(jobs)
        doomed_outcome = queue.take_outcome(doomed.ticket)
        assert doomed_outcome["worker"] != "w-dead"
        assert [record["cache_hit"] for record in doomed_outcome["outcomes"]] == [
            False] * len(doomed.jobs)

    def test_worker_killed_mid_chunk_reruns_only_its_unfinished_jobs(self, tmp_path):
        """A real worker stores two jobs of its chunk, simulates the
        third and dies storing it: the reclaimed re-run serves the two
        stored jobs as cache hits and simulates exactly the other two."""
        queue = JobQueue(str(tmp_path / "queue"), lease_timeout=1.0)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        tickets = enqueue_chunks(queue, jobs)

        doomed = Worker(queue, DyingCache(cache, stores=2), worker_id="w-dead")
        with pytest.raises(Died):
            doomed.run_one()
        assert doomed.simulated == 3  # the third simulated, never stored
        backdate(os.path.join(queue.root, "claims", tickets[0] + ".json"), 60.0)

        outcomes_dir = os.path.join(queue.root, "outcomes")
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            assert wait_until(
                lambda: len(os.listdir(outcomes_dir)) == len(tickets)
            ), "fleet never finished the queue (reclaim failed?)"
        assert pool.cache_hits == 2
        assert pool.simulated == len(jobs) - 2
        rerun = queue.take_outcome(tickets[0])
        assert rerun["worker"] != "w-dead"
        assert [record["cache_hit"] for record in rerun["outcomes"]] == [
            True, True, False, False]

    def test_death_after_store_costs_a_lookup_not_a_simulation(self, tmp_path):
        """A worker dies *between* persisting its chunk's samples and
        releasing the lease: the reclaimed re-run must be all cache
        hits — this is the at-least-once-but-idempotent half of the
        design."""
        queue = JobQueue(str(tmp_path / "queue"), lease_timeout=1.0)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        tickets = enqueue_chunks(queue, jobs)

        doomed = queue.claim("w-dead")
        from repro.core.jobs import execute_job

        for job in doomed.jobs:
            cache.store(job, execute_job(job))  # work landed...
        backdate(doomed.path, 60.0)  # ...then the worker died

        outcomes_dir = os.path.join(queue.root, "outcomes")
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005) as pool:
            assert wait_until(
                lambda: len(os.listdir(outcomes_dir)) == len(tickets)
            )
        # The lost chunk is not re-simulated.
        assert pool.simulated == len(jobs) - len(doomed.jobs)
        assert pool.cache_hits == len(doomed.jobs)
        reclaimed = queue.take_outcome(doomed.ticket)
        assert all(record["cache_hit"] for record in reclaimed["outcomes"])

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
        jobs = tiny_spec(tools=("p4", "express"),
                         platforms=("sun-ethernet", "sun-atm-lan"),
                         seeds=(0, 1)).jobs()  # 40 jobs, 10 chunks
        window = executor.max_workers * executor.window_factor
        assert len(jobs) > window * executor.chunk_jobs
        stream = executor.submit(jobs)
        got = {}

        def consume_one():
            got["outcome"] = next(stream)

        consumer = threading.Thread(target=consume_one)
        consumer.start()
        # The window (max_workers * window_factor chunks) publishes,
        # then the coordinator blocks on the first outcome.  Serve
        # exactly that ticket by hand — no real workers anywhere.
        assert wait_until(lambda: len(queue.pending()) == window)
        served = serve_by_hand(queue)
        assert len(served.jobs) == executor.chunk_jobs
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

    def test_unreadable_ticket_fails_the_run_naming_it(self, tmp_path, monkeypatch):
        """A ticket the fleet cannot read (here: the one-job format of
        an older coordinator) comes back as an error outcome, so the
        coordinator raises instead of polling forever."""
        from repro.distributed import queue as queue_module

        def enqueue_foreign(self, ticket, jobs, retries=1):
            queue_module._write_json_atomic(
                self._path("jobs", ticket),
                {"ticket": ticket, "job": jobs[0].to_dict(), "retries": retries},
            )

        monkeypatch.setattr(JobQueue, "enqueue", enqueue_foreign)
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        executor = RemoteExecutor(
            queue_dir=queue.root, max_workers=1, poll_interval=0.005,
            timeout=120.0,
        )
        start = time.monotonic()
        with WorkerPool(queue, cache, workers=1, poll_interval=0.005) as pool:
            with pytest.raises(EvaluationError, match=r"ticket \S+-000000 .*unreadable"):
                list(executor.submit(tiny_spec(tools=("p4",)).jobs()[:2]))
        assert time.monotonic() - start < 30.0
        assert pool.simulated == 0

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
    activity and double up to ``poll_interval``: they are the timeouts
    of the doorbell waits.  Every wait is recorded rather than slept,
    so these tests never sleep."""

    def test_worker_backs_off_and_resets_after_each_ticket(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        job = tiny_spec(tools=("p4",)).jobs()[0]
        cache.store(job, 1.5)  # served as a cache hit: nothing simulates
        worker = Worker(queue, cache, poll_interval=0.01,
                        heartbeat_interval=3600.0)
        waits = []

        def record(timeout, wake_fd=None):
            waits.append(timeout)
            if len(waits) == len(BACKOFF):
                queue.enqueue("t-000000", [job])
            elif len(waits) >= len(BACKOFF) + 3:
                worker.stop()

        queue.wait_for_jobs = record
        stats = worker.run()
        assert stats["processed"] == 1 and stats["cache_hits"] == 1
        assert waits == pytest.approx(BACKOFF + BACKOFF[:3])

    def test_coordinator_backs_off_and_resets_per_ticket(self, tmp_path, monkeypatch):
        queue = JobQueue(str(tmp_path / "queue"))
        executor = RemoteExecutor(queue_dir=queue.root, max_workers=1,
                                  poll_interval=0.01)
        sleeps = []

        def record(seconds):
            sleeps.append(seconds)
            if len(sleeps) in (len(BACKOFF), len(BACKOFF) + 3):
                serve_by_hand(queue)
            assert len(sleeps) < 50, "the coordinator never saw an outcome"

        monkeypatch.setattr(executor.queue, "wait_for_outcomes", record)
        # One full chunk and a one-job chunk: two tickets.
        jobs = tiny_spec(tools=("p4",)).jobs()[: executor.chunk_jobs + 1]
        outcomes = list(executor.submit(jobs))
        assert [outcome.value for outcome in outcomes] == [1.25] * len(jobs)
        # Ticket 0 waited out the whole ramp; ticket 1 started over.
        assert sleeps == pytest.approx(BACKOFF + BACKOFF[:3])


def idle_gate(queue, method="claim"):
    """Wrap ``queue.<method>`` (``claim`` or ``take_outcome``) to set
    the returned event once a look finds nothing: the looker is then
    idle, in or on its way into its wait."""
    gate = threading.Event()
    look = getattr(queue, method)

    def look_then_open(*args):
        found = look(*args)
        if found is None:
            gate.set()
        return found

    setattr(queue, method, look_then_open)
    return gate


@pytest.fixture
def hour_long_waits(monkeypatch):
    """Every idle wait on both ends of the queue lasts its whole
    ``poll_interval`` from the first: with a 3600 s cap, only a ring
    (or a stop) can end one within a test."""
    import repro.distributed.executor as executor_module
    import repro.distributed.worker as worker_module

    monkeypatch.setattr(worker_module, "MIN_POLL_SECONDS", 3600.0)
    monkeypatch.setattr(executor_module, "MIN_POLL_SECONDS", 3600.0)


def start_thread(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


@pytest.mark.usefixtures("hour_long_waits")
class TestDoorbell:
    """Rings end idle waits.  Each case gates on the sleeper's first
    empty look, then publishes: without a bell the sleeper would wait
    out its 3600 s, so these fail by timing out rather than hang."""

    def test_an_idle_worker_claims_a_ticket_enqueued_while_it_idles(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        job = tiny_spec(tools=("p4",)).jobs()[0]
        cache.store(job, 1.5)
        worker = Worker(queue, cache, poll_interval=3600.0)
        gate = idle_gate(queue)
        thread = start_thread(worker.run)
        try:
            assert gate.wait(30.0)
            queue.enqueue("t-000000", [job])
            assert wait_until(lambda: worker.processed == 1, timeout=10.0)
        finally:
            worker.stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_a_waiting_coordinator_collects_an_outcome(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        executor = RemoteExecutor(queue_dir=queue_dir, max_workers=1,
                                  poll_interval=3600.0)
        gate = idle_gate(executor.queue, "take_outcome")
        got = []
        job = tiny_spec(tools=("p4",)).jobs()[0]
        thread = start_thread(lambda: got.extend(executor.submit([job])))
        assert gate.wait(30.0)
        serve_by_hand(JobQueue(queue_dir))
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "the coordinator slept through the ring"
        assert [outcome.value for outcome in got] == [1.25]
        executor.close()

    def test_a_ring_from_a_forked_child_wakes_the_parent(self, tmp_path):
        """The fleet's case: the ring crosses processes.  The child is
        forked before any thread starts and serves the ticket by hand
        once the parent's coordinator sleeps."""
        queue_dir = str(tmp_path / "queue")
        go_r, go_w = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                os.close(go_w)
                if os.read(go_r, 1):
                    serve_by_hand(JobQueue(queue_dir))
                    code = 0
            finally:
                os._exit(code)
        os.close(go_r)
        try:
            executor = RemoteExecutor(queue_dir=queue_dir, max_workers=1,
                                      poll_interval=3600.0)
            gate = idle_gate(executor.queue, "take_outcome")
            got = []
            job = tiny_spec(tools=("p4",)).jobs()[0]
            thread = start_thread(lambda: got.extend(executor.submit([job])))
            assert gate.wait(30.0)
            os.write(go_w, b"g")
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "the coordinator slept through the ring"
            assert [outcome.value for outcome in got] == [1.25]
            executor.close()
        finally:
            os.close(go_w)
            _, status = os.waitpid(child, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def test_stop_ends_an_idle_wait_at_once(self, tmp_path):
        worker = Worker(JobQueue(str(tmp_path / "queue")), ResultCache(),
                        poll_interval=3600.0)
        gate = idle_gate(worker.queue)
        thread = start_thread(worker.run)
        assert gate.wait(30.0)
        worker.stop()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_stop_from_a_signal_handler_ends_an_idle_wait(self, tmp_path):
        """``repro worker`` stops from its SIGTERM handler, which runs
        on the thread sleeping in poll: the interrupted poll restarts
        (PEP 475) unless the handler leaves something to read."""
        import signal

        queue = JobQueue(str(tmp_path / "queue"))
        worker = Worker(queue, ResultCache(), poll_interval=3600.0)
        gate = idle_gate(queue)
        finished = threading.Event()

        def signal_then_watch():
            assert gate.wait(30.0)
            os.kill(os.getpid(), signal.SIGUSR1)
            if not finished.wait(10.0):
                # Fail rather than hang: a ring ends the wait too.
                queue.enqueue("t-000000", tiny_spec(tools=("p4",)).jobs()[:1])

        previous = signal.signal(signal.SIGUSR1, lambda *_: worker.stop())
        try:
            helper = start_thread(signal_then_watch)
            start = time.monotonic()
            worker.run()  # on the main thread, where handlers run
            elapsed = time.monotonic() - start
        finally:
            finished.set()
            signal.signal(signal.SIGUSR1, previous)
        helper.join(timeout=30.0)
        assert elapsed < 5.0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="Linux only")
def test_remote_passes_leave_no_descriptor_open(tmp_path):
    """Fifty coordinator passes over a live in-process fleet, each with
    its own executor closed by its scheduler: the descriptor count is
    back to its start after the passes, and to its count before the
    fleet once the fleet stops."""
    queue_dir = str(tmp_path / "queue")
    queue = JobQueue(queue_dir)
    cache = ResultCache()
    jobs = tiny_spec(tools=("p4",)).jobs()[:5]  # two tickets a pass
    for job in jobs:
        cache.store(job, 1.0)  # the fleet serves hits: nothing simulates

    def one_pass():
        executor = RemoteExecutor(queue_dir=queue_dir, max_workers=2,
                                  poll_interval=0.005, timeout=60.0)
        with Scheduler(executor=executor) as scheduler:
            assert scheduler.run_jobs(jobs) == dict.fromkeys(jobs, 1.0)

    def descriptors():
        return len(os.listdir("/proc/self/fd"))

    before_fleet = descriptors()
    with WorkerPool(queue, cache, workers=2, poll_interval=0.005):
        one_pass()  # the fleet's own bells are open from here on
        start = descriptors()
        for _ in range(50):
            one_pass()
        assert descriptors() == start
    assert descriptors() == before_fleet


class TestWorkerKnobs:
    def test_max_jobs_counts_jobs_and_stops_after_the_ticket_reaching_it(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        jobs = tiny_spec(tools=("p4", "express")).jobs()
        tickets = enqueue_chunks(queue, jobs, size=3)
        # The first ticket brings the count to 3, the second to 6.
        worker = Worker(queue, cache, max_jobs=4, poll_interval=0.005)
        stats = worker.run()
        assert stats["processed"] == 6
        assert queue.pending() == tickets[2:]

    def test_idle_exit_drains_then_stops(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        queue.enqueue("t-000000", tiny_spec(tools=("p4",)).jobs()[:1])
        worker = Worker(queue, cache, idle_seconds=0.2, poll_interval=0.01)
        stats = worker.run()  # returns by itself once drained + idle
        assert stats["processed"] == 1

    def test_on_job_fires_once_per_job_after_publication(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        jobs = tiny_spec(tools=("p4",)).jobs()[:3]
        cache.store(jobs[1], 2.5)
        queue.enqueue("t-000000", jobs)
        seen = []

        def on_job(claim, index, record):
            assert os.path.exists(os.path.join(queue.root, "outcomes",
                                               claim.ticket + ".json"))
            seen.append((claim.ticket, index, record["cache_hit"]))

        assert Worker(queue, cache, on_job=on_job).run_one()
        assert seen == [("t-000000", 0, False), ("t-000000", 1, True),
                        ("t-000000", 2, False)]

    def test_repro_worker_prints_one_line_per_job(self, tmp_path, monkeypatch, capsys):
        import re
        import signal

        from repro.cli import main

        monkeypatch.setattr(signal, "signal", lambda *args: None)  # keep pytest's
        queue = JobQueue(str(tmp_path / "queue"))
        queue.enqueue("t-000000", tiny_spec(tools=("p4",)).jobs()[:3])
        assert main(["worker", "--queue", queue.root,
                     "--cache-dir", str(tmp_path / "cache"),
                     "--idle-exit", "0.05", "--poll", "0.01"]) == 0
        lines = re.findall(r"ticket=(\S+) (\S+)", capsys.readouterr().out)
        assert lines == [("t-000000/%d" % index, "simulated") for index in range(3)]

    def test_a_failing_job_ends_its_chunk(self, tmp_path, monkeypatch):
        import repro.core.executors as executors_module

        jobs = tiny_spec(tools=("p4",)).jobs()[:4]

        def fail_third(job):
            if job == jobs[2]:
                raise ValueError("third")
            return 1.0

        monkeypatch.setattr(executors_module, "execute_job", fail_third)
        queue = JobQueue(str(tmp_path / "queue"))
        cache = ResultCache()
        queue.enqueue("t-000000", jobs)
        worker = Worker(queue, cache)
        assert worker.run_one()
        outcome = queue.take_outcome("t-000000")
        assert [record["error"] for record in outcome["outcomes"]] == [
            None, None, {"type": "ValueError", "message": "third"}]
        assert worker.stats() == {"processed": 3, "simulated": 2,
                                  "cache_hits": 0, "failed": 1}
        assert cache.lookup(jobs[1]) == 1.0  # stored before the failure

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
