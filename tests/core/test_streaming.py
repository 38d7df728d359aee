"""Streaming execution: RunHandle events, progress, cancel, resume.

The contract under test: ``Scheduler.start(spec)`` narrates the run
as typed events while it executes in the background, ``cancel()`` is
cooperative (in-flight work finishes and persists, queued work is
dropped), and a cancelled or interrupted run resumed over the same
cache simulates only the jobs it never finished — exactly like a
killed sweep.
"""

import threading

import pytest

from repro.core.cache import DiskBackend, ResultCache
from repro.core.executors import (
    Executor,
    JobOutcome,
    ProcessPoolExecutor,
    execute_job_instrumented,
)
from repro.core.progress import (
    CacheHit,
    JobFinished,
    JobStarted,
    Progress,
    RunCompleted,
)
from repro.core.scheduler import RunHandle, Scheduler
from repro.core.spec import EvaluationSpec
from repro.errors import EvaluationError, RunCancelled

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


class GateExecutor(Executor):
    """Submits nothing until released — deterministic in-flight state
    for timeout/cancel tests (the shape a remote backend would have)."""

    name = "gate"

    def __init__(self):
        self.release = threading.Event()

    def submit(self, jobs, retries=1):
        for job in jobs:
            self.release.wait()
            yield JobOutcome(1.0, 0.001, 1)


class BatchExecutor(Executor):
    """Pulls every job before it yields any outcome: the furthest any
    backend's window can run ahead of the jobs it has finished."""

    name = "batch"

    def submit(self, jobs, retries=1):
        for job in list(jobs):
            yield execute_job_instrumented(job, retries)


def narration(executor):
    """The stream of a warm-then-mixed run on ``executor``, wall times
    left out: a cold p4 pass fills the cache, then a two-tool,
    two-seed pass mixes cache hits, seed-collapsed hits and
    simulations."""
    cache = ResultCache()
    Scheduler(cache=cache).run(tiny_spec(tools=("p4",)))
    with Scheduler(executor=executor, cache=cache) as scheduler:
        handle = scheduler.start(tiny_spec(tools=("p4", "express"), seeds=(0, 1)))
        events = list(handle.events())
    *jobs, end = events
    return [
        (type(event).__name__, event.job, getattr(event, "index", None),
         getattr(event, "value", None))
        for event in jobs
    ] + [(end.total, end.simulated, end.cache_hits, end.cancelled)]


class TestEventStream:
    def test_cold_run_events_in_order(self):
        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler()
        handle = scheduler.start(spec)
        events = list(handle.events())
        result = handle.result()

        jobs = spec.jobs()
        started = [event for event in events if isinstance(event, JobStarted)]
        finished = [event for event in events if isinstance(event, JobFinished)]
        assert [event.job for event in started] == jobs
        assert [event.index for event in started] == list(range(len(jobs)))
        assert [event.job for event in finished] == jobs
        assert all(event.wall_seconds > 0.0 for event in finished)
        assert {event.job: event.value for event in finished} == result.values

        completed = events[-1]
        assert isinstance(completed, RunCompleted)
        assert completed.total == completed.simulated == len(jobs)
        assert completed.cache_hits == 0
        assert not completed.cancelled
        assert completed.wall_seconds > 0.0

    def test_warm_run_is_all_cache_hits(self):
        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler()
        scheduler.run(spec)
        handle = scheduler.start(spec)
        events = list(handle.events())
        hits = [event for event in events if isinstance(event, CacheHit)]
        assert [event.job for event in hits] == spec.jobs()
        assert not any(isinstance(event, JobStarted) for event in events)
        assert events[-1].cache_hits == spec.job_count()
        assert events[-1].simulated == 0
        handle.result()

    def test_multiple_event_iterators_see_the_full_stream(self):
        spec = tiny_spec(tools=("p4",))
        handle = Scheduler().start(spec)
        first = list(handle.events())
        second = list(handle.events())  # late subscriber replays all
        assert first == second
        handle.result()

    def test_two_concurrent_consumers_slow_and_fast(self):
        """Two live consumers — one dawdling, one draining as fast as
        it can — each see the identical, complete stream.  The
        service's SSE layer runs one such consumer per connected
        client, so multi-consumer replay under concurrency is part of
        its contract, not an accident."""
        import time

        spec = tiny_spec(tools=("p4", "express"))
        executor = GateExecutor()
        scheduler = Scheduler(executor=executor)
        handle = scheduler.start(spec)
        streams = {}

        def consume(name, delay):
            seen = []
            for event in handle.events():
                seen.append(event)
                if delay:
                    time.sleep(delay)
            streams[name] = seen

        slow = threading.Thread(target=consume, args=("slow", 0.005))
        fast = threading.Thread(target=consume, args=("fast", 0.0))
        slow.start()
        fast.start()
        executor.release.set()  # events start flowing mid-subscription
        slow.join(30)
        fast.join(30)
        assert not slow.is_alive() and not fast.is_alive()

        assert streams["slow"] == streams["fast"]
        events = streams["fast"]
        assert isinstance(events[-1], RunCompleted)
        finished = [event for event in events if isinstance(event, JobFinished)]
        assert [event.job for event in finished] == spec.jobs()
        # A third, post-hoc subscriber still replays the whole run.
        assert list(handle.events()) == events
        handle.result()

    def test_unbuffered_runs_keep_no_event_log(self):
        """Blocking run()/run_jobs skip the replay buffer (no consumer
        can exist), so huge grids stay at O(1) event memory; the
        counters, callback and result are unaffected."""
        spec = tiny_spec(tools=("p4",))
        seen = []
        handle = Scheduler().start(spec, on_event=seen.append, buffer_events=False)
        with pytest.raises(EvaluationError, match="does not buffer"):
            next(handle.events())
        result = handle.result()
        assert handle._events == []
        assert len(seen) == 2 * spec.job_count() + 1
        assert handle.progress().simulated == spec.job_count()
        assert result.values

    def test_unobserved_runs_build_no_events(self, monkeypatch):
        """A run nobody observes (no replay buffer, no ``on_event``:
        blocking run()/run_jobs) builds no event objects and notifies
        no waiter per job, cold or warm; its counters and its
        first-occurrence order are those of a narrated run."""
        import repro.core.scheduler as scheduler_module

        def no_event(*args, **kwargs):
            raise AssertionError("an unobserved run built an event")

        for name in ("JobStarted", "JobFinished", "CacheHit", "RunCompleted"):
            monkeypatch.setattr(scheduler_module, name, no_event)
        notified = []

        class CountingCondition(threading.Condition):
            def notify_all(self):
                notified.append(self)
                super().notify_all()

        monkeypatch.setattr(scheduler_module.threading, "Condition", CountingCondition)
        spec = tiny_spec(tools=("p4", "express"))
        scheduler = Scheduler()
        for simulated, hits in ((spec.job_count(), 0), (0, spec.job_count())):
            handle = scheduler.start(spec, buffer_events=False)
            result = handle.result()
            progress = handle.progress()
            assert (progress.simulated, progress.cache_hits) == (simulated, hits)
            assert progress.dispatched == simulated
            assert list(handle.values()) == spec.jobs()
            assert result.values == handle.values()
            assert sum(cond is handle._cond for cond in notified) <= 2
            assert not (handle._unreleased or handle._held or handle._ended)

    def test_on_event_callback_fires_for_every_event(self):
        spec = tiny_spec(tools=("p4",))
        seen = []
        result = Scheduler().run(spec, on_event=seen.append)
        assert len(seen) == 2 * spec.job_count() + 1
        assert isinstance(seen[-1], RunCompleted)
        assert result.values


class TestProgress:
    def test_final_snapshot(self):
        spec = tiny_spec(tools=("p4",))
        handle = Scheduler().start(spec)
        handle.result()
        snapshot = handle.progress()
        assert isinstance(snapshot, Progress)
        assert snapshot.finished and not snapshot.cancelled
        assert snapshot.total == snapshot.completed == spec.job_count()
        assert snapshot.simulated == spec.job_count()
        assert snapshot.remaining == 0
        assert snapshot.hit_rate == 0.0
        assert snapshot.eta_seconds == 0.0
        assert "done" in snapshot.render()

    def test_mid_run_snapshot_has_eta(self):
        executor = GateExecutor()
        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler(executor=executor)
        handle = scheduler.start(spec)
        events = handle.events()
        executor.release.set()
        next(event for event in events if isinstance(event, JobFinished))
        snapshot = handle.progress()
        assert snapshot.total == spec.job_count()
        assert snapshot.completed >= 1
        if not snapshot.finished:
            assert snapshot.eta_seconds is not None
        handle.result()

    def test_unknown_total_renders(self):
        progress = Progress(
            total=None, dispatched=2, completed=1, simulated=1, cache_hits=0,
            elapsed_seconds=0.5, cancelled=False, finished=False,
        )
        assert progress.remaining is None
        assert progress.eta_seconds is None
        assert "1/? jobs" in progress.render()

    def test_hit_rate(self):
        progress = Progress(
            total=10, dispatched=2, completed=4, simulated=1, cache_hits=3,
            elapsed_seconds=1.0, cancelled=False, finished=False,
        )
        assert progress.hit_rate == 0.75
        assert progress.remaining == 6
        # The rate is per *simulated* job: 1 sim in 1.0s -> 6 ahead.
        assert progress.eta_seconds == pytest.approx(6.0)

    def test_eta_ignores_fast_cache_hits(self):
        """A resumed sweep serving hits first must not extrapolate the
        hit-serving rate onto the simulations still ahead."""
        resumed = Progress(
            total=200, dispatched=0, completed=100, simulated=0, cache_hits=100,
            elapsed_seconds=0.1, cancelled=False, finished=False,
        )
        pure_hit_eta = resumed.eta_seconds  # all hits so far: best guess
        assert pure_hit_eta == pytest.approx(0.1)
        simulating = Progress(
            total=200, dispatched=1, completed=101, simulated=1, cache_hits=100,
            elapsed_seconds=1.1, cancelled=False, finished=False,
        )
        # One 1s simulation done, 99 to go: the ETA must be ~99s, not
        # the ~1s a completed-based rate would claim.
        assert simulating.eta_seconds == pytest.approx(1.1 * 99)


class TestWrapperEquivalence:
    def test_run_matches_start_result(self):
        spec = tiny_spec(tools=("p4", "express"))
        via_run = Scheduler().run(spec)
        handle = Scheduler().start(spec)
        via_handle = handle.result()
        assert via_handle.values == via_run.values
        assert via_handle.report().scores() == via_run.report().scores()

    def test_run_jobs_returns_plain_dict(self):
        spec = tiny_spec(tools=("p4",))
        jobs = spec.jobs()[:3]
        values = Scheduler().run_jobs(jobs)
        assert list(values) == jobs  # first-occurrence order kept
        handle_values = Scheduler().start_jobs(jobs).result()
        assert handle_values == values

    def test_start_jobs_sizes_total_when_it_can(self):
        spec = tiny_spec(tools=("p4",))
        jobs = spec.jobs()[:3]
        sized = Scheduler().start_jobs(jobs)
        assert sized.progress().total == 3
        sized.result()
        lazy = Scheduler().start_jobs(iter(jobs))
        assert lazy.progress().total is None
        lazy.result()

    def test_worker_exceptions_propagate_from_result(self, monkeypatch):
        import repro.core.executors as executors_module

        def broken(job):
            raise OSError("permanent")

        monkeypatch.setattr(executors_module, "execute_job", broken)
        spec = tiny_spec(tools=("p4",))
        with pytest.raises(OSError, match="permanent"):
            Scheduler().run(spec)

    def test_result_timeout_raises_without_killing_the_run(self):
        executor = GateExecutor()
        spec = tiny_spec(tools=("p4",))
        handle = Scheduler(executor=executor).start(spec)
        with pytest.raises(EvaluationError, match="still executing"):
            handle.result(timeout=0.05)
        assert handle.running and not handle.cancelled
        executor.release.set()
        assert handle.result().values  # completes normally afterwards


class TestCancel:
    def _start_and_cancel_after(self, scheduler, spec, finished_jobs):
        """Cancel from a thread consuming ``events()`` once it has seen
        the ``finished_jobs``-th job finish.  The run thread is held
        right after that job until the consumer's ``cancel()`` is in:
        unheld, it can finish many more jobs (every one, on a small
        grid) before the consumer gets the interpreter lock."""
        cancel_sent = threading.Event()
        finished = []

        def hold_until_cancelled(event):
            if isinstance(event, JobFinished):
                finished.append(event)
                if len(finished) == finished_jobs:
                    cancel_sent.wait(60)

        handle = scheduler.start(spec, on_event=hold_until_cancelled)
        seen = 0
        for event in handle.events():
            if isinstance(event, JobFinished):
                seen += 1
                if seen == finished_jobs:
                    handle.cancel()
                    cancel_sent.set()
        return handle

    def test_cancel_mid_run_drops_queued_keeps_finished(self, tmp_path):
        spec = tiny_spec()  # 15 jobs
        cache_dir = str(tmp_path / "cache")
        scheduler = Scheduler(cache_dir=cache_dir)
        handle = self._start_and_cancel_after(scheduler, spec, finished_jobs=3)

        with pytest.raises(RunCancelled, match="re-run the spec"):
            handle.result()
        snapshot = handle.progress()
        assert snapshot.cancelled and snapshot.finished
        assert 3 <= snapshot.simulated < spec.job_count()
        # Every finished job persisted; nothing else did.
        assert len(DiskBackend(cache_dir)) == snapshot.simulated
        # The partial values carry exactly the completed jobs.
        values = handle.values()
        assert len(values) == snapshot.simulated
        assert all(value is not None for value in values.values())

    def test_cancelled_run_resumes_like_a_killed_one(self, tmp_path):
        """The acceptance scenario: resume over the same --cache-dir
        simulates only the jobs the cancelled run never finished."""
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        first = Scheduler(cache_dir=cache_dir)
        handle = self._start_and_cancel_after(first, spec, finished_jobs=2)
        with pytest.raises(RunCancelled):
            handle.result()
        done = handle.progress().simulated

        resumed = Scheduler(cache_dir=cache_dir)
        result = resumed.run(spec)
        assert resumed.simulations_run == spec.job_count() - done
        assert resumed.cache.hits == done
        assert len(result.values) == spec.job_count()

    def test_cancel_after_completion_is_a_noop(self):
        spec = tiny_spec(tools=("p4",))
        handle = Scheduler().start(spec)
        result = handle.result()
        handle.cancel()
        assert not handle.cancelled
        assert handle.result().values == result.values

    def test_cancelled_event_stream_terminates_with_cancelled_completion(self):
        spec = tiny_spec()
        scheduler = Scheduler()
        handle = self._start_and_cancel_after(scheduler, spec, finished_jobs=1)
        events = list(handle.events())
        assert isinstance(events[-1], RunCompleted)
        assert events[-1].cancelled

    def test_cancel_with_process_backend(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        executor = ProcessPoolExecutor(max_workers=2)
        # One job per chunk, one chunk per worker: the default window
        # would dispatch this whole grid before the cancel lands.
        executor.chunk_jobs = executor.window_factor = 1
        with Scheduler(executor=executor, cache_dir=cache_dir) as scheduler:
            handle = self._start_and_cancel_after(scheduler, spec, finished_jobs=2)
            with pytest.raises(RunCancelled):
                handle.result()
            done = handle.progress().simulated
        assert 2 <= done < spec.job_count()
        resumed = Scheduler(cache_dir=cache_dir)
        resumed.run(spec)
        assert resumed.simulations_run == spec.job_count() - done

    def test_cancel_lands_when_the_window_holds_every_job(self, tmp_path):
        """At the default window this grid is dispatched whole before
        the first outcome: a cancel seen while outcomes are due still
        ends the run cancelled, once every dispatched job persisted."""
        spec = tiny_spec()  # 15 jobs, fewer than one window
        cache_dir = str(tmp_path / "cache")
        started = threading.Event()
        handles = []

        def cancel_on_first_finish(event):
            if isinstance(event, JobFinished):
                started.wait()
                handles[0].cancel()

        with Scheduler(executor=ProcessPoolExecutor(max_workers=2),
                       cache_dir=cache_dir) as scheduler:
            handles.append(scheduler.start(spec, on_event=cancel_on_first_finish))
            started.set()
            with pytest.raises(RunCancelled):
                handles[0].result()
        events = list(handles[0].events())
        assert events[-1].cancelled
        assert events[-1].simulated == spec.job_count()
        assert len(DiskBackend(cache_dir)) == spec.job_count()

    def test_cancelled_custom_backend_dropping_queued_jobs_is_tolerated(self):
        """A backend that drops queued work on cancel must not leave
        ``None`` reservations masquerading as samples."""

        class Droppy(Executor):
            name = "droppy"

            def submit(self, jobs, retries=1):
                jobs = list(jobs)  # drains misses(); cancel arrives first
                yield JobOutcome(1.0, 0.001, 1)  # then drops the rest

        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler(executor=Droppy())
        handle = scheduler.start(spec)
        handle.cancel()  # observed while the executor drains the stream
        handle.wait()
        if handle.cancelled:
            values = handle.values()
            assert all(value is not None for value in values.values())


class TestInterruptFlush:
    def test_interrupt_from_a_job_keeps_finished_prefix(self, tmp_path, monkeypatch):
        """KeyboardInterrupt raised mid-batch (ctrl-C landing in a
        simulation) must not lose outcomes that already streamed out:
        the relaunch simulates only from the point of interrupt."""
        import repro.core.executors as executors_module

        spec = tiny_spec(tools=("p4",))
        jobs = spec.jobs()
        real_execute = executors_module.execute_job

        def interrupted(job):
            if job == jobs[3]:
                raise KeyboardInterrupt
            return real_execute(job)

        monkeypatch.setattr(executors_module, "execute_job", interrupted)
        cache_dir = str(tmp_path / "cache")
        scheduler = Scheduler(cache_dir=cache_dir)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(spec)
        assert scheduler.simulations_run == 3
        assert len(DiskBackend(cache_dir)) == 3

        monkeypatch.setattr(executors_module, "execute_job", real_execute)
        resumed = Scheduler(cache_dir=cache_dir)
        resumed.run(spec)
        assert resumed.simulations_run == spec.job_count() - 3

    def test_interrupt_while_waiting_cancels_and_flushes(self, tmp_path):
        """Ctrl-C in the *waiting* thread: result() cancels the run
        cooperatively and joins the worker, so every outcome produced
        before (and during) the interrupt is on disk when the
        KeyboardInterrupt reaches the caller."""
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        scheduler = Scheduler(cache_dir=cache_dir)
        handle = scheduler.start(spec)
        handle.wait = lambda timeout=None: (_ for _ in ()).throw(KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            handle.result()
        assert not handle._thread.is_alive()  # worker joined: flushed
        done = handle.progress().simulated
        assert len(DiskBackend(cache_dir)) == done

        resumed = Scheduler(cache_dir=cache_dir)
        resumed.run(spec)
        assert resumed.simulations_run == spec.job_count() - done


class TestPoolStreaming:
    @pytest.mark.parametrize("executor", ["batch", "process"])
    def test_any_executor_narrates_the_serial_stream(self, executor):
        """Events go out in first-occurrence order however far the
        executor runs ahead: a pool streams what a serial run does."""
        backend = (BatchExecutor() if executor == "batch"
                   else ProcessPoolExecutor(max_workers=2))
        serial = narration(None)
        assert {kind for kind, *_ in serial[:-1]} == {"CacheHit", "JobStarted", "JobFinished"}
        assert narration(backend) == serial

    def test_pool_backed_run_streams_and_persists(self, tmp_path):
        spec = tiny_spec(tools=("p4",))
        cache_dir = str(tmp_path / "cache")
        with Scheduler(
            executor=ProcessPoolExecutor(max_workers=2), cache_dir=cache_dir
        ) as scheduler:
            handle = scheduler.start(spec)
            events = list(handle.events())
            result = handle.result()
        assert events[-1].simulated == spec.job_count()
        assert result.values == Scheduler().run(spec).values
        assert len(DiskBackend(cache_dir)) == spec.job_count()
