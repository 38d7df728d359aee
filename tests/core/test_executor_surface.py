"""One engine, one executor protocol: the scheduler's surface.

Every cache miss is simulated by the discrete-event kernel and reaches
it through ``Executor.submit``.  These tests pin that surface from the
outside: the backends on offer, what a custom executor must provide,
how its outcomes land in telemetry and events, and that provenance
always names the event engine, in exports written by older versions
too.
"""

import concurrent.futures
import dataclasses
import inspect
import sys
import threading

import pytest

import repro.core
from repro.bench.runner import run_evaluation
from repro.core.cache import ResultCache
from repro.core.executors import (
    EXECUTOR_BACKENDS,
    Executor,
    JobOutcome,
    ProcessPoolExecutor,
    SerialExecutor,
    create_executor,
    execute_job_instrumented,
)
from repro.core.jobs import execute_job
from repro.core.progress import JobFinished, event_from_dict
from repro.core.scheduler import JobTelemetry, Scheduler
from repro.core.spec import EvaluationSpec
from repro.distributed import JobQueue, RemoteExecutor, WorkerPool
from repro.errors import EvaluationError
from repro.history import HistoryStore

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


class SubmitOnly(object):
    """A custom executor that is no ``Executor`` subclass: ``submit``,
    ``name`` and ``close`` are all the scheduler asks of one."""

    name = "submit-only"

    def __init__(self, outcomes=None):
        self.outcomes = outcomes  # job -> JobOutcome override, else run it
        self.retries_seen = []
        self.closed = 0

    def submit(self, jobs, retries=1):
        self.retries_seen.append(retries)
        for job in jobs:
            if self.outcomes is not None:
                yield self.outcomes(job)
            else:
                yield execute_job_instrumented(job, retries)

    def close(self):
        self.closed += 1


class TestBackends:
    def test_three_backends_on_offer(self):
        assert EXECUTOR_BACKENDS == ("serial", "process", "remote")

    def test_unknown_backend_names_the_three(self):
        with pytest.raises(EvaluationError,
                           match="available: serial, process, remote"):
            create_executor(2, backend="async")

    @pytest.mark.parametrize("backend, cls, name", [
        ("serial", SerialExecutor, "serial"),
        ("process", ProcessPoolExecutor, "process-pool"),
        ("remote", RemoteExecutor, "remote"),
    ])
    def test_each_backend_builds_its_executor(self, backend, cls, name, tmp_path):
        queue_dir = str(tmp_path / "queue") if backend == "remote" else None
        with create_executor(2, backend=backend, queue_dir=queue_dir) as executor:
            assert type(executor) is cls
            assert executor.name == name

    @pytest.mark.parametrize("cls, tunables", [
        (Executor, set()),
        (SerialExecutor, set()),
        (ProcessPoolExecutor, {"chunk_jobs", "window_factor"}),
        (RemoteExecutor, {"chunk_jobs", "window_factor"}),
    ])
    def test_the_protocol_is_submit_plus_a_lifecycle(self, cls, tunables):
        public = {name for name in dir(cls) if not name.startswith("_")}
        assert public == {"submit", "start", "close", "name", "max_workers"} | tunables

    def test_executor_exports_are_the_protocol_and_two_local_backends(self):
        import repro.core.scheduler as scheduler_module

        for exports in (repro.core.__all__, scheduler_module.__all__):
            assert {name for name in exports if name.endswith("Executor")} == {
                "Executor", "SerialExecutor", "ProcessPoolExecutor"
            }

    def test_scheduler_takes_no_engine(self):
        assert not hasattr(Scheduler, "ENGINES")
        assert "engine" not in inspect.signature(Scheduler).parameters
        with pytest.raises(TypeError):
            Scheduler(engine="event")

    def test_run_evaluation_takes_no_engine(self):
        with pytest.raises(TypeError):
            run_evaluation(tiny_spec(tools=("p4",)), engine="event")


class TestCustomExecutor:
    def test_submit_only_executor_serves_a_run(self):
        spec = tiny_spec(tools=("p4", "pvm"))
        scheduler = Scheduler(executor=SubmitOnly())
        result = scheduler.run(spec)
        assert result.values == {job: execute_job(job) for job in spec.jobs()}
        assert {record.executor for record in result.telemetry.values()} == {
            "submit-only"
        }

    def test_executor_without_submit_fails_loudly(self):
        """A pre-protocol executor offering only ``run(jobs)`` is no
        longer adapted into untimed outcomes."""

        class RunOnly(object):
            name = "run-only"

            def run(self, jobs):
                return [execute_job(job) for job in jobs]

            def close(self):
                pass

        scheduler = Scheduler(executor=RunOnly())
        with pytest.raises(AttributeError, match="submit"):
            scheduler.run(tiny_spec(tools=("p4",)))

    def test_retries_reach_submit(self):
        executor = SubmitOnly()
        Scheduler(executor=executor, retries=3).run(tiny_spec(tools=("p4",)))
        assert executor.retries_seen == [3]

    def test_outcome_timing_lands_in_telemetry_and_events(self):
        spec = tiny_spec(tools=("p4",))
        executor = SubmitOnly(lambda job: JobOutcome(2.5, 0.25, 2))
        scheduler = Scheduler(executor=executor, retries=2)
        events = []
        handle = scheduler.start(spec, on_event=events.append)
        result = handle.result(timeout=60)
        assert set(result.values.values()) == {2.5}
        for record in result.telemetry.values():
            assert (record.wall_seconds, record.attempts) == (0.25, 2)
        finished = [event for event in events if isinstance(event, JobFinished)]
        assert len(finished) == spec.job_count()
        assert {(event.value, event.wall_seconds, event.attempts)
                for event in finished} == {(2.5, 0.25, 2)}

    def test_an_extra_outcome_is_an_error(self):
        class Chatty(Executor):
            name = "chatty"

            def submit(self, jobs, retries=1):
                for job in jobs:
                    yield execute_job_instrumented(job, retries)
                yield JobOutcome(0.0, 0.001, 1)

        with pytest.raises(EvaluationError, match="more outcomes than jobs"):
            Scheduler(executor=Chatty()).run_jobs(tiny_spec(tools=("p4",)).jobs()[:2])

    def test_closing_the_scheduler_closes_the_executor(self):
        executor = SubmitOnly()
        with Scheduler(executor=executor) as scheduler:
            scheduler.run(tiny_spec(tools=("p4",)))
            assert executor.closed == 0
        assert executor.closed == 1
        scheduler.close()
        assert executor.closed == 2

    def test_a_failing_stream_keeps_what_it_finished(self):
        jobs = tiny_spec(tools=("p4",)).jobs()[:3]

        class Dies(Executor):
            name = "dies"

            def submit(self, jobs, retries=1):
                stream = iter(jobs)
                yield execute_job_instrumented(next(stream), retries)
                raise RuntimeError("backend lost")

        cache = ResultCache()
        with pytest.raises(RuntimeError, match="backend lost"):
            Scheduler(executor=Dies(), cache=cache).run_jobs(jobs)
        assert cache.peek(jobs[0]) == execute_job(jobs[0])
        assert len(cache) == 1


@pytest.fixture(params=["serial", "process", "remote", "submit-only"])
def executor(request, tmp_path):
    if request.param == "remote":
        queue = JobQueue(str(tmp_path / "queue"), lease_timeout=10.0)
        cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
        instance = RemoteExecutor(queue_dir=str(tmp_path / "queue"),
                                  max_workers=2, poll_interval=0.005,
                                  timeout=120.0)
        with WorkerPool(queue, cache, workers=2, poll_interval=0.005):
            yield instance
            instance.close()
        return
    if request.param == "submit-only":
        instance = SubmitOnly()
    else:
        instance = create_executor(2, backend=request.param)
    yield instance
    instance.close()


class TestSharedProcessPool:
    """One ``ProcessPoolExecutor`` borrowed by schedulers on several
    threads, as every run of ``repro serve`` borrows the server's."""

    def test_racing_passes_build_one_pool(self, monkeypatch):
        built = []
        second = threading.Event()

        class SlowPool(object):
            def __init__(self, max_workers):
                built.append(self)
                if len(built) == 2:
                    second.set()
                # Stay inside construction for a while: an unguarded
                # second caller gets in here too.
                second.wait(0.5)

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SlowPool)
        executor = ProcessPoolExecutor(max_workers=2)
        got = []
        threads = [threading.Thread(target=lambda: got.append(executor._ensure_pool()))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 1
        assert got == built * len(threads)

    def test_a_broken_pool_drops_only_itself(self):
        """Two passes over one pool both see it break; the second to
        drop it must leave the pool the first already rebuilt."""
        class Pool(object):
            def __init__(self):
                self.shutdowns = 0

            def shutdown(self, *args, **kwargs):
                self.shutdowns += 1

        broken, rebuilt = Pool(), Pool()
        executor = ProcessPoolExecutor(max_workers=2)
        executor._pool = broken
        executor._discard(broken)
        assert executor._pool is None
        executor._pool = rebuilt
        executor._discard(broken)
        assert executor._pool is rebuilt
        assert (broken.shutdowns, rebuilt.shutdowns) == (2, 0)


class TestChunks:
    def _chunks(self, tools):
        jobs = tiny_spec(tools=tools, apps=("jpeg", "montecarlo"), seeds=(0, 1)).jobs()
        executor = ProcessPoolExecutor(max_workers=2)
        executor.chunk_jobs = 3
        chunks = list(executor._chunks(jobs))
        assert [job for chunk in chunks for job in chunk] == jobs
        assert all(0 < len(chunk) <= executor.chunk_jobs for chunk in chunks)
        where = {}
        for index, chunk in enumerate(chunks):
            for job in chunk:
                if job.kind == "application":
                    where.setdefault((job.platform, job.params, job.seed), set()).add(index)
        return chunks, where

    def test_a_cells_application_jobs_share_a_chunk(self):
        """One chunk holds the tools' application jobs of a cell, so a
        worker's per-process memo serves all of them."""
        _, where = self._chunks(("express", "p4", "pvm"))
        assert where and all(len(chunks) == 1 for chunks in where.values())

    def test_a_cell_wider_than_a_chunk_is_split(self):
        chunks, where = self._chunks(("express", "mpi", "p4", "pvm"))
        assert all(len(found) == 2 for found in where.values())
        # Primitive jobs are never cut early: they fill whole chunks.
        assert any(len(chunk) == 3 and all(job.kind != "application" for job in chunk)
                   for chunk in chunks)


class TestEngineIsAlwaysEvent:
    """``JobTelemetry.engine``, ``JobFinished.engine`` and the history
    ``engine`` column keep their place in every schema and read
    ``"event"`` whatever backend ran the job."""

    # Seeds 0 and 1: every job here is seed-insensitive, so a pass
    # simulates the seed-0 jobs and serves their seed-1 siblings.
    SPEC = dict(tools=("p4", "pvm"), seeds=(0, 1))

    def test_telemetry_names_the_event_engine(self, executor):
        spec = tiny_spec(**self.SPEC)
        scheduler = Scheduler(executor=executor)
        first = scheduler.run(spec)
        assert any(record.cache_hit for record in first.telemetry.values())
        assert any(not record.cache_hit for record in first.telemetry.values())
        warm = scheduler.run(spec)  # every job a cache hit
        for result in (first, warm):
            assert len(result.telemetry) == spec.job_count()
            assert {record.engine for record in result.telemetry.values()} == {
                "event"
            }

    def test_finished_events_name_the_event_engine(self, executor):
        spec = tiny_spec(**self.SPEC)
        scheduler = Scheduler(executor=executor)
        events = []
        scheduler.start(spec, on_event=events.append).result(timeout=120)
        finished = [event for event in events if isinstance(event, JobFinished)]
        assert len(finished) == scheduler.simulations_run > 0
        assert {event.engine for event in finished} == {"event"}
        assert {event.to_dict()["engine"] for event in finished} == {"event"}

    def test_export_and_history_record_the_event_engine(self, executor, tmp_path):
        export = Scheduler(executor=executor).run(tiny_spec(**self.SPEC)).to_dict()
        rows = export["telemetry"]["jobs"]
        assert rows and {row["engine"] for row in rows} == {"event"}
        with HistoryStore(str(tmp_path / "history.db")) as store:
            record = store.get(store.record_result(export))
        assert record["engine"] == "event"
        assert record["backend"] == executor.name


class TestOldExports:
    """Exports written before every job was timed may carry
    ``wall_seconds: null`` and no ``engine`` key; they still read."""

    def test_telemetry_row_without_engine_or_timing(self):
        job = tiny_spec(tools=("p4",)).jobs()[0]
        row = {"executor": "serial", "cache_hit": False,
               "wall_seconds": None, "attempts": 1}
        record = JobTelemetry.from_dict(job, row)
        assert record.engine == "event"
        assert record.wall_seconds is None
        assert record.to_dict() == dict(row, engine="event")

    def test_finished_event_without_engine_or_timing(self):
        job = tiny_spec(tools=("p4",)).jobs()[0]
        event = event_from_dict({"type": "job_finished", "job": job.to_dict(),
                                 "value": 1.5, "wall_seconds": None,
                                 "attempts": 1})
        assert event == JobFinished(job, 1.5, None, 1, "event")

    def test_untimed_records_are_left_out_of_the_wall_total(self):
        result = Scheduler().run(tiny_spec(tools=("p4",)))
        jobs = list(result.telemetry)
        timed = sum(result.telemetry[job].wall_seconds for job in jobs[1:])
        result.telemetry[jobs[0]] = dataclasses.replace(
            result.telemetry[jobs[0]], wall_seconds=None
        )
        summary = result.to_dict()["telemetry"]["summary"]
        assert summary["simulated"] == len(jobs)
        assert summary["total_wall_seconds"] == pytest.approx(timed)

    def test_history_records_an_export_without_engine_keys(self, tmp_path):
        export = Scheduler().run(tiny_spec(tools=("p4",))).to_dict()
        for row in export["telemetry"]["jobs"]:
            del row["engine"]
            row["wall_seconds"] = None
        with HistoryStore(str(tmp_path / "history.db")) as store:
            record = store.get(store.record_result(export))
        assert record["engine"] == "event"
        assert record["payload"] == export
