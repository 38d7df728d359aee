"""JobRegistry: admission, FIFO queues, cancel, shutdown, persistence.

Concurrency is made deterministic with the gate/step executors from
service_helpers: a gated run stays ``running`` until the test releases
it, a stepped run finishes exactly as many jobs as permits released,
and shutdown ordering waits on the handle's cancel request, not on a
sleep.  A store that commits terminal states slowly pins that a run's
event stream ends only after its outcome is persisted, and one that
refuses them pins that an unstored end is never announced.  Finished
runs are not resident: their streams come from the store.
"""

import gc
import threading
import time
import tracemalloc

import pytest

from repro.core.cache import ResultCache
from repro.core.executors import ProcessPoolExecutor
from repro.core.progress import CacheHit, JobFinished, JobStarted, RunCompleted
from repro.core.scheduler import Scheduler
from repro.errors import EvaluationError, ServiceError
from repro.service.registry import DEFAULT_USER, JobRegistry, normalize_user
from repro.history import HistoryStore

from service_helpers import (
    FailingExecutor,
    GateExecutor,
    RefusingTerminalStore,
    SlowTerminalStore,
    StepExecutor,
    cancel_requested,
    tiny_spec,
)


@pytest.fixture
def store(tmp_path):
    with HistoryStore(str(tmp_path / "registry.db")) as s:
        yield s


def wait_terminal(registry, run_id, timeout=30.0):
    """Block until the run's stored state is terminal; the record."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = registry.status(run_id)
        if record["state"] in ("completed", "cancelled", "failed"):
            return record
        time.sleep(0.01)
    raise AssertionError("run %s never reached a terminal state" % run_id)


def follow_stepped_run(registry, step):
    """Submit a tiny run, subscribe while ``step`` holds it live, then
    release it; the run id and every event its live stream announces."""
    spec = tiny_spec()
    run_id = registry.submit("alice", spec)["run_id"]
    stream = registry.events(run_id)  # resolved while running
    step.steps.release(len(spec.jobs()))
    return run_id, list(stream)


class TestSubmitAndComplete:
    def test_run_completes_with_direct_run_scores(self, store):
        spec = tiny_spec()
        with JobRegistry(store) as registry:
            record = registry.submit("alice", spec)
            run_id = record["run_id"]
            assert record["state"] == "running"  # admitted immediately
            final = wait_terminal(registry, run_id)
        assert final["state"] == "completed"
        assert final["simulated"] == len(spec.jobs())
        assert final["cache_hits"] == 0
        direct = Scheduler().run(spec).to_dict()
        assert final["result"]["scores"] == direct["scores"]

    def test_default_factory_shares_cache_across_runs(self, store):
        spec = tiny_spec()
        with JobRegistry(store) as registry:
            first = registry.submit(None, spec)["run_id"]
            wait_terminal(registry, first)
            second = registry.submit(None, spec)["run_id"]
            final = wait_terminal(registry, second)
        assert final["user"] == DEFAULT_USER
        assert final["simulated"] == 0
        assert final["cache_hits"] == len(spec.jobs())

    def test_submit_accepts_dict_and_validates_before_persisting(self, store):
        with JobRegistry(store) as registry:
            run_id = registry.submit("alice", tiny_spec().to_dict())["run_id"]
            wait_terminal(registry, run_id)
            with pytest.raises(EvaluationError):
                registry.submit("alice", {"tools": ["no-such-tool"]})
        # the malformed submission never reached the store
        assert len(store.service_runs()) == 1

    def test_user_identity_is_normalized(self, store):
        assert normalize_user(None) == DEFAULT_USER
        assert normalize_user("  alice  ") == "alice"
        for blank in ("", "   ", "\t\n"):
            with pytest.raises(ServiceError, match="blank"):
                normalize_user(blank)
        with JobRegistry(store) as registry:
            record = registry.submit("  alice ", tiny_spec())
            assert record["user"] == "alice"
            wait_terminal(registry, record["run_id"])
            with pytest.raises(ServiceError, match="blank"):
                registry.submit("   ", tiny_spec())
            # the trailing-space listing filter finds the same runs
            assert registry.list_runs(" alice ") == registry.list_runs("alice")
        assert len(store.service_runs()) == 1  # the blank one never landed

    def test_unknown_run_everywhere(self, store):
        with JobRegistry(store) as registry:
            with pytest.raises(ServiceError, match="unknown run"):
                registry.status("feedface0000")
            with pytest.raises(ServiceError, match="unknown run"):
                registry.cancel("feedface0000")
            with pytest.raises(ServiceError, match="unknown run"):
                list(registry.events("feedface0000"))


class TestProvenance:
    def test_git_sha_is_resolved_once_per_registry(self, store, monkeypatch):
        import subprocess

        calls = []
        run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        spec = tiny_spec()
        with JobRegistry(store) as registry:
            run_ids = [registry.submit("alice", spec)["run_id"] for _ in range(3)]
            for run_id in run_ids:
                assert wait_terminal(registry, run_id)["state"] == "completed"
        assert len(calls) <= 1
        shas = {store.get(run_id)["git_sha"] for run_id in run_ids}
        assert len(shas) == 1


class TestAdmissionControl:
    def test_per_user_limit_queues_fifo_and_users_are_independent(self, store):
        gate = GateExecutor()
        cache = ResultCache()
        factory = lambda: Scheduler(executor=gate, cache=cache)  # noqa: E731
        registry = JobRegistry(store, factory, per_user_limit=1)
        try:
            a = registry.submit("alice", tiny_spec())
            b = registry.submit("alice", tiny_spec(tools=("express",)))
            c = registry.submit("alice", tiny_spec(tools=("pvm",)))
            d = registry.submit("bob", tiny_spec())
            # alice holds one slot; bob's limit is his own
            assert a["state"] == "running"
            assert b["state"] == "queued"
            assert c["state"] == "queued"
            assert d["state"] == "running"
            # a queued run reports a live progress snapshot only once running
            assert "progress" in registry.status(a["run_id"])
            assert "progress" not in registry.status(b["run_id"])
            gate.release.set()
            records = {
                name: wait_terminal(registry, rec["run_id"])
                for name, rec in (("a", a), ("b", b), ("c", c), ("d", d))
            }
        finally:
            gate.release.set()
            registry.shutdown(timeout=10)
        assert all(r["state"] == "completed" for r in records.values())
        # FIFO: alice's queue drained in submission order
        assert records["a"]["started_at"] <= records["b"]["started_at"]
        assert records["b"]["started_at"] <= records["c"]["started_at"]

    def test_cancel_queued_run_never_starts(self, store):
        gate = GateExecutor()
        factory = lambda: Scheduler(executor=gate, cache=ResultCache())  # noqa: E731
        registry = JobRegistry(store, factory, per_user_limit=1)
        try:
            a = registry.submit("alice", tiny_spec())
            b = registry.submit("alice", tiny_spec(tools=("express",)))
            cancelled = registry.cancel(b["run_id"])
            assert cancelled["state"] == "cancelled"
            assert cancelled["error"] == "cancelled while queued"
            # its event stream is a single synthesized terminal event
            events = list(registry.events(b["run_id"]))
            assert len(events) == 1
            assert isinstance(events[0], RunCompleted)
            assert events[0].cancelled
            gate.release.set()
            assert wait_terminal(registry, a["run_id"])["state"] == "completed"
        finally:
            gate.release.set()
            registry.shutdown(timeout=10)
        assert registry.status(b["run_id"])["state"] == "cancelled"
        assert registry.status(b["run_id"])["started_at"] is None

    def test_cancel_terminal_run_is_a_noop(self, store):
        with JobRegistry(store) as registry:
            run_id = registry.submit("alice", tiny_spec())["run_id"]
            wait_terminal(registry, run_id)
            record = registry.cancel(run_id)
        assert record["state"] == "completed"


class TestCancelRunning:
    def test_cancel_persists_partial_results(self, store):
        step = StepExecutor()
        factory = lambda: Scheduler(executor=step, cache=ResultCache())  # noqa: E731
        registry = JobRegistry(store, factory)
        try:
            spec = tiny_spec()  # 5 jobs
            run_id = registry.submit("alice", spec)["run_id"]
            step.steps.release(2)
            # wait until the third job is in flight, then cancel it
            for event in registry.events(run_id):
                if isinstance(event, JobStarted) and event.index == 2:
                    break
            registry.cancel(run_id)
            step.steps.release(1)  # let the in-flight job finish
            final = wait_terminal(registry, run_id)
        finally:
            step.steps.release(100)
            registry.shutdown(timeout=10)
        assert final["state"] == "cancelled"
        assert final["simulated"] == 3
        assert final["result"]["partial"] is True
        assert len(final["result"]["samples"]) == 3
        sample = final["result"]["samples"][0]
        assert sample["seconds"] > 0.0
        assert sample["tool"] in spec.tools

    def test_cancelled_events_end_with_cancelled_terminal(self, store):
        step = StepExecutor()
        factory = lambda: Scheduler(executor=step, cache=ResultCache())  # noqa: E731
        registry = JobRegistry(store, factory)
        try:
            run_id = registry.submit("alice", tiny_spec())["run_id"]
            step.steps.release(1)
            for event in registry.events(run_id):
                if isinstance(event, JobFinished):
                    break
            registry.cancel(run_id)
            step.steps.release(1)
            events = list(registry.events(run_id))  # full replay
        finally:
            step.steps.release(100)
            registry.shutdown(timeout=10)
        assert isinstance(events[-1], RunCompleted)
        assert events[-1].cancelled


class TestPersistThenAnnounce:
    """The end of a run's stream is announced only once its outcome is
    stored: a slow terminal commit must not be observable."""

    def test_status_read_on_run_completed_is_final(self, tmp_path):
        spec = tiny_spec()
        with SlowTerminalStore(str(tmp_path / "slow.db")) as store:
            with JobRegistry(store) as registry:
                run_id = registry.submit("alice", spec)["run_id"]
                for event in registry.events(run_id):
                    if isinstance(event, RunCompleted):
                        record = registry.status(run_id)
                        break
        assert record["state"] == "completed"
        assert record["simulated"] == len(spec.jobs())
        assert record["cache_hits"] == 0
        assert record["result"]["scores"]

    def test_failed_run_stream_ends_after_the_failure_is_stored(self, tmp_path):
        factory = lambda: Scheduler(executor=FailingExecutor(), cache=ResultCache())  # noqa: E731
        with SlowTerminalStore(str(tmp_path / "slow.db")) as store:
            with JobRegistry(store, factory) as registry:
                run_id = registry.submit("alice", tiny_spec())["run_id"]
                events = list(registry.events(run_id))
                record = registry.status(run_id)
        assert not any(isinstance(event, RunCompleted) for event in events)
        assert record["state"] == "failed"
        assert "simulated executor crash" in record["error"]

    def test_refused_completion_is_stored_as_failed_and_not_announced(
        self, tmp_path
    ):
        step = StepExecutor()
        factory = lambda: Scheduler(executor=step, cache=ResultCache())  # noqa: E731
        with RefusingTerminalStore(str(tmp_path / "locked.db")) as store:
            with JobRegistry(store, factory) as registry:
                run_id, events = follow_stepped_run(registry, step)
                record = registry.status(run_id)
                assert registry._runs == {}  # a terminal row landed
        assert isinstance(events[-1], JobFinished)  # no RunCompleted
        assert record["state"] == "failed"
        assert "completed" in record["error"]
        assert "database is locked" in record["error"]

    def test_unstorable_end_leaves_the_run_resident_and_unannounced(
        self, tmp_path
    ):
        class Unrecordable(RefusingTerminalStore):
            refuse = frozenset(("completed", "failed"))

        step = StepExecutor()
        factory = lambda: Scheduler(executor=step, cache=ResultCache())  # noqa: E731
        with Unrecordable(str(tmp_path / "locked.db")) as store:
            with JobRegistry(store, factory) as registry:
                run_id, events = follow_stepped_run(registry, step)
                assert run_id in registry._runs
                assert registry.status(run_id)["state"] == "running"
        assert isinstance(events[-1], JobFinished)  # no RunCompleted


class TestShutdownAndRestart:
    def test_shutdown_cancels_running_and_queued(self, store):
        gate = GateExecutor()
        factory = lambda: Scheduler(executor=gate, cache=ResultCache())  # noqa: E731
        registry = JobRegistry(store, factory, per_user_limit=1)
        a = registry.submit("alice", tiny_spec())
        b = registry.submit("alice", tiny_spec(tools=("express",)))
        stopper = threading.Thread(target=registry.shutdown, kwargs={"timeout": 30})
        stopper.start()
        assert cancel_requested(registry, a["run_id"]).wait(10)
        gate.release.set()  # then let the in-flight job drain
        stopper.join(30)
        assert not stopper.is_alive()
        assert store.service_run(a["run_id"])["state"] == "cancelled"
        assert store.service_run(b["run_id"])["state"] == "cancelled"
        assert store.service_run(b["run_id"])["error"] == "cancelled while queued"
        with pytest.raises(ServiceError, match="shutting down"):
            registry.submit("alice", tiny_spec())

    def test_restarted_registry_synthesizes_history_events(self, store):
        """A serial run's stream is the same event for event read live,
        read after it finished, and read from a restarted registry: a
        cold run, then a warm one mixing cache hits, seed-collapsed
        hits and simulations."""
        step = StepExecutor()  # serial order, one job per permit
        cache = ResultCache()
        factory = lambda: Scheduler(executor=step, cache=cache)  # noqa: E731
        specs = (tiny_spec(), tiny_spec(tools=("p4", "express"), seeds=(0, 1)))
        streams = []
        with JobRegistry(store, factory) as registry:
            for spec in specs:
                run_id = registry.submit("alice", spec)["run_id"]
                live = registry.events(run_id)  # resolved while running
                step.steps.release(len(spec.jobs()))
                live = list(live)
                assert run_id not in registry._runs
                streams.append((run_id, live, list(registry.events(run_id))))
        with JobRegistry(store) as second:
            for run_id, live, late in streams:
                assert late == live
                assert list(second.events(run_id)) == live
        cold, warm = (live for _, live, _ in streams)
        assert [type(e) for e in cold[:2]] == [JobStarted, JobFinished]
        assert cold[-1].total == cold[-1].simulated == len(specs[0].jobs())
        kinds = {type(e) for e in warm}
        assert {CacheHit, JobStarted, JobFinished, RunCompleted} == kinds
        assert warm[-1].cache_hits > len(specs[0].jobs())
        assert not warm[-1].cancelled

    def test_pooled_run_streams_the_same_live_late_and_restarted(self, tmp_path):
        """The same parity over one shared process pool, what `repro
        serve` runs by default: the pool runs ahead of the jobs it has
        finished, yet the live stream narrates them in first-occurrence
        order.  The slow terminal write keeps each run resident, so the
        first read is the live one."""
        cache = ResultCache()
        specs = (tiny_spec(tools=("p4",)), tiny_spec(tools=("p4", "express"), seeds=(0, 1)))
        streams = []
        with ProcessPoolExecutor(max_workers=2) as pool, \
                SlowTerminalStore(str(tmp_path / "slow.db")) as store:
            factory = lambda: Scheduler(executor=pool, cache=cache)  # noqa: E731
            with JobRegistry(store, factory) as registry:
                for spec in specs:
                    run_id = registry.submit("alice", spec)["run_id"]
                    live = list(registry.events(run_id))
                    streams.append((run_id, live, list(registry.events(run_id))))
            with JobRegistry(store) as second:
                for run_id, live, late in streams:
                    assert late == live
                    assert list(second.events(run_id)) == live
        warm = streams[1][1]
        assert {CacheHit, JobStarted, JobFinished, RunCompleted} == {type(e) for e in warm}

    def test_failed_run_never_streams_a_completion(self, store):
        factory = lambda: Scheduler(executor=FailingExecutor(), cache=ResultCache())  # noqa: E731
        with JobRegistry(store, factory) as registry:
            run_id = registry.submit("alice", tiny_spec())["run_id"]
            live = list(registry.events(run_id))
            late = list(registry.events(run_id))
        with JobRegistry(store) as second:
            restarted = list(second.events(run_id))
            assert second.status(run_id)["state"] == "failed"
        assert live == late == restarted == []

    def test_per_user_limit_must_be_positive(self, store):
        with pytest.raises(ServiceError, match=">= 1"):
            JobRegistry(store, per_user_limit=0)


class TestBoundedRegistry:
    RUNS = 50

    def test_finished_runs_are_rows_not_residents(self, store):
        spec = tiny_spec()
        with JobRegistry(store) as registry:
            for _ in range(3):  # a warm cache, and every lazy import done
                list(registry.events(registry.submit("alice", spec)["run_id"]))
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(self.RUNS):
                    run_id = registry.submit("alice", spec)["run_id"]
                    events = list(registry.events(run_id))
                    assert events[-1].cache_hits == len(spec.jobs())
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert registry._runs == {}
        assert retained < 1024 * self.RUNS, retained
