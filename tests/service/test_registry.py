"""JobRegistry: admission, FIFO queues, cancel, shutdown, persistence.

Concurrency is made deterministic with the gate/step executors from
service_helpers: a gated run stays ``running`` until the test releases
it, a stepped run finishes exactly as many jobs as permits released,
and shutdown ordering waits on the handle's cancel request, not on a
sleep.  A store that commits terminal states slowly pins that a run's
event stream ends only after its outcome is persisted.
"""

import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.progress import JobFinished, JobStarted, RunCompleted
from repro.core.scheduler import Scheduler
from repro.errors import EvaluationError, ServiceError
from repro.service.registry import DEFAULT_USER, JobRegistry, normalize_user
from repro.history import HistoryStore

from service_helpers import (
    FailingExecutor,
    GateExecutor,
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
        spec = tiny_spec()
        with JobRegistry(store) as registry:
            run_id = registry.submit("alice", spec)["run_id"]
            wait_terminal(registry, run_id)
        # a fresh registry over the same store: the run is not resident
        with JobRegistry(store) as second:
            events = list(second.events(run_id))
            record = second.status(run_id)
        assert len(events) == 1
        terminal = events[0]
        assert isinstance(terminal, RunCompleted)
        assert terminal.total == len(spec.jobs())
        assert terminal.simulated == record["simulated"]
        assert not terminal.cancelled

    def test_per_user_limit_must_be_positive(self, store):
        with pytest.raises(ServiceError, match=">= 1"):
            JobRegistry(store, per_user_limit=0)
