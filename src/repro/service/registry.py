"""The job registry: admission control over the streaming scheduler.

One :class:`JobRegistry` owns every run of one server process.  It
glues three things together:

* **Admission** — each user (the ``X-User`` header upstream) may hold
  at most ``per_user_limit`` concurrently *running* evaluations;
  submissions beyond the limit queue FIFO and start automatically as
  the user's earlier runs finish.  Users never contend with each
  other's limits.
* **Execution** — every admitted run gets a fresh
  :class:`~repro.core.scheduler.Scheduler` from ``scheduler_factory``
  (one scheduler drives one run at a time, per its contract) and runs
  through :meth:`Scheduler.start`; the factory conventionally shares
  one thread-safe :class:`~repro.core.cache.ResultCache` across runs,
  which is what makes resubmitting an interrupted spec simulate only
  never-finished jobs, and one executor, whose pool every run
  borrows and whose owner, not the registry, closes it.
* **Persistence** — every lifecycle edge is written through the
  :class:`~repro.history.store.HistoryStore` state machine, with final
  counters and the exported results (partial samples for cancelled
  runs, so a cancel never discards finished measurements).  A
  completed run is one row of the run history, written in one
  transaction.

The registry holds only queued and running runs: a watcher thread per
run commits its terminal row and then drops it, so a finished run, of
this process or a previous server, is a row of the store.
:meth:`events` is the blocking iterator each SSE response writes out
on its connection's thread: a live run's buffered events, then live
(several consumers may stream one run), with the end announced only
after the outcome is persisted; a finished run's stream is rebuilt
from its stored record.  The registry itself never blocks a caller.
"""

from __future__ import annotations

import threading
import uuid
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.cache import ResultCache
from repro.core.jobs import MeasurementJob
from repro.core.progress import (CacheHit, JobFinished, JobStarted, Progress,
                                 RunCompleted, RunEvent)
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.errors import RunCancelled, ServiceError
from repro.history.store import HistoryStore, current_git_sha

__all__ = ["DEFAULT_USER", "normalize_user", "JobRegistry", "progress_to_dict"]

#: The user a request without an ``X-User`` header is accounted to.
DEFAULT_USER = "anonymous"


def normalize_user(user: Optional[str]) -> str:
    """The accounting identity a request is billed to.

    Absent means :data:`DEFAULT_USER`; a present id is stripped of
    surrounding whitespace so ``"alice"`` and ``"alice "`` share one
    quota bucket.  Present-but-blank is rejected: it is always a
    misconfigured client, and letting it fall through to the
    anonymous bucket would silently merge distinct clients' quotas.
    """
    if user is None:
        return DEFAULT_USER
    user = user.strip()
    if not user:
        raise ServiceError("user id must not be blank")
    return user


def progress_to_dict(progress: Progress) -> dict:
    """A JSON-safe snapshot of a live run for the HTTP layer."""
    return {
        "total": progress.total,
        "dispatched": progress.dispatched,
        "completed": progress.completed,
        "simulated": progress.simulated,
        "cache_hits": progress.cache_hits,
        "hit_rate": progress.hit_rate,
        "elapsed_seconds": progress.elapsed_seconds,
        "eta_seconds": progress.eta_seconds,
        "cancelled": progress.cancelled,
        "finished": progress.finished,
    }


def _recorded_events(record: dict) -> Iterator[RunEvent]:
    """A finished run's event stream, rebuilt from its stored record:
    a completed run's per-job telemetry in first-occurrence order (what
    the live run narrated, on any executor), then the row's counters as the
    :class:`RunCompleted`.  A cancelled run's partial export has no
    telemetry; a failed run's stream ends without a terminal event."""
    state = record["state"]
    if state not in ("completed", "cancelled"):
        return
    export = record["result"] or {}
    telemetry = export.get("telemetry", {}).get("jobs", ())
    index = 0
    for entry, sample in zip(telemetry, export.get("samples", ())):
        job = MeasurementJob.from_dict(dict(entry, params=entry["params"].items()))
        if entry["cache_hit"]:
            yield CacheHit(job, sample["seconds"])
            continue
        yield JobStarted(job, index)
        index += 1
        yield JobFinished(job, sample["seconds"], entry["wall_seconds"],
                          entry["attempts"])
    simulated = record["simulated"] or 0
    cache_hits = record["cache_hits"] or 0
    yield RunCompleted(
        total=simulated + cache_hits,
        simulated=simulated,
        cache_hits=cache_hits,
        cancelled=state == "cancelled",
        wall_seconds=record["wall_seconds"] or 0.0,
    )


class _ManagedRun(object):
    """Registry-internal bookkeeping for one queued or running run."""

    __slots__ = ("run_id", "user", "spec", "handle", "started", "done", "persisted")

    def __init__(self, run_id: str, user: str, spec: EvaluationSpec) -> None:
        self.run_id = run_id
        self.user = user
        self.spec = spec
        #: ``None`` while the run is queued.
        self.handle = None
        #: Set once the run has a handle *or* was cancelled without
        #: ever starting — what events() consumers wait on.
        self.started = threading.Event()
        #: Set once the watcher has tried to store the outcome, and
        #: ``persisted`` says whether the handle's own end landed.
        self.done = threading.Event()
        self.persisted = False


class JobRegistry(object):
    """Per-user admission, FIFO queueing and lifecycle persistence.

    Parameters
    ----------
    store:
        The :class:`~repro.history.store.HistoryStore` every lifecycle
        edge is written through; the server's ``/api/history`` views
        read it too.
    scheduler_factory:
        Zero-argument callable yielding a fresh
        :class:`~repro.core.scheduler.Scheduler` per admitted run.
        The default shares one thread-safe in-memory
        :class:`~repro.core.cache.ResultCache` across all runs of
        this registry; pass a factory closing over
        ``ResultCache.on_disk(...)`` for the durable variant.  The
        registry never closes the schedulers it gets: a factory that
        shares an executor closes it after :meth:`shutdown`.
    per_user_limit:
        Concurrently *running* evaluations per user (>= 1); further
        submissions queue FIFO.

    Completed runs record the git SHA of the working directory's
    checkout, resolved once here: the code the server started with,
    not whatever HEAD reads when a run ends.
    """

    def __init__(
        self,
        store: HistoryStore,
        scheduler_factory: Optional[Callable[[], Scheduler]] = None,
        per_user_limit: int = 2,
    ) -> None:
        if per_user_limit < 1:
            raise ServiceError("per_user_limit must be >= 1")
        self.store = store
        self.per_user_limit = per_user_limit
        self._git_sha = current_git_sha()
        if scheduler_factory is None:
            shared = ResultCache()
            scheduler_factory = lambda: Scheduler(cache=shared)  # noqa: E731
        self._scheduler_factory = scheduler_factory
        self._lock = threading.Lock()
        # Live runs only, in submission order (each user's FIFO queue).
        self._runs: Dict[str, _ManagedRun] = {}  # guarded-by: _lock
        self._shutting_down = False  # guarded-by: _lock

    # -- submission ----------------------------------------------------

    def submit(self, user: Optional[str], spec) -> dict:
        """Admit (or queue) an evaluation; returns the stored record.

        ``spec`` is an :class:`~repro.core.spec.EvaluationSpec` or its
        dict form (validated here, so malformed submissions fail
        before anything persists).
        """
        user = normalize_user(user)
        if not isinstance(spec, EvaluationSpec):
            spec = EvaluationSpec.from_dict(dict(spec))
        with self._lock:
            if self._shutting_down:
                raise ServiceError("server is shutting down; not accepting runs")
            run_id = uuid.uuid4().hex[:12]
            record = self.store.create(run_id, user, spec.to_dict())
            managed = _ManagedRun(run_id, user, spec)
            self._runs[run_id] = managed
            self._admit_next_locked(user)
            record["state"] = "queued" if managed.handle is None else "running"
            return record

    def _start_locked(self, managed: _ManagedRun) -> None:
        """Move one queued run to running (caller holds the lock)."""
        self.store.transition(managed.run_id, "running")
        managed.handle = self._scheduler_factory().start(managed.spec)
        managed.started.set()
        threading.Thread(
            target=self._finalize, args=(managed,),
            name="repro-service-watch-%s" % managed.run_id, daemon=True,
        ).start()

    # -- completion (watcher threads) ----------------------------------

    def _finalize(self, managed: _ManagedRun) -> None:
        """Persist a finished run's outcome, drop the run once a
        terminal row is committed, and admit the user's next.

        Runs on the watcher thread; the handle's worker has ended, so
        every completed sample is already flushed to the cache — the
        same interrupt-flush guarantee
        :meth:`~repro.core.scheduler.RunHandle.result` gives a ctrl-C'd
        blocking run.
        """
        handle = managed.handle
        handle.wait()
        progress = handle.progress()
        outcome = dict(simulated=progress.simulated,
                       cache_hits=progress.cache_hits,
                       wall_seconds=progress.elapsed_seconds)
        try:
            outcome["result"] = handle.result().to_dict()
            state = "completed"
        except RunCancelled:
            state = "cancelled"
            outcome["result"] = self._partial_export(handle)
        except Exception as failure:  # noqa: BLE001 - recorded, not raised
            state = "failed"
            outcome["error"] = "%s: %s" % (type(failure).__name__, failure)
        recorded = self._record_outcome(managed.run_id, state, outcome)
        with self._lock:
            managed.persisted = recorded == state
            if recorded is not None:
                del self._runs[managed.run_id]
            managed.done.set()
            self._admit_next_locked(managed.user)

    def _record_outcome(self, run_id: str, state: str, outcome: dict) -> Optional[str]:
        """Commit a finished run's terminal row; the state that landed.
        A refused outcome (``database is locked``, say) is recorded as
        ``failed`` naming the refusal; ``None`` if that fails too."""
        try:
            self.store.transition(run_id, state, git_sha=self._git_sha, **outcome)
            return state
        except Exception as refusal:  # noqa: BLE001 - recorded, not raised
            error = "the store refused the %s outcome: %s: %s" % (
                state, type(refusal).__name__, refusal)
        try:
            self.store.transition(run_id, "failed", **dict(outcome, error=error))
            return "failed"
        except Exception:  # noqa: BLE001 - nothing left to record it in
            return None

    @staticmethod
    def _partial_export(handle) -> dict:
        """What a cancelled run leaves behind: every completed sample
        (the cache holds them too; this is the API-visible copy)."""
        samples = []
        for job, value in handle.values().items():
            if value is None:
                continue  # dispatched but never finished
            entry = job.to_dict()
            entry["seconds"] = value
            samples.append(entry)
        return {"partial": True, "samples": samples}

    def _admit_next_locked(self, user: str) -> None:
        """Start the user's oldest queued runs while a slot is free."""
        if self._shutting_down:
            return
        runs = [managed for managed in self._runs.values() if managed.user == user]
        running = sum(not managed.done.is_set() for managed in runs
                      if managed.handle is not None)
        queued = [managed for managed in runs if managed.handle is None]
        for managed in queued[:max(0, self.per_user_limit - running)]:
            self._start_locked(managed)

    # -- queries -------------------------------------------------------

    def status(self, run_id: str) -> dict:
        """The stored record, augmented with a live progress snapshot
        while the run is running."""
        record = self.store.service_run(run_id)
        with self._lock:
            managed = self._runs.get(run_id)
        if managed is not None and managed.handle is not None:
            record["progress"] = progress_to_dict(managed.handle.progress())
        return record

    def list_runs(self, user: Optional[str] = None) -> List[dict]:
        # Filters normalize like identities do, except blank means "no
        # filter" (a query parameter, not a billed identity).
        if user is not None:
            user = user.strip() or None
        return self.store.service_runs(user)

    # -- cancellation --------------------------------------------------

    def cancel(self, run_id: str) -> dict:
        """Cancel a queued or running run; finished runs are a no-op.

        Queued runs move straight to ``cancelled`` (they never held a
        scheduler).  Running runs get a cooperative
        :meth:`~repro.core.scheduler.RunHandle.cancel` — in-flight jobs
        finish and persist, and the watcher records ``cancelled`` with
        the partial results.  Returns the current stored record.
        """
        with self._lock:
            managed = self._runs.get(run_id)
            if managed is not None:
                self._cancel_locked(managed)
        record = self.store.service_run(run_id)  # raises for unknown ids
        if managed is not None and managed.handle is not None:
            record["cancel_requested"] = True
        return record

    def _cancel_locked(self, managed: _ManagedRun) -> None:
        if managed.handle is not None:
            managed.handle.cancel()
            return
        self.store.transition(
            managed.run_id, "cancelled", error="cancelled while queued"
        )
        del self._runs[managed.run_id]
        managed.started.set()
        managed.done.set()

    # -- event streaming -----------------------------------------------

    def events(self, run_id: str) -> Iterator[RunEvent]:
        """Blocking iterator of a run's typed events, ending after the
        terminal event; an unknown id raises here, before iteration.

        A queued run blocks until admission; a running run replays its
        buffered events, then follows live.  The terminal
        :class:`~repro.core.progress.RunCompleted` (or, for a failed
        run, the end of the stream) is released only once the watcher
        has persisted the outcome, so a consumer that reads
        :meth:`status` on it sees the final record.  A finished run, of
        this process or a previous server, streams from its stored
        record: for a serial executor, the live stream event for event.
        Safe for any number of concurrent consumers.
        """
        with self._lock:
            managed = self._runs.get(run_id)
        if managed is not None:
            return self._follow(managed)
        return _recorded_events(self.store.service_run(run_id))

    def _follow(self, managed: _ManagedRun) -> Iterator[RunEvent]:
        managed.started.wait()
        if managed.handle is None:  # cancelled while queued: a row only
            yield from _recorded_events(self.store.service_run(managed.run_id))
            return
        for event in managed.handle.events():
            if isinstance(event, RunCompleted):
                managed.done.wait()  # persist, then announce
                if not managed.persisted:
                    return  # the store holds another end, or none
            yield event
        managed.done.wait()  # a failed run ends without RunCompleted

    # -- shutdown ------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: queued runs cancel, running runs finish their
        in-flight jobs and persist (cooperative cancel + join), new
        submissions are refused.  Idempotent.

        This mirrors the blocking API's ctrl-C semantics: nothing a
        simulation already produced is lost, and the store ends with
        every run of this registry in a terminal state.
        """
        with self._lock:
            self._shutting_down = True
            live = list(self._runs.values())
            for managed in live:
                self._cancel_locked(managed)
        for managed in live:
            managed.done.wait(timeout)

    def __enter__(self) -> "JobRegistry":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()
