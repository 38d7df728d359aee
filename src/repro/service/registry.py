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
  never-finished jobs.
* **Persistence** — every lifecycle edge is written through the
  :class:`~repro.service.store.RunStore` state machine, with final
  counters and the exported results (partial samples for cancelled
  runs, so a cancel never discards finished measurements).

A watcher thread per run observes completion; the registry itself
never blocks a caller.  :meth:`events` is the blocking iterator each
SSE response writes out on its connection's thread: it replays the
run's buffered events and then follows live (several consumers may
stream one run), announcing the end only after the outcome is
persisted, and for runs that are no longer resident (a restarted
server) it synthesizes the terminal
:class:`~repro.core.progress.RunCompleted` from the store.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.cache import ResultCache
from repro.core.progress import Progress, RunCompleted, RunEvent
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.errors import RunCancelled, ServiceError
from repro.service.store import RunStore, TERMINAL_STATES

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


class _ManagedRun(object):
    """Registry-internal bookkeeping for one resident run."""

    __slots__ = ("run_id", "user", "spec", "state", "scheduler", "handle",
                 "started", "done", "watcher")

    def __init__(self, run_id: str, user: str, spec: EvaluationSpec) -> None:
        self.run_id = run_id
        self.user = user
        self.spec = spec
        self.state = "queued"
        self.scheduler: Optional[Scheduler] = None
        self.handle = None
        #: Set once the run has a handle *or* reached a terminal state
        #: without ever starting — what events() consumers wait on.
        self.started = threading.Event()
        self.done = threading.Event()
        self.watcher: Optional[threading.Thread] = None


class JobRegistry(object):
    """Per-user admission, FIFO queueing and lifecycle persistence.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.RunStore` every lifecycle
        edge is written through.
    scheduler_factory:
        Zero-argument callable yielding a fresh
        :class:`~repro.core.scheduler.Scheduler` per admitted run.
        The default shares one thread-safe in-memory
        :class:`~repro.core.cache.ResultCache` across all runs of
        this registry; pass a factory closing over
        ``ResultCache.on_disk(...)`` for the durable variant.
    per_user_limit:
        Concurrently *running* evaluations per user (>= 1); further
        submissions queue FIFO.
    history:
        Optional :class:`~repro.history.HistoryStore`.  Every run that
        *completes* (not cancelled, not failed — partial grids would
        poison cross-run diffs) is appended to it from the watcher
        thread, and the server exposes it under ``GET
        /api/history/...``.  Recording is best-effort: a history
        failure is reported on stderr but never fails the run itself.
    """

    def __init__(
        self,
        store: RunStore,
        scheduler_factory: Optional[Callable[[], Scheduler]] = None,
        per_user_limit: int = 2,
        history=None,
    ) -> None:
        if per_user_limit < 1:
            raise ServiceError("per_user_limit must be >= 1")
        self.store = store
        self.history = history
        self.per_user_limit = per_user_limit
        if scheduler_factory is None:
            shared = ResultCache()
            scheduler_factory = lambda: Scheduler(cache=shared)  # noqa: E731
        self._scheduler_factory = scheduler_factory
        self._lock = threading.Lock()
        self._runs: Dict[str, _ManagedRun] = {}  # guarded-by: _lock
        self._queues: Dict[str, deque] = {}   # user -> run_ids waiting; guarded-by: _lock
        self._active: Dict[str, set] = {}     # user -> run_ids running; guarded-by: _lock
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
            while run_id in self._runs:  # pragma: no cover - astronomically rare
                run_id = uuid.uuid4().hex[:12]
            record = self.store.create(run_id, user, spec.to_dict())
            managed = _ManagedRun(run_id, user, spec)
            self._runs[run_id] = managed
            if len(self._active.setdefault(user, set())) < self.per_user_limit:
                self._start_locked(managed)
            else:
                self._queues.setdefault(user, deque()).append(run_id)
            record["state"] = managed.state
            return record

    def _start_locked(self, managed: _ManagedRun) -> None:
        """Move one queued run to running (caller holds the lock)."""
        self.store.transition(managed.run_id, "running")
        managed.state = "running"
        self._active.setdefault(managed.user, set()).add(managed.run_id)
        managed.scheduler = self._scheduler_factory()
        managed.handle = managed.scheduler.start(managed.spec)
        managed.started.set()
        managed.watcher = threading.Thread(
            target=self._watch, args=(managed,),
            name="repro-service-watch-%s" % managed.run_id, daemon=True,
        )
        managed.watcher.start()

    # -- completion (watcher threads) ----------------------------------

    def _watch(self, managed: _ManagedRun) -> None:
        managed.handle.wait()
        self._finalize(managed)

    def _finalize(self, managed: _ManagedRun) -> None:
        """Persist a finished run's outcome and admit the user's next.

        Runs on the watcher thread after the handle's worker ended, so
        every completed sample is already flushed to the cache — the
        same interrupt-flush guarantee
        :meth:`~repro.core.scheduler.RunHandle.result` gives a ctrl-C'd
        blocking run.
        """
        handle = managed.handle
        progress = handle.progress()
        error = None
        result_export = None
        try:
            result = handle.result()
            state = "completed"
            result_export = result.to_dict()
            self._record_history(managed, result_export)
        except RunCancelled:
            state = "cancelled"
            result_export = self._partial_export(handle)
        except Exception as failure:  # noqa: BLE001 - recorded, not raised
            state = "failed"
            error = "%s: %s" % (type(failure).__name__, failure)
        try:
            self.store.transition(
                managed.run_id, state, error=error,
                simulated=progress.simulated, cache_hits=progress.cache_hits,
                wall_seconds=progress.elapsed_seconds, result=result_export,
            )
        finally:
            if managed.scheduler is not None:
                managed.scheduler.close()
            with self._lock:
                managed.state = state
                managed.done.set()
                self._active.get(managed.user, set()).discard(managed.run_id)
                self._admit_next_locked(managed.user)

    def _record_history(self, managed: _ManagedRun, result_export: dict) -> None:
        """Append a completed run to the history store (best-effort).

        Runs on the watcher thread; the HistoryStore serializes its
        own access, so any number of concurrent watchers may append.
        A history failure must never turn a completed evaluation into
        a failed one — it is reported and swallowed.
        """
        if self.history is None:
            return
        try:
            from repro.history.store import current_git_sha

            self.history.record_result(
                result_export, label=managed.run_id, source="service",
                git_sha=current_git_sha(),
            )
        except Exception as error:  # noqa: BLE001 - reported, not raised
            import sys

            print("history: failed to record run %s (%s)"
                  % (managed.run_id, error), file=sys.stderr)

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
        queue = self._queues.get(user)
        while (
            queue
            and not self._shutting_down
            and len(self._active.get(user, set())) < self.per_user_limit
        ):
            next_id = queue.popleft()
            managed = self._runs[next_id]
            if managed.state != "queued":  # cancelled while waiting
                continue
            self._start_locked(managed)

    # -- queries -------------------------------------------------------

    def status(self, run_id: str) -> dict:
        """The stored record, augmented with a live progress snapshot
        (and the registry's in-flight state) while the run is resident."""
        record = self.store.get(run_id)
        with self._lock:
            managed = self._runs.get(run_id)
        if managed is not None and managed.handle is not None and not managed.done.is_set():
            record["progress"] = progress_to_dict(managed.handle.progress())
        return record

    def list_runs(self, user: Optional[str] = None) -> List[dict]:
        # Filters normalize like identities do, except blank means "no
        # filter" (a query parameter, not a billed identity).
        if user is not None:
            user = user.strip() or None
        return self.store.list_runs(user)

    # -- cancellation --------------------------------------------------

    def cancel(self, run_id: str) -> dict:
        """Cancel a queued or running run; terminal runs are a no-op.

        Queued runs move straight to ``cancelled`` (they never held a
        scheduler).  Running runs get a cooperative
        :meth:`~repro.core.scheduler.RunHandle.cancel` — in-flight jobs
        finish and persist, and the watcher records ``cancelled`` with
        the partial results.  Returns the current stored record.
        """
        with self._lock:
            managed = self._runs.get(run_id)
            if managed is None:
                record = self.store.get(run_id)  # raises for unknown ids
                if record["state"] not in TERMINAL_STATES:  # pragma: no cover
                    raise ServiceError(
                        "run %s is %s but not resident in this server"
                        % (run_id, record["state"])
                    )
                return record
            if managed.state == "queued":
                self._cancel_queued_locked(managed)
                return self.store.get(run_id)
            if managed.state == "running":
                managed.handle.cancel()
                record = self.store.get(run_id)
                record["cancel_requested"] = True
                return record
        return self.store.get(run_id)

    def _cancel_queued_locked(self, managed: _ManagedRun) -> None:
        queue = self._queues.get(managed.user)
        if queue is not None and managed.run_id in queue:
            queue.remove(managed.run_id)
        self.store.transition(
            managed.run_id, "cancelled", error="cancelled while queued"
        )
        managed.state = "cancelled"
        managed.started.set()
        managed.done.set()

    # -- event streaming -----------------------------------------------

    def events(self, run_id: str) -> Iterator[RunEvent]:
        """Blocking iterator of a run's typed events: full replay,
        then live, ending after the terminal event.

        The terminal :class:`~repro.core.progress.RunCompleted` (or,
        for a failed run, the end of the stream) is released only once
        the watcher has persisted the outcome, so a consumer that
        reads :meth:`status` on it sees the final record.

        Non-resident runs (history from before a restart) yield one
        synthesized :class:`~repro.core.progress.RunCompleted` carrying
        the stored counters; queued runs block until admission, then
        stream normally.  Safe for any number of concurrent consumers.
        """
        with self._lock:
            managed = self._runs.get(run_id)
        if managed is None:
            yield self._synthesized_completion(self.store.get(run_id))
            return
        managed.started.wait()
        if managed.handle is None:
            # Cancelled (or shut down) while queued: never had events.
            yield self._synthesized_completion(self.store.get(run_id))
            return
        for event in managed.handle.events():
            if isinstance(event, RunCompleted):
                managed.done.wait()  # persist, then announce
            yield event
        managed.done.wait()  # a failed run ends without RunCompleted

    @staticmethod
    def _synthesized_completion(record: dict) -> RunCompleted:
        state = record["state"]
        if state not in TERMINAL_STATES:
            raise ServiceError(
                "run %s is %s but has no live event stream in this server"
                % (record["run_id"], state)
            )
        simulated = record.get("simulated") or 0
        cache_hits = record.get("cache_hits") or 0
        return RunCompleted(
            total=simulated + cache_hits,
            simulated=simulated,
            cache_hits=cache_hits,
            cancelled=state == "cancelled",
            wall_seconds=record.get("wall_seconds") or 0.0,
        )

    # -- shutdown ------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: queued runs cancel, running runs finish their
        in-flight jobs and persist (cooperative cancel + join), new
        submissions are refused.  Idempotent.

        This mirrors the blocking API's ctrl-C semantics: nothing a
        simulation already produced is lost, and the store ends with
        every resident run in a terminal state.
        """
        with self._lock:
            self._shutting_down = True
            queued = [managed for managed in self._runs.values()
                      if managed.state == "queued"]
            for managed in queued:
                self._cancel_queued_locked(managed)
            running = [managed for managed in self._runs.values()
                       if managed.state == "running"]
            for managed in running:
                managed.handle.cancel()
        for managed in running:
            if managed.watcher is not None:
                managed.watcher.join(timeout)

    def __enter__(self) -> "JobRegistry":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()
