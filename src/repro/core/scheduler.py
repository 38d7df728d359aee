"""Job scheduling: streaming runs, the result cache, and telemetry.

The :class:`Scheduler` turns an
:class:`~repro.core.spec.EvaluationSpec` into a
:class:`~repro.core.results.ResultSet`.  Each
:class:`~repro.core.jobs.MeasurementJob` is an independent simulation,
so execution is embarrassingly parallel: any
:class:`~repro.core.executors.Executor` backend can run it
(:class:`~repro.core.executors.SerialExecutor` in-process,
:class:`~repro.core.executors.ProcessPoolExecutor` over worker
processes, or ``RemoteExecutor`` over a ``repro worker`` fleet).
Finished samples land in a
:class:`~repro.core.cache.ResultCache` keyed by the job's content
address — pass ``cache_dir=`` for a persistent on-disk cache a killed
(or cancelled) sweep resumes from, and ``shards=`` to spread it over
N sub-stores.  A job whose sample cannot depend on its seed is
simulated once per pass, as the first job of its seed class
(:func:`~repro.core.jobs.canonical_job`) the pass meets; every other
seed's job is served that sample.  Every miss is answered by the
discrete-event simulation kernel, through the executor's ``submit``.

Execution itself is a *streaming* API.  :meth:`Scheduler.start`
returns a :class:`RunHandle` — the run executes in a background
thread while the handle exposes

* :meth:`RunHandle.events` — typed
  :class:`~repro.core.progress.RunEvent` records as they happen,
* :meth:`RunHandle.progress` — done/total/hit-rate/ETA snapshots,
* :meth:`RunHandle.cancel` — cooperative cancellation (in-flight work
  finishes and persists; queued work is dropped), and
* :meth:`RunHandle.result` — block until done and get the
  :class:`~repro.core.results.ResultSet`.

:meth:`Scheduler.run` and :meth:`Scheduler.run_jobs` are thin blocking
wrappers over :meth:`start`, so the classic call sites (CLI, bench
runner, the ``Evaluator`` shim) keep their exact semantics — including
store-as-completed cache persistence and the golden fixtures.

Every executed or cache-served job leaves a :class:`JobTelemetry`
record (wall time, executor, hit/miss, attempt count) in
``Scheduler.telemetry``; :meth:`Scheduler.run` hands the relevant
slice to the :class:`~repro.core.results.ResultSet` so exports carry
provenance alongside samples.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.cache import MISSING, ResultCache
from repro.core.executors import JobOutcome, SerialExecutor
# Not used here: perfbench/workloads.py imports create_executor from
# this module, and that import changes only with the benchmark.
from repro.core.executors import create_executor  # noqa: F401
from repro.core.jobs import MeasurementJob, canonical_job
from repro.core.progress import (
    CacheHit,
    JobFinished,
    JobStarted,
    Progress,
    RunCompleted,
    RunEvent,
)
from repro.errors import EvaluationError, RunCancelled

__all__ = ["JobTelemetry", "RunHandle", "Scheduler"]

@dataclass(frozen=True)
class JobTelemetry:
    """Provenance of one sample in one scheduler pass.

    Cache hits, including jobs served another seed's sample this
    pass, record ``wall_seconds=0.0`` — the sample cost nothing this
    pass.  ``wall_seconds`` reads ``None`` only in exports written by
    older versions whose executors could not time each job.
    """

    job: MeasurementJob  # schema: external - keyed by the job in telemetry maps
    executor: str
    cache_hit: bool
    wall_seconds: Optional[float]
    attempts: int

    def to_dict(self) -> dict:
        """Export form.  ``job`` is deliberately absent: telemetry is
        stored and exported in mappings keyed by the job, so embedding
        it would duplicate every job in every export row."""
        return {
            "executor": self.executor,
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, job: MeasurementJob, data: dict) -> "JobTelemetry":
        """Rebuild a record from its export row plus the job it was
        keyed under (the inverse of a ``{job: record.to_dict()}``
        mapping entry).  Rows from older versions may also carry an
        ``engine`` key, always ``"event"``; it is ignored."""
        return cls(
            job=job,
            executor=data["executor"],
            cache_hit=bool(data["cache_hit"]),
            wall_seconds=data["wall_seconds"],
            attempts=int(data["attempts"]),
        )


class RunHandle(object):
    """A live, observable, cancellable evaluation run.

    Created by :meth:`Scheduler.start` / :meth:`Scheduler.start_jobs`;
    the run itself executes in a daemon worker thread while this
    handle is the control surface.  Any number of :meth:`events`
    iterators may consume the stream (each sees every event from the
    beginning); :meth:`progress` and :meth:`values` snapshot state
    without consuming anything.

    Jobs are narrated in first-occurrence order whatever order the
    executor finishes them in: a job's events wait until every job met
    before it has ended, so a pool streams exactly what a serial run
    does (and what a stored run replays).  :meth:`progress` counts
    dispatches as they happen.

    Cancellation is cooperative: :meth:`cancel` returns immediately,
    the run stops *dispatching* new jobs, jobs already handed to the
    executor finish and persist to the cache, and the run ends with a
    :class:`~repro.core.progress.RunCompleted` event flagged
    ``cancelled``.  :meth:`result` then raises
    :class:`~repro.errors.RunCancelled` — re-running the spec over the
    same cache resumes exactly like a killed sweep.  A cancel seen
    while outcomes are still due cancels the run even when a pool's
    window already holds every job; cancelling after the last outcome
    arrived is a no-op.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        jobs: Iterable[MeasurementJob],
        total: Optional[int],
        spec=None,
        on_event: Optional[Callable[[RunEvent], None]] = None,
        buffer_events: bool = True,
    ) -> None:
        self._scheduler = scheduler
        self._spec = spec
        self._on_event = on_event
        self._buffer_events = buffer_events
        self._total = total
        self._values: Dict[MeasurementJob, Optional[float]] = {}
        self._events = []
        # Jobs met whose events are not all out, oldest first; the
        # events held back for them; those of them that have ended.
        self._unreleased: deque = deque()
        self._held: Dict[MeasurementJob, list] = {}
        self._ended = set()
        self._cond = threading.Condition()
        self._cancel_event = threading.Event()
        self._cancelled = False
        self._finished = False
        self._error: Optional[BaseException] = None
        self._dispatched = 0
        self._simulated = 0
        self._cache_hits = 0
        self._started_at = time.perf_counter()
        self._elapsed: Optional[float] = None
        self._thread = threading.Thread(
            target=self._work, args=(jobs,), name="repro-run", daemon=True
        )
        self._thread.start()

    # -- worker side (called from the run thread / executor threads) --

    def _work(self, jobs: Iterable[MeasurementJob]) -> None:
        try:
            self._scheduler._drive(jobs, self)
        except BaseException as error:  # noqa: BLE001 — re-raised in result()
            self._error = error
        finally:
            with self._cond:
                released = self._flush()  # a failed run's tail
                self._finished = True
                if self._elapsed is None:
                    self._elapsed = time.perf_counter() - self._started_at
                self._cond.notify_all()
            self._notify(released)

    def _notify(self, events: List[RunEvent]) -> None:
        # Outside the lock: a misbehaving callback must not be able to
        # deadlock progress()/events() consumers.
        if self._on_event is not None:
            for event in events:
                self._on_event(event)

    def _append(self, event: RunEvent) -> None:
        """Under ``self._cond``.  Skipping the replay buffer when no
        events() consumer can exist keeps blocking ``run``/``run_jobs``
        at O(1) event memory — a huge grid must not retain 2N+1 event
        records nobody will read."""
        if self._buffer_events:
            self._events.append(event)

    def _meet(self, job: MeasurementJob) -> None:
        """Under ``self._cond``: give ``job`` its first-occurrence slot
        (in the results and in the event stream)."""
        self._values[job] = None
        self._unreleased.append(job)

    def _file(self, job: MeasurementJob, event: RunEvent, ended: bool) -> List[RunEvent]:
        """Under ``self._cond``: stream one of ``job``'s events, or hold
        it while a job met earlier has not ended; returns what went out
        for :meth:`_notify`."""
        if self._unreleased[0] is not job:
            self._held.setdefault(job, []).append(event)
            if ended:
                self._ended.add(job)
            return []
        released = [event]
        if ended:
            self._unreleased.popleft()
            self._drain(released)
        return self._publish(released)

    def _drain(self, released: List[RunEvent]) -> List[RunEvent]:
        """Under ``self._cond``: add the held events of the oldest
        unreleased jobs to ``released``, up to the first that has not
        ended."""
        while self._unreleased:
            head = self._unreleased[0]
            released.extend(self._held.pop(head, ()))
            if head not in self._ended:
                break
            self._ended.discard(head)
            self._unreleased.popleft()
        return released

    def _flush(self) -> List[RunEvent]:
        """Under ``self._cond``: stream every held event, in order (the
        run is over)."""
        released: List[RunEvent] = []
        for job in self._unreleased:
            released.extend(self._held.pop(job, ()))
        self._unreleased.clear()
        self._ended.clear()
        return self._publish(released)

    def _publish(self, released: List[RunEvent]) -> List[RunEvent]:
        for event in released:
            self._append(event)
        self._cond.notify_all()
        return released

    def _job_started(self, job: MeasurementJob) -> None:
        with self._cond:
            self._meet(job)
            released = self._file(job, JobStarted(job, self._dispatched), ended=False)
            self._dispatched += 1
        self._notify(released)

    def _reserve(self, job: MeasurementJob) -> None:
        """Hold ``job``'s first-occurrence slot while it waits on the
        lead of its seed class, which another job dispatched."""
        with self._cond:
            self._meet(job)

    def _cache_hit(self, job: MeasurementJob, value: Optional[float]) -> None:
        with self._cond:
            if job not in self._values:  # met just now, not reserved
                self._meet(job)
            self._cache_hits += 1
            self._values[job] = value
            released = self._file(job, CacheHit(job, value), ended=True)
        self._notify(released)

    def _job_finished(self, job: MeasurementJob, outcome: JobOutcome) -> None:
        with self._cond:
            self._simulated += 1
            self._values[job] = outcome.value
            released = self._file(
                job,
                JobFinished(job, outcome.value, outcome.wall_seconds, outcome.attempts),
                ended=True,
            )
        self._notify(released)

    def _mark_cancelled(self) -> None:
        with self._cond:
            self._cancelled = True

    def _drop_reservations(self, jobs: Iterable[MeasurementJob]) -> None:
        """Forget dispatched-but-never-finished jobs (a cancelled run
        whose executor dropped queued work): their ``None``
        reservations must not read as samples, nor hold back the
        events of jobs met after them."""
        with self._cond:
            for job in jobs:
                self._values.pop(job, None)
                self._ended.add(job)
            released = self._publish(self._drain([]))
        self._notify(released)

    def _completed(self) -> None:
        with self._cond:
            self._elapsed = time.perf_counter() - self._started_at
            released = self._flush()
            event = RunCompleted(
                total=self._simulated + self._cache_hits,
                simulated=self._simulated,
                cache_hits=self._cache_hits,
                cancelled=self._cancelled,
                wall_seconds=self._elapsed,
            )
            self._append(event)
            self._cond.notify_all()
        self._notify(released + [event])

    # -- consumer side ------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """True once the run has actually observed a cancel request
        (not merely had one issued)."""
        return self._cancelled

    @property
    def running(self) -> bool:
        return not self._finished

    @property
    def spec(self):
        return self._spec

    def cancel(self) -> None:
        """Request cooperative cancellation and return immediately.

        No new jobs are dispatched after the request is observed;
        in-flight work finishes and its samples persist to the cache.
        Idempotent; a no-op once the run's last outcome arrived.
        """
        self._cancel_event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the run ends; True if it did within ``timeout``."""
        with self._cond:
            self._cond.wait_for(lambda: self._finished, timeout)
            return self._finished

    def events(self) -> Iterator[RunEvent]:
        """Iterate the run's typed events, from the beginning, live.

        Blocks between events while the run is active and ends after
        the final event.  Several iterators may run concurrently; each
        sees the full stream.
        """
        if not self._buffer_events:
            raise EvaluationError(
                "this run does not buffer events (blocking run()/run_jobs "
                "keep event memory at O(1)); use Scheduler.start(), or its "
                "on_event callback, to stream them"
            )
        index = 0
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: index < len(self._events) or self._finished
                )
                if index >= len(self._events):
                    return
                event = self._events[index]
            index += 1
            yield event

    def progress(self) -> Progress:
        """An immutable done/total/hit-rate/ETA snapshot, any time."""
        with self._cond:
            elapsed = self._elapsed
            if elapsed is None:
                elapsed = time.perf_counter() - self._started_at
            return Progress(
                total=self._total,
                dispatched=self._dispatched,
                completed=self._simulated + self._cache_hits,
                simulated=self._simulated,
                cache_hits=self._cache_hits,
                elapsed_seconds=elapsed,
                cancelled=self._cancelled,
                finished=self._finished,
            )

    def values(self) -> Dict[MeasurementJob, Optional[float]]:
        """Snapshot of the samples gathered so far (partial while the
        run is live; dispatched-but-unfinished jobs read ``None``)."""
        with self._cond:
            return dict(self._values)

    def result(self, timeout: Optional[float] = None):
        """Block until the run ends and return its result.

        Started from a spec this is the familiar
        :class:`~repro.core.results.ResultSet`; started from bare jobs
        it is the ``job -> sample`` dict.  A failed run re-raises the
        worker's exception; a cancelled run raises
        :class:`~repro.errors.RunCancelled`.

        An interrupt (ctrl-C) while waiting cancels the run
        cooperatively and *joins the worker first*, so every completed
        outcome is flushed to the cache before the KeyboardInterrupt
        propagates — an interrupted sweep resumes like a killed one.
        """
        try:
            finished = self.wait(timeout)
        except BaseException:
            self.cancel()
            self._thread.join()
            raise
        if not finished:
            raise EvaluationError(
                "run still executing after %gs (cancel() it, or wait "
                "without a timeout)" % timeout
            )
        if self._error is not None:
            raise self._error
        if self._cancelled:
            raise RunCancelled(
                "run cancelled after %d simulated + %d cached of %s jobs; "
                "completed samples are persisted — re-run the spec over the "
                "same cache to resume"
                % (self._simulated, self._cache_hits,
                   "?" if self._total is None else self._total)
            )
        if self._spec is None:
            return dict(self._values)
        from repro.core.results import ResultSet

        telemetry = {
            job: self._scheduler.telemetry[job]
            for job in self._values
            if job in self._scheduler.telemetry
        }
        return ResultSet(self._spec, self._values, telemetry=telemetry)


class Scheduler(object):
    """Executes specs: expand, dedupe, collapse seeds, consult the
    cache, fan out.

    Parameters
    ----------
    executor:
        Any :class:`~repro.core.executors.Executor` (default serial).
        Schedulers on several threads may share one built-in executor,
        each pass with its own window; :meth:`close` closes it, so a
        shared executor is closed by its owner instead.
    cache:
        A shared :class:`~repro.core.cache.ResultCache`; pass one
        cache to several schedulers (or several ``run`` calls) to
        share measurements across sweeps.
    cache_dir:
        Alternatively, a directory for a persistent on-disk cache
        (optionally split over ``shards`` sub-stores; the default
        ``None`` adopts the directory's recorded shard roster); an
        interrupted sweep re-launched with the same directory
        simulates only the jobs the first run never finished.
    retries:
        Attempts per job before an unexpected simulation failure
        propagates (1 = no retry).

    One scheduler drives one run at a time: start the next
    :class:`RunHandle` after the previous one ended (the executor and
    telemetry map are shared state).
    """

    #: Jobs probed against the cache per bulk ``get_many`` round-trip
    #: (one lock acquisition and, on disk, one directory listing per
    #: touched fanout bucket — instead of one probe per job).
    PROBE_CHUNK = 256

    def __init__(
        self,
        executor=None,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        shards: Optional[int] = None,
        retries: int = 1,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise EvaluationError("pass at most one of cache= and cache_dir=")
        if retries < 1:
            raise EvaluationError("retries must be >= 1")
        self.executor = executor if executor is not None else SerialExecutor()
        if cache is not None:
            self.cache = cache
        elif cache_dir is not None:
            self.cache = ResultCache.on_disk(cache_dir, shards=shards)
        else:
            self.cache = ResultCache()
        self.retries = retries
        #: Simulations actually executed (cache misses) over this
        #: scheduler's lifetime — the acceptance counter.
        self.simulations_run = 0
        #: job -> :class:`JobTelemetry` for every job this scheduler
        #: has served (latest pass wins on re-runs).
        self.telemetry: Dict[MeasurementJob, JobTelemetry] = {}

    def _drive(self, jobs: Iterable[MeasurementJob], handle: RunHandle) -> None:
        """The streaming core: dedupe, collapse seeds, consult the
        cache, dispatch misses, persist outcomes as they arrive, narrate
        everything through ``handle``.  Runs on the handle's worker
        thread; a custom executor may consume the job iterable on a
        thread of its own, so state both sides touch holds ``lock``.

        Seed collapse: jobs with equal :func:`canonical_job` share one
        sample, so only the first job of each such class the pass meets,
        its lead, is probed, executed and stored.  Every other job of
        the class is served the lead's sample as a cache hit, at its own
        first-occurrence position in the results.  Leads are chosen per
        pass, so a run reuses the cache entries of an earlier run only
        where both meet the same lead (for specs, the same first seed).
        """
        in_flight: deque = deque()  # leads, in executor order
        seen = set()
        # The lead of each seed class this pass has met (touched only by
        # the thread consuming misses()).
        lead_of: Dict[MeasurementJob, MeasurementJob] = {}
        # Lead samples known this pass, and the jobs waiting on each
        # dispatched lead (its announced owner first).  Both threads
        # touch them, so every read-modify-write holds the lock.
        resolved: Dict[MeasurementJob, Optional[float]] = {}
        waiting: Dict[MeasurementJob, list] = {}
        lock = threading.Lock()

        def serve(job: MeasurementJob, value: Optional[float]) -> None:
            self.telemetry[job] = JobTelemetry(job, self.executor.name, True, 0.0, 0)
            handle._cache_hit(job, value)

        def finish(lead: MeasurementJob, outcome: JobOutcome) -> None:
            self.cache.store(lead, outcome.value)
            with lock:
                resolved[lead] = outcome.value
                owner, *siblings = waiting.pop(lead)
            self.telemetry[owner] = JobTelemetry(
                owner, self.executor.name, False, outcome.wall_seconds,
                outcome.attempts,
            )
            self.simulations_run += 1
            handle._job_finished(owner, outcome)
            for job in siblings:
                serve(job, outcome.value)

        def drop(leads: Iterable[MeasurementJob]) -> None:
            """Forget the reservations of every job waiting on one of
            ``leads``, which will never finish."""
            with lock:
                handle._drop_reservations(
                    [job for lead in leads for job in waiting.pop(lead, ())]
                )

        def misses() -> Iterator[MeasurementJob]:
            source = iter(jobs)
            while True:
                # Probe the cache a chunk at a time: one get_many call
                # replaces PROBE_CHUNK individual lookups (and, on
                # disk, one listdir per bucket replaces one open
                # attempt per job).
                chunk = list(itertools.islice(source, self.PROBE_CHUNK))
                if not chunk:
                    return
                leads = [lead_of.setdefault(canonical_job(job), job) for job in chunk]
                with lock:
                    unknown = dict.fromkeys(
                        lead for job, lead in zip(chunk, leads)
                        if job not in seen and lead not in resolved
                        and lead not in waiting
                    )
                cached = self.cache.get_many(unknown)
                for job, lead in zip(chunk, leads):
                    if handle._cancel_event.is_set():
                        # Cooperative cancel: stop dispatching.
                        # Everything already yielded keeps executing
                        # (and persisting); this job and the rest of
                        # the stream are dropped.
                        handle._mark_cancelled()
                        return
                    if job in seen:
                        continue
                    seen.add(job)
                    with lock:
                        if lead in waiting:
                            # Its lead is in flight: hold this job's
                            # slot until the sample arrives.
                            waiting[lead].append(job)
                            handle._reserve(job)
                            continue
                        if lead in cached:
                            resolved[lead] = cached[lead]
                        value = resolved.get(lead, MISSING)
                        if value is MISSING:
                            waiting[lead] = [job]
                    if value is not MISSING:
                        serve(job, value)
                        continue
                    in_flight.append(lead)
                    handle._job_started(job)
                    yield lead

        # Store each outcome as the executor yields it: a sweep killed
        # (or crashed, or cancelled) mid-batch keeps every job it
        # finished, which is what makes --cache-dir resume skip all
        # completed work.
        for outcome in self.executor.submit(misses(), retries=self.retries):
            if not in_flight:
                raise EvaluationError(
                    "executor %s returned more outcomes than jobs"
                    % self.executor.name
                )
            finish(in_flight.popleft(), outcome)
            if in_flight and handle._cancel_event.is_set():
                # A pool may hold every remaining job already: the
                # run still ends cancelled once they have persisted.
                handle._mark_cancelled()
        if in_flight:
            if handle.cancelled:
                # The built-in executors finish everything dispatched,
                # but a cancelled custom backend may drop queued jobs;
                # their reservations must not masquerade as samples.
                drop(in_flight)
            else:
                raise EvaluationError(
                    "executor %s returned %d outcome(s) too few"
                    % (self.executor.name, len(in_flight))
                )
        handle._completed()

    # -- the streaming API --------------------------------------------

    def start(
        self,
        spec,
        on_event: Optional[Callable[[RunEvent], None]] = None,
        buffer_events: bool = True,
    ) -> RunHandle:
        """Begin running ``spec`` and return its :class:`RunHandle`.

        Returns immediately; the sweep executes on a background
        thread.  ``on_event`` (optional) is called synchronously for
        every :class:`~repro.core.progress.RunEvent` — note it may
        fire from executor-internal threads.  ``buffer_events=False``
        disables the :meth:`RunHandle.events` replay buffer (O(1)
        event memory; ``on_event`` and ``progress()`` still work) —
        what the blocking wrappers do for huge grids.
        """
        expand = getattr(spec, "iter_jobs", spec.jobs)
        counter = getattr(spec, "job_count", None)
        total = counter() if counter is not None else None
        return RunHandle(
            self, expand(), total=total, spec=spec, on_event=on_event,
            buffer_events=buffer_events,
        )

    def start_jobs(
        self,
        jobs: Iterable[MeasurementJob],
        total: Optional[int] = None,
        on_event: Optional[Callable[[RunEvent], None]] = None,
        buffer_events: bool = True,
    ) -> RunHandle:
        """Like :meth:`start` for a bare job iterable (lazy iterables
        welcome — they are consumed as the run advances).  ``total``
        feeds progress/ETA; it defaults to ``len(jobs)`` when the
        iterable is sized and stays unknown otherwise."""
        if total is None:
            try:
                total = len(jobs)  # type: ignore[arg-type]
            except TypeError:
                total = None
        return RunHandle(
            self, jobs, total=total, on_event=on_event,
            buffer_events=buffer_events,
        )

    # -- blocking wrappers (the classic API) --------------------------

    def run_jobs(
        self, jobs: Iterable[MeasurementJob]
    ) -> Dict[MeasurementJob, Optional[float]]:
        """Samples for ``jobs``, simulating only what the cache lacks.

        A thin blocking wrapper over :meth:`start_jobs`.  ``jobs`` may
        be any iterable — in particular a streaming spec expansion
        (:meth:`EvaluationSpec.iter_jobs`); it is consumed lazily, so
        a huge grid never materializes as a full job list.

        A job's ``noise`` amplitude is part of its content address,
        so noisy and deterministic runs of the same configuration are
        distinct cache entries — a noisy sweep never serves (or
        poisons) a deterministic one.
        """
        # No events() consumer can exist for a blocking call: skip the
        # replay buffer so huge grids stay at O(1) event memory.
        return self.start_jobs(jobs, buffer_events=False).result()

    def run(self, spec, on_event: Optional[Callable[[RunEvent], None]] = None):
        """Run a whole spec and wrap the samples in a ResultSet.

        A thin blocking wrapper over :meth:`start`; pass ``on_event``
        to observe the run without managing the handle yourself.
        """
        return self.start(spec, on_event=on_event, buffer_events=False).result()

    def close(self) -> None:
        """Release executor resources (a persistent worker pool, if any)."""
        self.executor.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
